"""Per-frame metric collection and sliding-window aggregation.

Each model keeps its own fixed-capacity window of recent confidence and
CPU figures, plus its latest frame metrics; aggregates are plain arithmetic
means over whatever the window currently holds. Recording also appends the
metrics to the shared log registry, so every processed frame lands in
exactly one window entry and one log row.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import Iterable, Mapping

from modelswitch.domain import FrameMetrics, ModelId, WindowAggregate
from modelswitch.knowledge import LogRegistry, UnknownModel

DEFAULT_WINDOW_CAPACITY = 30


class OutOfOrderFrame(Exception):
    """A frame index at or below the last one recorded for that model."""


class MetricsWindow:
    """Fixed-capacity FIFO of one model's recent confidence and CPU figures.

    ``confidences`` and ``cpus`` are the window itself, oldest first, for
    readers that average it without an aggregate; only ``record`` writes them.
    """

    def __init__(self, model: ModelId, capacity: int):
        if capacity <= 0:
            raise ValueError(f"window capacity must be positive: {capacity}")
        self.model = model
        self.confidences: deque[float] = deque(maxlen=capacity)
        self.cpus: deque[float] = deque(maxlen=capacity)
        self._latest: FrameMetrics | None = None

    def record(self, metrics: FrameMetrics) -> None:
        latest = self._latest
        if latest is not None and metrics.frame_index <= latest.frame_index:
            raise OutOfOrderFrame(
                f"{self.model}: frame {metrics.frame_index} after {latest.frame_index}"
            )
        self._latest = metrics
        self.confidences.append(metrics.confidence_score)
        self.cpus.append(metrics.cpu_usage)

    def aggregate(self) -> WindowAggregate | None:
        """Mean confidence and CPU over the current window; None when empty."""
        n = len(self.cpus)
        if not n:
            return None
        return WindowAggregate(
            model=self.model,
            avg_confidence=sum(self.confidences) / n,
            avg_cpu=sum(self.cpus) / n,
            sample_count=n,
        )

    def latest(self) -> FrameMetrics | None:
        return self._latest

    def __len__(self) -> int:
        return len(self.cpus)


class Monitor:
    """Routes frame metrics into per-model windows and the log registry.

    ``windows`` maps each model to its window, read-only; readers ask a
    window for its ``latest()`` metrics and its ``aggregate()``.
    """

    def __init__(
        self,
        model_ids: Iterable[ModelId],
        registry: LogRegistry,
        capacity: int = DEFAULT_WINDOW_CAPACITY,
    ):
        self._windows = {m: MetricsWindow(m, capacity) for m in model_ids}
        self.windows: Mapping[ModelId, MetricsWindow] = MappingProxyType(self._windows)
        self._registry = registry

    def record(self, metrics: FrameMetrics, sim_time_ms: float) -> None:
        try:
            window = self._windows[metrics.model]
        except KeyError:
            raise UnknownModel(metrics.model) from None
        window.record(metrics)
        self._registry.append_metrics(metrics, sim_time_ms)
