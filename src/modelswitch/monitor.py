"""Per-frame metric collection and sliding-window aggregation.

Each model keeps its own fixed-capacity window of recent confidence and
CPU figures and the index of its last recorded frame; aggregates are plain
arithmetic means over whatever the window currently holds. Recording
checks a frame's figures, then appends them to the model's window and to
the shared log registry, so every processed frame lands in exactly one
window entry and one log row. A frame's figures arrive as plain values, in
metrics.csv column order; no per-frame record is built.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import Iterable, Mapping

from modelswitch.domain import ModelId, WindowAggregate, check_frame
from modelswitch.knowledge import LogRegistry, UnknownModel

DEFAULT_WINDOW_CAPACITY = 30


class OutOfOrderFrame(Exception):
    """A frame index at or below the last one recorded for that model."""


class MetricsWindow:
    """Fixed-capacity FIFO of one model's recent confidence and CPU figures.

    ``cpus`` and ``confidences`` are the window itself, oldest first, so
    ``cpus[-1]`` and ``confidences[-1]`` are the model's latest frame;
    ``last_frame`` is that frame's index, -1 before the first. Only
    ``record`` writes them.
    """

    def __init__(self, model: ModelId, capacity: int):
        if capacity <= 0:
            raise ValueError(f"window capacity must be positive: {capacity}")
        self.model = model
        self.confidences: deque[float] = deque(maxlen=capacity)
        self.cpus: deque[float] = deque(maxlen=capacity)
        self.last_frame = -1

    def record(self, frame_index: int, cpu_usage: float, confidence_score: float) -> None:
        if frame_index <= self.last_frame:
            raise OutOfOrderFrame(f"{self.model}: frame {frame_index} after {self.last_frame}")
        self.last_frame = frame_index
        self.confidences.append(confidence_score)
        self.cpus.append(cpu_usage)

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

    def __len__(self) -> int:
        return len(self.cpus)


class Monitor:
    """Routes frame figures into per-model windows and the log registry.

    ``windows`` maps each model to its window, read-only.
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

    def record(
        self,
        frame_index: int,
        sim_time_ms: float,
        model: ModelId,
        cpu_usage: float,
        confidence_score: float,
        detection_count: int,
        inference_time_ms: float,
    ) -> None:
        """Record one processed frame; ValueError if its figures are out of range,
        UnknownModel if model has no window."""
        check_frame(frame_index, cpu_usage, confidence_score, detection_count)
        try:
            window = self._windows[model]
        except KeyError:
            raise UnknownModel(model) from None
        window.record(frame_index, cpu_usage, confidence_score)
        self._registry.append_metrics(
            frame_index,
            sim_time_ms,
            model,
            cpu_usage,
            confidence_score,
            detection_count,
            inference_time_ms,
        )
