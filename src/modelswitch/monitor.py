"""Per-frame monitoring state: one sliding window of recent figures per model.

Each model keeps its own fixed-capacity window of recent confidence and
CPU figures and the index of its last recorded frame; aggregates are plain
arithmetic means over whatever the window currently holds. The loop builds
one window per registered model. The executor checks each processed frame's
figures and records them into the active model's window and the log
registry, so every processed frame lands in exactly one window entry and
one log row.
"""

from __future__ import annotations

from collections import deque

from modelswitch.domain import ModelId, WindowAggregate

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
