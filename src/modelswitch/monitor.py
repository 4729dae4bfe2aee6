"""Per-frame monitoring state: one sliding window of recent figures per model.

Each model keeps its own fixed-capacity window of recent confidence and
CPU figures and the index of its last recorded frame. The window owns what
is derived from them: its means over whatever it holds, and its score, the
analyzer's formula for the latest frame against those means. The executor
checks each processed frame's figures and records them into the active
model's window and the log registry, so every processed frame lands in
exactly one window entry and one log row.
"""

from __future__ import annotations

from collections import deque

from modelswitch.analyzer import compute_score
from modelswitch.domain import ModelId


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
        # What score() returns: 0.0 before the first frame, None from a record until read.
        self._score: float | None = 0.0

    def record(self, frame_index: int, cpu_usage: float, confidence_score: float) -> None:
        if frame_index <= self.last_frame:
            raise ValueError(f"{self.model}: frame {frame_index} after {self.last_frame}")
        self.last_frame = frame_index
        self.confidences.append(confidence_score)
        self.cpus.append(cpu_usage)
        self._score = None

    def means(self) -> tuple[float, float] | None:
        """(mean CPU, mean confidence) over the current window; None when empty."""
        n = len(self.cpus)
        if not n:
            return None
        return sum(self.cpus) / n, sum(self.confidences) / n

    def score(self) -> float:
        """compute_score of the latest frame against the window means; 0.0 before
        the first frame. Computed when first read after a record, then kept."""
        score = self._score
        if score is None:
            score = self._score = compute_score(self.cpus[-1], self.confidences[-1], *self.means())
        return score

    def __len__(self) -> int:
        return len(self.cpus)
