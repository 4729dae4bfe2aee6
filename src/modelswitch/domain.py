"""Core value types shared by the switching loop.

Conventions: CPU usage is a percentage in [0, 100], confidences are
fractions in [0, 1]. Conversion to display percentages happens only at
reporting boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

ModelId = str


class SelectionMode(Enum):
    """How a selection decision was reached."""

    EXPLORE = "explore"
    EXPLOIT = "exploit"
    FORCED = "forced"


@dataclass(frozen=True, slots=True)
class FrameMetrics:
    """What the monitor records for one processed frame."""

    frame_index: int
    model: ModelId
    confidence_score: float  # mean detection confidence, 0.0 for an empty frame
    cpu_usage: float  # percent
    detection_count: int
    inference_time_ms: float

    def __post_init__(self) -> None:
        if self.frame_index < 0:
            raise ValueError(f"negative frame_index: {self.frame_index}")
        if not 0.0 <= self.cpu_usage <= 100.0:
            raise ValueError(f"cpu_usage out of range: {self.cpu_usage}")
        if not 0.0 <= self.confidence_score <= 1.0:
            raise ValueError(f"confidence_score out of range: {self.confidence_score}")
        if self.detection_count < 0:
            raise ValueError(f"negative detection_count: {self.detection_count}")
        if self.detection_count == 0 and self.confidence_score != 0.0:
            raise ValueError("empty frame must carry confidence_score 0.0")


@dataclass(frozen=True, slots=True)
class WindowAggregate:
    """Sliding-window averages for one model."""

    model: ModelId
    avg_confidence: float
    avg_cpu: float
    sample_count: int


@dataclass(frozen=True, slots=True)
class SelectionDecision:
    """Outcome of one planner invocation."""

    selected: ModelId
    mode: SelectionMode
    random_draw: float | None
    previous: ModelId


@dataclass(frozen=True, slots=True)
class SwitchEvent:
    """An executed model change and what it cost."""

    frame_index: int
    from_model: ModelId
    to_model: ModelId
    switch_time_ms: float


def mean_confidence(confidences: Sequence[float]) -> float:
    """Mean of a frame's detection confidences; 0.0 when nothing was detected."""
    if not confidences:
        return 0.0
    return sum(confidences) / len(confidences)
