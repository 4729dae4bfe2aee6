"""Scoring: turn windowed observations into per-model desirability values.

A score is min(current_cpu, windowed_cpu) * (1 - windowed_confidence /
current_confidence). Lower is better everywhere in this package: the value
goes negative exactly when the model's current confidence sits below its
own recent average, so a dip reads as attractive and a lucky streak reads
as expensive. Confidence enters only as a ratio, so current and windowed
confidence merely have to share a unit.

A model's score changes only when that model records a frame, so scores
are computed when read and nothing stores them.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator, Mapping

from modelswitch.domain import ModelId
from modelswitch.monitor import MetricsWindow

# Read in place of a score when the current confidence is zero: the
# largest finite float, so exploitation can never prefer the model while
# exploration may still visit it.
ZERO_CONFIDENCE_SCORE = sys.float_info.max


class ZeroConfidence(Exception):
    """Score undefined: the frame carried no detection confidence."""


def compute_score(
    current_cpu: float, current_confidence: float, avg_cpu: float, avg_confidence: float
) -> float:
    """Score one model from its latest frame and its window averages.

    A zero CPU factor scores 0.0 outright: the ratio can overflow to
    infinity (a subnormal current confidence), and 0 * inf is NaN.
    """
    if current_confidence == 0.0:
        raise ZeroConfidence()
    cpu = min(current_cpu, avg_cpu)
    if cpu == 0.0:
        return 0.0
    return cpu * (1.0 - avg_confidence / current_confidence)


class Scores(Mapping[ModelId, float]):
    """Read-only score per model over the monitor's windows: 0.0 before the
    model's first frame, then its latest frame against its window means,
    cached until the window records a newer frame."""

    def __init__(self, windows: Mapping[ModelId, MetricsWindow]):
        self._windows = windows
        # model -> (the window's last frame index when scored, score)
        self._cache: dict[ModelId, tuple[int, float]] = {}

    def __getitem__(self, model: ModelId) -> float:
        window = self._windows[model]
        last_frame = window.last_frame
        if last_frame < 0:
            return 0.0
        cached = self._cache.get(model)
        if cached is not None and cached[0] == last_frame:
            return cached[1]
        cpus, confidences = window.cpus, window.confidences
        n = len(cpus)
        try:
            value = compute_score(cpus[-1], confidences[-1], sum(cpus) / n, sum(confidences) / n)
        except ZeroConfidence:
            value = ZERO_CONFIDENCE_SCORE
        self._cache[model] = (last_frame, value)
        return value

    def __iter__(self) -> Iterator[ModelId]:
        return iter(self._windows)

    def __len__(self) -> int:
        return len(self._windows)
