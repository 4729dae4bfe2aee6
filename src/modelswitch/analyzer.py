"""Scoring: turn windowed observations into per-model desirability values.

A score is min(current_cpu, windowed_cpu) * (1 - windowed_confidence /
current_confidence). Lower is better everywhere in this package: the value
goes negative exactly when the model's current confidence sits below its
own recent average, so a dip reads as attractive and a lucky streak reads
as expensive. Confidence enters only as a ratio, so current and windowed
confidence merely have to share a unit.
"""

from __future__ import annotations

import sys

from modelswitch.domain import FrameMetrics
from modelswitch.knowledge import ScoreTable, UnknownModel
from modelswitch.monitor import Monitor

# Written in place of a score when the current confidence is zero: the
# largest finite float, so exploitation can never prefer the model while
# exploration may still visit it.
ZERO_CONFIDENCE_SCORE = sys.float_info.max


class ZeroConfidence(Exception):
    """Score undefined: the frame carried no detection confidence."""


def compute_score(
    current_cpu: float, current_confidence: float, avg_cpu: float, avg_confidence: float
) -> float:
    """Score one model from its latest frame and its window averages."""
    if current_confidence == 0.0:
        raise ZeroConfidence()
    return min(current_cpu, avg_cpu) * (1.0 - avg_confidence / current_confidence)


class Analyzer:
    """Keeps the score table in step with what the monitor has seen."""

    def __init__(self, monitor: Monitor, table: ScoreTable):
        self._windows = monitor.windows
        self._table = table

    def refresh_scores(self, frame: FrameMetrics) -> float:
        """Re-score the model that just processed a frame from its window's
        means and return the score; other entries keep their previous
        (possibly stale) values."""
        model = frame.model
        try:
            window = self._windows[model]
        except KeyError:
            raise UnknownModel(model) from None
        cpus = window.cpus
        n = len(cpus)
        if not n:
            # refresh_scores is only called after the frame was recorded,
            # so the window cannot be empty here.
            raise RuntimeError(f"no window data for {model}")
        try:
            value = compute_score(
                frame.cpu_usage, frame.confidence_score, sum(cpus) / n, sum(window.confidences) / n
            )
        except ZeroConfidence:
            value = ZERO_CONFIDENCE_SCORE
        self._table.update(model, value)
        return value
