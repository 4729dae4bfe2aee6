"""Scoring: turn windowed observations into per-model desirability values.

A score is min(current_cpu, windowed_cpu) * (1 - windowed_confidence /
current_confidence). Lower is better everywhere in this package: the value
goes negative exactly when the model's current confidence sits below its
own recent average, so a dip reads as attractive and a lucky streak reads
as expensive. Confidence enters only as a ratio, so current and windowed
confidence merely have to share a unit.

Each model's MetricsWindow scores itself with compute_score when a
strategy reads it; this module keeps only the formula.
"""

from __future__ import annotations

import sys

# The score of a frame with zero confidence, where the ratio is undefined:
# the largest finite float, so exploitation can never prefer the model while
# exploration may still visit it.
ZERO_CONFIDENCE_SCORE = sys.float_info.max


def compute_score(
    current_cpu: float, current_confidence: float, avg_cpu: float, avg_confidence: float
) -> float:
    """Score one model from its latest frame and its window averages.

    A zero current confidence scores ZERO_CONFIDENCE_SCORE. A zero CPU
    factor scores 0.0 outright: the ratio can overflow to infinity (a
    subnormal current confidence), and 0 * inf is NaN.
    """
    if current_confidence == 0.0:
        return ZERO_CONFIDENCE_SCORE
    cpu = min(current_cpu, avg_cpu)
    if cpu == 0.0:
        return 0.0
    return cpu * (1.0 - avg_confidence / current_confidence)
