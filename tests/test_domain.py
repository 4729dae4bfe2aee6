from __future__ import annotations

import statistics
from random import Random

import pytest

from modelswitch.domain import SelectionMode, check_frame, mean_confidence


def test_selection_mode_serialized_values() -> None:
    assert SelectionMode.EXPLORE.value == "explore"
    assert SelectionMode.EXPLOIT.value == "exploit"
    assert SelectionMode.FORCED.value == "forced"


def test_frame_confidence_empty_is_zero() -> None:
    assert mean_confidence([]) == 0.0


def test_frame_confidence_is_the_mean() -> None:
    assert mean_confidence([0.85, 0.75, 0.9]) == pytest.approx(2.5 / 3.0)


def test_frame_confidence_matches_stdlib_mean() -> None:
    rng = Random(271)
    for _ in range(200):
        confidences = [rng.random() for _ in range(rng.randrange(1, 12))]
        assert mean_confidence(confidences) == pytest.approx(
            statistics.fmean(confidences), abs=1e-12
        )


def test_check_frame_accepts_a_processed_frame_and_an_empty_one() -> None:
    """What it rejects, and with which message, test_monitor checks case by case."""
    check_frame(3, 12.0, 0.5, 2)
    check_frame(0, 10.0, 0.0, 0)
