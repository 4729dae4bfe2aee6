from __future__ import annotations

import statistics
from random import Random

import pytest

from modelswitch.domain import FrameMetrics, SelectionMode, mean_confidence


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


def test_frame_metrics_validation() -> None:
    good = FrameMetrics(
        frame_index=3,
        model="ssd-mobilenet-v1",
        confidence_score=0.5,
        cpu_usage=12.0,
        detection_count=2,
        inference_time_ms=40.0,
    )
    assert good.frame_index == 3
    with pytest.raises(ValueError):
        FrameMetrics(
            frame_index=-1,
            model="m",
            confidence_score=0.5,
            cpu_usage=12.0,
            detection_count=1,
            inference_time_ms=40.0,
        )
    with pytest.raises(ValueError):
        FrameMetrics(
            frame_index=0,
            model="m",
            confidence_score=0.5,
            cpu_usage=101.0,
            detection_count=1,
            inference_time_ms=40.0,
        )
    with pytest.raises(ValueError):
        FrameMetrics(
            frame_index=0,
            model="m",
            confidence_score=1.5,
            cpu_usage=12.0,
            detection_count=1,
            inference_time_ms=40.0,
        )
    with pytest.raises(ValueError):
        FrameMetrics(
            frame_index=0,
            model="m",
            confidence_score=0.5,
            cpu_usage=12.0,
            detection_count=-1,
            inference_time_ms=40.0,
        )


def test_empty_frame_must_have_zero_confidence() -> None:
    FrameMetrics(
        frame_index=0,
        model="m",
        confidence_score=0.0,
        cpu_usage=10.0,
        detection_count=0,
        inference_time_ms=40.0,
    )
    with pytest.raises(ValueError):
        FrameMetrics(
            frame_index=0,
            model="m",
            confidence_score=0.4,
            cpu_usage=10.0,
            detection_count=0,
            inference_time_ms=40.0,
        )
