from __future__ import annotations

from io import StringIO

import pytest

from modelswitch.analyzer import (
    ZERO_CONFIDENCE_SCORE,
    Analyzer,
    ZeroConfidence,
    compute_score,
)
from modelswitch.domain import FrameMetrics, WindowAggregate
from modelswitch.knowledge import LogRegistry, ScoreTable
from modelswitch.monitor import Monitor


def _aggregate(avg_confidence: float, avg_cpu: float, model: str = "m") -> WindowAggregate:
    return WindowAggregate(
        model=model, avg_confidence=avg_confidence, avg_cpu=avg_cpu, sample_count=30
    )


def _metrics(frame_index: int, model: str, confidence: float, cpu: float) -> FrameMetrics:
    return FrameMetrics(
        frame_index=frame_index,
        model=model,
        confidence_score=confidence,
        cpu_usage=cpu,
        detection_count=1 if confidence > 0.0 else 0,
        inference_time_ms=40.0,
    )


def test_compute_score_simple_points() -> None:
    # min(10, 20) * (1 - 0.25/0.5) = 10 * 0.5
    assert compute_score(10.0, 0.5, _aggregate(0.25, 20.0)) == pytest.approx(5.0)
    # min(30, 20) * (1 - 0.8/0.4) = 20 * (-1)
    assert compute_score(30.0, 0.4, _aggregate(0.8, 20.0)) == pytest.approx(-20.0)


def test_compute_score_reference_operating_point() -> None:
    value = compute_score(13.0, 54.42, _aggregate(55.94, 18.0))
    assert value == pytest.approx(-0.36310, abs=1e-4)


def test_compute_score_is_zero_at_equal_confidence() -> None:
    assert compute_score(12.0, 0.6, _aggregate(0.6, 30.0)) == 0.0


def test_compute_score_only_depends_on_the_confidence_ratio() -> None:
    as_fraction = compute_score(10.0, 0.5, _aggregate(0.6, 20.0))
    as_percent = compute_score(10.0, 50.0, _aggregate(60.0, 20.0))
    assert as_fraction == pytest.approx(as_percent)


def test_compute_score_rejects_zero_confidence() -> None:
    with pytest.raises(ZeroConfidence):
        compute_score(10.0, 0.0, _aggregate(0.5, 20.0))


def test_refresh_scores_updates_only_the_observed_model() -> None:
    registry = LogRegistry(StringIO(), StringIO())
    monitor = Monitor(("a", "b"), registry, capacity=4)
    table = ScoreTable.initialize(("a", "b"))
    analyzer = Analyzer(monitor, table)

    first = _metrics(0, "a", confidence=0.5, cpu=10.0)
    monitor.record(first, sim_time_ms=0.0)
    score = analyzer.refresh_scores(first)

    # A single-entry window averages to the frame itself, so the ratio is 1.
    assert score.value == pytest.approx(0.0)
    assert score.computed_at_frame == 0
    assert table.get("a").value == pytest.approx(0.0)
    assert table.get("b").value == 0.0  # untouched initial entry

    second = _metrics(1, "a", confidence=0.4, cpu=12.0)
    monitor.record(second, sim_time_ms=16.7)
    score = analyzer.refresh_scores(second)
    # Window average is now (0.5 + 0.4) / 2 = 0.45, above the current 0.4,
    # so the score must come out negative: min(12, 11) * (1 - 0.45/0.4).
    assert score.value == pytest.approx(11.0 * (1.0 - 0.45 / 0.4))
    assert score.value < 0.0
    assert table.get("a").computed_at_frame == 1


def test_refresh_scores_writes_sentinel_on_zero_confidence() -> None:
    registry = LogRegistry(StringIO(), StringIO())
    monitor = Monitor(("a",), registry, capacity=4)
    table = ScoreTable.initialize(("a",))
    analyzer = Analyzer(monitor, table)

    empty = _metrics(0, "a", confidence=0.0, cpu=15.0)
    monitor.record(empty, sim_time_ms=0.0)
    score = analyzer.refresh_scores(empty)
    assert score.value == ZERO_CONFIDENCE_SCORE
    assert table.get("a").value == ZERO_CONFIDENCE_SCORE


def test_refresh_scores_requires_recorded_frame() -> None:
    monitor = Monitor(("a",), LogRegistry(StringIO(), StringIO()), capacity=4)
    table = ScoreTable.initialize(("a",))
    analyzer = Analyzer(monitor, table)
    with pytest.raises(RuntimeError):
        analyzer.refresh_scores(_metrics(0, "a", confidence=0.5, cpu=10.0))
