from __future__ import annotations

from io import StringIO

import pytest

from modelswitch.analyzer import (
    ZERO_CONFIDENCE_SCORE,
    Analyzer,
    ZeroConfidence,
    compute_score,
)
from modelswitch.domain import FrameMetrics
from modelswitch.knowledge import LogRegistry, ScoreTable, UnknownModel
from modelswitch.monitor import Monitor


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
    # Arguments: current cpu, current confidence, window cpu, window confidence.
    # min(10, 20) * (1 - 0.25/0.5) = 10 * 0.5
    assert compute_score(10.0, 0.5, 20.0, 0.25) == pytest.approx(5.0)
    # min(30, 20) * (1 - 0.8/0.4) = 20 * (-1)
    assert compute_score(30.0, 0.4, 20.0, 0.8) == pytest.approx(-20.0)


def test_compute_score_reference_operating_point() -> None:
    value = compute_score(13.0, 54.42, 18.0, 55.94)
    assert value == pytest.approx(-0.36310, abs=1e-4)


def test_compute_score_is_zero_at_equal_confidence() -> None:
    assert compute_score(12.0, 0.6, 30.0, 0.6) == 0.0


def test_compute_score_only_depends_on_the_confidence_ratio() -> None:
    as_fraction = compute_score(10.0, 0.5, 20.0, 0.6)
    as_percent = compute_score(10.0, 50.0, 20.0, 60.0)
    assert as_fraction == pytest.approx(as_percent)


def test_compute_score_rejects_zero_confidence() -> None:
    with pytest.raises(ZeroConfidence):
        compute_score(10.0, 0.0, 20.0, 0.5)


def test_refresh_scores_updates_only_the_observed_model() -> None:
    registry = LogRegistry(StringIO(), StringIO())
    monitor = Monitor(("a", "b"), registry, capacity=4)
    table = ScoreTable.initialize(("a", "b"))
    analyzer = Analyzer(monitor, table)

    first = _metrics(0, "a", confidence=0.5, cpu=10.0)
    monitor.record(first, sim_time_ms=0.0)
    score = analyzer.refresh_scores(first)

    # A single-entry window averages to the frame itself, so the ratio is 1.
    assert score == pytest.approx(0.0)
    assert table.scores["a"] == score
    assert table.scores["b"] == 0.0  # untouched initial entry

    second = _metrics(1, "a", confidence=0.4, cpu=12.0)
    monitor.record(second, sim_time_ms=16.7)
    score = analyzer.refresh_scores(second)
    # Window average is now (0.5 + 0.4) / 2 = 0.45, above the current 0.4,
    # so the score must come out negative: min(12, 11) * (1 - 0.45/0.4).
    assert score == pytest.approx(11.0 * (1.0 - 0.45 / 0.4))
    assert score < 0.0
    assert table.scores == {"a": score, "b": 0.0}


def test_refresh_scores_writes_sentinel_on_zero_confidence() -> None:
    registry = LogRegistry(StringIO(), StringIO())
    monitor = Monitor(("a",), registry, capacity=4)
    table = ScoreTable.initialize(("a",))
    analyzer = Analyzer(monitor, table)

    empty = _metrics(0, "a", confidence=0.0, cpu=15.0)
    monitor.record(empty, sim_time_ms=0.0)
    assert analyzer.refresh_scores(empty) == ZERO_CONFIDENCE_SCORE
    assert table.scores["a"] == ZERO_CONFIDENCE_SCORE


def test_refresh_scores_requires_recorded_frame() -> None:
    monitor = Monitor(("a",), LogRegistry(StringIO(), StringIO()), capacity=4)
    table = ScoreTable.initialize(("a",))
    analyzer = Analyzer(monitor, table)
    with pytest.raises(RuntimeError):
        analyzer.refresh_scores(_metrics(0, "a", confidence=0.5, cpu=10.0))


def test_refresh_scores_uses_the_window_means_of_the_aggregate() -> None:
    monitor = Monitor(("a",), LogRegistry(StringIO(), StringIO()), capacity=3)
    table = ScoreTable.initialize(("a",))
    analyzer = Analyzer(monitor, table)
    for frame_index, (confidence, cpu) in enumerate(
        ((0.7, 12.5), (0.3, 19.0), (0.55, 11.25), (0.45, 16.0), (0.6, 14.0))
    ):
        metrics = _metrics(frame_index, "a", confidence=confidence, cpu=cpu)
        monitor.record(metrics, sim_time_ms=0.0)
        aggregate = monitor.aggregate("a")
        expected = compute_score(cpu, confidence, aggregate.avg_cpu, aggregate.avg_confidence)
        assert analyzer.refresh_scores(metrics) == expected  # bit for bit


def test_refresh_scores_rejects_unknown_model() -> None:
    monitor = Monitor(("a",), LogRegistry(StringIO(), StringIO()), capacity=4)
    analyzer = Analyzer(monitor, ScoreTable.initialize(("a",)))
    with pytest.raises(UnknownModel):
        analyzer.refresh_scores(_metrics(0, "ghost", confidence=0.5, cpu=10.0))
