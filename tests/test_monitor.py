from __future__ import annotations

from io import StringIO
from random import Random

import pytest

from modelswitch.domain import FrameMetrics
from modelswitch.knowledge import METRICS_FILENAME, LogRegistry, UnknownModel, load_metrics_csv
from modelswitch.monitor import MetricsWindow, Monitor, OutOfOrderFrame


def _metrics(frame_index: int, model: str = "m", confidence: float = 0.5, cpu: float = 20.0) -> FrameMetrics:
    return FrameMetrics(
        frame_index=frame_index,
        model=model,
        confidence_score=confidence,
        cpu_usage=cpu,
        detection_count=1,
        inference_time_ms=40.0,
    )


def test_window_rejects_nonpositive_capacity() -> None:
    with pytest.raises(ValueError):
        MetricsWindow("m", 0)


def test_empty_window_has_no_aggregate() -> None:
    window = MetricsWindow("m", 5)
    assert window.aggregate() is None
    assert window.latest() is None
    assert len(window) == 0


def test_window_keeps_only_the_newest_entries() -> None:
    window = MetricsWindow("m", 3)
    for i, confidence in enumerate([0.1, 0.2, 0.3, 0.4, 0.5]):
        window.record(_metrics(i, confidence=confidence))
    aggregate = window.aggregate()
    assert aggregate is not None
    assert aggregate.sample_count == 3
    assert aggregate.avg_confidence == pytest.approx((0.3 + 0.4 + 0.5) / 3)
    latest = window.latest()
    assert latest is not None and latest.frame_index == 4


def test_window_rejects_out_of_order_frames() -> None:
    window = MetricsWindow("m", 5)
    window.record(_metrics(4))
    with pytest.raises(OutOfOrderFrame):
        window.record(_metrics(4))
    with pytest.raises(OutOfOrderFrame):
        window.record(_metrics(2))


def test_window_aggregate_matches_brute_force() -> None:
    """Seeded sweep over capacities and lengths against a plain tail mean."""
    rng = Random(37)
    for _ in range(200):
        capacity = rng.randrange(1, 40)
        window = MetricsWindow("m", capacity)
        seen: list[FrameMetrics] = []
        for i in range(rng.randrange(0, 3 * capacity)):
            entry = _metrics(i, confidence=rng.random(), cpu=100.0 * rng.random())
            window.record(entry)
            seen.append(entry)
        aggregate = window.aggregate()
        if not seen:
            assert aggregate is None
            continue
        tail = seen[-capacity:]
        assert aggregate is not None
        assert aggregate.sample_count == len(tail)
        assert aggregate.avg_confidence == pytest.approx(
            sum(m.confidence_score for m in tail) / len(tail), abs=1e-12
        )
        assert aggregate.avg_cpu == pytest.approx(
            sum(m.cpu_usage for m in tail) / len(tail), abs=1e-12
        )


def test_monitor_routes_by_model_and_logs(tmp_path) -> None:
    metrics_path = tmp_path / METRICS_FILENAME
    with open(metrics_path, "w", encoding="utf-8", newline="") as metrics_out:
        monitor = Monitor(("a", "b"), LogRegistry(metrics_out, StringIO()), capacity=4)
        monitor.record(_metrics(0, model="a", confidence=0.2), sim_time_ms=0.0)
        monitor.record(_metrics(1, model="b", confidence=0.8), sim_time_ms=16.7)
        monitor.record(_metrics(2, model="a", confidence=0.4), sim_time_ms=33.3)

    agg_a = monitor.windows["a"].aggregate()
    assert agg_a is not None
    assert agg_a.sample_count == 2
    assert agg_a.avg_confidence == pytest.approx(0.3)
    latest_b = monitor.windows["b"].latest()
    assert latest_b is not None and latest_b.frame_index == 1

    rows = load_metrics_csv(metrics_path)
    assert [metrics.frame_index for _, metrics in rows] == [0, 1, 2]
    assert rows[1][0] == pytest.approx(16.7)


def test_monitor_rejects_unknown_model() -> None:
    monitor = Monitor(("a",), LogRegistry(StringIO(), StringIO()))
    with pytest.raises(UnknownModel):
        monitor.record(_metrics(0, model="zzz"), sim_time_ms=0.0)
