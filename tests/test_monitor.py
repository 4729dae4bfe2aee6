from __future__ import annotations

import re
from io import StringIO
from random import Random

import pytest

from modelswitch.domain import FrameMetrics
from modelswitch.knowledge import METRICS_FILENAME, LogRegistry, UnknownModel, load_metrics_csv
from modelswitch.monitor import MetricsWindow, Monitor, OutOfOrderFrame


def _record(
    monitor: Monitor,
    frame_index: int,
    model: str,
    confidence: float = 0.5,
    cpu: float = 20.0,
    detections: int = 1,
    sim_time_ms: float = 0.0,
) -> None:
    monitor.record(frame_index, sim_time_ms, model, cpu, confidence, detections, 40.0)


def test_window_rejects_nonpositive_capacity() -> None:
    with pytest.raises(ValueError):
        MetricsWindow("m", 0)


def test_empty_window_has_no_aggregate() -> None:
    window = MetricsWindow("m", 5)
    assert window.aggregate() is None
    assert window.last_frame == -1
    assert len(window) == 0


def test_window_keeps_only_the_newest_entries() -> None:
    window = MetricsWindow("m", 3)
    for i, confidence in enumerate([0.1, 0.2, 0.3, 0.4, 0.5]):
        window.record(i, 10.0 + i, confidence)
    aggregate = window.aggregate()
    assert aggregate is not None
    assert aggregate.sample_count == 3
    assert aggregate.avg_confidence == pytest.approx((0.3 + 0.4 + 0.5) / 3)
    # Newest last: the latest frame is the tail of each deque.
    assert list(window.cpus) == [12.0, 13.0, 14.0]
    assert list(window.confidences) == [0.3, 0.4, 0.5]
    assert window.last_frame == 4


def test_window_rejects_out_of_order_frames() -> None:
    window = MetricsWindow("m", 5)
    window.record(4, 20.0, 0.5)
    with pytest.raises(OutOfOrderFrame, match="frame 4 after 4"):
        window.record(4, 20.0, 0.5)
    with pytest.raises(OutOfOrderFrame):
        window.record(2, 20.0, 0.5)
    assert window.last_frame == 4 and len(window) == 1


def test_window_aggregate_matches_brute_force() -> None:
    """Seeded sweep over capacities and lengths against a plain tail mean."""
    rng = Random(37)
    for _ in range(200):
        capacity = rng.randrange(1, 40)
        window = MetricsWindow("m", capacity)
        seen: list[tuple[float, float]] = []
        for i in range(rng.randrange(0, 3 * capacity)):
            cpu, confidence = 100.0 * rng.random(), rng.random()
            window.record(i, cpu, confidence)
            seen.append((cpu, confidence))
        aggregate = window.aggregate()
        if not seen:
            assert aggregate is None
            continue
        tail = seen[-capacity:]
        assert aggregate is not None
        assert aggregate.sample_count == len(tail)
        assert aggregate.avg_confidence == pytest.approx(
            sum(confidence for _, confidence in tail) / len(tail), abs=1e-12
        )
        assert aggregate.avg_cpu == pytest.approx(
            sum(cpu for cpu, _ in tail) / len(tail), abs=1e-12
        )


def test_monitor_routes_by_model_and_logs(tmp_path) -> None:
    metrics_path = tmp_path / METRICS_FILENAME
    with open(metrics_path, "w", encoding="utf-8", newline="") as metrics_out:
        monitor = Monitor(("a", "b"), LogRegistry(metrics_out, StringIO()), capacity=4)
        _record(monitor, 0, "a", confidence=0.2, sim_time_ms=0.0)
        _record(monitor, 1, "b", confidence=0.8, cpu=31.0, sim_time_ms=16.7)
        _record(monitor, 2, "a", confidence=0.4, sim_time_ms=33.3)

    agg_a = monitor.windows["a"].aggregate()
    assert agg_a is not None
    assert agg_a.sample_count == 2
    assert agg_a.avg_confidence == pytest.approx(0.3)
    window_b = monitor.windows["b"]
    assert (window_b.last_frame, window_b.cpus[-1], window_b.confidences[-1]) == (1, 31.0, 0.8)

    rows = load_metrics_csv(metrics_path)
    assert [metrics.frame_index for _, metrics in rows] == [0, 1, 2]
    assert rows[1][0] == pytest.approx(16.7)
    assert (rows[1][1].model, rows[1][1].cpu_usage, rows[1][1].detection_count) == ("b", 31.0, 1)


def test_monitor_rejects_unknown_model() -> None:
    monitor = Monitor(("a",), LogRegistry(StringIO(), StringIO()))
    with pytest.raises(UnknownModel):
        _record(monitor, 0, "zzz")


@pytest.mark.parametrize(
    "frame_index, cpu, confidence, detections, message",
    [
        (-1, 20.0, 0.5, 1, "negative frame_index: -1"),
        (0, 101.0, 0.5, 1, "cpu_usage out of range: 101.0"),
        (0, -0.5, 0.5, 1, "cpu_usage out of range: -0.5"),
        (0, 20.0, 1.5, 1, "confidence_score out of range: 1.5"),
        (0, 20.0, 0.5, -1, "negative detection_count: -1"),
        (0, 20.0, 0.4, 0, "empty frame must carry confidence_score 0.0"),
    ],
)
def test_monitor_rejects_figures_out_of_range(frame_index, cpu, confidence, detections, message):
    """The checks FrameMetrics makes on a row read back, with the same messages,
    and nothing is recorded or logged."""
    metrics_out = StringIO()
    monitor = Monitor(("a",), LogRegistry(metrics_out, StringIO()))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _record(monitor, frame_index, "a", confidence=confidence, cpu=cpu, detections=detections)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FrameMetrics(
            frame_index=frame_index,
            model="a",
            confidence_score=confidence,
            cpu_usage=cpu,
            detection_count=detections,
            inference_time_ms=40.0,
        )
    assert len(monitor.windows["a"]) == 0
    assert metrics_out.getvalue().count("\n") == 1  # the header only
