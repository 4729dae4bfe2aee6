from __future__ import annotations

import re
from io import StringIO
from random import Random

import pytest

from modelswitch.domain import FrameMetrics, check_frame
from modelswitch.executor import Executor
from modelswitch.knowledge import METRICS_FILENAME, LogRegistry, ModelRepository, load_metrics_csv
from modelswitch.monitor import MetricsWindow
from modelswitch.sim import ModelProfile


def test_window_rejects_nonpositive_capacity() -> None:
    with pytest.raises(ValueError):
        MetricsWindow("m", 0)


def test_empty_window_has_no_aggregate() -> None:
    window = MetricsWindow("m", 5)
    assert window.means() is None
    assert window.last_frame == -1
    assert len(window) == 0


def test_window_keeps_only_the_newest_entries() -> None:
    window = MetricsWindow("m", 3)
    for i, confidence in enumerate([0.1, 0.2, 0.3, 0.4, 0.5]):
        window.record(i, 10.0 + i, confidence)
    assert len(window) == 3
    assert window.means() == pytest.approx(((12.0 + 13.0 + 14.0) / 3, (0.3 + 0.4 + 0.5) / 3))
    # Newest last: the latest frame is the tail of each deque.
    assert list(window.cpus) == [12.0, 13.0, 14.0]
    assert list(window.confidences) == [0.3, 0.4, 0.5]
    assert window.last_frame == 4


def test_window_rejects_out_of_order_frames() -> None:
    window = MetricsWindow("m", 5)
    window.record(4, 20.0, 0.5)
    with pytest.raises(ValueError, match="m: frame 4 after 4"):
        window.record(4, 20.0, 0.5)
    with pytest.raises(ValueError, match="m: frame 2 after 4"):
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
        means = window.means()
        if not seen:
            assert means is None
            continue
        tail = seen[-capacity:]
        assert means is not None
        assert len(window) == len(tail)
        avg_cpu, avg_confidence = means
        assert avg_confidence == pytest.approx(
            sum(confidence for _, confidence in tail) / len(tail), abs=1e-12
        )
        assert avg_cpu == pytest.approx(sum(cpu for cpu, _ in tail) / len(tail), abs=1e-12)


def _profile(model: str) -> ModelProfile:
    return ModelProfile(
        model=model,
        base_cpu_pct=14.0,
        cpu_per_object_pct=0.3,
        base_confidence=0.6,
        confidence_noise_sd=0.05,
        detection_recall=0.9,
        switch_latency_ms=300.0,
        inference_time_ms=40.0,
    )


def test_monitor_routes_by_model_and_logs(tmp_path) -> None:
    """The executor records each frame into the live model's window and one log row."""
    metrics_path = tmp_path / METRICS_FILENAME
    windows = {m: MetricsWindow(m, 4) for m in ("a", "b")}
    with open(metrics_path, "w", encoding="utf-8", newline="") as metrics_out:
        registry = LogRegistry(metrics_out, StringIO())
        repo = ModelRepository((_profile("a"), _profile("b")))
        executor = Executor(repo, windows, registry, Random(5))
        for frame_index, sim_time_ms, model in [(0, 0.0, "a"), (1, 16.7, "b"), (2, 33.3, "a")]:
            executor.apply(model)
            executor.run_inference(frame_index, 3, 0.2, sim_time_ms)

    assert [windows["a"].last_frame, len(windows["a"])] == [2, 2]
    assert [windows["b"].last_frame, len(windows["b"])] == [1, 1]
    rows = load_metrics_csv(metrics_path)
    assert [(metrics.frame_index, metrics.model) for _, metrics in rows] == [
        (0, "a"), (1, "b"), (2, "a")
    ]
    assert rows[1][0] == pytest.approx(16.7)
    # Each row carries what its model's window kept, at the file's 4 decimals.
    assert rows[1][1].cpu_usage == pytest.approx(windows["b"].cpus[-1], abs=5e-5)
    assert rows[2][1].confidence_score == pytest.approx(windows["a"].confidences[-1], abs=5e-5)


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
    """The check a frame's figures pass before the executor records them makes
    the checks FrameMetrics makes on a row read back, with the same messages."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_frame(frame_index, cpu, confidence, detections)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FrameMetrics(
            frame_index=frame_index,
            model="a",
            confidence_score=confidence,
            cpu_usage=cpu,
            detection_count=detections,
            inference_time_ms=40.0,
        )
