from __future__ import annotations

import statistics
from io import StringIO
from random import Random

import pytest

from modelswitch.domain import SelectionDecision, SelectionMode
from modelswitch.executor import Executor, ExecutorState, apply_decision
from modelswitch.knowledge import (
    METRICS_FILENAME,
    LogRegistry,
    ModelRepository,
    UnknownModel,
    load_metrics_csv,
)
from modelswitch.monitor import Monitor
from modelswitch.sim import ModelProfile, SimFrame, synth_inference


def _profile(model: str, latency: float = 500.0) -> ModelProfile:
    return ModelProfile(
        model=model,
        base_cpu_pct=14.0,
        cpu_per_object_pct=0.3,
        base_confidence=0.6,
        confidence_noise_sd=0.05,
        detection_recall=0.9,
        switch_latency_ms=latency,
        inference_time_ms=40.0,
    )


def _repo() -> ModelRepository:
    return ModelRepository((_profile("small", 300.0), _profile("large", 800.0)))


def _decision(selected: str, previous: str) -> SelectionDecision:
    return SelectionDecision(
        selected=selected, mode=SelectionMode.EXPLOIT, random_draw=0.5, previous=previous
    )


def test_same_model_selection_is_a_free_no_op() -> None:
    state = ExecutorState(active="small")
    new_state, event = apply_decision(_decision("small", "small"), state, _repo(), Random(0), 10)
    assert event is None
    assert new_state == state


def test_switch_produces_event_and_accounting() -> None:
    state = ExecutorState(active="small")
    new_state, event = apply_decision(_decision("large", "small"), state, _repo(), Random(0), 10)
    assert event is not None
    assert event.frame_index == 10
    assert event.from_model == "small"
    assert event.to_model == "large"
    assert new_state.active == "large"
    assert new_state.switch_count == 1
    assert new_state.cumulative_switch_time_ms == pytest.approx(event.switch_time_ms)


def test_switch_time_jitters_within_ten_percent() -> None:
    repo = _repo()
    rng = Random(7)
    times = []
    for i in range(2000):
        state = ExecutorState(active="small")
        _, event = apply_decision(_decision("large", "small"), state, repo, rng, i)
        assert event is not None
        times.append(event.switch_time_ms)
    assert min(times) >= 800.0 * 0.9
    assert max(times) <= 800.0 * 1.1
    assert min(times) < 800.0 < max(times)
    assert statistics.fmean(times) == pytest.approx(800.0, rel=0.01)


def test_switch_latency_belongs_to_the_incoming_model() -> None:
    repo = _repo()
    state = ExecutorState(active="large")
    _, event = apply_decision(_decision("small", "large"), state, repo, Random(1), 0)
    assert event is not None
    assert 300.0 * 0.9 <= event.switch_time_ms <= 300.0 * 1.1


def test_unknown_selection_is_rejected() -> None:
    state = ExecutorState(active="small")
    with pytest.raises(UnknownModel):
        apply_decision(_decision("ghost", "small"), state, _repo(), Random(0), 0)


def test_average_switch_time_accounting() -> None:
    assert ExecutorState(active="small").avg_switch_time_ms == 0.0
    state = ExecutorState(active="small", cumulative_switch_time_ms=900.0, switch_count=3)
    assert state.avg_switch_time_ms == pytest.approx(300.0)


def test_executor_rejects_unknown_initial_model() -> None:
    repo = _repo()
    monitor = Monitor(repo.ids(), LogRegistry(StringIO(), StringIO()))
    with pytest.raises(UnknownModel):
        Executor(repo, monitor, Random(0), initial_model="ghost")


def test_run_inference_records_into_monitor_and_registry(tmp_path) -> None:
    repo = _repo()
    metrics_path = tmp_path / METRICS_FILENAME
    with open(metrics_path, "w", encoding="utf-8", newline="") as metrics_out:
        monitor = Monitor(repo.ids(), LogRegistry(metrics_out, StringIO()))
        executor = Executor(repo, monitor, Random(3), initial_model="small")

        frame = SimFrame(frame_index=0, object_count=5, complexity=0.2)
        metrics = executor.run_inference(frame, sim_time_ms=0.0)

    assert metrics.model == "small"
    assert monitor.latest("small") == metrics
    [(sim_time_ms, logged)] = load_metrics_csv(metrics_path)
    assert sim_time_ms == 0.0
    assert (logged.frame_index, logged.model, logged.detection_count) == (
        metrics.frame_index,
        metrics.model,
        metrics.detection_count,
    )
    # Reals come back at the file's 4-decimal precision.
    assert logged.confidence_score == pytest.approx(metrics.confidence_score, abs=5e-5)
    assert logged.cpu_usage == pytest.approx(metrics.cpu_usage, abs=5e-5)


def test_confidence_floor_filters_detections() -> None:
    """The recorded frame must describe only the detections that survive the floor."""
    repo = _repo()
    frame = SimFrame(frame_index=0, object_count=8, complexity=0.9)
    seed = 17

    reference, _, _ = synth_inference(frame, repo.get("small"), Random(seed))
    confidences = sorted(reference)
    assert len(confidences) >= 2 and confidences[0] < confidences[-1]
    # Split the observed spread so the floor keeps some detections and drops others.
    floor = (confidences[0] + confidences[-1]) / 2.0
    kept = [c for c in reference if c >= floor]
    assert 0 < len(kept) < len(reference)

    monitor = Monitor(repo.ids(), LogRegistry(StringIO(), StringIO()))
    executor = Executor(repo, monitor, Random(seed), initial_model="small", confidence_floor=floor)
    metrics = executor.run_inference(frame, sim_time_ms=0.0)
    assert metrics.detection_count == len(kept)
    assert metrics.confidence_score == pytest.approx(statistics.fmean(kept))


def test_total_confidence_floor_yields_an_empty_frame() -> None:
    repo = _repo()
    monitor = Monitor(repo.ids(), LogRegistry(StringIO(), StringIO()))
    executor = Executor(repo, monitor, Random(5), initial_model="small", confidence_floor=1.1)
    frame = SimFrame(frame_index=0, object_count=6, complexity=0.2)
    metrics = executor.run_inference(frame, sim_time_ms=0.0)
    assert metrics.detection_count == 0
    assert metrics.confidence_score == 0.0
