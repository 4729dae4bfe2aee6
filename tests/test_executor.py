from __future__ import annotations

import statistics
from io import StringIO
from random import Random

import pytest

from modelswitch.domain import SelectionDecision, SelectionMode
from modelswitch.cli import summarize
from modelswitch.executor import DEFAULT_CONFIDENCE_FLOOR, Executor
from modelswitch.knowledge import (
    METRICS_FILENAME,
    LogRegistry,
    ModelRepository,
    UnknownModel,
    load_metrics_csv,
)
from modelswitch.loop import LoopResult
from modelswitch.monitor import MetricsWindow, Monitor
from modelswitch.sim import ModelProfile, synth_inference


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


def _executor(active: str, rng: Random, repo: ModelRepository | None = None) -> Executor:
    repo = repo or _repo()
    monitor = Monitor(repo.ids(), LogRegistry(StringIO(), StringIO()))
    return Executor(repo, monitor, rng, initial_model=active)


def _state(executor: Executor) -> tuple[str, float, int]:
    """The live model and the switch totals, which a run's LoopResult copies."""
    return executor.active, executor.cumulative_switch_time_ms, executor.switch_count


def _infer(
    object_count: int, complexity: float, seed: int, confidence_floor=DEFAULT_CONFIDENCE_FLOOR
) -> tuple[MetricsWindow, list[str]]:
    """One frame (index 0) through an executor on "small": its window and the
    fields of its logged row, in metrics.csv column order (detection_count is [5])."""
    repo = _repo()
    metrics_out = StringIO()
    monitor = Monitor(repo.ids(), LogRegistry(metrics_out, StringIO()))
    executor = Executor(
        repo, monitor, Random(seed), initial_model="small", confidence_floor=confidence_floor
    )
    executor.run_inference(0, object_count, complexity, 0.0)
    [row] = metrics_out.getvalue().splitlines()[1:]
    return monitor.windows["small"], row.split(",")


def _count_lookups(monkeypatch: pytest.MonkeyPatch) -> list[str]:
    """Record every ModelRepository.get call from now on; returns the looked-up ids."""
    looked_up: list[str] = []
    get = ModelRepository.get

    def counting_get(self, model):
        looked_up.append(model)
        return get(self, model)

    monkeypatch.setattr(ModelRepository, "get", counting_get)
    return looked_up


def test_same_model_selection_is_a_free_no_op(monkeypatch) -> None:
    rng = Random(0)
    executor = _executor("small", rng)
    state = _state(executor)
    looked_up = _count_lookups(monkeypatch)
    rng_state = rng.getstate()
    assert executor.apply(_decision("small", "small"), 10) is None
    assert _state(executor) == state
    assert looked_up == []
    assert rng.getstate() == rng_state


def test_switch_produces_event_and_accounting(monkeypatch) -> None:
    repo = _repo()
    monitor = Monitor(repo.ids(), LogRegistry(StringIO(), StringIO()))
    executor = Executor(repo, monitor, Random(0), initial_model="small")
    looked_up = _count_lookups(monkeypatch)
    event = executor.apply(_decision("large", "small"), 10)
    assert event is not None
    assert event.frame_index == 10
    assert event.from_model == "small"
    assert event.to_model == "large"
    assert executor.active == "large"
    assert executor.switch_count == 1
    assert executor.cumulative_switch_time_ms == pytest.approx(event.switch_time_ms)
    assert _state(executor) == ("large", event.switch_time_ms, 1)
    # One lookup per switch; inference then runs on the kept profile.
    executor.run_inference(10, 3, 0.2, 0.0)
    assert monitor.windows["large"].last_frame == 10
    assert len(monitor.windows["small"]) == 0
    assert looked_up == ["large"]


def test_switch_time_jitters_within_ten_percent() -> None:
    repo = _repo()
    rng = Random(7)
    times = []
    for i in range(2000):
        event = _executor("small", rng, repo).apply(_decision("large", "small"), i)
        assert event is not None
        times.append(event.switch_time_ms)
    assert min(times) >= 800.0 * 0.9
    assert max(times) <= 800.0 * 1.1
    assert min(times) < 800.0 < max(times)
    assert statistics.fmean(times) == pytest.approx(800.0, rel=0.01)


def test_switch_latency_belongs_to_the_incoming_model() -> None:
    event = _executor("large", Random(1)).apply(_decision("small", "large"), 0)
    assert event is not None
    assert 300.0 * 0.9 <= event.switch_time_ms <= 300.0 * 1.1


def test_unknown_selection_is_rejected() -> None:
    executor = _executor("small", Random(0))
    state = _state(executor)
    with pytest.raises(UnknownModel):
        executor.apply(_decision("ghost", "small"), 0)
    assert _state(executor) == state


def test_average_switch_time_accounting() -> None:
    def avg_switch_time_s(cumulative_switch_time_ms: float, switch_count: int) -> float:
        result = LoopResult(
            registry=LogRegistry(StringIO(), StringIO()),
            active="small",
            switch_count=switch_count,
            cumulative_switch_time_ms=cumulative_switch_time_ms,
            frames_total=0,
            frames_processed=0,
            frames_dropped=0,
            decision_count=0,
        )
        return summarize(result, "naive", 0, ("small",)).avg_switch_time_s

    assert avg_switch_time_s(0.0, 0) == 0.0
    assert avg_switch_time_s(900.0, 3) == pytest.approx(0.3)


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
        assert executor.run_inference(7, 5, 0.2, sim_time_ms=12.5) is None

    window = monitor.windows["small"]
    assert window.last_frame == 7
    [(sim_time_ms, logged)] = load_metrics_csv(metrics_path)
    assert sim_time_ms == 12.5
    assert (logged.frame_index, logged.model, logged.inference_time_ms) == (7, "small", 40.0)
    # Reals come back at the file's 4-decimal precision.
    assert logged.confidence_score == pytest.approx(window.confidences[-1], abs=5e-5)
    assert logged.cpu_usage == pytest.approx(window.cpus[-1], abs=5e-5)


def test_confidence_floor_filters_detections() -> None:
    """The recorded frame must describe only the detections that survive the floor."""
    repo = _repo()
    seed = 17

    reference, _, _ = synth_inference(8, 0.9, repo.get("small"), Random(seed))
    confidences = sorted(reference)
    assert len(confidences) >= 2 and confidences[0] < confidences[-1]
    # Split the observed spread so the floor keeps some detections and drops others.
    floor = (confidences[0] + confidences[-1]) / 2.0
    kept = [c for c in reference if c >= floor]
    assert 0 < len(kept) < len(reference)

    window, row = _infer(8, 0.9, seed, confidence_floor=floor)
    assert int(row[5]) == len(kept)
    assert window.confidences[-1] == pytest.approx(statistics.fmean(kept))


def test_total_confidence_floor_yields_an_empty_frame() -> None:
    window, row = _infer(6, 0.2, seed=5, confidence_floor=1.1)
    assert int(row[5]) == 0
    assert window.confidences[-1] == 0.0
