from __future__ import annotations

import re
import statistics
from io import StringIO
from random import Random

import pytest
from runfiles import load_metrics_csv

from modelswitch import executor as executor_module
from modelswitch.cli import summarize
from modelswitch.executor import Executor
from modelswitch.knowledge import METRICS_FILENAME, LogRegistry, ModelRepository
from modelswitch.loop import EngineConfig
from modelswitch.monitor import MetricsWindow
from modelswitch.sim import ModelProfile, synth_inference


def _profile(model: str, latency: float = 500.0, cpu_per_object: float = 0.3) -> ModelProfile:
    return ModelProfile(
        model=model,
        base_cpu_pct=14.0,
        cpu_per_object_pct=cpu_per_object,
        base_confidence=0.6,
        confidence_noise_sd=0.05,
        detection_recall=0.9,
        switch_latency_ms=latency,
        inference_time_ms=40.0,
    )


def _repo() -> ModelRepository:
    return ModelRepository((_profile("small", 300.0), _profile("large", 800.0)))


def _executor(
    rng: Random,
    repo: ModelRepository | None = None,
    metrics_out: StringIO | None = None,
    confidence_floor: float = EngineConfig().confidence_floor,
) -> tuple[Executor, dict[str, MetricsWindow]]:
    """An executor on the first model of repo (default: small, then large) and its
    windows; its metrics rows go to metrics_out."""
    repo = repo or _repo()
    windows = {m: MetricsWindow(m, 30) for m in repo.ids()}
    registry = LogRegistry(metrics_out or StringIO(), StringIO())
    return Executor(repo, windows, registry, rng, confidence_floor=confidence_floor), windows


def _infer(
    object_count: int,
    complexity: float,
    seed: int,
    confidence_floor: float = EngineConfig().confidence_floor,
) -> tuple[MetricsWindow, list[str]]:
    """One frame (index 0) through an executor on "small": its window and the
    fields of its logged row, in metrics.csv column order (detection_count is [5])."""
    metrics_out = StringIO()
    executor, windows = _executor(
        Random(seed), metrics_out=metrics_out, confidence_floor=confidence_floor
    )
    executor.run_inference(0, object_count, complexity, 0.0)
    [row] = metrics_out.getvalue().splitlines()[1:]
    return windows["small"], row.split(",")


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
    executor, _ = _executor(rng)
    state = dict(vars(executor))
    looked_up = _count_lookups(monkeypatch)
    rng_state = rng.getstate()
    assert executor.apply("small") is None
    assert vars(executor) == state
    assert looked_up == []
    assert rng.getstate() == rng_state


def test_switch_returns_its_cost_and_keeps_the_model(monkeypatch) -> None:
    executor, windows = _executor(Random(0))
    looked_up = _count_lookups(monkeypatch)
    switch_time_ms = executor.apply("large")
    assert 800.0 * 0.9 <= switch_time_ms <= 800.0 * 1.1
    assert executor.active == "large"
    # One lookup per switch; inference then runs on the kept profile, into the kept window.
    executor.run_inference(10, 3, 0.2, 0.0)
    assert windows["large"].last_frame == 10
    assert len(windows["small"]) == 0
    assert looked_up == ["large"]


def test_switch_time_jitters_within_ten_percent() -> None:
    repo = _repo()
    rng = Random(7)
    times = []
    for _ in range(2000):
        switch_time_ms = _executor(rng, repo)[0].apply("large")
        assert switch_time_ms is not None
        times.append(switch_time_ms)
    assert min(times) >= 800.0 * 0.9
    assert max(times) <= 800.0 * 1.1
    assert min(times) < 800.0 < max(times)
    assert statistics.fmean(times) == pytest.approx(800.0, rel=0.01)


def test_switch_latency_belongs_to_the_incoming_model() -> None:
    repo = ModelRepository((_profile("large", 800.0), _profile("small", 300.0)))
    switch_time_ms = _executor(Random(1), repo)[0].apply("small")
    assert switch_time_ms is not None
    assert 300.0 * 0.9 <= switch_time_ms <= 300.0 * 1.1


def test_unknown_selection_is_rejected() -> None:
    executor, _ = _executor(Random(0))
    state = dict(vars(executor))
    with pytest.raises(ValueError, match="unknown model: ghost"):
        executor.apply("ghost")
    assert vars(executor) == state


def test_average_switch_time_accounting() -> None:
    def avg_switch_time_s(*switch_times_ms: float) -> float:
        registry = LogRegistry(StringIO(), StringIO())
        for i, switch_time_ms in enumerate(switch_times_ms):
            registry.append_switch(i, "small", "large", switch_time_ms)
        return summarize(registry, 0, "naive", 0, ("small",)).avg_switch_time_s

    assert avg_switch_time_s() == 0.0
    assert avg_switch_time_s(200.0, 300.0, 400.0) == pytest.approx(0.3)


def test_run_inference_records_into_monitor_and_registry(tmp_path) -> None:
    metrics_path = tmp_path / METRICS_FILENAME
    with open(metrics_path, "w", encoding="utf-8", newline="") as metrics_out:
        executor, windows = _executor(Random(3), metrics_out=metrics_out)
        assert executor.run_inference(7, 5, 0.2, sim_time_ms=12.5) is None

    window = windows["small"]
    assert window.last_frame == 7
    [(sim_time_ms, logged)] = load_metrics_csv(metrics_path)
    assert sim_time_ms == 12.5
    assert (logged.frame_index, logged.model, logged.inference_time_ms) == (7, "small", 40.0)
    # Reals come back at the file's 4-decimal precision.
    assert logged.confidence_score == pytest.approx(window.confidences[-1], abs=5e-5)
    assert logged.cpu_usage == pytest.approx(window.cpus[-1], abs=5e-5)


@pytest.mark.parametrize(
    "frame_index, cpu, confidences, message",
    [
        (-1, 20.0, [0.5], "negative frame_index: -1"),
        (0, 101.0, [0.5], "cpu_usage out of range: 101.0"),
        (0, -0.5, [0.5], "cpu_usage out of range: -0.5"),
        (0, 20.0, [1.5], "confidence_score out of range: 1.5"),
    ],
)
def test_run_inference_rejects_figures_out_of_range(
    monkeypatch, frame_index, cpu, confidences, message
) -> None:
    """A frame whose synthesized figures fail the check raises before anything
    is recorded or logged."""
    monkeypatch.setattr(executor_module, "synth_inference", lambda *_: (confidences, cpu, 40.0))
    metrics_out = StringIO()
    executor, windows = _executor(Random(0), metrics_out=metrics_out)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        executor.run_inference(frame_index, 1, 0.2, 0.0)
    assert len(windows["small"]) == 0
    assert metrics_out.getvalue().count("\n") == 1  # the header only


def test_run_inference_rejects_the_nan_cpu_of_an_infinite_per_object_cost() -> None:
    """The frame check stands behind the profile's: a profile built past its check
    (by _replace) with an infinite per-object CPU cost, on a frame with no object,
    gives 0 * inf, a nan CPU."""
    repo = ModelRepository((_profile("small")._replace(cpu_per_object_pct=float("inf")),))
    metrics_out = StringIO()
    executor, windows = _executor(Random(0), repo, metrics_out)
    with pytest.raises(ValueError, match=r"^cpu_usage out of range: nan$"):
        executor.run_inference(0, 0, 0.2, 0.0)
    assert len(windows["small"]) == 0
    assert metrics_out.getvalue().count("\n") == 1


def test_confidence_floor_filters_detections() -> None:
    """The recorded frame must describe only the detections that survive the floor."""
    seed = 17

    reference, _, _ = synth_inference(8, 0.9, _repo().get("small"), Random(seed), 0.0)
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
