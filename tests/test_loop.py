from __future__ import annotations

from io import StringIO

import pytest

from modelswitch.domain import SelectionDecision, SelectionMode
from modelswitch.knowledge import (
    EVENTS_FILENAME,
    METRICS_FILENAME,
    LogRegistry,
    ModelRepository,
    load_events_csv,
    load_metrics_csv,
)
from modelswitch.loop import run_loop
from modelswitch.planner import (
    DecisionContext,
    EpsilonGreedyStrategy,
    PlannerConfig,
    SelectionStrategy,
)
from modelswitch.sim import ModelProfile, ScheduleSegment, TraceConfig, generate_trace


def _profile(model: str, base_cpu: float, latency: float) -> ModelProfile:
    return ModelProfile(
        model=model,
        base_cpu_pct=base_cpu,
        cpu_per_object_pct=0.3,
        base_confidence=0.6,
        confidence_noise_sd=0.05,
        detection_recall=0.9,
        switch_latency_ms=latency,
        inference_time_ms=40.0,
    )


def _repo() -> ModelRepository:
    return ModelRepository((_profile("a", 14.0, 500.0), _profile("b", 10.0, 500.0)))


def _trace(frames: int, fps: int = 10):
    config = TraceConfig(
        fps=fps,
        duration_s=frames / fps,
        segments=(ScheduleSegment(start_s=0.0, mean_objects=3.0, complexity=0.2),),
        rng_seed=101,
    )
    return generate_trace(config)


def _sink() -> LogRegistry:
    return LogRegistry(StringIO(), StringIO())


def _logged_run(tmp_path, *args, **kwargs):
    """run_loop with its rows written under tmp_path; returns (result, metrics rows, event rows)."""
    metrics_path, events_path = tmp_path / METRICS_FILENAME, tmp_path / EVENTS_FILENAME
    with (
        open(metrics_path, "w", encoding="utf-8", newline="") as metrics_out,
        open(events_path, "w", encoding="utf-8", newline="") as events_out,
    ):
        result = run_loop(*args, registry=LogRegistry(metrics_out, events_out), **kwargs)
    return result, load_metrics_csv(metrics_path), load_events_csv(events_path)


class _StayPut(SelectionStrategy):
    """Always keeps the active model; records the contexts it was shown."""

    name = "stay-put"

    def __init__(self) -> None:
        self.contexts: list[DecisionContext] = []

    def decide(self, ctx: DecisionContext) -> SelectionDecision:
        self.contexts.append(ctx)
        return SelectionDecision(
            selected=ctx.active, mode=SelectionMode.FORCED, random_draw=None, previous=ctx.active
        )


class _SwitchOnce(_StayPut):
    """Switches to the target at the first decision, then stays."""

    name = "switch-once"

    def __init__(self, target: str) -> None:
        super().__init__()
        self.target = target

    def decide(self, ctx: DecisionContext) -> SelectionDecision:
        self.contexts.append(ctx)
        selected = self.target if ctx.frame_index == 0 else ctx.active
        return SelectionDecision(
            selected=selected, mode=SelectionMode.FORCED, random_draw=None, previous=ctx.active
        )


def test_loop_without_switches_processes_every_frame(tmp_path) -> None:
    result, metrics_rows, _ = _logged_run(
        tmp_path, _trace(50), _repo(), _StayPut(), fps=10, inference_seed=1
    )
    assert result.frames_total == 50
    assert result.frames_processed == 50
    assert result.frames_dropped == 0
    assert result.decision_count == 50
    assert result.final_state.switch_count == 0
    assert len(metrics_rows) == 50


def test_decision_period_thins_out_decisions() -> None:
    strategy = _StayPut()
    result = run_loop(
        _trace(50), _repo(), strategy, registry=_sink(), fps=10, inference_seed=1, decision_period=7
    )
    # Decisions land on processed-frame counts 0, 7, 14, ... -> ceil(50 / 7).
    assert result.decision_count == 8
    assert len(strategy.contexts) == 8


def test_switch_drops_the_frames_inside_the_latency_window(monkeypatch, tmp_path) -> None:
    monkeypatch.setattr("modelswitch.executor.SWITCH_JITTER", 0.0)
    result, metrics_rows, _ = _logged_run(
        tmp_path, _trace(50), _repo(), _SwitchOnce("b"), fps=10, inference_seed=1
    )
    # 500 ms at 10 fps swallows exactly 5 frames after the trigger frame.
    assert result.frames_dropped == 5
    assert result.frames_processed == 45
    assert result.frames_total == 50
    indices = [metrics.frame_index for _, metrics in metrics_rows]
    assert indices[:3] == [0, 6, 7]
    assert result.final_state.switch_count == 1


def test_switch_near_the_end_cannot_drop_past_the_trace(monkeypatch) -> None:
    monkeypatch.setattr("modelswitch.executor.SWITCH_JITTER", 0.0)

    class _SwitchLate(_StayPut):
        def decide(self, ctx: DecisionContext) -> SelectionDecision:
            selected = "b" if ctx.frame_index == 48 else ctx.active
            return SelectionDecision(
                selected=selected,
                mode=SelectionMode.FORCED,
                random_draw=None,
                previous=ctx.active,
            )

    result = run_loop(
        _trace(50), _repo(), _SwitchLate(), registry=_sink(), fps=10, inference_seed=1
    )
    assert result.frames_dropped == 1  # only frame 49 was left to drop
    assert result.frames_processed + result.frames_dropped == result.frames_total


def test_frame_conservation_under_heavy_switching() -> None:
    strategy = EpsilonGreedyStrategy(PlannerConfig(epsilon=0.5, rng_seed=11))
    result = run_loop(_trace(400), _repo(), strategy, registry=_sink(), fps=10, inference_seed=2)
    assert result.frames_processed + result.frames_dropped == result.frames_total
    assert result.final_state.switch_count > 0


def test_switch_events_are_logged_with_their_cost(tmp_path) -> None:
    result, _, event_rows = _logged_run(
        tmp_path, _trace(50), _repo(), _SwitchOnce("b"), fps=10, inference_seed=1
    )
    switches = [r for r in event_rows if r["event_type"] == "switch"]
    decisions = [r for r in event_rows if r["event_type"] == "decision"]
    assert len(switches) == 1
    assert switches[0]["from_model"] == "a"
    assert switches[0]["to_model"] == "b"
    assert len(decisions) == result.decision_count
    # The file keeps 4 decimals of the switch cost.
    assert result.final_state.cumulative_switch_time_ms == pytest.approx(
        float(switches[0]["switch_time_ms"]), abs=5e-5
    )


def test_metrics_time_includes_accumulated_switch_latency(monkeypatch, tmp_path) -> None:
    monkeypatch.setattr("modelswitch.executor.SWITCH_JITTER", 0.0)
    _, metrics_rows, _ = _logged_run(
        tmp_path, _trace(50), _repo(), _SwitchOnce("b"), fps=10, inference_seed=1
    )
    # Frame 0 is processed after the 500 ms switch completes.
    assert metrics_rows[0][0] == pytest.approx(500.0)
    # Frame 6 arrives at 600 ms on the camera clock, shifted by the switch.
    assert metrics_rows[1][0] == pytest.approx(1100.0)


def test_rank_refresh_follows_observed_cpu() -> None:
    class _RankWatcher(_SwitchOnce):
        rank_refresh_period = 30

    strategy = _RankWatcher("b")
    run_loop(_trace(90), _repo(), strategy, registry=_sink(), fps=10, inference_seed=3)
    # Before any data the rank is repository order; once model b (the
    # lighter CPU profile) has samples it must lead the refreshed rank.
    assert strategy.contexts[0].cpu_rank == ("a", "b")
    assert strategy.contexts[-1].cpu_rank[0] == "b"


def test_initial_model_defaults_to_first_registered() -> None:
    strategy = _StayPut()
    result = run_loop(_trace(10), _repo(), strategy, registry=_sink(), fps=10, inference_seed=1)
    assert strategy.contexts[0].active == "a"
    assert result.final_state.active == "a"

    strategy = _StayPut()
    result = run_loop(
        _trace(10), _repo(), strategy, registry=_sink(), fps=10, inference_seed=1, initial_model="b"
    )
    assert result.final_state.active == "b"


def test_loop_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError):
        run_loop(
            _trace(10), ModelRepository(), _StayPut(), registry=_sink(), fps=10, inference_seed=1
        )
    with pytest.raises(ValueError):
        run_loop(
            _trace(10),
            _repo(),
            _StayPut(),
            registry=_sink(),
            fps=10,
            inference_seed=1,
            decision_period=0,
        )


def test_loop_runs_are_reproducible(tmp_path) -> None:
    def run(directory):
        directory.mkdir()
        strategy = EpsilonGreedyStrategy(PlannerConfig(epsilon=0.3, rng_seed=21))
        return _logged_run(directory, _trace(200), _repo(), strategy, fps=10, inference_seed=4)

    first, first_metrics, first_events = run(tmp_path / "first")
    second, second_metrics, second_events = run(tmp_path / "second")
    assert first_metrics == second_metrics
    assert first_events == second_events
    assert first.final_state == second.final_state
