from __future__ import annotations

import pytest

from modelswitch.domain import SelectionDecision, SelectionMode, SwitchEvent
from modelswitch.knowledge import DecisionRecord, ModelRepository
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


def test_loop_without_switches_processes_every_frame() -> None:
    result = run_loop(_trace(50), _repo(), _StayPut(), fps=10, inference_seed=1)
    assert result.frames_total == 50
    assert result.frames_processed == 50
    assert result.frames_dropped == 0
    assert result.decision_count == 50
    assert result.final_state.switch_count == 0
    assert len(result.registry.metrics_records) == 50


def test_decision_period_thins_out_decisions() -> None:
    strategy = _StayPut()
    result = run_loop(_trace(50), _repo(), strategy, fps=10, inference_seed=1, decision_period=7)
    # Decisions land on processed-frame counts 0, 7, 14, ... -> ceil(50 / 7).
    assert result.decision_count == 8
    assert len(strategy.contexts) == 8


def test_switch_drops_the_frames_inside_the_latency_window(monkeypatch) -> None:
    monkeypatch.setattr("modelswitch.executor.SWITCH_JITTER", 0.0)
    result = run_loop(_trace(50), _repo(), _SwitchOnce("b"), fps=10, inference_seed=1)
    # 500 ms at 10 fps swallows exactly 5 frames after the trigger frame.
    assert result.frames_dropped == 5
    assert result.frames_processed == 45
    assert result.frames_total == 50
    indices = [r.metrics.frame_index for r in result.registry.metrics_records]
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

    result = run_loop(_trace(50), _repo(), _SwitchLate(), fps=10, inference_seed=1)
    assert result.frames_dropped == 1  # only frame 49 was left to drop
    assert result.frames_processed + result.frames_dropped == result.frames_total


def test_frame_conservation_under_heavy_switching() -> None:
    strategy = EpsilonGreedyStrategy(PlannerConfig(epsilon=0.5, rng_seed=11))
    result = run_loop(_trace(400), _repo(), strategy, fps=10, inference_seed=2)
    assert result.frames_processed + result.frames_dropped == result.frames_total
    assert result.final_state.switch_count > 0


def test_switch_events_are_logged_with_their_cost() -> None:
    result = run_loop(_trace(50), _repo(), _SwitchOnce("b"), fps=10, inference_seed=1)
    switches = [r for r in result.registry.event_records if isinstance(r, SwitchEvent)]
    decisions = [r for r in result.registry.event_records if isinstance(r, DecisionRecord)]
    assert len(switches) == 1
    assert switches[0].from_model == "a"
    assert switches[0].to_model == "b"
    assert len(decisions) == result.decision_count
    assert result.final_state.cumulative_switch_time_ms == pytest.approx(
        switches[0].switch_time_ms
    )


def test_metrics_time_includes_accumulated_switch_latency(monkeypatch) -> None:
    monkeypatch.setattr("modelswitch.executor.SWITCH_JITTER", 0.0)
    result = run_loop(_trace(50), _repo(), _SwitchOnce("b"), fps=10, inference_seed=1)
    records = result.registry.metrics_records
    # Frame 0 is processed after the 500 ms switch completes.
    assert records[0].sim_time_ms == pytest.approx(500.0)
    # Frame 6 arrives at 600 ms on the camera clock, shifted by the switch.
    assert records[1].sim_time_ms == pytest.approx(1100.0)


def test_rank_refresh_follows_observed_cpu() -> None:
    class _RankWatcher(_SwitchOnce):
        rank_refresh_period = 30

    strategy = _RankWatcher("b")
    run_loop(_trace(90), _repo(), strategy, fps=10, inference_seed=3)
    # Before any data the rank is repository order; once model b (the
    # lighter CPU profile) has samples it must lead the refreshed rank.
    assert strategy.contexts[0].cpu_rank == ("a", "b")
    assert strategy.contexts[-1].cpu_rank[0] == "b"


def test_initial_model_defaults_to_first_registered() -> None:
    strategy = _StayPut()
    result = run_loop(_trace(10), _repo(), strategy, fps=10, inference_seed=1)
    assert strategy.contexts[0].active == "a"
    assert result.final_state.active == "a"

    strategy = _StayPut()
    result = run_loop(_trace(10), _repo(), strategy, fps=10, inference_seed=1, initial_model="b")
    assert result.final_state.active == "b"


def test_loop_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError):
        run_loop(_trace(10), ModelRepository(), _StayPut(), fps=10, inference_seed=1)
    with pytest.raises(ValueError):
        run_loop(_trace(10), _repo(), _StayPut(), fps=10, inference_seed=1, decision_period=0)


def test_loop_runs_are_reproducible() -> None:
    def run():
        strategy = EpsilonGreedyStrategy(PlannerConfig(epsilon=0.3, rng_seed=21))
        return run_loop(_trace(200), _repo(), strategy, fps=10, inference_seed=4)

    first = run()
    second = run()
    assert first.registry.metrics_records == second.registry.metrics_records
    assert first.registry.event_records == second.registry.event_records
    assert first.final_state == second.final_state
