from __future__ import annotations

from io import StringIO

import pytest

from modelswitch import analyzer
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
    EpsilonGreedyStrategy,
    NaiveConfig,
    NaiveThresholdStrategy,
    PlannerConfig,
    RoundRobinBoostConfig,
    RoundRobinBoostStrategy,
    RunView,
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
    """Always keeps the active model; records (frame_index, active, view) per decision."""

    name = "stay-put"

    def __init__(self) -> None:
        self.calls: list[tuple[int, str, RunView]] = []

    def decide(self, frame_index: int, active: str, view: RunView) -> SelectionDecision:
        self.calls.append((frame_index, active, view))
        return SelectionDecision(
            selected=active, mode=SelectionMode.FORCED, random_draw=None, previous=active
        )


class _SwitchOnce(_StayPut):
    """Switches to the target at the first decision, then stays."""

    name = "switch-once"

    def __init__(self, target: str) -> None:
        super().__init__()
        self.target = target

    def decide(self, frame_index: int, active: str, view: RunView) -> SelectionDecision:
        self.calls.append((frame_index, active, view))
        selected = self.target if frame_index == 0 else active
        return SelectionDecision(
            selected=selected, mode=SelectionMode.FORCED, random_draw=None, previous=active
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
    assert [frame_index for frame_index, _, _ in strategy.calls] == [0, 7, 14, 21, 28, 35, 42, 49]


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
        def decide(self, frame_index: int, active: str, view: RunView) -> SelectionDecision:
            selected = "b" if frame_index == 48 else active
            return SelectionDecision(
                selected=selected,
                mode=SelectionMode.FORCED,
                random_draw=None,
                previous=active,
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


def test_one_live_view_serves_every_decision() -> None:
    class _ViewWatcher(_StayPut):
        def __init__(self) -> None:
            super().__init__()
            self.seen: list[tuple[int | None, dict[str, float]]] = []

        def decide(self, frame_index: int, active: str, view: RunView) -> SelectionDecision:
            # What the view shows at each decision: the frames seen so far.
            latest = view.windows[active].latest()
            self.seen.append((latest and latest.frame_index, dict(view.scores)))
            return super().decide(frame_index, active, view)

    strategy = _ViewWatcher()
    run_loop(_trace(5), _repo(), strategy, registry=_sink(), fps=10, inference_seed=3)
    views = {id(view) for _, _, view in strategy.calls}
    assert len(views) == 1
    view = strategy.calls[0][2]
    assert view.model_ids == ("a", "b")
    # Before the first frame nothing is observed; later decisions see the frame before.
    assert [frame_index for frame_index, _ in strategy.seen] == [None, 0, 1, 2, 3]
    assert strategy.seen[0][1] == {"a": 0.0, "b": 0.0}
    # The view is live: after the run it shows the last frame and score.
    assert view.windows["a"].latest().frame_index == 4
    assert view.windows["b"].aggregate() is None
    with pytest.raises(TypeError):
        view.scores["a"] = 1.0  # type: ignore[index]


def _count_calls(monkeypatch, owner, name: str) -> list[int]:
    """Replace owner.name with a wrapper that counts its calls; returns [count]."""
    count = [0]
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return count


@pytest.mark.parametrize(
    "strategy",
    [
        NaiveThresholdStrategy(NaiveConfig(model_order=("b", "a"))),
        RoundRobinBoostStrategy(RoundRobinBoostConfig(time_slice_frames=10)),
    ],
    ids=["naive", "round-robin-boost"],
)
def test_strategies_that_read_no_score_compute_none(monkeypatch, strategy) -> None:
    calls = _count_calls(monkeypatch, analyzer, "compute_score")
    result = run_loop(_trace(200), _repo(), strategy, registry=_sink(), fps=10, inference_seed=3)
    assert result.frames_processed > 0
    assert calls == [0]


def test_epsilon_greedy_computes_at_most_one_score_per_processed_frame(monkeypatch) -> None:
    calls = _count_calls(monkeypatch, analyzer, "compute_score")
    strategy = EpsilonGreedyStrategy(PlannerConfig(epsilon=0.3, rng_seed=4))
    result = run_loop(_trace(300), _repo(), strategy, registry=_sink(), fps=10, inference_seed=3)
    assert 0 < calls[0] <= result.frames_processed


def test_a_run_looks_a_profile_up_once_per_switch(monkeypatch) -> None:
    calls = _count_calls(monkeypatch, ModelRepository, "get")
    strategy = EpsilonGreedyStrategy(PlannerConfig(epsilon=0.3, rng_seed=4))
    result = run_loop(_trace(300), _repo(), strategy, registry=_sink(), fps=10, inference_seed=3)
    assert result.final_state.switch_count > 0
    # One lookup for the initial model, then one per switch.
    assert calls == [1 + result.final_state.switch_count]


def test_round_robin_ranks_by_the_cpu_the_loop_observed() -> None:
    strategy = RoundRobinBoostStrategy(
        RoundRobinBoostConfig(time_slice_frames=1000, boost_period_frames=30)
    )
    run_loop(_trace(90), _repo(), strategy, registry=_sink(), fps=10, inference_seed=3)
    # Only model a ran (the slice never ends), so b, unobserved, ranks last.
    assert strategy.rank == ("a", "b")

    strategy = RoundRobinBoostStrategy(
        RoundRobinBoostConfig(time_slice_frames=10, boost_period_frames=30)
    )
    run_loop(_trace(200), _repo(), strategy, registry=_sink(), fps=10, inference_seed=3)
    # Both ran; b has the lighter CPU profile, so it leads the last re-rank.
    assert strategy.rank == ("b", "a")


def test_initial_model_defaults_to_first_registered() -> None:
    strategy = _StayPut()
    result = run_loop(_trace(10), _repo(), strategy, registry=_sink(), fps=10, inference_seed=1)
    assert strategy.calls[0][1] == "a"
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
