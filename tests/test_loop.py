from __future__ import annotations

import math
from collections.abc import Mapping
from io import StringIO

import pytest
import spec

from modelswitch import executor, monitor, sim
from modelswitch.domain import SelectionDecision, SelectionMode
from modelswitch.knowledge import (
    EVENTS_FILENAME,
    METRICS_FILENAME,
    LogRegistry,
    ModelRepository,
    load_events_csv,
    load_metrics_csv,
)
from modelswitch.loop import EngineConfig, run_loop
from modelswitch.planner import (
    EpsilonGreedyStrategy,
    NaiveConfig,
    NaiveThresholdStrategy,
    PlannerConfig,
    RoundRobinBoostConfig,
    RoundRobinBoostStrategy,
    SelectionStrategy,
)
from modelswitch.sim import (
    ModelProfile,
    ScheduleSegment,
    TraceConfig,
    generate_trace,
    synth_inference,
)


# What a strategy reads of a run: the loop's read-only map of windows.
Windows = Mapping[str, monitor.MetricsWindow]


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


def _run(*args, **kwargs) -> LogRegistry:
    """run_loop into a registry that discards its rows; returns the registry."""
    registry = _sink()
    run_loop(*args, registry=registry, **kwargs)
    return registry


def _processed(registry: LogRegistry) -> int:
    return sum(registry.usage_counts.values())


def _totals(registry: LogRegistry) -> dict[str, object]:
    """Every total the registry folded, by attribute name."""
    return {name: value for name, value in vars(registry).items() if not name.startswith("_")}


def _logged_run(tmp_path, *args, **kwargs):
    """run_loop with its rows written under tmp_path; returns (registry, metrics rows, event rows)."""
    metrics_path, events_path = tmp_path / METRICS_FILENAME, tmp_path / EVENTS_FILENAME
    with (
        open(metrics_path, "w", encoding="utf-8", newline="") as metrics_out,
        open(events_path, "w", encoding="utf-8", newline="") as events_out,
    ):
        registry = LogRegistry(metrics_out, events_out)
        run_loop(*args, registry=registry, **kwargs)
    return registry, load_metrics_csv(metrics_path), load_events_csv(events_path)


class _StayPut(SelectionStrategy):
    """Always keeps the active model; records (frame_index, active, windows) per decision."""

    name = "stay-put"

    def __init__(self) -> None:
        self.calls: list[tuple[int, str, Windows]] = []

    def decide(self, frame_index: int, active: str, windows: Windows) -> SelectionDecision:
        self.calls.append((frame_index, active, windows))
        return SelectionDecision(selected=active, mode=SelectionMode.FORCED, random_draw=None)


class _SwitchOnce(_StayPut):
    """Switches to the target at the first decision, then stays."""

    name = "switch-once"

    def __init__(self, target: str) -> None:
        super().__init__()
        self.target = target

    def decide(self, frame_index: int, active: str, windows: Windows) -> SelectionDecision:
        self.calls.append((frame_index, active, windows))
        selected = self.target if frame_index == 0 else active
        return SelectionDecision(selected=selected, mode=SelectionMode.FORCED, random_draw=None)


def test_loop_without_switches_processes_every_frame(tmp_path) -> None:
    registry, metrics_rows, _ = _logged_run(
        tmp_path, _trace(50), _repo(), _StayPut(), inference_seed=1
    )
    assert _processed(registry) == 50
    assert registry.decision_count == 50
    assert registry.switch_count == 0
    assert len(metrics_rows) == 50


def test_decision_period_thins_out_decisions() -> None:
    strategy = _StayPut()
    strategy.decision_period = 7
    registry = _run(_trace(50), _repo(), strategy, inference_seed=1)
    # Decisions land on processed-frame counts 0, 7, 14, ... -> ceil(50 / 7).
    assert registry.decision_count == 8
    assert [frame_index for frame_index, _, _ in strategy.calls] == [0, 7, 14, 21, 28, 35, 42, 49]


def test_switch_drops_the_frames_inside_the_latency_window(monkeypatch, tmp_path) -> None:
    monkeypatch.setattr("modelswitch.executor.SWITCH_JITTER", 0.0)
    registry, metrics_rows, _ = _logged_run(
        tmp_path, _trace(50), _repo(), _SwitchOnce("b"), inference_seed=1
    )
    # 500 ms at 10 fps swallows exactly 5 frames after the trigger frame.
    assert _processed(registry) == 45
    indices = [metrics.frame_index for _, metrics in metrics_rows]
    assert indices == [0, *range(6, 50)]
    assert registry.switch_count == 1


def test_switch_near_the_end_cannot_drop_past_the_trace(monkeypatch) -> None:
    monkeypatch.setattr("modelswitch.executor.SWITCH_JITTER", 0.0)

    class _SwitchLate(_StayPut):
        def decide(self, frame_index: int, active: str, windows: Windows) -> SelectionDecision:
            selected = "b" if frame_index == 48 else active
            return SelectionDecision(selected, SelectionMode.FORCED, None)

    registry = _run(_trace(50), _repo(), _SwitchLate(), inference_seed=1)
    assert _processed(registry) == 49  # only frame 49 was left to drop


def test_frame_conservation_under_heavy_switching(tmp_path) -> None:
    """Every frame is processed or dropped by the switch just before it: the
    frames skipped after a processed frame are those its switch swallows."""
    strategy = EpsilonGreedyStrategy(PlannerConfig(epsilon=0.5, rng_seed=11))
    registry, metrics_rows, event_rows = _logged_run(
        tmp_path, _trace(400), _repo(), strategy, inference_seed=2
    )
    assert registry.switch_count > 0
    # At 10 fps a switch drops one frame per 100 ms, clipped at the trace's end.
    drops = {
        int(row["frame_index"]): round(float(row["switch_time_ms"]) / 100.0)
        for row in event_rows
        if row["event_type"] == "switch"
    }
    processed = [metrics.frame_index for _, metrics in metrics_rows]
    assert processed[0] == 0
    for frame, following in zip(processed, processed[1:] + [400]):
        assert following - frame - 1 == min(drops.get(frame, 0), 399 - frame)


class _FlipEveryThird(_StayPut):
    """Switches to the other of models a and b at every third decision; every
    other decision carries a draw, so kept and formatted rows both occur."""

    name = "flip-every-third"
    decision_period = 2

    def decide(self, frame_index: int, active: str, windows: Windows) -> SelectionDecision:
        self.calls.append((frame_index, active, windows))
        n = len(self.calls)
        selected = ("b" if active == "a" else "a") if n % 3 == 0 else active
        if n % 2:
            return SelectionDecision(selected, SelectionMode.FORCED, None)
        return SelectionDecision(selected, SelectionMode.EXPLOIT, 0.5)


@pytest.mark.parametrize(
    "strategy, switch_count",
    [(_SwitchOnce("b"), 1), (_FlipEveryThird(), 5)],
    ids=["switch-once", "flip-every-third"],
)
def test_switch_events_are_logged_with_their_cost(tmp_path, strategy, switch_count) -> None:
    registry, _, event_rows = _logged_run(tmp_path, _trace(50), _repo(), strategy, inference_seed=1)
    switches = [r for r in event_rows if r["event_type"] == "switch"]
    decisions = [r for r in event_rows if r["event_type"] == "decision"]
    assert len(switches) == registry.switch_count == switch_count
    assert switches[0]["from_model"] == "a"
    assert switches[0]["to_model"] == "b"
    assert len(decisions) == registry.decision_count
    # The loop, not the strategy, says where a decision started: the model live
    # at its frame, which the previous switch left or the first registered one.
    live, decision = "a", None
    for row in event_rows:
        if row["event_type"] == "decision":
            assert row["from_model"] == live
            decision = row
        else:
            assert decision is not None and row["frame_index"] == decision["frame_index"]
            assert (row["from_model"], row["to_model"]) == (
                decision["from_model"], decision["to_model"]
            )
            live = row["to_model"]
    # The file keeps 4 decimals of each switch cost.
    assert registry.cumulative_switch_time_ms == pytest.approx(
        sum(float(row["switch_time_ms"]) for row in switches), abs=5e-5 * switch_count
    )


def test_metrics_time_includes_accumulated_switch_latency(monkeypatch, tmp_path) -> None:
    monkeypatch.setattr("modelswitch.executor.SWITCH_JITTER", 0.0)
    _, metrics_rows, _ = _logged_run(
        tmp_path, _trace(50), _repo(), _SwitchOnce("b"), inference_seed=1
    )
    # Frame 0 is processed after the 500 ms switch completes.
    assert metrics_rows[0][0] == pytest.approx(500.0)
    # Frame 6 arrives at 600 ms on the camera clock, shifted by the switch.
    assert metrics_rows[1][0] == pytest.approx(1100.0)


def test_one_live_view_serves_every_decision() -> None:
    class _ViewWatcher(_StayPut):
        def __init__(self) -> None:
            super().__init__()
            self.seen: list[tuple[int, dict[str, float]]] = []

        def decide(self, frame_index: int, active: str, windows: Windows) -> SelectionDecision:
            # What the windows show at each decision: the frames seen so far.
            scores = {m: window.score() for m, window in windows.items()}
            self.seen.append((windows[active].last_frame, scores))
            return super().decide(frame_index, active, windows)

    strategy = _ViewWatcher()
    run_loop(_trace(5), _repo(), strategy, registry=_sink(), inference_seed=3)
    views = {id(windows) for _, _, windows in strategy.calls}
    assert len(views) == 1
    windows = strategy.calls[0][2]
    assert list(windows) == ["a", "b"]
    # Before the first frame nothing is observed; later decisions see the frame before.
    assert [frame_index for frame_index, _ in strategy.seen] == [-1, 0, 1, 2, 3]
    assert strategy.seen[0][1] == {"a": 0.0, "b": 0.0}
    # The map is live: after the run it shows the last frame and score.
    assert windows["a"].last_frame == 4
    assert windows["b"].means() is None
    with pytest.raises(TypeError):
        windows["a"] = monitor.MetricsWindow("a", 30)  # type: ignore[index]


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
    calls = _count_calls(monkeypatch, monitor, "compute_score")
    registry = _run(_trace(200), _repo(), strategy, inference_seed=3)
    assert _processed(registry) > 0
    assert calls == [0]


def test_epsilon_greedy_computes_at_most_one_score_per_processed_frame(monkeypatch) -> None:
    calls = _count_calls(monkeypatch, monitor, "compute_score")
    strategy = EpsilonGreedyStrategy(PlannerConfig(epsilon=0.3, rng_seed=4))
    registry = _run(_trace(300), _repo(), strategy, inference_seed=3)
    assert 0 < calls[0] <= _processed(registry)


def test_a_run_looks_a_profile_up_once_per_switch(monkeypatch) -> None:
    calls = _count_calls(monkeypatch, ModelRepository, "get")
    strategy = EpsilonGreedyStrategy(PlannerConfig(epsilon=0.3, rng_seed=4))
    registry = _run(_trace(300), _repo(), strategy, inference_seed=3)
    assert registry.switch_count > 0
    # One lookup for the initial model, then one per switch.
    assert calls == [1 + registry.switch_count]


def test_round_robin_ranks_by_the_cpu_the_loop_observed() -> None:
    strategy = RoundRobinBoostStrategy(
        RoundRobinBoostConfig(time_slice_frames=1000, boost_period_frames=30)
    )
    run_loop(_trace(90), _repo(), strategy, registry=_sink(), inference_seed=3)
    # Only model a ran (the slice never ends), so b, unobserved, ranks last.
    assert strategy.rank == ("a", "b")

    strategy = RoundRobinBoostStrategy(
        RoundRobinBoostConfig(time_slice_frames=10, boost_period_frames=30)
    )
    run_loop(_trace(200), _repo(), strategy, registry=_sink(), inference_seed=3)
    # Both ran; b has the lighter CPU profile, so it leads the last re-rank.
    assert strategy.rank == ("b", "a")


def test_the_loop_reads_the_strategys_decision_period() -> None:
    strategy = EpsilonGreedyStrategy(PlannerConfig(decision_period=5, rng_seed=4))
    registry = _run(_trace(300), _repo(), strategy, inference_seed=3)
    assert registry.switch_count > 0
    assert registry.decision_count == math.ceil(_processed(registry) / 5)


def test_a_run_starts_on_the_first_registered_model() -> None:
    strategy = _StayPut()
    registry = _run(_trace(10), _repo(), strategy, inference_seed=1)
    assert strategy.calls[0][1] == "a"
    assert registry.usage_counts == {"a": 10}

    strategy = _StayPut()
    reversed_repo = ModelRepository((_profile("b", 10.0, 500.0), _profile("a", 14.0, 500.0)))
    registry = _run(_trace(10), reversed_repo, strategy, inference_seed=1)
    assert strategy.calls[0][1] == "b"
    assert registry.usage_counts == {"b": 10}


def test_the_engine_config_sizes_the_windows_and_filters_detections() -> None:
    strategy = _StayPut()
    engine = EngineConfig(window_capacity=2, confidence_floor=1.0)
    run_loop(_trace(10), _repo(), strategy, registry=_sink(), inference_seed=1, engine=engine)
    window = strategy.calls[0][2]["a"]
    assert len(window) == 2
    # No synthetic confidence reaches a floor of 1.0, so every frame comes out empty.
    assert list(window.confidences) == [0.0, 0.0]


def test_loop_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError):
        run_loop(
            _trace(10), ModelRepository(), _StayPut(), registry=_sink(), inference_seed=1
        )
    # A custom strategy's period is checked by the loop itself.
    strategy = _StayPut()
    strategy.decision_period = 0
    with pytest.raises(ValueError, match="decision_period must be >= 1: 0"):
        run_loop(_trace(10), _repo(), strategy, registry=_sink(), inference_seed=1)


def test_loop_runs_are_reproducible(tmp_path) -> None:
    def run(directory):
        directory.mkdir()
        strategy = EpsilonGreedyStrategy(PlannerConfig(epsilon=0.3, rng_seed=21))
        return _logged_run(directory, _trace(200), _repo(), strategy, inference_seed=4)

    first, first_metrics, first_events = run(tmp_path / "first")
    second, second_metrics, second_events = run(tmp_path / "second")
    assert first_metrics == second_metrics
    assert first_events == second_events
    # The registries are distinct objects; every total they folded must match.
    assert _totals(first) == _totals(second)
    assert first.switch_count > 0


def test_the_clock_runs_at_the_trace_fps(tmp_path) -> None:
    _, metrics_rows, _ = _logged_run(
        tmp_path, _trace(20, fps=7), _repo(), _StayPut(), inference_seed=1
    )
    assert [sim_time_ms for sim_time_ms, _ in metrics_rows] == [
        round(i * (1000.0 / 7), 4) for i in range(20)
    ]


class _Alternate(_StayPut):
    """Switches to the other of models a and b at every decision."""

    name = "alternate"

    def decide(self, frame_index: int, active: str, windows: Windows) -> SelectionDecision:
        selected = "b" if active == "a" else "a"
        return SelectionDecision(selected=selected, mode=SelectionMode.FORCED, random_draw=None)


def _first_frames(config: TraceConfig) -> list[int]:
    """Each later segment's first frame: the first whose clock f / fps reached its start."""
    firsts = []
    for seg in config.segments[1:]:
        f = 0
        while f / config.fps < seg.start_s:
            f += 1
        firsts.append(f)
    return firsts


# fps 7: no segment start but 0 is on the frame grid. 2.05 s and 2.1 s both
# fall inside the period of frame 14 (2.0 s to 2.142 s), so the segment
# between them holds no frame. Switching at every processed frame with a 1 s
# switch processes frames 0, 8, 16, ..., jumping over frames 15 and 35, where
# segments begin.
_OFF_GRID = TraceConfig(
    fps=7,
    duration_s=8.0,
    segments=(
        ScheduleSegment(start_s=0.0, mean_objects=3.0, complexity=0.1),
        ScheduleSegment(start_s=2.05, mean_objects=9.0, complexity=0.9),
        ScheduleSegment(start_s=2.1, mean_objects=1.0, complexity=0.4),
        ScheduleSegment(start_s=5.0, mean_objects=6.0, complexity=0.0),
    ),
    rng_seed=3,
)


def test_drops_jump_segment_boundaries_and_the_walk_follows(monkeypatch) -> None:
    """Frames processed after a jump reach synthesis with the spec trace's counts and ramps."""
    monkeypatch.setattr("modelswitch.executor.SWITCH_JITTER", 0.0)
    received = []

    def recording(object_count, complexity, profile, rng):
        received.append((object_count, complexity))
        return synth_inference(object_count, complexity, profile, rng)

    monkeypatch.setattr(executor, "synth_inference", recording)
    repo = ModelRepository((_profile("a", 14.0, 1000.0), _profile("b", 10.0, 1000.0)))
    metrics_out = StringIO()
    registry = LogRegistry(metrics_out, StringIO())
    run_loop(generate_trace(_OFF_GRID), repo, _Alternate(), registry=registry, inference_seed=5)
    processed = [int(row.split(",", 1)[0]) for row in metrics_out.getvalue().splitlines()[1:]]
    firsts = _first_frames(_OFF_GRID)
    assert firsts == [15, 15, 35]
    jumped = [b for b in set(firsts) for p, q in zip(processed, processed[1:]) if p < b < q]
    assert sorted(jumped) == [15, 35]
    reference = spec.trace_frames(_OFF_GRID)
    assert received == [reference[i] for i in processed]


@pytest.mark.parametrize(
    "strategy",
    [
        EpsilonGreedyStrategy(PlannerConfig(epsilon=0.3, decision_period=3, rng_seed=4)),
        NaiveThresholdStrategy(NaiveConfig(model_order=("b", "a"))),
        RoundRobinBoostStrategy(RoundRobinBoostConfig(time_slice_frames=10)),
    ],
    ids=["epsilon-greedy", "naive", "round-robin-boost"],
)
def test_each_layer_is_called_once_per_frame_or_decision(monkeypatch, strategy) -> None:
    """The per-frame and per-decision calls the benchmark's traced run counts
    by name: fusing, renaming or skipping one changes a count here."""
    per_frame = [
        _count_calls(monkeypatch, executor, "synth_inference"),
        _count_calls(monkeypatch, executor.Executor, "run_inference"),
        _count_calls(monkeypatch, monitor.MetricsWindow, "record"),
        _count_calls(monkeypatch, LogRegistry, "append_metrics"),
    ]
    per_decision = [
        _count_calls(monkeypatch, type(strategy), "decide"),
        _count_calls(monkeypatch, executor.Executor, "apply"),
        _count_calls(monkeypatch, LogRegistry, "append_decision"),
    ]
    switches = _count_calls(monkeypatch, LogRegistry, "append_switch")
    registry = _run(_trace(400), _repo(), strategy, inference_seed=3)
    assert 0 < registry.decision_count <= _processed(registry)
    assert per_frame == [[_processed(registry)]] * len(per_frame)
    assert per_decision == [[registry.decision_count]] * len(per_decision)
    assert switches == [registry.switch_count]
    # The loop calls synthesis through the binding the executor imported from sim.
    assert executor.synth_inference is not sim.synth_inference
