"""Release-gating checks.

Each test here pins one externally agreed behavior: two arithmetic
reference values, the selection fixture, three statistical properties of
the policies, the orderings the three-strategy comparison must reproduce,
epsilon-greedy's move to the lightest model in rush hour and back, that
epsilon-greedy starves no model where naive starves one, the calibration
premise that each heavier model alone costs more CPU and scores higher
confidence, and the determinism and file contracts of a full run. The
conftest hook prints one PASS/FAIL line per check at the end of the session.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict, deque
from io import StringIO
from pathlib import Path
from random import Random
from statistics import fmean

import pytest
from runfiles import load_events_csv, load_metrics_csv

from modelswitch.analyzer import compute_score
from modelswitch.cli import (
    STRATEGY_NAMES,
    RunSummary,
    load_experiment,
    max_share,
    run_experiment,
    run_on,
)
from modelswitch.domain import SelectionMode, mean_confidence
from modelswitch.knowledge import LogRegistry, ModelRepository
from modelswitch.loop import run_loop
from modelswitch.monitor import MetricsWindow
from modelswitch.planner import EpsilonGreedyStrategy, PlannerConfig
from modelswitch.sim import ScheduleSegment, TraceConfig, default_profiles

MODEL_IDS = (
    "ssd-mobilenet-v1",
    "efficientdet-lite0",
    "efficientdet-lite1",
    "efficientdet-lite2",
)

FIXTURE_SCORES = {
    "efficientdet-lite0": -0.25,
    "efficientdet-lite1": -0.30,
    "efficientdet-lite2": -0.36,
    "ssd-mobilenet-v1": -0.28,
}

METRICS_HEADER_LINE = (
    "frame_index,sim_time_ms,model_id,cpu_usage_pct,confidence,"
    "detection_count,inference_time_ms,battery_mah"
)
EVENTS_HEADER_LINE = "frame_index,event_type,mode,random_draw,from_model,to_model,switch_time_ms"


@pytest.fixture(scope="module")
def full_runs(tmp_path_factory) -> dict[str, tuple[RunSummary, Path, float]]:
    """One default-configuration run per strategy, with wall time of each."""
    root = tmp_path_factory.mktemp("runs")
    runs: dict[str, tuple[RunSummary, Path, float]] = {}
    for name in ("epsilon-greedy", "naive", "round-robin-boost"):
        out = root / name
        started = time.perf_counter()
        summary = run_experiment(name, out)
        runs[name] = (summary, out, time.perf_counter() - started)
    return runs


def test_score_matches_reference_operating_point() -> None:
    value = compute_score(13.0, 54.42, avg_cpu=18.0, avg_confidence=55.94)
    assert value == pytest.approx(-0.3627, abs=5e-4)


def test_frame_confidence_matches_reference_example() -> None:
    assert mean_confidence([0.85, 0.75, 0.9]) == pytest.approx(0.8333, abs=1e-4)


class _FixtureWindow:
    """A stand-in for a model's MetricsWindow that scores as the fixture says."""

    def __init__(self, score: float):
        self.fixed_score = score

    def score(self) -> float:
        return self.fixed_score


FIXTURE_WINDOWS = {m: _FixtureWindow(FIXTURE_SCORES[m]) for m in MODEL_IDS}


class _FixtureDraws:
    """A draw source whose random() is the fixture's p; randrange comes from Random(seed)."""

    def __init__(self, p: float, seed: int):
        self.p = p
        self.randrange = Random(seed).randrange

    def random(self) -> float:
        return self.p


def _fixture_decision(p: float, seed: int):
    strategy = EpsilonGreedyStrategy(PlannerConfig(epsilon=0.1))
    strategy.rng = _FixtureDraws(p, seed)
    return strategy.decide(0, "efficientdet-lite0", FIXTURE_WINDOWS)


def test_selection_fixture_exploit_and_explore() -> None:
    exploit = _fixture_decision(p=0.3, seed=0)
    assert exploit.mode is SelectionMode.EXPLOIT
    assert exploit.selected == "efficientdet-lite2"

    for seed in range(500):
        explore = _fixture_decision(p=0.08, seed=seed)
        assert explore.mode is SelectionMode.EXPLORE
        assert explore.selected in FIXTURE_SCORES
        assert explore.selected != "efficientdet-lite2"


def test_exploration_rate_within_binomial_bound() -> None:
    strategy = EpsilonGreedyStrategy(PlannerConfig(epsilon=0.1, rng_seed=7))
    started = time.perf_counter()
    explored = sum(
        1
        for _ in range(100_000)
        if strategy.decide(0, "efficientdet-lite0", FIXTURE_WINDOWS).mode is SelectionMode.EXPLORE
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    assert 0.097 <= explored / 100_000 <= 0.103


def test_full_run_selects_every_model(full_runs) -> None:
    summary, out, elapsed = full_runs["epsilon-greedy"]
    assert elapsed < 60.0
    assert summary.frames_total == 108_000

    decisions = [
        row for row in load_events_csv(out / "events.csv") if row["event_type"] == "decision"
    ]
    assert len(decisions) == summary.decision_count
    selected = Counter(row["to_model"] for row in decisions)
    floor = 0.5 * (0.1 / (len(MODEL_IDS) - 1)) * summary.decision_count
    for model in MODEL_IDS:
        assert selected[model] >= floor


def _assert_usage_concentration_ordering(summaries: dict[str, RunSummary]) -> None:
    shares = {name: max_share(summary.usage_shares) for name, summary in summaries.items()}
    assert shares["epsilon-greedy"] < shares["naive"]
    assert shares["epsilon-greedy"] < shares["round-robin-boost"]
    assert shares["naive"] > 0.6
    assert shares["round-robin-boost"] > 0.6
    assert shares["epsilon-greedy"] < 0.6


def _assert_average_switch_time_ordering(summaries: dict[str, RunSummary]) -> None:
    naive = summaries["naive"].avg_switch_time_s
    greedy = summaries["epsilon-greedy"].avg_switch_time_s
    round_robin = summaries["round-robin-boost"].avg_switch_time_s
    assert naive < greedy < round_robin


def _assert_lightest_model_follows_rush_hour(metrics_path: Path) -> None:
    """The paper's adaptation claim, on a default-schedule run's metrics.csv: the lightest
    model's share of processed frames rises in rush hour ([segment.2], frames 36,000-71,999)
    by at least 0.1 over both off-peak segments, and falls back to within 0.1 of the first."""
    processed, lightest = Counter(), Counter()
    for _, row in load_metrics_csv(metrics_path):
        segment = row.frame_index // 36_000
        processed[segment] += 1
        lightest[segment] += row.model == MODEL_IDS[0]
    before, rush, after = (lightest[s] / processed[s] for s in range(3))
    assert rush - before >= 0.1 and rush - after >= 0.1
    assert abs(after - before) <= 0.1


# The paper says epsilon-greedy prevents resource starvation. The simulator runs
# no other CPU tenant, so no model can be starved of CPU; what it can show is a
# model the strategy never runs, or leaves idle for a long stretch. The longest
# gap on seeds 1-20 was 3,044 frames, so 6,000 leaves about twice that margin.
MAX_IDLE_FRAMES = 6_000
TRACE_FRAMES = 108_000


def _assert_no_model_starves(metrics_path: Path) -> None:
    """On a default-schedule epsilon-greedy run's metrics.csv: every model processes at
    least one frame, and none goes more than MAX_IDLE_FRAMES trace frames in a row
    without one, counting the frames before its first and after its last."""
    last_seen = dict.fromkeys(MODEL_IDS, -1)
    longest_gap = dict.fromkeys(MODEL_IDS, 0)
    for _, row in load_metrics_csv(metrics_path):
        model = row.model
        longest_gap[model] = max(longest_gap[model], row.frame_index - last_seen[model] - 1)
        last_seen[model] = row.frame_index
    for model in MODEL_IDS:
        assert last_seen[model] >= 0, f"{model} processed no frame"
        gap = max(longest_gap[model], TRACE_FRAMES - 1 - last_seen[model])
        assert gap <= MAX_IDLE_FRAMES, f"{model} processed no frame for {gap} frames"


# The default [engine] window_capacity, and the share of epsilon-greedy's exploit
# switches that must follow an above-mean or empty frame of the model they leave.
WINDOW_FRAMES = 30
MIN_REACTIVE_SHARE = 0.9


def _exploit_switch_triggers(run_dir: Path) -> Counter:
    """Classify each exploit switch of an epsilon-greedy run by the last frame of the model
    it leaves: "above" when that frame's confidence beats the mean of the model's last
    WINDOW_FRAMES metrics rows, the frame included; "empty" when it found no object;
    "neither" otherwise, and when no frame has run yet. The CSVs hold 4-decimal values,
    so a frame that ties with its mean, rounded to 4 decimals, counts as neither."""
    rows = iter(load_metrics_csv(run_dir / "metrics.csv"))
    windows: defaultdict[str, deque] = defaultdict(lambda: deque(maxlen=WINDOW_FRAMES))
    last = None
    pending = next(rows, None)
    triggers: Counter = Counter()
    for event in load_events_csv(run_dir / "events.csv"):
        if event["mode"] != "exploit" or event["from_model"] == event["to_model"]:
            continue
        # Rows before the decision's frame: that frame itself runs after the decision.
        while pending is not None and pending[1].frame_index < int(event["frame_index"]):
            last = pending[1]
            windows[last.model].append(last.confidence_score)
            pending = next(rows, None)
        if last is None:
            triggers["neither"] += 1
            continue
        assert last.model == event["from_model"], event
        if last.detection_count == 0:
            triggers["empty"] += 1
        elif last.confidence_score > round(fmean(windows[last.model]), 4):
            triggers["above"] += 1
        else:
            triggers["neither"] += 1
    return triggers


def _assert_exploit_follows_a_good_or_empty_frame(run_dir: Path) -> Counter:
    """What the score makes exploit react to: a model scores above 0 exactly when its
    latest confidence beats its window mean, and an empty frame scores the sentinel,
    so at least MIN_REACTIVE_SHARE of exploit switches leave a model right after such
    a frame. Returns the counts of _exploit_switch_triggers."""
    triggers = _exploit_switch_triggers(run_dir)
    total = sum(triggers.values())
    reactive = triggers["above"] + triggers["empty"]
    assert total and reactive >= MIN_REACTIVE_SHARE * total, (
        f"{reactive} of {total} exploit switches follow an above-mean or empty frame: {triggers}"
    )
    return triggers


def test_usage_concentration_ordering(full_runs) -> None:
    _assert_usage_concentration_ordering({name: run[0] for name, run in full_runs.items()})


def test_average_switch_time_ordering(full_runs) -> None:
    _assert_average_switch_time_ordering({name: run[0] for name, run in full_runs.items()})


@pytest.mark.parametrize("seed", range(1, 6))
def test_orderings_hold_over_seeds(seed, tmp_path) -> None:
    """Both orderings above, epsilon-greedy's rush-hour shift and its starving no model, at
    the default full length, on seeds other than the default."""
    experiment = load_experiment(seed=seed)
    summaries = {name: run_on(experiment, name, tmp_path / name) for name in STRATEGY_NAMES}
    assert all(summary.seed == seed for summary in summaries.values())
    _assert_usage_concentration_ordering(summaries)
    _assert_average_switch_time_ordering(summaries)
    # A run seeds its trace, planner and inference streams with seed, seed + 1 and seed + 2,
    # so seed s's planner stream is seed s + 1's trace stream: the seeds checked here and
    # in CI share streams and are not independent samples.
    _assert_lightest_model_follows_rush_hour(tmp_path / "epsilon-greedy" / "metrics.csv")
    _assert_no_model_starves(tmp_path / "epsilon-greedy" / "metrics.csv")
    _assert_exploit_follows_a_good_or_empty_frame(tmp_path / "epsilon-greedy")
    # The contrast the paper draws: naive, on the same seed, fails the same predicate. Its
    # CPU threshold (17.5) lies below efficientdet-lite1's and -lite2's base CPU, so it
    # steps down off either at once. On seeds 1-20 efficientdet-lite1 idles for 27,371
    # frames or more, and efficientdet-lite2 runs for 0 frames (1 frame on seed 10).
    with pytest.raises(AssertionError):
        _assert_no_model_starves(tmp_path / "naive" / "metrics.csv")


# The default schedule's shape on a 120 s trace: off-peak, rush hour, off-peak.
_SHORT_TRACE = (
    ScheduleSegment(start_s=0.0, mean_objects=3.0, complexity=0.1),
    ScheduleSegment(start_s=40.0, mean_objects=12.0, complexity=0.6),
    ScheduleSegment(start_s=80.0, mean_objects=3.0, complexity=0.1),
)


@pytest.mark.parametrize("seed", range(1, 4))
def test_static_models_rise_in_cpu_and_confidence(seed) -> None:
    """The premise of the paper's balance claim: each default model run alone (a
    one-profile repository, so nothing can switch) costs more CPU and scores higher
    confidence than the model before it. Measured on seeds 1-5: CPU about 15.8, 18.8,
    21.8 and 25.8 %, confidence about 37.3, 45.6, 51.8 and 57.0 %. The strategy is
    consulted on the first frame only, where a lone model leaves nothing to explore."""
    trace = TraceConfig(duration_s=120.0, segments=_SHORT_TRACE, rng_seed=seed)
    once = PlannerConfig(decision_period=trace.total_frames, rng_seed=seed + 1)
    points = []
    for profile in default_profiles():
        registry = LogRegistry(StringIO(), StringIO())
        run_loop(
            trace, ModelRepository((profile,)), EpsilonGreedyStrategy(once),
            registry=registry, inference_seed=seed + 2,
        )
        assert registry.switch_count == 0
        assert registry.usage_counts[profile.model] == trace.total_frames
        points.append(
            (registry.cpu_total / trace.total_frames,
             registry.confidence_total / trace.total_frames)
        )
    for (cpu, confidence), (heavier_cpu, heavier_confidence) in zip(points, points[1:]):
        assert cpu < heavier_cpu
        assert confidence < heavier_confidence


def test_window_aggregates_match_brute_force() -> None:
    rng = Random(99)
    for _ in range(1000):
        capacity = rng.randrange(1, 40)
        window = MetricsWindow("m", capacity)
        seen = []
        for i in range(rng.randrange(0, 3 * capacity)):
            count = rng.randrange(0, 6)
            confidence = rng.random() if count else 0.0
            cpu = 100.0 * rng.random()
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
        assert abs(avg_confidence - sum(c for _, c in tail) / len(tail)) <= 1e-9
        assert abs(avg_cpu - sum(cpu for cpu, _ in tail) / len(tail)) <= 1e-9


def test_identical_runs_are_byte_identical(full_runs, tmp_path) -> None:
    _, first_dir, _ = full_runs["epsilon-greedy"]
    rerun_dir = tmp_path / "rerun"
    run_experiment("epsilon-greedy", rerun_dir)
    for filename in ("metrics.csv", "events.csv"):
        assert (first_dir / filename).read_bytes() == (rerun_dir / filename).read_bytes()


def test_csv_contract_headers_and_round_trip(full_runs) -> None:
    summary, out, _ = full_runs["epsilon-greedy"]
    metrics_path = out / "metrics.csv"
    events_path = out / "events.csv"

    metrics_lines = metrics_path.read_text(encoding="utf-8").splitlines()
    events_lines = events_path.read_text(encoding="utf-8").splitlines()
    assert metrics_lines[0] == METRICS_HEADER_LINE
    assert events_lines[0] == EVENTS_HEADER_LINE

    rows = load_metrics_csv(metrics_path)
    assert len(rows) == summary.frames_processed
    # Re-rendering the parsed rows must reproduce the file line for line:
    # nothing beyond the 4-decimal figures was lost in the round trip.
    rebuilt = [
        f"{m.frame_index},{sim_time:.4f},{m.model},{m.cpu_usage:.4f},"
        f"{m.confidence_score:.4f},{m.detection_count},{m.inference_time_ms:.4f},"
        for sim_time, m in rows
    ]
    assert rebuilt == metrics_lines[1:]


def test_score_sign_tracks_confidence_difference() -> None:
    rng = Random(41)
    for _ in range(10_000):
        current_cpu = 0.1 + 99.9 * rng.random()
        avg_cpu = 0.1 + 99.9 * rng.random()
        scale = rng.choice((1.0, 100.0))
        current_confidence = scale * (0.01 + 0.99 * rng.random())
        avg_confidence = scale * rng.random()
        value = compute_score(current_cpu, current_confidence, avg_cpu, avg_confidence)
        if current_confidence > avg_confidence:
            assert value > 0.0
        elif current_confidence < avg_confidence:
            assert value < 0.0
        else:
            assert value == 0.0
