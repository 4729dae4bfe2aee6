from __future__ import annotations

from collections import Counter, deque
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelswitch.domain import SelectionDecision, SelectionMode
from modelswitch.monitor import MetricsWindow
from modelswitch.planner import (
    EpsilonGreedyStrategy,
    NaiveConfig,
    NaiveThresholdStrategy,
    PlannerConfig,
    RoundRobinBoostConfig,
    RoundRobinBoostStrategy,
    best_model,
    rank_models_by_cpu,
)

SCORES = {"a": 0.5, "b": -0.2, "c": 0.1}


class _Window:
    """A stand-in for a model's MetricsWindow with a fixed score, at most one
    frame's (cpu, confidence) and settable means; it counts the means() reads
    a re-rank makes."""

    def __init__(self, latest: tuple[float, float] | None = None, score: float = 0.0) -> None:
        self.cpus: deque[float] = deque()
        self.confidences: deque[float] = deque()
        if latest is not None:
            self.cpus.append(latest[0])
            self.confidences.append(latest[1])
        self.fixed_score = score
        self.mean: tuple[float, float] | None = None
        self.reads = 0

    def score(self) -> float:
        return self.fixed_score

    def means(self) -> tuple[float, float] | None:
        self.reads += 1
        return self.mean


def _windows(scores=SCORES) -> dict[str, _Window]:
    """Stand-in windows that score as given and hold no frame."""
    return {m: _Window(score=score) for m, score in scores.items()}


def _cpu_windows(cpus: dict[str, float | None]) -> dict[str, _Window]:
    """Stand-in windows whose means hold the given CPU; None is an unobserved model."""
    windows = _windows(dict.fromkeys(cpus, 0.0))
    for m, cpu in cpus.items():
        windows[m].mean = None if cpu is None else (cpu, 0.5)
    return windows


WINDOWS = _windows()


class _Draws:
    """A draw source whose random() is a fixed p; randrange comes from Random(seed)."""

    def __init__(self, p: float, seed: int) -> None:
        self.p = p
        self.randrange = Random(seed).randrange

    def random(self) -> float:
        return self.p


def _greedy(scores, active, p, epsilon, seed, exclude_best=True):
    """One EpsilonGreedyStrategy decision over scores with p drawn as given."""
    strategy = EpsilonGreedyStrategy(PlannerConfig(epsilon=epsilon, exclude_best=exclude_best))
    strategy.rng = _Draws(p, seed)
    return strategy.decide(0, active, _windows(scores))


def _record(windows, cpu: float, confidence: float, model: str, frame_index: int = 0):
    windows[model].record(frame_index, cpu, confidence)


def test_best_model_takes_the_minimum() -> None:
    assert best_model(WINDOWS) == "b"


def test_best_model_breaks_ties_lexicographically() -> None:
    assert best_model(_windows({"z": 1.0, "k": 1.0, "m": 1.0})) == "k"


def test_best_model_rejects_empty_scores() -> None:
    with pytest.raises(ValueError, match="no models to choose from"):
        best_model({})


def test_exploit_above_epsilon() -> None:
    decision = _greedy(SCORES, "a", p=0.3, epsilon=0.1, seed=0)
    assert decision.mode is SelectionMode.EXPLOIT
    assert decision.selected == "b"
    assert decision.random_draw == 0.3


def test_explore_at_or_below_epsilon_excludes_best() -> None:
    for seed in range(50):
        decision = _greedy(SCORES, "a", p=0.05, epsilon=0.1, seed=seed)
        assert decision.mode is SelectionMode.EXPLORE
        assert decision.selected in SCORES
        assert decision.selected != "b"


def test_draw_equal_to_epsilon_explores() -> None:
    decision = _greedy(SCORES, "a", p=0.1, epsilon=0.1, seed=1)
    assert decision.mode is SelectionMode.EXPLORE


def test_explore_can_revisit_best_without_exclusion() -> None:
    hits = Counter(
        _greedy(SCORES, "a", p=0.0, epsilon=0.1, seed=seed, exclude_best=False).selected
        for seed in range(300)
    )
    assert hits["b"] > 0
    assert set(hits) == {"a", "b", "c"}


def test_lone_model_falls_back_to_exploit() -> None:
    decision = _greedy({"only": 0.0}, "only", p=0.0, epsilon=1.0, seed=2)
    assert decision.mode is SelectionMode.EXPLOIT
    assert decision.selected == "only"


def test_explore_picks_uniformly_among_candidates() -> None:
    strategy = EpsilonGreedyStrategy(PlannerConfig(epsilon=0.1))
    strategy.rng = _Draws(p=0.0, seed=43)
    hits = Counter(strategy.decide(i, "a", WINDOWS).selected for i in range(30_000))
    assert set(hits) == {"a", "c"}
    for count in hits.values():
        assert count / 30_000 == pytest.approx(0.5, abs=0.02)


def test_strategy_is_deterministic_per_seed() -> None:
    config = PlannerConfig(rng_seed=9)
    first = EpsilonGreedyStrategy(config)
    second = EpsilonGreedyStrategy(config)
    assert [first.decide(i, "a", WINDOWS) for i in range(500)] == [
        second.decide(i, "a", WINDOWS) for i in range(500)
    ]


def test_zero_epsilon_never_explores() -> None:
    strategy = EpsilonGreedyStrategy(PlannerConfig(epsilon=0.0, rng_seed=3))
    decisions = [strategy.decide(i, "a", WINDOWS) for i in range(10_000)]
    assert all(d.mode is SelectionMode.EXPLOIT for d in decisions)


def test_unit_epsilon_always_explores() -> None:
    strategy = EpsilonGreedyStrategy(PlannerConfig(epsilon=1.0, rng_seed=3))
    decisions = [strategy.decide(i, "a", WINDOWS) for i in range(1000)]
    assert all(d.mode is SelectionMode.EXPLORE for d in decisions)


def test_epsilon_greedy_reads_the_live_score_table() -> None:
    windows = {m: MetricsWindow(m, 30) for m in ("a", "b")}
    strategy = EpsilonGreedyStrategy(PlannerConfig(epsilon=0.0))
    # Both score 0.0 before any frame; the tie goes to the first id.
    assert strategy.decide(0, "a", windows).selected == "a"
    # b's confidence drops below its window mean: 10 * (1 - 0.6 / 0.4) = -5.
    _record(windows, cpu=10.0, confidence=0.8, model="b", frame_index=0)
    _record(windows, cpu=10.0, confidence=0.4, model="b", frame_index=1)
    assert strategy.decide(1, "a", windows).selected == "b"


def test_planner_config_validation() -> None:
    with pytest.raises(ValueError):
        PlannerConfig(epsilon=1.5)
    with pytest.raises(ValueError):
        PlannerConfig(epsilon=-0.1)
    with pytest.raises(ValueError):
        PlannerConfig(decision_period=0)


def _naive(latest: tuple[float, float] | None, active: str):
    """One NaiveThresholdStrategy decision over s < m < l, the active model's
    latest frame's (cpu, confidence) given."""
    strategy = NaiveThresholdStrategy(NaiveConfig(model_order=("s", "m", "l")))
    windows = {m: _Window() for m in ("s", "m", "l")}
    windows[active] = _Window(latest)
    return strategy.decide(0, active, windows)


def test_naive_steps_lighter_on_high_cpu() -> None:
    decision = _naive((30.0, 0.9), active="m")
    assert decision.selected == "s"
    assert decision.mode is SelectionMode.FORCED
    assert decision.random_draw is None


def test_naive_steps_heavier_on_low_confidence() -> None:
    decision = _naive((10.0, 0.1), active="m")
    assert decision.selected == "l"


def test_naive_clamps_at_both_ends() -> None:
    assert _naive((30.0, 0.9), active="s").selected == "s"
    assert _naive((10.0, 0.1), active="l").selected == "l"


def test_naive_high_cpu_wins_over_low_confidence() -> None:
    decision = _naive((30.0, 0.1), active="m")
    assert decision.selected == "s"


def test_naive_stays_put_in_the_comfortable_band() -> None:
    decision = _naive((10.0, 0.9), active="m")
    assert decision.selected == "m"


def test_naive_stays_put_without_metrics() -> None:
    assert _naive(None, active="m").selected == "m"


def test_naive_strategy_reads_the_latest_metrics_of_the_active_model() -> None:
    windows = {m: MetricsWindow(m, 30) for m in ("s", "m", "l")}
    _record(windows, cpu=30.0, confidence=0.9, model="m")
    _record(windows, cpu=10.0, confidence=0.1, model="s")
    strategy = NaiveThresholdStrategy(NaiveConfig(model_order=("s", "m", "l")))
    assert strategy.decide(5, "m", windows).selected == "s"


# One decision step: the active model (an index into s < m < l) and that model's
# latest (cpu, confidence), or None for an empty window.
_steps = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.one_of(
            st.none(),
            st.tuples(st.sampled_from([10.0, 17.5, 30.0]), st.sampled_from([0.1, 0.4, 0.9])),
        ),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(steps=_steps)
def test_naive_decisions_equal_freshly_built_ones(steps) -> None:
    """A kept decision equals the one the rule builds afresh; each strategy keeps its own."""
    order = ("s", "m", "l")
    first, second = (NaiveThresholdStrategy(NaiveConfig(model_order=order)) for _ in range(2))
    cpu_high = NaiveConfig._field_defaults["cpu_high_threshold"]
    confidence_low = NaiveConfig._field_defaults["confidence_low_threshold"]
    for frame_index, (position, latest) in enumerate(steps):
        active = order[position]
        windows = {m: _Window(latest) for m in order}
        selected = active
        if latest is not None and latest[0] > cpu_high:
            selected = order[max(position - 1, 0)]
        elif latest is not None and latest[1] < confidence_low:
            selected = order[min(position + 1, 2)]
        decision = first.decide(frame_index, active, windows)
        assert decision == SelectionDecision(selected, SelectionMode.FORCED, None)
        other = second.decide(frame_index, active, windows)
        assert other == decision and other is not decision


def test_naive_config_validation() -> None:
    with pytest.raises(ValueError, match="model_order is empty"):
        NaiveConfig(model_order=())
    with pytest.raises(ValueError):
        NaiveConfig(model_order=("a", "a"))
    with pytest.raises(ValueError):
        NaiveConfig(model_order=("a", "b"), cpu_high_threshold=150.0)
    with pytest.raises(ValueError):
        NaiveConfig(model_order=("a", "b"), confidence_low_threshold=1.5)


def test_rank_orders_observed_models_by_cpu() -> None:
    rank = rank_models_by_cpu(_cpu_windows({"a": 30.0, "b": 10.0, "c": 20.0}))
    assert rank == ("b", "c", "a")


def test_rank_puts_unobserved_models_last_in_given_order() -> None:
    rank = rank_models_by_cpu(_cpu_windows({"a": None, "b": None, "c": 20.0, "d": None}))
    assert rank == ("c", "a", "b", "d")
    assert rank_models_by_cpu(_cpu_windows({"a": None, "b": None})) == ("a", "b")


def test_rank_ties_break_on_model_id() -> None:
    rank = rank_models_by_cpu(_cpu_windows({"b": 10.0, "a": 10.0}))
    assert rank == ("a", "b")


def test_round_robin_holds_within_a_slice() -> None:
    strategy = RoundRobinBoostStrategy(RoundRobinBoostConfig(time_slice_frames=10))
    picks = [strategy.decide(i, "a", WINDOWS).selected for i in range(10)]
    assert picks == ["a"] * 10


def test_round_robin_advances_one_step_per_slice() -> None:
    strategy = RoundRobinBoostStrategy(RoundRobinBoostConfig(time_slice_frames=10))
    picks = [strategy.decide(i, "a", WINDOWS).selected for i in (0, 10, 20, 30, 40)]
    assert picks == ["a", "b", "c", "a", "b"]


def test_round_robin_advances_once_even_after_a_gap() -> None:
    """Skipped slices (frames dropped during long switches) cost one step, not many."""
    strategy = RoundRobinBoostStrategy(RoundRobinBoostConfig(time_slice_frames=10))
    assert strategy.decide(0, "a", WINDOWS).selected == "a"
    assert strategy.decide(57, "a", WINDOWS).selected == "b"
    assert strategy.decide(60, "a", WINDOWS).selected == "c"


def test_round_robin_reports_forced_mode() -> None:
    strategy = RoundRobinBoostStrategy(RoundRobinBoostConfig(time_slice_frames=10))
    decision = strategy.decide(0, "c", WINDOWS)
    assert decision.mode is SelectionMode.FORCED


@settings(max_examples=100, deadline=None)
@given(
    steps=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 25)), min_size=1, max_size=40)
)
def test_round_robin_decisions_equal_freshly_built_ones(steps) -> None:
    """Over unobserved windows the rank is the repository order, so the pick is its
    entry at the count of slot boundaries passed; each strategy keeps its own decisions."""
    ids = ("a", "b", "c")
    first, second = (
        RoundRobinBoostStrategy(RoundRobinBoostConfig(time_slice_frames=10)) for _ in range(2)
    )
    frame_index, last_slot, boundaries = 0, -1, -1
    for active, gap in steps:
        frame_index += gap
        if frame_index // 10 > last_slot:
            last_slot, boundaries = frame_index // 10, boundaries + 1
        decision = first.decide(frame_index, ids[active], WINDOWS)
        expected = SelectionDecision(ids[boundaries % 3], SelectionMode.FORCED, None)
        assert decision == expected
        other = second.decide(frame_index, ids[active], WINDOWS)
        assert other == expected and other is not decision


def _boosting(boost_period_frames: int) -> tuple[RoundRobinBoostStrategy, dict]:
    # A slice longer than any test's frames: the pick is always the head of the rank.
    strategy = RoundRobinBoostStrategy(
        RoundRobinBoostConfig(time_slice_frames=10_000, boost_period_frames=boost_period_frames)
    )
    return strategy, _windows()


def _reads(windows: dict) -> int:
    return sum(window.reads for window in windows.values())


def test_round_robin_reranks_at_the_first_decision_of_each_boost_slot() -> None:
    strategy, windows = _boosting(100)
    # Nothing observed yet: the first decision ranks in repository order.
    assert strategy.decide(0, "a", windows).selected == "a"
    assert strategy.rank == ("a", "b", "c")
    assert _reads(windows) == 3

    windows["c"].mean = (5.0, 0.5)
    windows["a"].mean = (9.0, 0.5)
    # The same boost slot keeps the stale rank and reads nothing.
    assert strategy.decide(99, "a", windows).selected == "a"
    assert _reads(windows) == 3

    # The next slot's first decision re-ranks before it picks.
    assert strategy.decide(100, "a", windows).selected == "c"
    assert strategy.rank == ("c", "a", "b")
    assert _reads(windows) == 6
    strategy.decide(150, "c", windows)
    assert _reads(windows) == 6


def test_round_robin_reranks_once_after_skipped_boost_slots() -> None:
    """A switch that swallows whole boost slots costs one re-rank, not one per slot."""
    strategy, windows = _boosting(100)
    strategy.decide(0, "a", windows)
    windows["b"].mean = (5.0, 0.5)
    assert strategy.decide(350, "a", windows).selected == "b"
    assert _reads(windows) == 6
    strategy.decide(399, "b", windows)
    assert _reads(windows) == 6
    windows["c"].mean = (1.0, 0.5)
    assert strategy.decide(400, "b", windows).selected == "c"
    assert _reads(windows) == 9


def test_round_robin_rejects_empty_rank() -> None:
    strategy = RoundRobinBoostStrategy()
    with pytest.raises(ValueError, match="no models to rank"):
        strategy.decide(0, "a", {})


def test_round_robin_config_validation() -> None:
    with pytest.raises(ValueError):
        RoundRobinBoostConfig(time_slice_frames=0)
    with pytest.raises(ValueError):
        RoundRobinBoostConfig(boost_period_frames=0)
