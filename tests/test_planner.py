from __future__ import annotations

from collections import Counter
from io import StringIO
from random import Random

import pytest

from modelswitch.domain import FrameMetrics, SelectionMode, WindowAggregate
from modelswitch.analyzer import Scores
from modelswitch.knowledge import LogRegistry
from modelswitch.monitor import Monitor
from modelswitch.planner import (
    EmptyRepository,
    EpsilonGreedyStrategy,
    NaiveConfig,
    NaiveThresholdStrategy,
    PlannerConfig,
    RoundRobinBoostConfig,
    RoundRobinBoostStrategy,
    RunView,
    best_model,
    rank_models_by_cpu,
    select_epsilon_greedy,
    select_naive,
)

SCORES = {"a": 0.5, "b": -0.2, "c": 0.1}


def _view(
    scores=None, latest: FrameMetrics | None = None, model_ids=("a", "b", "c"), aggregates=None
) -> RunView:
    """A view over fixed scores and latest metrics; aggregate reads the given dict."""
    return RunView(
        model_ids=model_ids,
        scores=SCORES if scores is None else scores,
        latest=lambda model: latest,
        aggregate=({} if aggregates is None else aggregates).get,
    )


VIEW = _view()


def _metrics(cpu: float, confidence: float, model: str = "a", frame_index: int = 0) -> FrameMetrics:
    return FrameMetrics(
        frame_index=frame_index,
        model=model,
        confidence_score=confidence,
        cpu_usage=cpu,
        detection_count=1 if confidence > 0.0 else 0,
        inference_time_ms=40.0,
    )


def test_best_model_takes_the_minimum() -> None:
    assert best_model(SCORES) == "b"


def test_best_model_breaks_ties_lexicographically() -> None:
    assert best_model({"z": 1.0, "k": 1.0, "m": 1.0}) == "k"


def test_best_model_rejects_empty_scores() -> None:
    with pytest.raises(EmptyRepository):
        best_model({})


def test_exploit_above_epsilon() -> None:
    decision = select_epsilon_greedy(SCORES, "a", p=0.3, epsilon=0.1, rng=Random(0))
    assert decision.mode is SelectionMode.EXPLOIT
    assert decision.selected == "b"
    assert decision.random_draw == 0.3
    assert decision.previous == "a"


def test_explore_at_or_below_epsilon_excludes_best() -> None:
    for seed in range(50):
        decision = select_epsilon_greedy(SCORES, "a", p=0.05, epsilon=0.1, rng=Random(seed))
        assert decision.mode is SelectionMode.EXPLORE
        assert decision.selected in SCORES
        assert decision.selected != "b"


def test_draw_equal_to_epsilon_explores() -> None:
    decision = select_epsilon_greedy(SCORES, "a", p=0.1, epsilon=0.1, rng=Random(1))
    assert decision.mode is SelectionMode.EXPLORE


def test_explore_can_revisit_best_without_exclusion() -> None:
    hits = Counter(
        select_epsilon_greedy(SCORES, "a", p=0.0, epsilon=0.1, rng=Random(seed), exclude_best=False).selected
        for seed in range(300)
    )
    assert hits["b"] > 0
    assert set(hits) == {"a", "b", "c"}


def test_lone_model_falls_back_to_exploit() -> None:
    decision = select_epsilon_greedy({"only": 0.0}, "only", p=0.0, epsilon=1.0, rng=Random(2))
    assert decision.mode is SelectionMode.EXPLOIT
    assert decision.selected == "only"


def test_explore_picks_uniformly_among_candidates() -> None:
    rng = Random(43)
    hits = Counter(
        select_epsilon_greedy(SCORES, "a", p=0.0, epsilon=0.1, rng=rng).selected
        for _ in range(30_000)
    )
    assert set(hits) == {"a", "c"}
    for count in hits.values():
        assert count / 30_000 == pytest.approx(0.5, abs=0.02)


def test_strategy_is_deterministic_per_seed() -> None:
    config = PlannerConfig(rng_seed=9)
    first = EpsilonGreedyStrategy(config)
    second = EpsilonGreedyStrategy(config)
    assert [first.decide(i, "a", VIEW) for i in range(500)] == [
        second.decide(i, "a", VIEW) for i in range(500)
    ]


def test_zero_epsilon_never_explores() -> None:
    strategy = EpsilonGreedyStrategy(PlannerConfig(epsilon=0.0, rng_seed=3))
    decisions = [strategy.decide(i, "a", VIEW) for i in range(10_000)]
    assert all(d.mode is SelectionMode.EXPLOIT for d in decisions)


def test_unit_epsilon_always_explores() -> None:
    strategy = EpsilonGreedyStrategy(PlannerConfig(epsilon=1.0, rng_seed=3))
    decisions = [strategy.decide(i, "a", VIEW) for i in range(1000)]
    assert all(d.mode is SelectionMode.EXPLORE for d in decisions)


def test_epsilon_greedy_reads_the_live_score_table() -> None:
    monitor = Monitor(("a", "b"), LogRegistry(StringIO(), StringIO()))
    view = _view(scores=Scores(monitor.windows), model_ids=("a", "b"))
    strategy = EpsilonGreedyStrategy(PlannerConfig(epsilon=0.0))
    # Both score 0.0 before any frame; the tie goes to the first id.
    assert strategy.decide(0, "a", view).selected == "a"
    # b's confidence drops below its window mean: 10 * (1 - 0.6 / 0.4) = -5.
    monitor.record(_metrics(cpu=10.0, confidence=0.8, model="b", frame_index=0), 0.0)
    monitor.record(_metrics(cpu=10.0, confidence=0.4, model="b", frame_index=1), 0.0)
    assert strategy.decide(1, "a", view).selected == "b"


def test_planner_config_validation() -> None:
    with pytest.raises(ValueError):
        PlannerConfig(epsilon=1.5)
    with pytest.raises(ValueError):
        PlannerConfig(epsilon=-0.1)
    with pytest.raises(ValueError):
        PlannerConfig(decision_period=0)


def test_naive_steps_lighter_on_high_cpu() -> None:
    config = NaiveConfig(model_order=("s", "m", "l"))
    decision = select_naive(_metrics(cpu=30.0, confidence=0.9), config, active="m")
    assert decision.selected == "s"
    assert decision.mode is SelectionMode.FORCED
    assert decision.random_draw is None


def test_naive_steps_heavier_on_low_confidence() -> None:
    config = NaiveConfig(model_order=("s", "m", "l"))
    decision = select_naive(_metrics(cpu=10.0, confidence=0.1), config, active="m")
    assert decision.selected == "l"


def test_naive_clamps_at_both_ends() -> None:
    config = NaiveConfig(model_order=("s", "m", "l"))
    assert select_naive(_metrics(cpu=30.0, confidence=0.9), config, active="s").selected == "s"
    assert select_naive(_metrics(cpu=10.0, confidence=0.1), config, active="l").selected == "l"


def test_naive_high_cpu_wins_over_low_confidence() -> None:
    config = NaiveConfig(model_order=("s", "m", "l"))
    decision = select_naive(_metrics(cpu=30.0, confidence=0.1), config, active="m")
    assert decision.selected == "s"


def test_naive_stays_put_in_the_comfortable_band() -> None:
    config = NaiveConfig(model_order=("s", "m", "l"))
    decision = select_naive(_metrics(cpu=10.0, confidence=0.9), config, active="m")
    assert decision.selected == "m"


def test_naive_stays_put_without_metrics() -> None:
    config = NaiveConfig(model_order=("s", "m", "l"))
    assert select_naive(None, config, active="m").selected == "m"


def test_naive_strategy_reads_the_latest_metrics_of_the_active_model() -> None:
    asked = []

    def latest(model: str) -> FrameMetrics:
        asked.append(model)
        return _metrics(cpu=30.0, confidence=0.9)

    view = RunView(model_ids=("s", "m", "l"), scores={}, latest=latest, aggregate=lambda m: None)
    strategy = NaiveThresholdStrategy(NaiveConfig(model_order=("s", "m", "l")))
    assert strategy.decide(5, "m", view).selected == "s"
    assert asked == ["m"]


def test_naive_config_validation() -> None:
    with pytest.raises(EmptyRepository):
        NaiveConfig(model_order=())
    with pytest.raises(ValueError):
        NaiveConfig(model_order=("a", "a"))
    with pytest.raises(ValueError):
        NaiveConfig(model_order=("a", "b"), cpu_high_threshold=150.0)
    with pytest.raises(ValueError):
        NaiveConfig(model_order=("a", "b"), confidence_low_threshold=1.5)


def _agg(model: str, avg_cpu: float) -> WindowAggregate:
    return WindowAggregate(model=model, avg_confidence=0.5, avg_cpu=avg_cpu, sample_count=10)


def test_rank_orders_observed_models_by_cpu() -> None:
    rank = rank_models_by_cpu(
        ("a", "b", "c"), {"a": _agg("a", 30.0), "b": _agg("b", 10.0), "c": _agg("c", 20.0)}
    )
    assert rank == ("b", "c", "a")


def test_rank_puts_unobserved_models_last_in_given_order() -> None:
    rank = rank_models_by_cpu(("a", "b", "c", "d"), {"c": _agg("c", 20.0)})
    assert rank == ("c", "a", "b", "d")
    assert rank_models_by_cpu(("a", "b"), {}) == ("a", "b")


def test_rank_ties_break_on_model_id() -> None:
    rank = rank_models_by_cpu(("b", "a"), {"a": _agg("a", 10.0), "b": _agg("b", 10.0)})
    assert rank == ("a", "b")


def test_round_robin_holds_within_a_slice() -> None:
    strategy = RoundRobinBoostStrategy(RoundRobinBoostConfig(time_slice_frames=10))
    picks = [strategy.decide(i, "a", VIEW).selected for i in range(10)]
    assert picks == ["a"] * 10


def test_round_robin_advances_one_step_per_slice() -> None:
    strategy = RoundRobinBoostStrategy(RoundRobinBoostConfig(time_slice_frames=10))
    picks = [strategy.decide(i, "a", VIEW).selected for i in (0, 10, 20, 30, 40)]
    assert picks == ["a", "b", "c", "a", "b"]


def test_round_robin_advances_once_even_after_a_gap() -> None:
    """Skipped slices (frames dropped during long switches) cost one step, not many."""
    strategy = RoundRobinBoostStrategy(RoundRobinBoostConfig(time_slice_frames=10))
    assert strategy.decide(0, "a", VIEW).selected == "a"
    assert strategy.decide(57, "a", VIEW).selected == "b"
    assert strategy.decide(60, "a", VIEW).selected == "c"


def test_round_robin_reports_forced_mode() -> None:
    strategy = RoundRobinBoostStrategy(RoundRobinBoostConfig(time_slice_frames=10))
    decision = strategy.decide(0, "c", VIEW)
    assert decision.mode is SelectionMode.FORCED
    assert decision.previous == "c"


class _CountingAggregates(dict):
    """Window aggregates by model that count the reads a re-rank makes."""

    def __init__(self) -> None:
        super().__init__()
        self.reads = 0

    def get(self, model, default=None):
        self.reads += 1
        return super().get(model, default)


def _boosting(boost_period_frames: int) -> tuple[RoundRobinBoostStrategy, _CountingAggregates, RunView]:
    # A slice longer than any test's frames: the pick is always the head of the rank.
    strategy = RoundRobinBoostStrategy(
        RoundRobinBoostConfig(time_slice_frames=10_000, boost_period_frames=boost_period_frames)
    )
    aggregates = _CountingAggregates()
    return strategy, aggregates, _view(aggregates=aggregates)


def test_round_robin_reranks_at_the_first_decision_of_each_boost_slot() -> None:
    strategy, aggregates, view = _boosting(100)
    # Nothing observed yet: the first decision ranks in repository order.
    assert strategy.decide(0, "a", view).selected == "a"
    assert strategy.rank == ("a", "b", "c")
    assert aggregates.reads == 3

    aggregates["c"] = _agg("c", 5.0)
    aggregates["a"] = _agg("a", 9.0)
    # The same boost slot keeps the stale rank and reads nothing.
    assert strategy.decide(99, "a", view).selected == "a"
    assert aggregates.reads == 3

    # The next slot's first decision re-ranks before it picks.
    assert strategy.decide(100, "a", view).selected == "c"
    assert strategy.rank == ("c", "a", "b")
    assert aggregates.reads == 6
    strategy.decide(150, "c", view)
    assert aggregates.reads == 6


def test_round_robin_reranks_once_after_skipped_boost_slots() -> None:
    """A switch that swallows whole boost slots costs one re-rank, not one per slot."""
    strategy, aggregates, view = _boosting(100)
    strategy.decide(0, "a", view)
    aggregates["b"] = _agg("b", 5.0)
    assert strategy.decide(350, "a", view).selected == "b"
    assert aggregates.reads == 6
    strategy.decide(399, "b", view)
    assert aggregates.reads == 6
    aggregates["c"] = _agg("c", 1.0)
    assert strategy.decide(400, "b", view).selected == "c"
    assert aggregates.reads == 9


def test_round_robin_rejects_empty_rank() -> None:
    strategy = RoundRobinBoostStrategy()
    with pytest.raises(EmptyRepository):
        strategy.decide(0, "a", _view(model_ids=()))


def test_run_view_is_frozen() -> None:
    with pytest.raises(AttributeError):
        VIEW.scores = {}  # type: ignore[misc]


def test_round_robin_config_validation() -> None:
    with pytest.raises(ValueError):
        RoundRobinBoostConfig(time_slice_frames=0)
    with pytest.raises(ValueError):
        RoundRobinBoostConfig(boost_period_frames=0)
