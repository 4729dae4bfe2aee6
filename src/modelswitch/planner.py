"""Model-selection strategies.

Three planners share one interface, ``decide(frame_index, active, view)``,
and each keeps its rule in that method: an epsilon-greedy policy over the
model scores, a naive two-threshold policy on the active model's latest
frame, and round-robin over time slices that re-ranks the models by window
CPU once per boost period. The ``RunView`` is built once per run and is live
and read-only: each decision reads the run as it stands, and no strategy can
change it. Each decision is a SelectionDecision; actually performing the
switch is the executor's job. At the default decision period a decision is
made for every processed frame, so the strategies build it by position:
(selected, mode, random_draw, previous). A forced decision depends on the
(selected, previous) pair alone, so the naive and round-robin strategies
build each pair's decision once and hand out that same immutable tuple
again.
"""

from __future__ import annotations

from random import Random
from typing import Mapping, NamedTuple, Sequence

from modelswitch.domain import ModelId, SelectionDecision, SelectionMode, WindowAggregate, checked
from modelswitch.monitor import MetricsWindow

DEFAULT_EPSILON = 0.1
DEFAULT_DECISION_PERIOD = 1
DEFAULT_CPU_HIGH_THRESHOLD = 17.5
DEFAULT_CONFIDENCE_LOW_THRESHOLD = 0.4
DEFAULT_TIME_SLICE_FRAMES = 40
DEFAULT_BOOST_PERIOD_FRAMES = 600


class EmptyRepository(ValueError):
    """A decision was requested, or a ladder given, with no models to choose from."""


@checked
class PlannerConfig(NamedTuple):
    """Epsilon-greedy knobs."""

    epsilon: float = DEFAULT_EPSILON
    decision_period: int = DEFAULT_DECISION_PERIOD
    rng_seed: int = 0
    # With exclusion on, exploration never lands on the current best-scoring
    # model, so every explore step buys new information.
    exclude_best: bool = True

    def _check(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon out of range: {self.epsilon}")
        if self.decision_period < 1:
            raise ValueError(f"decision_period must be >= 1: {self.decision_period}")


@checked
class NaiveConfig(NamedTuple):
    """Thresholds for the naive baseline."""

    model_order: tuple[ModelId, ...]  # lightest to heaviest
    cpu_high_threshold: float = DEFAULT_CPU_HIGH_THRESHOLD
    confidence_low_threshold: float = DEFAULT_CONFIDENCE_LOW_THRESHOLD

    def _check(self) -> None:
        if not self.model_order:
            raise EmptyRepository("model_order is empty")
        if len(set(self.model_order)) != len(self.model_order):
            raise ValueError(f"model_order has duplicates: {self.model_order}")
        if not 0.0 <= self.cpu_high_threshold <= 100.0:
            raise ValueError(f"cpu_high_threshold out of range: {self.cpu_high_threshold}")
        if not 0.0 <= self.confidence_low_threshold <= 1.0:
            raise ValueError(
                f"confidence_low_threshold out of range: {self.confidence_low_threshold}"
            )


@checked
class RoundRobinBoostConfig(NamedTuple):
    """Slice and recalibration cadence for round-robin with boosting."""

    time_slice_frames: int = DEFAULT_TIME_SLICE_FRAMES
    boost_period_frames: int = DEFAULT_BOOST_PERIOD_FRAMES

    def _check(self) -> None:
        if self.time_slice_frames < 1:
            raise ValueError(f"time_slice_frames must be >= 1: {self.time_slice_frames}")
        if self.boost_period_frames < 1:
            raise ValueError(f"boost_period_frames must be >= 1: {self.boost_period_frames}")


class RunView(NamedTuple):
    """What a strategy may read of a run: built once, live and read-only.

    ``scores`` is a read-only mapping that scores a model when it is read
    (0.0 before the model's first frame), and ``windows`` is the monitor's
    read-only map of per-model windows: ``len(windows[m])`` entries, with
    ``windows[m].cpus`` and ``windows[m].confidences`` newest last, and
    ``windows[m].aggregate()`` the window means (None before the model's
    first frame). None of it is a copy, so every decision sees the current
    values.
    """

    model_ids: tuple[ModelId, ...]
    scores: Mapping[ModelId, float]
    windows: Mapping[ModelId, MetricsWindow]


def best_model(scores: Mapping[ModelId, float]) -> ModelId:
    """Minimum-score model; ties break toward the lexicographically first id."""
    if not scores:
        raise EmptyRepository("no scores to choose from")
    return min(scores, key=lambda m: (scores[m], m))


def rank_models_by_cpu(
    model_ids: Sequence[ModelId], aggregates: Mapping[ModelId, WindowAggregate | None]
) -> tuple[ModelId, ...]:
    """Order models by observed average CPU, lightest first.

    Models without any window data go last, keeping their given order; the
    id breaks ties among observed models so the ranking is deterministic.
    """
    observed = [m for m in model_ids if aggregates.get(m) is not None]
    unobserved = [m for m in model_ids if aggregates.get(m) is None]
    observed.sort(key=lambda m: (aggregates[m].avg_cpu, m))
    return tuple(observed + unobserved)


class SelectionStrategy:
    """Common face of all planners."""

    # Processed frames between two decisions; run_loop reads it once per run.
    decision_period: int = DEFAULT_DECISION_PERIOD

    def decide(self, frame_index: int, active: ModelId, view: RunView) -> SelectionDecision:
        """Pick the model for frame_index; active is the model live now."""
        raise NotImplementedError


class _ForcedDecisions(dict):
    """One strategy's forced decisions, keyed by (selected, previous) and built on first use."""

    def __missing__(self, key: tuple[ModelId, ModelId]) -> SelectionDecision:
        selected, previous = key
        decision = self[key] = SelectionDecision(selected, SelectionMode.FORCED, None, previous)
        return decision


class EpsilonGreedyStrategy(SelectionStrategy):
    """Draws p in [0, 1) once per decision; p <= epsilon explores.

    Exploring is a uniform pick over the repository, minus the current best
    scorer when exclusion is on. Otherwise (and when a lone model leaves
    nothing to explore) it exploits the minimum score.
    """

    def __init__(self, config: PlannerConfig = PlannerConfig()):
        self.config = config
        self.decision_period = config.decision_period
        self.rng = Random(config.rng_seed)

    def decide(self, frame_index: int, active: ModelId, view: RunView) -> SelectionDecision:
        p = self.rng.random()
        scores = view.scores
        best = best_model(scores)
        if p <= self.config.epsilon:
            candidates = sorted(scores)
            if self.config.exclude_best:
                candidates.remove(best)
            if candidates:
                pick = candidates[self.rng.randrange(len(candidates))]
                return SelectionDecision(pick, SelectionMode.EXPLORE, p, active)
        return SelectionDecision(best, SelectionMode.EXPLOIT, p, active)


class NaiveThresholdStrategy(SelectionStrategy):
    """Two-threshold policy on the active model's latest frame: step lighter
    on high CPU, heavier on low confidence, otherwise stay. Clamps at both
    ends of model_order."""

    def __init__(self, config: NaiveConfig):
        self.config = config
        # Bound once: decide runs per processed frame, and an instance attribute
        # reads faster than a NamedTuple field.
        self._order = config.model_order
        self._cpu_high = config.cpu_high_threshold
        self._confidence_low = config.confidence_low_threshold
        self._decisions = _ForcedDecisions()

    def decide(self, frame_index: int, active: ModelId, view: RunView) -> SelectionDecision:
        order = self._order
        position = order.index(active)
        selected = active
        window = view.windows[active]
        cpus = window.cpus
        if cpus:
            if cpus[-1] > self._cpu_high:
                selected = order[max(position - 1, 0)]
            elif window.confidences[-1] < self._confidence_low:
                selected = order[min(position + 1, len(order) - 1)]
        return self._decisions[selected, active]


class RoundRobinBoostStrategy(SelectionStrategy):
    """Advances through its CPU rank one step per elapsed time slice.

    The strategy re-ranks the models by their window CPU (rank_models_by_cpu)
    at its first decision in each boost period, before it picks; between
    refreshes the rank is deliberately stale.
    """

    def __init__(self, config: RoundRobinBoostConfig = RoundRobinBoostConfig()):
        self.config = config
        self.rank: tuple[ModelId, ...] = ()
        self._rank_slot = -1
        self._slot = -1
        self._position = -1
        self._decisions = _ForcedDecisions()

    def decide(self, frame_index: int, active: ModelId, view: RunView) -> SelectionDecision:
        rank_slot = frame_index // self.config.boost_period_frames
        if rank_slot > self._rank_slot:
            ids = view.model_ids
            self.rank = rank_models_by_cpu(ids, {m: view.windows[m].aggregate() for m in ids})
            self._rank_slot = rank_slot
        if not self.rank:
            raise EmptyRepository("no models to rank")
        slot = frame_index // self.config.time_slice_frames
        if slot > self._slot:
            # A single step per observed boundary keeps the rotation order
            # even when a long switch swallows whole slices.
            self._position += 1
            self._slot = slot
        selected = self.rank[self._position % len(self.rank)]
        return self._decisions[selected, active]
