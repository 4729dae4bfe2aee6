"""Model-selection strategies.

Three planners share one interface, ``decide(frame_index, active,
windows)``, and each keeps its rule in that method: an epsilon-greedy
policy over the window scores, a naive two-threshold policy on the active
model's latest frame, and round-robin over time slices that re-ranks the
models by window mean CPU once per boost period. ``windows`` is the loop's
one live, read-only map of the per-model windows, in registration order:
each decision reads the run as it stands, and no strategy can change it.
Each decision is a SelectionDecision of the model chosen and how; the loop
knows which model was live, and performing the switch is the executor's
job. At the default decision period a decision is made for every processed
frame, so the strategies build it by position: (selected, mode,
random_draw). A forced decision depends on its model alone, so the naive
and round-robin strategies build each model's decision once and hand out
that same immutable tuple again.
"""

from __future__ import annotations

from math import inf
from random import Random
from typing import Mapping, NamedTuple

from modelswitch.domain import ModelId, SelectionDecision, SelectionMode, checked
from modelswitch.monitor import MetricsWindow

DEFAULT_DECISION_PERIOD = 1


@checked(epsilon=(0.0, 1.0), decision_period=(1, inf))
class PlannerConfig(NamedTuple):
    """Epsilon-greedy knobs."""

    epsilon: float = 0.1
    decision_period: int = DEFAULT_DECISION_PERIOD
    rng_seed: int = 0
    # With exclusion on, exploration never lands on the current best-scoring
    # model, so every explore step buys new information.
    exclude_best: bool = True


@checked(cpu_high_threshold=(0.0, 100.0), confidence_low_threshold=(0.0, 1.0))
class NaiveConfig(NamedTuple):
    """Thresholds for the naive baseline."""

    model_order: tuple[ModelId, ...]  # lightest to heaviest
    cpu_high_threshold: float = 17.5
    confidence_low_threshold: float = 0.4

    def _check(self) -> None:
        if not self.model_order:
            raise ValueError("model_order is empty")
        if len(set(self.model_order)) != len(self.model_order):
            raise ValueError(f"model_order has duplicates: {self.model_order}")


@checked(time_slice_frames=(1, inf), boost_period_frames=(1, inf))
class RoundRobinBoostConfig(NamedTuple):
    """Slice and recalibration cadence for round-robin with boosting."""

    time_slice_frames: int = 40
    boost_period_frames: int = 600


def best_model(windows: Mapping[ModelId, MetricsWindow]) -> ModelId:
    """Minimum-score model; ties break toward the lexicographically first id."""
    if not windows:
        raise ValueError("no models to choose from")
    return min(windows, key=lambda m: (windows[m].score(), m))


def rank_models_by_cpu(windows: Mapping[ModelId, MetricsWindow]) -> tuple[ModelId, ...]:
    """Order models by their window mean CPU, lightest first.

    Models without any window data go last, keeping their given order; the
    id breaks ties among observed models so the ranking is deterministic.
    """
    means = {m: window.means() for m, window in windows.items()}
    observed = sorted((m for m in means if means[m] is not None), key=lambda m: (means[m][0], m))
    return tuple(observed + [m for m in means if means[m] is None])


class SelectionStrategy:
    """Common face of all planners."""

    # Processed frames between two decisions; run_loop reads it once per run.
    decision_period: int = DEFAULT_DECISION_PERIOD

    def decide(
        self, frame_index: int, active: ModelId, windows: Mapping[ModelId, MetricsWindow]
    ) -> SelectionDecision:
        """Pick the model for frame_index; active is the model live now."""
        raise NotImplementedError


class EpsilonGreedyStrategy(SelectionStrategy):
    """Draws p in [0, 1) once per decision; p <= epsilon explores.

    Exploring is a uniform pick over the models, minus the current best
    scorer when exclusion is on. Otherwise (and when a lone model leaves
    nothing to explore) it exploits the minimum window score.
    """

    def __init__(self, config: PlannerConfig = PlannerConfig()):
        self.config = config
        self.decision_period = config.decision_period
        self.rng = Random(config.rng_seed)

    def decide(
        self, frame_index: int, active: ModelId, windows: Mapping[ModelId, MetricsWindow]
    ) -> SelectionDecision:
        p = self.rng.random()
        best = best_model(windows)
        if p <= self.config.epsilon:
            candidates = sorted(windows)
            if self.config.exclude_best:
                candidates.remove(best)
            if candidates:
                pick = candidates[self.rng.randrange(len(candidates))]
                return SelectionDecision(pick, SelectionMode.EXPLORE, p)
        return SelectionDecision(best, SelectionMode.EXPLOIT, p)


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
        self._decisions = {m: SelectionDecision(m, SelectionMode.FORCED, None) for m in self._order}

    def decide(
        self, frame_index: int, active: ModelId, windows: Mapping[ModelId, MetricsWindow]
    ) -> SelectionDecision:
        order = self._order
        position = order.index(active)
        selected = active
        window = windows[active]
        cpus = window.cpus
        if cpus:
            if cpus[-1] > self._cpu_high:
                selected = order[max(position - 1, 0)]
            elif window.confidences[-1] < self._confidence_low:
                selected = order[min(position + 1, len(order) - 1)]
        return self._decisions[selected]


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
        self._decisions: dict[ModelId, SelectionDecision] = {}

    def decide(
        self, frame_index: int, active: ModelId, windows: Mapping[ModelId, MetricsWindow]
    ) -> SelectionDecision:
        rank_slot = frame_index // self.config.boost_period_frames
        if rank_slot > self._rank_slot:
            self.rank = rank_models_by_cpu(windows)
            self._rank_slot = rank_slot
            for m in self.rank:
                if m not in self._decisions:
                    self._decisions[m] = SelectionDecision(m, SelectionMode.FORCED, None)
        if not self.rank:
            raise ValueError("no models to rank")
        slot = frame_index // self.config.time_slice_frames
        if slot > self._slot:
            # A single step per observed boundary keeps the rotation order
            # even when a long switch swallows whole slices.
            self._position += 1
            self._slot = slot
        return self._decisions[self.rank[self._position % len(self.rank)]]
