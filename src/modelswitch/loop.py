"""The adaptation loop: monitor, analyze, plan, execute over one trace.

Frames arrive at the trace's own rate. Every ``strategy.decision_period``
processed frames, starting with the first, the strategy is consulted with
the frame index, the active model and the run's windows. The loop logs
each decision from the model that was live when it was asked, and if the
executor switches models, it logs the switch, pays its latency on the
simulated clock and drops the frames that arrive inside that window
unprocessed. The loop builds one monitoring window per model, in
registration order, and hands every decision the same read-only map of
them. The executor records each processed frame into the active model's
window and the log registry, and a window scores its model when a strategy
reads the score, so the next decision sees the frame.

The registry is the run's only tally: every count and total the summary
reports is folded there as its rows are appended, and the clock's switch
offset is read back from it. A processed frame travels as scalars: the
loop reads its object count and complexity from the trace and hands them,
with its index and clock, to the executor. A dropped frame's count is drawn
and discarded, and its complexity never computed.
"""

from __future__ import annotations

import sys
from itertools import islice
from random import Random
from types import MappingProxyType
from typing import NamedTuple

from modelswitch.domain import checked
from modelswitch.executor import DEFAULT_CONFIDENCE_FLOOR, Executor
from modelswitch.knowledge import LogRegistry, ModelRepository
from modelswitch.monitor import DEFAULT_WINDOW_CAPACITY, MetricsWindow
from modelswitch.planner import SelectionStrategy
from modelswitch.sim import Trace


# A deque's maxlen is a C ssize_t.
@checked(window_capacity=(1, sys.maxsize), confidence_floor=(0.0, 1.0))
class EngineConfig(NamedTuple):
    """Loop settings shared by every strategy: the [engine] section."""

    window_capacity: int = DEFAULT_WINDOW_CAPACITY
    confidence_floor: float = DEFAULT_CONFIDENCE_FLOOR


def run_loop(
    trace: Trace,
    repo: ModelRepository,
    strategy: SelectionStrategy,
    *,
    registry: LogRegistry,
    inference_seed: int,
    engine: EngineConfig = EngineConfig(),
) -> None:
    """Drive one strategy across a trace, logging every row to registry as it is made.

    The run starts on the first registered model, and its counts and totals
    are read off the registry afterwards. The simulated clock runs at the
    trace's fps: frame f arrives at f * 1000 / fps ms, shifted by the switch
    latency paid so far.
    """
    if len(repo) == 0:
        raise ValueError("repository is empty")
    # A config-built strategy's period is checked with its config; a custom one's is not.
    decision_period = strategy.decision_period
    if decision_period < 1:
        raise ValueError(f"decision_period must be >= 1: {decision_period}")
    capacity = engine.window_capacity
    windows = MappingProxyType({m: MetricsWindow(m, capacity) for m in repo.ids()})
    executor = Executor(
        repo, windows, registry, Random(inference_seed), confidence_floor=engine.confidence_floor
    )

    fps = trace.fps
    counts = trace.counts()
    complexity = trace.complexity
    period_ms = 1000.0 / fps
    switch_ms = 0.0
    processed = 0
    n = len(trace)
    i = 0
    while i < n:
        object_count = next(counts)
        drop_count = 0
        if processed % decision_period == 0:
            active = executor.active
            decision = strategy.decide(i, active, windows)
            registry.append_decision(i, decision, active)
            selected = decision.selected
            switch_time_ms = executor.apply(selected)
            if switch_time_ms is not None:
                registry.append_switch(i, active, selected, switch_time_ms)
                switch_ms = registry.cumulative_switch_time_ms
                # Draw and discard the dropped frames' counts, to keep the stream. The
                # clamp to the frames left matters: islice refuses a stop above sys.maxsize.
                drop_count = min(round(switch_time_ms * fps / 1000.0), n - 1 - i)
                next(islice(counts, drop_count, drop_count), None)
        executor.run_inference(i, object_count, complexity(i), i * period_ms + switch_ms)
        processed += 1
        i += 1 + drop_count
