"""The adaptation loop: monitor, analyze, plan, execute over one trace.

Frames arrive at the trace's own rate. Every ``strategy.decision_period``
processed frames, starting with the first, the strategy is consulted with
the frame index, the active model and one RunView built for the whole run;
if it switches models, the switch latency is paid on the simulated clock
and the frames that arrive inside that window are dropped unprocessed.
Each processed frame is recorded by the monitor; the view hands out the
monitor's windows themselves and scores a model when the strategy reads
its score, so the next decision sees the frame.

A processed frame travels as scalars: the loop reads its object count and
complexity from the trace and hands them, with its index and clock, to the
executor. A dropped frame is never read.
"""

from __future__ import annotations

from random import Random
from typing import NamedTuple

from modelswitch.analyzer import Scores
from modelswitch.domain import ModelId, checked
from modelswitch.executor import DEFAULT_CONFIDENCE_FLOOR, Executor
from modelswitch.knowledge import LogRegistry, ModelRepository
from modelswitch.monitor import DEFAULT_WINDOW_CAPACITY, Monitor
from modelswitch.planner import RunView, SelectionStrategy
from modelswitch.sim import Trace


@checked
class EngineConfig(NamedTuple):
    """Loop settings shared by every strategy: the [engine] section."""

    window_capacity: int = DEFAULT_WINDOW_CAPACITY
    confidence_floor: float = DEFAULT_CONFIDENCE_FLOOR

    def _check(self) -> None:
        if self.window_capacity < 1:
            raise ValueError(f"window_capacity must be at least 1: {self.window_capacity}")
        if not 0.0 <= self.confidence_floor <= 1.0:
            raise ValueError(f"confidence_floor must lie in [0, 1]: {self.confidence_floor}")


class LoopResult(NamedTuple):
    """What one full run leaves behind: its log, the model live at the end,
    the switch totals and the frame and decision counts."""

    registry: LogRegistry
    active: ModelId
    switch_count: int
    cumulative_switch_time_ms: float
    frames_total: int
    frames_processed: int
    frames_dropped: int
    decision_count: int


def run_loop(
    trace: Trace,
    repo: ModelRepository,
    strategy: SelectionStrategy,
    *,
    registry: LogRegistry,
    inference_seed: int,
    engine: EngineConfig = EngineConfig(),
) -> LoopResult:
    """Drive one strategy across a trace, logging every row to registry as it is made.

    The run starts on the first registered model. The simulated clock runs
    at the trace's fps: frame f arrives at f * 1000 / fps ms, shifted by the
    switch latency paid so far.
    """
    if len(repo) == 0:
        raise ValueError("repository is empty")
    # A config-built strategy's period is checked with its config; a custom one's is not.
    decision_period = strategy.decision_period
    if decision_period < 1:
        raise ValueError(f"decision_period must be >= 1: {decision_period}")
    monitor = Monitor(repo.ids(), registry, capacity=engine.window_capacity)
    rng = Random(inference_seed)
    executor = Executor(
        repo,
        monitor,
        rng,
        initial_model=repo.ids()[0],
        confidence_floor=engine.confidence_floor,
    )

    view = RunView(model_ids=repo.ids(), scores=Scores(monitor.windows), windows=monitor.windows)

    fps = trace.fps
    frame = trace.reader()
    period_ms = 1000.0 / fps
    acc_switch_ms = 0.0
    processed = dropped = decisions = 0
    n = len(trace)
    i = 0
    while i < n:
        drop_count = 0
        if processed % decision_period == 0:
            decision = strategy.decide(i, executor.active, view)
            decisions += 1
            registry.append_decision(i, decision)
            event = executor.apply(decision, i)
            if event is not None:
                acc_switch_ms += event.switch_time_ms
                registry.append_switch(event)
                drop_count = round(event.switch_time_ms * fps / 1000.0)
        object_count, complexity = frame(i)
        executor.run_inference(i, object_count, complexity, i * period_ms + acc_switch_ms)
        processed += 1
        if drop_count:
            drop_count = min(drop_count, n - 1 - i)
            dropped += drop_count
        i += 1 + drop_count
    return LoopResult(
        registry=registry,
        active=executor.active,
        switch_count=executor.switch_count,
        cumulative_switch_time_ms=executor.cumulative_switch_time_ms,
        frames_total=n,
        frames_processed=processed,
        frames_dropped=dropped,
        decision_count=decisions,
    )
