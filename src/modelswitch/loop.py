"""The adaptation loop: monitor, analyze, plan, execute over one trace.

Frames arrive at a fixed rate. Every decision_period processed frames the
strategy is consulted; if it switches models, the switch latency is paid
on the simulated clock and the frames that arrive inside that window are
dropped unprocessed. Each processed frame is scored and recorded, so the
next decision sees it.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Sequence

from modelswitch.analyzer import Analyzer
from modelswitch.executor import DEFAULT_CONFIDENCE_FLOOR, Executor, ExecutorState
from modelswitch.knowledge import LogRegistry, ModelRepository, ScoreTable
from modelswitch.monitor import DEFAULT_WINDOW_CAPACITY, Monitor
from modelswitch.planner import DecisionContext, SelectionStrategy, rank_models_by_cpu
from modelswitch.sim import SimFrame


@dataclass(frozen=True)
class LoopResult:
    """What one full run leaves behind."""

    registry: LogRegistry
    final_state: ExecutorState
    frames_total: int
    frames_processed: int
    frames_dropped: int
    decision_count: int


def run_loop(
    trace: Sequence[SimFrame],
    repo: ModelRepository,
    strategy: SelectionStrategy,
    *,
    registry: LogRegistry,
    fps: int,
    inference_seed: int,
    decision_period: int = 1,
    window_capacity: int = DEFAULT_WINDOW_CAPACITY,
    confidence_floor: float = DEFAULT_CONFIDENCE_FLOOR,
    initial_model: str | None = None,
) -> LoopResult:
    """Drive one strategy across a trace, logging every row to registry as it is made."""
    if len(repo) == 0:
        raise ValueError("repository is empty")
    if decision_period < 1:
        raise ValueError(f"decision_period must be >= 1: {decision_period}")
    monitor = Monitor(repo.ids(), registry, capacity=window_capacity)
    table = ScoreTable.initialize(repo.ids())
    analyzer = Analyzer(monitor, table)
    rng = Random(inference_seed)
    executor = Executor(
        repo,
        monitor,
        rng,
        initial_model=initial_model or repo.ids()[0],
        confidence_floor=confidence_floor,
    )

    period_ms = 1000.0 / fps
    cpu_rank = rank_models_by_cpu(repo.ids(), {})
    last_rank_slot = -1
    acc_switch_ms = 0.0
    processed = dropped = decisions = 0
    n = len(trace)
    i = 0
    while i < n:
        frame = trace[i]
        arrival_ms = frame.frame_index * period_ms
        drop_count = 0
        if processed % decision_period == 0:
            refresh = strategy.rank_refresh_period
            if refresh is not None:
                slot = frame.frame_index // refresh
                if slot > last_rank_slot:
                    cpu_rank = rank_models_by_cpu(
                        repo.ids(), {m: monitor.aggregate(m) for m in repo.ids()}
                    )
                    last_rank_slot = slot
            ctx = DecisionContext(
                frame_index=frame.frame_index,
                active=executor.active,
                scores=table.values(),
                latest=monitor.latest(executor.active),
                cpu_rank=cpu_rank,
            )
            decision = strategy.decide(ctx)
            decisions += 1
            registry.append_decision(frame.frame_index, decision)
            event = executor.apply(decision, frame.frame_index)
            if event is not None:
                acc_switch_ms += event.switch_time_ms
                registry.append_switch(event)
                drop_count = round(event.switch_time_ms * fps / 1000.0)
        metrics = executor.run_inference(frame, arrival_ms + acc_switch_ms)
        analyzer.refresh_scores(metrics)
        processed += 1
        if drop_count:
            drop_count = min(drop_count, n - 1 - i)
            dropped += drop_count
        i += 1 + drop_count
    return LoopResult(
        registry=registry,
        final_state=executor.state,
        frames_total=n,
        frames_processed=processed,
        frames_dropped=dropped,
        decision_count=decisions,
    )
