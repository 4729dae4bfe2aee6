"""Switch execution and the synthetic inference step.

A switch costs the incoming model's base latency plus or minus up to 10%
uniform jitter; the loop drops the frames that arrive while the switch is
in progress. The executor looks a profile up only when it switches to that
model, and runs inference with the profile it keeps. Inference output is
post-filtered by a confidence floor before the frame confidence is
computed, mirroring a detector's score-threshold stage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from random import Random

from modelswitch.domain import (
    FrameMetrics,
    ModelId,
    SelectionDecision,
    SwitchEvent,
    mean_confidence,
)
from modelswitch.knowledge import ModelRepository
from modelswitch.monitor import Monitor
from modelswitch.sim import SimFrame, synth_inference

DEFAULT_CONFIDENCE_FLOOR = 0.25
SWITCH_JITTER = 0.10


@dataclass(frozen=True, slots=True)
class ExecutorState:
    """Which model is live plus cumulative switch accounting."""

    active: ModelId
    cumulative_switch_time_ms: float = 0.0
    switch_count: int = 0

    @property
    def avg_switch_time_ms(self) -> float:
        if self.switch_count == 0:
            return 0.0
        return self.cumulative_switch_time_ms / self.switch_count


class Executor:
    """Owns the live model state and runs inference for arriving frames."""

    def __init__(
        self,
        repo: ModelRepository,
        monitor: Monitor,
        rng: Random,
        initial_model: ModelId,
        confidence_floor: float = DEFAULT_CONFIDENCE_FLOOR,
    ):
        self._profile = repo.get(initial_model)
        self._repo = repo
        self._monitor = monitor
        self._rng = rng
        self.confidence_floor = confidence_floor
        self.state = ExecutorState(active=initial_model)

    @property
    def active(self) -> ModelId:
        return self.state.active

    def apply(self, decision: SelectionDecision, frame_index: int) -> SwitchEvent | None:
        """Carry out a decision. A same-model selection is a free no-op; a switch
        looks up the incoming profile (UnknownModel if unregistered) and keeps it."""
        selected = decision.selected
        state = self.state
        if selected == state.active:
            return None
        profile = self._repo.get(selected)
        jitter = 1.0 + SWITCH_JITTER * (2.0 * self._rng.random() - 1.0)
        switch_time_ms = profile.switch_latency_ms * jitter
        self._profile = profile
        self.state = replace(
            state,
            active=selected,
            cumulative_switch_time_ms=state.cumulative_switch_time_ms + switch_time_ms,
            switch_count=state.switch_count + 1,
        )
        return SwitchEvent(
            frame_index=frame_index,
            from_model=state.active,
            to_model=selected,
            switch_time_ms=switch_time_ms,
        )

    def run_inference(self, frame: SimFrame, sim_time_ms: float) -> FrameMetrics:
        """Process one frame with the active model and record the result."""
        confidences, cpu_usage, inference_time_ms = synth_inference(frame, self._profile, self._rng)
        floor = self.confidence_floor
        kept = [c for c in confidences if c >= floor]
        metrics = FrameMetrics(
            frame_index=frame.frame_index,
            model=self.state.active,
            confidence_score=mean_confidence(kept),
            cpu_usage=cpu_usage,
            detection_count=len(kept),
            inference_time_ms=inference_time_ms,
        )
        self._monitor.record(metrics, sim_time_ms)
        return metrics
