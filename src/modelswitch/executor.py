"""Switch execution and the synthetic inference step.

A switch costs the incoming model's base latency plus or minus up to 10%
uniform jitter; the loop drops the frames that arrive while the switch is
in progress. The executor looks a profile up only when it switches to that
model, and runs inference with the profile it keeps. Inference output is
post-filtered by a confidence floor before the frame confidence is
computed, mirroring a detector's score-threshold stage.

The live model and the switch totals are plain attributes, which the loop
copies into its LoopResult once the run ends. A frame's figures go to the
monitor as plain values.
"""

from __future__ import annotations

from random import Random

from modelswitch.domain import ModelId, SelectionDecision, SwitchEvent, mean_confidence
from modelswitch.knowledge import ModelRepository
from modelswitch.monitor import Monitor
from modelswitch.sim import synth_inference

DEFAULT_CONFIDENCE_FLOOR = 0.25
SWITCH_JITTER = 0.10


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
        self.active = initial_model
        self.cumulative_switch_time_ms = 0.0
        self.switch_count = 0

    def apply(self, decision: SelectionDecision, frame_index: int) -> SwitchEvent | None:
        """Carry out a decision. A same-model selection is a free no-op; a switch
        looks up the incoming profile (UnknownModel if unregistered) and keeps it."""
        selected = decision.selected
        active = self.active
        if selected == active:
            return None
        profile = self._repo.get(selected)
        jitter = 1.0 + SWITCH_JITTER * (2.0 * self._rng.random() - 1.0)
        switch_time_ms = profile.switch_latency_ms * jitter
        self._profile = profile
        self.active = selected
        self.cumulative_switch_time_ms += switch_time_ms
        self.switch_count += 1
        return SwitchEvent(frame_index, active, selected, switch_time_ms)

    def run_inference(
        self, frame_index: int, object_count: int, complexity: float, sim_time_ms: float
    ) -> None:
        """Process one frame with the active model and record the result."""
        confidences, cpu_usage, inference_time_ms = synth_inference(
            object_count, complexity, self._profile, self._rng
        )
        floor = self.confidence_floor
        # Build the kept list only when some confidence is under the floor. A
        # nan noise_sd makes every confidence nan: min is then nan, which
        # fails ">=" here too, so those are dropped as before.
        if confidences and not min(confidences) >= floor:
            confidences = [c for c in confidences if c >= floor]
        self._monitor.record(
            frame_index,
            sim_time_ms,
            self.active,
            cpu_usage,
            mean_confidence(confidences),
            len(confidences),
            inference_time_ms,
        )
