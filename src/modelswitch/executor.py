"""Switch execution and the synthetic inference step.

A switch costs the incoming model's base latency plus or minus up to 10%
uniform jitter; the loop drops the frames that arrive while the switch is
in progress. The executor starts on the first registered model. It binds
a model's profile and monitoring window when it switches to that model,
and at no other time, and runs inference with what it keeps. Inference
output is post-filtered by a confidence floor before the frame confidence
is computed, mirroring a detector's score-threshold stage.

Each processed frame's figures are checked, then recorded as plain values
into the bound window and the log registry; the registry keeps the run's
totals, switches included.
"""

from __future__ import annotations

from random import Random
from typing import Mapping

from modelswitch.domain import ModelId, SelectionDecision, SwitchEvent, check_frame, mean_confidence
from modelswitch.knowledge import LogRegistry, ModelRepository
from modelswitch.monitor import MetricsWindow
from modelswitch.sim import synth_inference

DEFAULT_CONFIDENCE_FLOOR = 0.25
SWITCH_JITTER = 0.10


class Executor:
    """Owns the live model state and runs inference for arriving frames.

    ``windows`` must hold a window for every model in ``repo``.
    """

    def __init__(
        self,
        repo: ModelRepository,
        windows: Mapping[ModelId, MetricsWindow],
        registry: LogRegistry,
        rng: Random,
        confidence_floor: float = DEFAULT_CONFIDENCE_FLOOR,
    ):
        self._repo = repo
        self._windows = windows
        self._registry = registry
        self._rng = rng
        self.confidence_floor = confidence_floor
        self.active = repo.ids()[0]
        self._profile = repo.get(self.active)
        self._window = windows[self.active]

    def apply(self, decision: SelectionDecision, frame_index: int) -> SwitchEvent | None:
        """Carry out a decision. A same-model selection is a free no-op; a switch
        looks up the incoming profile (UnknownModel if unregistered) and window
        and keeps them."""
        selected = decision.selected
        active = self.active
        if selected == active:
            return None
        profile = self._repo.get(selected)
        window = self._windows[selected]
        jitter = 1.0 + SWITCH_JITTER * (2.0 * self._rng.random() - 1.0)
        self._profile = profile
        self._window = window
        self.active = selected
        return SwitchEvent(frame_index, active, selected, profile.switch_latency_ms * jitter)

    def run_inference(
        self, frame_index: int, object_count: int, complexity: float, sim_time_ms: float
    ) -> None:
        """Process one frame with the active model and record the result; ValueError
        if its figures are out of range, before anything is recorded."""
        confidences, cpu_usage, inference_time_ms = synth_inference(
            object_count, complexity, self._profile, self._rng
        )
        floor = self.confidence_floor
        # Build the kept list only when some confidence is under the floor. The
        # test negates the keep rule itself, so the filter is skipped only where
        # it would keep every confidence, whatever the values compare like.
        if confidences and not min(confidences) >= floor:
            confidences = [c for c in confidences if c >= floor]
        confidence_score = mean_confidence(confidences)
        detection_count = len(confidences)
        check_frame(frame_index, cpu_usage, confidence_score, detection_count)
        self._window.record(frame_index, cpu_usage, confidence_score)
        self._registry.append_metrics(
            frame_index, sim_time_ms, self.active,
            cpu_usage, confidence_score, detection_count, inference_time_ms,
        )
