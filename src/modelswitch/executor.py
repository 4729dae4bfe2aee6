"""Switch execution and the synthetic inference step.

A switch costs the incoming model's base latency plus or minus up to 10%
uniform jitter; the loop drops the frames that arrive while the switch is
in progress. The executor starts on the first registered model. It binds
a model's profile and monitoring window when it switches to that model,
and at no other time, and runs inference with what it keeps. Synthesis
reports only the detections at or above the confidence floor, as a
detector's score threshold does, and the frame confidence is their mean.

A switch returns only its cost: the loop, which knows the model it left,
logs it. Each processed frame's figures are checked, then recorded as
plain values into the bound window and the log registry; the registry
keeps the run's totals, switches included.
"""

from __future__ import annotations

from random import Random
from typing import Mapping

from modelswitch.domain import ModelId, check_frame, mean_confidence
from modelswitch.knowledge import LogRegistry, ModelRepository
from modelswitch.monitor import MetricsWindow
from modelswitch.sim import SWITCH_JITTER, synth_inference


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
        confidence_floor: float,
    ):
        self._repo = repo
        self._windows = windows
        self._registry = registry
        self._rng = rng
        self.confidence_floor = confidence_floor
        self.active = repo.ids()[0]
        self._profile = repo.get(self.active)
        self._window = windows[self.active]

    def apply(self, selected: ModelId) -> float | None:
        """Make selected the live model and return the switch's cost in ms, or None
        when it is live already. A switch looks up the incoming profile (ValueError
        if unregistered) and window and keeps them."""
        if selected == self.active:
            return None
        profile = self._repo.get(selected)
        window = self._windows[selected]
        jitter = 1.0 + SWITCH_JITTER * (2.0 * self._rng.random() - 1.0)
        self._profile = profile
        self._window = window
        self.active = selected
        return profile.switch_latency_ms * jitter

    def run_inference(
        self, frame_index: int, object_count: int, complexity: float, sim_time_ms: float
    ) -> None:
        """Process one frame with the active model and record the result; ValueError
        if its figures are out of range, before anything is recorded."""
        confidences, cpu_usage, inference_time_ms = synth_inference(
            object_count, complexity, self._profile, self._rng, self.confidence_floor
        )
        confidence_score = mean_confidence(confidences)
        detection_count = len(confidences)
        check_frame(frame_index, cpu_usage, confidence_score, detection_count)
        self._window.record(frame_index, cpu_usage, confidence_score)
        self._registry.append_metrics(
            frame_index, sim_time_ms, self.active,
            cpu_usage, confidence_score, detection_count, inference_time_ms,
        )
