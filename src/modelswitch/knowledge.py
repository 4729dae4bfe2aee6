"""Shared knowledge for the control loop: models and run logs.

The log registry is append-only and is the single source of truth for
everything a run emits: its rows and every total the summary reports. It
streams plain UTF-8 CSV with LF line endings and reals printed with 4
decimal places, so identical runs produce byte-identical files. Rows are formatted through templates built per
model: a metrics row through a ``%`` template with the model id and its
inference time already written in, a draw-less decision as its frame
index plus a suffix kept per decision.
"""

from __future__ import annotations

from pathlib import Path
from typing import TextIO

from modelswitch.domain import (
    FrameMetrics,
    ModelId,
    SelectionDecision,
    SelectionMode,
    SwitchEvent,
)
from modelswitch.sim import ModelProfile

METRICS_FILENAME = "metrics.csv"
EVENTS_FILENAME = "events.csv"

METRICS_HEADER = (
    "frame_index,sim_time_ms,model_id,cpu_usage_pct,confidence,"
    "detection_count,inference_time_ms,battery_mah"
)
EVENTS_HEADER = "frame_index,event_type,mode,random_draw,from_model,to_model,switch_time_ms"


class UnknownModel(Exception):
    """A model id that is not registered in the repository."""


class IoFailure(Exception):
    """A log file could not be written or read; carries the path."""

    def __init__(self, path: Path | str, cause: Exception):
        super().__init__(f"{path}: {cause}")
        self.path = Path(path)
        self.cause = cause


class ModelRepository:
    """Registered model profiles, in registration order."""

    def __init__(self, profiles: tuple[ModelProfile, ...] | list[ModelProfile] = ()):
        self._profiles: dict[ModelId, ModelProfile] = {}
        for profile in profiles:
            self.register(profile)

    def register(self, profile: ModelProfile) -> None:
        if profile.model in self._profiles:
            raise ValueError(f"duplicate model id: {profile.model}")
        self._profiles[profile.model] = profile

    def get(self, model: ModelId) -> ModelProfile:
        try:
            return self._profiles[model]
        except KeyError:
            raise UnknownModel(model) from None

    def ids(self) -> tuple[ModelId, ...]:
        return tuple(self._profiles)

    def __len__(self) -> int:
        return len(self._profiles)


class LogRegistry:
    """Streaming run log: writes each row as it is appended and folds the summary totals.

    Rows go to the metrics and events text streams as they arrive, so memory
    does not grow with the run; frame indices never decrease. The totals the
    summary reads are folded in row order: per-model metrics row counts, the
    CPU and confidence sums, the decision and explore counts, and the switch
    count and switch time.
    """

    def __init__(self, metrics_out: TextIO, events_out: TextIO) -> None:
        metrics_out.write(METRICS_HEADER + "\n")
        events_out.write(EVENTS_HEADER + "\n")
        self._write_metrics = metrics_out.write
        self._write_event = events_out.write
        self._last_frame = -1
        self._metrics_templates: dict[tuple[ModelId, float], str] = {}
        self._decision_suffixes: dict[SelectionDecision, str] = {}
        self.usage_counts: dict[ModelId, int] = {}
        self.cpu_total = 0.0
        self.confidence_total = 0.0
        self.decision_count = 0
        self.explore_count = 0
        self.switch_count = 0
        self.cumulative_switch_time_ms = 0.0

    def _backwards(self, frame_index: int) -> ValueError:
        return ValueError(f"frame_index went backwards: {frame_index} after {self._last_frame}")

    def append_metrics(
        self,
        frame_index: int,
        sim_time_ms: float,
        model: ModelId,
        cpu_usage: float,
        confidence_score: float,
        detection_count: int,
        inference_time_ms: float,
    ) -> None:
        """One processed frame's row; the arguments are its columns, in order."""
        if frame_index < self._last_frame:
            raise self._backwards(frame_index)
        self._last_frame = frame_index
        try:
            template = self._metrics_templates[model, inference_time_ms]
        except KeyError:
            template = self._metrics_template(model, inference_time_ms)
        self._write_metrics(
            template % (frame_index, sim_time_ms, cpu_usage, confidence_score, detection_count)
        )
        counts = self.usage_counts
        counts[model] = counts.get(model, 0) + 1
        self.cpu_total += cpu_usage
        self.confidence_total += confidence_score

    def _metrics_template(self, model: ModelId, inference_time_ms: float) -> str:
        """The row format of one (model, inference time), with both columns written in.

        battery_mah stays empty: the simulator measures no battery. Zero and
        nan are formatted but not kept: 0.0 and -0.0 are one dict key but
        print differently, and a nan key never matches again.
        """
        template = (
            "%d,%.4f," + model.replace("%", "%%") + ",%.4f,%.4f,%d,"
            + f"{inference_time_ms:.4f},\n"
        )
        if inference_time_ms == inference_time_ms and inference_time_ms != 0:
            self._metrics_templates[model, inference_time_ms] = template
        return template

    def append_decision(self, frame_index: int, decision: SelectionDecision) -> None:
        if frame_index < self._last_frame:
            raise self._backwards(frame_index)
        self._last_frame = frame_index
        mode = decision.mode
        draw = decision.random_draw
        if draw is None:
            try:
                suffix = self._decision_suffixes[decision]
            except KeyError:
                suffix = self._decision_suffixes[decision] = (
                    f",decision,{mode._value_},,{decision.previous},{decision.selected},\n"
                )
            self._write_event(str(frame_index) + suffix)
        else:
            # _value_ is the member's value; Enum.value is a property, dearer to read per row.
            self._write_event(
                "%d,decision,%s,%.4f,%s,%s,\n"
                % (frame_index, mode._value_, draw, decision.previous, decision.selected)
            )
        self.decision_count += 1
        if mode is SelectionMode.EXPLORE:
            self.explore_count += 1

    def append_switch(self, event: SwitchEvent) -> None:
        if event.frame_index < self._last_frame:
            raise self._backwards(event.frame_index)
        self._last_frame = event.frame_index
        self._write_event(
            f"{event.frame_index},switch,,,{event.from_model},{event.to_model},"
            f"{event.switch_time_ms:.4f}\n"
        )
        self.switch_count += 1
        self.cumulative_switch_time_ms += event.switch_time_ms


def load_metrics_csv(path: Path | str) -> list[tuple[float, FrameMetrics]]:
    """Parse a metrics.csv back into (sim_time_ms, FrameMetrics) rows."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoFailure(path, exc) from exc
    if not lines or lines[0] != METRICS_HEADER:
        raise ValueError(f"{path}: unexpected metrics header")
    rows: list[tuple[float, FrameMetrics]] = []
    for line in lines[1:]:
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 8:
            raise ValueError(f"{path}: malformed row: {line!r}")
        rows.append(
            (
                float(fields[1]),
                FrameMetrics(
                    frame_index=int(fields[0]),
                    model=fields[2],
                    cpu_usage=float(fields[3]),
                    confidence_score=float(fields[4]),
                    detection_count=int(fields[5]),
                    inference_time_ms=float(fields[6]),
                ),
            )
        )
    return rows


def load_events_csv(path: Path | str) -> list[dict[str, str]]:
    """Parse an events.csv into raw field dicts (strings as written)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoFailure(path, exc) from exc
    if not lines or lines[0] != EVENTS_HEADER:
        raise ValueError(f"{path}: unexpected events header")
    names = EVENTS_HEADER.split(",")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(names):
            raise ValueError(f"{path}: malformed row: {line!r}")
        rows.append(dict(zip(names, fields)))
    return rows
