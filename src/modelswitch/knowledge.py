"""Shared knowledge for the control loop: models and run logs.

The log registry is append-only and is the single source of truth for
everything a run emits: its rows and every total the summary reports. It
streams plain UTF-8 CSV with LF line endings and reals printed with 4
decimal places, so identical runs produce byte-identical files. Each kind
of row (metrics, decision, switch) has one ``%`` layout, declared beside
its file's header; a draw-less decision is its frame index plus the rest of
its row, kept per (mode, previous, selected).
"""

from __future__ import annotations

from pathlib import Path
from typing import TextIO

from modelswitch.domain import ModelId, SelectionDecision, SelectionMode
from modelswitch.sim import ModelProfile

METRICS_FILENAME = "metrics.csv"
EVENTS_FILENAME = "events.csv"

METRICS_HEADER = (
    "frame_index,sim_time_ms,model_id,cpu_usage_pct,confidence,"
    "detection_count,inference_time_ms,battery_mah"
)
# The row layouts, one % format per kind of row over its columns in header
# order. battery_mah stays empty: the simulator measures no battery.
METRICS_ROW = "%d,%.4f,%s,%.4f,%.4f,%d,%.4f,\n"
EVENTS_HEADER = "frame_index,event_type,mode,random_draw,from_model,to_model,switch_time_ms"
# The frame index and the draw are %s: a draw-less decision fills both with "",
# which leaves the part of its row that follows the frame index.
DECISION_ROW = "%s,decision,%s,%s,%s,%s,\n"
SWITCH_ROW = "%d,switch,,,%s,%s,%.4f\n"


class IoFailure(Exception):
    """A file could not be read, decoded or written, or a run is incomplete; carries
    the path, and its message says why, from an exception or a reason."""

    def __init__(self, path: Path | str, cause: Exception | str):
        super().__init__(f"{path}: {cause}")
        self.path = Path(path)


class ModelRepository:
    """Registered model profiles, in registration order."""

    def __init__(self, profiles: tuple[ModelProfile, ...] | list[ModelProfile] = ()):
        self._profiles: dict[ModelId, ModelProfile] = {}
        for profile in profiles:
            if profile.model in self._profiles:
                raise ValueError(f"duplicate model id: {profile.model}")
            self._profiles[profile.model] = profile

    def get(self, model: ModelId) -> ModelProfile:
        try:
            return self._profiles[model]
        except KeyError:
            raise ValueError(f"unknown model: {model}") from None

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
        self._decision_suffixes: dict[tuple[str, ModelId, ModelId], str] = {}
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
        self._write_metrics(
            METRICS_ROW
            % (
                frame_index, sim_time_ms, model, cpu_usage, confidence_score, detection_count,
                inference_time_ms,
            )
        )
        counts = self.usage_counts
        counts[model] = counts.get(model, 0) + 1
        self.cpu_total += cpu_usage
        self.confidence_total += confidence_score

    def append_decision(
        self, frame_index: int, decision: SelectionDecision, previous: ModelId
    ) -> None:
        """One decision's row; previous is the model that was live when it was made."""
        if frame_index < self._last_frame:
            raise self._backwards(frame_index)
        self._last_frame = frame_index
        selected, mode, draw = decision
        # _value_ is the member's value; Enum.value is a property, dearer to read per row.
        value = mode._value_
        if draw is None:
            key = (value, previous, selected)
            try:
                suffix = self._decision_suffixes[key]
            except KeyError:
                suffix = DECISION_ROW % ("", value, "", previous, selected)
                self._decision_suffixes[key] = suffix
            self._write_event(str(frame_index) + suffix)
        else:
            self._write_event(
                DECISION_ROW % (frame_index, value, "%.4f" % draw, previous, selected)
            )
        self.decision_count += 1
        if mode is SelectionMode.EXPLORE:
            self.explore_count += 1

    def append_switch(
        self, frame_index: int, from_model: ModelId, to_model: ModelId, switch_time_ms: float
    ) -> None:
        """One executed switch's row; the arguments are its columns, in order."""
        if frame_index < self._last_frame:
            raise self._backwards(frame_index)
        self._last_frame = frame_index
        self._write_event(SWITCH_ROW % (frame_index, from_model, to_model, switch_time_ms))
        self.switch_count += 1
        self.cumulative_switch_time_ms += switch_time_ms


def read_lines(path: Path | str) -> list[str]:
    """The lines of a UTF-8 run file; IoFailure names the path if it cannot be read or decoded."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(path, exc) from exc


def write_text(path: Path | str, text: str) -> None:
    """Write text to a run file as UTF-8, newlines as given; IoFailure names the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(path, exc) from exc

