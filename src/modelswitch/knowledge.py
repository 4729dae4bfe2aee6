"""Shared knowledge for the control loop: models and run logs.

The log registry is append-only and is the single source of truth for
everything a run emits: its rows and every total the summary reports. It
streams plain UTF-8 CSV with LF line endings and reals printed with 4
decimal places, so identical runs produce byte-identical files. Each kind
of row (metrics, decision, switch) has one ``%`` layout, declared beside
its file's header; a draw-less decision is its frame index plus the rest of
its row, kept per decision.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, TextIO

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
# The row layouts, one % format per kind of row over its columns in header
# order. battery_mah stays empty: the simulator measures no battery.
METRICS_ROW = "%d,%.4f,%s,%.4f,%.4f,%d,%.4f,\n"
EVENTS_HEADER = "frame_index,event_type,mode,random_draw,from_model,to_model,switch_time_ms"
# The frame index and the draw are %s: a draw-less decision fills both with "",
# which leaves the part of its row that follows the frame index.
DECISION_ROW = "%s,decision,%s,%s,%s,%s,\n"
SWITCH_ROW = "%d,switch,,,%s,%s,%.4f\n"


class UnknownModel(Exception):
    """A model id that is not registered in the repository."""


class IoFailure(Exception):
    """A file could not be read, decoded or written, or a run is incomplete; carries
    the path, and the cause as an exception or a reason."""

    def __init__(self, path: Path | str, cause: Exception | str):
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

    def append_decision(self, frame_index: int, decision: SelectionDecision) -> None:
        if frame_index < self._last_frame:
            raise self._backwards(frame_index)
        self._last_frame = frame_index
        selected, mode, draw, previous = decision
        # _value_ is the member's value; Enum.value is a property, dearer to read per row.
        if draw is None:
            try:
                suffix = self._decision_suffixes[decision]
            except KeyError:
                suffix = self._decision_suffixes[decision] = (
                    DECISION_ROW % ("", mode._value_, "", previous, selected)
                )
            self._write_event(str(frame_index) + suffix)
        else:
            self._write_event(
                DECISION_ROW % (frame_index, mode._value_, "%.4f" % draw, previous, selected)
            )
        self.decision_count += 1
        if mode is SelectionMode.EXPLORE:
            self.explore_count += 1

    def append_switch(self, event: SwitchEvent) -> None:
        if event.frame_index < self._last_frame:
            raise self._backwards(event.frame_index)
        self._last_frame = event.frame_index
        self._write_event(
            SWITCH_ROW % (event.frame_index, event.from_model, event.to_model, event.switch_time_ms)
        )
        self.switch_count += 1
        self.cumulative_switch_time_ms += event.switch_time_ms


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


def _read_rows(path: Path | str, header: str, kind: str) -> Iterator[list[str]]:
    """The fields of each non-empty row of a CSV file that starts with header."""
    lines = read_lines(path)
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: unexpected {kind} header")
    width = header.count(",") + 1
    for line in filter(None, lines[1:]):
        fields = line.split(",")
        if len(fields) != width:
            raise ValueError(f"{path}: malformed row: {line!r}")
        yield fields


def load_metrics_csv(path: Path | str) -> list[tuple[float, FrameMetrics]]:
    """Parse a metrics.csv back into (sim_time_ms, FrameMetrics) rows."""
    return [
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
        for fields in _read_rows(path, METRICS_HEADER, "metrics")
    ]


def load_events_csv(path: Path | str) -> list[dict[str, str]]:
    """Parse an events.csv into raw field dicts (strings as written)."""
    names = EVENTS_HEADER.split(",")
    return [dict(zip(names, fields)) for fields in _read_rows(path, EVENTS_HEADER, "events")]
