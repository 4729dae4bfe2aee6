"""A run's CSV files read back, for the tests: the package writes them and never reads them."""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from modelswitch.knowledge import EVENTS_HEADER, METRICS_HEADER, read_lines


class MetricsRow(NamedTuple):
    """One metrics.csv row but its clock: what the monitor recorded for one processed frame."""

    frame_index: int
    model: str
    confidence_score: float
    cpu_usage: float
    detection_count: int
    inference_time_ms: float


def _rows(path: Path | str, header: str) -> list[list[str]]:
    """The fields of each row after the header; AssertionError on another header."""
    header_line, *lines = read_lines(path)
    assert header_line == header, f"{path}: unexpected header {header_line!r}"
    return [line.split(",") for line in lines]


def load_metrics_csv(path: Path | str) -> list[tuple[float, MetricsRow]]:
    """Each metrics.csv row as (sim_time_ms, MetricsRow); ValueError on a row of another width."""
    return [
        (float(t), MetricsRow(int(f), model, float(conf), float(cpu), int(found), float(ms)))
        for f, t, model, cpu, conf, found, ms, _battery in _rows(path, METRICS_HEADER)
    ]


def load_events_csv(path: Path | str) -> list[dict[str, str]]:
    """Each events.csv row as a dict of its fields, strings as written."""
    names = EVENTS_HEADER.split(",")
    return [dict(zip(names, fields, strict=True)) for fields in _rows(path, EVENTS_HEADER)]
