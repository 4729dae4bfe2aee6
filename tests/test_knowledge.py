from __future__ import annotations

import math
from contextlib import contextmanager
from decimal import ROUND_HALF_EVEN, Decimal
from io import StringIO
from pathlib import Path
from typing import Iterator

import pytest
from runfiles import load_events_csv, load_metrics_csv

from modelswitch.cli import run_experiment
from modelswitch.domain import SelectionDecision, SelectionMode
from modelswitch.knowledge import (
    EVENTS_FILENAME,
    EVENTS_HEADER,
    METRICS_FILENAME,
    METRICS_HEADER,
    IoFailure,
    LogRegistry,
    ModelRepository,
    read_lines,
)
from modelswitch.sim import ModelProfile


def _profile(model: str) -> ModelProfile:
    return ModelProfile(
        model=model,
        base_cpu_pct=14.0,
        cpu_per_object_pct=0.3,
        base_confidence=0.6,
        confidence_noise_sd=0.05,
        detection_recall=0.9,
        switch_latency_ms=300.0,
        inference_time_ms=40.0,
    )


def _append_metrics(registry: LogRegistry, frame_index: int, sim_time_ms: float, model="a"):
    registry.append_metrics(frame_index, sim_time_ms, model, 17.25, 0.512345, 3, 40.0)


def _decision(selected: str = "b") -> SelectionDecision:
    return SelectionDecision(selected=selected, mode=SelectionMode.EXPLORE, random_draw=0.0421)


@contextmanager
def _registry(directory: Path) -> Iterator[LogRegistry]:
    """A registry streaming into metrics.csv and events.csv under directory."""
    with (
        open(directory / METRICS_FILENAME, "w", encoding="utf-8", newline="") as metrics_out,
        open(directory / EVENTS_FILENAME, "w", encoding="utf-8", newline="") as events_out,
    ):
        yield LogRegistry(metrics_out, events_out)


def test_repository_preserves_registration_order() -> None:
    repo = ModelRepository((_profile("b"), _profile("a")))
    assert repo.ids() == ("b", "a")
    assert len(repo) == 2
    assert repo.get("a").model == "a"
    with pytest.raises(ValueError, match="unknown model: z"):
        repo.get("z")


def test_repository_rejects_duplicates_and_unknowns() -> None:
    repo = ModelRepository((_profile("a"),))
    with pytest.raises(ValueError):
        repo.register(_profile("a"))
    with pytest.raises(ValueError, match="unknown model: ghost"):
        repo.get("ghost")


def test_registry_rejects_backwards_frame_indices() -> None:
    registry = LogRegistry(StringIO(), StringIO())
    _append_metrics(registry, 5, 0.0)
    with pytest.raises(ValueError):
        _append_metrics(registry, 4, 1.0)
    # The same frame index is fine: a decision and its metrics share one.
    registry.append_decision(5, _decision(), "a")
    registry.append_switch(5, "a", "b", 310.0)


def test_registry_folds_the_summary_totals() -> None:
    registry = LogRegistry(StringIO(), StringIO())
    registry.append_decision(0, _decision(), "a")
    _append_metrics(registry, 0, 0.0, model="b")
    registry.append_decision(1, _decision()._replace(mode=SelectionMode.EXPLOIT), "b")
    _append_metrics(registry, 1, 16.7, model="b")
    _append_metrics(registry, 2, 33.3, model="a")
    assert registry.usage_counts == {"b": 2, "a": 1}
    assert registry.cpu_total == 17.25 + 17.25 + 17.25
    assert registry.confidence_total == 0.512345 + 0.512345 + 0.512345
    assert registry.explore_count == 1


def test_export_writes_both_csv_files() -> None:
    """Each append writes its row to the open stream at once."""
    metrics_out, events_out = StringIO(), StringIO()
    registry = LogRegistry(metrics_out, events_out)
    assert metrics_out.getvalue() == METRICS_HEADER + "\n"
    assert events_out.getvalue() == EVENTS_HEADER + "\n"
    registry.append_decision(0, _decision(), "a")
    registry.append_switch(0, "a", "b", 312.5)
    _append_metrics(registry, 0, 312.5, model="b")

    metrics_lines = metrics_out.getvalue().splitlines()
    events_lines = events_out.getvalue().splitlines()

    assert metrics_lines[0] == METRICS_HEADER
    assert metrics_lines[1] == "0,312.5000,b,17.2500,0.5123,3,40.0000,"
    assert events_lines[0] == EVENTS_HEADER
    assert events_lines[1] == "0,decision,explore,0.0421,a,b,"
    assert events_lines[2] == "0,switch,,,a,b,312.5000"


def test_a_kept_draw_less_row_names_the_model_it_left() -> None:
    """Two draw-less decisions that differ only in the model left write two rows."""
    events_out = StringIO()
    registry = LogRegistry(StringIO(), events_out)
    forced_b = SelectionDecision("b", SelectionMode.FORCED, None)
    for frame_index, previous in enumerate(("a", "b", "a")):
        registry.append_decision(frame_index, forced_b, previous)
    assert events_out.getvalue().splitlines()[1:] == [
        "0,decision,forced,,a,b,",
        "1,decision,forced,,b,b,",
        "2,decision,forced,,a,b,",
    ]


def test_export_uses_lf_line_endings(tmp_path) -> None:
    with _registry(tmp_path) as registry:
        _append_metrics(registry, 0, 0.0)
    for path in (tmp_path / METRICS_FILENAME, tmp_path / EVENTS_FILENAME):
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


def test_export_round_trips_metrics(tmp_path) -> None:
    with _registry(tmp_path) as registry:
        _append_metrics(registry, 0, 0.0)
        _append_metrics(registry, 1, 16.6667)

    rows = load_metrics_csv(tmp_path / METRICS_FILENAME)
    assert len(rows) == 2
    sim_time, parsed = rows[1]
    assert sim_time == pytest.approx(16.6667)
    assert parsed.frame_index == 1
    assert parsed.model == "a"
    # Reals come back at the file's 4-decimal precision.
    assert parsed.confidence_score == pytest.approx(0.5123, abs=5e-5)
    assert parsed.cpu_usage == pytest.approx(17.25, abs=5e-5)


def test_load_events_csv_round_trip(tmp_path) -> None:
    with _registry(tmp_path) as registry:
        registry.append_decision(0, _decision(), "a")
        registry.append_switch(0, "a", "b", 312.5)
    rows = load_events_csv(tmp_path / EVENTS_FILENAME)
    assert [r["event_type"] for r in rows] == ["decision", "switch"]
    assert rows[0]["mode"] == "explore"
    assert rows[0]["random_draw"] == "0.0421"
    assert rows[1]["switch_time_ms"] == "312.5000"
    assert rows[1]["mode"] == ""


def test_io_errors_carry_the_path(tmp_path) -> None:
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    config = tmp_path / "short.ini"
    config.write_text(
        "[trace]\nduration_s = 1\n[segment.1]\nstart_s = 0\nmean_objects = 3\ncomplexity = 0.1\n",
        encoding="utf-8",
    )
    with pytest.raises(IoFailure) as excinfo:
        run_experiment("naive", blocker, config_path=str(config))
    assert excinfo.value.path == blocker


def test_read_lines_names_the_file_it_cannot_read_or_decode(tmp_path) -> None:
    missing = tmp_path / "missing.csv"
    with pytest.raises(IoFailure) as excinfo:
        read_lines(missing)
    assert excinfo.value.path == missing

    bad = tmp_path / "bad.csv"
    bad.write_bytes(METRICS_HEADER.encode("utf-8") + b"\n\xff\n")
    with pytest.raises(IoFailure) as excinfo:
        read_lines(bad)
    assert excinfo.value.path == bad
    assert str(excinfo.value).startswith(f"{bad}: 'utf-8' codec can't decode byte 0xff")


def _nudge(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else -math.inf)
    return x


def _four_decimals(x: float) -> str:
    """x's exact binary value rounded half to even at 4 decimals."""
    return str(Decimal(x).quantize(Decimal("0.0001"), rounding=ROUND_HALF_EVEN))


# Reals within an ulp of a 4-decimal rounding midpoint k/10^4 + 5e-5, where a
# layout that rounded the printed decimal rather than the binary value would differ.
_MIDPOINTS = [
    _nudge(k / 10_000 + 0.00005, ulps) for k in (0, 1, 2, 12_345, -3, 10**8) for ulps in (-1, 0, 1)
]


@pytest.mark.parametrize("x", _MIDPOINTS)
def test_rows_round_reals_at_four_decimals(x) -> None:
    """Every real column rounds the binary value at 4 decimals, half to even."""
    metrics_out, events_out = StringIO(), StringIO()
    registry = LogRegistry(metrics_out, events_out)
    registry.append_decision(0, _decision()._replace(random_draw=x), "a")
    registry.append_switch(0, "a", "b", x)
    registry.append_metrics(0, x, "b", x, x, 3, x)
    r = _four_decimals(x)
    assert metrics_out.getvalue().splitlines()[1] == f"0,{r},b,{r},{r},3,{r},"
    assert events_out.getvalue().splitlines()[1:] == [
        f"0,decision,explore,{r},a,b,",
        f"0,switch,,,a,b,{r}",
    ]


@pytest.mark.parametrize(
    "x, text",
    [(-0.0, "-0.0000"), (40, "40.0000"), (1e22, "10000000000000000000000.0000"),
     (math.inf, "inf"), (math.nan, "nan")],
)
def test_rows_write_signed_zero_integers_and_non_finite_reals(x, text) -> None:
    metrics_out = StringIO()
    LogRegistry(metrics_out, StringIO()).append_metrics(7, x, "odd%id", x, x, 0, x)
    assert metrics_out.getvalue().splitlines()[1] == f"7,{text},odd%id,{text},{text},0,{text},"
