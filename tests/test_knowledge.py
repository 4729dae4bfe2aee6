from __future__ import annotations

import math
from contextlib import contextmanager
from io import StringIO
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelswitch.cli import run_experiment
from modelswitch.domain import SelectionDecision, SelectionMode, SwitchEvent
from modelswitch.knowledge import (
    EVENTS_FILENAME,
    EVENTS_HEADER,
    METRICS_FILENAME,
    METRICS_HEADER,
    IoFailure,
    LogRegistry,
    ModelRepository,
    UnknownModel,
    load_events_csv,
    load_metrics_csv,
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


def _decision(selected: str = "b", previous: str = "a") -> SelectionDecision:
    return SelectionDecision(
        selected=selected, mode=SelectionMode.EXPLORE, random_draw=0.0421, previous=previous
    )


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
    with pytest.raises(UnknownModel):
        repo.get("z")


def test_repository_rejects_duplicates_and_unknowns() -> None:
    repo = ModelRepository((_profile("a"),))
    with pytest.raises(ValueError):
        repo.register(_profile("a"))
    with pytest.raises(UnknownModel):
        repo.get("ghost")


def test_registry_rejects_backwards_frame_indices() -> None:
    registry = LogRegistry(StringIO(), StringIO())
    _append_metrics(registry, 5, 0.0)
    with pytest.raises(ValueError):
        _append_metrics(registry, 4, 1.0)
    # The same frame index is fine: a decision and its metrics share one.
    registry.append_decision(5, _decision())
    registry.append_switch(
        SwitchEvent(frame_index=5, from_model="a", to_model="b", switch_time_ms=310.0)
    )


def test_registry_folds_the_summary_totals() -> None:
    registry = LogRegistry(StringIO(), StringIO())
    registry.append_decision(0, _decision())
    _append_metrics(registry, 0, 0.0, model="b")
    registry.append_decision(1, _decision()._replace(mode=SelectionMode.EXPLOIT))
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
    registry.append_decision(0, _decision())
    registry.append_switch(
        SwitchEvent(frame_index=0, from_model="a", to_model="b", switch_time_ms=312.5)
    )
    _append_metrics(registry, 0, 312.5, model="b")

    metrics_lines = metrics_out.getvalue().splitlines()
    events_lines = events_out.getvalue().splitlines()

    assert metrics_lines[0] == METRICS_HEADER
    assert metrics_lines[1] == "0,312.5000,b,17.2500,0.5123,3,40.0000,"
    assert events_lines[0] == EVENTS_HEADER
    assert events_lines[1] == "0,decision,explore,0.0421,a,b,"
    assert events_lines[2] == "0,switch,,,a,b,312.5000"


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
        registry.append_decision(0, _decision())
        registry.append_switch(
            SwitchEvent(frame_index=0, from_model="a", to_model="b", switch_time_ms=312.5)
        )
    rows = load_events_csv(tmp_path / EVENTS_FILENAME)
    assert [r["event_type"] for r in rows] == ["decision", "switch"]
    assert rows[0]["mode"] == "explore"
    assert rows[0]["random_draw"] == "0.0421"
    assert rows[1]["switch_time_ms"] == "312.5000"
    assert rows[1]["mode"] == ""


def test_loaders_reject_foreign_files(tmp_path) -> None:
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,nope\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_metrics_csv(bad)
    with pytest.raises(ValueError):
        load_events_csv(bad)

    truncated = tmp_path / "truncated.csv"
    truncated.write_text(METRICS_HEADER + "\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_metrics_csv(truncated)


def test_io_errors_carry_the_path(tmp_path) -> None:
    missing = tmp_path / "missing.csv"
    with pytest.raises(IoFailure) as excinfo:
        load_metrics_csv(missing)
    assert excinfo.value.path == missing

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


def _reference_metrics_row(
    frame_index, sim_time_ms, model, cpu_usage, confidence_score, detection_count, inference_ms
) -> str:
    """A metrics row as a per-row f-string writes it."""
    return (
        f"{frame_index},{sim_time_ms:.4f},{model},{cpu_usage:.4f},{confidence_score:.4f},"
        f"{detection_count},{inference_ms:.4f},\n"
    )


def _reference_decision_row(frame_index: int, decision: SelectionDecision) -> str:
    """A decision row as a per-row f-string writes it."""
    draw = "" if decision.random_draw is None else f"{decision.random_draw:.4f}"
    return (
        f"{frame_index},decision,{decision.mode.value},{draw},"
        f"{decision.previous},{decision.selected},\n"
    )


def _reference_switch_row(event: SwitchEvent) -> str:
    """A switch row as a per-row f-string writes it."""
    return (
        f"{event.frame_index},switch,,,{event.from_model},{event.to_model},"
        f"{event.switch_time_ms:.4f}\n"
    )


def _nudge(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else -math.inf)
    return x


# Reals anywhere, and reals within a few ulps of a .4f rounding midpoint k/10^4 + 5e-5.
_reals = st.one_of(
    st.floats(),
    st.builds(
        lambda k, ulps: _nudge(k / 10_000 + 0.00005, ulps),
        st.integers(-(10**8), 10**8),
        st.integers(-3, 3),
    ),
)


_model_ids = st.one_of(
    st.sampled_from(["a", "odd%id", "100%%", "%d%s", "%(k)s", "{x}", "{0:.4f}", "modèle-ü", "模型"]),
    st.text(min_size=1, max_size=6),
)


@st.composite
def _log_rows(draw) -> list[tuple]:
    """Metrics, decision and switch rows in frame order, over a few models that repeat,
    so a kept draw-less decision is both built and reused."""
    models = draw(st.lists(_model_ids, min_size=1, max_size=3))
    inference_ms = draw(
        st.lists(st.one_of(st.sampled_from([0.0, -0.0, 40.0, 40]), _reals), min_size=1, max_size=3)
    )
    frame_index = draw(st.integers(0, 10**9))
    rows = []
    for _ in range(draw(st.integers(1, 25))):
        frame_index += draw(st.integers(0, 3))
        kind = draw(st.sampled_from(["metrics", "decision", "switch"]))
        if kind == "metrics":
            rows.append(
                (
                    "metrics",
                    frame_index,
                    draw(_reals),
                    draw(st.sampled_from(models)),
                    draw(_reals),
                    draw(_reals),
                    draw(st.integers(0, 10**6)),
                    draw(st.sampled_from(inference_ms)),
                )
            )
        elif kind == "decision":
            decision = SelectionDecision(
                draw(st.sampled_from(models)),
                draw(st.sampled_from(SelectionMode)),
                draw(st.one_of(st.none(), _reals)),
                draw(st.sampled_from(models)),
            )
            rows.append(("decision", frame_index, decision))
        else:
            event = SwitchEvent(
                frame_index,
                draw(st.sampled_from(models)),
                draw(st.sampled_from(models)),
                draw(_reals),
            )
            rows.append(("switch", event))
    return rows


@settings(max_examples=150, deadline=None)
@given(rows=_log_rows())
def test_rows_match_the_f_string_formatting(rows) -> None:
    """Both CSV streams equal, byte for byte, what per-row f-strings write."""
    metrics_out, events_out = StringIO(), StringIO()
    registry = LogRegistry(metrics_out, events_out)
    metrics_expected = [METRICS_HEADER + "\n"]
    events_expected = [EVENTS_HEADER + "\n"]
    for kind, *args in rows:
        if kind == "metrics":
            registry.append_metrics(*args)
            metrics_expected.append(_reference_metrics_row(*args))
        elif kind == "decision":
            registry.append_decision(*args)
            events_expected.append(_reference_decision_row(*args))
        else:
            registry.append_switch(*args)
            events_expected.append(_reference_switch_row(*args))
    assert metrics_out.getvalue() == "".join(metrics_expected)
    assert events_out.getvalue() == "".join(events_expected)
