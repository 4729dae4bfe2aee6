"""The run log streams: memory stays flat in trace length, and the written files agree with the summary."""

from __future__ import annotations

import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from runfiles import load_events_csv, load_metrics_csv

from modelswitch.cli import STRATEGY_NAMES, SUMMARY_FILENAME, read_summary, run_experiment
from modelswitch.knowledge import EVENTS_FILENAME, METRICS_FILENAME

# Naive thresholds that never fire: no switch, so every frame is processed and logged.
NEVER_SWITCH = """\
[naive]
cpu_high_threshold = 100
confidence_low_threshold = 0
"""


def _one_segment_config(directory: Path, duration_s: int) -> str:
    path = directory / f"flat-{duration_s}.ini"
    path.write_text(
        f"[trace]\nduration_s = {duration_s}\n\n"
        "[segment.1]\nstart_s = 0\nmean_objects = 3\ncomplexity = 0.1\n\n" + NEVER_SWITCH,
        encoding="utf-8",
    )
    return str(path)


def _traced_peak(config: str, out_dir: Path) -> tuple[int, int]:
    """(peak traced bytes, frames processed) of one naive run."""
    tracemalloc.start()
    try:
        summary = run_experiment("naive", out_dir, config_path=config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, summary.frames_processed


def test_peak_memory_is_flat_in_trace_length(tmp_path) -> None:
    # A first run takes the one-time allocations (caches, lazy imports) out of the comparison.
    run_experiment("naive", tmp_path / "warm-up", config_path=_one_segment_config(tmp_path, 5))
    short_peak, short_frames = _traced_peak(_one_segment_config(tmp_path, 60), tmp_path / "short")
    long_peak, long_frames = _traced_peak(_one_segment_config(tmp_path, 240), tmp_path / "long")
    assert (short_frames, long_frames) == (3600, 14400)
    # The trace keeps only its schedule and draws each count as it is read, so nothing is kept
    # per frame; a per-row record would add hundreds of bytes.
    per_frame = (long_peak - short_peak) / (long_frames - short_frames)
    assert per_frame < 16, f"peak grows by {per_frame:.1f} bytes per processed frame"


def _write_config(directory: Path, fps: int, duration_s: int, calm, rush, profiles) -> str:
    lines = [f"[trace]\nfps = {fps}\nduration_s = {duration_s}\n"]
    for i, (start_s, (mean_objects, complexity)) in enumerate(
        ((0, calm), (duration_s / 2, rush)), start=1
    ):
        lines.append(
            f"[segment.{i}]\nstart_s = {start_s!r}\nmean_objects = {mean_objects!r}\n"
            f"complexity = {complexity!r}\n"
        )
    for i, (base_cpu, recall, noise_sd, latency_ms, inference_ms) in enumerate(profiles):
        lines.append(
            f"[model.m{i}]\nbase_cpu_pct = {base_cpu!r}\ncpu_per_object_pct = 0.3\n"
            f"base_confidence = 0.6\nconfidence_noise_sd = {noise_sd!r}\n"
            f"detection_recall = {recall!r}\nswitch_latency_ms = {latency_ms!r}\n"
            f"inference_time_ms = {inference_ms!r}\n"
        )
    path = directory / "run.ini"
    path.write_text("\n".join(lines), encoding="utf-8")
    return str(path)


_segments = st.tuples(st.floats(0.0, 15.0), st.floats(0.0, 1.0))

# One to four models: (base CPU %, recall, confidence noise sd, switch latency
# ms, inference time ms). Recall 0 is drawn often: such a model scores the
# zero-confidence sentinel on every frame it processes.
_profiles = st.lists(
    st.tuples(
        st.floats(0.0, 100.0),
        st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        st.floats(0.0, 0.5),
        st.floats(0.0, 2000.0),
        st.floats(1.0, 100.0),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(
    strategy=st.sampled_from(STRATEGY_NAMES),
    seed=st.integers(0, 2**31 - 1),
    fps=st.integers(1, 30),
    duration_s=st.integers(2, 90),
    calm=_segments,
    rush=_segments,
    profiles=_profiles,
)
def test_written_run_agrees_with_its_summary(
    strategy, seed, fps, duration_s, calm, rush, profiles
) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        config = _write_config(directory, fps, duration_s, calm, rush, profiles)
        returned = run_experiment(strategy, directory / "run", config_path=config, seed=seed)
        summary = read_summary(directory / "run" / SUMMARY_FILENAME)
        metrics_rows = load_metrics_csv(directory / "run" / METRICS_FILENAME)
        event_rows = load_events_csv(directory / "run" / EVENTS_FILENAME)

    total = summary.frames_total
    processed = summary.frames_processed
    assert total == returned.frames_total == fps * duration_s
    assert processed + summary.frames_dropped == total
    assert len(metrics_rows) == processed
    usage = summary.usage_counts
    assert list(usage) == list(summary.usage_shares) == [f"m{i}" for i in range(len(profiles))]
    assert sum(usage.values()) == processed
    assert Counter(metrics.model for _, metrics in metrics_rows) == +Counter(usage)
    blind = {f"m{i}" for i, profile in enumerate(profiles) if profile[1] == 0.0}
    assert all(
        m.detection_count == 0 and m.confidence_score == 0.0
        for _, m in metrics_rows
        if m.model in blind
    )

    decisions = [row for row in event_rows if row["event_type"] == "decision"]
    assert len(decisions) == summary.decision_count
    assert sum(row["mode"] == "explore" for row in decisions) == summary.explore_count
    switches = [row for row in event_rows if row["event_type"] == "switch"]
    assert len(switches) == summary.switch_count

    clock = [sim_time_ms for sim_time_ms, _ in metrics_rows]
    assert all(earlier <= later for earlier, later in zip(clock, clock[1:]))

    # The averages the summary folded online are those of the rows written, up to
    # the 4 decimals a row keeps and the 6 the summary keeps.
    assert summary.avg_cpu_pct == pytest.approx(
        sum(m.cpu_usage for _, m in metrics_rows) / processed, abs=6e-5
    )
    assert summary.avg_confidence_pct == pytest.approx(
        100.0 * sum(m.confidence_score for _, m in metrics_rows) / processed, abs=6e-3
    )
    # So are the switch totals of the switch rows: a row keeps 4 decimals of
    # milliseconds (5e-8 s of error each) and the summary 6 decimals of seconds.
    switch_ms = [float(row["switch_time_ms"]) for row in switches]
    count = len(switch_ms)
    assert summary.cumulative_switch_time_s == pytest.approx(
        sum(switch_ms) / 1000.0, abs=5e-8 * count + 6e-7
    )
    assert summary.avg_switch_time_s == pytest.approx(
        sum(switch_ms) / count / 1000.0 if count else 0.0, abs=5e-8 + 6e-7
    )
