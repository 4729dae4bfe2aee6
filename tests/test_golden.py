"""Byte identity of whole runs against digests pinned from a known-good build.

Each case runs one strategy at seed 12345 on a 120 s trace whose three
default segments are scaled to fit (7,200 frames), and compares the SHA-256
of metrics.csv, events.csv and summary.txt with the pinned values. The
``compare`` report over the three default-strategy runs is pinned the same way. A change
that is meant to keep behaviour (a refactor or an optimisation) must leave
every digest as it is; a change that moves one changes the simulation.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from modelswitch.cli import STRATEGY_NAMES, compare, run_experiment
from modelswitch.sim import DEFAULT_DURATION_S, DEFAULT_SEED, default_segments

DURATION_S = 120.0

# The naive thresholds that never fire: no switches, every frame processed.
STATIC_NAIVE = "[naive]\ncpu_high_threshold = 100\nconfidence_low_threshold = 0\n"

# Round-robin with slices and boost periods shorter than a switch (300-1000 ms
# is 18-60 frames at 60 fps), so a switch swallows whole boost slots.
SHORT_SLOTS = "[round-robin-boost]\ntime_slice_frames = 7\nboost_period_frames = 20\n"

# Epsilon-greedy exploring half the time, deciding every third processed frame.
HALF_EXPLORE = "[epsilon-greedy]\nepsilon = 0.5\ndecision_period = 3\n"

# A one-frame window: every window mean is the latest frame itself. Naive reads
# only the latest frame, so its bytes match the default naive run's.
ONE_FRAME_WINDOW = "[engine]\nwindow_capacity = 1\n"


def _model(name: str, base_cpu: float, recall: float, latency_ms: float) -> str:
    return (
        f"[model.{name}]\nbase_cpu_pct = {base_cpu!r}\ncpu_per_object_pct = 0.3\n"
        "base_confidence = 0.6\nconfidence_noise_sd = 0.05\n"
        f"detection_recall = {recall!r}\nswitch_latency_ms = {latency_ms!r}\n"
        "inference_time_ms = 40\n\n"
    )


# A model that detects nothing: every frame it processes has confidence 0, so
# its score is the zero-confidence sentinel.
BLIND_MODEL = _model("blind", 12.0, 0.0, 300.0) + _model("sighted", 16.0, 0.9, 500.0)

# case id -> (strategy, extra config text, {file: sha256})
GOLDEN = {
    "epsilon-greedy": (
        "epsilon-greedy",
        "",
        {
            "metrics.csv": "6e5c8be897460a2c8c40f946e58ea219b6e7ef48e23afafdd482147cc2d63024",
            "events.csv": "e49f6df96db1f08b1c1cf87a98bbd5d6f004d00b4a284fc95a748aeb6763d024",
            "summary.txt": "68ca03c7bea56f766777949ef33d5d865d3373dffa17cf06d4d2721d6a814615",
        },
    ),
    "naive": (
        "naive",
        "",
        {
            "metrics.csv": "7f059e6c33eaf9eb54fad691acab1287a32c8c9d711c4fdbff94305a5c0087cd",
            "events.csv": "a7535c85e01561ccc5d1f85ce437167fa647191394a6a73a10192df5f0b05f5a",
            "summary.txt": "c86958625eb4f5c757447f47207bed0ffc883a7028b440ba8aaab34577562ae0",
        },
    ),
    "round-robin-boost": (
        "round-robin-boost",
        "",
        {
            "metrics.csv": "b3b5aeaa817e495312f4b4e3639ae1faa2907107cc2b778bcd9e5f91d94ec5fc",
            "events.csv": "c336c7955892a173af9a2304f59221155b08954254fd746077f19e6df6bffed7",
            "summary.txt": "52be1384845df2dceb59ab77b1eed5437cade72c41e3d916543330e0c8d554ca",
        },
    ),
    "naive-static": (
        "naive",
        STATIC_NAIVE,
        {
            "metrics.csv": "e3fa8e574371ee911a3817871c6c1b3ea008c488ff64a540a3c2aee210724f36",
            "events.csv": "7763ed5babe2b3927349e4e38e7aa0096e74c931e54eea960b74573920340bd3",
            "summary.txt": "9db56c39fedfa92cc5c4db786449d33052d7fee849b799188cafc2eee574202a",
        },
    ),
    "round-robin-short-slots": (
        "round-robin-boost",
        SHORT_SLOTS,
        {
            "metrics.csv": "28283125a98f9ca950151abb5f4fce3a41d656ce17247cb3cb51217bce9323d2",
            "events.csv": "cea2be0a6829e73383789564a9b57cdfd89b3bc34a4339c57c566fae4cba1883",
            "summary.txt": "56c8e01e6be4ed89cf150597013c649b9dc7516663b866c9368dd9730a6825ae",
        },
    ),
    "epsilon-greedy-half-explore": (
        "epsilon-greedy",
        HALF_EXPLORE,
        {
            "metrics.csv": "556e8810ea77281fa6f1497312413e6910b6c7c47222b1b15ce6b35b8850bc2e",
            "events.csv": "5fdff1131665741bee7e83d6e25a78e881ef15a7c1b76d7032392f3d2d65d64f",
            "summary.txt": "4899c4bcf07fc75cf4101b54b378cfb5329989a8bd761834b67e309b79f6fc63",
        },
    ),
    "naive-one-frame-window": (
        "naive",
        ONE_FRAME_WINDOW,
        {
            "metrics.csv": "7f059e6c33eaf9eb54fad691acab1287a32c8c9d711c4fdbff94305a5c0087cd",
            "events.csv": "a7535c85e01561ccc5d1f85ce437167fa647191394a6a73a10192df5f0b05f5a",
            "summary.txt": "c86958625eb4f5c757447f47207bed0ffc883a7028b440ba8aaab34577562ae0",
        },
    ),
    "epsilon-greedy-blind-model": (
        "epsilon-greedy",
        BLIND_MODEL,
        {
            "metrics.csv": "53207059dd14a18d97bd1c6edcc79593a15f091e505841a94363b4ba599b964d",
            "events.csv": "1475d32a7cc11d921c099bcd73bc0650067aa69f933ccd2b633a7621b8a55aa2",
            "summary.txt": "4dc9da0821f7ce01b482c8bb0c8680db079714a8e71b8299c0ff4ac91aea9b49",
        },
    ),
}


# SHA-256 of the compare report (as compare returns it, UTF-8) over the
# "epsilon-greedy", "naive" and "round-robin-boost" cases above.
COMPARE_DIGEST = "ee3b00ed0b50a07e1672bd1c4edc717f14a353d7303a8bff21a7c93b9387b01a"


def _short_trace_config(extra: str) -> str:
    scale = DURATION_S / DEFAULT_DURATION_S
    lines = ["[trace]", f"duration_s = {DURATION_S!r}", ""]
    for i, seg in enumerate(default_segments(), start=1):
        lines += [
            f"[segment.{i}]",
            f"start_s = {seg.start_s * scale!r}",
            f"mean_objects = {seg.mean_objects!r}",
            f"complexity = {seg.complexity!r}",
            "",
        ]
    return "\n".join(lines) + extra


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_short_run_outputs_match_pinned_digests(case: str, tmp_path: Path) -> None:
    strategy, extra, pinned = GOLDEN[case]
    config = tmp_path / "short.ini"
    config.write_text(_short_trace_config(extra), encoding="utf-8")
    out = tmp_path / "run"
    run_experiment(strategy, out, config_path=str(config), seed=DEFAULT_SEED)
    actual = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pinned}
    assert actual == pinned


def test_compare_over_the_default_runs_matches_its_pinned_digest(tmp_path: Path) -> None:
    config = tmp_path / "short.ini"
    config.write_text(_short_trace_config(""), encoding="utf-8")
    run_dirs = [tmp_path / strategy for strategy in STRATEGY_NAMES]
    for strategy, out in zip(STRATEGY_NAMES, run_dirs):
        run_experiment(strategy, out, config_path=str(config), seed=DEFAULT_SEED)
    report = compare(run_dirs)
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == COMPARE_DIGEST
