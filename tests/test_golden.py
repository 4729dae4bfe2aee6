"""Byte identity of whole runs against digests pinned from a known-good build.

Each case runs one strategy at seed 12345 on a 120 s trace whose three
default segments are scaled to fit (7,200 frames), and compares the SHA-256
of metrics.csv, events.csv and summary.txt with the pinned values. A change
that is meant to keep behaviour (a refactor or an optimisation) must leave
every digest as it is; a change that moves one changes the simulation.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from modelswitch.cli import run_experiment
from modelswitch.sim import DEFAULT_DURATION_S, DEFAULT_SEED, default_segments

DURATION_S = 120.0

# The naive thresholds that never fire: no switches, every frame processed.
STATIC_NAIVE = "[naive]\ncpu_high_threshold = 100\nconfidence_low_threshold = 0\n"

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
}


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
