"""The benchmark's workloads, the operation each one times, and the output check.

An operation is one fixed-size batch job: load the workload config, then for
each strategy run ``modelswitch.cli.run_experiment`` (trace, loop, CSV export,
summary.txt), and for ``paper-compare`` also the ``compare`` report. Every
operation of a workload at one seed does the same work.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from modelswitch import cli, sim  # noqa: E402  (needs the path above)

DEFAULT_SEED = 12345
# Smoke mode divides every trace by this, so a whole operation takes well
# under a second while every layer is still exercised.
SMOKE_DIVISOR = 30
COMPARE_FILENAME = "compare.txt"
RUN_FILES = ("metrics.csv", "events.csv", "summary.txt")
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class Workload:
    name: str
    strategies: tuple[str, ...]
    # Trace length as a multiple of the default 1,800 s; segments stretch with it.
    scale: int = 1
    # Strategy sections written into the workload config, e.g. {"naive": {...}}.
    sections: dict[str, dict[str, str]] = field(default_factory=dict)
    compare: bool = False


# Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # The paper's experiment, as in the README quick start.
        Workload(
            name="paper-compare",
            strategies=("epsilon-greedy", "naive", "round-robin-boost"),
            compare=True,
        ),
        # Thresholds that never fire: no switches, every frame processed.
        Workload(
            name="static-dense",
            strategies=("naive",),
            sections={"naive": {"cpu_high_threshold": "100", "confidence_low_threshold": "0"}},
        ),
        # A 10x trace, where memory and GC dominate.
        Workload(name="long-trace", strategies=("epsilon-greedy",), scale=10),
    )
}


def write_config(workload: Workload, directory: Path, smoke: bool) -> str | None:
    """Write the workload's INI config into directory; None when the defaults apply.

    ``paper-compare`` runs without a config, as in the README quick start.
    """
    divisor = SMOKE_DIVISOR if smoke else 1
    if workload.scale == 1 and not workload.sections and divisor == 1:
        return None

    def stretch(seconds: float) -> float:
        return seconds * workload.scale / divisor

    lines = ["[trace]", f"duration_s = {stretch(sim.DEFAULT_DURATION_S)!r}", ""]
    for i, seg in enumerate(sim.default_segments(), start=1):
        lines += [
            f"[segment.{i}]",
            f"start_s = {stretch(seg.start_s)!r}",
            f"mean_objects = {seg.mean_objects!r}",
            f"complexity = {seg.complexity!r}",
            "",
        ]
    for section, values in workload.sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
        lines.append("")
    path = directory / f"{workload.name}.ini"
    path.write_text("\n".join(lines), encoding="utf-8")
    return str(path)


def run_operation(workload: Workload, config: str | None, out_dir: Path, seed: int) -> list:
    """One timed operation; returns the RunSummary of each strategy run.

    ``cli`` attributes are looked up at call time, so a traced run goes
    through the installed wrappers.
    """
    summaries = [
        cli.run_experiment(strategy, out_dir / strategy, config_path=config, seed=seed)
        for strategy in workload.strategies
    ]
    if workload.compare:
        report = cli.compare([out_dir / strategy for strategy in workload.strategies])
        (out_dir / COMPARE_FILENAME).write_text(report + "\n", encoding="utf-8")
    return summaries


def timed_operation(workload: Workload, config: str | None, out_dir: Path, seed: int):
    """Host seconds of one operation, and its summaries (None when it raised).

    A failed operation is reported on stderr and timed like any other; its
    outputs then fail check_operation.
    """
    start = time.perf_counter()
    try:
        summaries = run_operation(workload, config, out_dir, seed)
    except Exception:
        traceback.print_exc()
        summaries = None
    return time.perf_counter() - start, summaries


def output_files(workload: Workload) -> list[str]:
    """Paths, relative to an operation's directory, of every file it writes."""
    files = [f"{s}/{f}" for s in workload.strategies for f in RUN_FILES]
    return files + [COMPARE_FILENAME] if workload.compare else files


def digest_outputs(workload: Workload, out_dir: Path) -> dict[str, str]:
    return {
        rel: hashlib.sha256((out_dir / rel).read_bytes()).hexdigest()
        for rel in output_files(workload)
    }


def _read_summary(path: Path) -> dict[str, str]:
    pairs = (line.partition("=") for line in path.read_text(encoding="utf-8").splitlines())
    return {key: value for key, _, value in pairs}


def check_run(run_dir: Path) -> tuple[list[str], dict[str, str]]:
    """Invariants one run directory must satisfy at any seed; returns (problems, summary)."""
    summary = _read_summary(run_dir / "summary.txt")
    total = int(summary["frames_total"])
    processed = int(summary["frames_processed"])
    dropped = int(summary["frames_dropped"])
    metrics_rows = (run_dir / "metrics.csv").read_text(encoding="utf-8").splitlines()[1:]
    event_rows = (run_dir / "events.csv").read_text(encoding="utf-8").splitlines()[1:]
    usage = [int(v) for k, v in summary.items() if k.startswith("usage_count.")]
    clock = [float(row.split(",", 2)[1]) for row in metrics_rows]
    switch_rows = sum(1 for row in event_rows if row.split(",", 2)[1] == "switch")
    problems = []
    if processed + dropped != total:
        problems.append(f"processed {processed} + dropped {dropped} != total {total}")
    if len(metrics_rows) != processed:
        problems.append(f"{len(metrics_rows)} metrics rows != frames_processed {processed}")
    if switch_rows != int(summary["switch_count"]):
        problems.append(f"{switch_rows} switch rows != switch_count {summary['switch_count']}")
    if sum(usage) != processed:
        problems.append(f"usage counts sum to {sum(usage)}, not frames_processed {processed}")
    if any(later < earlier for earlier, later in zip(clock, clock[1:])):
        problems.append("sim_time_ms decreases in metrics.csv")
    return [f"{run_dir.name}: {p}" for p in problems], summary


def check_operation(workload: Workload, out_dir: Path, seed: int, smoke: bool) -> list[str]:
    """Every problem with one operation's outputs; empty when they are correct.

    Besides the per-run invariants this checks that the workload still
    exercises what it was chosen for and, at the default seed and full size,
    that every output file matches its pinned SHA-256 digest. Raises
    OSError, KeyError or ValueError when an output is missing or malformed.
    """
    base_frames = sim.TraceConfig().total_frames // (SMOKE_DIVISOR if smoke else 1)
    problems: list[str] = []
    summaries = []
    for strategy in workload.strategies:
        run_problems, summary = check_run(out_dir / strategy)
        problems += run_problems
        summaries.append(summary)
    totals = [int(s["frames_total"]) for s in summaries]
    drop_ratios = [int(s["frames_dropped"]) / int(s["frames_total"]) for s in summaries]
    if workload.name == "static-dense":
        if any(s["switch_count"] != "0" for s in summaries) or any(drop_ratios):
            problems.append("static-dense switched or dropped frames")
    elif workload.name == "paper-compare":
        models = {k for k in summaries[0] if k.startswith("usage_count.")}
        used = {k for s in summaries for k in models if s[k] != "0"}
        if used != models:
            problems.append(f"paper-compare left models unused: {sorted(models - used)}")
        if min(drop_ratios) <= 0.5:
            problems.append(f"paper-compare drop ratios {drop_ratios} not all above 0.5")
    elif workload.name == "long-trace":
        if totals != [10 * base_frames]:
            problems.append(f"long-trace has {totals} frames, not 10 x {base_frames}")
    if seed == DEFAULT_SEED and not smoke:
        pinned = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))[workload.name]
        actual = digest_outputs(workload, out_dir)
        problems += [
            f"{rel}: digest differs from the pinned one"
            for rel in sorted(set(actual) | set(pinned))
            if actual.get(rel) != pinned.get(rel)
        ]
    return problems
