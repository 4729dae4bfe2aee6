"""Benchmark of the modelswitch simulator: host time, set-up time and memory per workload.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Each workload is a fixed-size batch job (see workloads.py). For one workload,
or for every workload when --workload is left out, it reports:

    setup_s      median over SETUP_PROBES cold child processes of the time
                 from starting the child to the last step before trace
                 generation (imports, config, repository, strategies)
    run_s        median time of one operation, over the operations a fresh
                 child process runs back to back for --seconds seconds
    peak_rss_mb  peak resident memory of that child after its first operation
    error_rate   operations whose outputs failed the check / operations run

setup_s and run_s are host times scaled to a reference speed of the machine,
measured right before and after each timed interval (see speed.py); the
report also prints the unscaled host times.

With --trace 1 it then runs one more operation in this process with every
layer wrapped (see tracing.py), and reports the per-layer metrics instead of
the end-to-end ones. --smoke shrinks every trace 30-fold so that a whole run takes seconds.

Human-readable lines come first; the last line printed for a workload is one
JSON object: {"correct", "attempted", "failed", "metrics"}. All times are
host wall-clock time, never simulated time. Outputs go to
.bench_build/perfbench/ in the checkout and are removed afterwards, except the
traced run's spans file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
try:
    import workloads
except ImportError as exc:  # the checkout holds no src/modelswitch
    sys.exit(f"perfbench: cannot import modelswitch from {ROOT / 'src'}: {exc}")

WORK_ROOT = ROOT / ".bench_build" / "perfbench"
PROBE = Path(__file__).resolve().parent / "probe.py"
SETUP_PROBES = 16
# Chunks of speed.py's loop around each set-up probe and the traced operation.
SETUP_CHUNKS = 10
# Beyond --seconds, which the measuring child spends on operations.
CHILD_TIMEOUT_S = 120


def unit_of(metric: str) -> str:
    """The unit of a metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MiB"
    if metric.endswith("us_per_call"):
        return "us"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


def _child(*args: str, seconds: float = 0.0) -> str:
    """Run a probe child to completion and return the last line it printed."""
    done = subprocess.run(
        [sys.executable, str(PROBE), *args],
        capture_output=True, text=True, timeout=seconds + CHILD_TIMEOUT_S,
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"probe {args[0]} exited {done.returncode}")
    return done.stdout.strip().splitlines()[-1]


def _scale(host_times: list[float], chunks: list[float]) -> list[float]:
    """Scale each time by the chunk times measured right before and after it."""
    return [speed.scaled(t, *around) for t, around in zip(host_times, zip(chunks, chunks[1:]))]


def _check(workload, out_dir: Path, seed: int, smoke: bool) -> bool:
    try:
        problems = workloads.check_operation(workload, out_dir, seed, smoke)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    for problem in problems:
        print(f"check failed: {workload.name} {out_dir.name}: {problem}", file=sys.stderr)
    return not problems


def bench(workload, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        config = workloads.write_config(workload, work, smoke)
        cfg_arg = config or "-"

        def time_setup(probes: int) -> tuple[list[float], list[float]]:
            """Host and scaled set-up times of this many probes."""
            host, chunks = [], [speed.chunk_seconds(SETUP_CHUNKS)]
            for _ in range(probes):
                start = time.clock_gettime(time.CLOCK_MONOTONIC)
                host.append(float(_child("setup", cfg_arg, str(seed), *workload.strategies))
                            - start)
                chunks.append(speed.chunk_seconds(SETUP_CHUNKS))
            return host, _scale(host, chunks)

        # Half the set-up probes run before the timed operations and half
        # after, so that one slow spell of the machine does not set them all.
        setup_host, setup = time_setup(SETUP_PROBES // 2)
        ops = work / "ops"
        measured = json.loads(
            _child("measure", workload.name, cfg_arg, str(seed), str(ops), str(seconds),
                   seconds=seconds)
        )
        more_host, more = time_setup(SETUP_PROBES - len(setup))
        setup_host += more_host
        setup += more
        times, chunks = measured["times"], measured["chunks"]
        outputs = [ops / f"op{i}" for i in range(len(times))]
        scaled_times = _scale(times, chunks)
        run_s = statistics.median(scaled_times)

        end_to_end = {"setup_s": statistics.median(setup), "run_s": run_s,
                      "peak_rss_mb": measured["peak_rss_kib"] / 1024}
        layers = None
        if trace:
            tracer = tracing.Tracer()
            outputs.append(work / "traced")
            chunk_before = speed.chunk_seconds(SETUP_CHUNKS)
            tracer.install()
            try:
                traced_s, summaries = workloads.timed_operation(workload, config, outputs[-1], seed)
            finally:
                tracer.restore()
            chunk_after = speed.chunk_seconds(SETUP_CHUNKS)
            # run_s as host time at the speed the traced operation ran at, so
            # that it compares with the spans' host times.
            untraced_s = traced_s * run_s / speed.scaled(traced_s, chunk_before, chunk_after)
            layers, table = _layer_metrics(tracer, traced_s, untraced_s, summaries or [])
        ok = [_check(workload, out, seed, smoke) for out in outputs]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if layers is not None and layers["trace.unaccounted_s"] > layers["trace.overhead_s"]:
        print("check failed: the traced spans leave more than trace.overhead_s unaccounted",
              file=sys.stderr)
        ok[-1] = False
    failed = ok.count(False)
    print(f"{workload.name}: seed {seed}, {len(times)} operations in {seconds} s"
          f"{', smoke' if smoke else ''}; one chunk of the speed loop took"
          f" {1e3 * min(chunks):.2f} to {1e3 * max(chunks):.2f} ms"
          f" (reference {1e3 * speed.REFERENCE_CHUNK_S:.2f} ms)")
    notes = {"setup_s": f"median of {len(setup)} cold child processes"
                         f" (fastest {min(setup):.4f}, slowest {max(setup):.4f};"
                         f" unscaled median {statistics.median(setup_host):.4f})",
             "run_s": f"median of {len(times)} operations"
                      f" (fastest {min(scaled_times):.4f}, slowest {max(scaled_times):.4f};"
                      f" unscaled median {statistics.median(times):.4f})",
             "peak_rss_mb": "after the first operation of a fresh child process"}
    for metric, value in end_to_end.items():
        print(f"  {metric:<14} {value:>12.4f} {unit_of(metric):<5} {notes[metric]}")
    print(f"  {'error_rate':<14} {failed / len(outputs):>12.4f} ratio "
          f"{failed} of {len(outputs)} operations failed the output check")
    if layers is not None:
        spans_path = WORK_ROOT / f"spans-{workload.name}.bin"
        tracer.write(spans_path)
        print(f"  per layer, from 1 traced operation of {traced_s:.4f} s"
              f" ({len(tracer.span_start)} spans in {spans_path.relative_to(ROOT)}):")
        for metric, value in layers.items():
            print(f"    {metric:<34} {value:>14.6f} {unit_of(metric)}")
        print(f"  spans by self time ({'calls':>9} {'busy_s':>10} {'self_s':>10}):")
        for name, (calls, busy, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
            if calls:
                print(f"    {name:<45} {calls:>9} {busy:>10.4f} {own:>10.4f}")
    reported = layers if layers is not None else end_to_end
    return {
        "correct": failed == 0,
        "attempted": len(outputs),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in reported.items()},
    }


def _layer_metrics(tracer: tracing.Tracer, traced_s: float, untraced_s: float, summaries: list):
    table = tracer.by_name()
    layers = tracing.layer_metrics(table)
    frames = sum(s.frames_total for s in summaries)
    dropped = sum(s.frames_dropped for s in summaries)
    synth_calls = layers["sim.synth_inference.calls"]
    layers.update({
        "sim.trace_frames": frames,
        "sim.synth_inference.us_per_call":
            1e6 * layers["sim.synth_inference.busy_s"] / synth_calls if synth_calls else 0.0,
        "executor.switches": sum(s.switch_count for s in summaries),
        "executor.frames_dropped": dropped,
        "executor.drop_ratio": dropped / frames if frames else 0.0,
        "knowledge.rows_written":
            sum(s.frames_processed + s.decision_count + s.switch_count for s in summaries),
        "gc.pause_s": tracer.gc_pause_s,
        "gc.collections": tracer.gc_collections,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.unaccounted_s":
            traced_s - sum(table[name][1] for name in tracing.ACCOUNTED if name in table),
    })
    return layers, table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default=None, help="one workload; default: all of them")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="30x shorter traces, for self-tests")
    args = parser.parse_args(argv)
    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(workloads.WORKLOADS)}")
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        result = bench(workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                       args.smoke)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
