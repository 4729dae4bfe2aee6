"""Child process of the benchmark, started fresh for each measurement.

    probe.py setup CONFIG SEED STRATEGY...
        Import modelswitch.cli, load the workload config (``-`` for the
        built-in defaults), build the model repository and each strategy,
        then print CLOCK_MONOTONIC: the parent subtracts the time it started
        the child, which gives the set-up time from a cold process.
    probe.py measure WORKLOAD CONFIG SEED OUT_DIR SECONDS
        Run operations of the workload back to back into OUT_DIR/op<i> until
        SECONDS have passed, with a block of speed.py's loop before the first
        and after each one. Then print one JSON line: the host seconds of
        each operation, the mean chunk time of each block (one more than
        there are operations), and the peak resident set size in KiB after
        the first operation, which is that of a fresh process that ran one.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

# Chunks of speed.py's loop in each block between operations: about 0.3 s,
# long enough to see the machine's speed, short beside an operation.
MEASURE_CHUNKS = 40


def setup(config: str, seed: int, strategies: list[str]) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from modelswitch import cli, knowledge, sim

    if config == "-":
        sim_config = sim.SimConfig(
            trace=sim.TraceConfig(), profiles=sim.default_profiles(), extras={}
        )
    else:
        sim_config = sim.parse_config(config)
    repo = knowledge.ModelRepository(sim_config.profiles)
    for strategy in strategies:
        cli.build_strategy(strategy, repo, sim_config.extras, seed)
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))


def measure(workload: str, config: str, seed: int, out_dir: str, seconds: float) -> None:
    import json
    import resource

    import speed
    import workloads

    chosen = workloads.WORKLOADS[workload]
    config_path = None if config == "-" else config
    times: list[float] = []
    peak_kib = 0
    start = time.perf_counter()
    chunks = [speed.chunk_seconds(MEASURE_CHUNKS)]
    while not times or time.perf_counter() - start < seconds:
        out = Path(out_dir) / f"op{len(times)}"
        times.append(workloads.timed_operation(chosen, config_path, out, seed)[0])
        if len(times) == 1:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        chunks.append(speed.chunk_seconds(MEASURE_CHUNKS))
    print(json.dumps({"times": times, "chunks": chunks, "peak_rss_kib": peak_kib}))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]), sys.argv[4:])
    else:
        measure(sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5], float(sys.argv[6]))
