"""The machine's speed, measured with a fixed arithmetic loop, to scale host times by.

The benchmark runs on virtual machines that share their host. There the same
job can take twice as long as a minute earlier, and a slow spell lasts for
minutes, so no statistic over one run's jobs is steady. The loop below slows
with the jobs: timed in a block right before and right after each one, it
narrowed the run-to-run spread of their median time from 6-39% to 3-10% on
the baseline machine. The benchmark's end-to-end times are therefore host
times scaled to the reference speed,

    scaled = host_seconds * REFERENCE_CHUNK_S / chunk_s

where chunk_s is the mean time of one chunk of the loop in the blocks around
the timed interval. On a machine that runs one chunk in REFERENCE_CHUNK_S,
the scaled time is the host time. The loop is the benchmark's own code, so a
change to the program does not change it.
"""

from __future__ import annotations

import time

CHUNK_ITERATIONS = 100_000
# One chunk's host time on the 2-vCPU machine of the baseline in a quiet spell.
REFERENCE_CHUNK_S = 0.0075


def chunk_seconds(chunks: int) -> float:
    """Mean host seconds of one chunk of the loop, over this many chunks run back to back."""
    start = time.perf_counter()
    for _ in range(chunks):
        total = 0
        for i in range(CHUNK_ITERATIONS):
            total += i * i % 7
    return (time.perf_counter() - start) / chunks


def scaled(host_s: float, chunk_before: float, chunk_after: float) -> float:
    """host_s at the reference speed, from the chunk times measured around it."""
    return host_s * REFERENCE_CHUNK_S / ((chunk_before + chunk_after) / 2)
