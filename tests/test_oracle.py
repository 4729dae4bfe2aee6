"""A statistical oracle: a run's figures against the closed forms of its stated model.

``tests/spec.py`` is a second implementation of the run, so a wrong transform
edited into both the package and the spec would still pass ``test_spec``. These
checks import no draw or constant of the run path: each compares a sample of a
run's figures with the expectation the README's distributions give, read from
the config the check writes itself. That expectation stays put when the golden
digests are pinned again.

* Each segment's object counts, read through ``generate_trace``, are Poisson:
  their mean and their variance are the segment's ``mean_objects``.
* A run on one model (it never switches) has, per segment, mean CPU
  ``base_cpu_pct + cpu_per_object_pct * mean_objects``. A frame of m expected
  objects at complexity c keeps Poisson(m r q) detections, r being the recall,
  and its confidence is their mean, 0.0 with none, so its expected
  detection count is ``m r q`` and its expected confidence is
  ``(1 - exp(-m r q)) * E[min(X, 1) | X >= floor]``, with
  ``X ~ N(d, noise_sd)``, ``d = base_confidence * (1 - 0.5 c)`` and
  ``q = P(X >= floor)``. Complexity ramps frame by frame, so these are averaged
  over the segment's frames.
* A switch costs the incoming model's ``switch_latency_ms`` times a uniform
  factor in [0.9, 1.1): per target model, mean ``switch_latency_ms`` and
  standard deviation ``switch_latency_ms * 0.1 / sqrt(3)``. The frames it drops
  are ``round(cost * fps / 1000)``.

Every tolerance is Z = 5 standard errors, each estimated from the sample's own
moments: ``s / sqrt(n)`` for a mean and ``sqrt((m4 - s**4) / n)`` for a
variance, m4 being the sample's fourth central moment. Confidence and detection
frames are not identically distributed along a ramp, so their sample variance,
which also holds the spread of their expectations, overstates the standard
error: those checks err towards passing. The predicates take the trace length;
tier-1 runs them on a 300 s trace, and CI runs them on the full 1,800 s one.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from pathlib import Path
from statistics import NormalDist, fmean

from runfiles import load_events_csv, load_metrics_csv

from modelswitch.cli import run_experiment
from modelswitch.sim import ScheduleSegment, TraceConfig, default_profiles, generate_trace

Z = 5.0
TIER1_DURATION_S = 300
FPS = 60
SEED = 12345
FLOOR = 0.25
JITTER = 0.10
# The default schedule's shape, at any length: (share of the trace before the
# segment starts, mean objects, complexity).
SCHEDULE = ((0.0, 3.0, 0.1), (1 / 3, 12.0, 0.6), (2 / 3, 3.0, 0.1))
# A reported real is written to 4 decimals, so a mean read back may be off by this much.
WRITTEN = 5e-5


def _segments(duration_s: float) -> list[tuple[float, float, float]]:
    """(start_s, mean_objects, complexity) of each segment of a duration_s trace."""
    return [(share * duration_s, mean, complexity) for share, mean, complexity in SCHEDULE]


def _frame_schedule(duration_s: float) -> list[tuple[int, float, float]]:
    """Each frame's (segment number, mean objects, complexity): complexity ramps to the
    next segment's at its start, and the last segment holds its own."""
    segments = _segments(duration_s)
    starts = [start for start, _, _ in segments]
    frames = []
    for f in range(round(FPS * duration_s)):
        t = f / FPS
        j = bisect_right(starts, t) - 1
        start, mean, complexity = segments[j]
        end, target = (
            (segments[j + 1][0], segments[j + 1][2]) if j + 1 < len(segments)
            else (duration_s, complexity)
        )
        frames.append((j, mean, complexity + (target - complexity) * (t - start) / (end - start)))
    return frames


def _write_config(path: Path, duration_s: float, profiles, sections: dict[str, dict]) -> str:
    """An INI config of the schedule at duration_s, the given models and further sections."""
    all_sections = {"trace": {"fps": FPS, "duration_s": duration_s, "rng_seed": SEED}}
    for number, (start, mean, complexity) in enumerate(_segments(duration_s), 1):
        all_sections[f"segment.{number}"] = {
            "start_s": start, "mean_objects": mean, "complexity": complexity,
        }
    all_sections["engine"] = {"confidence_floor": FLOOR}
    for model, *values in profiles:
        all_sections[f"model.{model}"] = dict(zip(profiles[0]._fields[1:], values))
    all_sections.update(sections)
    path.write_text(
        "".join(
            f"[{name}]\n" + "".join(f"{key} = {value!r}\n" for key, value in keys.items()) + "\n"
            for name, keys in all_sections.items()
        ),
        encoding="utf-8",
    )
    return str(path)


def _moments(sample: list[float]) -> tuple[int, float, float, float]:
    """(n, mean, variance with n - 1, fourth central moment)."""
    n = len(sample)
    mean = fmean(sample)
    deviations = [x - mean for x in sample]
    return n, mean, sum(d * d for d in deviations) / (n - 1), fmean(d**4 for d in deviations)


def _assert_mean(sample: list[float], expected: float, what: str, slack: float = 0.0) -> None:
    """The sample mean lies within Z standard errors (plus slack) of expected."""
    n, mean, variance, _ = _moments(sample)
    tolerance = Z * math.sqrt(variance / n) + slack
    assert abs(mean - expected) <= tolerance, f"{what}: mean {mean} vs {expected} ± {tolerance}"


def _assert_variance(sample: list[float], expected: float, what: str) -> None:
    """The sample variance lies within Z standard errors of expected."""
    n, _, variance, m4 = _moments(sample)
    tolerance = Z * math.sqrt(max(m4 - variance**2, 0.0) / n)
    assert abs(variance - expected) <= tolerance, (
        f"{what}: variance {variance} vs {expected} ± {tolerance}"
    )


def assert_counts_are_poisson(duration_s: float) -> None:
    """Each segment's object counts have the segment's mean_objects as mean and variance."""
    frames = generate_trace(
        TraceConfig(
            fps=FPS, duration_s=duration_s, rng_seed=SEED,
            segments=tuple(ScheduleSegment(*segment) for segment in _segments(duration_s)),
        )
    )
    by_segment = defaultdict(list)
    for (j, _, _), (count, _) in zip(_frame_schedule(duration_s), frames):
        by_segment[j].append(count)
    for j, (_, mean, _) in enumerate(_segments(duration_s)):
        _assert_mean(by_segment[j], mean, f"segment {j + 1} count")
        _assert_variance(by_segment[j], mean, f"segment {j + 1} count")


def _expected_frame(profile, mean: float, complexity: float) -> tuple[float, float]:
    """A frame's expected (detection count, confidence) from the closed form above."""
    degraded = profile.base_confidence * (1.0 - 0.5 * complexity)
    noise = NormalDist(degraded, profile.confidence_noise_sd)
    kept = 1.0 - noise.cdf(FLOOR)
    above_one = 1.0 - noise.cdf(1.0)
    # E[X; floor <= X < 1] of a normal: mu (F(1) - F(floor)) + sd^2 (f(floor) - f(1)).
    inside = degraded * (kept - above_one) + noise.variance * (noise.pdf(FLOOR) - noise.pdf(1.0))
    detections = mean * profile.detection_recall * kept
    return detections, (1.0 - math.exp(-detections)) * (inside + above_one) / kept


def assert_static_runs_follow_closed_forms(directory: Path, duration_s: float) -> None:
    """On each default model alone, per segment: mean CPU, detection count and confidence."""
    frames = _frame_schedule(duration_s)
    for profile in default_profiles():
        out = directory / profile.model
        out.mkdir()
        config = _write_config(out / "static.ini", duration_s, [profile], {})
        run_experiment("naive", out / "run", config_path=config)
        rows = load_metrics_csv(out / "run" / "metrics.csv")
        assert len(rows) == len(frames)
        by_segment = defaultdict(list)
        for (_, row), (j, mean, complexity) in zip(rows, frames):
            by_segment[j].append((row, *_expected_frame(profile, mean, complexity)))
        for j, (_, mean, _) in enumerate(_segments(duration_s)):
            seen, detections, confidences = zip(*by_segment[j])
            what = f"{profile.model} segment {j + 1}"
            cpu = profile.base_cpu_pct + profile.cpu_per_object_pct * mean
            _assert_mean([row.cpu_usage for row in seen], cpu, f"{what} CPU", WRITTEN)
            _assert_mean(
                [row.detection_count for row in seen], fmean(detections), f"{what} detections"
            )
            _assert_mean(
                [row.confidence_score for row in seen], fmean(confidences),
                f"{what} confidence", WRITTEN,
            )


def assert_switches_follow_jitter_and_drops(directory: Path, duration_s: float) -> None:
    """Round-robin over the default models, a new model every processed frame: per target
    model, the switch cost's mean and variance, and each switch's dropped frames."""
    config = _write_config(
        directory / "switching.ini", duration_s, default_profiles(),
        {"round-robin-boost": {"time_slice_frames": 1}},
    )
    run_experiment("round-robin-boost", directory / "run", config_path=config)
    processed = [row.frame_index for _, row in load_metrics_csv(directory / "run" / "metrics.csv")]
    after = dict(zip(processed, processed[1:]))
    costs = defaultdict(list)
    for event in load_events_csv(directory / "run" / "events.csv"):
        if event["event_type"] != "switch":
            continue
        frame, cost = int(event["frame_index"]), float(event["switch_time_ms"])
        costs[event["to_model"]].append(cost)
        # The last switch may be cut short by the trace's end; every other one is followed
        # by its next processed frame. The written cost's rounding can move cost * fps / 1000
        # by up to WRITTEN * FPS / 1000.
        if frame in after:
            dropped = after[frame] - frame - 1
            nominal = cost * FPS / 1000.0
            assert abs(dropped - nominal) <= 0.5 + WRITTEN * FPS / 1000.0, (
                f"switch at frame {frame}: {dropped} frames dropped for a {cost} ms switch"
            )
    for profile in default_profiles():
        latency = profile.switch_latency_ms
        sample = costs[profile.model]
        assert len(sample) >= 30, f"only {len(sample)} switches to {profile.model}"
        _assert_mean(sample, latency, f"{profile.model} switch cost", WRITTEN)
        _assert_variance(sample, (latency * JITTER) ** 2 / 3.0, f"{profile.model} switch cost")


def test_counts_are_poisson_per_segment() -> None:
    assert_counts_are_poisson(TIER1_DURATION_S)


def test_static_runs_follow_the_closed_forms(tmp_path) -> None:
    assert_static_runs_follow_closed_forms(tmp_path, TIER1_DURATION_S)


def test_switch_costs_and_drops_follow_the_jitter(tmp_path) -> None:
    assert_switches_follow_jitter_and_drops(tmp_path, TIER1_DURATION_S)
