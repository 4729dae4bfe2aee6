from __future__ import annotations

import math
import statistics
import sys
import time
import tracemalloc
from random import Random

import pytest
import spec
from hypothesis import given, settings
from hypothesis import strategies as st

from modelswitch import sim
from modelswitch.sim import (
    DEFAULT_SEED,
    ConfigError,
    InvalidSchedule,
    ModelProfile,
    ScheduleSegment,
    TraceConfig,
    default_profiles,
    default_segments,
    generate_trace,
    parse_config,
    synth_inference,
    validate_segments,
)


def _profile(**overrides) -> ModelProfile:
    base = dict(
        model="tiny",
        base_cpu_pct=14.0,
        cpu_per_object_pct=0.3,
        base_confidence=0.5,
        confidence_noise_sd=0.05,
        detection_recall=0.9,
        switch_latency_ms=200.0,
        inference_time_ms=30.0,
    )
    base.update(overrides)
    return ModelProfile(**base)


def _frames(config: TraceConfig) -> list[tuple[int, float]]:
    """Every frame's (object_count, complexity), read through the trace generator."""
    return list(generate_trace(config))


@pytest.fixture(scope="module")
def default_trace() -> list[tuple[int, float]]:
    return _frames(TraceConfig())


def _counts(mean: float, n: int, seed: int) -> list[int]:
    """n poisson counts around mean, read from a one-segment trace of n frames."""
    segments = (ScheduleSegment(start_s=0.0, mean_objects=mean, complexity=0.5),)
    config = TraceConfig(fps=n, duration_s=1.0, segments=segments, rng_seed=seed)
    return [count for count, _ in generate_trace(config)]


def test_poisson_moments() -> None:
    draws = _counts(4.0, 50_000, 13)
    assert min(draws) >= 0
    assert statistics.fmean(draws) == pytest.approx(4.0, abs=0.05)
    # For a poisson distribution the variance equals the mean.
    assert statistics.variance(draws) == pytest.approx(4.0, rel=0.05)


def test_poisson_zero_mean_is_always_zero() -> None:
    assert all(count == 0 for count in _counts(0.0, 100, 17))


def test_poisson_rejects_negative_mean() -> None:
    with pytest.raises(ValueError):
        _counts(-1.0, 1, 0)


def test_trace_is_deterministic_per_seed() -> None:
    segments = (ScheduleSegment(start_s=0.0, mean_objects=5.0, complexity=0.3),)
    config = TraceConfig(fps=20, duration_s=30.0, segments=segments)
    assert _frames(config) == _frames(config)
    other = TraceConfig(
        fps=20, duration_s=30.0, segments=segments, rng_seed=DEFAULT_SEED + 1
    )
    assert _frames(other) != _frames(config)


def test_default_trace_shape(default_trace: list[tuple[int, float]]) -> None:
    assert len(default_trace) == TraceConfig().total_frames == 108_000


def test_default_trace_segment_densities(default_trace: list[tuple[int, float]]) -> None:
    """Off-peak thirds hover around 3 objects, the rush-hour third around 12."""
    counts = [count for count, _ in default_trace]
    first, middle, last = counts[:36_000], counts[36_000:72_000], counts[72_000:]
    assert statistics.fmean(first) == pytest.approx(3.0, abs=0.1)
    assert statistics.fmean(middle) == pytest.approx(12.0, abs=0.1)
    assert statistics.fmean(last) == pytest.approx(3.0, abs=0.1)


def test_default_trace_complexity_ramp(default_trace: list[tuple[int, float]]) -> None:
    complexity = [ramped for _, ramped in default_trace]
    assert complexity[0] == pytest.approx(0.1)
    # Halfway into the first segment the ramp toward 0.6 is half done.
    assert complexity[18_000] == pytest.approx(0.35)
    assert complexity[36_000] == pytest.approx(0.6)
    assert complexity[54_000] == pytest.approx(0.35)
    # The last segment has no successor and holds its own value.
    assert complexity[90_000] == pytest.approx(0.1)
    assert complexity[107_999] == pytest.approx(0.1)


def test_validate_segments_rejects_bad_schedules() -> None:
    with pytest.raises(InvalidSchedule):
        validate_segments((), 100.0)
    with pytest.raises(InvalidSchedule):
        validate_segments((ScheduleSegment(5.0, 3.0, 0.1),), 100.0)
    with pytest.raises(InvalidSchedule):
        validate_segments(
            (ScheduleSegment(0.0, 3.0, 0.1), ScheduleSegment(0.0, 5.0, 0.2)), 100.0
        )
    with pytest.raises(InvalidSchedule):
        validate_segments((ScheduleSegment(0.0, 3.0, 0.1), ScheduleSegment(120.0, 5.0, 0.2)), 100.0)


def test_validate_segments_bounds_mean_objects_by_what_poisson_can_draw() -> None:
    """A segment's mean_objects bound accepts exactly the means whose exp(-mean),
    where Knuth's method stops, is still a normal float."""
    last = 708.3964185322641
    for mean in (math.nextafter(last, 0.0), last, math.nextafter(last, math.inf)):
        drawable = math.exp(-mean) >= sys.float_info.min
        assert drawable == (mean <= last)
        if drawable:
            ScheduleSegment(0.0, mean, 0.1)
        else:
            with pytest.raises(ValueError, match=r"^mean_objects must lie in "):
                ScheduleSegment(0.0, mean, 0.1)


_ONE_SEGMENT = (ScheduleSegment(0.0, 3.0, 0.1),)


# (field, a build that sets it): each must be a positive, finite real. An
# infinite one overflowed the frame count or the clock, or reached every row.
@pytest.mark.parametrize(
    "field, build",
    [
        ("duration_s", lambda value: TraceConfig(duration_s=value, segments=_ONE_SEGMENT)),
        ("inference_time_ms", lambda value: _profile(inference_time_ms=value)),
    ],
)
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_a_strict_positive_refuses_zero_and_non_finite_values(field, build, value) -> None:
    with pytest.raises(ValueError, match=rf"^{field} must lie in \(0, inf\): {value}$"):
        build(value)


def test_trace_config_rejects_bad_rates() -> None:
    with pytest.raises(ValueError):
        TraceConfig(fps=0)
    with pytest.raises(ValueError):
        TraceConfig(duration_s=0.0)


def test_synth_inference_is_deterministic() -> None:
    profile = _profile()
    first = synth_inference(6, 0.3, profile, Random(5), 0.25)
    second = synth_inference(6, 0.3, profile, Random(5), 0.25)
    assert first == second


@pytest.mark.parametrize("seed", [1, 5, 17, 40])
def test_the_floor_filters_confidences_and_moves_no_draw(seed) -> None:
    """At floor f synthesis reports the floor-0.0 confidences at or above f, in
    order, with the same CPU and inference time and the generator left in the
    same state: every found object makes its draws, reported or not."""
    # Noise wide enough that confidences fall on both sides of the middle floors.
    profile = _profile(confidence_noise_sd=0.3)
    dropped = 0
    for object_count in (0, 1, 4, 12):
        runs = {}
        for floor in (0.0, 0.3, 0.5, 1.0):
            rng = Random(seed)
            runs[floor] = (*synth_inference(object_count, 0.4, profile, rng, floor), rng.getstate())
        every, *rest = runs[0.0]
        for floor, (kept, *other) in runs.items():
            assert kept == [c for c in every if c >= floor]
            assert other == rest
            dropped += len(every) - len(kept)
    assert dropped > 0


def test_synth_inference_recall_statistics() -> None:
    profile = _profile(detection_recall=0.9, confidence_noise_sd=0.01)
    rng = Random(23)
    objects = 0
    found = 0
    for _ in range(2000):
        detections, cpu, inference_ms = synth_inference(10, 0.0, profile, rng, 0.0)
        assert len(detections) <= 10
        assert 0.0 <= cpu <= 100.0
        assert inference_ms == profile.inference_time_ms
        objects += 10
        found += len(detections)
    assert found / objects == pytest.approx(0.9, abs=0.01)


def test_synth_inference_complexity_degrades_confidence() -> None:
    profile = _profile(base_confidence=0.8, confidence_noise_sd=0.01, detection_recall=1.0)
    rng = Random(29)
    confidences = []
    for _ in range(2000):
        found, _, _ = synth_inference(5, 1.0, profile, rng, 0.0)
        confidences.extend(found)
    # Full complexity halves the base confidence.
    assert statistics.fmean(confidences) == pytest.approx(0.4, abs=0.01)


def test_synth_inference_cpu_tracks_object_count() -> None:
    profile = _profile(base_cpu_pct=14.0, cpu_per_object_pct=0.3)
    rng = Random(31)
    cpus = []
    for _ in range(2000):
        _, cpu, _ = synth_inference(10, 0.2, profile, rng, 0.0)
        cpus.append(cpu)
    assert statistics.fmean(cpus) == pytest.approx(17.0, abs=0.1)


# fps 7 puts no segment start but 0 on the frame grid: 10.05 s falls inside frame 70's period.
_OFF_GRID = TraceConfig(
    fps=7,
    duration_s=30.0,
    segments=(
        ScheduleSegment(start_s=0.0, mean_objects=3.0, complexity=0.1),
        ScheduleSegment(start_s=10.05, mean_objects=12.0, complexity=0.6),
        ScheduleSegment(start_s=20.0, mean_objects=3.0, complexity=0.1),
    ),
    rng_seed=DEFAULT_SEED,
)


@pytest.mark.parametrize(
    "config, frames",
    [
        (_OFF_GRID, 210),
        # The same schedule at fps 499: thousands of frames a segment.
        (
            TraceConfig(fps=499, duration_s=_OFF_GRID.duration_s, segments=_OFF_GRID.segments),
            14_970,
        ),
    ],
    ids=["fps-7", "fps-499"],
)
def test_trace_matches_the_eager_reference(config: TraceConfig, frames: int) -> None:
    """Read forwards, the trace serves the spec's eagerly drawn frames."""
    reference = spec.trace_frames(config)
    assert config.total_frames == len(reference) == frames
    # The generator yields exactly one (count, complexity) per frame, then stops.
    assert _frames(config) == reference


def _assert_skips_land_on_the_reference(config: TraceConfig, skips: list[int]) -> None:
    """Read frame 0 with next(), then send(k) for each k in skips: every read lands
    k + 1 frames on and yields the spec's (count, complexity) there, until a skip
    runs past the last frame and raises StopIteration."""
    reference = spec.trace_frames(config)
    frames = generate_trace(config)
    assert next(frames) == reference[0]
    frame = 0
    for k in skips:
        frame += 1 + k
        if frame >= len(reference):
            with pytest.raises(StopIteration):
                frames.send(k)
            return
        assert frames.send(k) == reference[frame]


def test_send_skips_frames_across_segment_stops() -> None:
    # _OFF_GRID's segments start at frames 71 and 140 and it ends at frame 210.
    _assert_skips_land_on_the_reference(
        _OFF_GRID,
        [
            0,  # frame 1: k = 0 reads the next frame, as next() does
            69,  # frame 71: the skipped frames 2-70 end on segment 2's first frame
            100,  # frame 172: frames 72-171 cross segment 3's first frame
            37,  # frame 210: past the last frame
        ],
    )


def test_send_refuses_a_negative_skip() -> None:
    frames = generate_trace(_OFF_GRID)
    next(frames)
    with pytest.raises(ValueError):
        frames.send(-1)


@st.composite
def _small_trace_configs(draw) -> TraceConfig:
    """A trace of up to 100 frames over up to four segments, starting on a 0.1 s grid."""
    duration_s = draw(st.integers(1, 5))
    starts = draw(st.lists(st.integers(1, 10 * duration_s - 1), unique=True, max_size=3))
    segments = tuple(
        ScheduleSegment(
            start_s=start / 10,
            mean_objects=draw(st.floats(0.0, 20.0)),
            complexity=draw(st.floats(0.0, 1.0)),
        )
        for start in [0, *sorted(starts)]
    )
    return TraceConfig(
        fps=draw(st.integers(1, 20)),
        duration_s=float(duration_s),
        segments=segments,
        rng_seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=200, deadline=None)
@given(config=_small_trace_configs(), skips=st.lists(st.integers(0, 60), max_size=12))
def test_send_lands_on_the_eager_reference(config: TraceConfig, skips: list[int]) -> None:
    _assert_skips_land_on_the_reference(config, skips)


def test_reading_a_long_trace_keeps_no_count_it_passed() -> None:
    """Memory does not grow with trace length: reading 200,000 frames of a 30x trace
    allocates under 1 MiB, where keeping its 3,240,000 counts as 4-byte ints takes 13 MB."""
    scale = 30
    segments = tuple(
        ScheduleSegment(seg.start_s * scale, seg.mean_objects, seg.complexity)
        for seg in default_segments()
    )
    config = TraceConfig(duration_s=sim.DEFAULT_DURATION_S * scale, segments=segments)
    tracemalloc.start()
    try:
        for _ in zip(range(200_000), generate_trace(config)):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_a_trace_of_2_53_frames_reads_frame_0_at_once() -> None:
    segments = (ScheduleSegment(start_s=0.0, mean_objects=3.0, complexity=0.1),)
    start = time.perf_counter()
    config = TraceConfig(fps=2**53, duration_s=1, segments=segments)
    count, complexity = next(generate_trace(config))
    assert time.perf_counter() - start < 1.0
    assert config.total_frames == 2**53
    assert count >= 0 and complexity == 0.1


def test_model_profile_validation() -> None:
    with pytest.raises(ValueError):
        _profile(base_confidence=1.5)
    with pytest.raises(ValueError):
        _profile(detection_recall=-0.1)
    with pytest.raises(ValueError):
        _profile(confidence_noise_sd=-0.01)
    with pytest.raises(ValueError):
        _profile(switch_latency_ms=-1.0)
    with pytest.raises(ValueError):
        _profile(inference_time_ms=0.0)


def test_default_profiles_are_ordered_lightest_first() -> None:
    profiles = default_profiles()
    assert [p.model for p in profiles] == [
        "ssd-mobilenet-v1",
        "efficientdet-lite0",
        "efficientdet-lite1",
        "efficientdet-lite2",
    ]
    cpus = [p.base_cpu_pct for p in profiles]
    assert cpus == sorted(cpus)
    confidences = [p.base_confidence for p in profiles]
    assert confidences == sorted(confidences)


def test_parse_config_reads_all_sections(tmp_path) -> None:
    path = tmp_path / "experiment.ini"
    path.write_text(
        "[trace]\n"
        "fps = 30\n"
        "duration_s = 60\n"
        "rng_seed = 7\n"
        "\n"
        "[segment.2]\n"
        "start_s = 0\n"
        "mean_objects = 2\n"
        "complexity = 0.2\n"
        "\n"
        "[segment.10]\n"
        "start_s = 30\n"
        "mean_objects = 5\n"
        "complexity = 0.8\n"
        "\n"
        "[model.tiny]\n"
        "base_cpu_pct = 10\n"
        "cpu_per_object_pct = 0.2\n"
        "base_confidence = 0.5\n"
        "confidence_noise_sd = 0.05\n"
        "detection_recall = 0.9\n"
        "switch_latency_ms = 200\n"
        "inference_time_ms = 30\n"
        "\n"
        "[epsilon-greedy]\n"
        "epsilon = 0.2\n",
        encoding="utf-8",
    )
    config = parse_config(str(path))
    assert config.trace.fps == 30
    assert config.trace.duration_s == 60.0
    assert config.trace.rng_seed == 7
    # Segment sections sort numerically, so segment.2 precedes segment.10.
    assert [s.start_s for s in config.trace.segments] == [0.0, 30.0]
    assert config.trace.segments[1].mean_objects == 5.0
    assert len(config.profiles) == 1
    assert config.profiles[0].model == "tiny"
    assert config.profiles[0].switch_latency_ms == 200.0
    assert config.extras == {"epsilon-greedy": {"epsilon": "0.2"}}


def test_parse_config_falls_back_to_defaults(tmp_path) -> None:
    path = tmp_path / "sparse.ini"
    path.write_text("[engine]\nwindow_capacity = 10\n", encoding="utf-8")
    config = parse_config(str(path))
    assert config.trace == TraceConfig()
    assert config.trace.segments == default_segments()
    assert config.profiles == default_profiles()
    assert config.extras == {"engine": {"window_capacity": "10"}}


def test_parse_config_rejects_bad_values(tmp_path) -> None:
    bad_float = tmp_path / "bad_float.ini"
    bad_float.write_text(
        "[segment.1]\nstart_s = zero\nmean_objects = 2\ncomplexity = 0.2\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError):
        parse_config(str(bad_float))

    bad_schedule = tmp_path / "bad_schedule.ini"
    bad_schedule.write_text(
        "[trace]\nduration_s = 10\n"
        "[segment.1]\nstart_s = 0\nmean_objects = 2\ncomplexity = 0.2\n"
        "[segment.2]\nstart_s = 50\nmean_objects = 3\ncomplexity = 0.3\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError, match=r"^\[segment\.2\] segment start 50.0 beyond duration"):
        parse_config(str(bad_schedule))


def test_parse_config_missing_file_raises_oserror(tmp_path) -> None:
    with pytest.raises(OSError):
        parse_config(str(tmp_path / "nope.ini"))
