from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modelswitch import sim
from modelswitch.sim import (
    DEFAULT_SEED,
    OBJECT_CLASSES,
    ConfigError,
    InvalidSchedule,
    ModelProfile,
    ScheduleSegment,
    Trace,
    TraceConfig,
    default_profiles,
    default_segments,
    gaussian,
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


def _frames(trace: Trace) -> list[tuple[int, float]]:
    """Every frame's (object_count, complexity), read through the trace's reader."""
    frame = trace.reader()
    return [frame(i) for i in range(len(trace))]


@pytest.fixture(scope="module")
def default_trace() -> Trace:
    return generate_trace(TraceConfig())


def test_gaussian_moments() -> None:
    rng = Random(11)
    draws = [gaussian(rng, 2.0, 3.0) for _ in range(50_000)]
    assert statistics.fmean(draws) == pytest.approx(2.0, abs=0.05)
    assert statistics.stdev(draws) == pytest.approx(3.0, rel=0.02)


def test_poisson_moments() -> None:
    draws = sim._poisson_draws(Random(13), 4.0, 50_000)
    assert min(draws) >= 0
    assert statistics.fmean(draws) == pytest.approx(4.0, abs=0.05)
    # For a poisson distribution the variance equals the mean.
    assert statistics.variance(draws) == pytest.approx(4.0, rel=0.05)


def test_poisson_zero_mean_is_always_zero() -> None:
    assert all(count == 0 for count in sim._poisson_draws(Random(17), 0.0, 100))


def test_poisson_rejects_negative_mean() -> None:
    with pytest.raises(ValueError):
        sim._poisson_draws(Random(0), -1.0, 1)


def test_trace_is_deterministic_per_seed() -> None:
    segments = (ScheduleSegment(start_s=0.0, mean_objects=5.0, complexity=0.3),)
    config = TraceConfig(fps=20, duration_s=30.0, segments=segments)
    assert _frames(generate_trace(config)) == _frames(generate_trace(config))
    other = TraceConfig(
        fps=20, duration_s=30.0, segments=segments, rng_seed=DEFAULT_SEED + 1
    )
    assert _frames(generate_trace(other)) != _frames(generate_trace(config))


def test_default_trace_shape(default_trace: Trace) -> None:
    assert len(default_trace) == 108_000
    assert default_trace.fps == 60
    frame = default_trace.reader()
    frame(107_999)
    for bad in (108_000, -1):
        with pytest.raises(IndexError):
            frame(bad)


def test_default_trace_segment_densities(default_trace: Trace) -> None:
    """Off-peak thirds hover around 3 objects, the rush-hour third around 12."""
    counts = [count for count, _ in _frames(default_trace)]
    first, middle, last = counts[:36_000], counts[36_000:72_000], counts[72_000:]
    assert statistics.fmean(first) == pytest.approx(3.0, abs=0.1)
    assert statistics.fmean(middle) == pytest.approx(12.0, abs=0.1)
    assert statistics.fmean(last) == pytest.approx(3.0, abs=0.1)


def test_default_trace_complexity_ramp(default_trace: Trace) -> None:
    frame = default_trace.reader()
    assert frame(0)[1] == pytest.approx(0.1)
    # Halfway into the first segment the ramp toward 0.6 is half done.
    assert frame(18_000)[1] == pytest.approx(0.35)
    assert frame(36_000)[1] == pytest.approx(0.6)
    assert frame(54_000)[1] == pytest.approx(0.35)
    # The last segment has no successor and holds its own value.
    assert frame(90_000)[1] == pytest.approx(0.1)
    assert frame(107_999)[1] == pytest.approx(0.1)


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
    with pytest.raises(InvalidSchedule):
        validate_segments((ScheduleSegment(0.0, -3.0, 0.1),), 100.0)
    with pytest.raises(InvalidSchedule):
        validate_segments((ScheduleSegment(0.0, 3.0, 1.5),), 100.0)


def test_validate_segments_bounds_mean_objects_by_what_poisson_can_draw() -> None:
    # exp(-mean) stays a normal float up to a mean of about 708.4.
    validate_segments((ScheduleSegment(0.0, 708.0, 0.1),), 100.0)
    with pytest.raises(InvalidSchedule):
        validate_segments((ScheduleSegment(0.0, 709.0, 0.1),), 100.0)


_NAN = float("nan")
_ONE_SEGMENT = (ScheduleSegment(0.0, 3.0, 0.1),)

# (field, a build that sets it to nan, the error and its message): one case per
# one-sided range check, each of which nan used to pass.
NAN_CASES = [
    ("cpu_per_object_pct", lambda: _profile(cpu_per_object_pct=_NAN), ValueError,
     "negative cpu_per_object_pct: nan"),
    ("confidence_noise_sd", lambda: _profile(confidence_noise_sd=_NAN), ValueError,
     "negative confidence_noise_sd: nan"),
    ("switch_latency_ms", lambda: _profile(switch_latency_ms=_NAN), ValueError,
     "negative switch_latency_ms: nan"),
    ("inference_time_ms", lambda: _profile(inference_time_ms=_NAN), ValueError,
     "inference_time_ms must be positive: nan"),
    ("duration_s", lambda: TraceConfig(duration_s=_NAN, segments=_ONE_SEGMENT), ValueError,
     "duration_s must be positive: nan"),
    ("mean_objects", lambda: validate_segments((ScheduleSegment(0.0, _NAN, 0.1),), 100.0),
     InvalidSchedule, "negative mean_objects: nan"),
    ("start_s", lambda: validate_segments(_ONE_SEGMENT + (ScheduleSegment(_NAN, 3.0, 0.1),), 100.0),
     InvalidSchedule, "segment starts must be strictly increasing"),
]


@pytest.mark.parametrize("build, error, message", [case[1:] for case in NAN_CASES],
                         ids=[case[0] for case in NAN_CASES])
def test_one_sided_range_checks_reject_nan(build, error, message) -> None:
    with pytest.raises(error, match=f"^{message}$"):
        build()


def test_trace_config_rejects_bad_rates() -> None:
    with pytest.raises(ValueError):
        TraceConfig(fps=0)
    with pytest.raises(ValueError):
        TraceConfig(duration_s=0.0)


def test_synth_inference_is_deterministic() -> None:
    profile = _profile()
    first = synth_inference(6, 0.3, profile, Random(5))
    second = synth_inference(6, 0.3, profile, Random(5))
    assert first == second


def test_synth_inference_recall_statistics() -> None:
    profile = _profile(detection_recall=0.9, confidence_noise_sd=0.01)
    rng = Random(23)
    objects = 0
    found = 0
    for _ in range(2000):
        detections, cpu, inference_ms = synth_inference(10, 0.0, profile, rng)
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
        found, _, _ = synth_inference(5, 1.0, profile, rng)
        confidences.extend(found)
    # Full complexity halves the base confidence.
    assert statistics.fmean(confidences) == pytest.approx(0.4, abs=0.01)


def test_synth_inference_cpu_tracks_object_count() -> None:
    profile = _profile(base_cpu_pct=14.0, cpu_per_object_pct=0.3)
    rng = Random(31)
    cpus = []
    for _ in range(2000):
        _, cpu, _ = synth_inference(10, 0.2, profile, rng)
        cpus.append(cpu)
    assert statistics.fmean(cpus) == pytest.approx(17.0, abs=0.1)


@dataclass(frozen=True)
class Detection:
    """A detected object as synthesis once built it: confidence, label and unit-square bbox."""

    confidence: float
    class_label: str
    bbox: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        assert 0.0 <= self.confidence <= 1.0
        x, y, w, h = self.bbox
        assert min(x, y, w, h) >= 0.0 and x + w <= 1.0 + 1e-9 and y + h <= 1.0 + 1e-9


def _synth_inference_with_detections(
    object_count: int, complexity: float, profile: ModelProfile, rng: Random
) -> tuple[list[Detection], float, float]:
    """Reference: synthesis as it was when it built a Detection, label and bbox
    per hit, and drew its noise through gaussian()."""
    detections: list[Detection] = []
    degraded = profile.base_confidence * (1.0 - 0.5 * complexity)
    for _ in range(object_count):
        if rng.random() >= profile.detection_recall:
            continue
        conf = degraded + gaussian(rng, 0.0, profile.confidence_noise_sd)
        conf = min(1.0, max(0.0, conf))
        label = OBJECT_CLASSES[rng.randrange(len(OBJECT_CLASSES))]
        w = 0.05 + 0.25 * rng.random()
        h = 0.05 + 0.25 * rng.random()
        x = (1.0 - w) * rng.random()
        y = (1.0 - h) * rng.random()
        detections.append(Detection(confidence=conf, class_label=label, bbox=(x, y, w, h)))
    cpu = profile.base_cpu_pct + profile.cpu_per_object_pct * object_count + gaussian(rng)
    cpu = min(100.0, max(0.0, cpu))
    return detections, cpu, profile.inference_time_ms


_unit = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64),
    profile=st.one_of(
        st.sampled_from(default_profiles()),
        st.builds(
            _profile,
            base_cpu_pct=st.floats(min_value=0.0, max_value=100.0),
            cpu_per_object_pct=st.floats(min_value=0.0, max_value=5.0),
            base_confidence=_unit,
            confidence_noise_sd=st.floats(min_value=0.0, max_value=0.5),
            detection_recall=_unit,
        ),
    ),
    object_counts=st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=5),
    complexity=_unit,
)
def test_synth_inference_matches_the_detection_building_reference(
    seed: int, profile: ModelProfile, object_counts: list[int], complexity: float
) -> None:
    """Same confidences and CPU, and the same RNG state after every frame."""
    rng, reference_rng = Random(seed), Random(seed)
    for count in object_counts:
        confidences, cpu, inference_ms = synth_inference(count, complexity, profile, rng)
        detections, ref_cpu, ref_ms = _synth_inference_with_detections(
            count, complexity, profile, reference_rng
        )
        assert confidences == [d.confidence for d in detections]
        assert (cpu, inference_ms) == (ref_cpu, ref_ms)
        assert rng.getstate() == reference_rng.getstate()


def _eager_trace(config: TraceConfig) -> list[tuple[int, int, float]]:
    """Reference: the trace as it was when every frame was built up front, as
    (frame_index, object_count, complexity) per frame."""

    def poisson(rng: Random, mean: float) -> int:
        threshold = math.exp(-mean)
        count = 0
        product = rng.random()
        while product > threshold:
            count += 1
            product *= rng.random()
        return count

    segments = config.segments
    spans = []
    for i, seg in enumerate(segments):
        end = segments[i + 1].start_s if i + 1 < len(segments) else config.duration_s
        target = segments[i + 1].complexity if i + 1 < len(segments) else seg.complexity
        spans.append((seg, end, target))
    rng = Random(config.rng_seed)
    frames = []
    span_i = 0
    for f in range(config.total_frames):
        t = f / config.fps
        while span_i + 1 < len(spans) and t >= spans[span_i][1]:
            span_i += 1
        seg, end, target = spans[span_i]
        width = end - seg.start_s
        ramp = (t - seg.start_s) / width if width > 0 else 0.0
        complexity = seg.complexity + (target - seg.complexity) * ramp
        frames.append((f, poisson(rng, seg.mean_objects), complexity))
    return frames


@st.composite
def _trace_configs(draw) -> TraceConfig:
    fps = draw(st.one_of(st.sampled_from((1, 7, 10, 24, 30, 60)), st.integers(1, 120)))
    duration_s = draw(st.floats(min_value=0.01, max_value=20.0))
    # Segment starts off the frame grid and exactly on it (k / fps).
    starts = draw(
        st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=duration_s, exclude_min=True, exclude_max=True),
                st.integers(1, max(1, int(fps * duration_s))).map(lambda k: k / fps),
            ),
            max_size=5,
        )
    )
    starts = sorted({0.0} | {s for s in starts if 0.0 < s < duration_s})
    segments = tuple(
        ScheduleSegment(
            start_s=start,
            mean_objects=draw(st.floats(min_value=0.0, max_value=20.0)),
            complexity=draw(_unit),
        )
        for start in starts
    )
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return TraceConfig(fps=fps, duration_s=duration_s, segments=segments, rng_seed=seed)


@settings(max_examples=200, deadline=None)
@given(config=_trace_configs())
@example(
    config=TraceConfig(
        fps=7,
        duration_s=30.0,
        segments=(
            ScheduleSegment(start_s=0.0, mean_objects=3.0, complexity=0.1),
            ScheduleSegment(start_s=10.05, mean_objects=12.0, complexity=0.6),
            ScheduleSegment(start_s=20.0, mean_objects=3.0, complexity=0.1),
        ),
        rng_seed=DEFAULT_SEED,
    ),
)
def test_trace_matches_the_eager_reference(config: TraceConfig) -> None:
    trace = generate_trace(config)
    reference = _eager_trace(config)
    n = len(reference)
    assert len(trace) == n
    assert trace.fps == config.fps
    # Read forwards and backwards: the reader serves any index in range, in any order.
    frame = trace.reader()
    assert [(i, *frame(i)) for i in range(n)] == reference
    assert [(i, *frame(i)) for i in reversed(range(n))] == reference[::-1]
    for bad in (n, -1):
        with pytest.raises(IndexError):
            frame(bad)


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
