"""Deterministic workload simulator.

Schedules a seeded traffic-camera trace (object density rises for a rush
segment, then falls back), whose frames are drawn in frame order as they are
read and never stored, and synthesizes per-frame inference results
for a given model profile. All randomness flows through ``random.Random``
(Mersenne Twister, a named and portable generator); gaussian and poisson
draws below are explicit transforms of its uniform output so a seed
reproduces the exact same trace on any platform.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Generator
from math import cos, inf, log, sqrt
from random import Random
from typing import Any, Mapping, NamedTuple, Sequence, get_type_hints

from modelswitch.domain import ModelId, checked

DEFAULT_DURATION_S = 1800
DEFAULT_SEED = 12345

# Labels a synthetic detection draws from. No output reads a label, so synthesis
# builds none, but it still draws one index per detection to keep the RNG stream.
OBJECT_CLASSES = ("car", "bus", "truck", "motorcycle", "rickshaw")

# What synth_inference reads on every call, bound once: the label count and the
# bits randrange draws per label index, and the Box-Muller angle's 2 pi.
_LABELS = len(OBJECT_CLASSES)
_LABEL_BITS = _LABELS.bit_length()
_TWO_PI = 2.0 * math.pi

# Knuth's method stops at exp(-mean): past this mean (708.3964185322641 is the last
# float below it) that is subnormal or 0, and the draws no longer follow the mean
# (800 and 1e6 both average 745).
MAX_POISSON_MEAN = -log(sys.float_info.min)

# The last frame index the float clock (f / fps here, i * period_ms in the loop) still
# counts exactly: every int up to 2**53 is a float. Derived from the clock, not a setting.
LAST_EXACT_FRAME = 2**53

# A switch costs the incoming model's switch_latency_ms times a uniform factor
# in [1 - SWITCH_JITTER, 1 + SWITCH_JITTER).
SWITCH_JITTER = 0.10


class InvalidSchedule(Exception):
    """Density schedule does not cover the trace duration.

    ``position`` is the index of the offending segment, or None when the
    schedule has no segments at all.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


@checked(
    base_cpu_pct=(0.0, 100.0),
    cpu_per_object_pct=(0.0, inf),
    base_confidence=(0.0, 1.0),
    confidence_noise_sd=(0.0, inf),
    detection_recall=(0.0, 1.0),
    switch_latency_ms=(0.0, inf),
)
class ModelProfile(NamedTuple):
    """Cost/quality profile of one synthetic detection model."""

    model: ModelId
    base_cpu_pct: float
    cpu_per_object_pct: float
    base_confidence: float
    confidence_noise_sd: float
    detection_recall: float
    switch_latency_ms: float
    inference_time_ms: float

    def _check(self) -> None:
        if not self.model:
            raise ValueError("model id must be non-empty")
        # The id is a field of metrics.csv and events.csv and part of a summary.txt key.
        if "," in self.model or "=" in self.model:
            raise ValueError(f"model id must not contain ',' or '=': {self.model!r}")
        if not 0.0 < self.inference_time_ms < inf:
            raise ValueError(f"inference_time_ms must lie in (0, inf): {self.inference_time_ms}")
        # A jittered switch cost that overflows to inf could neither be paid nor logged.
        most = 1.0 + SWITCH_JITTER
        if not self.switch_latency_ms * most < inf:
            raise ValueError(f"switch_latency_ms * {most} must be finite: {self.switch_latency_ms}")


@checked(start_s=(0.0, inf), mean_objects=(0.0, MAX_POISSON_MEAN), complexity=(0.0, 1.0))
class ScheduleSegment(NamedTuple):
    """One stretch of the density schedule."""

    start_s: float
    mean_objects: float
    complexity: float


def default_segments() -> tuple[ScheduleSegment, ...]:
    """Off-peak, rush hour, off-peak again, in three equal stretches."""
    third = DEFAULT_DURATION_S / 3
    return (
        ScheduleSegment(start_s=0.0, mean_objects=3.0, complexity=0.1),
        ScheduleSegment(start_s=third, mean_objects=12.0, complexity=0.6),
        ScheduleSegment(start_s=2 * third, mean_objects=3.0, complexity=0.1),
    )


# Random(seed) drops an int seed's sign: -5 would replay seed 5's traffic.
@checked(fps=(1, LAST_EXACT_FRAME), rng_seed=(0, inf))
class TraceConfig(NamedTuple):
    """Everything needed to regenerate a trace bit-for-bit."""

    fps: int = 60
    duration_s: float = DEFAULT_DURATION_S
    segments: tuple[ScheduleSegment, ...] = default_segments()
    rng_seed: int = DEFAULT_SEED

    def _check(self) -> None:
        if not 0.0 < self.duration_s < inf:
            raise ValueError(f"duration_s must lie in (0, inf): {self.duration_s}")
        frames = self.fps * self.duration_s  # compared unrounded: it may be inf
        if frames > LAST_EXACT_FRAME:
            raise ValueError(f"fps * duration_s must not exceed {LAST_EXACT_FRAME}: {frames}")
        validate_segments(self.segments, self.duration_s)
        if self.total_frames == 0:
            raise ValueError("fps * duration_s rounds to 0 frames")

    @property
    def total_frames(self) -> int:
        return int(round(self.fps * self.duration_s))


def validate_segments(segments: Sequence[ScheduleSegment], duration_s: float) -> None:
    if not segments:
        raise InvalidSchedule("schedule needs at least one segment")
    if segments[0].start_s != 0.0:
        raise InvalidSchedule(f"first segment must start at 0, got {segments[0].start_s}", 0)
    for i, (before, after) in enumerate(zip(segments, segments[1:]), 1):
        if not after.start_s > before.start_s:
            raise InvalidSchedule("segment starts must be strictly increasing", i)
    for i, seg in enumerate(segments):
        if seg.start_s >= duration_s:
            raise InvalidSchedule(f"segment start {seg.start_s} beyond duration {duration_s}", i)


def _first_frame_at(t: float, fps: int) -> int:
    """Smallest frame index f whose clock f / fps has reached t."""
    f = max(0, math.ceil(t * fps))
    while f > 0 and (f - 1) / fps >= t:
        f -= 1
    while f / fps < t:
        f += 1
    return f


def generate_trace(config: TraceConfig) -> Generator[tuple[int, float], int | None, None]:
    """Each frame's (object_count, complexity), in frame order, drawn as it is read.

    A frame belongs to the last segment whose start its clock ``f / fps`` has
    reached. Its count is poisson around that segment's mean, by Knuth's
    method: how many uniforms keep their running product above the segment's
    threshold exp(-mean). Its complexity ramps linearly from the segment's
    value toward the next segment's (the last segment holds constant). No
    frame is stored: each call draws afresh from ``Random(rng_seed)``, so
    every pass yields the same frames and memory does not grow with the trace.

    ``next()`` reads the next frame. ``send(k)`` skips the next k frames and
    reads the frame after them: it draws the skipped frames' uniforms, each
    segment's with its own threshold, but yields none of them and computes no
    complexity for them. A skip past the last frame raises StopIteration; k < 0
    raises ValueError. No frame past the last one read is drawn.
    """
    fps = config.fps
    total = config.total_frames
    segments = config.segments
    random = Random(config.rng_seed).random
    f = skip = 0  # the next frame to draw, and how many frames to draw and discard
    for i, (start, mean, complexity) in enumerate(segments):
        if i + 1 < len(segments):
            end, target = segments[i + 1].start_s, segments[i + 1].complexity
            stop = min(total, _first_frame_at(end, fps))
        else:
            end, target, stop = config.duration_s, complexity, total
        step, width, threshold = target - complexity, end - start, math.exp(-mean)
        while f < stop:
            if skip:
                if skip < 0:
                    raise ValueError(f"cannot skip a negative number of frames: {skip}")
                resume = min(f + skip, stop)
                skip -= resume - f
                for _ in range(resume - f):
                    product = random()
                    while product > threshold:
                        product *= random()
                f = resume
                continue
            count = 0
            product = random()
            while product > threshold:
                count += 1
                product *= random()
            skip = yield count, complexity + step * ((f / fps - start) / width)
            f += 1


def synth_inference(
    object_count: int, complexity: float, profile: ModelProfile, rng: Random, floor: float
) -> tuple[list[float], float, float]:
    """Synthesize one inference pass over a frame of object_count objects at
    the given scene complexity: (confidences, cpu_usage_pct, inference_time_ms).

    Each scene object is found with probability ``detection_recall``. A found
    object's confidence is the profile's base degraded by scene complexity
    (factor 1 - 0.5 * complexity) plus gaussian noise, clamped to [0, 1], and
    kept only at or above ``floor``. Each found object, kept or not, also draws
    a class label index and four bbox uniforms, which no output reads, so only
    their draws are made. CPU usage is the profile's base plus a per-object
    term plus unit gaussian noise, clamped to [0, 100].
    """
    confidences: list[float] = []
    append = confidences.append
    random = rng.random
    getrandbits = rng.getrandbits
    # One unpack, in ModelProfile's field order, costs less than six reads by name.
    _, base_cpu, cpu_per_object, base_confidence, noise_sd, recall, _, inference_time_ms = profile
    degraded = base_confidence * (1.0 - 0.5 * complexity)
    for _ in range(object_count):
        if random() >= recall:
            continue
        # Box-Muller noise from two uniforms; 1 - random() lies in (0, 1], so the log is finite.
        u1 = 1.0 - random()
        u2 = random()
        conf = degraded + noise_sd * sqrt(-2.0 * log(u1)) * cos(_TWO_PI * u2)
        if conf < 0.0:
            conf = 0.0
        elif conf > 1.0:
            conf = 1.0
        if conf >= floor:
            append(conf)
        # The label index, drawn as randrange(_LABELS) draws it (rejection
        # sampling on getrandbits), and the bbox's w, h, x and y: drawn, never built.
        # Each random() consumes two 32-bit Mersenne Twister words, so the four
        # uniforms are the 8 words of one getrandbits(256) call.
        while getrandbits(_LABEL_BITS) >= _LABELS:
            pass
        getrandbits(256)
    # Unit Box-Muller noise, drawn the same way.
    u1 = 1.0 - random()
    u2 = random()
    cpu = base_cpu + cpu_per_object * object_count + sqrt(-2.0 * log(u1)) * cos(_TWO_PI * u2)
    if cpu < 0.0:
        cpu = 0.0
    elif cpu > 100.0:
        cpu = 100.0
    return confidences, cpu, inference_time_ms


def default_profiles() -> tuple[ModelProfile, ...]:
    """Four-model family, lightest first. Values are simulator calibration."""
    return (
        ModelProfile(
            model="ssd-mobilenet-v1",
            base_cpu_pct=14.0,
            cpu_per_object_pct=0.3,
            base_confidence=0.45,
            confidence_noise_sd=0.03,
            detection_recall=0.90,
            switch_latency_ms=300.0,
            inference_time_ms=40.0,
        ),
        ModelProfile(
            model="efficientdet-lite0",
            base_cpu_pct=17.0,
            cpu_per_object_pct=0.3,
            base_confidence=0.55,
            confidence_noise_sd=0.04,
            detection_recall=0.92,
            switch_latency_ms=800.0,
            inference_time_ms=55.0,
        ),
        ModelProfile(
            model="efficientdet-lite1",
            base_cpu_pct=20.0,
            cpu_per_object_pct=0.3,
            base_confidence=0.62,
            confidence_noise_sd=0.10,
            detection_recall=0.95,
            switch_latency_ms=950.0,
            inference_time_ms=70.0,
        ),
        ModelProfile(
            model="efficientdet-lite2",
            base_cpu_pct=24.0,
            cpu_per_object_pct=0.3,
            base_confidence=0.68,
            confidence_noise_sd=0.12,
            detection_recall=0.97,
            switch_latency_ms=1000.0,
            inference_time_ms=90.0,
        ),
    )


class SimConfig(NamedTuple):
    """Parsed experiment config: trace, model profiles, leftover sections."""

    trace: TraceConfig
    profiles: tuple[ModelProfile, ...]
    extras: dict[str, dict[str, str]]


class ConfigError(ValueError):
    """The experiment config could not be used."""


def read_section(
    section: str,
    raw: Mapping[str, str],
    cls: type,
    fixed: Mapping[str, Any] = {},
) -> Any:
    """Build the config NamedTuple cls from one INI section.

    The section's keys are the fields of cls but the ``fixed`` ones, and each
    value is parsed by calling its field's type, int or float (a nan or inf
    real parses, and its record refuses it). ``fixed`` holds values the
    caller supplies; entries naming no field of cls are ignored. Raises
    ConfigError naming the section (and the key, where there is one) for an
    unknown key, a missing required key, an unparsable value or a value that
    cls's own check rejects with ValueError.
    """
    hints = get_type_hints(cls)
    types = {name: hints[name] for name in cls._fields}
    parsed = {}
    for key, value in raw.items():
        if key not in types or key in fixed:
            raise ConfigError(f"[{section}] {key}: unknown key")
        kind = types[key]
        try:
            parsed[key] = kind(value)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: expected {kind.__name__}: {value!r}") from None
    merged = {**parsed, **fixed}
    kwargs = {key: value for key, value in merged.items() if key in types}
    for name in cls._fields:
        if name not in kwargs and name not in cls._field_defaults:
            raise ConfigError(f"[{section}] {name}: missing")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def parse_config(path: str) -> SimConfig:
    """Read trace settings and model profiles from an INI-style file.

    Recognized sections: ``[trace]`` (TraceConfig's fields but the segments),
    ``[segment.N]`` (ScheduleSegment's fields; N, an integer no other
    segment shares, orders them) and
    ``[model.<id>]`` (ModelProfile's fields but the id, all required). Any
    other section is passed through untouched for the caller. Missing
    sections fall back to the built-in defaults. Raises ConfigError, naming
    the section where there is one, on a malformed file, an unknown or
    missing key, an unparsable value, a value out of range or bytes that
    are not UTF-8, and ``OSError`` if the file cannot be read.
    """
    import configparser

    # Values are read as written (no %-interpolation), and [DEFAULT] is a plain section.
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    with open(path, "r", encoding="utf-8") as fh:
        # A duplicate section or key, a missing header, or bytes that are not UTF-8.
        try:
            parser.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(str(exc)) from None
    sections = {name: dict(parser[name]) for name in parser.sections()}

    numbered: dict[int, str] = {}
    for name in (name for name in sections if name.startswith("segment.")):
        try:
            number = int(name.split(".", 1)[1])
        except ValueError:
            raise ConfigError(f"[{name}]: N in [segment.N] must be an integer") from None
        if number in numbered:
            raise ConfigError(f"[{name}]: same segment number as [{numbered[number]}]")
        numbered[number] = name
    segment_names = [name for _, name in sorted(numbered.items())]
    segments = tuple(
        read_section(name, sections.pop(name), ScheduleSegment) for name in segment_names
    )
    profiles = tuple(
        read_section(name, sections.pop(name), ModelProfile, {"model": name.split(".", 1)[1]})
        for name in list(sections)
        if name.startswith("model.")
    )
    raw_trace = sections.pop("trace", {})
    try:
        trace = read_section(
            "trace", raw_trace, TraceConfig, {"segments": segments or default_segments()}
        )
    except InvalidSchedule as exc:
        if segments:
            raise ConfigError(f"[{segment_names[exc.position]}] {exc}") from exc
        # The built-in schedule only breaks when the file's duration_s ends it early.
        raise ConfigError(
            f"[trace] duration_s = {raw_trace['duration_s']} ends before the built-in"
            f" schedule's last segment starts at {default_segments()[-1].start_s} s;"
            " a shorter trace needs its own [segment.N] sections"
        ) from exc
    return SimConfig(trace=trace, profiles=profiles or default_profiles(), extras=sections)
