"""Deterministic workload simulator.

Generates a seeded traffic-camera trace (object density rises for a rush
segment, then falls back) and synthesizes per-frame inference results for
a given model profile. All randomness flows through ``random.Random``
(Mersenne Twister, a named and portable generator); gaussian and poisson
draws below are explicit transforms of its uniform output so a seed
reproduces the exact same trace on any platform.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from math import cos, log, sqrt
from random import Random
from typing import Any, Callable, Mapping, NamedTuple, Sequence, get_origin, get_type_hints

from modelswitch.domain import ModelId, checked

DEFAULT_FPS = 60
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

# Array type code of the stored object counts. Knuth's loop ends once the
# product of uniforms underflows, so no count comes near 2**32; a larger one
# would raise OverflowError on append rather than wrap.
COUNT_TYPECODE = "I"


class InvalidSchedule(Exception):
    """Density schedule does not cover the trace duration.

    ``position`` is the index of the offending segment, or None when the
    schedule has no segments at all.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


@checked
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
        if not 0.0 <= self.base_cpu_pct <= 100.0:
            raise ValueError(f"base_cpu_pct out of range: {self.base_cpu_pct}")
        # Each one-sided check is written so that nan fails it too.
        if not self.cpu_per_object_pct >= 0.0:
            raise ValueError(f"negative cpu_per_object_pct: {self.cpu_per_object_pct}")
        if not 0.0 <= self.base_confidence <= 1.0:
            raise ValueError(f"base_confidence out of range: {self.base_confidence}")
        if not self.confidence_noise_sd >= 0.0:
            raise ValueError(f"negative confidence_noise_sd: {self.confidence_noise_sd}")
        if not 0.0 <= self.detection_recall <= 1.0:
            raise ValueError(f"detection_recall out of range: {self.detection_recall}")
        if not self.switch_latency_ms >= 0.0:
            raise ValueError(f"negative switch_latency_ms: {self.switch_latency_ms}")
        if not self.inference_time_ms > 0.0:
            raise ValueError(f"inference_time_ms must be positive: {self.inference_time_ms}")


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


@checked
class TraceConfig(NamedTuple):
    """Everything needed to regenerate a trace bit-for-bit."""

    fps: int = DEFAULT_FPS
    duration_s: float = DEFAULT_DURATION_S
    segments: tuple[ScheduleSegment, ...] = default_segments()
    rng_seed: int = DEFAULT_SEED

    def _check(self) -> None:
        if self.fps <= 0:
            raise ValueError(f"fps must be positive: {self.fps}")
        if not self.duration_s > 0:
            raise ValueError(f"duration_s must be positive: {self.duration_s}")
        # Random(seed) drops an int seed's sign: -5 would replay seed 5's traffic.
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must not be negative: {self.rng_seed}")
        validate_segments(self.segments, self.duration_s)

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
        if not seg.mean_objects >= 0.0:
            raise InvalidSchedule(f"negative mean_objects: {seg.mean_objects}", i)
        # Knuth's method stops at exp(-mean): past a mean of about 708.4 that is subnormal
        # or 0, and the draws no longer follow the mean (800 and 1e6 both average 745).
        if math.exp(-seg.mean_objects) < sys.float_info.min:
            raise InvalidSchedule(f"mean_objects too large to draw: {seg.mean_objects}", i)
        if not 0.0 <= seg.complexity <= 1.0:
            raise InvalidSchedule(f"complexity out of range: {seg.complexity}", i)


def gaussian(rng: Random, mu: float = 0.0, sigma: float = 1.0) -> float:
    """One normal draw via the Box-Muller transform of two uniforms.

    Kept explicit (rather than ``Random.gauss``) so the draw sequence is
    pinned to documented arithmetic on ``Random.random`` output.
    """
    # 1 - random() lies in (0, 1], so the log is always finite.
    u1 = 1.0 - rng.random()
    u2 = rng.random()
    return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def _poisson_draws(rng: Random, mean: float, n: int) -> array:
    """n poisson draws via Knuth's product-of-uniforms method."""
    if mean < 0.0:
        raise ValueError(f"negative poisson mean: {mean}")
    threshold = math.exp(-mean)
    random = rng.random
    draws = array(COUNT_TYPECODE)
    append = draws.append
    for _ in range(n):
        count = 0
        product = random()
        while product > threshold:
            count += 1
            product *= random()
        append(count)
    return draws


def _first_frame_at(t: float, fps: int) -> int:
    """Smallest frame index f whose clock f / fps has reached t."""
    f = max(0, math.ceil(t * fps))
    while f > 0 and (f - 1) / fps >= t:
        f -= 1
    while f / fps < t:
        f += 1
    return f


class Trace:
    """A run's frames: the stored object count of each, and its complexity computed on read.

    ``fps`` is the frame rate the trace was drawn at; frame ``f`` arrives at
    ``f / fps`` seconds. Segment ``j`` covers the frames from ``bounds[j - 1]``
    (0 for the first) up to ``bounds[j]``; ``ramps[j]`` is its (start_s,
    complexity, step to the target complexity, width_s). Only ``reader``
    evaluates the complexity ramp, one frame at a time, so a frame nobody
    reads costs nothing beyond its count.
    """

    __slots__ = ("_counts", "fps", "_bounds", "_ramps")

    def __init__(
        self,
        counts: array,
        fps: int,
        bounds: list[int],
        ramps: list[tuple[float, float, float, float]],
    ):
        self._counts = counts
        self.fps = fps
        self._bounds = bounds
        self._ramps = ramps

    def __len__(self) -> int:
        return len(self._counts)

    def reader(self) -> Callable[[int], tuple[int, float]]:
        """A function from a frame index in [0, len) to that frame's (object_count, complexity).

        It builds no per-frame object beyond the pair; an index outside
        [0, len) raises IndexError.
        """
        counts, fps, bounds, ramps = self._counts, self.fps, self._bounds, self._ramps

        def frame(index: int) -> tuple[int, float]:
            if index < 0:
                raise IndexError(f"frame index out of range: {index}")
            count = counts[index]
            start, complexity, step, width = ramps[bisect_right(bounds, index)]
            return count, complexity + step * ((index / fps - start) / width)

        return frame


def generate_trace(config: TraceConfig) -> Trace:
    """Draw the seeded object counts of one run's frames.

    Object counts are poisson around the active segment's mean, drawn frame
    by frame in order; complexity ramps linearly from each segment's value
    toward the next segment's (the last segment holds constant). A frame
    belongs to the last segment whose start its clock ``f / fps`` has reached.
    """
    rng = Random(config.rng_seed)
    segments = config.segments
    total = config.total_frames
    counts = array(COUNT_TYPECODE)
    bounds: list[int] = []
    ramps = []
    for i, seg in enumerate(segments):
        if i + 1 < len(segments):
            end, target = segments[i + 1].start_s, segments[i + 1].complexity
            stop = min(total, _first_frame_at(end, config.fps))
            bounds.append(stop)
        else:
            end, target, stop = config.duration_s, seg.complexity, total
        counts.extend(_poisson_draws(rng, seg.mean_objects, stop - len(counts)))
        ramps.append((seg.start_s, seg.complexity, target - seg.complexity, end - seg.start_s))
    return Trace(counts, config.fps, bounds, ramps)


def synth_inference(
    object_count: int, complexity: float, profile: ModelProfile, rng: Random
) -> tuple[list[float], float, float]:
    """Synthesize one inference pass over a frame of object_count objects at
    the given scene complexity: (confidences, cpu_usage_pct, inference_time_ms).

    Each scene object is found with probability ``detection_recall``. A found
    object's confidence is the profile's base degraded by scene complexity
    (factor 1 - 0.5 * complexity) plus gaussian noise, clamped to [0, 1].
    Each found object also draws a class label index and four bbox uniforms,
    which no output reads, so only their draws are made. CPU usage is the
    profile's base plus a per-object term plus unit gaussian noise, clamped
    to [0, 100].
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
        # gaussian(rng, 0.0, noise_sd), inlined with the same operations in the same order.
        u1 = 1.0 - random()
        u2 = random()
        conf = degraded + (0.0 + noise_sd * sqrt(-2.0 * log(u1)) * cos(_TWO_PI * u2))
        if conf < 0.0:
            conf = 0.0
        elif conf > 1.0:
            conf = 1.0
        append(conf)
        # The label index, drawn as randrange(_LABELS) draws it (rejection
        # sampling on getrandbits), and the bbox's w, h, x and y: drawn, never built.
        # Each random() consumes two 32-bit Mersenne Twister words, so the four
        # uniforms are the 8 words of one getrandbits(256) call.
        while getrandbits(_LABEL_BITS) >= _LABELS:
            pass
        getrandbits(256)
    # gaussian(rng), inlined the same way.
    u1 = 1.0 - random()
    u2 = random()
    cpu = (
        base_cpu
        + cpu_per_object * object_count
        + (0.0 + 1.0 * sqrt(-2.0 * log(u1)) * cos(_TWO_PI * u2))
    )
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


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _bool(raw: str) -> bool:
    # configparser is imported here and in parse_config, not with the module:
    # a run without a config file never needs it.
    import configparser

    return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]


# How an INI value becomes its field's type: a float must be finite (inf
# overflows the arithmetic downstream, and a nan is refused here by its key
# rather than by a range check), a bool takes the words configparser knows
# (true/false, yes/no, on/off, 1/0), a tuple a comma list.
_PARSERS: dict[type, Callable[[str], Any]] = {
    int: int,
    float: _finite_float,
    bool: _bool,
    tuple: lambda raw: tuple(part.strip() for part in raw.split(",") if part.strip()),
}


def read_section(
    section: str,
    raw: Mapping[str, str],
    cls: type,
    fixed: Mapping[str, Any] = {},
    defaults: Mapping[str, Any] = {},
    overrides: Mapping[str, Any] = {},
) -> Any:
    """Build the config NamedTuple cls from one INI section.

    The section's keys are the fields of cls but the ``fixed`` ones, and each
    value is parsed by its field's type. The mappings hold values the caller
    supplies, and entries naming no field of cls are ignored: a section key
    wins over a default and loses to an override; a fixed field is no section
    key. Raises ConfigError naming the section (and the key, where there is
    one) for an unknown key, a missing required key, an unparsable value or a
    value that cls's own check rejects with ValueError.
    """
    hints = get_type_hints(cls)
    types = {name: hints[name] for name in cls._fields}
    parsed = {}
    for key, value in raw.items():
        if key not in types or key in fixed:
            raise ConfigError(f"[{section}] {key}: unknown key")
        kind = get_origin(types[key]) or types[key]
        try:
            parsed[key] = _PARSERS[kind](value)
        except (KeyError, ValueError):
            expected = "finite float" if kind is float else kind.__name__
            raise ConfigError(f"[{section}] {key}: expected {expected}: {value!r}") from None
    merged = {**defaults, **parsed, **overrides, **fixed}
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
    missing key, an unparsable value or a value out of range, and
    ``OSError`` if the file cannot be read.
    """
    import configparser

    # Values are read as written (no %-interpolation), and [DEFAULT] is a plain section.
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:  # a duplicate section or key, a missing header
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
