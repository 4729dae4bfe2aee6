"""The executable spec in spec.py against the package, byte for byte.

Each example is a drawn config file: a trace of at most 300 frames cut into
1-4 segments whose starts fall on and off the frame grid, 1-4 model profiles
and every strategy's and the engine's settings, with a drawn seed.
``run_experiment`` runs it, and each of its three files must equal what
``spec.run`` makes of the same loaded experiment.
"""

from __future__ import annotations

import statistics
import tempfile
from pathlib import Path
from random import Random

import pytest
import spec
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_loop import _OFF_GRID

from modelswitch.cli import STRATEGY_NAMES, load_experiment, run_experiment

MAX_FRAMES = 300

# Model ids as a config file may name them: ".", "%" and non-ASCII included.
_MODEL_IDS = st.text(alphabet="abds09-_.%{}éß日µ", min_size=1, max_size=6)
_UNIT = st.floats(0.0, 1.0)


def _ini(sections: dict[str, dict[str, object]]) -> str:
    """The config file text of sections, each value written so that it reads back exactly."""
    def text(value: object) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, tuple):
            return ", ".join(value)
        return repr(value)

    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {text(value)}\n" for key, value in keys.items()) + "\n"
        for name, keys in sections.items()
    )


def _trace_sections(trace) -> dict[str, dict[str, object]]:
    """A TraceConfig's [trace] and [segment.N] sections."""
    sections: dict[str, dict[str, object]] = {
        "trace": {"fps": trace.fps, "duration_s": trace.duration_s}
    }
    for number, segment in enumerate(trace.segments, 1):
        sections[f"segment.{number}"] = segment._asdict()
    return sections


# A model's [model.<id>] keys: near the built-in calibration, where scores compete
# and windows fill, or anywhere in range, recall 0 and switch latency 0 included.
_CALIBRATED = st.fixed_dictionaries({
    "base_cpu_pct": st.floats(10.0, 30.0),
    "cpu_per_object_pct": st.just(0.3),
    "base_confidence": st.floats(0.4, 0.7),
    "confidence_noise_sd": st.floats(0.02, 0.15),
    "detection_recall": st.floats(0.85, 1.0),
    "switch_latency_ms": st.floats(0.0, 1000.0),
    "inference_time_ms": st.floats(30.0, 100.0),
})
_ANY_PROFILE = st.fixed_dictionaries({
    "base_cpu_pct": st.floats(0.0, 100.0),
    "cpu_per_object_pct": st.floats(0.0, 5.0),
    "base_confidence": _UNIT,
    "confidence_noise_sd": st.floats(0.0, 0.5),
    "detection_recall": st.one_of(st.just(0.0), _UNIT),
    "switch_latency_ms": st.one_of(st.just(0.0), st.floats(0.0, 3000.0)),
    "inference_time_ms": st.floats(1.0, 100.0),
})


@st.composite
def _configs(draw) -> dict[str, dict[str, object]]:
    fps = draw(st.integers(1, 60))
    duration_s = draw(st.floats(1.0 / fps, MAX_FRAMES / fps))
    frames = round(fps * duration_s)
    # Starts off the frame grid and on it (k / fps); two in one frame period leave the
    # segment between them without a frame.
    off_grid = st.floats(0.0, duration_s, exclude_min=True, exclude_max=True)
    on_grid = st.integers(1, frames).map(lambda k: k / fps)
    starts = draw(st.lists(st.one_of(off_grid, on_grid), max_size=3))
    if len(starts) >= 2 and draw(st.booleans()):
        k = draw(st.integers(0, frames - 1))
        a, b = draw(st.floats(0.05, 0.45)), draw(st.floats(0.55, 0.95))
        starts[:2] = [(k + a) / fps, (k + b) / fps]
    sections: dict[str, dict[str, object]] = {
        "trace": {"fps": fps, "duration_s": duration_s}
    }
    for number, start in enumerate(sorted({0.0, *(s for s in starts if s < duration_s)}), 1):
        sections[f"segment.{number}"] = {
            "start_s": start,
            "mean_objects": draw(st.floats(0.0, 20.0)),
            "complexity": draw(_UNIT),
        }
    models = draw(st.lists(_MODEL_IDS, min_size=1, max_size=4, unique=True))
    for model in models:
        sections[f"model.{model}"] = draw(st.one_of(_CALIBRATED, _ANY_PROFILE))
    sections["engine"] = {
        "window_capacity": draw(st.integers(1, 40)),
        "confidence_floor": draw(st.one_of(st.floats(0.0, 0.5), _UNIT)),
    }
    sections["epsilon-greedy"] = {
        "epsilon": draw(st.one_of(st.sampled_from([0.0, 1.0]), _UNIT)),
        "decision_period": draw(st.integers(1, 5)),
    }
    sections["naive"] = {
        "cpu_high_threshold": draw(st.floats(0.0, 100.0)),
        "confidence_low_threshold": draw(_UNIT),
    }
    # A switch of up to 3.3 s drops up to 198 frames at 60 fps: most slices are shorter.
    sections["round-robin-boost"] = {
        "time_slice_frames": draw(st.integers(1, 60)),
        "boost_period_frames": draw(st.integers(1, 200)),
    }
    return sections


def _model(base_cpu_pct: float) -> dict[str, object]:
    return {
        "base_cpu_pct": base_cpu_pct, "cpu_per_object_pct": 0.3, "base_confidence": 0.6,
        "confidence_noise_sd": 0.05, "detection_recall": 0.9, "switch_latency_ms": 1000.0,
        "inference_time_ms": 40.0,
    }


# The off-grid trace of test_loop, whose second segment holds no frame, with two
# models and a 1 s switch. Round-robin moves on at every frame, so it alternates and
# its drops jump frames 15 and 35, where segments begin; epsilon-greedy explores at
# every decision, and naive climbs once.
_OFF_GRID_SECTIONS = {
    **_trace_sections(_OFF_GRID),
    "model.a": _model(14.0),
    "model.b": _model(10.0),
    "epsilon-greedy": {"epsilon": 1.0},
    "naive": {"confidence_low_threshold": 1.0},
    "round-robin-boost": {"time_slice_frames": 1},
}


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
@settings(max_examples=200, deadline=None)
@given(sections=_configs(), seed=st.integers(0, 2**32))
@example(sections=_OFF_GRID_SECTIONS, seed=_OFF_GRID.rng_seed)
def test_the_spec_writes_run_experiments_bytes(strategy, sections, seed) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "run.ini", Path(tmp) / "run"
        config.write_text(_ini(sections), encoding="utf-8")
        run_experiment(strategy, out, config_path=str(config), seed=seed)
        expected = spec.run(load_experiment(str(config), seed), strategy)
        for name, data in expected.items():
            assert (out / name).read_bytes() == data, name


def test_gaussian_moments() -> None:
    rng = Random(11)
    draws = [spec.gaussian(rng, 2.0, 3.0) for _ in range(50_000)]
    assert statistics.fmean(draws) == pytest.approx(2.0, abs=0.05)
    assert statistics.stdev(draws) == pytest.approx(3.0, rel=0.02)
