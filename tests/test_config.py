"""The INI schema: every key reaches what it configures, and nothing else is accepted."""

from __future__ import annotations

import configparser
import math
import sys
from pathlib import Path
from typing import get_type_hints

import pytest

from modelswitch import cli
from modelswitch.cli import STRATEGY_NAMES, ConfigError, main, run_experiment
from modelswitch.loop import EngineConfig
from modelswitch.planner import NaiveConfig, PlannerConfig, RoundRobinBoostConfig
from modelswitch.sim import ModelProfile, ScheduleSegment, TraceConfig, default_profiles

DEFAULT_INI = Path(__file__).resolve().parent.parent / "configs" / "default.ini"


def _trace(run):
    return run["trace"]


def _segment(run):
    return run["trace"].segments[1]


def _model(run):
    return run["repo"].get("efficientdet-lite0")


def _strategy(run):
    return run["strategy"].config


def _engine(run):
    return run["loop"]["engine"]


# (section, key, a legal non-default value, what it configures, the parsed value).
ROUND_TRIP = [
    ("trace", "fps", "30", _trace, 30),
    ("trace", "duration_s", "1500.5", _trace, 1500.5),
    ("segment.2", "start_s", "650", _segment, 650.0),
    ("segment.2", "mean_objects", "9.5", _segment, 9.5),
    ("segment.2", "complexity", "0.45", _segment, 0.45),
    ("model.efficientdet-lite0", "base_cpu_pct", "18.5", _model, 18.5),
    ("model.efficientdet-lite0", "cpu_per_object_pct", "0.25", _model, 0.25),
    ("model.efficientdet-lite0", "base_confidence", "0.5", _model, 0.5),
    ("model.efficientdet-lite0", "confidence_noise_sd", "0.05", _model, 0.05),
    ("model.efficientdet-lite0", "detection_recall", "0.8", _model, 0.8),
    ("model.efficientdet-lite0", "switch_latency_ms", "700", _model, 700.0),
    ("model.efficientdet-lite0", "inference_time_ms", "60", _model, 60.0),
    ("engine", "window_capacity", "12", _engine, 12),
    ("engine", "confidence_floor", "0.4", _engine, 0.4),
    ("epsilon-greedy", "epsilon", "0.3", _strategy, 0.3),
    ("epsilon-greedy", "decision_period", "5", _strategy, 5),
    ("naive", "cpu_high_threshold", "30", _strategy, 30.0),
    ("naive", "confidence_low_threshold", "0.2", _strategy, 0.2),
    ("round-robin-boost", "time_slice_frames", "25", _strategy, 25),
    ("round-robin-boost", "boost_period_frames", "300", _strategy, 300),
]


def _default_sections() -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser()
    parser.read(DEFAULT_INI, encoding="utf-8")
    return {name: dict(parser[name]) for name in parser.sections()}


def _write_ini(path: Path, sections: dict[str, dict[str, str]]) -> str:
    parser = configparser.ConfigParser()
    parser.read_dict(sections)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return str(path)


def _capture_run(monkeypatch, strategy: str, config: str) -> dict:
    """What run_experiment hands the loop, without running it."""
    run: dict = {}

    class Stop(Exception):
        pass

    def fake_run_loop(trace, repo, planner, **kwargs):
        run.update(trace=trace, repo=repo, strategy=planner, loop=kwargs)
        raise Stop

    monkeypatch.setattr(cli, "run_loop", fake_run_loop)
    with pytest.raises(Stop):
        # The run opens its CSV files before the loop starts, so they land beside the config.
        run_experiment(strategy, Path(config).parent / "out", config_path=config)
    return run


def test_round_trip_covers_the_whole_schema() -> None:
    keys = {(section.split(".")[0], key) for section, key, *_ in ROUND_TRIP}
    assert len(keys) == len(ROUND_TRIP) == 20
    in_default_ini = {
        (section.split(".")[0], key)
        for section, values in _default_sections().items()
        for key in values
    }
    assert keys == in_default_ini


# Each config record, and the fields of it that a run sets itself: no section sets one.
RECORDS = {
    ModelProfile: {"model"},
    ScheduleSegment: set(),
    TraceConfig: {"segments", "rng_seed"},
    EngineConfig: set(),
    PlannerConfig: {"rng_seed"},
    NaiveConfig: {"model_order"},
    RoundRobinBoostConfig: set(),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_a_section_key_is_only_ever_a_number(record) -> None:
    """read_section parses a value by calling its field's type, and bool("false") is
    True: a field a section sets must be an int or a float."""
    hints = get_type_hints(record)
    for field in record._fields:
        if field not in RECORDS[record]:
            assert hints[field] in (int, float), field


@pytest.mark.parametrize(
    "section, key, value, configured, expected",
    ROUND_TRIP,
    ids=[f"{section}-{key}" for section, key, *_ in ROUND_TRIP],
)
def test_each_key_reaches_what_it_configures(
    section, key, value, configured, expected, monkeypatch, tmp_path
) -> None:
    strategy = section if section in STRATEGY_NAMES else "epsilon-greedy"
    sections = _default_sections()
    before = _capture_run(monkeypatch, strategy, _write_ini(tmp_path / "before.ini", sections))
    sections[section][key] = value
    after = _capture_run(monkeypatch, strategy, _write_ini(tmp_path / "after.ini", sections))
    got = getattr(configured(after), key)
    assert got == expected and type(got) is type(expected)
    assert getattr(configured(before), key) != expected


SMALL = {
    "trace": {"fps": "20", "duration_s": "45"},
    "segment.1": {"start_s": "0", "mean_objects": "3", "complexity": "0.1"},
    "segment.2": {"start_s": "15", "mean_objects": "10", "complexity": "0.6"},
    "model.tiny": {
        "base_cpu_pct": "10",
        "cpu_per_object_pct": "0.2",
        "base_confidence": "0.5",
        "confidence_noise_sd": "0.05",
        "detection_recall": "0.9",
        "switch_latency_ms": "200",
        "inference_time_ms": "30",
    },
    "model.big": {
        "base_cpu_pct": "20",
        "cpu_per_object_pct": "0.3",
        "base_confidence": "0.7",
        "confidence_noise_sd": "0.05",
        "detection_recall": "0.95",
        "switch_latency_ms": "500",
        "inference_time_ms": "60",
    },
}

# (case id, section, key, value): each is added to SMALL, which runs as it is.
REJECTED = [
    ("unknown-section", "epsilon_greedy", "epsilon", "0.9"),
    ("trace-unknown-key", "trace", "frames_per_second", "30"),
    ("trace-rng-seed", "trace", "rng_seed", "5"),
    ("segment-unknown-key", "segment.2", "colour", "red"),
    ("model-unknown-key", "model.tiny", "extra", "1"),
    ("model-id-key", "model.tiny", "model", "other"),
    ("engine-unknown-key", "engine", "window_capcity", "0"),
    ("epsilon-greedy-unknown-key", "epsilon-greedy", "epsilonn", "0.2"),
    ("epsilon-greedy-rng-seed", "epsilon-greedy", "rng_seed", "4"),
    ("epsilon-greedy-exclude-best", "epsilon-greedy", "exclude_best", "true"),
    ("naive-model-order", "naive", "model_order", "tiny, big"),
    ("naive-unknown-key", "naive", "cpu_threshold", "20"),
    ("round-robin-boost-unknown-key", "round-robin-boost", "slice", "10"),
    ("trace-fps-not-a-number", "trace", "fps", "sixty"),
    ("engine-floor-not-a-number", "engine", "confidence_floor", "yes"),
]


def _run_main(strategy: str, config: str, out: Path, capsys) -> tuple[int, str]:
    code = main(["run", "--strategy", strategy, "--config", config, "--out", str(out)])
    return code, capsys.readouterr().err


def test_the_rejection_base_config_runs(tmp_path, capsys) -> None:
    config = _write_ini(tmp_path / "small.ini", SMALL)
    for strategy in STRATEGY_NAMES:
        assert _run_main(strategy, config, tmp_path / strategy, capsys)[0] == 0


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
@pytest.mark.parametrize(
    "section, key, value", [case[1:] for case in REJECTED], ids=[case[0] for case in REJECTED]
)
def test_bad_config_exits_one_before_writing(
    section, key, value, strategy, tmp_path, capsys
) -> None:
    sections = {name: dict(values) for name, values in SMALL.items()}
    sections.setdefault(section, {})[key] = value
    out = tmp_path / "out"
    config = _write_ini(tmp_path / "bad.ini", sections)
    code, err = _run_main(strategy, config, out, capsys)
    assert code == 1
    # Every case is an error in the file, so the message names the file.
    assert err.startswith(f"config error: {config}: [{section}]")
    assert not out.exists()


# (section, float key, non-finite value): one case per section kind, and every
# value that escaped as a traceback or ran silently before it was rejected. The
# value parses, and its record refuses it.
NON_FINITE = [
    ("trace", "duration_s", "nan"),
    ("segment.2", "start_s", "nan"),
    ("segment.2", "mean_objects", "nan"),
    ("model.tiny", "cpu_per_object_pct", "nan"),
    ("model.tiny", "confidence_noise_sd", "nan"),
    ("model.tiny", "switch_latency_ms", "inf"),
    ("engine", "confidence_floor", "-inf"),
    ("naive", "cpu_high_threshold", "Infinity"),
    ("epsilon-greedy", "epsilon", "NaN"),
]


@pytest.mark.parametrize(
    "section, key, value", NON_FINITE, ids=[f"{s}-{k}-{v}" for s, k, v in NON_FINITE]
)
def test_non_finite_float_exits_one_naming_section_and_key(
    section, key, value, tmp_path, capsys
) -> None:
    sections = {name: dict(values) for name, values in SMALL.items()}
    sections.setdefault(section, {})[key] = value
    out = tmp_path / "out"
    code, err = _run_main("naive", _write_ini(tmp_path / "bad.ini", sections), out, capsys)
    assert code == 1
    assert err.startswith("config error:")
    assert f"[{section}] {key} must lie in " in err
    assert not out.exists()


_PROFILE = default_profiles()[0]
_SEGMENT = ScheduleSegment(start_s=0.0, mean_objects=3.0, complexity=0.1)
# One second, so that fps at its top end still counts every frame exactly.
_TRACE = TraceConfig(fps=20, duration_s=1.0, segments=(_SEGMENT,), rng_seed=5)

# Every declared range, written out here so that a changed bound fails: (a
# record that builds, the field, its section in SMALL, low, high). A range is
# closed and holds finite values only, so an inf end is no value of it. The run
# sets the trace's seed, so its section is None: no file sets it.
RANGES = [
    (_PROFILE, "base_cpu_pct", "model.tiny", 0.0, 100.0),
    (_PROFILE, "cpu_per_object_pct", "model.tiny", 0.0, math.inf),
    (_PROFILE, "base_confidence", "model.tiny", 0.0, 1.0),
    (_PROFILE, "confidence_noise_sd", "model.tiny", 0.0, math.inf),
    (_PROFILE, "detection_recall", "model.tiny", 0.0, 1.0),
    (_PROFILE, "switch_latency_ms", "model.tiny", 0.0, math.inf),
    (_TRACE, "fps", "trace", 1, 2**53),
    (_TRACE, "rng_seed", None, 0, math.inf),
    (_SEGMENT, "start_s", "segment.2", 0.0, math.inf),
    (_SEGMENT, "mean_objects", "segment.2", 0.0, 708.3964185322641),
    (_SEGMENT, "complexity", "segment.2", 0.0, 1.0),
    (EngineConfig(), "window_capacity", "engine", 1, sys.maxsize),
    (EngineConfig(), "confidence_floor", "engine", 0.0, 1.0),
    (PlannerConfig(), "epsilon", "epsilon-greedy", 0.0, 1.0),
    (PlannerConfig(), "decision_period", "epsilon-greedy", 1, math.inf),
    (NaiveConfig(model_order=("a", "b")), "cpu_high_threshold", "naive", 0.0, 100.0),
    (NaiveConfig(model_order=("a", "b")), "confidence_low_threshold", "naive", 0.0, 1.0),
    (RoundRobinBoostConfig(), "time_slice_frames", "round-robin-boost", 1, math.inf),
    (RoundRobinBoostConfig(), "boost_period_frames", "round-robin-boost", 1, math.inf),
]
_RANGE_IDS = [f"{type(record).__name__}.{field}" for record, field, *_ in RANGES]


def _refused(low, high) -> list:
    """The values just past each finite end (the next int of an int range, the next
    float of a real one), a whole float inside an int range, then nan, inf and -inf."""
    if isinstance(low, int):
        past = [low - 1] + ([high + 1] if high < math.inf else []) + [float(low)]
    else:
        past = [math.nextafter(low, -math.inf), math.nextafter(high, math.inf)]
    return [*past, math.nan, math.inf, -math.inf]


def _range_message(field, low, high, value) -> str:
    """What a record says of a refused value: out of its range, or in an int range
    but no int."""
    if math.isfinite(value) and low <= value <= high:
        return f"{field} must be an integer: {value!r}"
    return f"{field} must lie in [{low}, {high}{']' if high < math.inf else ')'}: {value}"


@pytest.mark.parametrize("record, field, section, low, high", RANGES, ids=_RANGE_IDS)
def test_a_record_accepts_each_end_of_a_declared_range_and_nothing_past_it(
    record, field, section, low, high
) -> None:
    def build(value):
        return type(record)(**{**record._asdict(), field: value})

    for end in (low, high):
        if end < math.inf:
            assert getattr(build(end), field) == end
    for value in _refused(low, high):
        with pytest.raises(ValueError) as refused:
            build(value)
        assert str(refused.value) == _range_message(field, low, high, value)


@pytest.mark.parametrize("record, field, section, low, high", RANGES, ids=_RANGE_IDS)
def test_a_value_past_a_declared_range_exits_one_naming_section_and_key(
    record, field, section, low, high, tmp_path, capsys
) -> None:
    out = tmp_path / "out"
    for value in _refused(low, high):
        if section is None:
            # The seed is an argument, checked by load_experiment before the trace
            # record sees it, so its error names neither a file nor a section.
            with pytest.raises(ConfigError) as refused:
                run_experiment("naive", out, seed=value)
            assert str(refused.value) == f"seed must be an integer of at least 0: {value!r}"
            assert not out.exists()
            continue
        sections = {name: dict(values) for name, values in SMALL.items()}
        sections.setdefault(section, {})[field] = text = repr(value)
        config = _write_ini(tmp_path / "bad.ini", sections)
        code, err = _run_main("naive", config, out, capsys)
        assert code == 1
        # A real in an int field fails to parse before its record sees it.
        if isinstance(low, int) and not isinstance(value, int):
            message = f"{field}: expected int: {text!r}"
        else:
            message = _range_message(field, low, high, value)
        assert err == f"config error: {config}: [{section}] {message}\n"
        assert not out.exists()


def test_config_that_is_not_utf8_exits_one_naming_the_file(tmp_path, capsys) -> None:
    config = tmp_path / "bad.ini"
    config.write_bytes(b"[trace]\xff\nfps = 20\n")
    out = tmp_path / "out"
    code, err = _run_main("naive", str(config), out, capsys)
    assert code == 1
    assert err.startswith(f"config error: {config}: 'utf-8' codec can't decode byte 0xff")
    assert not out.exists()


@pytest.mark.parametrize("name", ["segment.one", "segment.01"])
def test_segment_number_must_be_a_new_integer(name, tmp_path, capsys) -> None:
    """[segment.one] has no number and [segment.01] repeats [segment.1]'s; either stops the run."""
    sections = {name: dict(values) for name, values in SMALL.items()}
    sections[name] = {**SMALL["segment.2"], "start_s": "5"}
    out = tmp_path / "out"
    code, err = _run_main("naive", _write_ini(tmp_path / "bad.ini", sections), out, capsys)
    assert code == 1
    assert err.startswith("config error:")
    assert f"[{name}]" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    [
        "[trace]\nfps = 20\n[trace]\nfps = 30\n",
        "fps = 20\n",
        "[segment.1]\nstart_s = 0\n",
        "[DEFAULT]\nfps = 30\n",
        "[naive]\ncpu_high_threshold = 2%0\n",
    ],
    ids=[
        "duplicate-section",
        "no-section-header",
        "missing-required-key",
        "default-section",
        "percent-sign",
    ],
)
def test_malformed_or_incomplete_file_exits_one(text, tmp_path, capsys) -> None:
    config = tmp_path / "bad.ini"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code, err = _run_main("naive", str(config), out, capsys)
    assert code == 1
    assert err.startswith("config error:")
    assert not out.exists()
