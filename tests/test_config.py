"""The INI schema: every key reaches what it configures, and nothing else is accepted."""

from __future__ import annotations

import configparser
from pathlib import Path

import pytest

from modelswitch import cli
from modelswitch.cli import STRATEGY_NAMES, main, run_experiment

DEFAULT_INI = Path(__file__).resolve().parent.parent / "configs" / "default.ini"

LADDER = "efficientdet-lite2, efficientdet-lite1, efficientdet-lite0, ssd-mobilenet-v1"


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
    ("trace", "rng_seed", "7", _trace, 7),
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
    ("epsilon-greedy", "exclude_best", "false", _strategy, False),
    ("naive", "cpu_high_threshold", "30", _strategy, 30.0),
    ("naive", "confidence_low_threshold", "0.2", _strategy, 0.2),
    ("naive", "model_order", LADDER, _strategy, tuple(LADDER.split(", "))),
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
    """What run_experiment hands the trace generator and the loop, without running either."""
    run: dict = {}

    class Stop(Exception):
        pass

    def fake_generate_trace(trace_config):
        run["trace"] = trace_config
        return []

    def fake_run_loop(trace, repo, planner, **kwargs):
        run.update(repo=repo, strategy=planner, loop=kwargs)
        raise Stop

    monkeypatch.setattr(cli, "generate_trace", fake_generate_trace)
    monkeypatch.setattr(cli, "run_loop", fake_run_loop)
    with pytest.raises(Stop):
        # The run opens its CSV files before the loop starts, so they land beside the config.
        run_experiment(strategy, Path(config).parent / "out", config_path=config)
    return run


def test_round_trip_covers_the_whole_schema() -> None:
    keys = {(section.split(".")[0], key) for section, key, *_ in ROUND_TRIP}
    assert len(keys) == len(ROUND_TRIP) == 23
    in_default_ini = {
        (section.split(".")[0], key)
        for section, values in _default_sections().items()
        for key in values
    }
    # model_order is the one key configs/default.ini leaves commented out.
    assert keys - in_default_ini == {("naive", "model_order")}
    assert in_default_ini <= keys


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
    "trace": {"fps": "20", "duration_s": "45", "rng_seed": "5"},
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
    ("segment-unknown-key", "segment.2", "colour", "red"),
    ("model-unknown-key", "model.tiny", "extra", "1"),
    ("model-id-key", "model.tiny", "model", "other"),
    ("engine-unknown-key", "engine", "window_capcity", "0"),
    ("epsilon-greedy-unknown-key", "epsilon-greedy", "epsilonn", "0.2"),
    ("epsilon-greedy-rng-seed", "epsilon-greedy", "rng_seed", "4"),
    ("naive-unknown-key", "naive", "cpu_threshold", "20"),
    ("round-robin-boost-unknown-key", "round-robin-boost", "slice", "10"),
    ("trace-fps-not-a-number", "trace", "fps", "sixty"),
    ("engine-floor-not-a-number", "engine", "confidence_floor", "yes"),
    ("epsilon-greedy-not-a-bool", "epsilon-greedy", "exclude_best", "maybe"),
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
    code, err = _run_main(strategy, _write_ini(tmp_path / "bad.ini", sections), out, capsys)
    assert code == 1
    assert err.startswith("config error:")
    assert f"[{section}]" in err
    assert not out.exists()


# (section, float key, non-finite value): one case per section kind, and every
# value that escaped as a traceback or ran silently before it was rejected.
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
    assert f"[{section}] {key}: expected finite float" in err
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
        "[naive]\nmodel_order = a%b\n",
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
