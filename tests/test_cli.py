from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from runfiles import load_events_csv, load_metrics_csv

from modelswitch import cli
from modelswitch.cli import (
    STRATEGY_NAMES,
    SUMMARY_FILENAME,
    ConfigError,
    RunSummary,
    build_strategy,
    compare,
    load_experiment,
    main,
    max_share,
    normalized_entropy,
    read_summary,
    run_experiment,
    run_experiments,
    run_on,
    write_summary,
)
from modelswitch.knowledge import (
    EVENTS_FILENAME,
    METRICS_FILENAME,
    IoFailure,
    ModelRepository,
)
from modelswitch.loop import EngineConfig
from modelswitch.planner import (
    EpsilonGreedyStrategy,
    NaiveThresholdStrategy,
    RoundRobinBoostStrategy,
)
from modelswitch.sim import TraceConfig, default_profiles, parse_config

DEFAULT_INI = Path(__file__).resolve().parent.parent / "configs" / "default.ini"

SMALL_CONFIG = """\
[trace]
fps = 20
duration_s = 45
rng_seed = 5

[segment.1]
start_s = 0
mean_objects = 3
complexity = 0.1

[segment.2]
start_s = 15
mean_objects = 10
complexity = 0.6

[segment.3]
start_s = 30
mean_objects = 3
complexity = 0.1
"""


@pytest.fixture()
def small_config(tmp_path) -> str:
    path = tmp_path / "small.ini"
    path.write_text(SMALL_CONFIG, encoding="utf-8")
    return str(path)


def _repo() -> ModelRepository:
    return ModelRepository(default_profiles())


def test_max_share_and_entropy_edges() -> None:
    assert max_share({}) == 0.0
    assert max_share({"a": 0.7, "b": 0.3}) == 0.7
    assert normalized_entropy({"a": 1.0}) == 1.0
    assert normalized_entropy({"a": 1.0, "b": 0.0}) == 0.0
    even = {"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25}
    assert normalized_entropy(even) == pytest.approx(1.0)


def test_build_strategy_constructs_each_kind() -> None:
    repo = _repo()
    strategy = build_strategy("epsilon-greedy", repo, {}, seed=3)
    assert isinstance(strategy, EpsilonGreedyStrategy)
    assert strategy.decision_period == 1
    strategy = build_strategy("naive", repo, {}, seed=3)
    assert isinstance(strategy, NaiveThresholdStrategy)
    assert strategy.config.model_order == repo.ids()
    strategy = build_strategy("round-robin-boost", repo, {}, seed=3)
    assert isinstance(strategy, RoundRobinBoostStrategy)


def test_build_strategy_rejects_unknown_name() -> None:
    with pytest.raises(ConfigError) as caught:
        build_strategy("simulated-annealing", _repo(), {}, seed=0)
    assert str(caught.value) == (
        "unknown strategy 'simulated-annealing';"
        " choose one of epsilon-greedy, naive, round-robin-boost"
    )


def test_build_strategy_rejects_bad_extras() -> None:
    with pytest.raises(ConfigError):
        build_strategy("epsilon-greedy", _repo(), {"epsilon-greedy": {"epsilon": "lots"}}, seed=0)
    with pytest.raises(ConfigError, match=r"^\[naive\] model_order: unknown key$"):
        build_strategy("naive", _repo(), {"naive": {"model_order": "a,b"}}, seed=0)
    with pytest.raises(ConfigError):
        build_strategy("epsilon-greedy", _repo(), {"epsilon-greedy": {"epsilon": "7"}}, seed=0)
    with pytest.raises(ConfigError, match=r"^\[naive\] model_order: unknown key$"):
        build_strategy("naive", _repo(), {"naive": {"model_order": " , "}}, seed=0)


def test_run_experiment_writes_a_complete_run_directory(small_config, tmp_path) -> None:
    out = tmp_path / "run"
    summary = run_experiment("epsilon-greedy", out, config_path=small_config)
    assert (out / METRICS_FILENAME).is_file()
    assert (out / EVENTS_FILENAME).is_file()
    assert (out / SUMMARY_FILENAME).is_file()
    assert summary.seed == 5  # the config's rng_seed
    assert summary.frames_total == 900


def test_run_summary_is_consistent_with_the_csv_files(small_config, tmp_path) -> None:
    out = tmp_path / "run"
    summary = run_experiment("epsilon-greedy", out, config_path=small_config)

    rows = load_metrics_csv(out / METRICS_FILENAME)
    assert len(rows) == summary.frames_processed
    assert sum(summary.usage_counts.values()) == summary.frames_processed
    cpu_mean = statistics.fmean(m.cpu_usage for _, m in rows)
    conf_mean = statistics.fmean(m.confidence_score for _, m in rows)
    # The CSV stores 4-decimal values, so allow a rounding-sized gap.
    assert cpu_mean == pytest.approx(summary.avg_cpu_pct, abs=1e-3)
    assert 100.0 * conf_mean == pytest.approx(summary.avg_confidence_pct, abs=1e-1)

    events = load_events_csv(out / EVENTS_FILENAME)
    switches = [e for e in events if e["event_type"] == "switch"]
    explores = [e for e in events if e["mode"] == "explore"]
    decisions = [e for e in events if e["event_type"] == "decision"]
    assert len(switches) == summary.switch_count
    assert len(explores) == summary.explore_count
    assert len(decisions) == summary.decision_count


def test_run_experiment_is_deterministic(small_config, tmp_path) -> None:
    first = tmp_path / "first"
    second = tmp_path / "second"
    run_experiment("round-robin-boost", first, config_path=small_config)
    run_experiment("round-robin-boost", second, config_path=small_config)
    assert (first / METRICS_FILENAME).read_bytes() == (second / METRICS_FILENAME).read_bytes()
    assert (first / EVENTS_FILENAME).read_bytes() == (second / EVENTS_FILENAME).read_bytes()


def test_run_experiment_seed_overrides_config(small_config, tmp_path) -> None:
    base = tmp_path / "base"
    reseeded = tmp_path / "reseeded"
    run_experiment("epsilon-greedy", base, config_path=small_config)
    summary = run_experiment("epsilon-greedy", reseeded, config_path=small_config, seed=99)
    assert summary.seed == 99
    assert (base / METRICS_FILENAME).read_bytes() != (reseeded / METRICS_FILENAME).read_bytes()


def test_zero_epsilon_run_never_explores(tmp_path) -> None:
    config = tmp_path / "greedy.ini"
    config.write_text(SMALL_CONFIG + "\n[epsilon-greedy]\nepsilon = 0\n", encoding="utf-8")
    summary = run_experiment("epsilon-greedy", tmp_path / "run", config_path=str(config))
    assert summary.explore_count == 0


def test_epsilon_flag_is_a_usage_error(small_config, tmp_path, capsys) -> None:
    """Epsilon is set in the config file only; the flag is refused, not ignored."""
    out = tmp_path / "out"
    argv = ["run", "--strategy", "naive", "--epsilon", "0.3", "--config", small_config]
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--out", str(out)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --epsilon 0.3" in capsys.readouterr().err
    assert not out.exists()


def test_one_experiment_serves_every_strategy(small_config, tmp_path) -> None:
    """run_on only reads the experiment, so runs sharing one write what separate runs write."""
    experiment = load_experiment(small_config, seed=11)
    for name in STRATEGY_NAMES:
        run_on(experiment, name, tmp_path / "shared" / name)
        run_experiment(name, tmp_path / "single" / name, config_path=small_config, seed=11)
    run_experiments(STRATEGY_NAMES, tmp_path / "loaded_once", config_path=small_config, seed=11)
    for name in STRATEGY_NAMES:
        for filename in (METRICS_FILENAME, EVENTS_FILENAME, SUMMARY_FILENAME):
            expected = (tmp_path / "single" / name / filename).read_bytes()
            assert (tmp_path / "shared" / name / filename).read_bytes() == expected
            assert (tmp_path / "loaded_once" / name / filename).read_bytes() == expected
    out = tmp_path / "bogus"
    with pytest.raises(ConfigError):
        run_on(experiment, "bogus", out)
    unknown = r"^unknown strategy 'bogus'; choose one of epsilon-greedy, naive, round-robin-boost$"
    with pytest.raises(ConfigError, match=unknown):
        run_experiment("bogus", out, config_path=small_config)
    with pytest.raises(ConfigError):
        run_experiments(["naive", "bogus"], out, config_path=small_config)
    assert not out.exists()


def test_run_experiments_refuses_a_strategy_listed_twice(small_config, tmp_path) -> None:
    """A second run into out/naive would overwrite the first; nothing is written."""
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=r"^strategy 'naive' listed twice$"):
        run_experiments(["naive", "round-robin-boost", "naive"], out, config_path=small_config)
    assert not out.exists()


def test_run_experiment_builds_only_the_strategy_it_runs(
    small_config, tmp_path, monkeypatch
) -> None:
    class Unbuildable:
        def __init__(self, config):
            raise AssertionError(f"built for a naive run: {config}")

    for name in ("epsilon-greedy", "round-robin-boost"):
        monkeypatch.setitem(cli.STRATEGIES, name, (cli.STRATEGIES[name][0], Unbuildable))
    assert run_experiment("naive", tmp_path / "run", config_path=small_config).strategy == "naive"


def test_a_bad_unused_section_fails_every_strategy_with_one_message(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.ini"
    bad.write_text(SMALL_CONFIG + "\n[round-robin-boost]\ntime_slice_frames = 0\n", encoding="utf-8")
    for name in STRATEGY_NAMES:
        out = tmp_path / name
        assert main(["run", "--strategy", name, "--config", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: {bad}: [round-robin-boost] time_slice_frames must lie in [1, inf): 0\n"
        )
        assert not out.exists()


_FLOAT_FIELDS = ("avg_cpu_pct", "avg_confidence_pct", "avg_switch_time_s", "cumulative_switch_time_s")


def _assert_read_back(read: RunSummary, written: RunSummary) -> None:
    """Ints, strings and the per-model key order come back exactly; floats to the 6 decimals kept."""

    def exact(summary: RunSummary) -> RunSummary:
        return summary._replace(
            **dict.fromkeys(_FLOAT_FIELDS),
            usage_counts=list(summary.usage_counts.items()),
            usage_shares=list(summary.usage_shares),
        )

    assert exact(read) == exact(written)
    for field in _FLOAT_FIELDS:
        assert getattr(read, field) == pytest.approx(getattr(written, field), abs=1e-6), field
    assert list(read.usage_shares.values()) == pytest.approx(
        list(written.usage_shares.values()), abs=1e-6
    )


def test_summary_file_round_trip(small_config, tmp_path) -> None:
    out = tmp_path / "run"
    summary = run_experiment("naive", out, config_path=small_config)
    written = (out / SUMMARY_FILENAME).read_bytes()
    read = read_summary(out / SUMMARY_FILENAME)
    _assert_read_back(read, summary)

    rewritten = tmp_path / "copy.txt"
    write_summary(summary, rewritten)
    assert rewritten.read_bytes() == written
    write_summary(read, rewritten)
    assert rewritten.read_bytes() == written


# Model ids as a config file may name them: ".", "%" and non-ASCII included,
# but none of the line breaks, "," or "=" that the output files cannot hold.
_MODEL_IDS = st.text(alphabet="ab09-_.%éß日µ", min_size=1, max_size=8)
_COUNTS = st.one_of(st.just(0), st.integers(1, 10**9))
_FIGURES = st.floats(0.0, 1e6)


@st.composite
def _summaries(draw) -> RunSummary:
    models = draw(st.lists(_MODEL_IDS, min_size=1, max_size=4, unique=True))
    return RunSummary(
        strategy=draw(st.sampled_from(STRATEGY_NAMES)),
        seed=draw(st.integers(0, 2**63)),
        frames_total=draw(_COUNTS),
        frames_processed=draw(_COUNTS),
        frames_dropped=draw(_COUNTS),
        decision_count=draw(_COUNTS),
        explore_count=draw(_COUNTS),
        switch_count=draw(_COUNTS),
        avg_cpu_pct=draw(_FIGURES),
        avg_confidence_pct=draw(_FIGURES),
        avg_switch_time_s=draw(_FIGURES),
        cumulative_switch_time_s=draw(_FIGURES),
        usage_counts={model: draw(_COUNTS) for model in models},
        usage_shares={model: draw(st.floats(0.0, 1.0)) for model in models},
    )


@settings(max_examples=200, deadline=None)
@given(summary=_summaries())
def test_summary_written_read_and_written_again_keeps_every_byte(summary) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.txt", Path(tmp) / "second.txt"
        write_summary(summary, first)
        read = read_summary(first)
        write_summary(read, second)
        assert second.read_bytes() == first.read_bytes()
    _assert_read_back(read, summary)


def test_compare_lists_runs_in_stable_order(small_config, tmp_path) -> None:
    dirs = []
    for name in STRATEGY_NAMES:
        out = tmp_path / name
        run_experiment(name, out, config_path=small_config)
        dirs.append(out)

    report = compare(list(dirs))
    assert "approach" in report and "battery (mAh)" in report
    assert "n/a" in report
    assert "fairness (usage distribution):" in report
    for name in STRATEGY_NAMES:
        assert name in report
    # Row order comes from the summaries, not the argument order.
    assert report == compare(list(reversed(dirs)))
    lines = report.splitlines()
    assert lines[1].startswith("epsilon-greedy")
    assert lines[2].startswith("naive")
    assert lines[3].startswith("round-robin-boost")


def test_compare_needs_at_least_two_runs(tmp_path) -> None:
    with pytest.raises(ConfigError):
        compare([tmp_path])


def test_compare_refuses_one_run_directory_listed_twice(small_config, tmp_path, capsys) -> None:
    done = tmp_path / "done"
    other = tmp_path / "other"
    run_experiment("naive", done, config_path=small_config)
    run_experiment("round-robin-boost", other, config_path=small_config)
    report = tmp_path / "report.txt"
    # The same directory by another spelling is the same run.
    again = other / ".." / "done"
    assert main(["compare", str(done), str(other), str(again), "--out", str(report)]) == 1
    assert capsys.readouterr() == ("", f"config error: compare lists run directory {done} twice\n")
    assert not report.exists()


def test_compare_rejects_missing_or_incomplete_runs(small_config, tmp_path) -> None:
    done = tmp_path / "done"
    run_experiment("naive", done, config_path=small_config)
    never_ran = tmp_path / "never-ran"
    with pytest.raises(IoFailure) as caught:
        compare([done, never_ran])
    assert str(caught.value) == f"{never_ran / SUMMARY_FILENAME}: missing"

    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / SUMMARY_FILENAME).write_text("strategy=naive\n", encoding="utf-8")
    with pytest.raises(IoFailure):
        compare([done, broken])

    # Every key is required, and a bad line is named by its key.
    lines = (done / SUMMARY_FILENAME).read_text(encoding="utf-8").splitlines()
    keys = [line.partition("=")[0] for line in lines]
    cases = [(key, lines[:i] + lines[i + 1:], "missing") for i, key in enumerate(keys)]
    cases += [
        (key, lines[:i] + [f"{key}=x"] + lines[i + 1:], "unparsable value 'x'")
        for i, key in enumerate(keys)
        if key != "strategy"  # any text is a strategy name
    ]
    cases.append(("colour", lines + ["colour=red"], "unknown key"))
    # An empty model id would add a model that no run has.
    cases += [(f"{prefix}.", lines + [f"{prefix}.=0"], "unknown key")
              for prefix in ("usage_count", "usage_share")]
    # A repeated key is refused rather than read twice, the last value winning.
    cases += [(key, lines + [line], "repeated") for key, line in zip(keys, lines)]
    for key, edited, problem in cases:
        (broken / SUMMARY_FILENAME).write_text("\n".join(edited) + "\n", encoding="utf-8")
        with pytest.raises(IoFailure) as caught:
            compare([done, broken])
        assert str(caught.value) == f"{broken / SUMMARY_FILENAME}: {key}: {problem}"


def test_compare_over_a_summary_that_is_not_utf8_exits_two(
    small_config, tmp_path, capsys
) -> None:
    done = tmp_path / "done"
    run_experiment("naive", done, config_path=small_config)
    broken = tmp_path / "broken"
    broken.mkdir()
    summary = broken / SUMMARY_FILENAME
    summary.write_bytes((done / SUMMARY_FILENAME).read_bytes().replace(b"naive", b"na\xffve"))
    assert main(["compare", str(done), str(broken)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"i/o error: {summary}: 'utf-8' codec can't decode byte 0xff")


# Every drawn config follows this header: its 2 s at the default 60 fps are at most
# 120 frames, and a drawn [trace] or [segment.1] repeats a section, a config error.
_DRAWN_CONFIG_HEADER = (
    b"[trace]\nduration_s = 2\n\n[segment.1]\nstart_s = 0\nmean_objects = 3\ncomplexity = 0.1\n"
)
_BOM = b"\xef\xbb\xbf"
# Bytes that are not UTF-8: a stray continuation byte, a lone lead byte, an
# encoded surrogate, an overlong slash and a byte no UTF-8 text holds.
_BAD_UTF8 = [b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf", b"\xff"]
_INI_FRAGMENTS = [
    b"\n", b"\r\n", b"[", b"]", b" = ", b"=", b":", b"%", b"#", b";", b"\x00", b"nan", b"-1",
    b"[trace]\n", b"[segment.1]\n", b"[DEFAULT]\n", b"[unknown]\n", b"fps = 30\n",
    b"[segment.2]\nstart_s = 1\nmean_objects = 12\ncomplexity = 0.6\n",
    b"[segment.x]\n", b"start_s = 0\n",
    b"[model.tiny]\nbase_cpu_pct = 10\ncpu_per_object_pct = 0.2\nbase_confidence = 0.5\n"
    b"confidence_noise_sd = 0.05\ndetection_recall = 0.9\nswitch_latency_ms = 300\n"
    b"inference_time_ms = 40\n",
    b"[model.a,b]\n", b"[engine]\nwindow_capacity = 5\n", b"confidence_floor = 2\n",
    b"[epsilon-greedy]\nepsilon = 0.5\n", b"[naive]\nmodel_order = tiny\n",
    b"[round-robin-boost]\ntime_slice_frames = 7\n",
]
_FRAGMENTS = st.one_of(
    st.binary(max_size=16), st.sampled_from(_BAD_UTF8 + _INI_FRAGMENTS + [_BOM])
)


def _main_quietly(argv: list[str]) -> tuple[int, str]:
    """main's exit code and stderr; hypothesis refuses capsys, a per-test fixture."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_failure_surface(code: int, err: str) -> None:
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("config error: ")
    elif code == 2:
        assert err.startswith("i/o error: ")


@settings(max_examples=100, deadline=None)
@given(
    strategy=st.sampled_from(STRATEGY_NAMES),
    prefix=st.sampled_from([b"", _BOM]),
    drawn=st.lists(_FRAGMENTS, max_size=8).map(b"".join),
)
def test_run_over_drawn_config_bytes_exits_0_1_or_2(strategy, prefix, drawn) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "drawn.ini", Path(tmp) / "out"
        config.write_bytes(prefix + _DRAWN_CONFIG_HEADER + drawn)
        code, err = _main_quietly(
            ["run", "--strategy", strategy, "--config", str(config), "--out", str(out)]
        )
        _assert_failure_surface(code, err)
        if code == 1:
            assert not out.exists()


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("completed")
    config = root / "short.ini"
    config.write_bytes(_DRAWN_CONFIG_HEADER)
    run_experiment("naive", root / "run", config_path=str(config))
    return root / "run"


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_compare_over_drawn_summary_bytes_exits_0_1_or_2(completed_run, data) -> None:
    """The completed run's summary.txt with up to three lines replaced or inserted: a
    drawn line is one of its own lines (a repeat) or fragment bytes (b"" drops one)."""
    lines = (completed_run / SUMMARY_FILENAME).read_bytes().splitlines(keepends=True)
    line = st.one_of(st.sampled_from(lines), _FRAGMENTS)
    edits = st.tuples(st.integers(0, len(lines)), line, st.booleans())
    for at, drawn, replace in data.draw(st.lists(edits, max_size=3)):
        lines[at:at + replace] = [drawn]
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / SUMMARY_FILENAME).write_bytes(b"".join(lines))
        _assert_failure_surface(*_main_quietly(["compare", str(completed_run), tmp]))


def test_main_run_and_compare_round_trip(small_config, tmp_path, capsys) -> None:
    first = tmp_path / "eps"
    second = tmp_path / "naive"
    assert main(["run", "--strategy", "epsilon-greedy", "--config", small_config,
                 "--out", str(first)]) == 0
    assert main(["run", "--strategy", "naive", "--config", small_config,
                 "--out", str(second)]) == 0
    out = capsys.readouterr().out
    assert "strategy:" in out and "usage shares:" in out

    report_path = tmp_path / "report.txt"
    assert main(["compare", str(first), str(second), "--out", str(report_path)]) == 0
    printed = capsys.readouterr().out
    assert "fairness (usage distribution):" in printed
    assert report_path.read_text(encoding="utf-8").rstrip("\n") in printed


def test_main_reports_config_errors_as_exit_one(tmp_path) -> None:
    bad = tmp_path / "bad.ini"
    bad.write_text(
        "[trace]\nduration_s = 10\n"
        "[segment.1]\nstart_s = 50\nmean_objects = 1\ncomplexity = 0.1\n",
        encoding="utf-8",
    )
    code = main(
        ["run", "--strategy", "naive", "--config", str(bad), "--out", str(tmp_path / "out")]
    )
    assert code == 1


def test_main_rejects_a_trace_with_no_frames(tmp_path, capsys) -> None:
    bad = tmp_path / "empty.ini"
    bad.write_text(
        "[trace]\nfps = 60\nduration_s = 0.001\n"
        "[segment.1]\nstart_s = 0\nmean_objects = 3\ncomplexity = 0.1\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = main(["run", "--strategy", "naive", "--config", str(bad), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"config error: {bad}: [trace] ")
    assert not out.exists()


def test_main_names_duration_s_when_it_cuts_the_built_in_schedule_short(tmp_path, capsys) -> None:
    short = tmp_path / "short.ini"
    short.write_text("[trace]\nduration_s = 10\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", "--strategy", "naive", "--config", str(short), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"config error: {short}: [trace] duration_s = 10 ends before the built-in schedule's"
        " last segment starts at 1200.0 s; a shorter trace needs its own [segment.N] sections\n"
    )
    assert not out.exists()


def test_main_names_the_trace_section_of_a_trace_value_out_of_range(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.ini"
    bad.write_text(SMALL_CONFIG.replace("fps = 20", "fps = 0"), encoding="utf-8")
    code = main(["run", "--strategy", "naive", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"config error: {bad}: [trace] fps must lie in [1, 9007199254740992]: 0\n"


def test_main_rejects_a_mean_objects_too_large_to_draw(tmp_path, capsys) -> None:
    bad = tmp_path / "dense.ini"
    bad.write_text(SMALL_CONFIG.replace("mean_objects = 10", "mean_objects = 800"), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", "--strategy", "naive", "--config", str(bad), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "mean_objects" in err
    assert not out.exists()


def test_main_rejects_a_negative_seed_before_writing_anything(tmp_path, capsys) -> None:
    """Random drops an int seed's sign: --seed -1 would replay seed 1's traffic."""
    config = tmp_path / "small.ini"
    config.write_text(SMALL_CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", "--strategy", "naive", "--config", str(config), "--out", str(out)]
    assert main([*argv, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "config error: [trace] rng_seed must lie in [0, inf): -1\n"
    with pytest.raises(ConfigError, match=r"^\[trace\] rng_seed must lie in \[0, inf\): -5$"):
        run_experiment("naive", out, seed=-5)
    assert not out.exists()


@pytest.mark.parametrize("seed", [True, 5.0])
def test_run_experiment_refuses_a_seed_that_is_no_int(seed, tmp_path) -> None:
    """summary.txt would carry seed=True or seed=5.0, which read_summary refuses."""
    out = tmp_path / "out"
    with pytest.raises(ConfigError) as refused:
        run_experiment("naive", out, seed=seed)
    assert str(refused.value) == f"[trace] rng_seed must be an integer: {seed!r}"
    assert not out.exists()


def test_main_names_the_trace_section_of_a_negative_rng_seed(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.ini"
    bad.write_text(SMALL_CONFIG.replace("rng_seed = 5", "rng_seed = -1"), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--strategy", "naive", "--config", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: {bad}: [trace] rng_seed must lie in [0, inf): -1\n"
    assert not out.exists()


_NO_FRAMES = (
    "[trace]\nfps = 60\nduration_s = 0.001\n"
    "[segment.1]\nstart_s = 0\nmean_objects = 3\ncomplexity = 0.1\n"
)


# (file text, extra flags, message after "config error: "): an error in the file
# names the file ({path}), and an error in a flag names none.
@pytest.mark.parametrize(
    "text, flags, message",
    [
        (SMALL_CONFIG + "\n[bogus]\nx = 1\n", [], "{path}: [bogus]: unknown section"),
        (SMALL_CONFIG + "\n[engine]\nextra = 1\n", [], "{path}: [engine] extra: unknown key"),
        (
            SMALL_CONFIG + "\n[naive]\ncpu_high_threshold = 200\n",
            [],
            "{path}: [naive] cpu_high_threshold must lie in [0.0, 100.0]: 200.0",
        ),
        (
            SMALL_CONFIG + "\n[epsilon-greedy]\nepsilon = 2\n",
            [],
            "{path}: [epsilon-greedy] epsilon must lie in [0.0, 1.0]: 2.0",
        ),
        (_NO_FRAMES, [], "{path}: [trace] fps * duration_s rounds to 0 frames"),
        (SMALL_CONFIG, ["--seed", "-1"], "[trace] rng_seed must lie in [0, inf): -1"),
    ],
    ids=["section", "key", "value", "epsilon-key", "no-frames", "seed-flag"],
)
def test_main_names_the_file_of_an_error_in_the_file_only(
    text, flags, message, tmp_path, capsys
) -> None:
    config = tmp_path / "experiment.ini"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", "--strategy", "epsilon-greedy", "--config", str(config), "--out", str(out)]
    assert main([*argv, *flags]) == 1
    assert capsys.readouterr().err == f"config error: {message.format(path=config)}\n"
    assert not out.exists()


# A trace the float clock cannot count: a 400-digit fps overflowed the frame
# search with a traceback, and 1e300 s began drawing 6e301 Poisson counts. Each
# is refused while the experiment loads, before a frame is drawn.
@pytest.mark.parametrize(
    "fps, duration_s",
    [(10**400, 45), (20, 1e300), (2**53, 1e300)],
    ids=["fps-400-digits", "duration_s-1e300", "fps-2**53-duration_s-1e300"],
)
def test_a_trace_the_float_clock_cannot_count_is_refused(
    fps, duration_s, tmp_path, capsys
) -> None:
    config = tmp_path / "huge.ini"
    text = SMALL_CONFIG.replace("fps = 20", f"fps = {fps}")
    config.write_text(text.replace("duration_s = 45", f"duration_s = {duration_s}"))
    with pytest.raises(ConfigError) as refused:
        load_experiment(str(config))
    assert str(refused.value).startswith(f"{config}: [trace] ")
    out = tmp_path / "out"
    assert main(["run", "--strategy", "naive", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {refused.value}\n"
    assert not out.exists()


def test_main_runs_seed_zero(tmp_path) -> None:
    config = tmp_path / "small.ini"
    config.write_text(SMALL_CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", "--strategy", "naive", "--config", str(config), "--seed", "0", "--out", str(out)]
    assert main(argv) == 0
    assert read_summary(out / SUMMARY_FILENAME).seed == 0


def _segment(number: int, start_s: float, mean_objects: float = 3, complexity: float = 0.1) -> str:
    return (
        f"[segment.{number}]\nstart_s = {start_s}\n"
        f"mean_objects = {mean_objects}\ncomplexity = {complexity}\n"
    )


# One case per validate_segments failure, and one per range a segment refuses
# itself. The sections are written out of order, so the named one must come
# from the segment numbers, not the file.
@pytest.mark.parametrize(
    "segments, section, message",
    [
        (_segment(3, 1), "segment.3", "first segment must start at 0"),
        (_segment(9, 5) + _segment(1, 0) + _segment(4, 5), "segment.9", "strictly increasing"),
        (_segment(7, 50) + _segment(1, 0), "segment.7", "segment start 50.0 beyond duration"),
        (_segment(2, 5, mean_objects=-1) + _segment(1, 0), "segment.2", "mean_objects must lie in"),
        (_segment(2, 5, mean_objects=800) + _segment(1, 0), "segment.2", "mean_objects must lie in"),
        (_segment(1, 0) + _segment(5, 5, complexity=1.5), "segment.5", "complexity must lie in"),
    ],
)
def test_main_names_the_segment_that_breaks_the_schedule(
    segments, section, message, tmp_path, capsys
) -> None:
    bad = tmp_path / "schedule.ini"
    bad.write_text("[trace]\nduration_s = 10\n" + segments, encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", "--strategy", "naive", "--config", str(bad), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {bad}: [{section}] ")
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "engine",
    [
        "window_capacity = 0",
        "window_capacity = -3",
        # Above sys.maxsize: no deque can be that long.
        "window_capacity = 10000000000000000000000",
        pytest.param(f"window_capacity = {10**399}", id="window_capacity = 10**399"),
        "confidence_floor = 5",
        "confidence_floor = -0.1",
        "confidence_floor = nan",
    ],
)
def test_main_rejects_out_of_range_engine_settings(engine, tmp_path, capsys) -> None:
    bad = tmp_path / "bad.ini"
    bad.write_text(SMALL_CONFIG + f"\n[engine]\n{engine}\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", "--strategy", "naive", "--config", str(bad), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"config error: {bad}: [engine] ")
    assert not out.exists()


def test_main_accepts_engine_settings_at_their_limits(tmp_path) -> None:
    config = tmp_path / "edge.ini"
    config.write_text(
        SMALL_CONFIG + "\n[engine]\nwindow_capacity = 1\nconfidence_floor = 1\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["run", "--strategy", "naive", "--config", str(config), "--out", str(out)]) == 0
    assert (out / SUMMARY_FILENAME).is_file()


def _model_section(model_id: str, switch_latency_ms: float = 300) -> str:
    return (
        f"\n[model.{model_id}]\nbase_cpu_pct = 14\ncpu_per_object_pct = 0.3\n"
        "base_confidence = 0.6\nconfidence_noise_sd = 0.05\ndetection_recall = 0.9\n"
        f"switch_latency_ms = {switch_latency_ms}\ninference_time_ms = 40\n"
    )


def test_a_switch_too_long_to_count_drops_only_the_frames_left(tmp_path, capsys) -> None:
    """A 1e300 ms switch drops more frames than sys.maxsize; the run clamps the drop
    to the frames the trace has left and ends."""
    config = tmp_path / "slow.ini"
    config.write_text(
        "[trace]\nfps = 60\nduration_s = 2\n" + _segment(1, 0)
        + _model_section("light") + _model_section("heavy", switch_latency_ms=1e300)
        # No confidence reaches 1, so naive steps up to the heavier model.
        + "\n[naive]\nconfidence_low_threshold = 1\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["run", "--strategy", "naive", "--config", str(config), "--out", str(out)]) == 0
    assert "frames processed:   2 of 120" in capsys.readouterr().out
    summary = read_summary(out / SUMMARY_FILENAME)
    assert summary.switch_count == 1
    assert summary.frames_processed + summary.frames_dropped == summary.frames_total == 120


def _slow_switch_config(fps: int, switch_latency_ms: float) -> str:
    """A 1 s trace whose naive run switches from light to heavy at frame 1."""
    return (
        f"[trace]\nfps = {fps}\nduration_s = 1\n" + _segment(1, 0)
        + _model_section("light") + _model_section("heavy", switch_latency_ms)
        + "\n[naive]\nconfidence_low_threshold = 1\n"
    )


def test_a_switch_whose_drop_overflows_to_inf_ends_the_run_at_once(tmp_path) -> None:
    """At fps 2**53 a 1e300 ms switch drops inf frames by the float product: the run
    clamps that to the frames left and ends without drawing any of them. Drawing
    them would take years, so the run has its own process and a timeout."""
    config = tmp_path / "fast.ini"
    config.write_text(_slow_switch_config(2**53, 1e300), encoding="utf-8")
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "modelswitch.cli", "run", "--strategy", "naive",
         "--config", str(config), "--out", str(out)],
        capture_output=True, env=env, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert f"frames processed:   2 of {2**53}" in done.stdout
    summary = read_summary(out / SUMMARY_FILENAME)
    assert summary.switch_count == 1
    assert summary.frames_dropped == 2**53 - 2


def test_main_refuses_a_switch_latency_whose_jittered_cost_overflows(tmp_path, capsys) -> None:
    """1.7e308 ms is finite, but a switch costs up to 10% more, which is not."""
    config = tmp_path / "slow.ini"
    config.write_text(_slow_switch_config(60, 1.7e308), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", "--strategy", "naive", "--config", str(config), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {config}: [model.heavy] switch_latency_ms ")
    assert not out.exists()


def test_main_writes_a_model_id_holding_a_percent_sign(tmp_path) -> None:
    """A metrics row is formatted with %; the id's own % must come out as is."""
    config = tmp_path / "odd.ini"
    config.write_text(SMALL_CONFIG + _model_section("odd%id"), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--strategy", "naive", "--config", str(config), "--out", str(out)]) == 0
    rows = (out / METRICS_FILENAME).read_text(encoding="utf-8").splitlines()[1:]
    assert rows
    assert all(row.split(",")[2] == "odd%id" for row in rows)


# A "," would split a CSV row and an "=" a summary.txt line.
@pytest.mark.parametrize("model_id", ["a=b", "c,d"])
def test_main_rejects_a_model_id_that_breaks_the_output_files(model_id, tmp_path, capsys) -> None:
    config = tmp_path / "odd.ini"
    config.write_text(SMALL_CONFIG + _model_section(model_id), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", "--strategy", "naive", "--config", str(config), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {config}: [model.{model_id}] ")
    assert not out.exists()


def test_default_ini_matches_the_built_in_defaults() -> None:
    config = parse_config(str(DEFAULT_INI))
    assert config.trace == TraceConfig()
    assert config.profiles == default_profiles()
    engine = config.extras["engine"]
    assert int(engine["window_capacity"]) == EngineConfig().window_capacity
    assert float(engine["confidence_floor"]) == EngineConfig().confidence_floor
    repo = ModelRepository(config.profiles)
    for name in STRATEGY_NAMES:
        from_file = build_strategy(name, repo, config.extras, seed=1)
        built_in = build_strategy(name, repo, {}, seed=1)
        assert from_file.config == built_in.config
        assert from_file.decision_period == built_in.decision_period


@pytest.mark.parametrize("profile", default_profiles(), ids=lambda profile: profile.model)
def test_a_static_config_holds_one_default_model(profile) -> None:
    """configs/static/<id>.ini is one default model alone, so no strategy can switch."""
    experiment = load_experiment(str(DEFAULT_INI.parent / "static" / f"{profile.model}.ini"))
    assert experiment.repo.ids() == (profile.model,)
    assert experiment.repo.get(profile.model) == profile
    assert experiment.trace == TraceConfig()


def test_main_reports_io_errors_as_exit_two(tmp_path) -> None:
    code = main(
        [
            "run",
            "--strategy",
            "naive",
            "--config",
            str(tmp_path / "missing.ini"),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 2


def test_module_entry_point_runs_without_warnings() -> None:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "modelswitch.cli", "--help"],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0
    assert done.stderr == b""


# Run in a fresh interpreter without site (-S), so that only the import
# under test loads modules. It prints the start-up-heavy modules the import
# left loaded, then the modules a short run_experiment loaded on top of it.
_IMPORT_PROBE = """
import sys
import modelswitch.cli
print(sorted({"dataclasses", "inspect", "argparse", "configparser"} & set(sys.modules)))
import configparser  # the config file below needs it
before = set(sys.modules)
modelswitch.cli.run_experiment("epsilon-greedy", sys.argv[2], config_path=sys.argv[1])
print(sorted(set(sys.modules) - before))
"""


def test_importing_the_cli_loads_no_start_up_heavy_module(tmp_path) -> None:
    config = tmp_path / "short.ini"
    config.write_text("[trace]\nduration_s = 2\n\n[segment.1]\nstart_s = 0\n"
                      "mean_objects = 3\ncomplexity = 0.1\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_PROBE, str(config), str(tmp_path / "run")],
        capture_output=True,
        env=env,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    heavy, loaded_by_run = done.stdout.splitlines()
    assert heavy == "[]"
    # What a run needs is imported with the package, not on first use, so its
    # cost shows as start-up and not inside a run.
    assert loaded_by_run == "[]"
