"""Experiment runner and report generator.

``run`` drives one strategy over the simulated workload and leaves a run
directory with metrics.csv, events.csv and summary.txt (flat key=value).
``compare`` lines several completed runs up side by side and adds two
fairness figures (max usage share, normalized Shannon entropy).
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from typing import Any, Iterable, NamedTuple, Sequence, get_args, get_type_hints

from modelswitch.knowledge import (
    EVENTS_FILENAME,
    METRICS_FILENAME,
    IoFailure,
    LogRegistry,
    ModelRepository,
    read_lines,
    write_text,
)
from modelswitch.loop import EngineConfig, run_loop
from modelswitch.planner import (
    EpsilonGreedyStrategy,
    NaiveConfig,
    NaiveThresholdStrategy,
    PlannerConfig,
    RoundRobinBoostConfig,
    RoundRobinBoostStrategy,
    SelectionStrategy,
)
from modelswitch.sim import (
    DEFAULT_SEED,
    ConfigError,
    SimConfig,
    TraceConfig,
    default_profiles,
    parse_config,
    read_section,
)

SUMMARY_FILENAME = "summary.txt"
ENGINE_SECTION = "engine"

# Strategy name -> (config class, strategy class); the name is also the
# config section the strategy's settings come from.
STRATEGIES: dict[str, tuple[type, type[SelectionStrategy]]] = {
    "epsilon-greedy": (PlannerConfig, EpsilonGreedyStrategy),
    "naive": (NaiveConfig, NaiveThresholdStrategy),
    "round-robin-boost": (RoundRobinBoostConfig, RoundRobinBoostStrategy),
}
STRATEGY_NAMES = tuple(STRATEGIES)

BATTERY_PLACEHOLDER = "n/a"


class RunSummary(NamedTuple):
    """Aggregate outcome of one run, and the contract of summary.txt.

    Each field is one ``key=value`` line, in field order, written and parsed
    by its annotated type; a float is written with 6 decimals. A per-model
    field is one line per model instead, keyed by its SUMMARY_PREFIXES prefix
    and the model id.
    """

    strategy: str
    seed: int
    frames_total: int
    frames_processed: int
    frames_dropped: int
    decision_count: int
    explore_count: int
    switch_count: int
    avg_cpu_pct: float
    avg_confidence_pct: float
    avg_switch_time_s: float
    cumulative_switch_time_s: float
    usage_counts: dict[str, int]
    usage_shares: dict[str, float]


# Per-model RunSummary field -> the prefix of its summary.txt keys.
SUMMARY_PREFIXES = {"usage_counts": "usage_count.", "usage_shares": "usage_share."}
# RunSummary field -> the type of its value, or of each model's value in a per-model field.
_SUMMARY_TYPES = {
    field: get_args(hint)[-1] if field in SUMMARY_PREFIXES else hint
    for field, hint in get_type_hints(RunSummary).items()
}


def max_share(shares: dict[str, float]) -> float:
    """Largest usage share; 0.0 for an empty distribution."""
    return max(shares.values(), default=0.0)


def normalized_entropy(shares: dict[str, float]) -> float:
    """Shannon entropy of the usage distribution scaled to [0, 1].

    1.0 is perfectly even usage over all models, 0.0 is everything on one
    model. A single-model distribution is trivially even, so 1.0.
    """
    if len(shares) <= 1:
        return 1.0
    h = -sum(p * math.log(p) for p in shares.values() if p > 0.0)
    return h / math.log(len(shares))


def summarize(
    registry: LogRegistry, frames_total: int, strategy: str, seed: int, model_ids: tuple[str, ...]
) -> RunSummary:
    """Read one run's reported aggregates off the totals its registry folded; every
    frame of the trace that was not processed was dropped."""
    usage_counts = {m: registry.usage_counts.get(m, 0) for m in model_ids}
    processed = sum(usage_counts.values())
    usage_shares = {
        m: (count / processed if processed else 0.0) for m, count in usage_counts.items()
    }
    switches = registry.switch_count
    cumulative_ms = registry.cumulative_switch_time_ms
    return RunSummary(
        strategy=strategy,
        seed=seed,
        frames_total=frames_total,
        frames_processed=processed,
        frames_dropped=frames_total - processed,
        decision_count=registry.decision_count,
        explore_count=registry.explore_count,
        switch_count=switches,
        avg_cpu_pct=registry.cpu_total / processed if processed else 0.0,
        avg_confidence_pct=100.0 * registry.confidence_total / processed if processed else 0.0,
        avg_switch_time_s=(cumulative_ms / switches if switches else 0.0) / 1000.0,
        cumulative_switch_time_s=cumulative_ms / 1000.0,
        usage_counts=usage_counts,
        usage_shares=usage_shares,
    )


def write_summary(summary: RunSummary, path: Path) -> None:
    lines = []
    for field, value in zip(RunSummary._fields, summary):
        text = "{:.6f}".format if _SUMMARY_TYPES[field] is float else str
        items = value.items() if field in SUMMARY_PREFIXES else [("", value)]
        lines += (f"{SUMMARY_PREFIXES.get(field, field)}{model}={text(v)}" for model, v in items)
    write_text(path, "\n".join(lines) + "\n")


def read_summary(path: Path) -> RunSummary:
    """Parse a summary.txt back; IoFailure names the path and the first key
    that is missing, unknown, repeated or unparsable."""
    if not path.is_file():
        raise IoFailure(path, "missing")
    lines = read_lines(path)
    per_model = {prefix: field for field, prefix in SUMMARY_PREFIXES.items()}
    values: dict[str, Any] = {field: {} for field in SUMMARY_PREFIXES}
    seen = set()
    for key, _, text in (line.partition("=") for line in lines if line):
        head, dot, model = key.partition(".")
        field = per_model.get(head + dot, key)
        # A per-model key needs a model id after its prefix; no other key has one.
        if field not in _SUMMARY_TYPES or (field in SUMMARY_PREFIXES) != bool(model):
            raise IoFailure(path, f"{key}: unknown key")
        if key in seen:
            raise IoFailure(path, f"{key}: repeated")
        seen.add(key)
        try:
            value = _SUMMARY_TYPES[field](text)
        except ValueError:
            raise IoFailure(path, f"{key}: unparsable value {text!r}") from None
        if model:
            values[field][model] = value
        else:
            values[field] = value
    # Every per-model field covers every model that any of them names.
    models = dict.fromkeys(model for field in SUMMARY_PREFIXES for model in values[field])
    missing = [field for field in RunSummary._fields if field not in values]
    missing += [p + m for f, p in SUMMARY_PREFIXES.items() for m in models if m not in values[f]]
    if missing:
        raise IoFailure(path, f"{missing[0]}: missing")
    return RunSummary(**values)


class Experiment(NamedTuple):
    """A loaded and checked experiment. Each strategy's config is checked, not built."""

    seed: int
    trace: TraceConfig
    repo: ModelRepository
    engine: EngineConfig
    strategies: dict[str, Any]


def _check_strategy_name(name: str, choices: Iterable[str] = STRATEGY_NAMES) -> None:
    if name not in choices:
        raise ConfigError(f"unknown strategy {name!r}; choose one of {', '.join(choices)}")


def _strategy_config(
    name: str, repo: ModelRepository, extras: dict[str, dict[str, str]], seed: int
) -> Any:
    """Read and check a strategy's section. The planner draws from the trace seed + 1,
    and naive's ladder is the repository order."""
    fixed = {"rng_seed": seed + 1, "model_order": repo.ids()}
    return read_section(name, extras.get(name, {}), STRATEGIES[name][0], fixed)


def build_strategy(
    name: str, repo: ModelRepository, extras: dict[str, dict[str, str]], seed: int
) -> SelectionStrategy:
    """Construct the named strategy from its section, read as load_experiment reads it."""
    _check_strategy_name(name)
    return STRATEGIES[name][1](_strategy_config(name, repo, extras, seed))


def load_experiment(config_path: str | None = None, seed: int | None = None) -> Experiment:
    """Load and check a config, each strategy's section included; seed, when given,
    beats the file's. An error in the file names the file; an error in seed, checked
    first, names none."""
    if seed is not None:
        read_section("trace", {}, TraceConfig, {"rng_seed": seed})
    # With no file the built-in defaults stand, and they pass every check below.
    try:
        if config_path is None:
            sim_config = SimConfig(trace=TraceConfig(), profiles=default_profiles(), extras={})
        else:
            sim_config = parse_config(config_path)
        extras = sim_config.extras
        unknown = sorted(set(extras) - {ENGINE_SECTION, *STRATEGIES})
        if unknown:
            raise ConfigError(f"[{unknown[0]}]: unknown section")
        seed = seed if seed is not None else sim_config.trace.rng_seed
        # _replace skips TraceConfig's checks; a given seed was checked above.
        trace_config = sim_config.trace._replace(rng_seed=seed)
        repo = ModelRepository(sim_config.profiles)
        engine = read_section(ENGINE_SECTION, extras.get(ENGINE_SECTION, {}), EngineConfig)
        strategies = {n: _strategy_config(n, repo, extras, seed) for n in STRATEGIES}
    except OSError as exc:
        raise IoFailure(config_path, exc) from exc
    except ConfigError as exc:
        raise ConfigError(f"{config_path}: {exc}") from exc
    return Experiment(seed, trace_config, repo, engine, strategies)


def run_on(experiment: Experiment, strategy: str, out_dir: Path | str) -> RunSummary:
    """Run one strategy over the experiment's trace into out_dir. The experiment is only
    read, so one may serve several runs; the strategy is built anew each run, as it keeps
    RNG and rank state, and each run draws the trace afresh."""
    _check_strategy_name(strategy, experiment.strategies)
    planner = STRATEGIES[strategy][1](experiment.strategies[strategy])
    out = Path(out_dir)
    summary_path = out / SUMMARY_FILENAME
    try:
        out.mkdir(parents=True, exist_ok=True)
        # A summary left by an earlier run would vouch for the rows written below.
        summary_path.unlink(missing_ok=True)
        with (
            open(out / METRICS_FILENAME, "w", encoding="utf-8", newline="") as metrics_out,
            open(out / EVENTS_FILENAME, "w", encoding="utf-8", newline="") as events_out,
        ):
            registry = LogRegistry(metrics_out, events_out)
            run_loop(
                experiment.trace, experiment.repo, planner,
                registry=registry, inference_seed=experiment.seed + 2, engine=experiment.engine,
            )
    except OSError as exc:  # a write error carries no file name; the run directory stands in
        raise IoFailure(exc.filename or out, exc) from exc
    summary = summarize(
        registry, experiment.trace.total_frames, strategy, experiment.seed, experiment.repo.ids()
    )
    write_summary(summary, summary_path)
    return summary


def run_experiment(
    strategy: str, out_dir: Path | str, config_path: str | None = None, seed: int | None = None
) -> RunSummary:
    """Run one strategy end to end; writes CSVs plus summary.txt to out_dir."""
    return run_on(load_experiment(config_path, seed), strategy, out_dir)


def run_experiments(
    strategies: Sequence[str],
    out_root: Path | str,
    config_path: str | None = None,
    seed: int | None = None,
) -> list[RunSummary]:
    """Load one experiment and run each of strategies into out_root/<name>; an unknown
    or repeated name stops it before any run."""
    experiment = load_experiment(config_path, seed)
    for name in strategies:
        _check_strategy_name(name)
        if strategies.count(name) > 1:
            raise ConfigError(f"strategy {name!r} listed twice")
    return [run_on(experiment, name, Path(out_root) / name) for name in strategies]


def format_run_summary(summary: RunSummary) -> str:
    lines = [
        f"strategy:           {summary.strategy} (seed {summary.seed})",
        f"frames processed:   {summary.frames_processed} of {summary.frames_total}"
        f" ({summary.frames_dropped} dropped during switches)",
        f"decisions:          {summary.decision_count} ({summary.explore_count} explore)",
        f"switches:           {summary.switch_count}"
        f" (avg {summary.avg_switch_time_s:.3f} s per switch)",
        f"avg cpu:            {summary.avg_cpu_pct:.2f} %",
        f"avg confidence:     {summary.avg_confidence_pct:.2f} %",
        "usage shares:",
    ]
    for model, share in summary.usage_shares.items():
        lines.append(f"  {model:<24} {summary.usage_counts[model]:>8}  {share:7.2%}")
    return "\n".join(lines)


def compare(run_dirs: list[Path | str]) -> str:
    """Side-by-side report over completed runs; row order is deterministic."""
    if len(run_dirs) < 2:
        raise ConfigError("compare needs at least two run directories")
    resolved = [Path(run_dir).resolve() for run_dir in run_dirs]
    for run_dir, path in zip(run_dirs, resolved):
        if resolved.count(path) > 1:
            raise ConfigError(f"compare lists run directory {run_dir} twice")
    summaries = sorted(
        (read_summary(Path(run_dir) / SUMMARY_FILENAME) for run_dir in run_dirs),
        key=lambda summary: (summary.strategy, summary.seed),
    )
    header = ("approach", "frames processed", "avg cpu (%)", "avg accuracy (%)",
              "avg switch time (s)", "battery (mAh)")
    table = [header]
    for summary in summaries:
        table.append((
            summary.strategy,
            str(summary.frames_processed),
            f"{summary.avg_cpu_pct:.2f}",
            f"{summary.avg_confidence_pct:.2f}",
            f"{summary.avg_switch_time_s:.3f}",
            BATTERY_PLACEHOLDER,
        ))
    widths = [max(len(line[col]) for line in table) for col in range(len(header))]
    rendered = []
    for line in table:
        rendered.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
    rendered.append("")
    rendered.append("fairness (usage distribution):")
    for summary in summaries:
        shares = summary.usage_shares
        rendered.append(
            f"  {summary.strategy:<20} max-share={max_share(shares):.4f}"
            f"  entropy={normalized_entropy(shares):.4f}"
        )
    return "\n".join(rendered)


def main(argv: list[str] | None = None) -> int:
    # Imported here, not with the module: run_experiment and the library never parse arguments.
    import argparse

    parser = argparse.ArgumentParser(
        prog="modelswitch",
        description="Adaptive model switching over a simulated inference workload.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one strategy and write a run directory")
    run_parser.add_argument("--strategy", required=True, choices=STRATEGY_NAMES)
    run_parser.add_argument("--config", default=None, help="INI experiment config")
    run_parser.add_argument("--seed", type=int, default=None, help=f"default {DEFAULT_SEED}")
    run_parser.add_argument("--out", required=True, help="run output directory")

    cmp_parser = sub.add_parser("compare", help="compare completed run directories")
    cmp_parser.add_argument("run_dirs", nargs="+", help="at least two run directories")
    cmp_parser.add_argument("--out", default=None, help="also write the report here")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            summary = run_experiment(args.strategy, args.out, args.config, args.seed)
            print(format_run_summary(summary))
        else:
            report = compare(args.run_dirs)
            print(report)
            if args.out:
                write_text(args.out, report + "\n")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (IoFailure, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
