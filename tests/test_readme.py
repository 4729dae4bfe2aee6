"""The README's library examples run as written, and its quick-start and static-baseline
tables are what compare prints."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from modelswitch.cli import compare, run_experiment

README = Path(__file__).resolve().parent.parent / "README.md"

TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
# The plain block that follows the quick start's commands.
QUICK_START_TABLE = re.search(
    r"^## Quick start\n.*?^```sh\n.*?^```\n.*?^```\n(.*?)^```$", TEXT, re.M | re.S
)
# The plain block that follows the static baselines' compare command.
STATIC_TABLE = re.search(
    r"^## Static baselines\n.*?^```sh\n.*?^```\n.*?^```sh\n.*?^```\n.*?^```\n(.*?)^```$",
    TEXT,
    re.M | re.S,
)
STATIC_CONFIGS = README.parent / "configs" / "static"


def test_the_readme_has_python_examples() -> None:
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block-{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_python_block_runs(code, monkeypatch, tmp_path) -> None:
    # A block that writes a run directory writes it under tmp_path.
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})


@pytest.fixture(scope="module")
def quick_start_runs(tmp_path_factory) -> list[Path]:
    """The three strategies at the defaults, run as the quick start's commands run them."""
    runs = tmp_path_factory.mktemp("runs")
    dirs = {"eps": "epsilon-greedy", "naive": "naive", "rrb": "round-robin-boost"}
    for name, strategy in dirs.items():
        run_experiment(strategy, runs / name)
    return [runs / name for name in dirs]


def test_quick_start_table_is_what_compare_prints(quick_start_runs) -> None:
    assert QUICK_START_TABLE
    assert compare(quick_start_runs) + "\n" == QUICK_START_TABLE[1]


def test_static_baselines_table_is_what_compare_prints(quick_start_runs) -> None:
    """Each static config run as naive beside the quick start's runs, compared as
    `compare runs/eps runs/naive runs/rrb runs/static-*` compares them."""
    static = []
    for config in sorted(STATIC_CONFIGS.glob("*.ini")):
        static.append(quick_start_runs[0].parent / f"static-{config.stem}")
        run_experiment("naive", static[-1], config_path=str(config))
    assert STATIC_TABLE
    assert compare([*quick_start_runs, *static]) + "\n" == STATIC_TABLE[1]
