"""The README's library examples run as written, and its quick-start table is what
compare prints."""

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


def test_the_readme_has_python_examples() -> None:
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block-{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_python_block_runs(code, monkeypatch, tmp_path) -> None:
    # A block that writes a run directory writes it under tmp_path.
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})


def test_quick_start_table_is_what_compare_prints(tmp_path) -> None:
    """The three strategies at the defaults, compared as the quick start's commands do."""
    runs = {
        "epsilon-greedy": tmp_path / "eps",
        "naive": tmp_path / "naive",
        "round-robin-boost": tmp_path / "rrb",
    }
    for strategy, out in runs.items():
        run_experiment(strategy, out)
    assert QUICK_START_TABLE
    assert compare(list(runs.values())) + "\n" == QUICK_START_TABLE[1]
