"""Self-tests of the benchmark, on 30x shorter traces (smoke mode); they take seconds.

    python3 perfbench/selftest.py

They cover the layer wrappers (installed, recorded, restored), the metric
names and units against BENCHMARK.json, the output check (each invariant,
the workload self-checks and the pinned digests) on a seed other than the
default, the scaling of host times to the reference speed, and the refusal
to run without the program's sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 7


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def scratch_dir() -> Path:
    run.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT))


class SmokeRunTest(unittest.TestCase):
    """The whole benchmark, every workload, at a non-default seed."""

    def test_results_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        # long-trace is left out of BENCHMARK.json (see README.md) but still runs here.
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            done = run_bench("--smoke", "--seconds", "1", "--seed", str(SEED), "--trace", trace)
            self.assertEqual(done.returncode, 0, done.stderr)
            lines = done.stdout.splitlines()
            results = [json.loads(line) for line in lines if line.startswith("{")]
            self.assertEqual(len(results), len(workloads.WORKLOADS))
            self.assertTrue(lines[-1].startswith("{"))
            expected = {m["name"]: m["unit"] for m in spec[section]}
            for result in results:
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], done.stderr)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 2)
                self.assertEqual({m: v["unit"] for m, v in result["metrics"].items()}, expected)
                for name, value in result["metrics"].items():
                    self.assertRegex(name, METRIC_NAME)
                    self.assertLessEqual(len(name), 64)
                    self.assertIsInstance(value["value"], (int, float))
                    self.assertGreaterEqual(value["value"], 0, name)
                    if section == "end_to_end":
                        self.assertGreater(value["value"], 0, name)

    def test_refuses_to_run_without_the_sources(self):
        bare = scratch_dir()
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            done = run_bench("--workload", "paper-compare", "--seconds", "1", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn("{", done.stdout)
        finally:
            shutil.rmtree(bare)


class SpeedTest(unittest.TestCase):
    def test_scaling(self):
        ref = speed.REFERENCE_CHUNK_S
        self.assertAlmostEqual(speed.scaled(2.0, ref, ref), 2.0)
        # A machine running the loop at half speed ran the job at half speed too.
        self.assertAlmostEqual(speed.scaled(2.0, 1.5 * ref, 2.5 * ref), 1.0)
        self.assertGreater(speed.chunk_seconds(2), 0)


class TracerTest(unittest.TestCase):
    def snapshot(self) -> dict:
        owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "modelswitch"]
        owners += [v for m in list(owners) for v in vars(m).values() if isinstance(v, type)]
        return {(id(o), attr): value for o in owners for attr, value in list(vars(o).items())}

    def test_traced_operation_then_restore(self):
        workload = workloads.WORKLOADS["paper-compare"]
        before = self.snapshot()
        original = workloads.cli.run_experiment
        tracer = tracing.Tracer()
        out = scratch_dir()
        tracer.install()
        try:
            self.assertIsNot(workloads.cli.run_experiment, original)
            # The binding executor imported from sim is wrapped as well.
            executor = sys.modules["modelswitch.executor"]
            self.assertTrue(hasattr(executor.synth_inference, "__wrapped__"))
            config = workloads.write_config(workload, out, smoke=True)
            summaries = workloads.run_operation(workload, config, out / "op", SEED)
        finally:
            tracer.restore()
            shutil.rmtree(out)
        self.assertEqual(self.snapshot(), before)

        table = tracer.by_name()
        # One span per call: every decision and every synthesis is one span.
        decides = sum(calls for name, (calls, _, _) in table.items() if name.endswith(".decide"))
        self.assertEqual(decides, sum(s.decision_count for s in summaries))
        processed = sum(s.frames_processed for s in summaries)
        self.assertEqual(table["sim.synth_inference"][0], processed)
        self.assertEqual(table["cli.compare"][0], 1)
        roots = [i for i, parent in enumerate(tracer.span_parent) if parent < 0]
        root_busy = sum(tracer.span_end[i] - tracer.span_start[i] for i in roots)
        self.assertAlmostEqual(sum(own for _, _, own in table.values()), root_busy, places=6)
        for name, (calls, busy, own) in table.items():
            self.assertLessEqual(own, busy + 1e-9, name)
        metrics = tracing.layer_metrics(table)
        self.assertEqual(set(metrics), set(tracing.SPAN_METRICS))
        self.assertTrue(all(v > 0 for v in metrics.values()), metrics)


def edit_summary(key: str, delta: int):
    """An edit that adds delta to one key of the first summary.txt of an operation."""

    def edit(out_dir: Path) -> None:
        path = sorted(out_dir.glob("*/summary.txt"))[0]
        pairs = (line.partition("=") for line in path.read_text().splitlines())
        path.write_text("".join(f"{k}={int(v) + delta if k == key else v}\n" for k, _, v in pairs))

    return edit


class OutputCheckTest(unittest.TestCase):
    """Each invariant, self-check and digest is enforced by check_operation."""

    @classmethod
    def setUpClass(cls):
        cls.dir = scratch_dir()
        cls.good = {}
        for name, workload in workloads.WORKLOADS.items():
            config = workloads.write_config(workload, cls.dir, smoke=True)
            workloads.run_operation(workload, config, cls.dir / name, SEED)
            cls.good[name] = cls.dir / name

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir)

    def problems_after(self, workload: str, edit) -> list[str]:
        copy = self.dir / f"{workload}-edited"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(self.good[workload], copy)
        edit(copy)
        return workloads.check_operation(workloads.WORKLOADS[workload], copy, SEED, smoke=True)

    def test_unedited_outputs_pass(self):
        for name, workload in workloads.WORKLOADS.items():
            self.assertEqual(workloads.check_operation(workload, self.good[name], SEED, True), [])

    def test_each_invariant_is_checked(self):
        def drop_metrics_row(d):
            path = d / "naive/metrics.csv"
            path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))

        def reverse_clock(d):
            path = d / "naive/metrics.csv"
            lines = path.read_text().splitlines(keepends=True)
            lines[1], lines[2] = lines[2], lines[1]
            path.write_text("".join(lines))

        cases = [
            ("static-dense", drop_metrics_row, "metrics rows"),
            ("static-dense", reverse_clock, "sim_time_ms decreases"),
            ("static-dense", edit_summary("frames_dropped", 1), "+ dropped"),
            ("long-trace", edit_summary("switch_count", 1), "switch rows"),
            ("long-trace", edit_summary("usage_count.ssd-mobilenet-v1", 1), "usage counts"),
        ]
        for workload, edit, message in cases:
            with self.subTest(message):
                problems = self.problems_after(workload, edit)
                self.assertTrue(any(message in p for p in problems), problems)

    def test_workload_self_checks(self):
        def strip_lite2(d):
            for path in d.glob("*/summary.txt"):
                path.write_text(re.sub(r"usage_count\.efficientdet-lite2=\d+",
                                       "usage_count.efficientdet-lite2=0", path.read_text()))

        cases = [
            ("static-dense", edit_summary("switch_count", 1), "static-dense switched"),
            ("paper-compare", strip_lite2, "left models unused"),
            ("paper-compare", edit_summary("frames_dropped", -90000), "not all above 0.5"),
        ]
        for workload, edit, message in cases:
            with self.subTest(message):
                problems = self.problems_after(workload, edit)
                self.assertTrue(any(message in p for p in problems), problems)
        short = workloads.WORKLOADS["paper-compare"]
        long_as_short = workloads.Workload(name="long-trace", strategies=short.strategies)
        problems = workloads.check_operation(long_as_short, self.good["paper-compare"], SEED, True)
        self.assertTrue(any("not 10 x" in p for p in problems), problems)

    def test_digests_are_checked_at_the_default_seed(self):
        workload = workloads.WORKLOADS["static-dense"]
        problems = workloads.check_operation(
            workload, self.good["static-dense"], workloads.DEFAULT_SEED, smoke=False
        )
        files = workloads.output_files(workload)
        expected = [f"{rel}: digest differs from the pinned one" for rel in files]
        self.assertEqual(sorted(problems), sorted(expected))


if __name__ == "__main__":
    unittest.main()
