"""Self-test of the benchmark harness at tiny size.

    python3 perfbench/selftest.py

Checks that every metric in BENCHMARK.json is printed with its unit for each
workload, that a wrong answer and a timed-out op are counted as failed, and
that the benchmark refuses to run where the program's source is missing.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import graphgen as gg  # noqa: E402
from harness import call_with_limit, run_closed_loop  # noqa: E402
from run import WORKLOAD_NAMES, score  # noqa: E402
from workloads import DESK_GRAPHS, DeckBuild, DeskSweep, Item  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class MetricsPrinted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for name in WORKLOAD_NAMES:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    proc = run_bench("--workload", name, "--seed", "5", "--seconds", "0.3",
                                     "--trace", trace, "--tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    text = "\n".join(lines[:-2])
                    for metric, unit in want.items():
                        self.assertRegex(text, rf"(?m)^{metric.replace('.', '[.]')}\s+\S+ {unit}$")
                    self.assertIn("record", json.loads(lines[-2]))


def _deck_item(wl, rows) -> Item:
    item = Item("test", rows)
    item.arg = wl.dr.make_deck(wl.dr.Graph(len(rows), rows))
    return item


class FailuresCounted(unittest.TestCase):
    def setUp(self):
        self.wl = DeskSweep(tiny=True)
        # P4 plus an isolated vertex: degenerate, so reconstruct() answers it.
        self.rows = gg.disjoint_union([gg.graph6_rows("Ch"), (0,)])

    def test_right_answer_passes(self):
        item = _deck_item(self.wl, self.rows)
        outcomes, failed, completed = score(self.wl, [call_with_limit(self.wl.op, item, 5.0)])
        self.assertEqual(failed, 0)
        self.assertEqual(len(completed), 1)

    def test_wrong_expected_answer_is_a_failure(self):
        item = _deck_item(self.wl, self.rows)
        item.rows = gg.complement(self.rows)  # deliberately wrong expected graph
        outcomes, failed, completed = score(self.wl, [call_with_limit(self.wl.op, item, 5.0)])
        self.assertEqual(outcomes["wrong"], 1)
        self.assertEqual(failed, 1)
        self.assertEqual(completed, [])

    def test_wrong_deck_is_a_failure(self):
        wl = DeckBuild(tiny=True)
        rows = gg.random_rows(random.Random(1), 9)
        item = Item("test", rows, twin=gg.complement(rows))  # twin of another graph
        item.arg = wl.dr.Graph(len(rows), rows)
        outcomes, failed, _ = score(wl, [call_with_limit(wl.op, item, 5.0)])
        self.assertEqual((outcomes["wrong"], failed), (1, 1))

    def test_slow_op_trips_the_time_limit(self):
        def slow(item):
            end = time.perf_counter() + 30
            while time.perf_counter() < end:
                pass

        item = _deck_item(self.wl, self.rows)
        start = time.perf_counter()
        phase = run_closed_loop([item], slow, limit=0.2, count=1)
        self.assertLess(time.perf_counter() - start, 5)
        outcomes, failed, completed = score(self.wl, phase.records)
        self.assertEqual(outcomes["time-limit"], 1)
        self.assertEqual(failed, 1)
        self.assertEqual(completed, [])


class DeskCorpus(unittest.TestCase):
    def test_committed_graphs_are_distinct_and_decomposable(self):
        codes = DESK_GRAPHS.read_text().split()
        self.assertEqual(len(codes), len(set(codes)))
        for code in codes:
            self.assertTrue(gg.has_proper_module(gg.graph6_rows(code)), code)

    def test_plan_uses_no_catalog(self):
        # plan() runs without prepare(), so the program's catalog cannot shape it.
        first, second = DeskSweep(tiny=True).plan(7, 1), DeskSweep(tiny=True).plan(7, 1)
        self.assertEqual([i.rows for i in first.items], [i.rows for i in second.items])


class RefusesWithoutProgram(unittest.TestCase):
    def test_nonzero_exit_and_no_result(self):
        bare = HERE / ".work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
            proc = run_bench("--workload", "large-n", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
