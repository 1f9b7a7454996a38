"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench/tests

Run from the repository root. The input-determinism test builds the
driver (incrementally) into .bench_build/ first.
"""

import json
import math
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import compare  # noqa: E402
import stats  # noqa: E402


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, statistics.median(values))

    def test_small_samples(self):
        self.assertEqual(stats.quartiles([2.0]), (2.0, 2.0, 2.0))
        self.assertTrue(all(math.isnan(q) for q in stats.quartiles([])))

    def test_relative_spread(self):
        # quantiles of 1..10: q1 = 2.75, median 5.5, q3 = 8.25.
        self.assertAlmostEqual(
            stats.relative_spread([float(i) for i in range(1, 11)]),
            5.5 / 5.5)


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = [float(i) for i in range(100)]  # 0..99
        value, percentile, beyond = stats.tail(values)
        self.assertEqual(value, 89.0)
        self.assertEqual(beyond, 10)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertAlmostEqual(percentile, 90.0)

    def test_highest_such_percentile(self):
        values = [float(i) for i in range(1000)]
        value, percentile, beyond = stats.tail(values)
        self.assertEqual((value, beyond), (989.0, 10))
        self.assertAlmostEqual(percentile, 99.0)

    def test_exactly_eleven_samples(self):
        value, percentile, beyond = stats.tail([3.0] + [10.0] * 10)
        self.assertEqual((value, beyond), (3.0, 10))

    def test_too_few_samples_returns_minimum(self):
        value, _, beyond = stats.tail([4.0, 2.0, 8.0])
        self.assertEqual((value, beyond), (2.0, 2))

    def test_failures_sort_last(self):
        values = [1.0] * 20 + [float("inf")] * 10
        value, _, beyond = stats.tail(values)
        self.assertEqual((value, beyond), (1.0, 10))
        value, _, _ = stats.tail([1.0] * 20 + [float("inf")] * 11)
        self.assertEqual(value, float("inf"))


class VerdictTest(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9,
              100.3]

    def test_worse_beyond_bound(self):
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1),
                         stats.WORSE)

    def test_within_bound(self):
        change = [v * 1.05 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1),
                         stats.WITHIN)

    def test_better_needs_margin_and_wins(self):
        change = [v * 0.9 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1),
                         stats.BETTER)
        # Same median gain but the change loses two of ten pairs.
        mixed = change[:8] + [200.0, 200.0]
        self.assertEqual(stats.verdict(self.parent, mixed, "lower", 0.1),
                         stats.WITHIN)

    def test_higher_is_better(self):
        up = [v * 1.2 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, up, "higher", 0.1),
                         stats.BETTER)
        down = [v * 0.8 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, down, "higher", 0.1),
                         stats.WORSE)

    def test_unresolved_when_parent_spread_exceeds_bound(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0]
        change = [v * 1.05 for v in noisy]
        self.assertEqual(stats.verdict(noisy, change, "lower", 0.1),
                         stats.UNRESOLVED)
        # ... unless every change run beats every parent run.
        self.assertEqual(stats.verdict(noisy, [10.0] * 8, "lower", 0.1),
                         stats.BETTER)


class CompareToolTest(unittest.TestCase):
    spec = {"end_to_end": [
        {"name": "iter_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.1},
        {"name": "iters_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1}]}

    @staticmethod
    def write_set(directory, p50s, rates, trace=0):
        for seed, (p50, rate) in enumerate(zip(p50s, rates), start=1):
            saved = {"workload": "w", "seed": seed, "trace": trace,
                     "result": {"metrics": {
                         "iter_p50_ms": {"value": p50, "unit": "ms"},
                         "iters_per_s": {"value": rate, "unit": "1/s"}}}}
            name = f"w-seed{seed}-trace{trace}.json"
            (Path(directory) / name).write_text(json.dumps(saved))

    def test_verdicts_on_synthetic_sets(self):
        with tempfile.TemporaryDirectory() as parent, \
                tempfile.TemporaryDirectory() as change:
            base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0]
            self.write_set(parent, base, [100.0] * 6)
            self.write_set(change, [v * 1.3 for v in base],
                           [101.0, 100.0, 99.0, 100.5, 100.0, 99.5])
            # Traced runs must be ignored.
            self.write_set(change, [1.0] * 6, [1.0] * 6, trace=1)
            rows = compare.compare(self.spec, compare.load(parent),
                                   compare.load(change))
        verdicts = {metric: v for _, metric, _, _, v in rows}
        self.assertEqual(verdicts, {"iter_p50_ms": stats.WORSE,
                                    "iters_per_s": stats.WITHIN})


class InputDeterminismTest(unittest.TestCase):
    """The generated inputs depend on the seed and on nothing else."""

    @classmethod
    def setUpClass(cls):
        subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, 'perfbench'); import run; "
             "run.build()"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)

    @staticmethod
    def digest(workload, seed):
        out = subprocess.run(
            [str(ROOT / ".bench_build" / "perfbench_driver"),
             "--workload", workload, "--seed", str(seed),
             "--decks", str(BENCH_DIR / "decks"), "--inputs", "1"],
            cwd=ROOT, check=True, capture_output=True, text=True)
        return json.loads(out.stdout)["inputs"]

    def test_same_seed_same_inputs(self):
        for workload in ("lot_eg_xti", "deck_cold_tree100k",
                         "serve_warm_grid10k"):
            with self.subTest(workload=workload):
                first = self.digest(workload, 7)
                self.assertEqual(first, self.digest(workload, 7))
                self.assertNotEqual(first, self.digest(workload, 8))


if __name__ == "__main__":
    unittest.main()
