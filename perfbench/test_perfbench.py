#!/usr/bin/env python3
"""Tests for the benchmark's statistics, aggregation and output checks.

    python3 perfbench/test_perfbench.py

The C++ checks (checks.h, stats.h) are tested by perfbench_checks_test,
which this script builds into .bench_build/perfbench and runs.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


class StatsTest(unittest.TestCase):
    def test_percentile_hand_computed(self):
        # Nearest rank: the ceil(q/100 * n)-th smallest value.
        ten = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
        self.assertEqual(stats.percentile(ten, 50), 5)    # rank 5
        self.assertEqual(stats.percentile(ten, 99), 10)   # rank ceil(9.9) = 10
        self.assertEqual(stats.percentile(ten, 1), 1)     # rank ceil(0.1) = 1
        self.assertEqual(stats.percentile([30, 10, 20], 50), 20)  # rank ceil(1.5) = 2
        self.assertEqual(stats.percentile([], 50), 0.0)

    def test_quartiles_hand_computed(self):
        # statistics.quantiles' default (exclusive) method on 1..10:
        # positions (n+1)/4 = 2.75 and 3(n+1)/4 = 8.25.
        self.assertEqual(stats.quartiles(list(range(1, 11))), (2.75, 5.5, 8.25))
        # 1..5: positions 1.5 and 4.5.
        self.assertEqual(stats.quartiles([5, 1, 4, 2, 3]), (1.5, 3, 4.5))
        self.assertEqual(stats.quartiles([7]), (7, 7, 7))

    def test_spread(self):
        self.assertAlmostEqual(stats.spread(list(range(1, 11))), (8.25 - 2.75) / 5.5)
        self.assertEqual(stats.spread([2, 2, 2, 2]), 0.0)
        self.assertEqual(stats.spread([0, 0, 0]), 0.0)

    def test_worse_by(self):
        self.assertAlmostEqual(stats.worse_by(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(stats.worse_by(100, 110, "higher"), -0.10)
        self.assertAlmostEqual(stats.worse_by(100, 80, "higher"), 0.20)


def fake_round(traced, value, violations=0, failed=0, steal=0.0, samples=None):
    return {
        "traced": traced, "attempted": 10, "failed": failed, "violations": violations,
        "steal": steal,
        "messages": [],
        "metrics": {name: value for name in run.END_TO_END if name not in run.PERCENTILES},
        "samples": {"write": samples or [value], "read": samples or [value]},
        "layers": {name: value for name in run._LAYERS} if traced else {},
    }


class SummarizeTest(unittest.TestCase):
    def test_untraced_is_median_of_rounds(self):
        result = run.summarize([fake_round(False, v) for v in (3.0, 1.0, 2.0)], trace=False)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["attempted"], 30)
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
        self.assertEqual(result["metrics"]["write_p50_us"], {"value": 2.0, "unit": "us"})

    def test_latency_is_a_percentile_of_the_pooled_samples(self):
        rounds = [fake_round(False, 1.0, samples=[1, 2, 3]),
                  fake_round(False, 1.0, samples=[10, 11, 12, 13]),
                  fake_round(False, 1.0, samples=[4, 5])]
        result = run.summarize(rounds, trace=False)
        # Pooled: 1 2 3 4 5 10 11 12 13, rank ceil(4.5) = 5; the median of
        # the rounds' own p50s (2, 11, 4) would be 4.
        self.assertEqual(result["metrics"]["write_p50_us"]["value"], 5)
        self.assertEqual(run.end_to_end(rounds, "read_p99_us"), 13)

    def test_traced_reports_every_layer_and_overhead(self):
        rounds = [fake_round(True, 4.0), fake_round(False, 2.0),
                  fake_round(True, 4.0), fake_round(False, 2.0)]
        result = run.summarize(rounds, trace=True)
        self.assertEqual(set(result["metrics"]), set(run.PER_LAYER))
        self.assertEqual(result["metrics"]["trace_overhead.ops_per_s_pct"]["value"], 100.0)
        self.assertEqual(result["metrics"]["base.records_per_batch"]["value"], 4.0)

    def test_rounds_with_more_host_steal_than_the_median_are_left_out(self):
        rounds = [fake_round(False, 1.0, steal=0.01), fake_round(False, 2.0, steal=0.02),
                  fake_round(False, 9.0, steal=0.30), fake_round(False, 8.0, steal=0.25),
                  fake_round(False, 3.0, steal=0.00)]
        self.assertEqual([r["metrics"]["ops_per_s"] for r in run.calm(rounds)], [1.0, 2.0, 3.0])
        result = run.summarize(rounds, trace=False)
        self.assertEqual(result["metrics"]["ops_per_s"]["value"], 2.0)
        self.assertEqual(result["attempted"], 50)  # every round still counts its operations
        quiet = [fake_round(False, v) for v in (1.0, 2.0, 3.0)]
        self.assertEqual(len(run.calm(quiet)), 3)

    def test_a_violation_makes_the_run_incorrect(self):
        result = run.summarize([fake_round(False, 1.0), fake_round(False, 1.0, violations=1)],
                               trace=False)
        self.assertFalse(result["correct"])


class CompareTest(unittest.TestCase):
    metric = {"name": "write_p50_us", "unit": "us", "better": "lower", "bound": 0.1}

    def test_same_values_agree(self):
        _, ok = compare.compare_metric(self.metric, [100, 101, 99, 100], [100, 100, 101, 99])
        self.assertTrue(ok)

    def test_drift_beyond_bound_disagrees(self):
        _, ok = compare.compare_metric(self.metric, [100, 101, 99, 100], [120, 121, 119, 120])
        self.assertFalse(ok)

    def test_improvement_agrees(self):
        _, ok = compare.compare_metric(self.metric, [100, 101, 99, 100], [80, 81, 79, 80])
        self.assertTrue(ok)

    def test_wide_spread_disagrees(self):
        wide = [50, 100, 150, 100]
        self.assertFalse(compare.compare_metric(self.metric, wide, wide)[1])
        setup = dict(self.metric, name="setup_s", unit="s", bound=0.25)
        self.assertFalse(compare.compare_metric(setup, wide, wide)[1])

    def test_parse_seeds(self):
        self.assertEqual(compare.parse_seeds("1-3,7"), [1, 2, 3, 7])


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_match_the_runner(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            benchmark = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in benchmark["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in benchmark["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in benchmark["workloads"]], run.WORKLOADS)


class CppChecksTest(unittest.TestCase):
    def test_checks_binary(self):
        run.build()
        subprocess.run(["cmake", "--build", run.BUILD_DIR, "--target", "perfbench_checks_test"],
                       check=True, stdout=subprocess.DEVNULL)
        proc = subprocess.run([os.path.join(run.BUILD_DIR, "perfbench_checks_test")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)


if __name__ == "__main__":
    unittest.main()
