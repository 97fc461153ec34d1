"""Tests for run.py's arithmetic: medians, spreads, the result line.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys

sys.dont_write_bytecode = True
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class Rep:
    def __init__(self, mode, tasks, failures=(), **metrics):
        self.mode, self.tasks, self.failures = mode, tasks, list(failures)
        self.metrics = metrics
        self.strings = {"registry_digest": "r", "result_digest": "x"}


class ResultLine(unittest.TestCase):
    def test_round_trip_keeps_every_digit(self):
        values = {"latency_ms": 1.2034567890123457, "setup_s": 0.1 + 0.2}
        units = {"latency_ms": "ms", "setup_s": "s"}
        d = run.parse_result_line(run.result_line(True, 1000, 0, values, units))
        self.assertEqual(d["correct"], True)
        self.assertEqual((d["attempted"], d["failed"]), (1000, 0))
        for k, v in values.items():
            self.assertEqual(d["metrics"][k], {"value": v, "unit": units[k]})

    def test_every_metric_is_required(self):
        with self.assertRaises(ValueError):
            run.result_line(True, 1, 0, {"a": 1.0}, {"a": "s", "b": "s"})

    def test_exact_keys(self):
        line = run.result_line(False, 3, 3, {}, {})
        self.assertEqual(set(json.loads(line)), {"correct", "attempted", "failed", "metrics"})
        with self.assertRaises(ValueError):
            run.parse_result_line('{"correct": true}')

    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual([m["unit"] for m in spec["end_to_end"]], list(run.END_TO_END.values()))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


class Spread(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([1.0, 2.0, 3.0, 10.0]), 2.5)

    def test_quartile_spread_over_median(self):
        values = [float(v) for v in range(1, 11)]
        q1, med, q3 = 2.75, 5.5, 8.25
        self.assertAlmostEqual(run.quartile_spread(values), (q3 - q1) / med)
        self.assertEqual(run.quartile_spread([5.0] * 10), 0.0)


class Rate(unittest.TestCase):
    def test_best_rate_is_the_fastest_repetition(self):
        # tasks over host seconds of each repetition: 100/s beats 66.7/s
        self.assertEqual(run.best_rate([100, 200], [1.0, 3.0]), 100.0)
        self.assertEqual(run.best_rate([], []), 0.0)


class Tally(unittest.TestCase):
    def test_tasks_of_failed_repetitions_count_as_failed(self):
        reps = [Rep("run", 100), Rep("run", 100, ["lost"]), Rep("setup", 0)]
        self.assertEqual(run.tally(reps, []), (200, 100))

    def test_cross_failure_fails_every_task(self):
        self.assertEqual(run.tally([Rep("run", 100), Rep("run", 100)], ["digest"]), (200, 200))

    def test_cross_checks_compare_simulated_metrics_and_digests(self):
        a, b = Rep("run", 1, goodput_per_s=2.0), Rep("run", 1, goodput_per_s=2.0)
        self.assertEqual(run.cross_checks([a, b, Rep("setup", 0)]), [])
        b.metrics["goodput_per_s"] = 2.5
        b.strings["result_digest"] = "y"
        self.assertEqual(len(run.cross_checks([a, b])), 2)


if __name__ == "__main__":
    unittest.main()
