"""Tests of the benchmark's own statistics and metric tables.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import unittest

import report
import stats

HERE = os.path.dirname(os.path.abspath(__file__))


class PercentileTail(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.percentile(list(range(1, 101)), 90), 90)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(99)), 90)

    def test_median_needs_ten_beyond(self):
        self.assertEqual(stats.percentile(list(range(20)), 50), 9)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(19)), 50)

    def test_reported_percentiles_have_tail_on_every_plan(self):
        # The smallest open loops, one update after every 20 reads:
        # untraced, 4 segments of 111 arrivals (update p50 over the run);
        # traced, 441 arrivals (read p90, update p50, lag p90).
        kind = _raw_untraced()["open_loop"]["kind"]
        self.assertGreaterEqual(stats.samples_beyond(sum(kind), 50), 10)
        traced_updates = 441 // 21
        self.assertGreaterEqual(stats.samples_beyond(traced_updates, 50), 10)
        self.assertGreaterEqual(
            stats.samples_beyond(441 - traced_updates, 90), 10)


class OpenLoop(unittest.TestCase):
    def test_latency_runs_from_due_time(self):
        # The generator sent the second request 30 ms late: that wait is
        # part of its latency, and shows up as lag.
        latency, lag = stats.open_loop(
            due_ms=[0.0, 10.0], sent_ms=[0.5, 40.0], done_ms=[5.0, 50.0])
        self.assertEqual(latency, [5.0, 40.0])
        self.assertEqual(lag, [0.5, 30.0])

    def test_failed_request_misses_every_limit(self):
        # 20 of 100 requests refused: p90 lands on a refusal, so it is
        # infinite — past any limit — while p50 stays finite.
        latency, _ = stats.open_loop([0.0] * 100, [0.0] * 100,
                                     [1.0] * 80 + [-1.0] * 20)
        self.assertTrue(math.isinf(latency[-1]))
        self.assertTrue(math.isinf(stats.percentile(latency, 90)))
        self.assertEqual(stats.percentile(latency, 50), 1.0)

    def test_lengths_must_agree(self):
        with self.assertRaises(ValueError):
            stats.open_loop([0.0], [0.0, 1.0], [1.0])


class PairRatios(unittest.TestCase):
    def test_median_of_pair_ratios_not_ratio_of_medians(self):
        pairs = [(2.0, 1.0), (9.0, 3.0), (4.0, 4.0)]
        self.assertEqual(stats.ratio_median(pairs), 2.0)
        ratio_of_medians = (stats.median([p[0] for p in pairs]) /
                            stats.median([p[1] for p in pairs]))
        self.assertNotEqual(ratio_of_medians, 2.0)

    def test_even_count_averages_middle_pair(self):
        self.assertEqual(stats.ratio_median([(1, 1), (3, 1), (2, 1), (4, 1)]),
                         2.5)


class Failures(unittest.TestCase):
    def test_failed_ops_count_against_attempted(self):
        self.assertEqual(stats.outcome(10, 0), (True, 10, 0))
        self.assertEqual(stats.outcome(10, 1), (False, 10, 1))
        self.assertEqual(stats.outcome(0, 0), (False, 0, 0))
        with self.assertRaises(ValueError):
            stats.outcome(3, 4)

    def test_failed_requests_make_run_incorrect_and_latency_infinite(self):
        raw = _raw_untraced()
        raw["open_loop"]["done_ms"] = [-1.0] * len(raw["open_loop"]["due_ms"])
        raw["failed"] = len(raw["open_loop"]["due_ms"])
        out = report.result(raw, trace=False)
        self.assertFalse(out["correct"])
        self.assertEqual(report.unbounded(raw)["update_p50_ms"], -1.0)


class MetricTables(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        for key, table in (("end_to_end", report.END_TO_END),
                           ("per_layer", report.PER_LAYER)):
            self.assertEqual(
                [(m["name"], m["unit"], m["better"]) for m in bench[key]],
                table)

    def test_untraced_result_has_every_end_to_end_metric(self):
        out = report.result(_raw_untraced(), trace=False)
        self.assertTrue(out["correct"])
        self.assertEqual(sorted(out["metrics"]),
                         sorted(n for n, _, _ in report.END_TO_END))
        self.assertAlmostEqual(out["metrics"]["setup_s"]["value"], 1.15)
        self.assertAlmostEqual(out["metrics"]["speedup_vs_pull"]["value"], 0.5)
        self.assertAlmostEqual(report.unbounded(_raw_untraced())["ppr_qps"],
                               40.0)


def _raw_untraced():
    """A run as the untraced plan makes it: 4 segments of 111 arrivals."""
    n = 4 * 111
    kind = [1 if i % 21 == 20 else 0 for i in range(n)]
    due = [float(i % 111) for i in range(n)]
    return {
        "attempted": n, "failed": 0, "host": {"threads": 4},
        "samples": {"setup_s": [1.0, 1.1, 0.9, 1.2],
                    "serve_setup_s": [0.1] * 4, "e2e_s": [2.0] * 4,
                    "closed.qps": [40.0, 41.0, 39.0, 40.0]},
        "values": {},
        "pairs": {"speedup_vs_pull": [[1.0, 2.0]] * 4},
        "open_loop": {"kind": kind, "due_ms": due, "sent_ms": due,
                      "done_ms": [d + 5.0 for d in due]},
    }


if __name__ == "__main__":
    unittest.main()
