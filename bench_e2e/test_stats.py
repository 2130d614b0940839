"""Unit tests for bench_e2e's metric helpers.

    python3 -m unittest discover -s bench_e2e -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import run
import stats


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50.0), 50)
        self.assertEqual(stats.percentile(values, 99.0), 99)
        self.assertEqual(stats.percentile(values, 100.0), 100)
        self.assertEqual(stats.percentile([7], 99.0), 7)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 50.0), 3)

    def test_empty_sample_raises(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50.0)

    def test_ten_samples_beyond(self):
        # p99 of n samples has n - ceil(0.99 n) samples beyond it.
        self.assertEqual(stats.samples_beyond(1000, 99.0), 10)
        self.assertTrue(stats.supported(1000, 99.0))
        self.assertFalse(stats.supported(999, 99.0))

    def test_highest_supported_percentile(self):
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(9999), 99.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(99), 50.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertIsNone(stats.tail_percentile(19))


class DueTimeAccounting(unittest.TestCase):
    def test_latency_runs_from_due_time(self):
        # Sent 30 late and answered 10 after sending: 40 from due.
        self.assertEqual(
            stats.due_time_latencies([100], [140], [True], end_ns=1000), [40])

    def test_stall_charges_requests_behind_it(self):
        # Request 0 stalls for 250; requests 1 and 2 were due during the
        # stall and are answered right after it, so they carry its wait.
        due = [0, 100, 200]
        done = [250, 260, 270]
        self.assertEqual(
            stats.due_time_latencies(due, done, [True] * 3, end_ns=1000),
            [250, 160, 70])

    def test_miss_waits_until_the_end(self):
        # A failed request is charged until the end of the run.
        self.assertEqual(
            stats.due_time_latencies([100, 200], [150, 210], [True, False],
                                     end_ns=1000), [50, 800])

    def test_inline_generator_lateness_excludes_the_wait_for_the_caller(self):
        # Request 1 could not be sent before request 0 returned at 250; only
        # the 5 beyond that is the generator's own lateness.
        due, sent, done = [0, 100], [2, 255], [250, 300]
        self.assertEqual(stats.generator_lateness(due, sent, done, True), [2, 5])

    def test_async_generator_lateness_is_send_minus_due(self):
        due, sent, done = [0, 100], [2, 255], [250, 300]
        self.assertEqual(stats.generator_lateness(due, sent, done, False),
                         [2, 155])


class SpanSelfTime(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            (1, 10, 0, "request", 0, 100),
            (1, 11, 10, "ce.featurize", 10, 20),
            (1, 12, 10, "serve.estimate", 20, 90),
        ]
        out = stats.self_times(spans)
        self.assertEqual(out[10], ("request", 1, 20))
        self.assertEqual(out[11], ("ce.featurize", 1, 10))
        self.assertEqual(out[12], ("serve.estimate", 1, 70))

    def test_overlapping_children_count_once(self):
        spans = [
            (1, 1, 0, "root", 0, 100),
            (1, 2, 1, "a", 10, 60),
            (1, 3, 1, "b", 40, 80),
        ]
        self.assertEqual(stats.self_times(spans)[1][2], 30)

    def test_children_clipped_to_parent(self):
        spans = [(1, 1, 0, "root", 0, 100), (1, 2, 1, "late", 90, 150)]
        self.assertEqual(stats.self_times(spans)[1][2], 90)

    def test_grouped_by_trace(self):
        spans = [
            (1, 1, 0, "request", 0, 10), (1, 2, 1, "serve.estimate", 0, 4),
            (2, 3, 0, "request", 0, 20), (2, 4, 3, "serve.estimate", 5, 20),
        ]
        by = stats.self_time_by_trace(spans)
        self.assertEqual(by[1], {"request": 6, "serve.estimate": 4})
        self.assertEqual(by[2], {"request": 5, "serve.estimate": 15})


class BenchmarkFile(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS[:2]))


if __name__ == "__main__":
    unittest.main()
