"""Unit tests for the benchmark's own bookkeeping (metrics.py).

    python3 -B -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import unittest

import metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def span(sid, parent, b, e, name="x", req=0, passno=1):
    return {"t": "span", "pass": passno, "id": sid, "name": name, "req": req,
            "parent": parent, "b": b, "e": e}


class TailPercentile(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 1001))  # 1000 samples
        self.assertEqual(metrics.nearest_rank(samples, 99.0), 990)
        self.assertEqual(metrics.nearest_rank(samples, 90.0), 900)

    def test_needs_ten_samples_beyond(self):
        # p99.9 of 1000 leaves 1 beyond; of 10010 it leaves exactly 10.
        with self.assertRaises(ValueError):
            metrics.nearest_rank(list(range(1000)), 99.9)
        self.assertEqual(metrics.nearest_rank(list(range(10010)), 99.9), 9999)
        # p90 of 100 leaves exactly 10 beyond; of 99, 9.
        self.assertEqual(metrics.nearest_rank(list(range(100)), 90.0), 89)
        with self.assertRaises(ValueError):
            metrics.nearest_rank(list(range(99)), 90.0)

    def test_order_of_samples_does_not_matter(self):
        samples = [5, 1, 4, 2, 3] * 40
        self.assertEqual(metrics.nearest_rank(samples, 90.0),
                         metrics.nearest_rank(sorted(samples), 90.0))

    def test_workload_percentiles_are_p90_p99_or_p999(self):
        self.assertEqual(set(metrics.TAIL_PERCENTILE),
                         {"query-1e5", "live-zipf", "remote-1e5"})
        for p in metrics.TAIL_PERCENTILE.values():
            self.assertIn(p, (90.0, 99.0, 99.9))


class Ndcg(unittest.TestCase):
    def test_ideal_ranking_scores_one(self):
        self.assertAlmostEqual(metrics.ndcg_at_k([3, 2, 1, 1, 1],
                                                 [3, 2, 1, 1, 1]), 1.0)

    def test_matches_hand_computation(self):
        grades = [0, 3, 0, 2]
        dcg = 7 / math.log2(3) + 3 / math.log2(5)
        ideal = 7 + 3 / math.log2(3) + 1 / 2 + 1 / math.log2(5) + 1 / math.log2(6)
        self.assertAlmostEqual(
            metrics.ndcg_at_k(grades, [3, 2, 1, 1, 1]), dcg / ideal)

    def test_only_top_k_counts(self):
        grades = [0] * 10 + [3]
        self.assertEqual(metrics.ndcg_at_k(grades, [3], k=10), 0.0)

    def test_no_relevant_documents_scores_zero(self):
        self.assertEqual(metrics.ndcg_at_k([0, 0], []), 0.0)


class DistinctQueryNdcg(unittest.TestCase):
    def test_each_query_counts_once_by_its_last_answer(self):
        def q(arg, grades, ti=0):
            return {"k": "q", "arg": arg, "ti": ti, "grades": grades,
                    "ideal": "3"}
        rows = [q(1, "0"), q(1, "0"), q(1, "3"), q(2, "0"),
                {"k": "a", "arg": 1}, q(2, "3", ti=1)]
        # query 1 ends at 1.0; query 2 identity 0.0; query 2 ti 1.0
        self.assertAlmostEqual(metrics.distinct_query_ndcg(rows), 2 / 3)


class FailureBookkeeping(unittest.TestCase):
    def test_counts_every_request_record(self):
        records = [
            {"t": "setup"},
            {"t": "req", "fail": 0}, {"t": "req", "fail": 1},
            {"t": "req", "fail": 0}, {"t": "req", "fail": 1},
            {"t": "span"},
        ]
        attempted, failed = metrics.failure_tally(records)
        self.assertEqual((attempted, failed), (4, 2))
        self.assertEqual(metrics.failed_frac(attempted, failed), 0.5)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.failed_frac(0, 0)


class SelfTime(unittest.TestCase):
    def test_parent_minus_children(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 40, 90)]
        self.assertEqual(metrics.self_times(spans), {0: 30, 1: 20, 2: 50})

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 0, 80), span(2, 1, 10, 70)]
        self.assertEqual(metrics.self_times(spans), {0: 20, 1: 20, 2: 60})

    def test_overlapping_children_count_once_and_are_clipped(self):
        spans = [span(0, -1, 10, 100), span(1, 0, 0, 50), span(2, 0, 40, 60)]
        # children cover [10, 60) once
        self.assertEqual(metrics.self_times(spans)[0], 40)

    def test_coverage_of_request_roots(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 0, 90),
                 span(2, -1, 200, 300), span(3, 2, 200, 300)]
        self.assertEqual(metrics.root_time(spans), 200)
        self.assertEqual(metrics.covered_time(spans), 190)


class MetricNames(unittest.TestCase):
    def test_valid_names(self):
        for name in ("setup_s", "scan.ms", "cache.hit-frac", "9lives"):
            self.assertTrue(metrics.valid_metric_name(name), name)

    def test_invalid_names(self):
        for name in ("", "_lead", ".lead", "has space", "a/b", "é",
                     "x" * 65, None):
            self.assertFalse(metrics.valid_metric_name(name), name)

    def test_declared_metrics_are_valid_and_distinct(self):
        names = list(metrics.END_TO_END) + list(metrics.PER_LAYER)
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(metrics.valid_metric_name(name), name)

    def test_benchmark_json_agrees(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         metrics.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         metrics.PER_LAYER)


class ExactCounters(unittest.TestCase):
    def test_mismatches_name_differing_shared_keys(self):
        before = {"a": 1, "b": "x", "c": 3}
        after = {"a": 1, "b": "y", "d": 4}
        self.assertEqual(metrics.counter_mismatches(before, after), ["b"])


if __name__ == "__main__":
    unittest.main()
