"""Tests of the benchmark's own helpers.

Run from the repository root: python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchlib import stats  # noqa: E402


class PercentileSelection(unittest.TestCase):
    def test_reported_percentile_keeps_ten_samples_beyond(self):
        for n in list(range(20, 400)) + [999, 1000, 1009, 1010, 5000, 100000]:
            q = stats.reportable_percentile(n, 99)
            self.assertIsNotNone(q, n)
            self.assertGreaterEqual(n - stats.nearest_rank(n, q), 10, (n, q))
            if q < 99:
                # the next candidate up would leave fewer than ten beyond it
                self.assertLess(n - stats.nearest_rank(n, q + 1), 10, (n, q))

    def test_p99_needs_a_thousand_samples(self):
        self.assertEqual(stats.reportable_percentile(1000, 99), 99.0)
        self.assertEqual(stats.reportable_percentile(999, 99), 98.0)
        self.assertEqual(stats.reportable_percentile(100, 99), 90.0)

    def test_too_few_samples_give_no_percentile(self):
        self.assertIsNone(stats.reportable_percentile(19, 99))
        self.assertIsNone(stats.reportable_percentile(0, 99))
        with self.assertRaises(ValueError):
            stats.latency_summary([(5.0, 12)])

    def test_weighted_percentile_counts_weights_as_samples(self):
        pairs = [(3.0, 1), (1.0, 98), (2.0, 1)]
        self.assertEqual(stats.weighted_percentile(pairs, 50), 1.0)
        self.assertEqual(stats.weighted_percentile(pairs, 99), 2.0)
        self.assertEqual(stats.weighted_percentile(pairs, 100), 3.0)
        self.assertEqual(stats.weighted_percentile([(v, 1) for v in range(1, 101)], 99), 99)

    def test_summary_reports_the_tail_used(self):
        s = stats.latency_summary([(float(v), 1) for v in range(1, 201)])
        self.assertEqual((s["p50"], s["tail_q"], s["tail"], s["count"]), (100.0, 95.0, 190.0, 200))


class MedianOverPasses(unittest.TestCase):
    def test_percentiles_are_taken_per_pass_then_the_median(self):
        fast = [(1.0, 980), (10.0, 20)]
        slow = [(2.0, 950), (40.0, 50)]
        s = stats.median_over_passes([fast, fast, slow])
        self.assertEqual((s["p50"], s["tail"], s["tail_q"], s["passes"]), (1.0, 10.0, 99.0, 3))
        # pooled, the slow pass would set the tail
        self.assertEqual(stats.latency_summary(fast + fast + slow)["tail"], 40.0)

    def test_passes_too_short_for_the_tail_are_left_out(self):
        full = [(1.0, 1000)]
        short = [(9.0, 50)]
        s = stats.median_over_passes([full, short, full])
        self.assertEqual((s["p50"], s["tail"], s["count"], s["passes"]), (1.0, 1.0, 2000, 2))

    def test_all_short_passes_are_pooled(self):
        s = stats.median_over_passes([[(float(v), 1) for v in range(1, 101)],
                                      [(float(v), 1) for v in range(101, 201)]])
        self.assertEqual((s["tail_q"], s["count"]), (95.0, 200))


class OpenLoopLatency(unittest.TestCase):
    def test_latency_runs_from_each_rows_due_time(self):
        # 1000 rows/s: row i is due at t0 + i ms.
        t0 = 5_000_000
        lat = stats.open_loop_latencies(t0, 1000.0, [(3, t0 + 10_000_000), (2, t0 + 12_000_000)])
        self.assertEqual([v for v, _ in lat], [10e6, 9e6, 8e6, 9e6, 8e6])
        self.assertTrue(all(w == 1 for _, w in lat))

    def test_a_stall_delays_every_row_due_during_it(self):
        # The first batch stalls for 100 ms; the rows due meanwhile wait for
        # the next commit, and their latency counts that wait even though
        # they reached the source late.
        t0 = 0
        lat = stats.open_loop_latencies(t0, 1000.0, [(1, 100_000_000), (99, 101_000_000)])
        values = sorted(v for v, _ in lat)
        self.assertEqual(values[-1], 100e6)
        self.assertEqual(values[0], 2e6)
        self.assertEqual(len(values), 100)

    def test_rows_before_the_settle_point_are_left_out(self):
        lat = stats.open_loop_latencies(0, 1000.0, [(3, 10_000_000), (2, 12_000_000)], from_row=2)
        self.assertEqual([v for v, _ in lat], [8e6, 9e6, 8e6])

    def test_open_loop_rate_is_rows_over_first_due_to_last_commit(self):
        p = {"t0_ns": 1_000_000_000, "rows": 500, "rate": 1000.0,
             "batches": [[200, 1_300_000_000], [300, 1_500_000_000]]}
        self.assertAlmostEqual(stats.open_loop_rate(p), 1000.0)
        p["settle_rows"] = 100  # 400 rows from 1.1 s to 1.5 s
        self.assertAlmostEqual(stats.open_loop_rate(p), 1000.0)
        p["settle_rows"] = 300  # 200 rows from 1.3 s to 1.5 s
        self.assertAlmostEqual(stats.open_loop_rate(p), 1000.0)


class ClosedLoop(unittest.TestCase):
    def test_batch_latency_is_the_median_across_passes(self):
        passes = [[[10, 0, 5], [4, 5, 30]], [[10, 0, 7], [4, 7, 17]], [[10, 0, 6]]]
        self.assertEqual(stats.closed_loop_batch_latencies(passes), [(6, 10), (17.5, 4)])

    def test_rate_uses_per_batch_medians_and_partial_passes(self):
        passes = [[[10, 0, 1_000_000_000], [10, 0, 3_000_000_000]],
                  [[10, 0, 2_000_000_000], [10, 0, 1_000_000_000]],
                  [[10, 0, 1_000_000_000]]]  # cut short by the deadline
        # medians: batch 0 -> 1 s, batch 1 -> 2 s; 20 rows in 3 s
        self.assertAlmostEqual(stats.closed_loop_rate(passes), 20 / 3)


def span(i, name, start, end, parent=-1, calls=1):
    return {"id": i, "name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "batch": 0, "calls": calls}


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [span(0, "batch", 0, 100),
                 span(1, "phase1", 0, 20, 0),
                 span(2, "task", 30, 80, 0),
                 span(3, "task", 50, 90, 0),      # overlaps the other task
                 span(4, "replay", 30, 60, 2),
                 span(5, "count", 60, 70, 2, calls=500)]
        t = stats.self_times(spans)
        self.assertEqual(t["batch"]["self_ns"], 100 - 20 - 60)
        self.assertEqual(t["task"]["total_ns"], 50 + 40)
        self.assertEqual(t["task"]["self_ns"], (50 - 40) + 40)
        self.assertEqual(t["task"]["spans"], 2)
        self.assertEqual(t["count"]["calls"], 500)
        self.assertEqual(t["phase1"]["self_ns"], 20)

    def test_children_outside_the_parent_are_clipped(self):
        t = stats.self_times([span(0, "a", 10, 20), span(1, "b", 0, 15, 0), span(2, "c", 18, 40, 0)])
        self.assertEqual(t["a"]["self_ns"], 3)


if __name__ == "__main__":
    unittest.main()
