"""Tests of compare.py's statistics: the mean of the fastest rounds a run
reports, medians, quartiles and spreads across runs, the
worse-direction shift between two sets, and the interleaved order in
which two sets are collected.

    cd perfbench && python3 -m unittest test_compare
"""

import statistics
import unittest

import compare


class SummarizeTest(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        values = [12.0, 10.0, 11.0, 15.0, 13.0, 9.0, 14.0, 10.5, 12.5, 11.5]
        median, q1, q3, spread = compare.summarize(values)
        want_q1, want_median, want_q3 = statistics.quantiles(values, n=4)
        self.assertEqual(median, statistics.median(values))
        self.assertAlmostEqual(median, want_median)
        self.assertEqual((q1, q3), (want_q1, want_q3))
        self.assertAlmostEqual(spread, (want_q3 - want_q1) / median)

    def test_quartiles_by_hand(self):
        # Exclusive method: positions (n+1)/4 and 3(n+1)/4 of 1..7.
        median, q1, q3, spread = compare.summarize([7, 1, 3, 5, 2, 6, 4])
        self.assertEqual((median, q1, q3), (4, 2, 6))
        self.assertEqual(spread, 1.0)

    def test_identical_runs_have_no_spread(self):
        self.assertEqual(compare.summarize([5.0, 5.0, 5.0])[3], 0.0)


class FastestMeanTest(unittest.TestCase):
    def test_by_hand(self):
        self.assertEqual(compare.fastest_mean([9, 1, 8, 2, 7, 3]), 1.5)
        self.assertEqual(compare.fastest_mean([4, 3, 2, 1], k=3), 2)

    def test_small_sets(self):
        self.assertEqual(compare.fastest_mean([]), 0.0)
        self.assertEqual(compare.fastest_mean([7]), 7)

    def test_slow_rounds_do_not_move_it(self):
        # Interference only adds time: however slow and however many the
        # disturbed rounds, the two quiet ones set the figure.
        quiet = [10.0, 10.4]
        self.assertEqual(compare.fastest_mean(quiet + [30.0] * 9),
                         compare.fastest_mean([15.0] * 3 + quiet))


class ShiftTest(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertAlmostEqual(compare.worse_shift(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(compare.worse_shift(100, 90, "lower"), -0.10)

    def test_higher_is_better(self):
        self.assertAlmostEqual(compare.worse_shift(100, 90, "higher"), 0.10)
        self.assertAlmostEqual(compare.worse_shift(100, 120, "higher"), -0.20)


class InterleavedTest(unittest.TestCase):
    def test_sets_alternate_which_goes_first(self):
        order = compare.interleaved(["A", "B"], ["fanout", "crawl"], [1, 2])
        self.assertEqual(order, [
            ("A", "fanout", 1), ("B", "fanout", 1),
            ("A", "crawl", 1), ("B", "crawl", 1),
            ("B", "fanout", 2), ("A", "fanout", 2),
            ("B", "crawl", 2), ("A", "crawl", 2)])

    def test_one_set_runs_each_seed_once(self):
        order = compare.interleaved(["A"], ["durable"], [3, 4])
        self.assertEqual(order, [("A", "durable", 3), ("A", "durable", 4)])


class SeedsTest(unittest.TestCase):
    def test_ranges_and_lists(self):
        self.assertEqual(compare.parse_seeds("1-3"), [1, 2, 3])
        self.assertEqual(compare.parse_seeds("4,7,9-10"), [4, 7, 9, 10])


if __name__ == "__main__":
    unittest.main()
