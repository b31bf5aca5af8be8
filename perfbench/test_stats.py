"""Tests of the benchmark's statistics and schedules.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_matches_linear_interpolation(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(stats.percentile(xs, 0), 1.0)
        self.assertEqual(stats.percentile(xs, 50), 3.0)
        self.assertEqual(stats.percentile(xs, 100), 5.0)
        self.assertAlmostEqual(stats.percentile(xs, 90), 4.6)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class TailTest(unittest.TestCase):
    def test_p99_at_1000_samples(self):
        xs = list(range(1, 1001))
        value, pct, beyond = stats.tail(xs)
        self.assertAlmostEqual(pct, 99.0)
        self.assertEqual(beyond, 10)
        self.assertEqual(sum(1 for x in xs if x > value), 10)

    def test_lower_percentile_keeps_ten_beyond(self):
        xs = [float(i) for i in range(200)]
        value, pct, beyond = stats.tail(xs)
        self.assertAlmostEqual(pct, 95.0)
        self.assertEqual(sum(1 for x in xs if x > value), beyond)

    def test_few_samples_give_the_maximum(self):
        self.assertEqual(stats.tail([3.0, 9.0, 1.0]), (9.0, 100.0, 0))
        self.assertEqual(stats.tail([float(i) for i in range(20)]), (19.0, 100.0, 0))


class IqrTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        xs = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(stats.iqr_share(xs), (q3 - q1) / med)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.iqr_share([2.0] * 10), 0.0)


class PoissonTest(unittest.TestCase):
    def test_seeded_and_deterministic(self):
        a = stats.poisson_schedule(100.0, 5.0, seed=7)
        self.assertEqual(a, stats.poisson_schedule(100.0, 5.0, seed=7))
        self.assertNotEqual(a, stats.poisson_schedule(100.0, 5.0, seed=8))

    def test_rate_and_order(self):
        a = stats.poisson_schedule(200.0, 20.0, seed=1)
        self.assertEqual(a, sorted(a))
        self.assertLess(a[-1], 20e9)
        self.assertAlmostEqual(len(a) / 20.0, 200.0, delta=200.0 * 0.05)


class ZipfTest(unittest.TestCase):
    def test_seeded_and_deterministic(self):
        a = stats.zipf_picks(32, 1.1, 5000, seed=3)
        self.assertEqual(a, stats.zipf_picks(32, 1.1, 5000, seed=3))
        self.assertNotEqual(a, stats.zipf_picks(32, 1.1, 5000, seed=4))
        self.assertTrue(all(0 <= i < 32 for i in a))

    def test_rank_frequencies_fall(self):
        picks = stats.zipf_picks(16, 1.1, 40000, seed=5)
        counts = [picks.count(i) for i in range(16)]
        # The top rank holds about 1/H(16, 1.1) of the picks.
        h = sum(1.0 / (k + 1) ** 1.1 for k in range(16))
        self.assertAlmostEqual(counts[0] / len(picks), 1.0 / h, delta=0.02)
        self.assertGreater(counts[0], 4 * counts[-1])


class SlopeTest(unittest.TestCase):
    def test_power_law_exponent(self):
        xs = [100.0, 200.0, 400.0, 800.0]
        self.assertAlmostEqual(stats.loglog_slope(xs, [x ** 2 for x in xs]), 2.0)


if __name__ == "__main__":
    unittest.main()
