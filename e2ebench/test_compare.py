#!/usr/bin/env python3
"""Tests of compare.py's helpers: python3 e2ebench/test_compare.py"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402


class CompareTest(unittest.TestCase):
    def test_quartiles_match_known_vectors(self):
        self.assertEqual(compare.quartiles(list(range(1, 11))),
                         (2.75, 5.5, 8.25))
        self.assertEqual(compare.quartiles([4, 2, 3, 1]), (1.25, 2.5, 3.75))
        self.assertAlmostEqual(compare.spread([1, 2, 3, 4]), 2.5 / 2.5)

    def test_bimodal_needs_two_separated_clusters(self):
        two = [1.0, 1.1, 1.05, 1.02, 1.08, 2.0, 2.1, 2.05, 2.02, 2.03]
        self.assertTrue(compare.bimodal(two))
        self.assertFalse(compare.bimodal([1.0 + i / 100 for i in range(10)]))
        # One outlier is not a second mode.
        self.assertFalse(compare.bimodal([1.0] * 9 + [5.0]))

    def test_worse_by_follows_direction(self):
        self.assertAlmostEqual(compare.worse_by(100, 120, "lower"), 0.2)
        self.assertAlmostEqual(compare.worse_by(100, 120, "higher"), -0.2)

    def test_parse_run_reads_header_and_last_line(self):
        text = ("# e2ebench workload=warm_served seed=7 seconds=15 trace=0\n"
                "metric read_qps 10 req/s\n"
                '{"correct": true, "attempted": 3, "failed": 0, "metrics": '
                '{"read_qps": {"value": 10.5, "unit": "req/s"}}}\n')
        workload, seed, result = compare.parse_run(text)
        self.assertEqual((workload, seed), ("warm_served", 7))
        self.assertEqual(result["metrics"]["read_qps"]["value"], 10.5)
        with tempfile.TemporaryDirectory() as directory:
            with open(os.path.join(directory, "r1"), "w") as f:
                f.write(text)
            runs = compare.load_set(directory)
        self.assertEqual(runs["warm_served"]["metrics"]["read_qps"], [10.5])


if __name__ == "__main__":
    unittest.main()
