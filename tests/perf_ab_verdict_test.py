#!/usr/bin/env python3
"""Checks tools/perf_ab.py's verdict on canned perfbench result lines.

    python3 tests/perf_ab_verdict_test.py

Each case feeds the gate two workloads of interleaved base/HEAD pairs, as
the last JSON line of `perfbench/run.py` prints them, against the bounds of
BENCHMARK.json, and checks the verdict: within the bounds passes; one metric
over its bound, an extra failed operation or `correct: false` fails.
"""

import copy
import json
import os
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
sys.dont_write_bytecode = True

import perf_ab  # noqa: E402

BASE_LINE = json.dumps({
    "correct": True, "attempted": 1000, "failed": 0,
    "metrics": {
        "setup_s": {"value": 0.04, "unit": "s"},
        "latency_ms_p50": {"value": 1.1, "unit": "ms"},
        "latency_ms_tail": {"value": 1.3, "unit": "ms"},
        "dest_per_s": {"value": 900.0, "unit": "1/s"},
        "simd_steps": {"value": 2309, "unit": "count"},
        "peak_rss_mb": {"value": 7.0, "unit": "MB"},
    },
})
WORKLOADS = ("solve_n128", "tiled_n256_p32")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def scaled(line, factors):
    """The result line with each named metric's value multiplied."""
    doc = perf_ab.last_json_line(line)
    for name, factor in factors.items():
        doc["metrics"][name]["value"] *= factor
    return doc


def results(head_for_pair):
    """Four pairs per workload; HEAD's run of pair i is head_for_pair(i) on
    tiled_n256_p32 and an unchanged copy of base on solve_n128."""
    base = perf_ab.last_json_line("perfbench summary table\n" + BASE_LINE)
    out = {}
    for workload in WORKLOADS:
        pairs = []
        for i in range(4):
            head = head_for_pair(i) if workload == "tiled_n256_p32" else copy.deepcopy(base)
            pairs.append((copy.deepcopy(base), head))
        out[workload] = pairs
    return out


def failing_rows(rows):
    return [(workload, name) for workload, name, _, _, _, _, ok in rows if not ok]


class VerdictTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec()

    def test_within_bounds_passes(self):
        # Each metric moves by less than its bound in the median; one pair's
        # outlier (+60% p50) does not move the median over the bound.
        def head(i):
            if i == 0:
                return scaled(BASE_LINE, {"latency_ms_p50": 1.6})
            return scaled(BASE_LINE, {"setup_s": 1.2, "latency_ms_p50": 1.1,
                                      "dest_per_s": 0.85, "peak_rss_mb": 1.05})
        passed, rows = perf_ab.verdict(self.spec, results(head))
        self.assertTrue(passed, failing_rows(rows))
        self.assertEqual(len(rows), len(WORKLOADS) * (len(self.spec["end_to_end"]) + 1))

    def test_metric_over_its_bound_fails(self):
        passed, rows = perf_ab.verdict(
            self.spec, results(lambda i: scaled(BASE_LINE, {"latency_ms_tail": 1.4})))
        self.assertFalse(passed)
        self.assertEqual(failing_rows(rows), [("tiled_n256_p32", "latency_ms_tail")])

    def test_higher_is_better_metric_over_its_bound_fails(self):
        passed, rows = perf_ab.verdict(
            self.spec, results(lambda i: scaled(BASE_LINE, {"dest_per_s": 0.7})))
        self.assertFalse(passed)
        self.assertEqual(failing_rows(rows), [("tiled_n256_p32", "dest_per_s")])

    def test_extra_failed_operation_fails(self):
        def head(i):
            doc = scaled(BASE_LINE, {})
            doc["failed"] = 1 if i == 2 else 0
            return doc
        passed, rows = perf_ab.verdict(self.spec, results(head))
        self.assertFalse(passed)
        self.assertEqual(failing_rows(rows), [("tiled_n256_p32", "failed/attempted")])

    def test_incorrect_run_fails(self):
        def head(i):
            doc = scaled(BASE_LINE, {})
            doc["correct"] = i != 3
            return doc
        passed, rows = perf_ab.verdict(self.spec, results(head))
        self.assertFalse(passed)
        self.assertEqual(failing_rows(rows), [("tiled_n256_p32", "failed/attempted")])


if __name__ == "__main__":
    unittest.main()
