#!/usr/bin/env python3
"""The benchmark's own test. Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then runs tiny instances of every
workload (--tiny: small graphs, small batches, 12 timed batches) to check
that
  * two runs of one seed give identical modeled metrics and counters,
  * a corrupted answer fails the run,
  * a batch whose engine call throws is counted as failed, not fatal.
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["social_bfs", "road_mixed", "faulty_fleet", "pagerank_rmat"]
TINY_QUERIES_PER_BATCH = {"social_bfs": 16, "road_mixed": 3,
                          "faulty_fleet": 16, "pagerank_rmat": 1}
# Metrics read off the host clock; everything else is decided by the
# modeled clock and the seed, so it must repeat exactly.
HOST_METRICS = {
    "host_ops_per_s", "host_batch_ms_p50", "host_batch_ms_tail", "setup_s",
    "setup_host_s", "peak_rss_mb", "graph.generate_ms", "gpu.upload_host_ms",
    "warp.adaptive_warmup_host_ms", "simt.host_growth",
    "simt.host_ns_per_warp", "trace_overhead_pct",
}

BINARY = None


def bench(workload, *extra, trace=0, seed=7):
    """Runs one tiny instance; returns (exit code, parsed last line)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"] + list(extra)
    if trace:
        cmd += ["--trace-out", os.path.join(os.path.dirname(BINARY),
                                            "test-trace.json")]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    return out.returncode, json.loads(lines[-1]) if lines else None


def deterministic(result):
    values = {k: v["value"] for k, v in result["metrics"].items()
              if k not in HOST_METRICS}
    values["attempted"] = result["attempted"]
    values["failed"] = result["failed"]
    return values


class Repeatability(unittest.TestCase):
    def test_same_seed_same_modeled_numbers(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    rc1, first = bench(workload, trace=trace)
                    rc2, second = bench(workload, trace=trace)
                    self.assertEqual((rc1, rc2), (0, 0))
                    self.assertTrue(first["correct"] and second["correct"])
                    self.assertEqual(deterministic(first),
                                     deterministic(second))

    def test_other_seed_other_inputs(self):
        _, a = bench("social_bfs", seed=7)
        _, b = bench("social_bfs", seed=8)
        self.assertNotEqual(a["metrics"]["modeled_batch_ms_p50"],
                            b["metrics"]["modeled_batch_ms_p50"])


class AnswerCheck(unittest.TestCase):
    def test_corrupted_answer_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, result = bench(workload, "--corrupt-batch", "3")
                self.assertNotEqual(rc, 0)
                self.assertFalse(result["correct"])


class ThrowingBatch(unittest.TestCase):
    def test_throwing_batch_is_counted_not_fatal(self):
        for workload in ("social_bfs", "pagerank_rmat"):
            with self.subTest(workload=workload):
                rc, clean = bench(workload)
                rc_throw, thrown = bench(workload, "--throw-batch", "2")
                self.assertEqual((rc, rc_throw), (0, 0))
                self.assertTrue(thrown["correct"])
                self.assertEqual(thrown["attempted"], clean["attempted"])
                self.assertEqual(thrown["failed"] - clean["failed"],
                                 TINY_QUERIES_PER_BATCH[workload])
                rc, traced = bench(workload, "--throw-batch", "2", trace=1)
                self.assertEqual(rc, 0)
                layers = traced["metrics"]
                self.assertEqual(
                    layers["algorithms.query_engine.thrown_batches"]["value"], 1)
                self.assertGreater(layers["error_rate"]["value"], 0)


if __name__ == "__main__":
    BINARY = os.path.abspath(run.build())
    unittest.main()
