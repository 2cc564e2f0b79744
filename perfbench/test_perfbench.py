#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-size pass of every workload.

    python3 perfbench/test_perfbench.py          # from the repository root

For each workload, with --trace 0 and --trace 1, asserts that:
  * the last line is the summary object with exactly the keys correct,
    attempted, failed and metrics, all checks passed and nothing failed;
  * every end_to_end (trace 0) or per_layer (trace 1) name of BENCHMARK.json
    is emitted exactly once, with its unit and a finite value;
  * each per-layer metric is measured (has a row) on every workload
    layers.json says owns it;
  * every pipeline's layer parts plus its unattributed residue sum to its
    end-to-end figure.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
with open(os.path.join(HERE, "layers.json")) as f:
    LAYERS = json.load(f)


def no_duplicate_keys(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise AssertionError(f"duplicate keys in {keys}")
    return dict(pairs)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = [json.loads(l, object_pairs_hook=no_duplicate_keys)
             for l in proc.stdout.splitlines()]
    return proc.returncode, lines


class TinyPass(unittest.TestCase):
    def check_summary(self, code, lines, wanted):
        self.assertEqual(code, 0)
        summary = lines[-1]
        self.assertEqual(list(summary), ["correct", "attempted", "failed", "metrics"])
        self.assertTrue(summary["correct"])
        self.assertEqual(summary["failed"], 0)
        self.assertGreaterEqual(summary["attempted"], 1)
        self.assertEqual(sorted(summary["metrics"]), sorted(m["name"] for m in wanted))
        for m in wanted:
            got = summary["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        checks = [l for l in lines if l.get("layer", "").startswith("check")]
        self.assertTrue(checks)
        self.assertTrue(all(c["value"] == 1 for c in checks), checks)

    def check_workload(self, workload):
        code, lines = run(workload, 0)
        self.check_summary(code, lines, SPEC["end_to_end"])
        for v in lines[-1]["metrics"].values():
            self.assertGreater(v["value"], 0.0)

        code, lines = run(workload, 1)
        self.check_summary(code, lines, SPEC["per_layer"])
        rows = [l["metric"] for l in lines if "metric" in l]
        for name, doc in LAYERS["per_layer"].items():
            if workload in doc["workload"]:
                self.assertEqual(rows.count(name), 1, f"{name} on {workload}")
        pipelines = [l["pipeline"] for l in lines if "pipeline" in l]
        self.assertTrue(pipelines)
        for p in pipelines:
            total = sum(p["parts"].values()) + p["unattributed"]
            self.assertAlmostEqual(total, p["total"],
                                   delta=1e-9 * max(1.0, abs(p["total"])))

    def test_lpm_serve(self):
        self.check_workload("lpm_serve")

    def test_rule_churn(self):
        self.check_workload("rule_churn")

    def test_knn_embed(self):
        self.check_workload("knn_embed")

    def test_dse_sweep(self):
        self.check_workload("dse_sweep")


class Documentation(unittest.TestCase):
    def test_every_per_layer_metric_is_documented(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        self.assertEqual(names, set(LAYERS["per_layer"]))
        workloads = {w["name"] for w in SPEC["workloads"]}
        for doc in LAYERS["per_layer"].values():
            self.assertTrue(set(doc["workload"]) <= workloads)

    def test_end_to_end_metrics_are_documented(self):
        self.assertEqual({m["name"] for m in SPEC["end_to_end"]},
                         set(LAYERS["end_to_end"]))

    def test_held_out_seed_differs(self):
        self.assertNotEqual(LAYERS["held_out_seed"], LAYERS["default_seed"])


if __name__ == "__main__":
    unittest.main()
