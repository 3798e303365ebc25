#!/usr/bin/env python3
"""Tests of the repo benchmark itself.

    python3 perfbench/test_perfbench.py        # ~3 minutes, builds first

The fast tests check the metric map against BENCHMARK.json and
METRICS.md. The slow ones run the harness: per-workload layer coverage
in traced runs, an injected digest mismatch that must raise
ops_failed_ratio, and sim metrics that must repeat exactly.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Leave no __pycache__ behind in the checkout.
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import metric_map  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def harness(workload, seed, trace, *extra):
    """Run the built harness directly; returns (exit code, raw result)."""
    workdir = run.BUILD / "runs" / f"test-{workload}-{seed}-{trace}"
    try:
        proc = subprocess.run(
            [str(run.BUILD / "perfbench"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
             "--workdir", str(workdir), *extra],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=run.HARNESS_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class MetricMapTest(unittest.TestCase):
    def test_names_and_units(self):
        tables = [
            {n: s["unit"] for n, s in metric_map.END_TO_END.items()},
            {n: s["unit"] for n, s in metric_map.PER_LAYER.items()},
            {n: u for n, (u, *_rest) in metric_map.NAMED.items()},
        ]
        for table in tables:
            for name, unit in table.items():
                self.assertTrue(NAME.fullmatch(name), name)
                self.assertTrue(UNIT.fullmatch(unit), f"{name}: {unit!r}")

    def test_benchmark_json_matches_map(self):
        self.assertEqual(set(metric_map.LAYERS), set(metric_map.PER_LAYER))
        raw = dict.fromkeys(
            ["ref_s", "setup_ref", "peak_rss_mb", *metric_map.NAMED], 1.0)
        for workload in metric_map.WORKLOADS:
            self.assertEqual(set(metric_map.gated(workload, raw)),
                             set(metric_map.END_TO_END))

    def test_every_workload_has_a_gated_call_and_throughput(self):
        for table in (metric_map.CALL, metric_map.ITEMS):
            self.assertEqual(set(table), set(metric_map.WORKLOADS))
            for workload, name in table.items():
                self.assertEqual(metric_map.NAMED[name][2], workload)

    def test_doc_lists_every_metric(self):
        doc = (HERE / "METRICS.md").read_text()
        names = (list(metric_map.END_TO_END) + list(metric_map.PER_LAYER) +
                 list(metric_map.NAMED) + list(metric_map.WORKLOADS))
        for name in names:
            self.assertIn(f"`{name}`", doc)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_layer_coverage(self):
        for workload in metric_map.WORKLOADS:
            code, result = harness(workload, 5, 1)
            self.assertEqual(code, 0, workload)
            raw = result["metrics"]
            for name, spec in metric_map.PER_LAYER.items():
                value = raw.get(name, 0.0)
                if spec["expect_zero"]:
                    self.assertEqual(value, 0.0, f"{name}@{workload}")
                elif workload in spec["exercised"]:
                    self.assertNotEqual(value, 0.0, f"{name}@{workload}")
                if name.startswith(metric_map.BYPASSED[workload]):
                    self.assertEqual(value, 0.0, f"{name}@{workload}")

    def test_injected_digest_mismatch_fails_the_run(self):
        code, result = harness("ingest_gated_train", 5, 0,
                               "--inject-digest-mismatch")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["metrics"]["ops_failed_ratio"], 0.0)

    def test_undeclared_metric_name_fails_schema_check(self):
        workdir = run.BUILD / "runs" / "test-schema"
        workdir.mkdir(parents=True, exist_ok=True)
        snapshot = {"schema": "rap.metrics.v1", "counters": [
            {"name": "fleet.not_declared", "labels": {}, "value": 1}],
            "gauges": [], "histograms": [], "series": [], "spans": []}
        (workdir / "snapshot.json").write_text(json.dumps(snapshot))
        self.assertFalse(run.validate_snapshot(workdir))
        snapshot["counters"][0]["name"] = "fleet.placements"
        (workdir / "snapshot.json").write_text(json.dumps(snapshot))
        self.assertTrue(run.validate_snapshot(workdir))
        shutil.rmtree(workdir)

    def test_sim_metrics_repeat_exactly(self):
        sims = [n for n in metric_map.NAMED if ".sim_" in n]
        for workload, seeds in (("fleet_mixed_durable", (5, 5)),
                                ("ingest_gated_train", (5, 5)),
                                ("train_sweep", (5, 6))):
            runs = [harness(workload, seed, 0)[1]["metrics"]
                    for seed in seeds]
            for name in sims:
                if metric_map.NAMED[name][2] == workload:
                    self.assertEqual(runs[0][name], runs[1][name], name)


if __name__ == "__main__":
    unittest.main(verbosity=2)
