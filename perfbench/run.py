#!/usr/bin/env python3
"""Run one workload of the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness and the library from source into a pinned Release
tree (perfbench/build), runs the workload, checks its outputs, and
prints every metric with its unit. The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0
the gated end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer metrics. A traced run also schema-checks the program's
deterministic metrics snapshot with tools/validate_metrics and keeps
its spans in perfbench/build/traces/. Exits 1 on a failed check, and
without a result when the build or the harness fails.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Leave no __pycache__ behind in the checkout.
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import metric_map  # noqa: E402

ROOT = HERE.parent
BUILD = HERE / "build"
HARNESS_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "perfbench", "validate_metrics"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def build_info():
    """Compiler, flags and build type of the pinned tree."""
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[:1]
    flags = " ".join(f for f in (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")) if f)
    return (f"build: type={build_type} compiler={compiler} "
            f"({version[0] if version else '?'}) flags='{flags}' std=c++20")


def run_harness(args, workdir):
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if args.inject_digest_mismatch:
        cmd.append("--inject-digest-mismatch")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=HARNESS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"harness exited {proc.returncode} with no result")
    return json.loads(lines[-1])


def validate_snapshot(workdir):
    """Schema-check the program's deterministic metrics snapshots."""
    proc = subprocess.run(
        [str(BUILD / "validate_metrics"),
         str(ROOT / "schemas" / "metrics.schema.json"),
         *map(str, sorted(workdir.glob("snapshot*.json")))],
        capture_output=True, text=True)
    if proc.returncode != 0:
        log("[perfbench] CHECK FAILED: metrics snapshot violates "
            "schemas/metrics.schema.json:\n" + proc.stdout + proc.stderr)
    return proc.returncode == 0


def select_metrics(workload, traced, raw):
    """Map the harness's raw metrics onto the gated metric set."""
    if not traced:
        values = metric_map.gated(workload, raw)
        return {name: {"value": values[name], "unit": spec["unit"]}
                for name, spec in metric_map.END_TO_END.items()}
    out = {}
    for name, spec in metric_map.PER_LAYER.items():
        if workload in spec["exercised"] and name not in raw:
            raise KeyError(f"{workload} did not report {name}")
        out[name] = {"value": raw.get(name, 0.0), "unit": spec["unit"]}
    return out


def print_report(workload, traced, raw, selected):
    print(f"== perfbench {workload} ({'traced' if traced else 'untraced'})")
    if traced:
        for name, spec in metric_map.PER_LAYER.items():
            moves = ", ".join(f"{m}@{w}" for m, w in spec["moves"])
            print(f"  {name:30s} {selected[name]['value']:>16.6g} "
                  f"{spec['unit']:8s} {spec['better']:6s} -> {moves}")
        return
    gates = {"setup_raw_s": "setup_s",
             metric_map.CALL[workload]: "call_ref.geomean",
             metric_map.ITEMS[workload]: "items_per_ref"}
    rows = [(name, unit, better, meaning)
            for name, (unit, better, owner, meaning)
            in metric_map.NAMED.items() if owner == workload]
    rows += [("setup_raw_s", "s", "lower",
              "set-up seconds on this host now (median of the set-ups)"),
             ("ops_failed_ratio", "ratio", "lower",
              "failed checks / attempted checks"),
             ("ref_s", "s", "-", "reference work unit on this host now")]
    for name, unit, better, meaning in rows:
        gate = f" [gated as {gates[name]}]" if name in gates else ""
        print(f"  {name:34s} {raw[name]:>16.6g} {unit:10s} {better:6s} "
              f"{meaning}{gate}")
    for name, entry in selected.items():
        print(f"  {name:34s} {entry['value']:>16.6g} {entry['unit']:10s} "
              f"{metric_map.END_TO_END[name]['better']:6s} gated")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(metric_map.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inject-digest-mismatch", action="store_true",
                        help="corrupt one output digest (self-test)")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    info = build_info()
    workdir = BUILD / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        raw = run_harness(args, workdir)
        metrics = raw["metrics"]
        attempted, failed = raw["attempted"], raw["failed"]
        if args.trace:
            traces = BUILD / "traces"
            traces.mkdir(exist_ok=True)
            shutil.copy(workdir / "spans.json",
                        traces / f"{args.workload}-seed{args.seed}.json")
            attempted += 1
            failed += 0 if validate_snapshot(workdir) else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    selected = select_metrics(args.workload, bool(args.trace), metrics)
    for name, entry in selected.items():
        if not math.isfinite(entry["value"]):
            raise ValueError(f"{name} is not finite: {entry['value']}")
    print(info)
    print_report(args.workload, bool(args.trace), metrics, selected)
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": selected}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
