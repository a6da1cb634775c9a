#!/usr/bin/env python3
"""Smoke test of the wall-clock benchmark: every workload at its tiny size on
two workload seeds, untraced and traced, checking the correctness gate and
the output schema against BENCHMARK.json. Takes about a minute after the
build.

    python3 wallbench/smoke_test.py
"""
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = (1, 2)


def check(workload, seed, trace):
    out_dir = ROOT / ".bench_build" / "smoke"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", "--out-dir", str(out_dir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(last)}")
    if last.get("correct") is not True:
        errors.append("correctness gate failed")
    if not (isinstance(last.get("attempted"), int) and last["attempted"] >= 1):
        errors.append("attempted must be a whole number >= 1")
    if last.get("failed") != 0:
        errors.append(f"failed = {last.get('failed')}")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = last.get("metrics", {})
    if set(metrics) != set(wanted):
        errors.append(f"metric names differ: {sorted(set(metrics) ^ set(wanted))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m.get("unit") != wanted.get(name):
            errors.append(f"{name}: {m}")
        elif not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            errors.append(f"{name} is not a finite number: {m['value']}")
    # End-to-end metrics are never 0; of the per-layer ones, these are not.
    positive = wanted if not trace else ("partition.cut", "graph_io.read_s", "comm.events")
    for name in positive:
        if not metrics.get(name, {}).get("value", 0) > 0:
            errors.append(f"{name} should be positive")
    record = json.loads((out_dir / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    for key in ("nproc", "cpu_model"):
        if not record["host"].get(key):
            errors.append(f"host provenance lacks {key}")
    if not record["build"].get("flags") or not record["source"].get("src_sha256"):
        errors.append("build or source provenance missing")
    return errors


def main():
    failures = 0
    for w in SPEC["workloads"]:
        for seed in SEEDS:
            for trace in (0, 1):
                errors = check(w["name"], seed, trace)
                status = "ok" if not errors else "FAIL " + "; ".join(errors)
                print(f"{w['name']:12s} seed {seed} trace {trace}: {status}", flush=True)
                failures += bool(errors)
    print(f"{failures} failing case(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
