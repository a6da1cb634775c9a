#!/usr/bin/env python3
"""Summarises one set of wallbench results, or compares two.

    python3 wallbench/compare.py SET            # medians, spreads, purpose checks
    python3 wallbench/compare.py BASE NEW       # change per metric vs its bound

A set is a directory of the result records run.py writes (its --out-dir,
.bench_build/results by default), typically one record per seed. Spreads
are the distance between the first and third quartile over the set's runs,
as a share of their median (statistics.quantiles(values, n=4)).

Two sets are compared only when they come from the same host (nproc, CPU
model, memory) and the same build (compiler, build type, SP_* flags); the
sources may differ, that is what is being compared. When partition_s moves
on a workload, the per-layer medians that moved are listed, largest change
first, to attribute the move to a stage (report only).

The purpose checks ask whether each workload does what it is for: the
traced runs' dominant stage is most of the call (embed on embed_bulk;
partition on repartition, with no embed), and many_ranks makes at least
100x the comm events per call of embed_bulk.

Exits 0 when nothing regressed (SET: when every purpose check is met), 1 on
a regression past a bound (SET: on a purpose check NOT MET), 2 when the
sets cannot be compared.
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
MOVED = 0.02  # a per-layer median "moved" when it changed by more than this share


def load(directory):
    runs = defaultdict(list)  # (workload, trace) -> [record]
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if "result" in rec and rec.get("size", "full") == "full":
            runs[(rec["workload"], rec["trace"])].append(rec)
    if not runs:
        sys.exit(f"compare: no full-size result records in {directory}")
    return runs


def provenance(rec):
    h, b = rec["host"], rec["build"]
    return json.dumps({"nproc": h["nproc"], "cpu_model": h["cpu_model"],
                       "mem_total_mb": h["mem_total_mb"],
                       "compiler": b["compiler"], "build_type": b["build_type"],
                       "flags": b["flags"]}, sort_keys=True)


def check_same_provenance(*sets):
    seen = {provenance(r) for runs in sets for recs in runs.values() for r in recs}
    if len(seen) > 1:
        print("compare: refusing to compare results from different hosts or builds:")
        for p in sorted(seen):
            print("  " + p)
        sys.exit(2)


def values(recs, name):
    return [r["result"]["metrics"][name]["value"] for r in recs
            if name in r["result"]["metrics"]]


def spread(vals):
    if len(vals) < 2:
        return float("nan")
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def rel(base, new):
    if base == new:
        return 0.0
    return (new - base) / abs(base) if base else float("inf")


def summary(runs):
    """Prints the set's medians and spreads; returns the purpose checks
    that were not met."""
    medians = {}
    unmet = []
    for (workload, trace), recs in sorted(runs.items()):
        kind = "per_layer" if trace else "end_to_end"
        seeds = sorted(r["seed"] for r in recs)
        failed = sum(r["result"]["failed"] for r in recs)
        print(f"\n{workload} ({'traced' if trace else 'untraced'}, {len(recs)} runs, "
              f"seeds {seeds}, {failed} failed calls)")
        altered = sorted(r["seed"] for r in recs
                         if r["input"].get("isolated_dropped"))
        if altered:
            print(f"  inputs with isolated vertices dropped: seeds {altered}")
        for m in SPEC[kind]:
            vals = values(recs, m["name"])
            if not vals:
                continue
            med = statistics.median(vals)
            medians[(workload, m["name"])] = med
            line = f"  {m['name']:28s} {med:14.6g} {m['unit']:9s}"
            if "bound" in m:
                s = spread(vals)
                flag = ("steady" if s <= m["bound"] / 3 else
                        "within bound" if s <= m["bound"] else "TOO WIDE")
                line += f" spread {s:7.2%} bound {m['bound']:.0%} {flag}"
            print(line)
        for r in recs:
            p = r["result"]["detail"].get("purpose")
            if p:
                print(f"  purpose seed {r['seed']}: {p['stage']} is "
                      f"{p['stage_share']:.0%} of the call ({'ok' if p['ok'] else 'NOT MET'})")
                if not p["ok"]:
                    unmet.append(f"{workload} seed {r['seed']}: {p['stage']} stage")
    a = medians.get(("many_ranks", "comm.events"))
    b = medians.get(("embed_bulk", "comm.events"))
    if a and b:
        print(f"\npurpose: many_ranks has {a / b:.0f}x the comm.events per call of "
              f"embed_bulk ({'ok' if a >= 100 * b else 'NOT MET'}, 100x expected)")
        if a < 100 * b:
            unmet.append("many_ranks comm.events vs embed_bulk")
    return unmet


def compare(base, new):
    regressed = False
    for (workload, trace), brecs in sorted(base.items()):
        if trace or (workload, 0) not in new:
            continue
        nrecs = new[(workload, 0)]
        print(f"\n{workload}: base {len(brecs)} runs, new {len(nrecs)} runs")
        print(f"  {'metric':16s} {'base':>12s} {'new':>12s} {'change':>8s} "
              f"{'spread':>7s} {'bound':>6s}  verdict")
        for m in SPEC["end_to_end"]:
            bv, nv = values(brecs, m["name"]), values(nrecs, m["name"])
            if not bv or not nv:
                continue
            bmed, nmed = statistics.median(bv), statistics.median(nv)
            change = rel(bmed, nmed)
            worse = change if m["better"] == "lower" else -change
            s = spread(bv)
            if worse > m["bound"]:
                verdict = "REGRESSED"
                regressed = True
            elif s > m["bound"]:
                verdict = "unresolved (spread above bound)"
            elif worse < -max(s, 0.0) and (
                    max(nv) < min(bv) if m["better"] == "lower" else min(nv) > max(bv)):
                verdict = "improved"
            else:
                verdict = "within bound"
            print(f"  {m['name']:16s} {bmed:12.6g} {nmed:12.6g} {change:+8.2%} "
                  f"{s:7.2%} {m['bound']:6.0%}  {verdict}")
        attribute(workload, brecs, nrecs, base.get((workload, 1), []),
                  new.get((workload, 1), []))
    return regressed


def attribute(workload, brecs, nrecs, btraced, ntraced):
    bv, nv = values(brecs, "partition_s"), values(nrecs, "partition_s")
    change = rel(statistics.median(bv), statistics.median(nv))
    s = spread(bv)
    if not abs(change) > (s if s == s else 0.0):
        return
    print(f"  partition_s moved {change:+.2%} (base spread {s:.2%}); per-layer medians that moved:")
    if not btraced or not ntraced:
        print("    (no traced runs in both sets)")
        return
    moved = []
    for m in SPEC["per_layer"]:
        b, n = values(btraced, m["name"]), values(ntraced, m["name"])
        if not b or not n:
            continue
        bmed, nmed = statistics.median(b), statistics.median(n)
        r = rel(bmed, nmed)
        if abs(r) > MOVED:
            moved.append((abs(r), m["name"], bmed, nmed, r, m["unit"]))
    for _, name, bmed, nmed, r, unit in sorted(moved, reverse=True):
        print(f"    {name:28s} {bmed:12.6g} -> {nmed:12.6g} {unit:9s} {r:+.2%}")
    if not moved:
        print("    (none moved by more than {:.0%})".format(MOVED))


def main(argv):
    if len(argv) == 2:
        runs = load(argv[1])
        check_same_provenance(runs)
        unmet = summary(runs)
        if unmet:
            print("\npurpose checks NOT MET: " + "; ".join(unmet))
        return 1 if unmet else 0
    if len(argv) == 3:
        base, new = load(argv[1]), load(argv[2])
        check_same_provenance(base, new)
        return 1 if compare(base, new) else 0
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
