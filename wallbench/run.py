#!/usr/bin/env python3
"""Wall-clock benchmark of the shipped ScalaPart build.

Builds the benchmark binary in wallbench/ against ../src (RelWithDebInfo, every SP_*
feature ON), generates the workload's input from --seed, runs it and prints
every metric by name with its unit. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones.

    python3 wallbench/run.py --workload embed_bulk --seed 1 --seconds 20 --trace 0

Everything it writes stays under .bench_build/ in the repository root:
the build, the generated inputs, one full result record per run (with host
and build provenance, for compare.py) and, for traced runs, a Chrome trace
of the benchmark's spans.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build"
BUILD = WORK / "wallbench"
DEADLINE_S = 160.0  # input generation and the run; the build is not counted


def fail(msg, code=2):
    print(f"wallbench: {msg}", file=sys.stderr)
    sys.exit(code)


def spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    return json.loads(path.read_text())


def build():
    """Configures once, then lets the build tool bring the binary up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources not found: expected src/ next to wallbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD / "wallbench"


def binary_json(cmd, what, timeout):
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{what} failed")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def inputs(binary, workload, seed, tiny):
    """Generates (or reuses) the input of (workload, seed, size). A cached
    input is reused only when the parameters it was generated with (suite
    graph, scale, seed, coordinates) are the workload's current ones."""
    tag = f"{workload}-{'tiny' if tiny else 'full'}"
    base = WORK / "inputs"
    out = base / f"{tag}-seed{seed}"
    done = out / "generated.json"
    size = ["--tiny"] if tiny else []
    want = binary_json([str(binary), "params", "--workload", workload,
                        "--seed", str(seed)] + size, "input parameters", 30)
    if done.is_file():
        info = json.loads(done.read_text())
        if info.get("params") == want:
            info["graph"] = str(out / "graph.metis")
            if "coords" in info:
                info["coords"] = str(out / "coords.txt")
            return info
        print(f"wallbench: cached input {out.name} was generated with "
              f"{info.get('params')}, not {want}; regenerating", file=sys.stderr)
    # Keep one input per workload and size on disk; the large ones are 80 MB.
    if base.is_dir():
        for old in base.glob(f"{tag}-seed*"):
            shutil.rmtree(old, ignore_errors=True)
    info = binary_json([str(binary), "gen", "--workload", workload, "--seed",
                        str(seed), "--out", str(out)] + size,
                       "input generation", 120)
    done.write_text(json.dumps(info))
    return info


def host_info():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    mem_kb = 0
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "kernel": platform.release(), "mem_total_mb": mem_kb // 1024,
            "python": platform.python_version()}


def source_info():
    """Git sha when the tree is a git checkout, and always a content hash of
    the measured sources (the benchmark's checkout need not be a git tree)."""
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke-test input size")
    ap.add_argument("--out-dir", default=str(WORK / "results"),
                    help="where the full result record is written")
    args = ap.parse_args()

    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    binary = build()
    start = time.monotonic()
    tiny = args.size == "tiny"
    inp = inputs(binary, args.workload, args.seed, tiny)

    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_out = trace_dir / f"{args.workload}-seed{args.seed}.json"
    cmd = [str(binary), "run", "--workload", args.workload,
           "--graph", inp["graph"], "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if "coords" in inp:
        cmd += ["--coords", inp["coords"]]
    if args.trace:
        cmd += ["--trace-out", str(trace_out)]
    if tiny:
        cmd.append("--tiny")
    # Its own session, so a timeout can stop the forked ranks of the
    # process backend along with the binary.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded its deadline", 3)
    sys.stderr.write(stderr)
    if proc.returncode != 0:
        fail(f"wallbench exited with {proc.returncode}", 3)
    res = json.loads(stdout.strip().splitlines()[-1])

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    got = res["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        fail(f"wallbench metrics {sorted(got)} do not match BENCHMARK.json")
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"unit of {m['name']} differs from BENCHMARK.json")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "input": {k: inp[k] for k in ("params", "vertices", "arcs",
                                            "graph_bytes", "isolated_dropped")},
              "host": host_info(), "build": res["build"],
              "source": source_info(), "result": res}
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    d = res["detail"]
    print(f"workload {args.workload} seed {args.seed}: {d['vertices']} vertices, "
          f"{d['edges']} edges, P={d['nranks']} {d['backend']}"
          + (f" T={d['threads']}" if d["threads"] else ""))
    print(f"host {record['host']['nproc']}x {record['host']['cpu_model']}; build "
          f"{res['build']['compiler']} {res['build']['build_type']} "
          + " ".join(f"{k}={'ON' if v else 'OFF'}" for k, v in res["build"]["flags"].items()))
    if not args.trace:
        print(f"partition_s is the median of {d['partition_s_samples']} calls; "
              f"setup_s the median of {len(d['setup_s_reads'])} reads; "
              f"cut {d['cut']:.0f} edges, modeled {d['modeled_s']:.6g} s")
    for m in wanted:
        print(f"  {m['name']:28s} {fmt(got[m['name']]['value']):>14s} {m['unit']}")
    if d.get("purpose"):
        p = d["purpose"]
        print(f"purpose: {p['stage']} is {p['stage_share']:.0%} of the traced call "
              f"({'ok' if p['ok'] else 'NOT MET'})")
    if inp["isolated_dropped"]:
        print(f"input altered: {inp['isolated_dropped']} isolated vertices dropped "
              "before writing the METIS file (read_metis cannot read them back)")
    if args.trace:
        print(f"spans: {trace_out.relative_to(ROOT)}")
    if res["failed"]:
        print(f"FAILED calls: {d['failures']}")
    if d["over_epsilon_calls"]:
        print(f"{d['over_epsilon_calls']} calls left a side above the partitioner's "
              "balance target epsilon (reported, not failed)")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": got}))


if __name__ == "__main__":
    main()
