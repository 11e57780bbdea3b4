#!/usr/bin/env python3
"""End-to-end benchmark of the CEAFF system.

Builds the benchmark driver (perfbench/CMakeLists.txt, Release) from the
sources of this checkout, runs one workload in a fresh process, checks its
result and prints it. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it is
the input and environment record.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Self-check (runs one workload on several seeds, prints each end-to-end
metric's spread next to its bound from BENCHMARK.json):

    python3 perfbench/run.py --self-check --workload NAME --runs 5

See perfbench/README.md for the workloads, metrics and trace format.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "ceaff_perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
# One run of this script must end within 180 s; the workload process gets
# this much of it.
RUN_TIMEOUT_S = 170

WORKLOADS = ("align_dense", "align_text", "serve_topk", "serve_fleet")


def load_spec():
    """BENCHMARK.json: the metric names every workload reports (end-to-end
    with --trace 0, per-layer with --trace 1), bounds and run length."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "ceaff_perfbench", "-j", jobs])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(build_log) as f:
                    tail = f.read()[-4000:]
                log("build failed: " + " ".join(cmd) + "\n" + tail)
                return False
    return True


def source_digest():
    """sha256 over the program sources and the benchmark itself."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def stop_group(pgid):
    """Kills whatever is left of a process group and waits until it is gone
    (the shard workers the router forked belong to it)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_workload(workload, seed, seconds, trace):
    """Runs the driver once; returns (record, result) or raises RuntimeError."""
    work_dir = os.path.join(
        WORK_ROOT, "%s-seed%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--work_dir", work_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        raise RuntimeError("workload %s timed out after %d s"
                           % (workload, RUN_TIMEOUT_S))
    stop_group(proc.pid)
    if trace:
        trace_dir = os.path.join(WORK_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        src = os.path.join(work_dir, "trace.json")
        if os.path.exists(src):
            shutil.copy(src, os.path.join(
                trace_dir, "%s-seed%d.json" % (workload, seed)))
    shutil.rmtree(work_dir, ignore_errors=True)
    lines = [l for l in stdout.splitlines() if l.strip()]
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError("driver exited with %d" % proc.returncode)
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    return record, result


def validate(spec, trace, result):
    """Problems with the result's shape; empty when it is well formed."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        problems.append("failed must be a whole number")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if sorted(got) != sorted(want):
        problems.append("metrics %s, expected %s"
                        % (sorted(got), sorted(want)))
    for name, m in got.items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append("metric %s is not a finite number" % name)
        if name in want and m.get("unit") != want[name]:
            problems.append("metric %s has unit %r, expected %r"
                            % (name, m.get("unit"), want[name]))
    return problems


def run_once(args):
    if args.workload not in WORKLOADS:
        log("unknown workload %r (one of %s)" % (args.workload,
                                               ", ".join(WORKLOADS)))
        return 2
    spec = load_spec()
    if not build():
        return 2
    try:
        record, result = run_workload(args.workload, args.seed, args.seconds,
                                      args.trace)
    except (RuntimeError, ValueError, KeyError) as e:
        log(str(e))
        return 1
    problems = validate(spec, args.trace, result)
    for p in problems:
        log("malformed result: " + p)
    if problems:
        result["correct"] = False
    record["git_sha"] = git_sha()
    record["source_digest"] = source_digest()
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


def self_check(args):
    """Runs one workload on several seeds and prints each end-to-end
    metric's spread (interquartile range over median) next to its bound."""
    if args.workload not in WORKLOADS:
        log("unknown workload %r" % args.workload)
        return 2
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds_given else spec["run_seconds"]
    if not build():
        return 2
    values = {name: [] for name in bounds}
    for i in range(args.runs):
        seed = args.seed + i
        start = time.time()
        try:
            _, result = run_workload(args.workload, seed, seconds, 0)
        except (RuntimeError, ValueError, KeyError) as e:
            log(str(e))
            return 1
        if not result["correct"]:
            log("seed %d: a correctness check failed" % seed)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        log("seed %d done in %.1f s" % (seed, time.time() - start))
    worst = 0
    print("%-14s %12s %12s %12s %8s %7s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        if spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "NOISY"
            worst = 1
        print("%-14s %12.6g %12.6g %12.6g %8.4f %7.3f  %s" % (
            name, med, q1, q3, spread, bound, verdict))
    for name, vals in values.items():
        print("%-14s %s" % (name, " ".join("%.6g" % v for v in vals)))
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    args.seconds_given = args.seconds is not None
    if args.self_check:
        return self_check(args)
    if args.seconds is None or args.seconds <= 0:
        log("--seconds must be given and positive")
        return 2
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
