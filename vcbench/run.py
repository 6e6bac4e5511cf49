#!/usr/bin/env python3
"""Build and run the vcopt benchmark (vcbench).

Run from the root of a vcopt checkout:

    python3 vcbench/run.py --workload routed10k_fill --seed 7 --seconds 25 --trace 0
    python3 vcbench/run.py --workload all --seed 7            # every workload

The benchmark is compiled from the checkout's own src/ tree into
.bench_build/ (CMake, Release) before the first run; later runs only rebuild
what changed.  Each workload runs in a process of its own, so its peak RSS is
its own.  The last line of stdout is one JSON object with the keys
"correct", "attempted", "failed" and "metrics"; the exit code is non-zero
when a correctness check fails or the benchmark cannot be built.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

WORKLOADS = ["paper30_batched", "routed10k_fill", "routed10k_churn",
             "jobs_wordcount"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "vcbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the vcbench target; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no vcopt source tree at %s/src; run from a vcopt checkout" % ROOT)
        return False
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "vcbench",
                      "-j", jobs])
        for cmd in steps:
            # Build chatter goes to stderr: stdout ends with the result line.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                log("build failed: " + " ".join(cmd))
                return False
    return True


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, workload + ".trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s exceeded %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("%s printed no result line" % workload)
    for line in lines[:-1]:
        print(line)
    if result is None:
        return proc.returncode or 1, None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    if not build():
        return 2
    if args.workload != "all":
        code, result = run_one(args.workload, args.seed, args.seconds,
                               args.trace)
        if result is None:
            return code or 1
        print(json.dumps(result), flush=True)
        return code

    # Every workload in turn; the summary prefixes metric names with the
    # workload ("routed10k_fill/decisions_per_s").
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_one(workload, args.seed, args.seconds, args.trace)
        worst = worst or code
        if result is None:
            summary["correct"] = False
            continue
        print(json.dumps(result), flush=True)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][workload + "/" + name] = metric
    print(json.dumps(summary), flush=True)
    return worst or (0 if summary["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
