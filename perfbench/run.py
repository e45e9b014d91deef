#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the benchmark (the program's sources plus perfbench/*.cc, one
threaded RelWithDebInfo tree in .bench_build/ at the repository root),
runs one workload, and re-prints its result line after checking that
it names exactly the metrics BENCHMARK.json declares.

    python3 perfbench/run.py --workload threaded_rw --seed 1 \
        --seconds 5 --trace 0
    python3 perfbench/run.py --selfcheck

--trace 1 prints the per-layer metrics instead of the end-to-end ones
and writes the run's spans to .bench_trace/<workload>-<seed>.spans.jsonl.
--selfcheck perturbs the benchmark's expected model (never the
program) one check at a time and fails unless every perturbed run
reports failed operations.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
TRACE = os.path.join(ROOT, ".bench_trace")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("threaded_rw", "archive_ingest", "zipf_mix")

# Model checks each workload runs, and so can be shown to fail.
SELFCHECKS = {
    "threaded_rw": ("content", "version"),
    "archive_ingest": ("content", "version", "restore"),
    "zipf_mix": ("content", "version", "latency"),
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources in %s/src; nothing to benchmark" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[kind]}


def run_once(workload, seed, seconds, trace, perturb=None):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        os.makedirs(TRACE, exist_ok=True)
    if perturb:
        cmd += ["--perturb", perturb]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with %d" % (workload, proc.returncode))
    return lines[-1], json.loads(lines[-1])


def check_result(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    want = declared("per_layer" if trace else "end_to_end")
    got = set(result["metrics"])
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(want - got), sorted(got - want)))


def selfcheck():
    ok = True
    for workload, perturbs in SELFCHECKS.items():
        _, clean = run_once(workload, 1, 1, 0)
        good = clean["correct"] and clean["failed"] == 0
        print("%-15s %-8s failed=%d correct=%s %s" % (
            workload, "none", clean["failed"], clean["correct"],
            "ok" if good else "UNEXPECTED"))
        ok = ok and good
        for perturb in perturbs:
            _, res = run_once(workload, 1, 1, 0, perturb)
            caught = res["failed"] > 0 and not res["correct"]
            print("%-15s %-8s failed=%d correct=%s %s" % (
                workload, perturb, res["failed"], res["correct"],
                "caught" if caught else "MISSED"))
            ok = ok and caught
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not args.selfcheck and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    build()
    if args.selfcheck:
        return selfcheck()
    line, result = run_once(args.workload, args.seed, args.seconds,
                            args.trace)
    check_result(result, args.trace)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
