#!/usr/bin/env python3
"""Builds and runs the full-pipeline AIS benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload ocean_steady --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke          # all workloads at tiny scale + a traced run
    python3 perfbench/run.py --print-hashes   # stream hashes to pin in pinned_streams.json

The benchmark program is built from ../src with perfbench/CMakeLists.txt
into .bench_build/perfbench (an optimised build) on first use. The last
line of standard output is the result JSON printed by the program; build
output goes to standard error. With --trace 1 the Chrome trace is written
to .bench_build/traces/<workload>-seed<seed>.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "marlin_perfbench")
RUN_TIMEOUT_S = 170
# Runnable by name but not in BENCHMARK.json: its seed-to-seed spread is
# too wide for a bound (see perfbench/README.md).
EXTRA_WORKLOADS = ["harbour_watch"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "pipeline.h")):
        fail("no Marlin sources at %s/src; run from a full checkout" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4",
                  "--target", "marlin_perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def source_id():
    """Git commit when the root is a git checkout, else a digest of the
    src/ tree."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                               "HEAD"], capture_output=True, text=True)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src-" + digest.hexdigest()[:12]


def load_json(name):
    with open(name) as handle:
        return json.load(handle)


def run_program(args, capture):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([BINARY] + args, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines() if capture else []
    return done.returncode, lines


def program_args(workload, seed, seconds, trace, smoke, commit):
    pins = load_json(os.path.join(HERE, "pinned_streams.json"))
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--commit", commit]
    if workload in pins["hashes"]:
        args += ["--expect-hash", pins["hashes"][workload]]
    if smoke:
        args.append("--smoke")
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out", os.path.join(
            traces, "%s-seed%s%s.json" % (workload, seed,
                                          "-smoke" if smoke else ""))]
    return args


def smoke(commit):
    """Every workload at tiny scale plus one traced run: checks that the
    printed metric names match BENCHMARK.json and that the correctness gate
    passes."""
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    expected = {
        0: sorted(m["name"] for m in spec["end_to_end"]),
        1: sorted(m["name"] for m in spec["per_layer"]),
    }
    runs = [(w["name"], 0) for w in spec["workloads"]]
    runs += [(w, 0) for w in EXTRA_WORKLOADS] + [(EXTRA_WORKLOADS[-1], 1)]
    problems = []
    for workload, trace in runs:
        code, lines = run_program(
            program_args(workload, 1, 5, trace, True, commit), capture=True)
        label = "%s trace=%d" % (workload, trace)
        if code != 0 or not lines:
            problems.append("%s: exit code %d" % (label, code))
            continue
        result = json.loads(lines[-1])
        names = sorted(result["metrics"])
        if names != expected[trace]:
            problems.append("%s: metric names differ from BENCHMARK.json: "
                            "missing %s, extra %s" % (
                                label,
                                sorted(set(expected[trace]) - set(names)),
                                sorted(set(names) - set(expected[trace]))))
        if not result["correct"] or result["failed"] != 0:
            problems.append("%s: correctness gate failed: %s" % (
                label, [l for l in lines if l.startswith("# gate")]))
        print("%-28s correct=%s attempted=%d failed=%d" % (
            label, result["correct"], result["attempted"], result["failed"]))
    for problem in problems:
        print("SMOKE FAILURE " + problem, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--print-hashes", action="store_true")
    options = parser.parse_args()

    build()
    commit = source_id()
    if options.smoke:
        sys.exit(smoke(commit))
    if options.print_hashes:
        spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        names = [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS
        for workload in names:
            code, _ = run_program(["--workload", workload, "--print-hash"],
                                  capture=False)
            if code != 0:
                sys.exit(code)
        return
    if not options.workload:
        parser.error("--workload is required")
    code, _ = run_program(
        program_args(options.workload, options.seed, options.seconds,
                     options.trace, False, commit), capture=False)
    sys.exit(code)


if __name__ == "__main__":
    main()
