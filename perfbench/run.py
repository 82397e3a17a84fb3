#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Run from the repository root. The C++ benchmark is built from source with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; every metric is checked against
the names and units declared in BENCHMARK.json. A traced run (--trace 1)
also writes its spans to <build dir>/spans/<workload>-seed<n>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
SELF_CHECK_SECONDS = 1


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    for needed in ("src/core/experiments.cpp", "bench/alloc_count.h",
                   "perfbench/CMakeLists.txt"):
        if not os.path.isfile(needed):
            fail(f"{needed} not found: run from the root of a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "wb_perfbench")


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (result dict, info lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans_dir, f"{workload}-seed{seed}.jsonl")]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        fail(f"{workload} exited with code {res.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no result line")

    want = declared_metrics(trace)
    got = result.get("metrics", {})
    if set(got) != set(want):
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, undeclared "
             f"{sorted(set(got) - set(want))}")
    for name, m in got.items():
        if m.get("unit") != want[name]:
            fail(f"{name} has unit {m.get('unit')}, BENCHMARK.json says "
                 f"{want[name]}")
    tag = result.get("tag", {})
    if not tag.get("release_comparable", False):
        print("perfbench: WARNING: unoptimised or sanitized build; do not "
              "compare these numbers with an optimised build's",
              file=sys.stderr)
    info = lines[:-1] + ["tag: " + json.dumps(tag, sort_keys=True)]
    out = {k: result[k] for k in ("correct", "attempted", "failed")}
    out["metrics"] = got
    return out, info


def self_check(binary):
    """A short run of every workload, untraced and traced, must pass its
    output checks and emit exactly the declared metrics."""
    with open("BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    ok = True
    for workload in workloads:
        for trace in (False, True):
            result, _ = run_workload(binary, workload, 1, SELF_CHECK_SECONDS,
                                     trace)
            good = result["correct"] and result["failed"] == 0
            ok = ok and good
            print(f"self-check {workload} trace={int(trace)}: "
                  f"{'ok' if good else 'FAILED'} "
                  f"({result['attempted']} attempted, "
                  f"{result['failed']} failed)")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    if not args.self_check and not args.workload:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    binary = build()
    if args.self_check:
        sys.exit(0 if self_check(binary) else 1)
    result, info = run_workload(binary, args.workload, args.seed,
                                args.seconds, bool(args.trace))
    for line in info:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
