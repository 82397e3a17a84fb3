#!/usr/bin/env python3
"""Validate a BENCH_decoder.json produced by `bench_decoder_micro --json-out`.

Checks the schema (meta + the seven measurement rows) and enforces two
steady-state gates on the workspace rows: the decode hot path must not
allocate per call (DESIGN.md §10), and the stream-batched conditioning
kernels must beat the frozen scalar reference by --min-conditioning-speedup
(DESIGN.md §15; the ratio is vectorisation only — both paths are
allocation-free). Used by the ctest smoke test and by scripts/check.sh.

Usage:
  validate_bench_decoder.py FILE                      # validate existing file
  validate_bench_decoder.py --bench BIN --out FILE    # run the bench first
"""

import argparse
import json
import subprocess
import sys

REQUIRED_ROWS = (
    "full_decode_seed",
    "conditioning_seed",
    "full_decode_allocating",
    "conditioning_allocating",
    "full_decode_workspace",
    "conditioning_workspace",
    "conditioning_scalar",
)
WORKSPACE_ROWS = ("full_decode_workspace", "conditioning_workspace")

# Budgeted steady-state allocations per decode for the workspace path.
MAX_WORKSPACE_ALLOCS = 0

# Required conditioning_scalar/conditioning_workspace ratio. 2.0 is the
# Release gate (scripts/check.sh); the ctest smoke test passes 0 because
# Debug/-O0 builds do not vectorise.
MIN_CONDITIONING_SPEEDUP = 2.0


def fail(msg):
    print(f"validate_bench_decoder: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("json_file", nargs="?", help="existing report to validate")
    ap.add_argument("--bench", help="bench_decoder_micro binary to run first")
    ap.add_argument("--out", help="report path when running --bench")
    ap.add_argument("--quick", action="store_true",
                    help="pass --quick to the bench")
    ap.add_argument("--max-workspace-allocs", type=float,
                    default=MAX_WORKSPACE_ALLOCS)
    ap.add_argument("--min-conditioning-speedup", type=float,
                    default=MIN_CONDITIONING_SPEEDUP,
                    help="required conditioning_scalar/conditioning_workspace "
                         "ratio (0 disables, for unoptimised builds)")
    args = ap.parse_args()

    if args.bench:
        if not args.out:
            fail("--bench requires --out")
        cmd = [args.bench, "--json-out", args.out]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd)
        if proc.returncode != 0:
            fail(f"bench exited with {proc.returncode}")
        path = args.out
    elif args.json_file:
        path = args.json_file
    else:
        fail("give a report file or --bench/--out")

    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")

    meta = report.get("meta")
    if not isinstance(meta, dict):
        fail("missing meta object")
    if meta.get("bench") != "decoder_micro":
        fail(f"meta.bench is {meta.get('bench')!r}, want 'decoder_micro'")
    for key in ("packets", "iters", "speedup_full_decode_vs_seed",
                "speedup_conditioning_vs_scalar"):
        if not isinstance(meta.get(key), (int, float)) or meta[key] <= 0:
            fail(f"meta.{key} missing or not a positive number")
    if not isinstance(meta.get("quick"), bool):
        fail("meta.quick missing or not a bool")

    rows = {r.get("row"): r for r in report.get("rows", [])}
    for name in REQUIRED_ROWS:
        row = rows.get(name)
        if row is None:
            fail(f"missing row {name!r}")
        for key in ("ns_per_packet", "allocs_per_decode"):
            v = row.get(key)
            if not isinstance(v, (int, float)) or v < 0:
                fail(f"row {name!r}: {key} missing or negative")
        if row["ns_per_packet"] <= 0:
            fail(f"row {name!r}: ns_per_packet must be positive")

    for name in WORKSPACE_ROWS:
        allocs = rows[name]["allocs_per_decode"]
        if allocs > args.max_workspace_allocs:
            fail(f"row {name!r}: {allocs} allocations/decode exceeds the "
                 f"budget of {args.max_workspace_allocs}")

    cond_speedup = meta["speedup_conditioning_vs_scalar"]
    if cond_speedup < args.min_conditioning_speedup:
        fail(f"conditioning speedup {cond_speedup:.2f}x is below the "
             f"required {args.min_conditioning_speedup:.2f}x "
             f"(conditioning_scalar / conditioning_workspace)")

    speedup = meta["speedup_full_decode_vs_seed"]
    print(f"validate_bench_decoder: OK ({path}: "
          f"speedup {speedup:.2f}x vs seed, conditioning "
          f"{cond_speedup:.2f}x vs scalar, workspace allocs "
          f"{[rows[n]['allocs_per_decode'] for n in WORKSPACE_ROWS]})")


if __name__ == "__main__":
    main()
