#!/usr/bin/env python3
"""Fixture-corpus driver for tools/wb_analyze (registered in ctest as
`analyze_fixtures`).

Layout: tests/analyze/fixtures/<rule>/{good,bad}/ — each a miniature scan
root (src/, bench/, examples/ as needed). Contract per case:

  bad/   the analyzer exits non-zero, reports >= 1 finding of exactly the
         rule named by the directory, and NO findings of any other rule
         (so a rule regression AND cross-rule false positives both fail)
  good/  the analyzer exits zero with zero unsuppressed findings

The analyzer is exercised through its real CLI (subprocess), the same way
scripts/check.sh and CI invoke it, so flag parsing and JSON output are
covered too.
"""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"
ANALYZER = REPO / "tools" / "wb_analyze"


def run_case(root: Path, json_out: Path,
             extra: list[str] | None = None) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(ANALYZER), "--root", str(root),
         "--json-out", str(json_out), "--quiet", *(extra or [])],
        capture_output=True, text=True)
    try:
        doc = json.loads(json_out.read_text())
    except (OSError, json.JSONDecodeError):
        doc = {}
    return proc.returncode, doc


def main() -> int:
    if not FIXTURES.is_dir():
        print(f"analyze_fixtures: missing {FIXTURES}", file=sys.stderr)
        return 1

    failures: list[str] = []
    cases = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(p for p in FIXTURES.iterdir() if p.is_dir()):
            rule = case.name
            for kind in ("good", "bad"):
                root = case / kind
                cases += 1
                if not root.is_dir():
                    failures.append(f"{rule}/{kind}: fixture tree missing")
                    continue
                rc, doc = run_case(root, Path(tmp) / f"{rule}.{kind}.json")
                if not doc:
                    failures.append(f"{rule}/{kind}: no JSON report")
                    continue
                nonzero = {r: c for r, c in doc["counts"].items() if c}
                if kind == "bad":
                    if rc == 0:
                        failures.append(f"{rule}/bad: expected non-zero exit")
                    elif nonzero.get(rule, 0) < 1:
                        failures.append(
                            f"{rule}/bad: rule did not fire (counts: "
                            f"{nonzero or '{}'})")
                    elif set(nonzero) != {rule}:
                        failures.append(
                            f"{rule}/bad: unexpected cross-rule findings: "
                            f"{nonzero}")
                else:
                    if rc != 0 or nonzero:
                        failures.append(
                            f"{rule}/good: expected clean run, got exit {rc}"
                            f" counts {nonzero}")

        # --rule filtering, driven against a real bad fixture: filtering
        # to the fixture's own rule still fires; filtering to an
        # unrelated rule is clean (and must not flag the unrelated
        # rule's suppressions as stale); an unknown name is usage error.
        filter_root = FIXTURES / "units-raw-api" / "bad"
        cases += 3
        rc, doc = run_case(filter_root, Path(tmp) / "filter.own.json",
                           extra=["--rule", "units-raw-api"])
        hits = {r: c for r, c in doc.get("counts", {}).items() if c}
        if rc == 0 or set(hits) != {"units-raw-api"}:
            failures.append(
                f"--rule own: expected only units-raw-api, got exit {rc} "
                f"counts {hits}")
        rc, doc = run_case(filter_root, Path(tmp) / "filter.other.json",
                           extra=["--rule", "no-rand", "--rule", "no-stox"])
        hits = {r: c for r, c in doc.get("counts", {}).items() if c}
        if rc != 0 or hits:
            failures.append(
                f"--rule other: expected clean, got exit {rc} counts {hits}")
        rc, _ = run_case(filter_root, Path(tmp) / "filter.unknown.json",
                         extra=["--rule", "no-such-rule"])
        if rc != 2:
            failures.append(f"--rule unknown: expected exit 2, got {rc}")

    # --list-rules must include every units-family rule with its family.
    listing = subprocess.run(
        [sys.executable, str(ANALYZER), "--list-rules"],
        capture_output=True, text=True)
    cases += 1
    missing = [r for r in ("units-raw-api", "units-inline-db-math",
                           "units-mixed-domain")
               if r not in listing.stdout or "[units/" not in listing.stdout]
    if listing.returncode != 0 or missing:
        failures.append(f"--list-rules: missing units rules {missing}")

    for f in failures:
        print(f"FAIL {f}")
    if failures:
        print(f"analyze_fixtures: {len(failures)}/{cases} case(s) failed",
              file=sys.stderr)
        return 1
    print(f"analyze_fixtures: OK ({cases} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
