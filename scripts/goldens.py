#!/usr/bin/env python3
"""Byte-identity goldens for the figure benches and the CLI.

GOLDENS.json (repo root) holds one SHA-256 per output, the command that
makes it (relative to a build directory) and the toolchain tag of the
build that produced the hashes. Box-Muller draws go through libm, so the
hashes only mean something on the same compiler, glibc, build flags and
machine architecture: on any other tag --check skips with a message.

  scripts/goldens.py --check  [--build-dir DIR]   exit 1 if any hash moved
  scripts/goldens.py --update [--build-dir DIR]   rewrite GOLDENS.json
  scripts/goldens.py --targets                    CMake targets it runs

tests/goldens_probe prints the reader's internals (conditioned rows,
sync scores, weights, margins) in hex-float. Every bench runs with
--quick --threads 4 from a scratch working directory; --json-out files are hashed with every "*wall_us" value (real
elapsed time) masked. A PR that runs --update lists every moved entry in
CHANGES.md: that is the declared re-golden.
"""
import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDENS = os.path.join(ROOT, "GOLDENS.json")

# The figure/ablation suite; the micro benches print timings, not results.
BENCHES = [
    "bench_fig03_csi_trace", "bench_fig04_csi_pdf",
    "bench_fig05_good_subchannels", "bench_fig10_uplink_ber",
    "bench_fig11_freq_diversity", "bench_fig12_bitrate_vs_helper_rate",
    "bench_fig14_helper_locations", "bench_fig15_ambient_traffic",
    "bench_fig16_beacons", "bench_fig17_downlink_ber",
    "bench_fig18_false_positives", "bench_fig19_wifi_impact",
    "bench_fig20_correlation_range", "bench_ablation_uplink",
    "bench_ablation_downlink", "bench_ablation_contention",
    "bench_channel_validation",
]
JSON_BENCHES = {
    "bench_fig10_uplink_ber": "fig10.json",
    "bench_fig12_bitrate_vs_helper_rate": "fig12.json",
    "bench_fig17_downlink_ber": "fig17.json",
    "bench_fig20_correlation_range": "fig20.json",
}
CLI_MODES = ["uplink", "coded", "downlink", "query"]


def runs():
    """(command, {output name: file or None for stdout}) per run."""
    out = []
    for b in BENCHES:
        cmd = ["bench/" + b, "--quick", "--threads", "4"]
        outputs = {b + ".stdout": None}
        if b in JSON_BENCHES:
            cmd += ["--json-out", JSON_BENCHES[b]]
            outputs[b + ".json"] = JSON_BENCHES[b]
        out.append((cmd, outputs))
    for mode in CLI_MODES:
        out.append((["examples/wb_experiment_cli", mode],
                    {"cli_" + mode + ".stdout": None}))
    # The reader's internals in hex-float: the tables above print three
    # digits, so only this entry sees a one-ulp kernel change.
    out.append((["tests/goldens_probe"], {"goldens_probe.stdout": None}))
    return out


def cmake_cache(build_dir):
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"([A-Za-z_0-9]+):[A-Z]+=(.*)$", line.rstrip("\n"))
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def toolchain_tag(build_dir):
    cache = cmake_cache(build_dir)
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([cxx, "-dumpfullversion"], capture_output=True,
                             text=True).stdout.strip()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(filter(None, [
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")]))
    return {
        "compiler": os.path.basename(cxx) + " " + version,
        "libc": os.confstr("CS_GNU_LIBC_VERSION") or "unknown",
        "machine": platform.machine(),
        "build": "%s [%s] sanitize=%s" % (
            build_type, flags.strip(), cache.get("WB_SANITIZE", "OFF")),
    }


def mask_wall(text):
    return re.sub(r'("[^"]*wall_us"\s*:\s*)(\{[^{}]*\}|[^,\n}]+)',
                  r'\1"masked"', text)


def sha(data):
    return hashlib.sha256(data).hexdigest()


def measure(build_dir):
    """Runs every command once; returns {name: {"cmd", "sha256"}}."""
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for cmd, outputs in runs():
            exe = os.path.join(build_dir, cmd[0])
            t0 = time.monotonic()
            proc = subprocess.run([exe] + cmd[1:], cwd=tmp,
                                  capture_output=True)
            if proc.returncode != 0:
                sys.exit("goldens: %s exited %d:\n%s" % (
                    " ".join(cmd), proc.returncode,
                    proc.stderr.decode(errors="replace")))
            print("    %-55s %5.1f s" % (" ".join(cmd),
                                         time.monotonic() - t0))
            for name, path in outputs.items():
                if path is None:
                    data = proc.stdout
                else:
                    with open(os.path.join(tmp, path)) as f:
                        data = mask_wall(f.read()).encode()
                hashes[name] = {"cmd": " ".join(cmd), "sha256": sha(data)}
    return hashes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--update", action="store_true")
    mode.add_argument("--targets", action="store_true")
    ap.add_argument("--build-dir", default=os.path.join(ROOT, "build-perf"),
                    help="build tree holding bench/ and examples/ "
                         "(default: build-perf, check.sh's Release tree)")
    args = ap.parse_args()
    if args.targets:
        print(" ".join(sorted({os.path.basename(cmd[0])
                               for cmd, _ in runs()})))
        return 0
    build_dir = os.path.abspath(args.build_dir)
    tag = toolchain_tag(build_dir)

    if args.update:
        entries = measure(build_dir)
        with open(GOLDENS, "w") as f:
            json.dump({"toolchain": tag, "entries": entries}, f, indent=2,
                      sort_keys=True)
            f.write("\n")
        print("goldens: wrote %d entries to %s" % (len(entries), GOLDENS))
        return 0

    with open(GOLDENS) as f:
        golden = json.load(f)
    if golden["toolchain"] != tag:
        print("goldens: skipped — toolchain tag differs from GOLDENS.json")
        print("    file:  %s" % json.dumps(golden["toolchain"],
                                           sort_keys=True))
        print("    build: %s" % json.dumps(tag, sort_keys=True))
        return 0
    now = measure(build_dir)
    moved = []
    for name in sorted(golden["entries"]):
        old = golden["entries"][name]
        new = now.get(name)
        if new is None or new["cmd"] != old["cmd"]:
            moved.append("%s: no longer produced by `%s`" % (name,
                                                              old["cmd"]))
        elif new["sha256"] != old["sha256"]:
            moved.append("%s (`%s`): %s -> %s" % (
                name, old["cmd"], old["sha256"][:16], new["sha256"][:16]))
    for name in sorted(set(now) - set(golden["entries"])):
        moved.append("%s: new output without a golden" % name)
    if moved:
        print("goldens: %d of %d entries moved:" % (len(moved),
                                                    len(golden["entries"])))
        for m in moved:
            print("    " + m)
        return 1
    print("goldens: all %d entries byte-identical" % len(now))
    return 0


if __name__ == "__main__":
    sys.exit(main())
