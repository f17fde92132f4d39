#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

Usage (from the repository root):
    python3 benchmark/run.py --workload leap-powergraph --seed 1 \
        --seconds 20 --trace 0

The build goes to .bench_build/benchmark under the repository root; build
output goes to stderr so that the last line of stdout is the result JSON
printed by the benchmark binary. See benchmark/README.md.
"""

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "benchmark")
BINARY = os.path.join(BUILD_DIR, "leap_benchmark")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
# A run measures for --seconds, plus set-up and the held-out-seed gate; a
# hung binary is killed well before the caller's own limit.
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag


def build():
    """Configures and builds the benchmark; returns True on success."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        + generator,
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def without_aslr():
    """Turns off address-space randomisation in the child before exec.

    With it on, the heap starts at a random offset and peak RSS differs
    from run to run by up to 2% for the same inputs; with it off it
    repeats to the page. Where the kernel refuses, nothing changes.
    """
    personality = ctypes.CDLL(None, use_errno=True).personality
    current = personality(0xFFFFFFFF)  # query
    if current != -1:
        personality(current | ADDR_NO_RANDOMIZE)


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the simulator and benchmark sources (path + content).

    Ties a result to the code that produced it when the tree is not a git
    checkout.
    """
    digest = hashlib.sha256()
    for top in ("src", "benchmark"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def report(stdout, trace):
    """Prints the metric table and the result line.

    The binary's last line holds every value it computed; BENCHMARK.json
    names the reported metrics and their units. Returns False when there is
    no result or a named metric is missing.
    """
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        values = result["values"]
    except (IndexError, ValueError, KeyError, TypeError):
        print("benchmark printed no result line", file=sys.stderr)
        return False
    for line in lines[:-1]:
        print(line)
    named = spec["end_to_end"] + spec["per_layer"]
    units = {m["name"]: m["unit"] for m in named}
    order = [m["name"] for m in named if m["name"] in values]
    for name in order + sorted(set(values) - set(units)):
        print("%-40s %22r %s" % (name, values[name], units.get(name, "")))
    if result["attempted"]:
        print("%-40s %22r" % ("failed_access_ratio",
                              result["failed"] / result["attempted"]))
    reported = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in reported if m["name"] not in values]
    if missing:
        print("metrics missing from the result: %s" % missing, file=sys.stderr)
        return False
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in reported},
    }))
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--source-digest", source_digest()]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            preexec_fn=without_aslr)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("benchmark timed out after %.0f s" % (time.monotonic() - start),
              file=sys.stderr)
        return 1
    if not report(stdout, args.trace):
        return proc.returncode or 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
