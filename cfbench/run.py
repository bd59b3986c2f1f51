#!/usr/bin/env python3
"""Builds the cfbench binary from this checkout's sources and runs one workload.

    python3 cfbench/run.py --workload fig10_cold --seed 1000 --seconds 20 --trace 0

Run it from the root of a checkout. The build goes to .bench_build/cfbench
and is reused by later runs; each run gets a fresh scratch directory under
.bench_build, deleted afterwards. The binary's standard output is passed
through: its last line is the result object. The exit code is the binary's,
or 2 when the sources are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cfbench")
WORKLOADS = ("fig10_cold", "fig10_warm", "session_kernel")
RUN_TIMEOUT_S = 175


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1000)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 120:
        p.error("--seconds must be in [1, 120]")
    return args


def build():
    """Configures and builds the benchmark; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "exp", "sweep.hpp")):
        print("cfbench: no library sources under %s/src" % ROOT, file=sys.stderr)
        return None
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DBUILD_TESTING=OFF"],
        ["cmake", "--build", BUILD_DIR, "--target", "cfbench", "-j4"],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            print("cfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(BUILD_DIR, "cfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    args = parse_args()
    binary = build()
    if binary is None:
        return 2
    scratch = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--git-sha", git_sha()]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.tsv" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("cfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(proc.stdout.decode("utf-8", "replace"))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
