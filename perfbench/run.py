#!/usr/bin/env python3
"""Run one vboost benchmark workload.

    python3 perfbench/run.py --workload <fig14_mc|serve_cluster|matic_train>
                             --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles
the simulator from ../src) into the build directory ($CARGO_TARGET_DIR,
default .bench_build), warms the benchmark's model cache in a separate
process so training never lands in a timed run, then runs the workload
in its own process. The last line of standard output is the JSON
result; the exit status is nonzero when the build fails or any work
item's output digest differs from the reference (see README.md).
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("fig14_mc", "serve_cluster", "matic_train")
REFERENCE = os.path.join(BENCH_DIR, "reference_digests.txt")

BUILD_TIMEOUT_S = 780
WARM_TIMEOUT_S = 300
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def call(cmd, timeout, capture=False):
    """Run cmd to completion (killed on timeout); output to stderr
    unless captured."""
    try:
        return subprocess.run(
            cmd, cwd=ROOT, timeout=timeout, text=True,
            stdout=subprocess.PIPE if capture else sys.stderr,
            stderr=None if capture else sys.stderr)
    except subprocess.TimeoutExpired:
        log("timed out after", timeout, "s:", " ".join(cmd))
        return None


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("vboost sources not found next to", BENCH_DIR)
        return None
    cmake_dir = os.path.join(bdir, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        r = call(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if r is None or r.returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    r = call(["cmake", "--build", cmake_dir, "--target", "vboost_perfbench",
              "-j", jobs], BUILD_TIMEOUT_S)
    if r is None or r.returncode != 0:
        return None
    return os.path.join(cmake_dir, "vboost_perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", default=REFERENCE,
                   help="reference digest table (default: %(default)s)")
    p.add_argument("--write-reference", action="store_true",
                   help="record this seed's digests in the reference table")
    args = p.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        log("build failed")
        return 2
    cache = os.path.join(bdir, "model_cache")
    r = call([binary, "warm", "--cache-dir", cache], WARM_TIMEOUT_S)
    if r is None or r.returncode != 0:
        log("model cache warm-up failed")
        return 2

    cmd = [binary, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cache-dir", cache,
           "--out-dir", os.path.join(bdir, "results"),
           "--reference", os.path.abspath(args.reference)]
    if args.write_reference:
        cmd.append("--write-reference")
    r = call(cmd, RUN_TIMEOUT_S, capture=True)
    if r is None:
        return 1
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        sys.stdout.write(r.stdout)
        log("workload produced no result (exit status %d)" % r.returncode)
        return 1
    print("\n".join(lines), flush=True)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
