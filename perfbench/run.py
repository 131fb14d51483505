#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload env_mix --seed 2014 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the repository's ../src compiled as a package of
the benchmark's own) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs rebuild only what changed. Build output goes to stderr, so
the last stdout line is the benchmark's JSON result. Exits non-zero, without
a result, when the repository sources are missing or the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("env_mix", "small_db", "dense_family")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core",
                                       "search_session.hpp")):
        print("perfbench: repository sources not found under " + ROOT,
              file=sys.stderr)
        return 2

    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                              or os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(os.path.join(out_dir, "perfbench"))
    except (subprocess.SubprocessError, OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 3

    spans = os.path.join(out_dir, "spans-%s-%d.json" % (args.workload,
                                                        args.seed))
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
           "--spans_out=" + spans]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
