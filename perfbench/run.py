#!/usr/bin/env python3
"""Builds the disguise benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (which pulls in ../src) under the build directory named by
CARGO_TARGET_DIR, default .bench_build; later runs only re-check the build.
Build output goes to standard error, so the last line of standard output is
the benchmark's JSON result. Exits non-zero, without a result, when the
build or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("compose-sealed", "durable-serial", "daemon-closed")
# One run must finish within 180 s; the binary measures for --seconds and
# then checks and reopens, so this leaves room without hanging forever.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def run_step(cmd, timeout, **kwargs):
    """Runs cmd; returns its exit code, or 124 after killing it on timeout."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def build(build_dir, env):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"])
    for step in steps:
        if run_step(step, BUILD_TIMEOUT_S, stdout=sys.stderr, env=env) != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    # Compiler and benchmark temporaries stay inside the build directory.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not build(build_dir, env):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        cmd = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
        sys.stdout.flush()
        return 0 if run_step(cmd, RUN_TIMEOUT_S, env=env) == 0 else 1
    finally:
        # Spans of traced runs stay next to the build for inspection.
        for name in os.listdir(work_dir):
            path = os.path.join(work_dir, name)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
        if not os.listdir(work_dir):
            os.rmdir(work_dir)


if __name__ == "__main__":
    sys.exit(main())
