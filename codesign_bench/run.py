#!/usr/bin/env python3
"""Co-design pipeline benchmark: builds the harness from source and runs one workload.

Usage (from the repository root):

    python3 codesign_bench/run.py --workload analytic-sweep --seed 1 --seconds 10 --trace 0

The harness (pipeline_bench) and its self-test are built with CMake into
$CARGO_TARGET_DIR/codesign_bench (default .bench_build/codesign_bench) on the
first run. Every run executes the self-test, then the workload; the last line
of standard output is the result JSON. See README.md in this directory.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analytic-sweep", "design-search", "ground-truth", "warm-restart")
# One harness process must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
PREFILL_TIMEOUT_S = 120


def fail(message):
    print(f"codesign_bench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "codesign_bench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", out, "-j", jobs, "--target", "pipeline_bench", "bench_selftest"]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def run_harness(cmd, timeout):
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    build(out)
    selftest = subprocess.run([os.path.join(out, "bench_selftest")], stdout=sys.stderr,
                              stderr=sys.stderr)
    if selftest.returncode != 0:
        fail("self-test failed")

    workdir = os.path.join(out, f"work-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        base = [os.path.join(out, "pipeline_bench"), "--workload", args.workload,
                "--seed", str(args.seed), "--workdir", workdir]
        if args.workload == "warm-restart":
            # Fill the artifact store in a process of its own, so neither its
            # time nor its memory lands in the measured run.
            prefill = run_harness(base + ["--prefill"], PREFILL_TIMEOUT_S)
            sys.stderr.write(prefill.stdout)
            if prefill.returncode != 0:
                fail("warm-restart prefill failed")
        result = run_harness(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                             RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = result.stdout.splitlines()
    if not lines:
        fail(f"harness exited {result.returncode} without output")
    try:
        summary = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"harness exited {result.returncode}; last line is not a result")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(summary), flush=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
