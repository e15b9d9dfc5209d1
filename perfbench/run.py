#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload serve_unique --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (which builds the
repository's libraries from source) into .bench_build/perfbench, runs the
benchmark's unit tests, then runs one workload. Every line of the
benchmark's output is passed through; the last line is the result JSON.
Exits non-zero, without a result line, when the build, the unit tests or
the run fail.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "work")
WORKLOADS = ("serve_unique", "serve_hot", "train_paper")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def descendants(pid):
    """Process ids below pid, from /proc (children of every thread)."""
    found = []
    task_dir = "/proc/%d/task" % pid
    try:
        tasks = os.listdir(task_dir)
    except OSError:
        return found
    for task in tasks:
        try:
            with open(os.path.join(task_dir, task, "children")) as f:
                children = [int(c) for c in f.read().split()]
        except OSError:
            continue
        for child in children:
            found += [child] + descendants(child)
    return found


def run(cmd, timeout, **kwargs):
    """Runs cmd; on timeout kills it and everything it started (compilers
    under the build tool included) and waits for it."""
    proc = subprocess.Popen(cmd, text=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        for pid in [proc.pid] + descendants(proc.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        proc.communicate()
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out or ""


def run_quiet(cmd, timeout):
    code, out = run(cmd, timeout, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if code != 0:
        sys.stderr.write(out[-4000:])
        fail("command failed: " + " ".join(cmd))


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR] + generator,
                  BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", BUILD_DIR, "--parallel", str(os.cpu_count() or 1),
               "--target", "fkd_perfbench", "perfbench_test"], BUILD_TIMEOUT_S)


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    run_quiet([os.path.join(BUILD_DIR, "perfbench_test"), "--gtest_brief=1"], 60)
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "fkd_perfbench"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--work-dir=" + WORK_DIR]
    code, stdout = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print(lines[-1] if lines else "")
        fail("no result line (exit code %d)" % code)
    if code != 0 or not result.get("correct"):
        print(json.dumps(result))
        fail("correctness check failed (exit code %d)" % code)
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        fail("metrics differ from BENCHMARK.json: " + ", ".join(sorted(missing)))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
