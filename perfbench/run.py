#!/usr/bin/env python3
"""Build the LASER benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
the program (Release) into .bench_build (or $CARGO_TARGET_DIR); later
calls rebuild incrementally. The benchmark's last stdout line is the JSON
result; build output goes to stderr. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_cold", "replay_warm", "fabric_mix", "paper_suite")
BUILD_TIMEOUT_S = 780
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the program's sources (CMakeLists.txt, src/) are not beside "
             "perfbench/; run from the root of a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    # Everything: the benchmark, the paper harnesses, bench_schema_check.
    run_build_step(["cmake", "--build", build_dir, "-j", jobs])


def run_build_step(cmd):
    try:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build step failed: %s" % e)
    if res.returncode != 0:
        fail("build step failed (exit %d): %s" % (res.returncode,
                                                  " ".join(cmd)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    build_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build(build_dir)

    work_dir = os.path.join(build_dir, "perfbench-work", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--bin-dir", os.path.join(build_dir, "laser"),
           "--work-dir", work_dir]
    # Own process group, so a timeout also stops the harness children.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    sys.exit(rc)


if __name__ == "__main__":
    main()
