#!/usr/bin/env python3
"""Builds and runs one workload of the GMine analyst benchmark.

Run from the root of a GMine checkout:

    python3 perfbench/run.py --workload navigate --seed 1 --seconds 35 --trace 0

The program and the load driver are built from the checkout's sources
into .bench_build (or $CARGO_TARGET_DIR when set); the first run pays the
build. The driver's report goes to stdout and its last line is the JSON
result. --selftest instead builds the benchmark's own tests and runs them
with ctest (unit tests plus a reduced-scale smoke of every workload).
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("navigate", "mixed_analyst", "rest_analyst", "outofcore_mine",
             "edit_navigate")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir, tests):
    """Configures (once) and builds the driver and the gmine CLI."""
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release",
                 f"-DPERFBENCH_TESTS={'ON' if tests else 'OFF'}"]
    targets = ["perfbench_driver", "gmine_cli"] + (["perfbench_test"] if tests else [])
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [configure, ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets]
    for step in steps:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def run_driver(argv):
    """Runs the driver in its own process group; returns its exit code."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {RUN_TIMEOUT_S}s; killing it")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers, if any
        except ProcessLookupError:
            pass
    sys.stdout.write(out.decode(errors="replace"))
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    # A TERM unwinds through the `finally` blocks: the driver's process
    # group is killed and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(root, build_dir, args.selftest):
        return 1
    if args.selftest:
        return subprocess.run(["ctest", "--test-dir", build_dir, "--output-on-failure",
                               "-R", "perfbench"]).returncode

    work_root = os.path.join(root, ".bench_work")
    work = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    argv = [os.path.join(build_dir, "perfbench_driver"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", f"{args.seconds:g}", "--trace", str(args.trace),
            "--gmine", os.path.join(build_dir, "gmine", "gmine"),
            "--work", work, "--trace-dir", os.path.join(work_root, "traces")]
    started = time.time()
    try:
        code = run_driver(argv)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log(f"{args.workload} seed={args.seed} exit={code} in {time.time() - started:.1f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
