#!/usr/bin/env python3
"""Build the end-to-end stack benchmark from source and run one workload.

Usage (from the repository root):

    python3 stackbench/run.py --workload hot_direct --seed 1 --seconds 10 --trace 0

The library and the benchmark program are configured and built with CMake
(Release) into $CARGO_TARGET_DIR, or .bench_build when that is unset; once
built, a run only re-checks that the build is current. Build output goes to
stderr, so the program's stdout ends with its one-line JSON result. The exit
code is the program's: non-zero when a correctness gate failed, when the build
failed, or when the run overran its time limit.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot_direct", "rollup_fold", "dashboard_writes")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"stackbench: {err}", file=sys.stderr)
        return False


def configured_for(out, source):
    """True when `out` holds a CMake cache for this source directory."""
    cache = os.path.join(out, "CMakeCache.txt")
    try:
        with open(cache, encoding="utf-8", errors="replace") as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    home = line.split("=", 1)[1].strip()
                    return os.path.realpath(home) == os.path.realpath(source)
    except OSError:
        pass
    return False


def build(out):
    # A build directory configured for another checkout cannot be reused.
    if (os.path.exists(os.path.join(out, "CMakeCache.txt"))
            and not configured_for(out, HERE)):
        shutil.rmtree(out, ignore_errors=True)
    if not configured_for(out, HERE):
        if not run_logged(["cmake", "-S", HERE, "-B", out,
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_logged(["cmake", "--build", out, "--target", "stack_bench",
                       "-j", jobs], BUILD_TIMEOUT_S)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--clients", type=int, default=4)
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("stackbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(out, "stack_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--clients", str(args.clients),
           "--scratch-dir", out, "--git-commit", git_commit()]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("stackbench: run exceeded its time limit", file=sys.stderr)
        return 3
    finally:
        # Never leave the program running, whatever ended this script.
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    # SIGTERM unwinds like an exit, so main()'s cleanup stops the program.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
