#!/usr/bin/env python3
"""Builds and runs the qmx lock-service benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload tcp-hot|loopback-zipf|sim-faults \
        --seed N --seconds S --trace 0|1

It builds `qmxctl` (the system under test) and the benchmark binary in
release mode, offline, into $CARGO_TARGET_DIR (default `.bench_build`),
then runs the benchmark. Build output goes to stderr; the benchmark's
stdout is passed through, so its last line is the JSON result. Every
process the run starts belongs to one process group, which is killed
before this script exits.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tcp-hot", "loopback-zipf", "sim-faults")
RUN_TIMEOUT_S = 170


def cargo_build(args, target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit("build failed: " + " ".join(cmd))


def describe(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    cargo_build(["-p", "qmx-cli"], target_dir)
    cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], target_dir)

    env = dict(
        os.environ,
        PERFBENCH_RUSTC=describe(["rustc", "--version"]),
        PERFBENCH_COMMIT=describe(["git", "rev-parse", "--short", "HEAD"]),
    )
    cmd = [
        os.path.join(target_dir, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--qmxctl", os.path.join(target_dir, "release", "qmxctl"),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    # Turn a polite kill into an exit, so the process group is still reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = 124
    finally:
        # The benchmark kills its own children; this also covers a crash.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
