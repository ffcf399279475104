#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the `mcds-cli` daemon and the
`perfbench` harness from source (release profile, into $CARGO_TARGET_DIR,
default `.bench_build`), runs one workload, and passes the harness's output
through: the last line of standard output is the JSON result.  Exits
non-zero, printing no result, when the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve-prune-20k", "solve-1m", "churn-10k")
# The harness must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build(env):
    """Builds both executables; their output goes to stderr."""
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "mcds-cli"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"), args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cli", os.path.join(release, "mcds-cli"),
        "--work", os.path.join(ROOT, ".perfbench"),
    ]
    # Its own process group, so a timeout also stops the daemons it runs.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
