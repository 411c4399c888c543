#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `statleak` binary and the benchmark from source (release
profile, into $CARGO_TARGET_DIR, default `.bench_build`), then runs the
benchmark with the given arguments. The last line of standard output is the
result object; build output goes to standard error. Exits non-zero without
a result when the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(target, *args):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: `{' '.join(cmd)}` failed with code {done.returncode}")


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target, "--manifest-path", "Cargo.toml", "--bin", "statleak")
    build(target, "--manifest-path", os.path.join("perfbench", "Cargo.toml"))
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--statleak",
        os.path.join(release, "statleak"),
    ]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
