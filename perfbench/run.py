#!/usr/bin/env python3
"""Builds the aft benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload ba64-sim --seed 1 --seconds 20 --trace 0

Builds `aft-partyd` (the deployment daemon) from the repository's own
workspace and the `perfbench` binary from this directory, both in release
mode into `$CARGO_TARGET_DIR` (default `.bench_build` at the repository
root), then runs `perfbench` with the given arguments. The last line of
standard output is the JSON result; build output goes to standard error.
Exits non-zero without a result if the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "aft-bench", "--bin", "aft-partyd"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    env["AFT_PARTYD"] = os.path.join(release, "aft-partyd")
    return subprocess.run(
        [os.path.join(release, "perfbench")] + sys.argv[1:], cwd=ROOT, env=env
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
