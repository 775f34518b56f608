#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 10 --trace 0

Run from the repository root. Cargo builds into $CARGO_TARGET_DIR when it
is set (relative paths are taken from the current directory), else into
perfbench/target. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. The exit code is the
build's when it fails, else the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    target = os.path.join(os.getcwd(), target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print(f"run.py: building the benchmark failed ({build.returncode})", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe, *sys.argv[1:]], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
