#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs it.

Usage, from the root of the repository:

    python3 simbench/run.py --workload <mix2|wide32|shared8> --seed <n> \
        --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (``simbench/Cargo.toml``) that
depends on the repository's crates by path. It is built in release mode
into ``$CARGO_TARGET_DIR`` (default ``simbench/target``), then run with the
given arguments; its standard output ends with the result object. A failed
build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("simbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target")))
    binary = os.path.join(target, "release", "simbench")
    return subprocess.run([binary, *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
