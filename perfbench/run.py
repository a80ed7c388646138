#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload swap_storm --seed 1 --seconds 30 --trace 0

Every call configures a Release tree in .bench_build (or in
$CARGO_TARGET_DIR when set) and builds it; after the first call this only
rebuilds what changed. Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. The exit code is the benchmark's: non-zero when a
correctness check fails or the build does.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if (shutil.which("ninja") and
            not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "ac3_perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "ac3_perfbench")


def main():
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
