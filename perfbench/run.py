#!/usr/bin/env python3
"""Builds the gqe benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload omq_guarded --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root, in Release mode; later runs only re-check it. All arguments
are passed to the benchmark binary, whose last line of standard output is
the JSON result. Build output goes to standard error.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)


def main():
    for needed in ("src/parser/parser.cc", "examples/gqe_serve.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} is missing; run from a gqe checkout",
                  file=sys.stderr)
            return 2
    build_dir = os.path.join(ROOT,
                             os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "gqe_perfbench")
    os.chdir(ROOT)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
