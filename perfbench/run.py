#!/usr/bin/env python3
"""Builds the serving-stack benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload replay|wire|budget --seed N \
        --seconds S --trace 0|1

The build goes to .bench_build/perfbench (CMake, Release); build output
goes to stderr, so the last line of stdout is the benchmark's JSON
result. `--self-test` builds and runs the benchmark's own tests instead.
Exit codes: the benchmark's own (0 ok, 1 a correctness check failed,
2 a usage or run error); 2 when the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")
TARGETS = ["perfbench", "vod_server", "perfbench_selftest"]


def build():
    # Compiler scratch files stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD, "Makefile")):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target"] + TARGETS,
                   check=True, stdout=sys.stderr, env=env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["replay", "wire", "budget"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    if args.self_test:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    command = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
