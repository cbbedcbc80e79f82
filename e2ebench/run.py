#!/usr/bin/env python3
"""Builds and runs the memlp end-to-end benchmark for one workload.

    python3 e2ebench/run.py --workload xbar-dense --seed 1 --seconds 30 --trace 0

Run from the repository root (any directory works: paths are taken from
this file's location). The first call configures and builds the library and
the driver in Release under .bench_build/e2ebench; later calls only rebuild
what changed. Build output goes to stderr, so the last line of stdout is the
driver's JSON result.

--trace 1 first solves the workload's first instance in a separate process
at MEMLP_THREADS=1 and hands its exact digest to the traced run, which
re-solves it at the pinned thread count and requires a bit-identical answer.

Every run pins MEMLP_THREADS (2, or fewer when fewer cores are available) and
points MEMLP_FLIGHT_DUMP into .bench_build/out, so a failed analog solve
leaves its flight record there and not in the working directory.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT = os.path.join(ROOT, ".bench_build", "out")
DRIVER = os.path.join(BUILD, "memlp_e2e")


def cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


THREADS = min(2, cores())


def build():
    configured = any(os.path.exists(os.path.join(BUILD, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(min(4, cores()))],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind: subprocess.run kills and reaps its child when
    # interrupted, so no build or driver process outlives this one.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)

    env = dict(os.environ)
    env["MEMLP_THREADS"] = str(THREADS)
    env["MEMLP_FLIGHT_DUMP"] = os.path.join(
        OUT, f"flight-{args.workload}-{args.seed}.jsonl")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    command = [DRIVER] + common + ["--seconds", str(args.seconds),
                                   "--trace", str(args.trace)]
    if args.trace:
        digest = os.path.join(OUT, f"digest-{args.workload}-{args.seed}.txt")
        single = dict(env, MEMLP_THREADS="1")
        probe = subprocess.run([DRIVER] + common + ["--digest-out", digest],
                               env=single, stdout=sys.stderr)
        if probe.returncode != 0:
            print("run.py: the 1-thread solve failed", file=sys.stderr)
            return 1
        command += ["--identity-ref", digest]
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
