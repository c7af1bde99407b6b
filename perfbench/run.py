#!/usr/bin/env python3
"""Builds and runs the benchmark of record.

    python3 perfbench/run.py --workload corpus-spm|serve-points \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first run configures and
builds the repository's library and CLI plus the benchmark program into
.bench_build/ (Release); later runs only check that build is current.
Build output goes to stderr; the benchmark's last stdout line is its JSON
result. Exits non-zero, printing no result, when the checkout holds no
buildable sources.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(targets):
    for need in ("CMakeLists.txt", "src", os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s in %s: not a source checkout" % (need, ROOT))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", *targets, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def run(cmd):
    """Runs cmd in its own process group and reaps the whole group."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["corpus-spm", "serve-points"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    a = ap.parse_args()
    if a.selftest:
        build(["perfbench_tests"])
        return run([os.path.join(BUILD, "perfbench_tests")])
    if a.workload is None:
        ap.error("--workload is required")
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    build(["perfbench", "spmwcet_cli"])
    return run([os.path.join(BUILD, "perfbench"),
                "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace),
                "--cli", os.path.join(BUILD, "spmwcet", "spmwcet_cli"),
                "--workdir", BUILD])


if __name__ == "__main__":
    sys.exit(main())
