#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload of it.

Usage (from the repository root):

    python3 e2e_bench/run.py --workload <interactive|hotspot|mining|mydb>
                             --seed <n> --seconds <window> --trace <0|1>

The first call configures and builds the benchmark package (this
directory's CMakeLists.txt, which builds the archive libraries from
src/) under .bench_build/e2e; later calls only re-link if sources
changed. Build output goes to stderr. The benchmark's report goes to
stdout, and its last line is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics, or with
--trace 1 the per-layer ones. A traced run also writes its spans to
.bench_build/trace-<workload>-<seed>.json.

Exit status: 0 when the run completed and every checked answer was
right; non-zero when the build failed, the run failed, or an answer
was wrong.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "e2e")
WORKLOADS = ("interactive", "hotspot", "mining", "mydb")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds bench_e2e; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    if subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                       "bench_e2e", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "bench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("bench_e2e: build failed", file=sys.stderr)
        return 1

    state = os.path.join(OUT_DIR, f"state-{os.getpid()}")
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}", f"--state={state}"]
    if args.trace:
        trace = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        cmd.append(f"--trace={trace}")
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode or 0
    except subprocess.TimeoutExpired:
        print("bench_e2e: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(state, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
