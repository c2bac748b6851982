#!/usr/bin/env python3
"""e2e_smoke: every workload, traced, with a half-second window.

Usage: smoke.py <path to bench_e2e>

Runs the four workloads side by side and checks that each run exits 0
with correct answers and no failed statement, prints every end-to-end
and per-layer metric of BENCHMARK.json, and writes a trace that
tools/check_trace.py accepts. Registered as a ctest by this directory's
CMakeLists.txt.
"""

import json
import os
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def metric_block(stdout, header):
    """Names printed under `header` ("end-to-end" or "per-layer")."""
    names, inside = set(), False
    for line in stdout.splitlines():
        if not line.startswith(" "):
            inside = line.strip() == header
        elif inside:
            names.add(line.split()[0])
    return names


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    binary = os.path.abspath(argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = {m["name"] for m in bench["per_layer"]}

    failures = []
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        procs = {}
        for w in (w["name"] for w in bench["workloads"]):
            trace = os.path.join(tmp, f"trace-{w}.json")
            cmd = [binary, f"--workload={w}", "--seed=1", "--seconds=0.5",
                   f"--state={os.path.join(tmp, 'state-' + w)}",
                   f"--trace={trace}"]
            procs[w] = (trace, subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True))
        outputs = {w: proc.communicate()[0] for w, (_, proc) in procs.items()}
        for w, (trace, proc) in procs.items():
            out = outputs[w]
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (IndexError, ValueError):
                failures.append(f"{w}: exit {proc.returncode}, no result "
                                f"line:\n{out[-2000:]}")
                continue
            if proc.returncode != 0 or not result["correct"]:
                verdict = "passed" if result["correct"] else "FAILED"
                failures.append(f"{w}: exit {proc.returncode}, oracle "
                                f"{verdict}")
            if result["failed"] != 0:
                failures.append(f"{w}: {result['failed']} statements failed")
            missing = (e2e - metric_block(out, "end-to-end")) | \
                (layers - set(result["metrics"]))
            if missing:
                failures.append(f"{w}: metrics not printed: "
                                f"{sorted(missing)}")
            checker = os.path.join(ROOT, "tools", "check_trace.py")
            if os.path.exists(checker) and subprocess.run(
                    [sys.executable, checker, trace]).returncode != 0:
                failures.append(f"{w}: trace rejected by check_trace.py")
    for f in failures:
        print("FAIL", f)
    print("e2e_smoke:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
