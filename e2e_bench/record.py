#!/usr/bin/env python3
"""Records a baseline of the served-archive benchmark.

Usage (from the repository root):
    python3 e2e_bench/record.py --out e2e_bench/results/<name>.json
                                [--runs 5] [--seconds 20]

Runs two sets ("a" and "b") of --runs runs per workload, round robin
over the workloads, every run with its own seed (set a: 1..runs, set b:
runs+1..2*runs); then one traced run per workload (seed 1), whose
end-to-end numbers against set a's medians give the tracing overhead.
Writes host facts, every run, the traced runs and the overhead to
--out. Check the two sets against each other with
    python3 e2e_bench/compare.py --self <out>:a <out>:b
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload, seed, seconds, trace):
    """One run.py call: (result JSON, end-to-end block of the report)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: run failed\n{proc.stderr[-2000:]}")
    e2e, inside = {}, False
    for line in lines[:-1]:
        if not line.startswith(" "):
            inside = line.strip() == "end-to-end"
        elif inside and not line.strip().startswith("("):
            name, value, unit = line.split()
            e2e[name] = {"value": float(value), "unit": unit}
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, **result}, e2e


def host_facts():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"num_cpus": os.cpu_count(), "cpu_model": model,
            "kernel": platform.release(), "python": platform.python_version()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    sets = {"a": [], "b": []}
    for name, first in (("a", 1), ("b", args.runs + 1)):
        for seed in range(first, first + args.runs):
            for w in workloads:
                result, _ = run(w, seed, seconds, trace=False)
                sets[name].append(result)
                print(f"set {name} {w} seed {seed}: correct "
                      f"{result['correct']}", file=sys.stderr)

    traced, overhead = [], {}
    for w in workloads:
        result, e2e = run(w, 1, seconds, trace=True)
        result["end_to_end"] = e2e
        traced.append(result)
        overhead[w] = {}
        for m, v in e2e.items():
            base = statistics.median(r["metrics"][m]["value"]
                                     for r in sets["a"]
                                     if r["workload"] == w)
            overhead[w][m] = v["value"] / base - 1 if base else 0.0
        trace = os.path.join(ROOT, ".bench_build", f"trace-{w}-1.json")
        checker = os.path.join(ROOT, "tools", "check_trace.py")
        if os.path.exists(checker):
            ok = subprocess.run([sys.executable, checker, trace],
                                capture_output=True).returncode == 0
            result["trace_check"] = "ok" if ok else "rejected"

    record = {
        "benchmark": "e2e_bench",
        "run_seconds": seconds,
        "host": host_facts(),
        "sets": sets,
        "traced": traced,
        "tracing_overhead": overhead,
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
