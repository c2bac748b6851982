#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs, workload by workload.

Usage:
    python3 e2e_bench/compare.py BASE.jsonl CHANGE.jsonl
    python3 e2e_bench/compare.py --self SET_A.jsonl SET_B.jsonl

An input is either one set of a results file written by record.py,
named "<file>:<set>" (e.g. results/seed.json:a), or a file with one run
per line: the result line run.py prints, plus "workload" and "seed"
keys.

For every workload x end-to-end metric of BENCHMARK.json the report
prints each side's median and quartiles, the share of pairs the change
wins (runs are paired in file order), and a verdict after the rules of
a gain claim:
  improved    the change wins >= 90% of pairs and the medians differ by
              more than the base's own quartile spread;
  regressed   the change's median is worse than the base's by more than
              the metric's bound;
  unresolved  a side's quartile spread is wider than the bound, unless
              every run of the change beats every run of the base;
  no worse    otherwise.
setup_s is judged on its median alone: its spread is not bounded.

--self checks that two sets of the same commit agree: every median is
within the bound of the other in both directions. Exit status is 1 when
a metric regressed (or, with --self, disagreed) or a run was wrong.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(spec):
    """Runs of one set: a JSONL file, or <results.json>:<set name>."""
    path, _, name = spec.partition(":")
    if name:
        with open(path, encoding="utf-8") as f:
            return json.load(f)["sets"][name]
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, base, change, self_check):
    """(verdict, win share) for one metric's two value lists."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if (c < b if lower else c > b))
    win_share = wins / len(pairs) if pairs else 0.0
    worse = (cm - bm) / bm if lower else (bm - cm) / bm
    if self_check:
        agree = abs(cm - bm) <= bound * min(abs(bm), abs(cm))
        return ("agree" if agree else "disagree"), win_share
    if worse > bound:
        return "regressed", win_share
    if metric["name"] != "setup_s":
        spread = max((b3 - b1) / bm, (c3 - c1) / cm) if bm and cm else 0.0
        dominates = (max(change) < min(base)) if lower else \
            (min(change) > max(base))
        if spread > bound and not dominates:
            return "unresolved", win_share
    better = (bm - cm) if lower else (cm - bm)
    if win_share >= 0.9 and better > (b3 - b1):
        return "improved", win_share
    return "no worse", win_share


def main(argv):
    self_check = "--self" in argv
    args = [a for a in argv[1:] if a != "--self"]
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    base, change = load_runs(args[0]), load_runs(args[1])

    status = 0
    for side in (base, change):
        for run in side:
            if not run.get("correct") or run.get("failed"):
                print(f"wrong or failed run: {run.get('workload')} seed "
                      f"{run.get('seed')}")
                status = 1

    def cell(values):
        q1, med, q3 = quartiles(values)
        return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"

    print(f"{'workload':12} {'metric':20} {'base median [q1, q3]':28} "
          f"{'change median [q1, q3]':28} {'wins':>5}  verdict")
    for w in bench["workloads"]:
        name = w["name"]
        for metric in bench["end_to_end"]:
            m = metric["name"]
            b = [r["metrics"][m]["value"] for r in base
                 if r["workload"] == name and m in r["metrics"]]
            c = [r["metrics"][m]["value"] for r in change
                 if r["workload"] == name and m in r["metrics"]]
            if not b or not c:
                continue
            v, share = verdict(metric, b, c, self_check)
            if v in ("regressed", "disagree"):
                status = 1
            print(f"{name:12} {m:20} {cell(b):28} {cell(c):28} "
                  f"{share:5.0%}  {v}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
