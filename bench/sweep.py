#!/usr/bin/env python3
"""Run the benchmark over several workloads and seeds, then summarize.

    python3 bench/sweep.py --out results.jsonl                   # all workloads, seeds 1-10
    python3 bench/sweep.py --workloads search-k56 --seeds 1-5 --trace 1 --out r.jsonl

Each (workload, seed) is one ``run.py`` process, with ``run_seconds`` from
``BENCHMARK.json`` unless ``--seconds`` is given; records are appended to
``--out``.  The summary prints every metric per workload (``compare.py``)
and, for the end-to-end metrics with a bound, the quartile spread across
seeds as a share of the median next to that bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import compare

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    with open(os.path.join(compare.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", args.out]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            print(f"{workload} seed={seed} exit={proc.returncode} {last[:160]}", flush=True)

    compare.print_table(args.out)
    if args.trace:
        return 0
    runs, _ = compare.load(args.out)
    print("== spread across seeds (quartile distance / median) against bound")
    for m in spec["end_to_end"]:
        for (workload, trace), metrics in sorted(runs.items()):
            if trace == 0 and m["name"] in metrics:
                s = compare.spread(metrics[m["name"]])
                flag = "ok" if s < m["bound"] / 3 else ("WITHIN BOUND" if s <= m["bound"] else "TOO WIDE")
                print(f"  {workload:<16} {m['name']:<12} spread={s:.4f} bound={m['bound']} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
