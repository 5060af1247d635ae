#!/usr/bin/env python3
"""Summarize one results file, or compare two, per workload and metric.

    python3 bench/compare.py BASE.jsonl            # medians and quartiles
    python3 bench/compare.py BASE.jsonl NEW.jsonl  # ... plus NEW/BASE and a verdict

A results file is the JSONL that ``run.py --out`` (or ``sweep.py``) appends
to, one record per run.  For each workload and metric the printout gives
the median and quartiles over runs (``statistics.quantiles(n=4)``) and the
run count.  With two files it adds the ratio of medians and a verdict:

* ``worse``: NEW's median is worse than BASE's by more than the bound;
* ``unresolved``: either side's quartile spread, as a share of its median,
  is wider than the bound, and not every NEW run beats every BASE run;
* ``unchanged``: otherwise.

Bounds come from ``BENCHMARK.json`` for gated metrics; the other
end-to-end timings use the ``pass_s`` bound, and ``failed_frac`` may not
rise at all.  Per-layer metrics have no bound and get no verdict.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HIGHER_IS_BETTER = {"trials_per_s", "nodes_per_s"}


def load(path):
    """{(workload, trace): {metric: [values]}}, plus {metric: unit}."""
    runs, units = defaultdict(lambda: defaultdict(list)), {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["metrics"].items():
                runs[(rec["workload"], rec["trace"])][name].append(m["value"])
                units[name] = m["unit"]
    return runs, units


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median (0 when the median is 0)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    out = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        out[m["name"]] = (None, m["better"])
    return out


def _bound(name, table, trace):
    if name in table:
        return table[name]
    if trace == 0:
        better = "higher" if name in HIGHER_IS_BETTER else "lower"
        if name == "failed_frac":
            return 0.0, "lower"
        return table.get("pass_s", (None, better))[0], better
    return None, "lower"


def verdict(base, new, bound, better):
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    all_better = all(sign * n < sign * b for n in new for b in base)
    if max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved"
    if mb == 0:
        return "worse" if sign * mn > 0 else "unchanged"
    return "worse" if sign * (mn - mb) / abs(mb) > bound else "unchanged"


def _fmt(x):
    return f"{x:.6g}"


def print_table(base_path, new_path=None, out=sys.stdout):
    base, units = load(base_path)
    new, new_units = load(new_path) if new_path else ({}, {})
    units.update(new_units)
    table = bounds()
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        b, n = base.get(key, {}), new.get(key, {})
        print(f"== {workload}  ({'per-layer, traced' if trace else 'end-to-end'})", file=out)
        for name in list(b) + [m for m in n if m not in b]:
            cells = []
            for side in (b, n) if new_path else (b,):
                vals = side.get(name)
                if vals:
                    q1, med, q3 = quartiles(vals)
                    cells.append(f"{_fmt(med):>11} [{_fmt(q1)}, {_fmt(q3)}] n={len(vals)}")
                else:
                    cells.append(f"{'-':>11}")
            line = f"  {name:<40} {units.get(name, ''):<11} " + "  |  ".join(cells)
            if new_path and b.get(name) and n.get(name):
                mb, mn = statistics.median(b[name]), statistics.median(n[name])
                ratio = f"{mn / mb:.4f}" if mb else "-"
                bound, better = _bound(name, table, trace)
                line += f"  ratio={ratio}  {verdict(b[name], n[name], bound, better)}"
            print(line, file=out)


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    print_table(*sys.argv[1:])
