#!/usr/bin/env python3
"""Self-test of the benchmark harness at toy size ((K_5)^4, a few trials).

    python3 bench/selftest.py

Asserts that:
* every workload's untraced and traced run prints the promised last line,
  with every metric named and given its unit, and no failed op;
* the ``--out`` record holds every end-to-end metric the workload has;
* ``BENCHMARK.json`` lists the same workloads and metrics as the code;
* corrupted op output is counted as failed: a non-monotone ``best_val``,
  and a pass whose output drifts from the first pass;
* without the library sources next to it, ``run.py`` exits non-zero and
  prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))


def _run_bench(workload, trace, out, cwd=None, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--toy", "--out", out]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_runs(out):
    import tracing

    per_layer = {n: u for n, u, _ in tracing.PER_LAYER}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = _run_bench(workload, trace, out)
            assert proc.returncode == 0, proc.stderr
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
            assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0, last
            want = per_layer if trace else {n: run.UNITS[n] for n in run.GATED}
            got = {n: m["unit"] for n, m in last["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            with open(out, encoding="utf-8") as fh:
                record = json.loads(fh.readlines()[-1])
            if not trace:
                want = {n: u for n, u, w in run.END_TO_END if w in (None, workload)}
                got = {n: m["unit"] for n, m in record["metrics"].items()}
                assert got == want, (workload, set(got) ^ set(want))
            print(f"ok  {workload} trace={trace}: {len(last['metrics'])} metrics")


def check_spec():
    import tracing

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (n, run.UNITS[n]) for n in run.GATED]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER)
    print("ok  BENCHMARK.json matches the code")


def check_corruption():
    from hillscape import search

    import workloads

    wl = workloads.make("search-k56", 3, toy=True)
    wl.setup()
    orig = search.run_trials
    calls = []

    def non_monotone(*args, **kwargs):
        histories = orig(*args, **kwargs)
        calls.append(1)
        if len(calls) == 1:
            h = histories[0]
            h.best_val = h.best_val.copy()
            h.best_val[-1] = h.best_val[0] + 1.0
        return histories

    def drifting(*args, **kwargs):
        return orig(*args, **kwargs)[::-1]  # each history valid, order changed

    try:
        search.run_trials = non_monotone
        first = wl.run_pass(workloads.NullTracer())
        search.run_trials = drifting
        second = wl.run_pass(workloads.NullTracer())
    finally:
        search.run_trials = orig
    attempted, failed, problems = run.tally([first, second], wl.labels)
    assert failed == 1 + len(wl.labels), (failed, problems)
    assert "running minimum" in problems[0], problems
    assert all("differs from the first pass" in p for p in problems[1:]), problems
    print(f"ok  corrupted output counted: failed_frac = {failed}/{attempted}")


def check_refuses_without_sources():
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _run_bench("search-k56", 0, os.path.join(bare, "r.jsonl"), cwd=bare,
                          script=os.path.join("bench", "run.py"))
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run without the library sources")


def main():
    run._use_checkout_src()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    out = os.path.join(run.OUT_DIR, "selftest.jsonl")
    if os.path.exists(out):
        os.remove(out)
    check_spec()
    check_corruption()
    check_refuses_without_sources()
    check_runs(out)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
