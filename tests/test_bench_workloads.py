"""The benchmark's workloads run clean at toy size.

``bench/workloads.py`` runs each workload's ops and checks their outputs
against independent oracles; an op that raises or fails its check fails
the benchmark run.  This test loads the workloads from the checkout without
changing them and runs one untraced toy pass of each, so a library change
that would break the benchmark fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(mod)
        yield mod
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["search-k56", "exhaustive-k58", "cli-k56"])
def test_toy_pass_has_no_problems(workloads, name, tmp_path):
    wl = workloads.make(name, 3, toy=True, workdir=str(tmp_path))
    wl.in_process = True  # read by the cli workload only
    wl.setup()
    rec = wl.run_pass(workloads.NullTracer())
    assert set(rec.problems) == set(wl.labels)
    assert {label: p for label, p in rec.problems.items() if p} == {}
