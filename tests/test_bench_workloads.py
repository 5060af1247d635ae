"""The benchmark's workloads run clean at toy size.

``bench/workloads.py`` runs each workload's ops and checks their outputs
against independent oracles; an op that raises or fails its check fails
the benchmark run.  This test loads the workloads from the checkout without
changing them and runs one untraced and one traced toy pass of each, so a
library change that would break the benchmark fails here first.  The
traced pass runs through ``bench/tracing.py``'s wrappers and hooks, which
read the arguments and results of the functions they wrap.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import hillscape as hs
from hillscape import search, topology

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads", BENCH / "workloads.py")
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


def _traced_names():
    """Every binding of the package's modules and traced classes, by identity."""
    owners = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "hillscape"]
    owners += [hs.Topology, hs.LandscapeView, search.RunHistory]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", BENCH / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", ["search-k56", "exhaustive-k58", "cli-k56"])
def test_traced_toy_pass_has_no_problems(workloads, tracing, name, tmp_path):
    wl = workloads.make(name, 3, toy=True, workdir=str(tmp_path))
    wl.in_process = True
    wl.setup()
    before = _traced_names()
    tracer = tracing.Tracer()
    tracer.install()  # as bench/run.py's _run_traced_pass does
    tracer.begin_pass()
    tracer.on = True
    try:
        assert search.run_trials is not before[(id(search), "run_trials")]
        rec = wl.run_pass(tracer)
        # the padded-matrix hook counts the bytes of the one block it gets
        block = topology.make_regular_tree(3, 5).padded_neighbors()
        assert tracer.pass_counters[-1]["padded_bytes"] == block.nbytes
    finally:
        tracer.on = False
        tracer.uninstall()
    assert {label: p for label, p in rec.problems.items() if p} == {}
    assert set(rec.problems) == set(wl.labels) and len(tracer.s_start) > 0
    after = _traced_names()  # uninstalled: every binding is the original again
    assert [key for key, value in before.items() if after.get(key) is not value] == []
