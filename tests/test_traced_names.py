"""The benchmark's tracer finds every span its per-layer metrics read.

``bench/tracing.py`` wraps functions and methods by name; a renamed one is
no longer wrapped and its metrics silently read 0.  This test loads the
tracer from the checkout without changing it, installs it on the package
and checks the names it wrapped.
"""

import importlib.util
from pathlib import Path

import hillscape as hs
from hillscape import search

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
_SPAN_STATS = ("calls", "self_s", "p50_ms", "p99_ms")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_wraps_every_metric_span():
    tracing = _load_tracing()
    # the spans per_layer selects: cli metrics read cli.main, the rest their
    # stem through _SPAN_OF; the hooks feed the counter metrics
    wanted = {"cli.main"}
    for name, _, _ in tracing.PER_LAYER:
        stem, _, stat = name.rpartition(".")
        if stat in _SPAN_STATS and not stem.startswith("cli."):
            wanted.add(tracing._SPAN_OF.get(stem, stem))
    tracer = tracing.Tracer()
    wanted |= set(tracer._hooks())
    assert {"search.local_search", "search.RunHistory.from_view",
            "topology.Topology.padded_neighbors"} <= wanted
    orig = search.run_trials
    tracer.install()
    try:
        assert search.run_trials is not orig
        assert wanted <= set(tracer.names), sorted(wanted - set(tracer.names))
    finally:
        tracer.uninstall()
    assert search.run_trials is orig


def test_package_lookup_while_installed_leaves_no_wrapper():
    # the package resolves its names in the home module on each access and
    # stores nothing, so a lookup through it while the tracer is installed
    # hands out the wrapper then and the original after uninstall
    tracer = _load_tracing().Tracer()
    orig = search.run_trials
    tracer.install()
    try:
        assert hs.run_trials is search.run_trials is not orig
    finally:
        tracer.uninstall()
    assert hs.run_trials is search.run_trials is orig
