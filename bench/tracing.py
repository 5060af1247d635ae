"""Span tracing of hillscape's public functions, driven from the benchmark.

``Tracer.install`` replaces every binding a caller can look up -- the
function in its home module, each re-export of it (``hillscape.cli``
imports ``run_trials``, ``save_landscape`` and the samplers by name, the
package ``__init__`` re-exports nearly everything) and the class attributes
``Topology.neighbors``, ``LandscapeView.observe``, ``RunHistory.from_view``
and friends -- with a wrapper that records one span per call: name, start,
end, parent span and the op it belongs to.  ``uninstall`` puts the
originals back, so untraced passes run the code exactly as it ships.

Spans live in flat ``array`` columns while the run lasts; ``spans``
derives self times (duration minus the time direct children cover) with
numpy at the end, and ``save`` writes the columns to an ``.npz`` file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import weakref
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("topology", "landscape", "search", "analysis", "theory", "cli")

# Methods and private functions traced besides each module's public functions.
EXTRA = {
    "topology": ("Topology.neighbors", "Topology.neighbors_block",
                 "Topology.padded_neighbors"),
    "landscape": ("LandscapeView.observe", "LandscapeView.frozen_values"),
    "search": ("RunHistory.from_view",),
    "theory": ("_preimage_table",),
}

# cli spans only ``main``: the self time of ``cli.main`` is then argument
# handling and output writing, i.e. everything outside library calls.
CLI_FUNCTIONS = ("main",)


def _public_functions(mod):
    return [n for n in mod.__all__
            if inspect.isfunction(getattr(mod, n)) and getattr(mod, n).__module__ == mod.__name__]


class Tracer:
    """In-memory span recorder plus the counters the per-layer metrics need."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.s_name = array("H")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.op_labels: list[str] = []
        self.op_pass = array("i")
        self.pass_counters: list[dict] = []
        self.on = False
        self._stack = [-1]
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []
        self._padded_seen: dict[int, weakref.ref] = {}

    # -- ops and passes -----------------------------------------------------

    def begin_pass(self):
        self.pass_counters.append(defaultdict(float))
        self._padded_seen.clear()

    def begin_op(self, label: str):
        self.op_labels.append(label)
        self.op_pass.append(len(self.pass_counters) - 1)
        self._op = len(self.op_labels) - 1

    def count(self, key: str, amount=1.0):
        self.pass_counters[-1][key] += amount

    # -- wrapping -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name, pre=None, post=None):
        nid = self._name_id(name)
        tr = self
        stack = self._stack
        s_name, s_parent, s_op = self.s_name, self.s_parent, self.s_op
        s_start, s_end = self.s_start, self.s_end
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(args, kwargs)
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1])
            s_op.append(tr._op)
            s_end.append(0.0)
            stack.append(idx)
            s_start.append(perf())
            try:
                out = fn(*args, **kwargs)
            finally:
                s_end[idx] = perf()
                stack.pop()
            if post is not None:
                post(args, kwargs, out)
            return out

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced callable and rebind all references to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        pkg_mods = [m for k, m in sorted(sys.modules.items())
                    if k == "hillscape" or k.startswith("hillscape.")]
        for short in MODULES:
            mod = importlib.import_module(f"hillscape.{short}")
            fnames = CLI_FUNCTIONS if short == "cli" else _public_functions(mod)
            for fname in list(fnames) + list(EXTRA.get(short, ())):
                owner_name, _, attr = fname.rpartition(".")
                span = f"{short}.{fname}"
                pre, post = hooks.get(span, (None, None))
                if owner_name:  # a method on a class of this module
                    cls = getattr(mod, owner_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(raw.__func__, span, pre, post))
                    else:
                        new = self._wrap(raw, span, pre, post)
                    self._patch(cls, attr, new)
                    continue
                orig = getattr(mod, attr)
                new = self._wrap(orig, span, pre, post)
                for m in pkg_mods:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, key, new)
        # depth profile of the fixed-point loop: a counter, not a span, so
        # the loop stays in the self time of ``basins``/``within_epsilon_curve``
        analysis = importlib.import_module("hillscape.analysis")
        fixed = analysis._fixed_points_and_depth

        def fixed_points(succ):
            out = fixed(succ)
            if self.on and len(out[1]):
                counters = self.pass_counters[-1]
                counters["max_basin_depth"] = max(counters["max_basin_depth"],
                                                  float(out[1].max()))
            return out

        self._patch(analysis, "_fixed_points_and_depth", fixed_points)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _hooks(self):
        """Pre/post hooks that read counters off arguments and results."""

        def padded(args, kwargs, out):
            for arr in out:
                ref = self._padded_seen.get(id(arr))
                if ref is None or ref() is not arr:
                    self._padded_seen[id(arr)] = weakref.ref(arr)
                    self.count("padded_bytes", arr.nbytes)

        def trial_end(args, kwargs, out):
            self.count("charged", args[0].query_count)

        def local_search(args, kwargs, out):
            self.count("local_runs")
            self.count("converged", bool(out.converged))
            self.count("moves", out.iterations)

        def succ_pre(args, kwargs):
            view = args[0] if args else kwargs["view"]
            if getattr(view, "_successor_map", None) is not None:
                self.count("successor_cache_hits")

        def rwa(args, kwargs, out):
            self.count("rwa_steps", args[1] if len(args) > 1 else kwargs["walk_len"])

        def saved(args, kwargs, out):
            self.count("csv_bytes", os.path.getsize(args[1]))

        def loaded(args, kwargs, out):
            self.count("csv_bytes", os.path.getsize(args[0]))

        return {
            "topology.Topology.padded_neighbors": (None, padded),
            "search.run_budgeted": (None, trial_end),
            "search.random_search": (None, trial_end),
            "search.local_search": (None, local_search),
            "analysis.successor_map": (succ_pre, None),
            "analysis.rwa": (None, rwa),
            "landscape.save_landscape": (None, saved),
            "landscape.load_landscape": (None, loaded),
        }

    # -- results ----------------------------------------------------------------

    def spans(self):
        """Span columns as numpy arrays, with self time and pass index."""
        start = np.frombuffer(self.s_start, dtype=float)
        end = np.frombuffer(self.s_end, dtype=float)
        parent = np.frombuffer(self.s_parent, dtype=np.int32)
        op = np.frombuffer(self.s_op, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        op_pass = np.frombuffer(self.op_pass, dtype=np.int32)
        return {
            "name": np.frombuffer(self.s_name, dtype=np.uint16),
            "start": start, "end": end, "parent": parent, "op": op,
            "dur": dur, "self": dur - child,
            "pass": op_pass[op] if len(op_pass) else np.zeros(0, dtype=np.int32),
        }

    def save(self, path: str):
        cols = self.spans()
        np.savez(path, names=np.asarray(self.names), ops=np.asarray(self.op_labels),
                 op_pass=np.frombuffer(self.op_pass, dtype=np.int32),
                 **{k: cols[k] for k in ("name", "start", "end", "parent", "op")})


# -- per-layer metrics ------------------------------------------------------------

# (name, unit, better).  ``<stem>.calls``, ``<stem>.self_s`` and
# ``<stem>.p50_ms``/``.p99_ms`` come straight from the spans of ``<stem>``
# (or of ``_SPAN_OF[stem]``); the rest are derived in ``per_layer``.
PER_LAYER = (
    ("topology.neighbors.calls", "count", "lower"),
    ("topology.neighbors.self_s", "s", "lower"),
    ("topology.neighbors_block.calls", "count", "lower"),
    ("topology.neighbors_block.self_s", "s", "lower"),
    ("topology.padded_neighbors.self_s", "s", "lower"),
    ("topology.padded_neighbors.bytes", "bytes", "lower"),
    ("landscape.observe.calls", "count", "lower"),
    ("landscape.observe.self_s", "s", "lower"),
    ("landscape.charged", "count", "lower"),
    ("landscape.cache_hit_frac", "ratio", "higher"),
    ("landscape.frozen_values.self_s", "s", "lower"),
    ("landscape.sample_uniform.self_s", "s", "lower"),
    ("landscape.sample_markov_truncnorm.self_s", "s", "lower"),
    ("landscape.save_landscape.self_s", "s", "lower"),
    ("landscape.load_landscape.self_s", "s", "lower"),
    ("landscape.load_tabular.self_s", "s", "lower"),
    ("landscape.csv_bytes", "bytes", "lower"),
    ("search.run_budgeted.calls", "count", "lower"),
    ("search.run_budgeted.self_s", "s", "lower"),
    ("search.run_budgeted.p50_ms", "ms", "lower"),
    ("search.run_budgeted.p99_ms", "ms", "lower"),
    ("search.random_search.self_s", "s", "lower"),
    ("search.random_search.p50_ms", "ms", "lower"),
    ("search.random_search.p99_ms", "ms", "lower"),
    ("search.local_search.calls", "count", "lower"),
    ("search.local_search.self_s", "s", "lower"),
    ("search.RunHistory.from_view.self_s", "s", "lower"),
    ("search.restarts_per_trial", "count/trial", "lower"),
    ("search.converged_frac", "ratio", "higher"),
    ("search.moves_per_run", "count/run", "lower"),
    ("analysis.successor_map.self_s", "s", "lower"),
    ("analysis.successor_map.cache_hits", "count", "higher"),
    ("analysis.basins.self_s", "s", "lower"),
    ("analysis.within_epsilon_curve.self_s", "s", "lower"),
    ("analysis.preimage_sizes.self_s", "s", "lower"),
    ("analysis.export_search_tree.self_s", "s", "lower"),
    ("analysis.tree_to_dot.self_s", "s", "lower"),
    ("analysis.max_basin_depth", "count", "lower"),
    ("analysis.rwa.calls", "count", "lower"),
    ("analysis.rwa.self_s", "s", "lower"),
    ("analysis.rwa.steps_per_s", "1/s", "higher"),
    ("theory.preimage_table.calls", "count", "lower"),
    ("theory.preimage_table.self_s", "s", "lower"),
    ("theory.success_curve.self_s", "s", "lower"),
    ("theory.expected_minima_fraction.self_s", "s", "lower"),
    ("theory.chebyshev_minima_bound.self_s", "s", "lower"),
    ("theory.uniform_closed_form_curve.self_s", "s", "lower"),
    ("theory.independent_closed_form.self_s", "s", "lower"),
    ("theory.fit_global_truncnorm.self_s", "s", "lower"),
    ("theory.fit_local_sigma_via_rwa.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.gen.self_s", "s", "lower"),
    ("cli.analyze.self_s", "s", "lower"),
    ("cli.theory.self_s", "s", "lower"),
    ("cli.compare.self_s", "s", "lower"),
    ("cli.rwa.self_s", "s", "lower"),
    ("cli.fit.self_s", "s", "lower"),
    ("cli.search.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

_SPAN_OF = {
    "topology.neighbors": "topology.Topology.neighbors",
    "topology.neighbors_block": "topology.Topology.neighbors_block",
    "topology.padded_neighbors": "topology.Topology.padded_neighbors",
    "landscape.observe": "landscape.LandscapeView.observe",
    "landscape.frozen_values": "landscape.LandscapeView.frozen_values",
    "theory.preimage_table": "theory._preimage_table",
}


def _ratio(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.divide(a, b, out=np.zeros_like(a), where=b > 0)


def per_layer(tracer: Tracer, traced, plain, import_s) -> dict:
    """Per-pass values (lists; ``run.py`` reports their median) of PER_LAYER.

    ``traced``/``plain`` are the PassRecords of the traced and untraced
    passes; ``import_s`` the measured ``import hillscape`` times.
    """
    cols = tracer.spans()
    npass = len(traced)
    labels = np.asarray(tracer.op_labels + [""])
    name_ids = {n: i for i, n in enumerate(tracer.names)}

    def select(span, op_label=None):
        sel = cols["name"] == name_ids.get(span, -1)
        if op_label is not None:
            sel &= labels[cols["op"]] == op_label
        return sel

    def per_pass(sel, weights=None):
        w = None if weights is None else weights[sel]
        return np.bincount(cols["pass"][sel], weights=w, minlength=npass)[:npass]

    def counter(key):
        return np.asarray([c.get(key, 0.0) for c in tracer.pass_counters])

    out = {}
    for name, _, _ in PER_LAYER:
        stem, _, stat = name.rpartition(".")
        if stem.startswith("cli."):
            sel = select("cli.main", stem[4:])
        else:
            sel = select(_SPAN_OF.get(stem, stem))
        if stat == "calls":
            out[name] = per_pass(sel)
        elif stat == "self_s":
            out[name] = per_pass(sel, cols["self"])
        elif stat in ("p50_ms", "p99_ms"):
            durs = cols["dur"][sel] * 1e3
            out[name] = [float(np.percentile(durs, int(stat[1:3])))] if len(durs) else [0.0]

    observe_calls = out["landscape.observe.calls"]
    budgeted = out["search.run_budgeted.calls"]
    local_runs = counter("local_runs")
    out.update({
        "topology.padded_neighbors.bytes": counter("padded_bytes"),
        "landscape.charged": counter("charged"),
        "landscape.cache_hit_frac": np.where(
            observe_calls > 0, 1.0 - _ratio(counter("charged"), observe_calls), 0.0),
        "landscape.csv_bytes": counter("csv_bytes"),
        "search.restarts_per_trial": _ratio(local_runs - budgeted, budgeted),
        "search.converged_frac": _ratio(counter("converged"), local_runs),
        "search.moves_per_run": _ratio(counter("moves"), local_runs),
        "analysis.successor_map.cache_hits": counter("successor_cache_hits"),
        "analysis.max_basin_depth": counter("max_basin_depth"),
        "analysis.rwa.steps_per_s": _ratio(counter("rwa_steps"), out["analysis.rwa.self_s"]),
        "cli.import_s": import_s,
        "cli.output_bytes": [rec.extra.get("output_bytes", 0) for rec in traced],
        "trace.overhead_frac": [
            float(np.median([r.scaled_seconds for r in traced])
                  / np.median([r.scaled_seconds for r in plain]) - 1.0)],
    })
    return {name: [float(x) for x in out[name]] for name, _, _ in PER_LAYER}
