"""The benchmark's workloads: inputs made from the seed, op lists, output checks.

Each workload runs a fixed list of ops per pass.  An op that raises, exits
non-zero or fails its output check counts as failed; so does an op whose
output differs from the first pass (``run.py`` compares fingerprints).
Checks use independent oracles and invariants rather than stored digests,
so a disclosed change of random stream does not read as a failure.

* ``cli-k56``: the researcher's pipeline, one ``python -m hillscape``
  subprocess after another on (K_5)^6 (a closed loop with one client).
  Interpreter start plus import is the floor of every command.
* ``search-k56``: batches of search trials in process on a correlated
  (K_5)^6 landscape; per-node Python paths dominate.
* ``exhaustive-k58``: exhaustive analytics on a fresh (K_5)^8 (n = 390625)
  per pass; vectorized kernels over a working set far beyond L2.

Library calls go through module attributes (``search.run_trials``, not a
name imported from it) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from hillscape import analysis, cli, landscape, search, topology

_NOISE = "gaussian:0.05"

# cli-k56 generates its two landscapes with the seeds of the demo pipeline
# (demos/cli_pipeline.sh); ``--seed`` drives the other commands' streams.
_UNIFORM_SEED, _MARKOV_SEED = 7, 9


# Timings are reported in reference seconds: wall time x REF_S / (time of a
# fixed reference kernel measured right before and after).  On the shared
# 2-core hosts this runs on, the same code runs up to ~60% slower for tens
# of seconds at a time (a busy SMT sibling), which moved raw medians of whole
# runs by 20-35% between seeds.  A reference of the workload's own kind
# tracks that drift: a pure-Python loop for interpreter-bound work, a numpy
# gather and sort for vectorized work.  Raw wall times are reported too.
REF_S = 0.025


def python_reference_s() -> float:
    """Wall time of a fixed pure-Python loop: the interpreter's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


class NumpyReference:
    """Wall time of a fixed gather and sort over 8 MB: numpy's current speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.values = rng.random(1 << 20)
        self.order = rng.permutation(1 << 20)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        np.sort(self.values[self.order])
        return time.perf_counter() - t0


def sub_seed(seed: int, k: int) -> int:
    """The k-th input seed derived from the run's ``--seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        elif isinstance(p, bytes):
            h.update(p)
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


class NullTracer:
    """Stands in for ``tracing.Tracer`` in untraced passes."""

    on = False

    def begin_op(self, label):
        pass


@contextmanager
def _paused(tracer):
    was = tracer.on
    tracer.on = False
    try:
        yield
    finally:
        tracer.on = was


@dataclass
class PassRecord:
    """One pass: wall and reference-scaled seconds per op and in total."""

    seconds: float = 0.0
    scaled_seconds: float = 0.0
    op_seconds: dict = field(default_factory=dict)
    op_scaled: dict = field(default_factory=dict)
    problems: dict = field(default_factory=dict)
    fingerprints: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


class _Ops:
    """Runs one pass's ops in order; an op after a failed one is not run.

    The reference kernel runs before the first op and after each op, outside
    the op's own timing.
    """

    def __init__(self, labels, tracer, reference):
        self.tracer = tracer
        self.reference = reference
        self.rec = PassRecord(problems={label: [] for label in labels})
        self.broken = False
        self.refs = [reference()]

    def run(self, label, fn):
        self.rec.op_seconds[label] = self.rec.op_scaled[label] = 0.0
        if self.broken:
            self.rec.problems[label].append("not run: an earlier op failed")
            return None
        self.tracer.begin_op(label)
        t0 = time.perf_counter()
        try:
            return fn()
        except Exception as exc:  # a failing op is counted; the pass goes on
            self.rec.problems[label].append(f"raised {exc!r}")
            self.broken = True
            return None
        finally:
            wall = time.perf_counter() - t0
            self.refs.append(self.reference())
            self.rec.op_seconds[label] = wall
            self.rec.op_scaled[label] = wall * 2 * REF_S / (self.refs[-2] + self.refs[-1])

    def finish(self) -> PassRecord:
        self.rec.seconds = sum(self.rec.op_seconds.values())
        self.rec.scaled_seconds = sum(self.rec.op_scaled.values())
        self.rec.extra["reference_s"] = statistics.median(self.refs)
        return self.rec

    def check(self, label, fn, *args):
        """Run ``fn(*args) -> (problems, fingerprint)`` untraced and untimed."""
        if self.rec.problems[label]:
            return
        with _paused(self.tracer):
            try:
                problems, fingerprint = fn(*args)
            except Exception as exc:  # a check that cannot run is a failure
                problems, fingerprint = [f"check raised {exc!r}"], None
        self.rec.problems[label].extend(problems)
        self.rec.fingerprints[label] = fingerprint


def _nondecreasing_unit(values, what):
    arr = np.asarray(values, dtype=float)
    problems = []
    if not np.isfinite(arr).all() or (arr < 0).any() or (arr > 1).any():
        problems.append(f"{what}: value outside [0, 1]")
    if (np.diff(arr) < 0).any():
        problems.append(f"{what}: not nondecreasing")
    return problems


# -- exhaustive-k58 ------------------------------------------------------------


def oracle_successor(values, v, m, d):
    """Plain-loop successor of ``v`` on (K_m)^d, ascending-id tie-break."""
    nbrs = []
    stride = 1
    for _ in range(d):
        digit = (v // stride) % m
        nbrs.extend(v + (q - digit) * stride for q in range(m) if q != digit)
        stride *= m
    best_u, best = v, values[v]
    for u in sorted(nbrs):
        if values[u] < best:
            best_u, best = u, values[u]
    return best_u


def _tree_nodes(tree):
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node["children"])
    return count


class Exhaustive:
    name = "exhaustive-k58"
    KERNELS = ("successor_map", "basins", "within_epsilon_curve", "preimage_sizes",
               "export_search_tree")
    labels = ("build",) + KERNELS + ("tree_to_dot", "sample_markov_truncnorm")
    TOP = 6
    ORACLE_NODES = 2000

    def __init__(self, seed, toy=False, workdir=None):
        self.seed = seed
        self.m, self.d = (5, 4) if toy else (5, 8)
        self.n = self.m ** self.d

    def setup(self):
        self.reference = NumpyReference()
        self.eps = np.linspace(0.0, 0.1, 101)
        self.noise = landscape.NoiseSpec.parse(_NOISE)
        self.seeds = [sub_seed(self.seed, k) for k in range(3)]
        rng = np.random.default_rng(sub_seed(self.seed, 3))
        self.oracle_nodes = rng.choice(self.n, min(self.ORACLE_NODES, self.n), replace=False)

    def _build(self):
        topo = topology.make_clique_power(self.m, self.d)
        scape = landscape.sample_uniform(topo, self.seeds[0])
        return topo, landscape.LandscapeView(scape, self.noise, seed=self.seeds[1])

    def _lowest(self, smap):
        minima = smap.minima()
        return [int(v) for v in minima[np.argsort(smap.values[minima], kind="stable")][:self.TOP]]

    def run_pass(self, tracer) -> PassRecord:
        ops = _Ops(self.labels, tracer, self.reference)
        topo, view = ops.run("build", self._build) or (None, None)
        smap = ops.run("successor_map", lambda: analysis.successor_map(view))
        basin = ops.run("basins", lambda: analysis.basins(view))
        curve = ops.run("within_epsilon_curve",
                        lambda: analysis.within_epsilon_curve(view, self.eps))
        pre = ops.run("preimage_sizes", lambda: [
            (v, analysis.preimage_sizes(view, v, self.TOP)) for v in self._lowest(smap)])
        trees = ops.run("export_search_tree",
                        lambda: analysis.export_search_tree(view, self.TOP))
        dots = ops.run("tree_to_dot", lambda: [analysis.tree_to_dot(t) for t in trees])
        markov = ops.run("sample_markov_truncnorm", lambda: landscape.sample_markov_truncnorm(
            topo, 0.35, 0.25, 0.18, seed=self.seeds[2]))
        rec = ops.finish()

        ops.check("build", lambda: ([], _digest(view.frozen_values())))
        ops.check("successor_map", self._check_succ, smap)
        ops.check("basins", self._check_basins, basin)
        ops.check("within_epsilon_curve", self._check_curve, curve)
        ops.check("preimage_sizes", self._check_preimages, pre, basin)
        ops.check("export_search_tree", self._check_trees, trees, basin, smap)
        ops.check("tree_to_dot", self._check_dots, dots, trees)
        ops.check("sample_markov_truncnorm", self._check_markov, markov)
        return rec

    def _check_succ(self, smap):
        values = smap.values.tolist()
        bad = [int(v) for v in self.oracle_nodes
               if int(smap.succ[v]) != oracle_successor(values, int(v), self.m, self.d)]
        problems = [f"successor differs from the loop oracle at {len(bad)} nodes, e.g. {bad[:3]}"] if bad else []
        if len(smap.succ) != self.n:
            problems.append("successor map has the wrong length")
        return problems, _digest(smap.succ)

    def _check_basins(self, basin):
        assignment, stats = basin
        problems = []
        if int(stats.basin_sizes.sum()) != self.n:
            problems.append(f"basin sizes sum to {int(stats.basin_sizes.sum())}, not n={self.n}")
        if stats.num_local_minima != len(stats.basin_minima):
            problems.append("minima count disagrees with the basin list")
        return problems, _digest(assignment, stats.basin_sizes, stats.avg_iterations)

    def _check_curve(self, curve):
        eps = [e for e, _ in curve]
        problems = _nondecreasing_unit([f for _, f in curve], "within-eps curve")
        if eps != self.eps.tolist():
            problems.append("within-eps curve is not on the requested grid")
        return problems, _digest(curve)

    @staticmethod
    def _basin_size(stats, v):
        i = int(np.searchsorted(stats.basin_minima, v))
        if i >= len(stats.basin_minima) or stats.basin_minima[i] != v:
            return None
        return int(stats.basin_sizes[i])

    def _check_preimages(self, pre, basin):
        _, stats = basin
        problems = []
        if len(pre) != min(self.TOP, stats.num_local_minima):
            problems.append(f"{len(pre)} preimages for {self.TOP} lowest minima")
        for v, (counts, total) in pre:
            size = self._basin_size(stats, v)
            if size is None or total + 1 != size:
                problems.append(f"minimum {v}: full preimage {total} + 1 != basin size {size}")
            if sum(counts) > total or len(counts) != self.TOP:
                problems.append(f"minimum {v}: per-level counts {counts} inconsistent")
        return problems, _digest(pre)

    def _check_trees(self, trees, basin, smap):
        _, stats = basin
        problems = []
        if [t["min_id"] for t in trees] != self._lowest(smap):
            problems.append("exported trees are not the lowest minima in loss order")
        for t in trees:
            size = self._basin_size(stats, t["min_id"])
            if _tree_nodes(t) != size:
                problems.append(f"tree {t['min_id']}: {_tree_nodes(t)} nodes, basin size {size}")
        return problems, _digest(json.dumps(trees, sort_keys=True))

    def _check_dots(self, dots, trees):
        problems = []
        for dot, t in zip(dots, trees):
            edges = sum(1 for line in dot.splitlines() if "->" in line)
            if not dot.startswith("digraph") or edges != _tree_nodes(t) - 1:
                problems.append(f"dot for tree {t['min_id']} has {edges} edges")
        return problems, _digest("".join(dots))

    def _check_markov(self, markov):
        vals = markov.val_loss
        problems = []
        if len(vals) != self.n or not np.isfinite(vals).all() or (vals < 0).any() or (vals > 1).any():
            problems.append("markov losses are not n finite values in [0, 1]")
        return problems, _digest(vals)

    def metrics(self, passes):
        kernel = [sum(p.op_scaled[k] for k in self.KERNELS) for p in passes]
        return {"nodes_per_s": [self.n / s for s in kernel]}


# -- search-k56 ------------------------------------------------------------------


_ALGOS = ("local", "local-qul", "local-cam", "random")
_NOISES = (_NOISE, "gaussian-fresh:0.05")


class Search:
    name = "search-k56"
    labels = tuple(f"{a}|{n}" for a in _ALGOS for n in _NOISES)

    def __init__(self, seed, toy=False, workdir=None):
        self.seed = seed
        self.m, self.d = (5, 4) if toy else (5, 6)
        self.trials, self.budget = (10, 60) if toy else (200, 300)

    def setup(self):
        topo = topology.make_clique_power(self.m, self.d)
        self.scape = landscape.sample_markov_truncnorm(topo, 0.35, 0.25, 0.18,
                                                       seed=sub_seed(self.seed, 0))
        self.calls = [
            (label, algo, landscape.NoiseSpec.parse(noise), sub_seed(self.seed, 1 + i))
            for i, (label, (algo, noise)) in enumerate(
                zip(self.labels, ((a, n) for a in _ALGOS for n in _NOISES)))
        ]

    def run_pass(self, tracer) -> PassRecord:
        ops = _Ops(self.labels, tracer, python_reference_s)
        results = {}
        for label, algo, noise, root in self.calls:
            results[label] = ops.run(label, functools.partial(
                search.run_trials, self.scape, noise, algo, self.budget, self.trials,
                root, num_initial=1, restart=True, jobs=1))
        rec = ops.finish()
        for label in self.labels:
            ops.check(label, self._check, results[label])
        return rec

    def _check(self, histories):
        problems = []
        if len(histories) != self.trials:
            problems.append(f"{len(histories)} histories for {self.trials} trials")
        parts = []
        for i, h in enumerate(histories):
            nodes = np.asarray(h.nodes)
            if len(nodes) != self.budget or len(np.unique(nodes)) != self.budget:
                problems.append(f"trial {i}: charged {len(np.unique(nodes))} distinct nodes, "
                                f"budget {self.budget}")
            if not np.array_equal(h.best_val, np.minimum.accumulate(h.val_loss)):
                problems.append(f"trial {i}: best_val is not the running minimum of val_loss")
            parts += [nodes, h.val_loss, h.best_val]
        return problems, _digest(*parts)

    def metrics(self, passes):
        done = self.trials * len(self.labels)
        return {"trials_per_s": [done / p.scaled_seconds for p in passes]}


# -- cli-k56 ---------------------------------------------------------------------

_HEADERS = {
    "landscape.csv": "id,val_loss",
    "stats.csv": "metric,value",
    "within_eps.csv": "epsilon,fraction",
    "basin_sizes.csv": "min_id,loss,size",
    "theory_summary.csv": "metric,value",
    "theory_curve.csv": "epsilon,fraction_theory",
    "theory_preimages.csv": "loss,k,expected_size",
    "theory_bounds.csv": "loss,survival,lower,upper",
    "theory_chebyshev.csv": "sigma,delta,bound",
    "compared.csv": "epsilon,fraction_sim,fraction_theory,gap",
    "rwa.csv": "lag,sqrt_lag,rho",
    "runs.csv": "trial,query,node,val_loss,best_val,best_test",
}


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return ",".join(rows[0]), rows[1:]


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Cli:
    name = "cli-k56"
    # (label, output dir, files it must write); the labels without a suffix
    # are the invocations with their own end-to-end metric (``<label>_s``)
    COMMANDS = (
        ("gen", "gen", ("landscape.csv", "landscape.meta.json")),
        ("analyze", "analyze", ("stats.csv", "within_eps.csv", "basin_sizes.csv")),
        ("theory-cf", "theory_cf", ("theory_summary.csv", "theory_curve.csv",
                                    "theory_preimages.csv", "theory_bounds.csv")),
        ("theory", "theory", ("theory_summary.csv", "theory_curve.csv",
                              "theory_preimages.csv", "theory_chebyshev.csv")),
        ("compare", "compare", ("compared.csv", "compare_summary.json")),
        ("gen-markov", "gen_markov", ("landscape.csv", "landscape.meta.json")),
        ("rwa", "rwa", ("rwa.csv",)),
        ("fit-global", "fit_global", ("fit.json",)),
        ("fit", "fit", ("fit.json",)),
        ("search", "search", ("runs.csv", "summary.json")),
        ("search-random", "search_random", ("runs.csv", "summary.json")),
    )
    labels = tuple(c[0] for c in COMMANDS)
    TIMED = ("gen", "analyze", "theory", "compare", "rwa", "fit", "search")
    CANDIDATES = (0.2, 0.35, 0.5)
    TIMEOUT_S = 150

    def __init__(self, seed, toy=False, workdir=None):
        self.seed = seed
        self.m, self.d = (5, 4) if toy else (5, 6)
        self.n = self.m ** self.d
        self.trials, self.budget = (10, 60) if toy else (200, 300)
        self.workdir = workdir
        self.in_process = False
        self.passes_run = 0

    def setup(self):
        self.topo = f"clique-power:{self.m},{self.d}"
        self.seeds = [str(_UNIFORM_SEED), str(_MARKOV_SEED), str(sub_seed(self.seed, 0))]

    def argv(self, label, p):
        j = os.path.join
        topo, (s_uni, s_markov, s) = self.topo, self.seeds
        markov = j(p, "gen_markov", "landscape.csv")
        table = {
            "gen": ["gen", "--topo", topo, "--model", "uniform", "--seed", s_uni],
            "analyze": ["analyze", "--landscape", j(p, "gen", "landscape.csv"),
                        "--noise", _NOISE, "--export-tree", "6", "--seed", s],
            "theory-cf": ["theory", "--pdf-n", "uniform", "--pdf-e", "uniform",
                          "--topo", topo, "--closed-form", "uniform"],
            "theory": ["theory", "--pdf-n", "truncnorm:0.25,0.18",
                       "--pdf-e", "truncnorm-local:0.35", "--topo", topo,
                       "--noise-sigma", "0.05"],
            "compare": ["compare", "--sim", j(p, "analyze", "within_eps.csv"),
                        "--theory", j(p, "theory_cf", "theory_curve.csv")],
            "gen-markov": ["gen", "--topo", topo, "--model", "markov-tn:0.35",
                           "--seed", s_markov],
            "rwa": ["rwa", "--landscape", markov, "--seed", s],
            "fit-global": ["fit", "--mode", "global", "--landscape", markov],
            "fit": ["fit", "--mode", "local-rwa", "--rwa", j(p, "rwa", "rwa.csv"),
                    "--topo", topo, "--candidates", ",".join(map(str, self.CANDIDATES)),
                    "--seed", s],
            "search": ["search", "--landscape", markov, "--algo", "local",
                       "--budget", str(self.budget), "--trials", str(self.trials),
                       "--seed", s],
        }
        table["search-random"] = [("random" if a == "local" else a) for a in table["search"]]
        out = dict((c[0], c[1]) for c in self.COMMANDS)[label]
        return table[label] + ["--out", j(p, out)]

    def _invoke(self, argv):
        if self.in_process:
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            if rc != 0:
                raise RuntimeError(f"exit code {rc}")
            return
        proc = subprocess.run([sys.executable, "-m", "hillscape", *argv],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=self.TIMEOUT_S)
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            raise RuntimeError(f"exit code {proc.returncode}: {tail}")

    def run_pass(self, tracer) -> PassRecord:
        p = os.path.join(self.workdir, f"pass-{self.passes_run}")
        self.passes_run += 1
        os.makedirs(p)
        ops = _Ops(self.labels, tracer, python_reference_s)
        for label in self.labels:
            ops.run(label, functools.partial(self._invoke, self.argv(label, p)))
        rec = ops.finish()
        for label, out, files in self.COMMANDS:
            ops.check(label, self._check, label, os.path.join(p, out), files, p)
        rec.extra["output_bytes"] = sum(os.path.getsize(os.path.join(dp, f))
                                        for dp, _, fs in os.walk(p) for f in fs)
        shutil.rmtree(p)
        return rec

    def _check(self, label, out, files, p):
        problems = []
        for f in files:
            path = os.path.join(out, f)
            if not os.path.isfile(path):
                problems.append(f"missing {f}")
            elif f in _HEADERS and _read_csv(path)[0] != _HEADERS[f]:
                problems.append(f"{f}: header is not {_HEADERS[f]!r}")
        if not problems:
            problems += getattr(self, "_check_" + label.split("-")[0])(label, out, p)
        parts = []
        for dp, _, fs in sorted(os.walk(out)):
            for f in sorted(fs):
                if f != "manifest.json":
                    with open(os.path.join(dp, f), "rb") as fh:
                        parts += [os.path.relpath(os.path.join(dp, f), out), fh.read()]
        return problems, _digest(*parts)

    def _check_gen(self, label, out, p):
        _, rows = _read_csv(os.path.join(out, "landscape.csv"))
        problems = []
        if [int(r[0]) for r in rows] != list(range(self.n)):
            problems.append("landscape.csv ids are not 0..n-1")
        vals = np.asarray([float(r[1]) for r in rows])
        if not (np.isfinite(vals).all() and (vals >= 0).all() and (vals <= 1).all()):
            problems.append("landscape.csv losses outside [0, 1]")
        meta = _read_json(os.path.join(out, "landscape.meta.json"))
        if meta.get("topology") != self.topo or meta.get("n") != self.n:
            problems.append("landscape.meta.json does not describe the topology")
        return problems

    def _check_analyze(self, label, out, p):
        problems = []
        stats = dict(_read_csv(os.path.join(out, "stats.csv"))[1])
        if int(stats.get("n", -1)) != self.n:
            problems.append("stats.csv n is wrong")
        _, curve = _read_csv(os.path.join(out, "within_eps.csv"))
        if len(curve) != 101:
            problems.append(f"within_eps.csv has {len(curve)} rows")
        problems += _nondecreasing_unit([float(r[1]) for r in curve], "within_eps.csv")
        _, basins = _read_csv(os.path.join(out, "basin_sizes.csv"))
        sizes = {int(r[0]): int(r[2]) for r in basins}
        if sum(sizes.values()) != self.n:
            problems.append("basin sizes do not sum to n")
        for rank in range(1, 7):
            tree_path = os.path.join(out, "trees", f"tree_{rank}.json")
            if not (os.path.isfile(tree_path)
                    and os.path.isfile(tree_path[:-4] + "dot")):
                problems.append(f"missing tree_{rank}")
                continue
            tree = _read_json(tree_path)
            if _tree_nodes(tree) != sizes.get(tree["min_id"]):
                problems.append(f"tree_{rank}.json size differs from its basin")
        return problems

    def _check_theory(self, label, out, p):
        _, curve = _read_csv(os.path.join(out, "theory_curve.csv"))
        summary = dict(_read_csv(os.path.join(out, "theory_summary.csv"))[1])
        problems = []
        if len(curve) != 101 or not all(math.isfinite(float(r[1])) for r in curve):
            problems.append("theory_curve.csv is not 101 finite rows")
        frac = float(summary.get("expected_minima_fraction", "nan"))
        if not 0.0 < frac < 1.0:
            problems.append(f"expected minima fraction {frac} outside (0, 1)")
        return problems

    def _check_compare(self, label, out, p):
        _, sim = _read_csv(os.path.join(p, "analyze", "within_eps.csv"))
        _, the = _read_csv(os.path.join(p, "theory_cf", "theory_curve.csv"))
        gap = max(abs(float(a[1]) - float(b[1])) for a, b in zip(sim, the))
        summary = _read_json(os.path.join(out, "compare_summary.json"))
        problems = []
        if summary.get("rows") != len(sim) or not math.isclose(
                summary.get("max_abs_gap", math.nan), gap, rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"compare summary {summary} disagrees with the inputs "
                            f"(max_abs_gap {gap!r})")
        return problems

    def _check_rwa(self, label, out, p):
        _, rows = _read_csv(os.path.join(out, "rwa.csv"))
        rho = [float(r[2]) for r in rows]
        problems = []
        if [int(r[0]) for r in rows] != list(range(37)):
            problems.append("rwa.csv lags are not 0..36")
        if not rho or abs(rho[0] - 1.0) > 1e-12 or any(abs(r) > 1.0 + 1e-12 for r in rho):
            problems.append("rwa.csv violates rho(0) = 1 or |rho| <= 1")
        return problems

    def _check_fit(self, label, out, p):
        fit = _read_json(os.path.join(out, "fit.json"))
        if label == "fit":
            ok = fit.get("mode") == "local-rwa" and fit.get("sigma_local") in self.CANDIDATES
        else:
            ok = (fit.get("mode") == "global" and 0.02 <= fit.get("sigma", -1) <= 1.0
                  and 0.0 <= fit.get("center", -1) <= 1.0)
        return [] if ok else [f"fit.json {fit} is not a valid {label} result"]

    def _check_search(self, label, out, p):
        _, rows = _read_csv(os.path.join(out, "runs.csv"))
        problems = []
        if len(rows) != self.trials * self.budget:
            problems.append(f"runs.csv has {len(rows)} rows, not trials x budget")
        by_trial = {}
        for r in rows:
            by_trial.setdefault(int(r[0]), []).append(r)
        for trial, rs in sorted(by_trial.items()):
            if [int(r[1]) for r in rs] != list(range(1, self.budget + 1)):
                problems.append(f"trial {trial}: queries are not 1..budget")
            if len({r[2] for r in rs}) != self.budget:
                problems.append(f"trial {trial}: nodes are not distinct")
            vals = [float(r[3]) for r in rs]
            if [float(r[4]) for r in rs] != list(np.minimum.accumulate(vals)):
                problems.append(f"trial {trial}: best_val is not the running minimum")
        if sorted(by_trial) != list(range(self.trials)):
            problems.append("runs.csv trials are not 0..trials-1")
        summary = _read_json(os.path.join(out, "summary.json"))
        if summary.get("trials") != self.trials or summary.get("queries") != self.budget:
            problems.append("summary.json trials/queries are wrong")
        return problems

    def metrics(self, passes):
        return {f"{label}_s": [p.op_scaled[label] for p in passes] for label in self.TIMED}


def make(name, seed, toy=False, workdir=None):
    return {"cli-k56": Cli, "search-k56": Search, "exhaustive-k58": Exhaustive}[name](
        seed, toy=toy, workdir=workdir)
