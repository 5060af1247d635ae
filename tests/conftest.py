import heapq
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hillscape as hs
from hillscape import landscape as landscape_mod
from hillscape import search
from hillscape.theory import _prefix

# subprocesses (the CLI and demo tests) import hillscape from this checkout
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def k56():
    return hs.make_clique_power(5, 6)


@pytest.fixture(scope="session")
def k56_uniform(k56):
    return hs.sample_uniform(k56, seed=7)


def traced_peak(fn, *args):
    """Peak bytes that ``fn(*args)`` allocates above what was live at the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def digits_base(v, m, d):
    out = []
    for _ in range(d):
        out.append(v % m)
        v //= m
    return out


def clique_neighbors_oracle(v, m, d):
    """Enumerate neighbors straight from the digit definition."""
    dig = digits_base(v, m, d)
    out = []
    for pos in range(d):
        for q in range(m):
            if q != dig[pos]:
                nd = list(dig)
                nd[pos] = q
                out.append(sum(c * m**i for i, c in enumerate(nd)))
    return sorted(out)


def oracle_neighbors(t, v):
    """Neighbors of ``v``: from the digit oracle on clique powers (complete
    graphs included), from ``t.neighbors`` on the other kinds."""
    if t.kind == "clique_power":
        return clique_neighbors_oracle(v, t.m, t.d)
    return [int(u) for u in t.neighbors(v)]


def brute_successor(t, values):
    """Independent argmin-neighbor oracle: explicit loops, no numpy tricks."""
    succ = []
    for v in range(t.n):
        best_id, best_val = v, values[v]
        for u in oracle_neighbors(t, v):
            u = int(u)
            if values[u] < best_val:
                best_id, best_val = u, values[u]
        succ.append(best_id if best_val < values[v] else v)
    return np.asarray(succ)


def cycle_topology(n=4):
    """n-cycle as a custom topology, written through the adjacency format."""
    lines = [f"n {n}"] + [f"{i} {(i + 1) % n}" for i in range(n)]
    return hs.load_adjacency("\n".join(lines) + "\n")


def custom_twin(t):
    """The same graph as ``t``, loaded as a custom topology through the
    adjacency format, so it takes the generic code paths."""
    lines = [f"n {t.n}"] + [f"{v} {u}" for v in range(t.n) for u in oracle_neighbors(t, v)
                            if u > v]
    return hs.load_adjacency("\n".join(lines) + "\n")


def frozen_view(t, values, seed=0):
    scape = hs.Landscape(t, np.asarray(values, dtype=float))
    return hs.LandscapeView(scape, hs.NoiseSpec.none(), seed=seed)


# -- per-node search reference -------------------------------------------------
#
# The search loops as they were before search ran its trials in lock-step:
# one trial at a time, every neighbor checked and observed on its own, and
# the continue-at-min pool a heap.  They observe through RefView, which keeps
# its own cache and log and reads the noise from tables filled by one
# vectorized evaluation per trial.  Tests compare the lock-step search
# against them.


class RefView:
    """A view's cache contract, one node at a time: the first observation
    of a node charges it and fixes its value; repeats are free."""

    def __init__(self, landscape, noise, seed, budget):
        self.landscape, self.noise, self.seed = landscape, noise, seed
        # the uniforms of every counter the trial can use (node ids for frozen
        # noise, charge indices for fresh), then one vectorized inverse CDF
        key = hs.mix64(seed, landscape_mod._NOISE_STREAM)
        counters = range(landscape.n if noise.frozen else min(budget, landscape.n))
        bits = np.array([hs.mix64(key, c) >> 12 for c in counters], dtype=float)
        self._uniform = bits * 2.0 ** -52 + 2.0 ** -53
        self._z = landscape_mod._ndtri(self._uniform)
        self._values, self._log = {}, []
        self._sweeps = 0
        self._qul_key = hs.mix64(seed, search._SHUFFLE_STREAM)

    def _draw(self, v):
        base, spec = self.landscape.val_loss, self.noise
        if spec.kind == "uniform-replace":
            return self._uniform[v]
        if not np.any(spec.scale):
            return base[v]
        scale = spec.scale[v] if isinstance(spec.scale, np.ndarray) else spec.scale
        return base[v] + scale * self._z[v if spec.frozen else len(self._log)]

    def observe(self, v):
        if v not in self._values:
            self._values[v] = self._draw(v)
            self._log.append(v)
        return float(self._values[v])

    def seen(self, v):
        return v in self._values

    @property
    def query_count(self):
        return len(self._log)

    def observation_log(self):
        return list(self._log)

    def observed_values(self):
        return np.asarray([self._values[v] for v in self._log], dtype=float)

    def qul_order(self, nbrs):
        """``nbrs`` ranked by their keys: the counter of neighbor u in this
        view's sweep c is c * n + u."""
        keys = hs.mix64(self._qul_key, np.asarray(nbrs) + self._sweeps * self.landscape.n)
        self._sweeps += 1
        return [nbrs[i] for i in np.argsort(keys, kind="stable")]


def reference_local_search(view, start, cfg):
    """``search.local_search`` observing one neighbor at a time."""
    t = view.landscape.topology
    trace = hs.SearchTrace(final=start)
    if not (view.seen(start) or view.query_count < cfg.budget):
        return trace
    value = view.observe(start)
    pool, expanded = [], set()
    qul, cam = cfg.algo == "local-qul", cfg.algo == "local-cam"
    if cam:
        heapq.heappush(pool, (value, start))
    v, lv = start, value
    trace.path.append(v)
    while True:
        nbrs = [int(u) for u in t.neighbors(v)]
        if qul:
            nbrs = view.qul_order(nbrs)
        best_u, best_val = -1, np.inf
        moved = out_of_budget = False
        for u in nbrs:
            if not (view.seen(u) or view.query_count < cfg.budget):
                out_of_budget = True
                break
            val = view.observe(u)
            if cam and u not in expanded:
                heapq.heappush(pool, (val, u))
            if qul and val < lv:
                v, lv = u, val
                trace.path.append(v)
                trace.iterations += 1
                moved = True
                break
            if val < best_val:
                best_u, best_val = u, val
        if moved:
            continue
        if out_of_budget:
            break
        expanded.add(v)
        if best_val < lv:
            v, lv = best_u, best_val
            trace.path.append(v)
            trace.iterations += 1
            continue
        if cam and view.query_count < cfg.budget:
            nxt = None
            while pool:
                val, u = heapq.heappop(pool)
                if u not in expanded:
                    nxt = (u, val)
                    break
            if nxt is not None:
                v, lv = nxt
                trace.path.append(v)
                continue
        trace.converged = True
        break
    trace.final = v
    return trace


def counter_node(key, j, n):
    """Draw ``j`` of the start key ``key``: node floor(u * n) of the uniform
    u of (key, j), in Python ints and floats."""
    return int(((hs.mix64(key, j) >> 12) * 2.0 ** -52 + 2.0 ** -53) * n)


def counter_draws(key, n):
    """The draws 0, 1, 2, ... of the start key ``key``, one at a time."""
    j = 0
    while True:
        yield counter_node(key, j, n)
        j += 1


def reference_trial(landscape, noise, algo, budget, num_initial, restart, root_seed, trial):
    """One ``run_trials`` trial through the per-node loops: ``(history, traces)``."""
    trial_seed = hs.mix64(root_seed, trial)
    view = RefView(landscape, noise, hs.mix64(trial_seed, 0), budget)
    t, traces = landscape.topology, []
    draws = counter_draws(hs.mix64(hs.mix64(trial_seed, 1), search._START_STREAM), t.n)
    if algo == "random":
        budget = min(budget, t.n)
        while view.query_count < budget:
            v = next(draws)
            if not view.seen(v):
                view.observe(v)
        return hs.RunHistory.from_view(view), traces
    if algo not in ("local", "local-qul", "local-cam"):
        raise ValueError(f"no per-node reference for algo {algo!r}")
    cfg = hs.SearchConfig(budget, num_initial, algo, restart)
    while True:
        starts = []
        for _ in range(cfg.num_initial):
            v = next(draws)
            if not (view.seen(v) or view.query_count < cfg.budget):
                break
            starts.append((view.observe(v), v))
        if not starts:
            break
        traces.append(reference_local_search(view, min(starts)[1], cfg))
        if not cfg.restart_on_convergence or view.query_count >= min(cfg.budget, t.n):
            break
    return hs.RunHistory.from_view(view), traces


def dense_preimage_table(pdf_e, params, max_k, grid_points):
    """Quadrature reference for the preimage table of any local pdf.

    Takes the full cumulative integral of every row of the grid-by-grid
    integrand at every depth and keeps only its diagonal: O(grid^2) work
    per depth with no precomputed weights and no closed form.
    """
    xs = np.linspace(0.0, 1.0, grid_points)
    s = params.s
    E = np.zeros((max_k, grid_points))
    P = pdf_e.density(xs[:, None], xs[None, :])
    tail = pdf_e.survival(xs[None, :], xs[:, None])
    pre = _prefix(P * tail ** (s - 1), xs)
    E[0] = s * np.diagonal(pre[:, -1][:, None] - pre)
    denom = pdf_e.survival(xs, xs)
    for k in range(2, max_k + 1):
        pre = _prefix(P * E[k - 2][None, :], xs)
        numer = np.diagonal(pre[:, -1][:, None] - pre)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(denom > 1e-300, numer / denom, 0.0)
        E[k - 1] = params.b_at(k - 1) * E[0] * ratio
    return xs, E
