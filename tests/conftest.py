import heapq
import os
from pathlib import Path

import numpy as np
import pytest

import hillscape as hs
from hillscape import search
from hillscape.seeding import spawn_rng
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
# The search loops as they were before search moved to one view call per
# sweep: every neighbor goes through view.seen / view.query_count /
# view.observe on its own.  Tests compare the batched search against them.


def reference_local_search(view, start, cfg):
    """``search.local_search`` observing one neighbor at a time."""
    t = view.landscape.topology
    trace = hs.SearchTrace(final=start)
    if not (view.seen(start) or view.query_count < cfg.budget):
        return trace
    value = view.observe(start)
    pool, expanded = [], set()
    if cfg.continue_at_min:
        heapq.heappush(pool, (value, start))
    v, lv = start, value
    trace.path.append(v)
    while True:
        nbrs = t.neighbors(v)
        if cfg.query_until_lower:
            nbrs = view.shuffle_rng.permutation(nbrs)
        best_u, best_val = -1, np.inf
        moved = out_of_budget = False
        for u in nbrs:
            u = int(u)
            if not (view.seen(u) or view.query_count < cfg.budget):
                out_of_budget = True
                break
            val = view.observe(u)
            if cfg.continue_at_min and u not in expanded:
                heapq.heappush(pool, (val, u))
            if cfg.query_until_lower and val < lv:
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
        if cfg.continue_at_min and view.query_count < cfg.budget:
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


def reference_trial(landscape, noise, algo, budget, num_initial, restart, root_seed, trial):
    """One ``run_trials`` trial through the per-node loops: ``(history, traces)``."""
    trial_seed = hs.mix64(root_seed, trial)
    view = hs.LandscapeView(landscape, noise, seed=hs.mix64(trial_seed, 0))
    rng = spawn_rng(hs.mix64(trial_seed, 1), search._START_STREAM)
    t, traces = landscape.topology, []
    if algo == "random":
        budget = min(budget, t.n)
        while view.query_count < budget:
            v = int(rng.integers(t.n))
            if not view.seen(v):
                view.observe(v)
        return hs.RunHistory.from_view(view), traces
    cfg = search._search_config(algo, budget, num_initial, restart)
    while True:
        starts = []
        for _ in range(cfg.num_initial):
            v = int(rng.integers(t.n))
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
    pre = _prefix(P * tail ** (s - 1), xs, axis=1)
    E[0] = s * np.diagonal(pre[:, -1][:, None] - pre)
    denom = pdf_e.survival(xs, xs)
    for k in range(2, max_k + 1):
        pre = _prefix(P * E[k - 2][None, :], xs, axis=1)
        numer = np.diagonal(pre[:, -1][:, None] - pre)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(denom > 1e-300, numer / denom, 0.0)
        E[k - 1] = params.b_at(k - 1) * E[0] * ratio
    return xs, E
