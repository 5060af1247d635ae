"""Hill-climbing local search, its variants, and budgeted multi-restart runs.

The basic algorithm evaluates the full neighborhood of the current node in
ascending id order and moves to the strictly-improving argmin; it stops at
a local minimum.  Variants:

* ``query_until_lower`` -- neighbors are evaluated in an order shuffled by
  the view's RNG and the walk moves as soon as any strictly lower neighbor
  appears.
* ``continue_at_min`` -- at a local minimum, continue from the best
  evaluated-but-not-yet-expanded node until the budget runs out.
* ``num_initial`` -- draw k random nodes up front and start from the best.

Budget accounting lives in the view: it charges the first observation of
a node one evaluation, repeats are free, and its log lists the nodes in
first-observation order.  A node is observed only if the view has seen it
or fewer than ``budget`` nodes are charged, so a run never charges more
than ``budget`` distinct nodes.  Each neighborhood sweep is one
``view.observe_prefix`` call, which applies that rule node by node in
sweep order; starts go through ``view.observe``, its one-node case.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass, field

import numpy as np

from .landscape import Landscape, LandscapeView, NoiseSpec
from .seeding import mix64, spawn_rng
from .topology import Topology

__all__ = [
    "SearchConfig",
    "SearchTrace",
    "RunHistory",
    "local_search",
    "run_budgeted",
    "random_search",
    "run_trials",
]

_START_STREAM = 0xB1


def _check_count(value, name: str) -> None:
    """A budget or draw count must be a whole number: ``budget=2.5`` or NaN
    would be misread by the ``query_count < budget`` checks."""
    if not float(value).is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class SearchConfig:
    budget: int
    num_initial: int = 1
    query_until_lower: bool = False
    continue_at_min: bool = False
    restart_on_convergence: bool = False

    def __post_init__(self):
        _check_count(self.budget, "budget")
        _check_count(self.num_initial, "num_initial")
        if self.budget < self.num_initial:
            raise ValueError("budget must cover the initial random draws")


@dataclass
class SearchTrace:
    """Moves of one local-search run.

    ``path`` is the sequence of occupied nodes; ``iterations`` counts
    accepted strict-descent moves (continue-at-min jumps excluded).  The
    evaluated nodes and their losses are in the view's observation log.
    """

    path: list = field(default_factory=list)
    final: int = -1
    iterations: int = 0
    converged: bool = False


@dataclass
class RunHistory:
    """Per-query best-so-far trajectory of a budgeted run."""

    nodes: np.ndarray
    val_loss: np.ndarray
    best_val: np.ndarray
    best_test: np.ndarray | None = None

    def __len__(self):
        return len(self.nodes)

    @classmethod
    def from_view(cls, view: LandscapeView) -> "RunHistory":
        nodes = np.asarray(view.observation_log(), dtype=np.int64)
        vals = view.observed_values()
        best_val = np.minimum.accumulate(vals)
        test = view.landscape.test_loss
        best_test = None
        if test is not None and len(nodes):
            # index of the running best: it moves only on a strict improvement
            new_best = np.concatenate(([True], vals[1:] < best_val[:-1]))
            best_at = np.maximum.accumulate(np.where(new_best, np.arange(len(nodes)), 0))
            best_test = test[nodes[best_at]]
        return cls(nodes, vals, best_val, best_test)


def local_search(view: LandscapeView, start: int, cfg: SearchConfig) -> SearchTrace:
    """Run one local search from ``start`` under the view's noise and budget."""
    t = view.landscape.topology
    if not 0 <= start < t.n:
        raise ValueError(f"start node {start} out of range [0, {t.n})")
    trace = SearchTrace(final=start)
    if not (view.seen(start) or view.query_count < cfg.budget):
        return trace
    value = view.observe(start)

    # pool of evaluated-but-unexpanded nodes for continue_at_min
    pool: list[tuple[float, int]] = []
    expanded = set()
    if cfg.continue_at_min:
        heapq.heappush(pool, (value, start))

    v, lv = start, value
    trace.path.append(v)
    while True:
        nbrs = t.neighbors(v)
        if cfg.query_until_lower:
            nbrs = view.shuffle_rng.permutation(nbrs)
        # one view call per sweep: query_until_lower stops after the first
        # lower neighbor, the full sweep evaluates every neighbor
        vals, k = view.observe_prefix(nbrs, cfg.budget,
                                      lv if cfg.query_until_lower else None)
        if cfg.continue_at_min:
            for item in zip(vals.tolist(), nbrs[:k].tolist()):
                if item[1] not in expanded:
                    heapq.heappush(pool, item)
        if cfg.query_until_lower and k and vals[k - 1] < lv:
            v, lv = int(nbrs[k - 1]), float(vals[k - 1])
            trace.path.append(v)
            trace.iterations += 1
            continue
        if k < len(nbrs):  # out of budget mid-sweep: end without moving
            break
        expanded.add(v)
        best = int(vals.argmin()) if k else 0  # the first minimum: ties go to the lower index
        if k and vals[best] < lv:  # strict improvement only; ties do not move
            v, lv = int(nbrs[best]), float(vals[best])
            trace.path.append(v)
            trace.iterations += 1
            continue
        # local minimum of the observed landscape
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


def random_search(view: LandscapeView, t: Topology, budget: int, seed: int) -> RunHistory:
    """Evaluate ``budget`` distinct uniform-random nodes (rejection on repeats).

    Candidates are drawn in batches from a generator private to the call, so
    drawing past the last charged node changes nothing observed.
    """
    _check_count(budget, "budget")
    if budget > t.n:
        warnings.warn(f"budget {budget} exceeds node count {t.n}; capped")
        budget = t.n
    rng = spawn_rng(seed, _START_STREAM)
    while view.query_count < budget:
        # about enough draws for the remaining budget, given the share already seen
        size = (budget - view.query_count) * t.n // (t.n - view.query_count)
        draws = rng.integers(t.n, size=max(size, 16))
        _, first = np.unique(draws, return_index=True)
        view.observe_prefix(draws[np.sort(first)], budget)
    return RunHistory.from_view(view)


def run_budgeted(view: LandscapeView, cfg: SearchConfig, seed: int) -> RunHistory:
    """Budgeted local search with random initialization and optional restarts.

    Draws ``cfg.num_initial`` random starts, seeds local search from the best,
    and (with ``restart_on_convergence``) keeps starting fresh runs while
    budget remains.  Restarts share the view's observation cache, so nodes
    re-encountered across runs cost nothing.
    """
    t = view.landscape.topology
    rng = spawn_rng(seed, _START_STREAM)
    while True:
        starts = []
        for _ in range(cfg.num_initial):
            v = int(rng.integers(t.n))
            if not (view.seen(v) or view.query_count < cfg.budget):
                break
            starts.append((view.observe(v), v))
        if not starts:
            break
        local_search(view, min(starts)[1], cfg)
        # stop when the budget is spent or every node is already charged
        if not cfg.restart_on_convergence or view.query_count >= min(cfg.budget, t.n):
            break
    return RunHistory.from_view(view)


_ALGOS = ("local", "local-qul", "local-cam", "random")


def _search_config(algo: str, budget: int, num_initial: int, restart: bool) -> SearchConfig:
    return SearchConfig(
        budget=budget,
        num_initial=num_initial,
        query_until_lower=(algo == "local-qul"),
        continue_at_min=(algo == "local-cam"),
        restart_on_convergence=restart,
    )


def _run_one_trial(landscape, noise, algo, budget, num_initial, restart, root_seed, trial):
    trial_seed = mix64(root_seed, trial)
    view = LandscapeView(landscape, noise, seed=mix64(trial_seed, 0))
    algo_seed = mix64(trial_seed, 1)
    if algo == "random":
        return random_search(view, landscape.topology, budget, algo_seed)
    cfg = _search_config(algo, budget, num_initial, restart)
    return run_budgeted(view, cfg, algo_seed)


def run_trials(landscape: Landscape, noise: NoiseSpec, algo: str, budget: int,
               trials: int, root_seed: int, num_initial: int = 1,
               restart: bool = True, jobs: int = 1) -> list[RunHistory]:
    """Independent seeded trials of one algorithm, merged by trial index.

    Each trial gets its own view with ``seed = mix64(root_seed, trial)``;
    results are deterministic and independent of ``jobs``.
    """
    if algo not in _ALGOS:
        raise ValueError(f"unknown algo {algo!r}; expected one of {_ALGOS}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    args = [(landscape, noise, algo, budget, num_initial, restart, root_seed, i)
            for i in range(trials)]
    if jobs <= 1 or trials <= 1:
        return [_run_one_trial(*a) for a in args]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_one_trial_star, args, chunksize=max(1, trials // (4 * jobs))))


def _run_one_trial_star(args):
    return _run_one_trial(*args)
