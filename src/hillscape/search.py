"""Hill-climbing local search, its variants, and budgeted multi-restart runs.

The basic algorithm evaluates the full neighborhood of the current node in
ascending id order and moves to the strictly-improving argmin; it stops at
a local minimum.  Variants:

* ``local-qul`` (query until lower) -- neighbors are evaluated in the
  order of counter-based keys (splitmix64 of the view seed, the view's
  sweep count and the neighbor id) and the walk moves as soon as any
  strictly lower neighbor appears.
* ``local-cam`` (continue at minimum) -- at a local minimum, continue from
  the best node that the current run has observed and not yet expanded
  (ties go to the lower id) until the budget runs out.
* ``num_initial`` -- draw k random nodes up front and start from the best.

``SearchConfig.algo`` names the variant; ``run_trials`` also takes
``random``, the random-search baseline.

Budget accounting lives in the view: it charges the first observation of
a node one evaluation, repeats are free, and its log lists the nodes in
first-observation order.  A node is observed only if the view has seen it
or fewer than ``budget`` nodes are charged, so a run never charges more
than ``budget`` distinct nodes.

Trials run in lock-step.  The views of a chunk of trials are the rows of
one :class:`~hillscape.landscape.ViewBatch`, and each step advances every
active row by one neighborhood sweep: one ``neighbors_block`` gather, one
``values, k = ViewBatch.observe(...)`` call (a row cumsum over the seen
marks applies the budget, partial last sweeps included; row i observed its
first ``k[i]`` neighbors) and one argmin per row, which also moves a
``local-qul`` row that stopped on a lower neighbor.  A block pads short
rows with the row's current node, which the row has seen: observing it is
free and never strictly lower, so a pad needs no mask.  Random search
needs no sweep: each round charges every row's first unseen draws, up to
its budget, with ``ViewBatch._charge``, and the next round skips them.
``local_search``, ``run_budgeted`` and ``random_search`` run the same code
on the one-row batch of a view.  A trial's results depend only on its
seed, not on the chunk it runs in or on ``jobs``.

All search randomness is counter-based, as the noise is: each row has a
start key, and its draw j, a start or a random-search candidate, is node
``floor(u * n)`` of the hashed uniform u of (key, j).  Draws take one hash
call for all rows, and search builds no numpy generator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import _ALGOS, _CLIMBS, _HOMES
from .landscape import Landscape, LandscapeView, NoiseSpec, ViewBatch, _hashed_uniform
from .seeding import _seed, mix64
from .topology import _count

__all__ = list(_HOMES["search"])

_START_STREAM = 0xB1
_SHUFFLE_STREAM = 0xA2  # query-until-lower keys, derived from the view seed
# bytes of per-chunk search state (seen marks, logs, continue-at-min pools):
# run_trials sizes its chunks of trials to it.  The cap is a memory guard,
# not a cache fit: a lock-step step has a fixed cost in numpy calls, so the
# cost per trial keeps falling as chunks grow past the L2 cache (on (K_5)^8
# at budget 300, one chunk of 64 trials costs about 30% less per trial than
# two of 32).  Past 32 MiB / _MIN_ROWS per trial (2 MiB of marks, n above
# about 2M nodes) a chunk still takes _MIN_ROWS trials, so lone trials on
# large graphs do not pay that fixed cost for every sweep.
_CHUNK_BYTES = 32 << 20
_MIN_ROWS = 16
_PICK_KEYS = 1 << 12  # random-search candidates per group of rows and round, about


@dataclass(frozen=True)
class SearchConfig:
    """Settings of a budgeted local search; ``algo`` is ``local``,
    ``local-qul`` or ``local-cam``."""

    budget: int
    num_initial: int = 1
    algo: str = "local"
    restart_on_convergence: bool = False

    def __post_init__(self):
        # stored as ints: a budget of 2.5 or NaN would be misread by the count < budget checks
        object.__setattr__(self, "budget", _count(self.budget, "budget"))
        object.__setattr__(self, "num_initial", _count(self.num_initial, "num_initial"))
        if self.budget < self.num_initial:
            raise ValueError("budget must cover the initial random draws")
        if self.algo not in _CLIMBS:
            raise ValueError(f"unknown algo {self.algo!r}; expected one of {_CLIMBS}")


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
        return cls._of(np.asarray(view.observation_log(), dtype=np.int64),
                       view.observed_values(), view.landscape.test_loss)

    @classmethod
    def _of(cls, nodes, vals, test) -> "RunHistory":
        """The history of charged ``nodes`` with observed ``vals``."""
        best_val = np.minimum.accumulate(vals)
        best_test = None
        if test is not None and len(nodes):
            # index of the running best: it moves only on a strict improvement
            new_best = np.concatenate(([True], vals[1:] < best_val[:-1]))
            best_at = np.maximum.accumulate(np.where(new_best, np.arange(len(nodes)), 0))
            best_test = test[nodes[best_at]]
        return cls(nodes, vals, best_val, best_test)


def _nodes(keys, counters, n: int) -> np.ndarray:
    """Draw ``counters`` of the start ``keys``: node ``floor(u * n)`` of the
    hashed uniform u of each (key, counter) pair.  The largest u is
    1 - 2^-53, whose product with any n below 2^53 rounds below n."""
    return (_hashed_uniform(keys, counters) * n).astype(np.int64)


class _Starts:
    """Start nodes per row: a row's draw j is :func:`_nodes` of its start key
    and j, and each call advances the counters of its rows by one."""

    def __init__(self, keys: np.ndarray, n: int):
        self.keys, self.n = keys, n
        self.drawn = np.zeros(keys.size, dtype=np.int64)

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        j = self.drawn[rows]
        self.drawn[rows] += 1
        return _nodes(self.keys[rows], j, self.n)


def _climb(batch: ViewBatch, cfg: SearchConfig, draw, traces=None) -> None:
    """Budgeted local search in every row of ``batch``, the rows in lock-step.

    A row draws up to ``cfg.num_initial`` starts with ``draw(rows)`` in one
    loop, dropping out at its first draw past the budget, and climbs from
    the best (lowest value, then lowest id).  A run ends out of budget
    mid-sweep or converged at a local minimum (a ``local-qul`` stop on a
    lower neighbor is a full sweep).  With ``cfg.restart_on_convergence``
    the row starts again while budget remains and some node is unseen.
    ``traces``, if given, holds one list per row and gets a
    :class:`SearchTrace` per run.
    """
    t = batch.landscape.topology
    rows_n, budget, num_initial = batch.seeds.size, cfg.budget, cfg.num_initial
    qul, cam = cfg.algo == "local-qul", cfg.algo == "local-cam"
    full_count = min(budget, t.n)
    cur = np.zeros(rows_n, dtype=np.int64)
    lv = np.zeros(rows_n)  # the value of cur
    running = np.zeros(rows_n, dtype=bool)
    done = np.zeros(rows_n, dtype=bool)
    if cam:  # per log entry, in the current run: 1 observed, 2 expanded
        pool = np.zeros((rows_n, batch.limit), dtype=np.uint8)
        flat_pool = pool.reshape(-1)  # indexed by ViewBatch._position
    qul_keys = mix64(batch.seeds, _SHUFFLE_STREAM) if qul else None

    def end_runs(rows, converged: bool):
        if not rows.size:
            return
        running[rows] = False
        if traces is not None:
            for r in rows.tolist():
                traces[r][-1].final, traces[r][-1].converged = int(cur[r]), converged
        if cfg.restart_on_convergence:  # rows with budget left and unseen nodes start again
            rows = rows[batch.count[rows] >= full_count]
        done[rows] = True

    def move(rows, to, values, descent: bool):
        cur[rows], lv[rows] = to, values
        if traces is not None:
            for r, v in zip(rows.tolist(), to.tolist()):
                traces[r][-1].path.append(v)
                traces[r][-1].iterations += descent

    while True:
        idle = (~running & ~done).nonzero()[0]
        if idle.size:  # start runs: the best of up to num_initial observed draws
            best, best_v = np.full(idle.size, np.inf), np.zeros(idle.size, dtype=np.int64)
            live = np.arange(idle.size)  # the rows whose draws are still observed
            for _ in range(num_initial):
                v = draw(idle[live])
                vals, k = batch.observe(idle[live], v[:, None], budget=budget)
                ok = k > 0
                live, v, val = live[ok], v[ok], vals[ok, 0]
                better = (val < best[live]) | ((val == best[live]) & (v < best_v[live]))
                live_b = live[better]
                best[live_b], best_v[live_b] = val[better], v[better]
                if not live.size:
                    break
            got = best < np.inf  # observed values are finite
            done[idle[~got]] = True
            rows = idle[got]
            running[rows] = True
            if cam:
                pool[rows] = 0
            if traces is not None:
                for r, v in zip(rows.tolist(), best_v[got].tolist()):
                    traces[r].append(SearchTrace(final=v))
            move(rows, best_v[got], best[got], False)
        act = running.nonzero()[0]
        if not act.size:
            return

        block = t.neighbors_block(cur[act])  # pads are cur: free, and never below lv
        if not block.shape[1]:  # (K_1)^1: one padded column
            block = cur[act][:, None]
        if qul:  # rank by the keys of counter sweep * n + neighbor id
            keys = mix64(qul_keys[act, None], block + (batch.sweeps[act] * t.n)[:, None])
            order = (np.arange(act.size)[:, None], np.argsort(keys, axis=1, kind="stable"))
            block = block[order]
            batch.sweeps[act] += 1
        vals, k = batch.observe(act, block, budget, lv[act] if qul else None)
        if cam:  # observed nodes join the pool unless expanded
            s = np.flatnonzero(np.arange(block.shape[1]) < k[:, None])
            at = batch._position(act.take(s // block.shape[1]), block.reshape(-1).take(s))
            flat_pool[at[flat_pool.take(at) == 0]] = 1

        swept = k == block.shape[1]
        if qul:  # stopped on a lower neighbor: the argmin below moves there
            swept |= (k > 0) & (vals[np.arange(act.size), k - 1] < lv[act])
        end_runs(act[~swept], False)  # out of budget mid-sweep
        f = swept.nonzero()[0]
        if cam:
            flat_pool[batch._position(act[f], cur[act[f]])] = 2
        best = vals[f].argmin(axis=1)  # the first minimum: ties go to the lower index
        bval = vals[f, best]
        improve = bval < lv[act[f]]  # strict improvement only; ties do not move
        minima = act[f[~improve]]
        fi, bi = f[improve], best[improve]
        move(act[fi], block[fi, bi], bval[improve], True)

        if cam and minima.size:  # jump to the lowest pool node, while budget remains
            left = batch.count[minima] < budget
            jump = minima[left]
            if jump.size:
                upto = int(batch.count[jump].max())
                inpool = pool[jump, :upto] == 1
                pvals = np.where(inpool, batch.log_vals[jump, :upto], np.inf)
                low = pvals.min(axis=1)
                ids = batch.log_ids[jump, :upto]
                at = np.where(inpool & (pvals == low[:, None]), ids, t.n).argmin(axis=1)
                has = inpool.any(axis=1)
                move(jump[has], ids[has, at[has]], low[has], False)
                minima = np.concatenate((minima[~left], jump[~has]))
        end_runs(minima, True)


def local_search(view: LandscapeView, start: int, cfg: SearchConfig) -> SearchTrace:
    """Run one local search from ``start`` under the view's noise and budget:
    the one-row, one-run case of the lock-step engine."""
    t = view.landscape.topology
    if isinstance(start, bool) or not (float(start).is_integer() and 0 <= start < t.n):
        raise ValueError(f"start node {start!r} is not a node id in [0, {t.n})")
    traces = [[]]
    one_run = replace(cfg, num_initial=1, restart_on_convergence=False)
    _climb(view._rows, one_run, lambda rows: np.full(rows.size, int(start)), traces)
    return traces[0][0] if traces[0] else SearchTrace(final=int(start))


def _random_rows(batch: ViewBatch, budget: int, keys) -> None:
    """Random search in every row of ``batch``: row r charges the first draws
    of its start key ``keys[r]`` that it has not seen, in counter order,
    until it has charged ``budget`` nodes (rejection on repeats).

    Candidates are hashed in rounds, for the active rows of a group of rows
    (whose draws stay near ``_PICK_KEYS``) in one call, about enough for
    each row's remaining budget.  A round keeps, per row, the first draw of
    each node that the row has not seen, up to the remaining budget, and
    charges them at once, so the next round sees them as marked and the
    picks do not depend on the round sizes.  It handles the rows at once on
    the keys ``row * n + node``, which index the raveled marks.
    """
    n, count, flat_mark = batch.landscape.n, batch.count, batch.mark.reshape(-1)
    need = np.maximum(budget - count, 0)
    group = max(1, _PICK_KEYS // max(int(need.max()), 1))
    drawn = np.zeros_like(need)  # counters hashed per row
    for lo in range(0, need.size, group):  # bounds the temporaries
        active = lo + need[lo:lo + group].nonzero()[0]
        while active.size:
            # about enough draws for the remaining budget, given the share already seen
            left = budget - count[active]
            sizes = np.maximum(left * n // (n - budget + left), 16)
            row = np.repeat(active, sizes)
            j = np.arange(row.size) - np.repeat(np.cumsum(sizes) - sizes, sizes) + drawn[row]
            drawn[active] += sizes
            at = row * n + _nodes(keys[row], j, n)
            at = at[np.sort(np.unique(at, return_index=True)[1])]  # first draws first
            at = at[flat_mark.take(at) == 0]
            row = at // n
            per_row = np.bincount(row, minlength=count.size)
            # charge index: the row's count plus the candidate's rank in the row
            charges = np.arange(at.size) - (np.cumsum(per_row) - per_row - count).take(row)
            keep = charges < budget
            row, at, charges = row[keep], at[keep], charges[keep]
            ids = at % n
            vals = batch.noise.values(batch.landscape.val_loss, batch._keys[row], ids, charges)
            batch._charge(row, ids, vals, charges, at)
            active = active[count[active] < budget]


def _random_budget(budget, n: int) -> int:
    """A random-search budget, checked and capped at the ``n`` nodes."""
    budget = _count(budget, "budget")
    if budget > n:
        warnings.warn(f"budget {budget} exceeds node count {n}; capped")
        return n
    return budget


def _view_keys(seed) -> np.ndarray:
    """The start key of a single-view call: ``mix64(seed, _START_STREAM)``."""
    return np.array([mix64(_seed(seed), _START_STREAM)], dtype=np.uint64)


def random_search(view: LandscapeView, budget: int, seed: int) -> RunHistory:
    """Evaluate ``budget`` distinct uniform-random nodes (rejection on repeats),
    capped at the view's node count.

    Candidates are counter-based draws of the start key
    ``mix64(seed, _START_STREAM)``, so drawing past the last charged node
    changes nothing observed.
    """
    budget = _random_budget(budget, view.landscape.n)
    _random_rows(view._rows, budget, _view_keys(seed))
    return RunHistory.from_view(view)


def run_budgeted(view: LandscapeView, cfg: SearchConfig, seed: int) -> RunHistory:
    """Budgeted local search with random initialization and optional restarts.

    Draws ``cfg.num_initial`` random starts, seeds local search from the best,
    and (with ``restart_on_convergence``) keeps starting fresh runs while
    budget remains.  Restarts share the view's observation cache, so nodes
    re-encountered across runs cost nothing.  Starts are counter-based draws
    of the start key ``mix64(seed, _START_STREAM)``.
    """
    _climb(view._rows, cfg, _Starts(_view_keys(seed), view.landscape.n))
    return RunHistory.from_view(view)


def _chunk_rows(n: int, limit: int) -> int:
    """Trials per chunk whose search state fits in ``_CHUNK_BYTES``, and at
    least ``_MIN_ROWS``: per trial, a mark per node, and a log id, value and
    pool byte per charge."""
    row = n * ViewBatch.mark_type(limit).itemsize + 17 * limit
    return max(_MIN_ROWS, _CHUNK_BYTES // row)


def _run_chunk(landscape, noise, budget, cfg, root_seed, lo, hi) -> list[RunHistory]:
    """Trials ``lo`` to ``hi - 1`` in lock-step: local search under ``cfg``,
    or random search if ``cfg`` is None.  Trial i's view seed is
    ``mix64(mix64(root_seed, i), 0)`` and its start key
    ``mix64(mix64(mix64(root_seed, i), 1), _START_STREAM)``: its starts and
    random-search candidates are counter-based draws of that key, so no
    trial builds a generator.  Random search charges each round's picks
    into the batch directly (:func:`_random_rows`); local search observes
    one sweep per lock-step step."""
    trial_seeds = mix64(root_seed, np.arange(lo, hi, dtype=np.uint64))
    batch = ViewBatch(landscape, noise, mix64(trial_seeds, 0), limit=budget)
    keys = mix64(mix64(trial_seeds, 1), _START_STREAM)
    if cfg is None:
        _random_rows(batch, budget, keys)
    else:
        _climb(batch, cfg, _Starts(keys, landscape.n))
    del batch.mark  # the histories are views of the logs: free the marks first
    return [RunHistory._of(batch.log_ids[r, :c], batch.log_vals[r, :c], landscape.test_loss)
            for r, c in enumerate(batch.count.tolist())]


_WORKER: dict = {}


def _init_worker(landscape, noise) -> None:
    """Pool initializer: each worker receives the landscape and noise once."""
    _WORKER.update(landscape=landscape, noise=noise)


def _worker_chunk(args) -> list[RunHistory]:
    return _run_chunk(_WORKER["landscape"], _WORKER["noise"], *args)


def run_trials(landscape: Landscape, noise: NoiseSpec, algo: str, budget: int,
               trials: int, root_seed: int, num_initial: int = 1,
               restart: bool = True, jobs: int = 1) -> list[RunHistory]:
    """Independent seeded trials of one algorithm, merged by trial index.

    Trial i runs on its own view with seed ``mix64(mix64(root_seed, i), 0)``.
    Chunks of trials run in lock-step, and with ``jobs > 1`` the chunks are
    spread over worker processes; results are deterministic and independent
    of ``jobs`` and of the chunking.
    """
    if algo not in _ALGOS:
        raise ValueError(f"unknown algo {algo!r}; expected one of {_ALGOS}")
    trials, jobs, n = _count(trials, "trials"), _count(jobs, "jobs"), landscape.n
    root_seed = _seed(root_seed, "root_seed")
    if algo == "random":
        cfg, budget = None, _random_budget(budget, n)
    else:  # checks before any work
        cfg = SearchConfig(budget, num_initial, algo, restart)
        budget = cfg.budget
    size = _chunk_rows(n, min(budget, n))
    if jobs > 1:
        size = min(size, -(-trials // jobs))
    size = -(-trials // -(-trials // size))  # equal chunks
    bounds = [(lo, min(lo + size, trials)) for lo in range(0, trials, size)]
    args = [(budget, cfg, root_seed, lo, hi) for lo, hi in bounds]
    if jobs == 1 or len(bounds) == 1:
        parts = [_run_chunk(landscape, noise, *a) for a in args]
    else:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(jobs, len(bounds))  # a fork pool starts every worker up front
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(landscape, noise)) as pool:
            parts = list(pool.map(_worker_chunk, args))
    return [h for part in parts for h in part]
