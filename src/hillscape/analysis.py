"""Exhaustive landscape analytics over frozen views.

Everything here is defined with respect to the deterministic successor map
``succ[v] = argmin-loss neighbor if it strictly improves, else v`` (the
full-neighborhood rule with ascending-id tie-break), so basins, preimages
and convergence statistics are reproducible functions of the view.
Fresh-noise views are rejected: their successor is not well-defined.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _HOMES
from .landscape import LandscapeError, LandscapeView, _eps_array
from .seeding import _seed, spawn_rng
from .topology import _count, _read_only, _whole

__all__ = list(_HOMES["analysis"])

_WALK_STREAM = 0xC1
# successor_map gathers neighbor blocks of about this many (row x degree)
# entries, so its memory is O(chunk * s) at any graph size
_CHUNK_ENTRIES = 1 << 18
# up to this clique size the (K_m)^d kernel takes a line minimum as m - 1
# elementwise minima of slices, not as one reduction over the axis
_SLICED_MIN_M = 16


def _index_dtype(n: int) -> type:
    """The dtype of every node-index array of an n-node graph: int32 when
    n < 2^31, int64 otherwise.

    Arrays are gathered by such an index as ``a[index]``, which casts it in
    small buffers; ``a.take(index)`` would first copy an int32 index to a
    whole int64 array.
    """
    return np.int32 if n < 2**31 else np.int64


@dataclass
class SuccessorMap:
    """One hill-climbing step for every node of a frozen view.

    ``succ``, the walk's terminals and move counts, and the predecessor
    index's ``order`` and ``starts`` hold node indices of one type,
    :func:`_index_dtype` of n: int32 below 2^31 nodes, int64 from there.
    The minima, the basin walk, the basin sizes and the predecessor index
    are derived from ``succ`` on first use and kept here, read-only, so the
    view's one cached map carries them too.
    """

    succ: np.ndarray
    values: np.ndarray
    _minima: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _walk: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _sizes: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _preds: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self):
        return len(self.succ)

    def minima(self) -> np.ndarray:
        """The fixed points of ``succ`` (the local minima), ascending, read-only."""
        if self._minima is None:
            ids = np.arange(self.n, dtype=self.succ.dtype)
            self._minima, = _read_only(np.flatnonzero(self.succ == ids))
        return self._minima

    def walk(self):
        """(terminal minimum, move count) of every start, read-only."""
        if self._walk is None:
            self._walk = _read_only(*_fixed_points_and_depth(self.succ))
        return self._walk

    def basin_sizes(self) -> np.ndarray:
        """The number of starts whose walk ends at each of :meth:`minima`, read-only."""
        if self._sizes is None:
            counts = _tally(np.zeros(self.n, dtype=np.int64), self.walk()[0])
            self._sizes, = _read_only(counts[self.minima()])
        return self._sizes

    def predecessors(self):
        """``(order, starts)``: the nodes u with ``succ[u] == v`` are
        ``order[starts[v]:starts[v + 1]]``, ascending; read-only."""
        if self._preds is None:
            starts = np.zeros(self.n + 1, dtype=_index_dtype(self.n))
            np.cumsum(_tally(starts[1:], self.succ), out=starts[1:])
            order, _ = _packed_argsort(self.succ)
            self._preds = _read_only(order, starts)
        return self._preds


def _tally(counts: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``counts`` after adding to ``counts[v]`` the number of times v occurs
    in ``ids``: one ``np.add.at``, which reads int32 ids in buffers where
    ``np.bincount`` would copy them to int64 first."""
    np.add.at(counts, ids, counts.dtype.type(1))  # a Python int 1 takes the slow loop
    return counts


@dataclass
class LandscapeStats:
    """Convergence statistics over all n starts.

    ``avg_iterations`` counts neighborhood sweeps until convergence,
    including the final sweep that certifies the minimum: a start already
    at a local minimum counts 1, a start one move away counts 2, and so on.
    ``basin_minima`` and ``basin_sizes`` are the successor map's cached,
    read-only :meth:`SuccessorMap.minima` and :meth:`SuccessorMap.basin_sizes`.
    """

    num_local_minima: int
    avg_iterations: float
    fraction_reaching_global_min: float
    basin_minima: np.ndarray
    basin_sizes: np.ndarray


def _frozen(view: LandscapeView) -> np.ndarray:
    if not view.noise.frozen:
        raise LandscapeError("analysis requires a frozen view (fresh noise rejected)")
    return view.frozen_values()


def successor_map(view: LandscapeView) -> SuccessorMap:
    """Full n-length successor map with ascending-id tie-breaking.

    Closed form on clique powers (complete graphs are (K_n)^1), where one
    ranking of the nodes by (value, id) breaks every tie; row chunks of
    ``neighbors_block`` on trees and custom graphs.  Cached on the view.
    """
    if view._successor_map is not None:
        return view._successor_map
    values = _frozen(view)
    t = view.landscape.topology
    if t.kind == "clique_power":
        succ = _clique_power_successor(values, t.m, t.d)
    else:
        succ = _chunked_successor(values, t)
    succ.setflags(write=False)
    view._successor_map = SuccessorMap(succ, values)
    return view._successor_map


def _packed_argsort(keys: np.ndarray):
    """``(order, tied)``: the ids 0..n-1 in ascending (key, id) order, as
    the index type of n = ``keys.size``, and whether two keys are equal
    (``-0.0`` equals ``0.0``).  ``keys`` are floats or ints >= 0.

    One in-place sort of int64 words orders the ids.  A word holds the key's
    order-preserving bits at the top (a float's with ``-0.0`` made ``+0.0``
    and the non-sign bits of a negative flipped; an int shifted up to bit
    62) and the id in the low ``(n - 1).bit_length()`` bits, so distinct
    high bits are in key order and equal ones in id order.  The ids are
    decoded into the index type before the words are shifted down to their
    high bits in place, so no third n-length array is live.  The high bits
    are the whole key for ints of at most 63 - bits bits (``succ`` of up
    to 2^31 nodes); otherwise only runs of equal high bits can hold distinct
    keys out of order.  Each run is in id order, so one stable argsort by
    key of the nodes in those runs puts them in (key, id) order.  Every tie
    lies in such a run, so that pass also finds the ties.
    """
    n = keys.size
    idx = _index_dtype(n)
    bits = (n - 1).bit_length()
    if keys.dtype.kind == "f":
        exact = False
        words = np.add(keys, 0.0, dtype=np.float64).view(np.int64)
        np.bitwise_xor(words, np.int64(2**63 - 1), out=words, where=words < 0)
    else:
        top = int(keys.max()).bit_length()
        exact = top + bits <= 63
        words = np.left_shift(keys, 63 - top, dtype=np.int64)
    words &= -(1 << bits)
    words |= np.arange(n, dtype=idx)
    words.sort()
    order = np.empty(n, dtype=idx)
    np.bitwise_and(words, (1 << bits) - 1, out=order, casting="unsafe")  # ids fit idx
    words >>= bits
    same = words[1:] == words[:-1]  # adjacent high bits collide
    del words
    tied = bool(same.any())
    if exact or not tied:
        return order, tied
    run = np.zeros(n, dtype=bool)  # in a run of colliding high bits
    run[1:] = same
    run[:-1] |= same
    del same
    ids = order[run]
    runs = keys[ids]
    by = np.argsort(runs, kind="stable")
    order[run] = ids.take(by)
    runs = runs.take(by)
    return order, bool((runs[1:] == runs[:-1]).any())


def _clique_power_successor(values: np.ndarray, m: int, d: int) -> np.ndarray:
    """Successor map of (K_m)^d from one minimum rank per line of the ``(m,)*d`` cube.

    The nodes are ranked once by (value, id), so that a tie goes to the
    lower id (``-0.0`` ties ``0.0``): :func:`_packed_argsort`.  The d lines
    through v hold v and all its neighbors, so the lowest rank on them
    names v's best closed-neighborhood node.  That node is v itself unless
    a neighbor is strictly lower, or, with ties, unless a lower-id neighbor
    holds v's value; v moves only to a strictly lower value.
    """
    n = values.size
    idx = _index_dtype(n)
    order, tied = _packed_argsort(values)
    cube = np.empty((m,) * d, dtype=idx)
    cube.reshape(n)[order] = np.arange(n, dtype=idx)  # each node's rank
    best = None
    for axis in range(d):
        if m <= _SLICED_MIN_M:
            # numpy reduces a short inner axis row by row; m slices are faster
            sl = (slice(None),) * axis
            low = cube[sl + (slice(0, 1),)]
            for q in range(1, m):
                low = np.minimum(low, cube[sl + (slice(q, q + 1),)])
        else:
            low = cube.min(axis=axis, keepdims=True)
        if best is None:
            best = np.broadcast_to(low, cube.shape).copy()
        else:
            np.minimum(best, low, out=best)
    del cube, low  # freed before the gather, which holds the map's peak
    succ = order[best.reshape(n)]
    if tied:
        stay = values[succ] == values  # the best is never higher than v itself
        succ[stay] = np.flatnonzero(stay)
    return succ


def _chunked_successor(values: np.ndarray, t) -> np.ndarray:
    """Successor map from ``neighbors_block`` row chunks, which bound the gather
    to O(chunk * s) memory; a tree first builds its O(n) CSR arrays.  A pad
    holds the node's own value, so it never wins the strict comparison."""
    succ = np.arange(t.n, dtype=_index_dtype(t.n))
    rows = max(1, _CHUNK_ENTRIES // max(t.max_degree(), 1))
    for lo in range(0, t.n, rows):
        ids = np.arange(lo, min(lo + rows, t.n))
        block = t.neighbors_block(ids)
        best = block[np.arange(ids.size), values[block].argmin(axis=1)]  # the lowest id on ties
        succ[lo:lo + ids.size] = np.where(values[best] < values[ids], best, ids)
    return succ


def find_local_minima(view: LandscapeView) -> np.ndarray:
    """Ids of nodes strictly below their whole neighborhood, ascending: the
    view's cached, read-only :meth:`SuccessorMap.minima`."""
    return successor_map(view).minima()


def _fixed_points_and_depth(succ: np.ndarray):
    """(terminal node, step count) for every start, by iterating the map.

    Both arrays hold :func:`_index_dtype` of n, whatever the integer type of
    ``succ``.  The first two steps run on every start; after that only the
    starts that still move are carried, so a pass costs the total descent
    length, not n times the longest descent.
    """
    idx = _index_dtype(len(succ))
    succ = succ.astype(idx, copy=False)
    term = succ[succ]
    depth = (succ != np.arange(len(succ), dtype=idx)).astype(idx)
    live = np.flatnonzero(term != succ)  # starts that make a second move
    depth[live] = 2
    cur = term.take(live)
    steps = 3
    while live.size:
        nxt = succ[cur]
        keep = np.flatnonzero(nxt != cur)
        live, cur = live.take(keep), nxt.take(keep)
        term[live] = cur
        depth[live] = steps
        steps += 1
    return term, depth


def basins(view: LandscapeView, use_base_loss_for_global: bool = False):
    """Basin assignment (node -> its minimum) and convergence statistics.

    The global minimum is the argmin of observed values; set
    ``use_base_loss_for_global`` to measure against the base landscape
    instead.
    """
    smap = successor_map(view)
    assignment, depth = smap.walk()
    minima = smap.minima()
    ref = view.landscape.val_loss if use_base_loss_for_global else smap.values
    global_node = int(np.argmin(ref))
    stats = LandscapeStats(
        num_local_minima=int(minima.size),
        avg_iterations=float(depth.mean()) + 1.0,  # moves + the certifying sweep
        fraction_reaching_global_min=float((assignment == global_node).mean()),
        basin_minima=minima,
        basin_sizes=smap.basin_sizes(),
    )
    return assignment, stats


def within_epsilon_curve(view: LandscapeView, eps_grid) -> list[tuple[float, float]]:
    """Fraction of starts whose terminal minimum lies within eps of the best."""
    eps = _eps_array(eps_grid)
    smap = successor_map(view)
    minima = smap.minima()
    gap = smap.values[minima] - smap.values.min()
    by_gap = np.argsort(gap)
    sizes = smap.basin_sizes()[by_gap]
    reached = np.concatenate([[0], np.cumsum(sizes)])  # starts in the j best basins
    counts = reached[np.searchsorted(gap[by_gap], eps, side="right")]
    return [(float(e), float(c / smap.n)) for e, c in zip(eps, counts)]


def preimage_sizes(view: LandscapeView, v: int, max_k: int):
    """([|LS^-1(v)|, ..., |LS^-max_k(v)|], |LS^-*(v)|) by reverse BFS.

    The full preimage counts every level until exhaustion (not just max_k)
    and excludes ``v`` itself.
    """
    view.landscape.topology._check_id(v)
    max_k = _count(max_k, "max_k")
    order, starts = successor_map(view).predecessors()
    per_level = []
    level = order[starts[v]:starts[v + 1]]
    level = level[level != v]
    while level.size:
        per_level.append(int(level.size))
        # concatenate the ranges order[starts[u]:starts[u + 1]] of the level's nodes
        lo, sizes = starts[level], starts[level + 1] - starts[level]
        shift = np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
        level = order[shift + np.arange(shift.size)]
    counts = per_level[:max_k] + [0] * max(0, max_k - len(per_level))
    return counts, sum(per_level)


def _clique_power_walk(t, pos: int, draws: np.ndarray) -> np.ndarray:
    """Walk on (K_m)^d: draw u picks j = int(u * s), which adds
    k = j % (m-1) + 1 (mod m) to digit p = j // (m-1).  Every neighbor is
    one (p, k) pair, so steps are uniform; each digit's path is one
    cumulative sum over the steps that change it."""
    m = t.m
    p, k = np.divmod((draws * t.degree).astype(np.int64), m - 1)
    k += 1
    walk = np.zeros(draws.size, dtype=np.int64)
    for q in range(t.d):
        stride = m**q
        walk += (pos // stride % m + np.cumsum(np.where(p == q, k, 0))) % m * stride
    return walk


def _csr_walk(t, pos: int, draws: np.ndarray) -> np.ndarray:
    """Walk on a CSR kind: draw u steps to neighbor int(u * degree) in ascending order.

    The loop runs on Python lists and floats, which cost a fraction of
    numpy's scalar lookups, with the same products."""
    indptr, indices = t._csr
    starts, degree, nbrs = indptr[:-1].tolist(), np.diff(indptr).tolist(), indices.tolist()
    walk = []
    for u in draws.tolist():
        pos = nbrs[starts[pos] + int(u * degree[pos])]
        walk.append(pos)
    return np.array(walk, dtype=np.int64)


def rwa(view: LandscapeView, walk_len: int, max_lag: int, seed: int):
    """Random-walk autocorrelation rows ``(lag, sqrt(lag), rho)``.

    Uniform-neighbor walk of ``walk_len`` steps; rho is the biased sample
    autocorrelation (lag-0 normalized, so |rho| <= 1).  The sqrt column
    follows the convention that a walk reaches mean distance sqrt(N) after
    N steps.
    """
    walk_len, max_lag = _whole(walk_len, "walk_len"), _count(max_lag, "max_lag", 0)
    if walk_len < 2 * max_lag:  # reported before the bound of walk_len
        raise ValueError("walk_len must be at least 2 * max_lag")
    walk_len = _count(walk_len, "walk_len")
    t = view.landscape.topology
    if t.n < 2 or not t.is_connected():
        raise LandscapeError("random walk requires a connected topology with at least one edge")
    rng = spawn_rng(_seed(seed), _WALK_STREAM)
    kernel = _clique_power_walk if t.kind == "clique_power" else _csr_walk
    walk = kernel(t, int(rng.integers(t.n)), rng.random(walk_len))  # start, then steps
    xs = view.frozen_values()[walk] if view.noise.frozen else view.observe_prefix(walk)[0]
    xs = xs - xs.mean()
    # einsum, not BLAS: a BLAS dot's result depends on its thread count
    c0 = float(np.einsum("i,i->", xs, xs)) / walk_len
    if c0 == 0.0:
        raise LandscapeError("constant walk values; autocorrelation undefined")
    rows = []
    for lag in range(max_lag + 1):
        ct = float(np.einsum("i,i->", xs[: walk_len - lag], xs[lag:])) / walk_len
        rows.append((lag, float(np.sqrt(lag)), ct / c0))
    return rows


def export_search_tree(view: LandscapeView, top_k: int) -> list[dict]:
    """Preimage trees of the ``top_k`` lowest-loss minima, JSON-ready.

    Each tree node is ``{"min_id", "loss", "depth", "children"}``; edges
    child -> parent correspond to one search iteration.  ``top_k`` beyond
    the number of minima is capped with a warning.
    """
    top_k = _count(top_k, "top_k")
    smap = successor_map(view)
    minima = smap.minima()
    if top_k > minima.size:
        warnings.warn(
            f"top_k={top_k} exceeds the {minima.size} local minima; exporting all"
        )
        top_k = minima.size
    ranked = minima[np.argsort(smap.values[minima], kind="stable")][:top_k]
    order, starts = smap.predecessors()

    def tree_node(v: int, depth: int) -> dict:
        return {"min_id": v, "loss": float(smap.values[v]), "depth": depth, "children": []}

    trees = [tree_node(int(v), 0) for v in ranked]
    stack = list(trees)  # explicit stack: preimage chains can be n deep
    while stack:
        node = stack.pop()
        v = node["min_id"]
        preds = order[starts[v]:starts[v + 1]]
        for u in preds[preds != v]:
            child = tree_node(int(u), node["depth"] + 1)
            node["children"].append(child)
            stack.append(child)
    return trees


def tree_to_dot(tree: dict) -> str:
    """Graphviz DOT for one exported preimage tree (edges child -> parent)."""
    lines = [f"digraph preimage_tree_{tree['min_id']} {{"]
    stack = [(tree, None)]  # depth-first, children in order, without recursion
    while stack:
        node, parent = stack.pop()
        if parent is not None:
            lines.append(f'  n{node["min_id"]} -> n{parent["min_id"]};')
        lines.append(f'  n{node["min_id"]} [label="{node["min_id"]}\\n{node["loss"]:.6f}"];')
        stack.extend((child, node) for child in reversed(node["children"]))
    lines.append("}")
    return "\n".join(lines) + "\n"


def tree_to_json(tree: dict) -> str:
    """``json.dumps(tree, indent=2, sort_keys=True)`` for one exported tree.

    Written out with an explicit stack: ``json`` recurses once per nesting
    level and fails on chains a few hundred nodes deep.
    """
    out = []
    stack = [(tree, 0)]  # items: text to emit, or (node, indent level) to expand
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, level = item
        pad, inner, kid_pad = "  " * level, "  " * (level + 1), "  " * (level + 2)
        kids = node["children"]
        out.append(f'{{\n{inner}"children": ' + ("[\n" if kids else "[]"))
        stack.append(f',\n{inner}"depth": {node["depth"]},\n{inner}"loss": '
                     f'{json.dumps(node["loss"])},\n{inner}"min_id": {node["min_id"]}\n{pad}}}')
        if kids:
            stack.append(f"\n{inner}]")
            for i in range(len(kids) - 1, -1, -1):
                stack.append((kids[i], level + 2))
                stack.append(kid_pad if i == 0 else ",\n" + kid_pad)
    return "".join(out)
