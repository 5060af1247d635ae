"""Neighborhood graphs for discrete search spaces.

Nodes are dense integer ids ``0..n-1`` and every neighbor list is returned
in ascending id order -- the tie-breaking contract everything downstream
(successor maps, search traces) relies on.  A batch of neighbor lists is
one block whose short rows are padded with the row's own node id, which is
never its own neighbor: no mask goes with it.

Generated kinds:

* ``clique_power`` -- the Cartesian product (K_m)^d.  Nodes are length-d
  strings over m symbols in little-endian mixed radix
  (id = sum_i digit_i * m^i); two nodes are adjacent iff they differ in
  exactly one digit.  Neighbors are generated arithmetically, adjacency is
  never materialized.  ``make_complete(n)`` builds K_n as (K_n)^1.
* ``regular_tree`` -- rooted tree where the root has ``arity`` children and
  every internal non-root node has ``arity - 1`` children, so every
  internal node has degree ``arity``; leaves sit at ``depth``.  Ids are
  assigned level by level.  Neighbors come from CSR arrays built on first
  neighbor access.
* ``custom`` -- adjacency loaded from the text format described in
  :func:`load_adjacency`; input edges are symmetrized and kept as CSR
  (compressed sparse row) arrays.
"""

from __future__ import annotations

import functools
import inspect
import io
import math
import numbers

import numpy as np

from . import _HOMES

__all__ = list(_HOMES["topology"])

# ids must stay comfortably inside int64 for array indexing
_MAX_NODES = 1 << 62
# padded_neighbors refuses matrices larger than this (entries)
_MAX_DENSE_ENTRIES = 1 << 28


class TopologyError(ValueError):
    """Invalid construction parameters or malformed adjacency input."""


class Topology:
    """A finite undirected neighborhood graph.

    Immutable after construction; safe to share across threads.  Use the
    ``make_*`` constructors or :func:`load_adjacency` rather than
    instantiating directly.
    """

    def __init__(self, kind, n, degree, m=None, d=None, arity=None,
                 depth=None, indptr=None, indices=None):
        self.kind = kind
        self.n = int(n)
        self.degree = None if degree is None else int(degree)
        self.m = m
        self.d = d
        self.arity = arity
        self.depth = depth
        if indptr is not None:  # custom graphs; trees build theirs in _csr
            self._csr = _read_only(indptr, indices)

    def __reduce__(self):
        # rebuild through __init__, so unpickled CSR arrays are read-only again;
        # a tree pickles without its arrays
        csr = self._csr if self.kind == "custom" else (None, None)
        return (Topology, (self.kind, self.n, self.degree, self.m, self.d, self.arity,
                           self.depth, *csr))

    def __repr__(self):
        return f"Topology({self.to_spec()!r}, n={self.n})"

    # -- neighbor access ------------------------------------------------

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor ids of ``v`` in ascending order."""
        self._check_id(v)
        v = int(v)
        if self.kind == "clique_power":
            return self._clique_block(np.array([v], dtype=np.int64))[0]
        indptr, indices = self._csr
        return indices[indptr[v]:indptr[v + 1]]

    def neighbors_block(self, vs: np.ndarray):
        """Neighbors for a batch of nodes: one ``(len(vs), w)`` int64 block.

        Row i lists the neighbors of ``vs[i]`` in ascending order, then
        ``vs[i]`` itself as padding; the real entries of a row are the ones
        that differ from its node.  (K_m)^d rows hold the degree s; CSR rows
        are as wide as the largest degree in the batch (at least 1).
        """
        vs = np.asarray(vs)
        self._check_id(vs)
        vs = vs.astype(np.int64, copy=False)
        if self.kind == "clique_power":
            return self._clique_block(vs)
        return self._csr_block(vs)

    @functools.cached_property
    def _clique_template(self):
        """``(strides, offsets)`` of (K_m)^d, built on first use.

        Entry (p, k) of the template is the offset k * m^p, which changes
        digit p by k.  Listed as the negative k of each position from the
        highest position down, then the positive k from the lowest position
        up, the 2s offsets are already ascending.  Node v keeps the s
        entries whose digit p + k stays in [0, m): v + offset then has v's
        digits above p, and digit p is at least |k| for a negative k and
        below m - k for a positive one.
        """
        m, d = self.m, self.d
        strides = m ** np.arange(d, dtype=np.int64)
        ks = np.arange(1, m, dtype=np.int64)
        steps = ks * strides[:, None]  # (d, m-1): k * m^p for k = 1..m-1
        offsets = np.concatenate([-steps[::-1, ::-1].ravel(), steps.ravel()])
        return strides, offsets

    def _clique_block(self, vs):
        strides, offsets = self._clique_template
        m = self.m
        # digit p >= m-1, ..., 1: kept by position p's negative run, dropped by its positive run
        ge = (vs[:, None] // strides % m)[:, :, None] >= np.arange(m - 1, 0, -1)
        keep = np.concatenate([ge[:, ::-1], ~ge], axis=1).reshape(len(vs), 2 * self.degree)
        del ge  # the dels hold the peak to the output plus one mask
        out = np.broadcast_to(offsets, keep.shape)[keep].reshape(len(vs), self.degree)
        del keep
        out += vs[:, None]
        return out

    @functools.cached_property
    def _csr(self):
        """Read-only ``(indptr, indices)`` of a regular tree, built on first use.

        Node 0 is the root, nodes 1..arity its children, and each further
        internal node (ids 1..internal-1, in order) has ``arity - 1``
        consecutive children.  A row lists the parent, the lowest id, then
        the children: internal rows form an ``(internal, arity)`` block and
        a leaf row holds its parent.  Custom graphs set this in ``__init__``.
        """
        a, n = self.arity, self.n
        internal = n - a * (a - 1) ** (self.depth - 1)
        indptr = np.arange(n + 1, dtype=np.int64)
        indptr[:internal + 1] *= a
        indptr[internal + 1:] += internal * (a - 1)
        parent = np.concatenate([np.zeros(a, dtype=np.int64),  # of nodes 1..n-1
                                 np.repeat(np.arange(1, internal, dtype=np.int64), a - 1)])
        indices = np.empty(2 * (n - 1), dtype=np.int64)
        rows = indices[:internal * a].reshape(internal, a)
        rows[0] = np.arange(1, a + 1)
        rows[1:, 0] = parent[:internal - 1]
        rows[1:, 1:] = np.arange(a + 1, n).reshape(internal - 1, a - 1)
        indices[internal * a:] = parent[internal - 1:]
        return _read_only(indptr, indices)

    def _csr_block(self, vs):
        indptr, indices = self._csr
        starts = indptr[vs]
        degs = indptr[vs + 1] - starts
        width = max(int(degs.max()) if len(vs) else 0, 1)
        mask = np.arange(width) < degs[:, None]
        block = np.repeat(vs[:, None], width, axis=1)
        block[mask] = indices[(starts[:, None] + np.arange(width))[mask]]
        return block

    def padded_neighbors(self):
        """Full ``(n, max_degree)`` neighbor matrix padded with self ids.

        Pad entries sit after the real (ascending) neighbors, so a row-wise
        ``argmin`` over gathered values honors the lowest-id tie-break.
        Built on every call (nothing is cached); refused for graphs over
        ``_MAX_DENSE_ENTRIES`` entries.
        """
        maxdeg = self.max_degree()
        if self.n * max(maxdeg, 1) > _MAX_DENSE_ENTRIES:
            raise TopologyError(f"neighbor matrix with {self.n} x {maxdeg} entries is too large")
        return self.neighbors_block(np.arange(self.n, dtype=np.int64))

    # -- structure queries ----------------------------------------------

    def degree_of(self, v: int) -> int:
        self._check_id(v)
        return self.degree if self.degree is not None else len(self.neighbors(v))

    def max_degree(self) -> int:
        if self.degree is not None:
            return self.degree
        if self.kind == "regular_tree":
            return self.arity
        return int(np.diff(self._csr[0]).max())

    def diameter(self) -> int:
        """The closed form of a clique power or a tree.  A custom graph
        raises: its diameter takes one breadth-first search per node."""
        if self.kind == "clique_power":
            return self.d if self.m > 1 else 0
        if self.kind == "regular_tree":
            return 2 * self.depth
        raise TopologyError("diameter of a custom graph is not computed: it takes one "
                            "breadth-first search per node; len(shell_sizes(t, v)) - 1 "
                            "is the eccentricity of node v")

    def is_connected(self) -> bool:
        """Generated kinds are connected by construction; custom graphs run a BFS."""
        return self.kind != "custom" or sum(shell_sizes(self, 0)) == self.n

    def to_spec(self) -> str:
        if self.kind == "clique_power":
            return f"complete:{self.m}" if self.d == 1 else f"clique-power:{self.m},{self.d}"
        if self.kind == "regular_tree":
            return f"tree:{self.arity},{self.depth}"
        return f"custom:{self.n}"

    @classmethod
    def from_spec(cls, text: str) -> "Topology":
        """Parse ``clique-power:m,d`` / ``complete:n`` / ``tree:arity,depth``."""
        return _parse_spec(text, {"clique-power": (make_clique_power, int, int),
                                  "complete": (make_complete, int),
                                  "tree": (make_regular_tree, int, int)},
                           TopologyError, "topology")

    def _check_id(self, v):
        """Raise TopologyError unless ``v``, or each id of a non-empty array
        ``v``, is an integer in [0, n)."""
        if isinstance(v, np.ndarray):
            if v.size and v.dtype.kind not in "iu":
                raise self._not_an_id(v.flat[0].item())
            # ufunc reductions: ndarray.min/max cost twice as much on a small array
            if not v.size or (np.minimum.reduce(v) >= 0 and np.maximum.reduce(v) < self.n):
                return
            v = v[(v < 0) | (v >= self.n)][0]
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):  # True, 2.5, "3", None
            raise self._not_an_id(v)
        if not 0 <= v < self.n:
            raise TopologyError(f"node id {v} out of range [0, {self.n})")

    def _not_an_id(self, v) -> TopologyError:
        return TopologyError(f"node id {v!r} is not an integer in [0, {self.n})")


def _whole(value, name: str, error=ValueError) -> int:
    """``value`` as an int; ``error`` unless it is a whole number: an
    integer, or a float with an integral value of at most 2**53, up to which
    floats hold every integer.  So 2.5, NaN, 1e300 and True are rejected,
    7.0 accepted."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral)
            or isinstance(value, numbers.Real) and float(value).is_integer()
            and abs(value) <= 2**53):
        raise error(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _count(value, name: str, lo: int = 1, error=ValueError) -> int:
    """``value`` as an int; ``error`` unless it is a whole number (see
    :func:`_whole`) of at least ``lo``.  The one lower-bound check on a
    count: a size, budget, depth or number of trials."""
    value = _whole(value, name, error)
    if value < lo:
        raise error(f"{name} must be >= {lo}")
    return value


def _parse_spec(text: str, kinds: dict, error, what: str):
    """Build an object from a ``name`` or ``name:p1,p2,...`` spec.

    ``kinds`` maps each name to ``(factory, type1, type2, ...)``: parameter i
    is converted with type i and the factory is called with the results.
    Trailing parameters whose factory argument has a default may be left
    out.  An unknown name, a missing or extra parameter, a value that fails
    conversion and a ``ValueError`` of the factory raise ``error``, naming
    the spec.
    """
    name, _, params = text.partition(":")
    try:
        if name not in kinds:
            raise ValueError(f"unknown {what} {name!r}, expected one of {', '.join(kinds)}")
        factory, *types = kinds[name]
        cells = params.split(",") if params else []
        if len(cells) > len(types):
            raise ValueError(f"{name} takes at most {len(types)} parameters, "
                             f"got {len(cells)}")
        values = [kind(cell) for kind, cell in zip(types, cells)]
        try:
            inspect.signature(factory).bind(*values)
        except TypeError as exc:  # a required parameter is missing
            raise ValueError(str(exc)) from None
        return factory(*values)
    except ValueError as exc:
        raise error(f"bad {what} spec {text!r}: {exc}") from None


# -- constructors ---------------------------------------------------------


def _check_node_count(n: int, what: str) -> None:
    if n > _MAX_NODES:
        raise TopologyError(f"{what} {n} nodes, more than the {_MAX_NODES} supported")


def make_clique_power(m: int, d: int) -> Topology:
    """(K_m)^d: nodes are d-digit base-m strings, adjacent iff they differ in one digit."""
    m = _count(m, "clique power m", 2, TopologyError)
    d = _count(d, "clique power d", 1, TopologyError)
    n = m**d
    _check_node_count(n, f"clique-power:{m},{d} has")
    return Topology("clique_power", n, d * (m - 1), m=m, d=d)


def make_complete(n: int) -> Topology:
    """K_n, the clique power (K_n)^1."""
    n = _count(n, "complete graph n", 1, TopologyError)
    _check_node_count(n, f"complete:{n} has")
    return Topology("clique_power", n, n - 1, m=n, d=1)


def make_regular_tree(arity: int, depth: int) -> Topology:
    arity = _count(arity, "regular tree arity", 2, TopologyError)
    depth = _count(depth, "regular tree depth", 1, TopologyError)
    n = width = 1
    for level in range(depth):
        width *= arity if level == 0 else arity - 1
        n += width
        if n > _MAX_NODES:
            break
    _check_node_count(n, f"tree:{arity},{depth} has at least")
    return Topology("regular_tree", n, None, arity=arity, depth=depth)


def load_adjacency(source) -> Topology:
    """Load a custom topology from the adjacency text format.

    UTF-8 text; first line ``n <node_count>``, then one edge per line
    ``<u> <v>`` with 0-based ids; ``#`` starts a comment.  Directed input is
    accepted and symmetrized (documented behavior); duplicate edges are
    merged; self-loops are rejected.
    """
    if hasattr(source, "read"):
        data = source.read()
    elif isinstance(source, str) and not (
        "\n" in source or not source.strip() or source.lstrip().startswith(("n ", "#"))
    ):
        with open(source, "rb") as fh:
            data = fh.read()
    else:
        data = source
    if isinstance(data, bytes):
        data = data.decode("utf-8")

    n = None
    edges = []
    for lineno, raw in enumerate(io.StringIO(data), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "n" or len(parts) != 2:
                raise TopologyError(f"line {lineno}: expected header 'n <count>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise TopologyError(f"line {lineno}: bad node count {parts[1]!r}") from None
            if n < 1:
                raise TopologyError("empty graph: node count must be >= 1")
            _check_node_count(n, f"line {lineno}: header declares")
            continue
        if len(parts) != 2:
            raise TopologyError(f"line {lineno}: expected '<u> <v>'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise TopologyError(f"line {lineno}: non-integer node id") from None
        if not (0 <= u < n and 0 <= v < n):
            raise TopologyError(f"line {lineno}: node id out of range [0, {n})")
        if u == v:
            raise TopologyError(f"line {lineno}: self-loop {u}-{v} not allowed")
        edges.append((u, v))
        edges.append((v, u))
    if n is None:
        raise TopologyError("empty graph: missing 'n <count>' header")

    arr = np.unique(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=0)  # sorted by (u, v)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(arr[:, 0], minlength=n))])
    degs = np.diff(indptr)
    degree = int(degs[0]) if n > 0 and (degs == degs[0]).all() else None
    return Topology("custom", n, degree, indptr=indptr, indices=arr[:, 1].copy())


def _read_only(*arrays):
    for arr in arrays:
        arr.setflags(write=False)  # neighbors(v) returns views into indices
    return arrays


# -- module-level operations ----------------------------------------------


def _clique_power_levels(m: int, d: int) -> np.ndarray:
    """BFS level from node 0 of every node of (K_m)^d: its count of non-zero
    digits, as int8.  The ids in ``[m^p, m^(p+1))``, whose highest non-zero
    digit is digit p, are m - 1 rows of ``[0, m^p)`` one level further out."""
    level = np.zeros(m**d, dtype=np.int8)
    width = 1
    for _ in range(d):
        level[width:m * width].reshape(m - 1, width)[:] = level[:width] + 1
        width *= m
    return level


def _bfs_tree(t: Topology, root: int = 0):
    """Breadth-first tree from ``root``: ``(order, parent, sizes)``.

    ``order`` lists the reached nodes level by level, ascending within a
    level, and ``sizes`` holds the level sizes.  ``parent[v]`` is v's
    discoverer: its lowest-id neighbor one level up.
    """
    t._check_id(root)
    n = t.n
    parent = np.zeros(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    seen[root] = True
    levels = [np.asarray([root], dtype=np.int64)]
    while True:
        frontier = levels[-1]
        block = t.neighbors_block(frontier)
        new = ~seen[block]  # a pad is its frontier node: seen
        uniq, first = np.unique(block[new], return_index=True)
        if uniq.size == 0:
            return np.concatenate(levels), parent, np.asarray([lv.size for lv in levels])
        parent[uniq] = frontier[np.nonzero(new)[0][first]]  # rows are frontier nodes
        seen[uniq] = True
        levels.append(uniq)


def shell_sizes(t: Topology, v: int) -> list[int]:
    """[|N_0(v)|, |N_1(v)|, ...] by breadth-first search from ``v``; on
    (K_m)^d, which looks the same from every node, C(d, k) (m - 1)^k."""
    if t.kind != "clique_power":
        return _bfs_tree(t, v)[2].tolist()
    t._check_id(v)
    sizes = [math.comb(t.d, k) * (t.m - 1) ** k for k in range(t.d + 1)]
    return [s for s in sizes if s]  # complete:1 has no level 1


def branching_fraction(t: Topology, k: int, reference: int = 0) -> float:
    """b_k = |N_k(v)| / (|N_{k-1}(v)| * |N(v)|) from a reference node.

    Entry k of :func:`branching_fractions`.  Generated kinds use closed
    forms: clique powers give ``(d - k + 1) / (d k)``, so complete graphs
    (d = 1) give 1 at k=1 and 0 beyond;
    regular trees measured from the root give the idealized value 1 for
    k <= depth (each step treated as spawning degree-many new nodes).
    Custom graphs, and trees from a non-root reference, are BFS-derived.
    Any k beyond the reference's eccentricity yields 0.0.
    """
    k = _count(k, "branching fraction k")
    b = branching_fractions(t, reference)
    return float(b[k - 1]) if k <= b.size else 0.0


def _clique_power_branching(d: int) -> np.ndarray:
    """b_1..b_d of (K_m)^d: (d - k + 1) / (d k), the same for every m."""
    ks = np.arange(1, d + 1)
    return (d - ks + 1) / (d * ks)


def branching_fractions(t: Topology, reference: int = 0) -> np.ndarray:
    """b_1..b_D from ``reference`` (D = eccentricity, closed forms where defined)."""
    t._check_id(reference)
    if t.kind == "regular_tree" and reference == 0:
        return np.ones(t.depth)
    deg = t.degree_of(reference)
    if deg == 0:
        raise TopologyError(f"degree undefined at node {reference}")
    if t.kind == "clique_power":
        return _clique_power_branching(t.d)
    shells = np.asarray(shell_sizes(t, reference), dtype=float)
    return shells[1:] / (shells[:-1] * deg)
