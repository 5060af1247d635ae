import io
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hillscape as hs
from hillscape.topology import TopologyError

from conftest import clique_neighbors_oracle, custom_twin


class TestCliquePower:
    def test_k56_basic(self, k56):
        assert k56.n == 15625
        assert k56.degree == 24

    def test_smallest(self):
        t = hs.make_clique_power(2, 1)
        assert t.n == 2
        assert t.degree == 1
        assert list(t.neighbors(0)) == [1]
        assert list(t.neighbors(1)) == [0]

    def test_neighbors_match_digit_oracle(self, k56):
        for v in (0, 1, 5124, 15624, 7777):
            assert list(k56.neighbors(v)) == clique_neighbors_oracle(v, 5, 6)

    def test_shells_match_binomials(self, k56):
        expected = [math.comb(6, k) * 4**k for k in range(7)]
        assert expected == [1, 24, 240, 1280, 3840, 6144, 4096]
        for v in (0, 15624, 9311):
            assert hs.shell_sizes(k56, v) == expected

    def test_second_shell_count(self, k56):
        assert hs.shell_sizes(k56, 4242)[2] == 240

    def test_cube_shells(self):
        cube = hs.make_clique_power(2, 3)
        assert hs.shell_sizes(cube, 0) == [1, 3, 3, 1]

    def test_branching_closed_form(self, k56):
        assert hs.branching_fraction(k56, 2) == pytest.approx(5 / 12, abs=0)
        assert hs.branching_fraction(k56, 1) == 1.0
        # closed form equals the shell-derived ratio exactly
        shells = hs.shell_sizes(k56, 0)
        for k in range(1, 7):
            measured = shells[k] / (shells[k - 1] * 24)
            assert hs.branching_fraction(k56, k) == pytest.approx(measured, rel=1e-12)

    def test_diameter(self, k56):
        assert k56.diameter() == 6

    def test_overflow_guard(self):
        with pytest.raises(TopologyError):
            hs.make_clique_power(10, 100)

    def test_bad_params(self):
        with pytest.raises(TopologyError):
            hs.make_clique_power(1, 3)
        with pytest.raises(TopologyError):
            hs.make_clique_power(3, 0)


class TestComplete:
    def test_three(self):
        t = hs.make_complete(3)
        assert list(t.neighbors(1)) == [0, 2]
        assert list(t.neighbors(0)) == [1, 2]

    def test_single_node(self):
        t = hs.make_complete(1)
        assert t.n == 1
        assert list(t.neighbors(0)) == []
        assert t.diameter() == 0

    def test_25(self):
        t = hs.make_complete(25)
        assert t.degree == 24
        assert t.diameter() == 1
        assert hs.shell_sizes(t, 3) == [1, 24]

    def test_branching(self):
        t = hs.make_complete(7)
        assert hs.branching_fraction(t, 1) == 1.0
        assert hs.branching_fraction(t, 2) == 0.0

    def test_branching_degenerate_degree(self):
        with pytest.raises(TopologyError, match="degree"):
            hs.branching_fraction(hs.make_complete(1), 1)

    def test_branching_fractions_degenerate_degree(self):
        # used to return [1.] where branching_fraction raised
        with pytest.raises(TopologyError, match="degree"):
            hs.branching_fractions(hs.make_complete(1))


class TestRegularTree:
    def test_depth_one_is_path(self):
        t = hs.make_regular_tree(2, 1)
        assert t.n == 3
        assert list(t.neighbors(0)) == [1, 2]
        assert list(t.neighbors(1)) == [0]

    def test_node_count(self):
        t = hs.make_regular_tree(3, 2)
        assert t.n == 1 + 3 + 3 * 2

    def test_internal_degree_equals_arity(self):
        t = hs.make_regular_tree(4, 3)
        internal = 1 + 4 + 4 * 3  # levels 0-2; ids run level by level
        for v in range(internal):
            assert t.degree_of(v) == 4
            assert len(t.neighbors(v)) == 4
        for v in range(internal, t.n):  # the 4 * 3 * 3 leaves
            assert t.degree_of(v) == 1

    def test_huge_tree_answers_closed_forms_without_csr(self):
        t = hs.make_regular_tree(3, 40)
        assert t.n == 1 + 3 * (2**40 - 1)
        assert len(pickle.dumps(t)) < 200
        assert t.diameter() == 80
        assert t.max_degree() == 3
        assert np.array_equal(hs.branching_fractions(t), np.ones(40))
        assert hs.branching_fraction(t, 40) == 1.0
        assert "_csr" not in vars(t)  # the arrays would take about 80 TB

    def test_root_branching_is_one(self):
        t = hs.make_regular_tree(4, 3)
        for k in (1, 2, 3):
            assert hs.branching_fraction(t, k, reference=0) == 1.0
        t6 = hs.make_regular_tree(4, 6)
        assert hs.branching_fraction(t6, 3, reference=0) == 1.0

    def test_shells_from_root(self):
        t = hs.make_regular_tree(4, 3)
        assert hs.shell_sizes(t, 0) == [1, 4, 12, 36]

    def test_diameter(self):
        t = hs.make_regular_tree(3, 2)
        assert t.diameter() == 4
        # verify against eccentricities measured by BFS
        assert max(len(hs.shell_sizes(t, v)) - 1 for v in range(t.n)) == 4


@pytest.mark.parametrize("spec", ["clique-power:5,8", "complete:1", "complete:40",
                                  "tree:3,9"])
def test_generated_kinds_connected_without_bfs(spec, monkeypatch):
    def no_bfs(*args):
        raise AssertionError("is_connected ran a BFS")

    monkeypatch.setattr(hs.Topology, "neighbors_block", no_bfs)
    assert hs.Topology.from_spec(spec).is_connected()


def test_custom_connectivity_by_bfs():
    assert hs.load_adjacency("n 3\n0 1\n1 2\n").is_connected()
    assert not hs.load_adjacency("n 4\n0 1\n2 3\n").is_connected()


class TestLoadAdjacency:
    def test_four_cycle(self):
        text = "n 4\n0 1\n1 2\n2 3\n3 0\n"
        t = hs.load_adjacency(io.BytesIO(text.encode()))
        assert t.n == 4
        assert t.degree == 2
        assert list(t.neighbors(0)) == [1, 3]
        assert list(t.neighbors(2)) == [1, 3]

    def test_symmetrization(self):
        t = hs.load_adjacency("n 3\n0 1\n")
        assert list(t.neighbors(1)) == [0]
        assert list(t.neighbors(0)) == [1]

    def test_comments_and_duplicates(self):
        t = hs.load_adjacency("# hello\nn 2\n0 1  # edge\n1 0\n0 1\n")
        assert list(t.neighbors(0)) == [1]

    def test_explicit_k32_matches_generator(self):
        gen = hs.make_clique_power(3, 2)
        lines = [f"n {gen.n}"]
        for v in range(gen.n):
            for u in gen.neighbors(v):
                if v < u:
                    lines.append(f"{v} {u}")
        t = hs.load_adjacency("\n".join(lines))
        assert t.degree == gen.degree
        for v in range(gen.n):
            assert hs.shell_sizes(t, v) == hs.shell_sizes(gen, v)

    def test_adjacency_is_read_only(self):
        # neighbors(v) is a view into the CSR arrays; a write used to corrupt
        # the graph (on this path, neighbors(1) then read [2, 2])
        t = hs.load_adjacency("n 3\n0 1\n1 2\n")
        with pytest.raises(ValueError, match="read-only"):
            t.neighbors(1)[0] = 2
        assert list(t.neighbors(1)) == [0, 2]
        assert list(t.neighbors(0)) == [1]

    def test_isolated_reference_node(self):
        t = hs.load_adjacency("n 3\n0 1\n")
        with pytest.raises(TopologyError, match="degree undefined at node 2"):
            hs.branching_fractions(t, reference=2)
        with pytest.raises(TopologyError, match="degree undefined at node 2"):
            hs.branching_fraction(t, 1, reference=2)

    def test_errors(self):
        with pytest.raises(TopologyError):
            hs.load_adjacency("0 1\n")  # missing header
        with pytest.raises(TopologyError):
            hs.load_adjacency("n 2\n0 5\n")  # id out of range
        with pytest.raises(TopologyError):
            hs.load_adjacency("n 0\n")  # empty graph
        with pytest.raises(TopologyError):
            hs.load_adjacency("n 2\n1 1\n")  # self loop
        with pytest.raises(TopologyError):
            hs.load_adjacency("")


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 4), d=st.integers(1, 3), data=st.data())
def test_symmetry_property_clique(m, d, data):
    t = hs.make_clique_power(m, d)
    v = data.draw(st.integers(0, t.n - 1))
    nbrs = t.neighbors(v)
    assert list(nbrs) == sorted(set(int(u) for u in nbrs))
    assert v not in nbrs
    for u in nbrs:
        assert v in t.neighbors(int(u))


@settings(max_examples=30, deadline=None)
@given(arity=st.integers(2, 4), depth=st.integers(1, 4), data=st.data())
def test_symmetry_property_tree(arity, depth, data):
    t = hs.make_regular_tree(arity, depth)
    v = data.draw(st.integers(0, t.n - 1))
    nbrs = t.neighbors(v)
    assert list(nbrs) == sorted(set(int(u) for u in nbrs))
    for u in nbrs:
        assert v in t.neighbors(int(u))
    assert sum(hs.shell_sizes(t, v)) == t.n


def test_shells_sum_to_n(k56):
    for v in (0, 101, 15624):
        assert sum(hs.shell_sizes(k56, v)) == k56.n


def test_branching_k_validation(k56):
    with pytest.raises(ValueError):
        hs.branching_fraction(k56, 0)
    assert hs.branching_fraction(k56, 7) == 0.0  # beyond the diameter


@pytest.mark.parametrize("spec,reference", [
    ("clique-power:5,6", 0), ("clique-power:3,4", 7), ("complete:7", 3),
    ("tree:3,4", 0), ("tree:3,4", 5), ("custom", 0), ("custom", 4)])
def test_branching_fraction_indexes_branching_fractions(spec, reference):
    if spec == "custom":  # a 6-cycle with one chord
        t = hs.load_adjacency("n 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n0 3\n")
    else:
        t = hs.Topology.from_spec(spec)
    b = hs.branching_fractions(t, reference)
    for k in range(1, b.size + 3):
        expected = b[k - 1] if k <= b.size else 0.0
        assert hs.branching_fraction(t, k, reference) == expected


def test_branching_fractions_vector(k56):
    b = hs.branching_fractions(k56)
    assert b.shape == (6,)
    assert b[0] == 1.0
    assert b[1] == pytest.approx(5 / 12)


def test_spec_round_trip():
    for spec in ("clique-power:5,6", "complete:25", "tree:4,6"):
        t = hs.Topology.from_spec(spec)
        assert t.to_spec() == spec
    with pytest.raises(TopologyError):
        hs.Topology.from_spec("hypercube:3")


def test_pickle_round_trip(k56):
    t2 = pickle.loads(pickle.dumps(k56))
    assert t2.n == k56.n
    assert list(t2.neighbors(123)) == list(k56.neighbors(123))
    tree = hs.make_regular_tree(3, 3)
    tree2 = pickle.loads(pickle.dumps(tree))
    assert list(tree2.neighbors(5)) == list(tree.neighbors(5))


@pytest.mark.parametrize("spec", ["custom", "tree:3,4", "clique-power:3,3"])
def test_pickle_rebuilds_read_only(spec):
    if spec == "custom":
        t = hs.load_adjacency("n 5\n0 1\n1 2\n2 3\n3 4\n4 0\n0 2\n")
    else:
        t = hs.Topology.from_spec(spec)
    t2 = pickle.loads(pickle.dumps(t))
    assert (t2.kind, t2.n, t2.degree, t2.to_spec()) == (t.kind, t.n, t.degree, t.to_spec())
    for v in range(t.n):
        assert list(t2.neighbors(v)) == list(t.neighbors(v))
    if spec.startswith("tree"):  # built CSR arrays stay out of the pickle
        assert "_csr" in vars(t) and len(pickle.dumps(t)) < 200
    if spec == "custom":
        assert not t2._csr[0].flags.writeable
        assert not t2._csr[1].flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            t2.neighbors(0)[0] = 3


def test_node_id_validation(k56):
    with pytest.raises(TopologyError):
        k56.neighbors(15625)
    with pytest.raises(TopologyError):
        hs.shell_sizes(k56, -1)


@pytest.mark.parametrize("text", ["clique-power:5,6,2", "complete:4,1", "tree:3,4,5"])
def test_spec_extra_parameter_rejected(text):
    with pytest.raises(TopologyError, match=f"bad topology spec {text!r}"):
        hs.Topology.from_spec(text)


@pytest.mark.parametrize("text", ["clique-power:5", "complete", "tree:3,", "complete:2.5",
                                  "clique-power:1,3", "custom:4"])
def test_spec_missing_or_bad_parameter_rejected(text):
    with pytest.raises(TopologyError, match=f"bad topology spec {text!r}"):
        hs.Topology.from_spec(text)


@pytest.mark.parametrize("text,make", [
    ("clique-power:5,6", lambda: hs.make_clique_power(5, 6)),
    ("clique-power: 3, 2", lambda: hs.make_clique_power(3, 2)),
    ("complete:25", lambda: hs.make_complete(25)),
    ("tree:4,6", lambda: hs.make_regular_tree(4, 6)),
])
def test_spec_accepted_spellings(text, make):
    t, expected = hs.Topology.from_spec(text), make()
    assert (t.kind, t.n, t.degree, t.to_spec()) == (
        expected.kind, expected.n, expected.degree, expected.to_spec())


# -- one generator per kind, checked against independent oracles ---------------


def test_three_kinds():
    custom = hs.load_adjacency("n 2\n0 1\n")
    kinds = {hs.Topology.from_spec(s).kind for s in ("clique-power:3,2", "complete:4", "tree:2,2")}
    assert kinds | {custom.kind} == {"clique_power", "regular_tree", "custom"}


@pytest.mark.parametrize("m", [1, 2, 5])
def test_complete_is_clique_power_of_dimension_one(m):
    t = hs.make_complete(m)
    assert (t.kind, t.n, t.degree, t.m, t.d) == ("clique_power", m, m - 1, m, 1)
    if m > 1:
        same = hs.make_clique_power(m, 1)
        assert (same.kind, same.n, same.degree, same.to_spec()) == (
            t.kind, t.n, t.degree, f"complete:{m}")
    assert hs.Topology.from_spec(t.to_spec()).to_spec() == t.to_spec()


def test_clique_power_written_back_as_complete():
    assert hs.Topology.from_spec("clique-power:4,1").to_spec() == "complete:4"
    assert hs.Topology.from_spec("clique-power:4,2").to_spec() == "clique-power:4,2"


def test_template_not_built_by_constructor():
    # the largest complete graph the id range allows is accepted and cheap
    t = hs.make_complete(1 << 62)
    assert t.n == 1 << 62 and "_clique_template" not in vars(t)
    assert t.diameter() == 1 and t.is_connected()


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 6), d=st.integers(1, 5))
def test_clique_generators_match_digit_oracle(m, d):
    t = hs.make_clique_power(m, d)
    block, mask = t.neighbors_block(np.arange(t.n))
    assert block.shape == (t.n, t.degree) and mask.all()
    for v in range(t.n):
        expected = clique_neighbors_oracle(v, m, d)
        assert block[v].tolist() == expected
        assert t.neighbors(v).tolist() == expected
    empty_block, empty_mask = t.neighbors_block(np.zeros(0, dtype=np.int64))
    assert empty_block.shape == empty_mask.shape == (0, t.degree)


def test_single_node_complete_generators():
    t = hs.make_complete(1)
    assert t.neighbors(0).tolist() == clique_neighbors_oracle(0, 1, 1) == []
    block, mask = t.neighbors_block([0, 0])
    assert block.shape == mask.shape == (2, 0)
    assert t.neighbors_block([])[0].shape == (0, 0)


def test_clique_block_rows_in_any_order():
    t = hs.make_clique_power(4, 3)
    vs = np.asarray([63, 0, 17, 17, 42])
    block, _ = t.neighbors_block(vs)
    for row, v in zip(block, vs):
        assert row.tolist() == clique_neighbors_oracle(int(v), 4, 3)


def tree_oracle(arity, depth):
    """Neighbor lists of the regular tree, built by handing out ids level by level."""
    parent, frontier, next_id = [None], [0], 1
    children = {0: []}
    for _ in range(depth):
        level = []
        for u in frontier:
            for _ in range(arity if u == 0 else arity - 1):
                parent.append(u)
                children[u].append(next_id)
                children[next_id] = []
                level.append(next_id)
                next_id += 1
        frontier = level
    return [sorted(([] if v == 0 else [parent[v]]) + children[v]) for v in range(next_id)]


@settings(max_examples=30, deadline=None)
@given(arity=st.integers(2, 4), depth=st.integers(1, 4))
def test_tree_generators_match_parent_child_oracle(arity, depth):
    t = hs.make_regular_tree(arity, depth)
    expected = tree_oracle(arity, depth)
    assert t.n == len(expected)
    vs = np.arange(t.n)[::-1]  # an unsorted batch
    block, mask = t.neighbors_block(vs)
    assert block.shape == (t.n, arity)
    for row, keep, v in zip(block, mask, vs):
        v = int(v)
        assert row[keep].tolist() == expected[v] == t.neighbors(v).tolist()
        assert (row[~keep] == v).all()
        assert keep.tolist() == sorted(keep.tolist(), reverse=True)  # real entries first
        assert t.degree_of(v) == len(expected[v])


@pytest.mark.parametrize("text", [
    "n 6\n0 1\n0 2\n0 4\n2 3\n",      # node 5 is isolated
    "n 3\n",                          # no edges at all
    "n 5\n0 1\n1 2\n2 3\n3 4\n4 0\n",
])
def test_custom_blocks_equal_csr_slices(text):
    t = hs.load_adjacency(text)
    for vs in (np.arange(t.n), np.asarray([t.n - 1, 0, t.n - 1]), np.zeros(0, dtype=np.int64)):
        block, mask = t.neighbors_block(vs)
        assert block.shape[0] == mask.shape[0] == len(vs)
        for row, keep, v in zip(block, mask, vs):
            v = int(v)
            indptr, indices = t._csr
            csr = indices[indptr[v]:indptr[v + 1]].tolist()
            assert row[keep].tolist() == csr == t.neighbors(v).tolist()
            assert (row[~keep] == v).all()
            assert keep.sum() == len(csr) and keep[:len(csr)].all()


@pytest.mark.parametrize("spec,bad", [
    ("clique-power:5,3", [125, -1]), ("clique-power:5,3", [3, 125]), ("complete:4", [-1]),
    ("tree:2,2", [99]), ("tree:2,2", [0, 7]), ("custom", [5]), ("custom", [-2, 1])])
def test_neighbors_block_rejects_out_of_range_ids(spec, bad):
    t = hs.load_adjacency("n 5\n0 1\n1 2\n") if spec == "custom" else hs.Topology.from_spec(spec)
    first = next(v for v in bad if not 0 <= v < t.n)
    with pytest.raises(TopologyError, match=rf"node id {first} out of range \[0, {t.n}\)"):
        t.neighbors_block(np.asarray(bad))
    with pytest.raises(TopologyError, match=rf"node id {first} out of range"):
        t.neighbors(first)


class TestNodeCountBound:
    def test_clique_power(self):
        with pytest.raises(TopologyError, match=str(2**63)):
            hs.make_clique_power(2, 63)
        assert hs.make_clique_power(2, 62).n == 2**62

    def test_complete(self):
        with pytest.raises(TopologyError, match=str(2**63)):
            hs.make_complete(1 << 63)
        with pytest.raises(TopologyError, match=str(2**63)):
            hs.Topology.from_spec(f"complete:{2**63}")

    def test_tree(self):
        # depth 1 has no deeper level, which is where the bound used to be checked
        with pytest.raises(TopologyError, match=str(2**62 + 1)):
            hs.make_regular_tree(1 << 62, 1)
        with pytest.raises(TopologyError, match="nodes, more than"):
            hs.make_regular_tree(3, 100)

    def test_custom_header(self):
        with pytest.raises(TopologyError, match="line 2: header declares 99999999999999999999"):
            hs.load_adjacency("# huge\nn 99999999999999999999\n0 1\n")


def test_bfs_tree_is_the_one_bfs():
    from hillscape.topology import _bfs_tree
    t = hs.make_clique_power(3, 3)
    twin = custom_twin(t)
    closed, loop = _bfs_tree(t), _bfs_tree(twin)
    for a, b in zip(closed, loop):
        assert np.array_equal(a, b)
    for v in (0, 5, 26):
        assert hs.shell_sizes(t, v) == _bfs_tree(t, v)[2].tolist() == hs.shell_sizes(twin, v)


def _networkx_tree(nx, arity, depth):
    """The regular tree with level-order ids, built by networkx."""
    g = nx.Graph()
    g.add_node(0)
    level, next_id = [0], 1
    for _ in range(depth):
        children = []
        for v in level:
            for _ in range(arity if v == 0 else arity - 1):
                g.add_edge(v, next_id)
                children.append(next_id)
                next_id += 1
        level = children
    return g


def test_shells_diameter_connectivity_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(20260118)
    graphs = []
    for _ in range(40):
        n = int(rng.integers(1, 12))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        p = rng.uniform(0.05, 0.6)
        edges = [e for e in pairs if rng.random() < p]
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        graphs.append((hs.load_adjacency("\n".join([f"n {n}"] + [f"{u} {v}" for u, v in edges])
                                         + "\n"), g))
    for arity, depth in [(2, 1), (2, 4), (3, 3), (4, 2), (5, 3)]:
        t = hs.make_regular_tree(arity, depth)
        g = _networkx_tree(nx, arity, depth)
        for v in range(t.n):
            assert t.neighbors(v).tolist() == sorted(g.neighbors(v))
        graphs.append((t, g))
    for trial, (t, g) in enumerate(graphs):
        n = t.n
        for v in range(n):
            dist = nx.single_source_shortest_path_length(g, v)
            expected = np.bincount(list(dist.values())).tolist()
            assert hs.shell_sizes(t, v) == expected, (trial, v)
        assert t.is_connected() == nx.is_connected(g)
        if t.kind == "regular_tree":
            assert t.diameter() == nx.diameter(g)
        else:
            with pytest.raises(TopologyError, match="custom graph"):
                t.diameter()
