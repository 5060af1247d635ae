import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hillscape as hs
from hillscape import analysis, topology
from hillscape.landscape import LandscapeError
from hillscape.seeding import spawn_rng

from conftest import (brute_successor, clique_neighbors_oracle, custom_twin,
                      cycle_topology, frozen_view, traced_peak)


def _recursive_tree(smap, node, depth):
    """The preimage tree as the recursive exporter built it."""
    preds = [u for u in np.flatnonzero(smap.succ == node) if u != node]
    return {"min_id": node, "loss": float(smap.values[node]), "depth": depth,
            "children": [_recursive_tree(smap, int(u), depth + 1) for u in preds]}


def _recursive_dot(tree):
    lines = [f"digraph preimage_tree_{tree['min_id']} {{"]

    def walk(node):
        lines.append(f'  n{node["min_id"]} [label="{node["min_id"]}\\n{node["loss"]:.6f}"];')
        for child in node["children"]:
            lines.append(f'  n{child["min_id"]} -> n{node["min_id"]};')
            walk(child)

    walk(tree)
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.fixture
def four_cycle_view():
    return frozen_view(cycle_topology(4), [0.1, 0.5, 0.2, 0.7])


class TestSuccessorMap:
    def test_four_cycle_oracle(self, four_cycle_view):
        # brute-force oracle: N(3) = {0, 2}, argmin loss 0.1 at node 0 < 0.7
        smap = hs.successor_map(four_cycle_view)
        expected = brute_successor(cycle_topology(4), [0.1, 0.5, 0.2, 0.7])
        assert np.array_equal(expected, [0, 0, 2, 0])
        assert np.array_equal(smap.succ, expected)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_matches_brute_force(self, seed):
        t = hs.make_clique_power(3, 2)
        scape = hs.sample_uniform(t, seed)
        view = hs.LandscapeView(scape, hs.NoiseSpec.none(), seed=0)
        smap = hs.successor_map(view)
        assert np.array_equal(smap.succ, brute_successor(t, scape.val_loss))

    def test_complete_all_point_to_argmin(self):
        t = hs.make_complete(9)
        vals = np.random.default_rng(1).permutation(np.linspace(0.1, 0.9, 9))
        view = frozen_view(t, vals)
        smap = hs.successor_map(view)
        best = int(np.argmin(vals))
        for v in range(9):
            assert smap.succ[v] == (v if v == best else best)

    def test_constant_landscape_all_fixed(self):
        view = frozen_view(hs.make_clique_power(2, 3), np.full(8, 0.5))
        smap = hs.successor_map(view)
        assert np.array_equal(smap.succ, np.arange(8))

    def test_strict_decrease_where_moving(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.none(), seed=0)
        smap = hs.successor_map(view)
        moving = smap.succ != np.arange(smap.n)
        assert (smap.values[smap.succ[moving]] < smap.values[moving]).all()

    def test_fresh_noise_rejected(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.gaussian_fresh(0.1), seed=0)
        with pytest.raises(LandscapeError):
            hs.successor_map(view)

    def test_tie_breaks_to_lowest_id(self):
        # two equally-best improving neighbors: lowest id wins
        view = frozen_view(cycle_topology(4), [0.2, 0.9, 0.2, 0.9])
        smap = hs.successor_map(view)
        assert smap.succ[1] == 0  # N(1) = {0, 2} both at 0.2
        assert smap.succ[3] == 0  # N(3) = {0, 2} both at 0.2


def _irregular_graph(n=300, seed=4):
    """Random custom graph with uneven degrees and one isolated node."""
    rng = np.random.default_rng(seed)
    lines = [f"n {n}"]
    for v in range(1, n - 1):
        for u in rng.choice(v, size=min(v, int(rng.integers(1, 6))), replace=False):
            lines.append(f"{v} {u}")
    return hs.load_adjacency("\n".join(lines) + "\n")


class TestStreamedSuccessorMap:
    @pytest.mark.parametrize("kind", ["clique-power:5,6", "tree:3,8", "irregular", "complete:1"])
    def test_matches_loop_oracle(self, kind):
        t = _irregular_graph() if kind == "irregular" else hs.Topology.from_spec(kind)
        rng = np.random.default_rng(8)
        values = np.round(rng.random(t.n) * 20) / 20  # ties exercise the lowest-id rule
        view = frozen_view(t, values)
        assert view._successor_map is None
        smap = hs.successor_map(view)
        assert np.array_equal(smap.succ, brute_successor(t, values))
        assert hs.successor_map(view) is smap is view._successor_map
        if kind.startswith("clique"):  # (K_5)^6 spans more than one chunk
            assert t.n * t.degree > analysis._CHUNK_ENTRIES

    def test_runs_past_dense_cap(self, k56_uniform, monkeypatch):
        t = k56_uniform.topology
        eps = [0.0, 0.02, 0.1]
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.gaussian_frozen(0.05), seed=2)
        assignment, stats = hs.basins(view)
        curve = hs.within_epsilon_curve(view, eps)

        monkeypatch.setattr(topology, "_MAX_DENSE_ENTRIES", t.n * t.degree - 1)
        with pytest.raises(hs.TopologyError, match="too large"):
            t.padded_neighbors()
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.gaussian_frozen(0.05), seed=2)
        capped_assignment, capped_stats = hs.basins(view)
        assert np.array_equal(capped_assignment, assignment)
        assert np.array_equal(capped_stats.basin_sizes, stats.basin_sizes)
        assert hs.within_epsilon_curve(view, eps) == curve

        # rwa walks by digits on (K_m)^d and through the CSR arrays on trees:
        # no dense neighbor matrix and no per-step neighbors() call
        calls = []
        for name in ("neighbors", "padded_neighbors"):
            method = getattr(hs.Topology, name)
            monkeypatch.setattr(hs.Topology, name, lambda self, *args, _name=name, _method=method:
                                calls.append(_name) or _method(self, *args))
        tree = hs.make_regular_tree(3, 8)
        # lower the cap below the tree's matrix too, so both walks run past it
        monkeypatch.setattr(topology, "_MAX_DENSE_ENTRIES", tree.n * 3 - 1)
        for v in (view, frozen_view(tree, np.random.default_rng(1).random(tree.n))):
            rows = hs.rwa(v, walk_len=2000, max_lag=5, seed=1)
            assert rows[0][2] == pytest.approx(1.0)
            assert all(abs(r[2]) <= 1.0 for r in rows)
        assert calls == []


class TestCliquePowerKernel:
    """The ranked map of (K_m)^d against the loop oracle, the kernel it
    replaced, and the chunked gather over the same graph loaded as a custom
    topology."""

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(2, 5), d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           tied=st.booleans())
    def test_matches_oracle_and_custom_twin(self, m, d, seed, tied):
        t = hs.make_clique_power(m, d)
        values = np.random.default_rng(seed).random(t.n)
        if tied:
            values = np.round(values * 8) / 8
        succ = hs.successor_map(frozen_view(t, values)).succ
        assert np.array_equal(succ, brute_successor(t, values))
        assert np.array_equal(succ, hs.successor_map(frozen_view(custom_twin(t), values)).succ)
        assert np.array_equal(succ, reference_clique_power_successor(values, m, d))


def reference_clique_power_successor(values, m, d):
    """The (K_m)^d successor kernel before ranks, kept bit for bit: per axis a
    line minimum, its first match along the axis, and a (value, id) merge;
    returned as the index type."""
    n = values.size
    cube = values.reshape((m,) * d)
    line = np.arange(n // m, dtype=np.int64)
    best_val = best_id = None
    for p in range(d):
        axis, stride = d - 1 - p, m**p
        low = cube.min(axis=axis, keepdims=True)
        found = np.zeros(low.shape, dtype=bool)
        k = np.zeros(low.shape, dtype=np.int64)
        for q in range(m - 1):
            found |= cube[(slice(None),) * axis + (slice(q, q + 1),)] == low
            k += ~found
        ids = ((line // stride) * (stride * m) + line % stride).reshape(k.shape) + k * stride
        if best_val is None:
            best_val = np.broadcast_to(low, cube.shape).copy()
            best_id = np.broadcast_to(ids, cube.shape).copy()
            continue
        better = (low < best_val) | ((low == best_val) & (ids < best_id))
        np.minimum(best_val, low, out=best_val)
        np.copyto(best_id, ids, where=better)
    succ = best_id.reshape(n)
    stay = best_val.reshape(n) >= values
    succ[stay] = np.flatnonzero(stay)
    return succ.astype(analysis._index_dtype(n))


def reference_fixed_points_and_depth(succ):
    """The basin walk before it carried only moving starts: every start, every
    step; returned as the index type."""
    cur = succ.copy()
    depth = (cur != np.arange(len(succ))).astype(np.int64)
    while True:
        nxt = succ[cur]
        moving = nxt != cur
        if not moving.any():
            idx = analysis._index_dtype(len(succ))
            return cur.astype(idx), depth.astype(idx)
        depth[moving] += 1
        cur = nxt


def _kernel_values(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.random(n)
    if kind == "rounded":
        return np.round(rng.random(n) * 8) / 8
    if kind == "equal":
        return np.full(n, 0.25)
    if kind == "signed-zero":  # equal values
        return np.where(rng.random(n) < 0.5, -0.0, 0.0)
    if kind == "zeros-below":  # +-0.0 ties below 0.5, so a 0.5 picks the lowest-id zero
        return np.where(rng.random(n) < 0.5, 0.5, np.where(rng.random(n) < 0.5, -0.0, 0.0))
    if kind == "ulp-close":  # distinct values 3 ulps apart, shuffled over the ids
        return 0.5 + rng.permutation(n) * 3 * 2.0**-53
    if kind == "negative":
        return rng.random(n) - 0.75
    # "huge": +-1e300 plus up to 2n ulps, so with ties and ulp-close pairs
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return sign * (1e300 + rng.integers(0, 2 * n, n) * np.spacing(1e300))


def _truncated_keys_collide(values):
    """Whether two distinct values share the prefix that the ranking's packed
    words keep, above the low ``(n - 1).bit_length()`` bits of the id."""
    bits = (values.size - 1).bit_length()
    prefix = np.unique(values).view(np.int64) >> bits  # these values are positive
    return np.unique(prefix).size < prefix.size


class TestKernelsMatchReference:
    """The ranked successor kernel and the moving-start walk equal the kernels
    they replaced, element for element and dtype for dtype."""

    @pytest.mark.parametrize("kind", ["random", "rounded", "equal", "signed-zero",
                                      "zeros-below", "ulp-close", "negative", "huge"])
    # (300, 1) and (17, 2) take the axis reduction, the rest the sliced minima;
    # (1, 1) is complete:1, whose packed words have an id field of 0 bits, and
    # (300, 1) is complete:300
    @pytest.mark.parametrize("m,d", [(1, 1), (300, 1), (2, 9), (5, 6), (17, 2), (3, 1)])
    def test_successor(self, m, d, kind):
        values = _kernel_values(kind, m**d, m * 100 + d)
        if kind == "ulp-close" and values.size > 1:
            assert _truncated_keys_collide(values)
        got = analysis._clique_power_successor(values, m, d)
        want = reference_clique_power_successor(values, m, d)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("values,m,d", [([0.5, 0.0, -0.0], 3, 1),
                                            ([-0.0, 0.5, 0.0, 0.25], 2, 2)])
    def test_successor_lone_signed_zeros(self, values, m, d):
        # one 0.0 and one -0.0: the two tie only if the ranking counts -0.0 as 0.0
        values = np.array(values)
        got = analysis._clique_power_successor(values, m, d)
        assert np.array_equal(got, reference_clique_power_successor(values, m, d))

    def test_successor_traced_peak(self):
        # a noisy (K_5)^8 view, as exhaustive-k58 ranks it: the kernel that
        # ranked by argsort peaked at 9.3 MiB here
        t = hs.make_clique_power(5, 8)
        values = hs.LandscapeView(hs.sample_uniform(t, 7), hs.NoiseSpec.gaussian_frozen(0.05),
                                  seed=3).frozen_values()
        assert traced_peak(analysis._clique_power_successor, values, 5, 8) <= 9.3 * 2**20

    @pytest.mark.parametrize("make", [
        lambda: np.arange(1000),  # the identity map: every start is a minimum
        lambda: np.maximum(np.arange(1000) - 1, 0),  # one chain of 999 moves
        lambda: analysis._clique_power_successor(
            hs.LandscapeView(hs.sample_uniform(hs.make_clique_power(5, 6), 7),
                             hs.NoiseSpec.gaussian_frozen(0.05), seed=3).frozen_values(), 5, 6),
    ], ids=["identity", "chain", "k56"])
    def test_walk(self, make):
        succ = make()
        for got, want in zip(analysis._fixed_points_and_depth(succ),
                             reference_fixed_points_and_depth(succ)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestSortByKey:
    """The packed-word sort equals the stable argsort, and so does its
    ``np.lexsort`` branch for words that would not fit int64."""

    @settings(max_examples=60, deadline=None)
    @given(keys=st.lists(st.integers(0, 3), min_size=1, max_size=200), permuted=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(keys=[0], permuted=False, seed=0)  # n = 1
    @example(keys=[3] * 200, permuted=False, seed=0)  # all keys equal
    @example(keys=[0] * 200, permuted=True, seed=1)
    def test_equals_stable_argsort(self, keys, permuted, seed):
        n = len(keys)
        keys = np.minimum(np.asarray(keys, dtype=np.int64), n - 1)
        ids = np.random.default_rng(seed).permutation(n) if permuted else np.arange(n)
        by_id = np.argsort(ids)  # (key, id) order is the stable key order of the ids ascending
        want = ids[by_id][np.argsort(keys[by_id], kind="stable")]
        for pack_bits in (analysis._PACK_BITS, 0):
            with mock.patch.object(analysis, "_PACK_BITS", pack_bits):
                got = analysis._sort_by_key(keys, ids)
            assert got.dtype == analysis._index_dtype(n) and np.array_equal(got, want)


class TestIndexType:
    """Every node-index array of a successor map has one type: int32 below
    2^31 nodes, int64 from there."""

    def test_boundary_allocates_nothing(self):
        for n, want in ((2**31 - 1, np.int32), (2**31, np.int64)):
            assert analysis._index_dtype(n) is want
            assert traced_peak(analysis._index_dtype, n) < 1024  # no n-sized array

    @staticmethod
    def _arrays(view):
        smap = hs.successor_map(view)
        return (smap.succ,) + smap.walk() + smap.predecessors()

    @pytest.mark.parametrize("make", [lambda: hs.make_clique_power(5, 6),
                                      lambda: custom_twin(hs.make_clique_power(3, 4)),
                                      lambda: hs.make_regular_tree(3, 5)],
                             ids=["clique-power", "custom", "tree"])
    def test_every_array_is_int32(self, make):
        t = make()
        view = hs.LandscapeView(hs.sample_uniform(t, 5), hs.NoiseSpec.gaussian_frozen(0.05), seed=2)
        assert [a.dtype for a in self._arrays(view)] == [np.dtype(np.int32)] * 5

    @pytest.mark.parametrize("noise", [hs.NoiseSpec.none(), hs.NoiseSpec.gaussian_frozen(0.05)])
    def test_int64_equals_int32(self, k56_uniform, noise):
        # the int64 type that graphs of 2^31 nodes or more take, on (K_5)^6
        def run():
            view = hs.LandscapeView(k56_uniform, noise, seed=4)
            minimum = int(hs.find_local_minima(view)[0])
            return (self._arrays(view), hs.basins(view)[1].basin_sizes,
                    hs.preimage_sizes(view, minimum, 4), hs.export_search_tree(view, 3))

        narrow = run()
        with mock.patch.object(analysis, "_index_dtype", lambda n: np.int64):
            wide = run()
        assert [a.dtype for a in wide[0]] == [np.dtype(np.int64)] * 5
        for a, b in zip(narrow[0], wide[0]):
            assert np.array_equal(a, b)
        assert np.array_equal(narrow[1], wide[1]) and narrow[2:] == wide[2:]

    def test_successor_basins_predecessors_traced_peak(self):
        # a noisy (K_5)^8 view, as exhaustive-k58 builds it; measured at
        # 12.10 MiB, against 21.04 MiB with int64 indices
        t = hs.make_clique_power(5, 8)
        view = hs.LandscapeView(hs.sample_uniform(t, 7), hs.NoiseSpec.gaussian_frozen(0.05),
                                seed=3)
        view.frozen_values()

        def exhaustive():
            hs.basins(view)
            hs.successor_map(view).predecessors()

        assert traced_peak(exhaustive) <= 12.5 * 2**20


class TestCompleteGraphKernel:
    """Complete graphs are (K_n)^1, so the closed-form kernel serves them."""

    @pytest.mark.parametrize("tied", [False, True])
    def test_complete_300_matches_oracle_without_gather(self, tied, monkeypatch):
        def no_gather(*args):
            raise AssertionError("complete graph reached the chunked gather")

        monkeypatch.setattr(analysis, "_chunked_successor", no_gather)
        t = hs.make_complete(300)
        values = np.random.default_rng(30).random(t.n)
        if tied:
            values = np.round(values * 6) / 6
        succ = hs.successor_map(frozen_view(t, values)).succ
        assert np.array_equal(succ, brute_successor(t, values))
        # only nodes holding the lowest value have no strictly lower neighbor
        lowest = np.flatnonzero(values == values.min())
        assert np.array_equal(hs.find_local_minima(frozen_view(t, values)), lowest)

    def test_single_node(self, monkeypatch):
        monkeypatch.setattr(analysis, "_chunked_successor", None)
        assert hs.successor_map(frozen_view(hs.make_complete(1), [0.5])).succ.tolist() == [0]


def _terminals(succ):
    cur = succ
    while not np.array_equal(succ[cur], cur):
        cur = succ[cur]
    return cur


class TestOneWalkPerMap:
    def test_fixed_point_walk_runs_once(self, k56_uniform, monkeypatch):
        calls = []
        walk = analysis._fixed_points_and_depth
        monkeypatch.setattr(analysis, "_fixed_points_and_depth",
                            lambda succ: calls.append(1) or walk(succ))
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.none(), seed=0)
        assignment, _ = hs.basins(view)
        hs.within_epsilon_curve(view, [0.0, 0.05])
        hs.preimage_sizes(view, int(assignment[0]), max_k=3)
        hs.export_search_tree(view, 2)
        hs.basins(view)
        assert len(calls) == 1
        assert not assignment.flags.writeable  # the cached walk cannot be altered

    def test_minima_sizes_and_predecessors_once(self, k56_uniform, monkeypatch):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.none(), seed=0)
        smap = hs.successor_map(view)
        counts = {"sort": 0, "tally": 0}
        sort, tally = analysis._sort_by_key, analysis._tally

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(analysis, "_sort_by_key", counted("sort", sort))
        monkeypatch.setattr(analysis, "_tally", counted("tally", tally))
        minima, sizes, preds = smap.minima(), smap.basin_sizes(), smap.predecessors()
        for _ in range(2):
            _, stats = hs.basins(view)
            assert stats.basin_minima is minima and stats.basin_sizes is sizes
            assert hs.find_local_minima(view) is minima
            hs.within_epsilon_curve(view, [0.0, 0.05])
            hs.preimage_sizes(view, int(minima[0]), max_k=3)
            hs.export_search_tree(view, 2)
            assert smap.minima() is minima and smap.basin_sizes() is sizes
            assert smap.predecessors() is preds
        # one tally for the basin sizes, one for the predecessor starts
        assert counts == {"sort": 1, "tally": 2}
        for arr in (minima, sizes) + preds:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1


class TestNoSearchState:
    """Exhaustive analytics read ``frozen_values`` and leave the view without
    the search state (one-row ``ViewBatch``) that observing builds."""

    def test_exhaustive_analytics(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.gaussian_frozen(0.05), seed=3)
        assignment, _ = hs.basins(view)
        hs.within_epsilon_curve(view, [0.0, 0.05])
        hs.preimage_sizes(view, int(assignment[0]), max_k=3)
        hs.export_search_tree(view, 2)
        hs.rwa(view, 200, 5, seed=1)
        assert "_rows" not in vars(view)
        assert view.query_count == 0 and "_rows" in vars(view)  # built on first use

    def test_fresh_rwa_observes(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.gaussian_fresh(0.05), seed=3)
        hs.rwa(view, 200, 5, seed=1)
        assert view.query_count > 0


class TestMinimaAndBasins:
    def test_complete_unique_minimum(self):
        t = hs.make_complete(25)
        vals = np.random.default_rng(0).permutation(np.linspace(0.01, 0.99, 25))
        view = frozen_view(t, vals)
        assert list(hs.find_local_minima(view)) == [int(np.argmin(vals))]
        _, stats = hs.basins(view)
        assert stats.fraction_reaching_global_min == 1.0
        # one move from everywhere except the minimum, plus the certifying sweep
        assert stats.avg_iterations == pytest.approx(24 / 25 + 1.0)

    def test_basin_sizes_partition(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.none(), seed=0)
        assignment, stats = hs.basins(view)
        assert stats.basin_sizes.sum() == k56_uniform.n
        gnode = int(np.argmin(view.frozen_values()))
        idx = list(stats.basin_minima).index(gnode)
        assert stats.fraction_reaching_global_min == pytest.approx(
            stats.basin_sizes[idx] / k56_uniform.n)

    def test_assignment_agrees_with_local_search(self):
        t = hs.make_clique_power(3, 2)
        scape = hs.sample_uniform(t, 17)
        view = hs.LandscapeView(scape, hs.NoiseSpec.none(), seed=0)
        assignment, stats = hs.basins(view)
        iters = []
        for start in range(t.n):
            trace = hs.local_search(view, start, hs.SearchConfig(budget=t.n))
            assert trace.final == assignment[start]
            iters.append(trace.iterations)
        # stats count the certifying sweep on top of the accepted moves
        assert stats.avg_iterations == pytest.approx(np.mean(iters) + 1.0)

    def test_uniform_landscape_reference_stats(self, k56):
        # fully random losses on (K_5)^6: the global basin holds a fraction
        # in a wide band around the single-instance reference 0.717%, and the
        # sweep count concentrates tightly around the reference 2.56
        base = hs.sample_markov_truncnorm(k56, 0.3, 0.3, 0.15, seed=5)
        fracs, iters = [], []
        for i in range(200):
            view = hs.LandscapeView(base, hs.NoiseSpec.uniform_replace(),
                                    seed=hs.mix64(55, i))
            _, stats = hs.basins(view)
            fracs.append(stats.fraction_reaching_global_min)
            iters.append(stats.avg_iterations)
        mean_frac = float(np.mean(fracs))
        assert 0.002 <= mean_frac <= 0.015  # measured mean ~ 0.0035
        assert abs(float(np.mean(iters)) - 2.56) <= 0.05  # measured ~ 2.550

    def test_global_from_base_flag(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.uniform_replace(), seed=12)
        _, noisy = hs.basins(view, use_base_loss_for_global=False)
        _, base = hs.basins(view, use_base_loss_for_global=True)
        # base argmin is almost surely in a different basin than the observed one
        assert noisy.num_local_minima == base.num_local_minima
        assert noisy.fraction_reaching_global_min >= base.fraction_reaching_global_min


class TestWithinEpsilonCurve:
    def test_endpoints(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.none(), seed=0)
        vals = view.frozen_values()
        spread = float(vals.max() - vals.min())
        curve = hs.within_epsilon_curve(view, [0.0, spread / 2, spread])
        _, stats = hs.basins(view)
        assert curve[0][1] == pytest.approx(stats.fraction_reaching_global_min)
        assert curve[-1][1] == 1.0

    def test_monotone(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.none(), seed=0)
        fr = [f for _, f in hs.within_epsilon_curve(view, np.linspace(0, 0.2, 41))]
        assert (np.diff(fr) >= 0).all()

    @pytest.mark.parametrize("spec", ["clique-power:4,4", "tree:3,5", "complete:30"])
    def test_matches_direct_comparison(self, spec):
        t = hs.Topology.from_spec(spec)
        # losses on a 1/20 grid: gaps land exactly on eps grid points
        values = np.round(np.random.default_rng(5).random(t.n) * 20) / 20
        view = frozen_view(t, values)
        terminal = values[_terminals(hs.successor_map(view).succ)]
        eps = np.linspace(0.0, 0.5, 51)
        expected = [(float(e), float((terminal - values.min() <= e).mean())) for e in eps]
        assert hs.within_epsilon_curve(view, eps) == expected

    def test_grid_validation(self, four_cycle_view):
        with pytest.raises(ValueError):
            hs.within_epsilon_curve(four_cycle_view, [0.2, 0.1])
        with pytest.raises(ValueError):
            hs.within_epsilon_curve(four_cycle_view, [-0.1, 0.2])


class TestPreimages:
    def test_local_max_has_empty_preimages(self):
        # node 1 of the 4-cycle is above both neighbors
        view = frozen_view(cycle_topology(4), [0.1, 0.9, 0.2, 0.7])
        counts, full = hs.preimage_sizes(view, 1, max_k=3)
        assert counts == [0, 0, 0]
        assert full == 0

    @pytest.mark.parametrize("landscape", ["uniform", "markov", "fixed-points"])
    @pytest.mark.parametrize("kind", ["clique-power:5,6", "tree:3,6", "complete:40", "custom"])
    def test_predecessors_equal_stable_argsort(self, kind, landscape):
        # custom: a tree's twin, connected (for markov) with uneven degrees
        t = (custom_twin(hs.make_regular_tree(3, 5)) if kind == "custom"
             else hs.Topology.from_spec(kind))
        if landscape == "uniform":
            scape = hs.sample_uniform(t, 3)
        elif landscape == "markov":
            scape = hs.sample_markov_truncnorm(t, 0.35, 0.25, 0.18, seed=3)
        else:  # nine in ten nodes tie at the lowest value: each is a fixed point
            scape = hs.Landscape(t, (np.random.default_rng(3).random(t.n) < 0.1) * 1.0)
        smap = hs.successor_map(hs.LandscapeView(scape, hs.NoiseSpec.none()))
        if landscape == "fixed-points":
            assert smap.minima().size > t.n // 2
        order, starts = smap.predecessors()
        assert np.array_equal(order, np.argsort(smap.succ, kind="stable"))
        assert np.array_equal(np.diff(starts), np.bincount(smap.succ, minlength=t.n))

    @pytest.mark.parametrize("v,message", [
        (2.5, r"node id 2.5 is not an integer in \[0, 9\)"),
        (True, r"node id True is not an integer in \[0, 9\)"),
        (-1, r"node id -1 out of range \[0, 9\)"),
        (9, r"node id 9 out of range \[0, 9\)")])
    def test_bad_node_id_rejected(self, v, message):
        # 2.5 used to raise a bare IndexError and True to count node 1's preimages
        view = frozen_view(hs.make_clique_power(3, 2), np.arange(9) / 9)
        with pytest.raises(topology.TopologyError, match=message):
            hs.preimage_sizes(view, v, 3)

    def test_complete_argmin(self):
        t = hs.make_complete(25)
        vals = np.random.default_rng(4).permutation(np.linspace(0.01, 0.99, 25))
        view = frozen_view(t, vals)
        counts, full = hs.preimage_sizes(view, int(np.argmin(vals)), max_k=4)
        assert counts == [24, 0, 0, 0]
        assert full == 24

    def test_partition_identity(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.none(), seed=0)
        minima = hs.find_local_minima(view)
        total = 0
        for v in minima:
            _, full = hs.preimage_sizes(view, int(v), max_k=1)
            total += 1 + full
        assert total == k56_uniform.n

    def test_level_sets_match_successor_iteration(self):
        t = hs.make_clique_power(3, 2)
        scape = hs.sample_uniform(t, 23)
        view = hs.LandscapeView(scape, hs.NoiseSpec.none(), seed=0)
        smap = hs.successor_map(view)
        for v in hs.find_local_minima(view):
            counts, full = hs.preimage_sizes(view, int(v), max_k=5)
            # brute force: count nodes whose k-step image is v
            cur = np.arange(t.n)
            for k in range(1, 6):
                cur = smap.succ[cur]
                expected = int(np.sum((cur == v) & (np.arange(t.n) != v)))
                got_cum = sum(counts[:k])
                assert got_cum == expected


    @pytest.mark.parametrize("spec", ["clique-power:4,4", "tree:3,5"])
    def test_every_node_matches_successor_iteration(self, spec):
        t = hs.Topology.from_spec(spec)
        values = np.round(np.random.default_rng(2).random(t.n) * 10) / 10
        view = frozen_view(t, values)
        succ = hs.successor_map(view).succ
        others = np.arange(t.n)
        for v in range(t.n):
            counts, full = hs.preimage_sizes(view, v, max_k=4)
            images, hit, reached = others, others == v, []
            for _ in range(t.n):  # starts whose first k steps pass through v
                images = succ[images]
                hit |= images == v
                reached.append(int(np.sum(hit & (others != v))))
            levels = np.diff([0] + reached)
            assert counts == levels[:4].tolist()
            assert full == reached[-1]


def _reference_walk(t, walk_len, seed):
    """rwa's walk one step at a time: by digits on (K_m)^d, by
    ``neighbors(pos)[int(u * degree)]`` on the other kinds."""
    rng = spawn_rng(seed, analysis._WALK_STREAM)
    pos = int(rng.integers(t.n))
    walk = []
    for u in rng.random(walk_len):
        if t.kind == "clique_power":
            p, k = divmod(int(u * t.degree), t.m - 1)
            digit = pos // t.m**p % t.m
            nxt = pos + ((digit + k + 1) % t.m - digit) * t.m**p
            assert nxt in t.neighbors(pos).tolist()
        else:
            nbrs = t.neighbors(pos)
            nxt = int(nbrs[int(u * len(nbrs))])
        pos = nxt
        walk.append(pos)
    return walk


def _rho_rows(xs, max_lag):
    xs = np.asarray(xs) - np.mean(xs)
    c0 = float(np.einsum("i,i->", xs, xs)) / len(xs)
    return [(lag, float(np.sqrt(lag)),
             float(np.einsum("i,i->", xs[:len(xs) - lag], xs[lag:])) / len(xs) / c0)
            for lag in range(max_lag + 1)]


class TestRwa:
    def test_lag_zero_row(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.none(), seed=0)
        rows = hs.rwa(view, walk_len=2000, max_lag=5, seed=1)
        assert rows[0] == (0, 0.0, 1.0)
        assert len(rows) == 6
        assert rows[3][1] == pytest.approx(np.sqrt(3))

    def test_uniform_landscape_near_zero(self, k56, k56_uniform):
        # i.i.d. values: only the lag-2 revisit probability 1/s ~ 0.042 and
        # sampling noise remain, so the bound is 0.06 rather than 0.02
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.none(), seed=0)
        rows = hs.rwa(view, walk_len=100_000, max_lag=36, seed=3)
        rhos = np.asarray([r[2] for r in rows[1:]])
        assert np.max(np.abs(rhos)) < 0.06

    def test_markov_decay(self, k56):
        scape = hs.sample_markov_truncnorm(k56, 0.2, 0.25, 0.18, seed=5)
        view = hs.LandscapeView(scape, hs.NoiseSpec.none(), seed=0)
        rows = hs.rwa(view, walk_len=100_000, max_lag=16, seed=7)
        rho = {lag: r for lag, _, r in rows}
        assert rho[1] > rho[4] > rho[16]

    def test_fresh_noise_matches_per_step_observe(self):
        # the walk is observed in one view call; per-step observation charges
        # and draws for the same nodes in the same order
        t = hs.make_clique_power(4, 3)
        scape = hs.sample_uniform(t, 2)
        noise = hs.NoiseSpec.gaussian_fresh(0.1)
        view = hs.LandscapeView(scape, noise, seed=3)
        rows = hs.rwa(view, walk_len=400, max_lag=6, seed=5)
        ref = hs.LandscapeView(scape, noise, seed=3)
        xs = [ref.observe(v) for v in _reference_walk(t, 400, seed=5)]
        assert view.observation_log() == ref.observation_log()
        assert rows == _rho_rows(xs, 6)

    @pytest.mark.parametrize("spec", ["clique-power:4,3", "clique-power:2,6", "complete:2",
                                      "complete:7", "tree:3,4", "tree:2,6", "custom"])
    def test_walk_matches_per_step_reference(self, spec):
        # (K_m)^d walks change one digit per step; tree and custom walks take
        # neighbors(pos)[int(u * degree)], so their rows are byte-identical
        # to those of the dense-matrix walk that preceded the CSR kernel
        if spec == "custom":  # each node links to 1-3 lower ids: connected, uneven degrees
            rng = np.random.default_rng(2)
            t = hs.load_adjacency("n 80\n" + "".join(
                f"{v} {u}\n" for v in range(1, 80)
                for u in rng.choice(v, size=min(v, int(rng.integers(1, 4))), replace=False)))
            assert len(set(np.diff(t._csr[0]).tolist())) > 3
        else:
            t = hs.Topology.from_spec(spec)
        values = np.random.default_rng(4).random(t.n)
        walk = _reference_walk(t, 3000, seed=11)
        rng = spawn_rng(11, analysis._WALK_STREAM)
        pos = int(rng.integers(t.n))
        kernel = analysis._clique_power_walk if t.kind == "clique_power" else analysis._csr_walk
        assert kernel(t, pos, rng.random(3000)).tolist() == walk
        assert hs.rwa(frozen_view(t, values), walk_len=3000, max_lag=9, seed=11) == \
            _rho_rows(values[walk], 9)

    @pytest.mark.parametrize("spec", ["tree:3,6", "custom"])
    def test_csr_walk_matches_numpy_scalar_loop(self, spec):
        # the list-based loop against the loop of numpy scalar lookups that it
        # replaced, on the same draws, the extremes 0 and 1 - 2^-53 included
        if spec == "custom":  # a path with random chords: degrees 1 to 8
            rng = np.random.default_rng(6)
            edges = {(v, v + 1) for v in range(199)}
            edges |= {tuple(sorted(e)) for e in rng.integers(200, size=(150, 2)).tolist()
                      if e[0] != e[1]}
            t = hs.load_adjacency("n 200\n" + "".join(f"{a} {b}\n" for a, b in sorted(edges)))
            assert len(set(np.diff(t._csr[0]).tolist())) > 4
        else:
            t = hs.Topology.from_spec(spec)
        draws = np.random.default_rng(8).random(20_000)
        draws[::97] = 0.0
        draws[::89] = 1.0 - 2.0 ** -53

        def numpy_scalar_walk(pos):
            indptr, indices = t._csr
            walk = np.empty(draws.size, dtype=np.int64)
            for i, u in enumerate(draws):
                lo = indptr[pos]
                pos = indices[lo + int(u * (indptr[pos + 1] - lo))]
                walk[i] = pos
            return walk

        for pos in (0, t.n - 1):
            got = analysis._csr_walk(t, pos, draws)
            assert got.dtype == np.int64
            assert got.tobytes() == numpy_scalar_walk(pos).tobytes()

    def test_clique_walk_is_uniform_over_neighbors(self):
        # (K_3)^2: from every node, each of its 4 neighbors takes about 1/4 of the steps
        t = hs.make_clique_power(3, 2)
        walk = analysis._clique_power_walk(t, 0, np.random.default_rng(0).random(40_000))
        prev = np.concatenate([[0], walk[:-1]])
        for v in range(t.n):
            nxt = walk[prev == v]
            assert set(nxt.tolist()) == set(clique_neighbors_oracle(v, 3, 2))
            share = np.bincount(nxt, minlength=t.n)[t.neighbors(v)] / nxt.size
            assert np.abs(share - 0.25).max() < 0.03

    def test_markov_sigma035_structure(self, k56):
        # correlated at short range, near zero past sqrt(t) ~ 3.5 (t ~ 12)
        scape = hs.sample_markov_truncnorm(k56, 0.35, 0.25, 0.18, seed=5)
        view = hs.LandscapeView(scape, hs.NoiseSpec.none(), seed=0)
        rows = hs.rwa(view, walk_len=100_000, max_lag=36, seed=7)
        rho = np.asarray([r[2] for r in rows])
        assert rho[1] > 0.05
        assert np.max(np.abs(rho[13:])) < 0.05

    def test_walk_len_validation(self, four_cycle_view):
        with pytest.raises(ValueError):
            hs.rwa(four_cycle_view, walk_len=10, max_lag=6, seed=0)
        # a zero-length walk used to divide by zero
        with pytest.raises(ValueError, match="walk_len must be >= 1"):
            hs.rwa(four_cycle_view, walk_len=0, max_lag=0, seed=0)

    @pytest.mark.parametrize("t", [hs.make_complete(1), hs.load_adjacency("n 1\n")],
                             ids=["complete-1", "custom-1"])
    def test_edgeless_rejected(self, t):
        # complete:1 used to raise IndexError from the empty neighbor row
        with pytest.raises(LandscapeError, match="at least one edge"):
            hs.rwa(frozen_view(t, [0.5]), walk_len=10, max_lag=2, seed=0)

    def test_disconnected_rejected(self):
        t = hs.load_adjacency("n 4\n0 1\n2 3\n")
        view = frozen_view(t, [0.1, 0.2, 0.3, 0.4])
        with pytest.raises(LandscapeError):
            hs.rwa(view, walk_len=100, max_lag=2, seed=0)


class TestSearchTreeExport:
    def test_complete_star(self):
        t = hs.make_complete(5)
        vals = np.asarray([0.1, 0.5, 0.4, 0.3, 0.2])
        view = frozen_view(t, vals)
        trees = hs.export_search_tree(view, top_k=1)
        assert len(trees) == 1
        root = trees[0]
        assert root["min_id"] == 0
        assert root["depth"] == 0
        assert len(root["children"]) == 4
        assert all(not c["children"] for c in root["children"])
        assert all(c["depth"] == 1 for c in root["children"])

    def test_cap_with_warning(self):
        t = hs.make_complete(5)
        view = frozen_view(t, [0.1, 0.5, 0.4, 0.3, 0.2])
        with pytest.warns(UserWarning, match="exceeds"):
            trees = hs.export_search_tree(view, top_k=10)
        assert len(trees) == 1

    def test_total_node_count(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.none(), seed=0)
        minima = hs.find_local_minima(view)

        def count(node):
            return 1 + sum(count(c) for c in node["children"])

        trees = hs.export_search_tree(view, top_k=len(minima))
        assert sum(count(tr) for tr in trees) == k56_uniform.n
        some = hs.export_search_tree(view, top_k=6)
        assert len(some) == 6
        assert sum(count(tr) for tr in some) <= k56_uniform.n

    def test_path_graph_without_recursion_limit(self):
        # a 3000-node path with losses rising along it is one preimage chain
        # 2999 levels deep; the recursive exporters raised RecursionError
        n = 3000
        t = hs.load_adjacency(f"n {n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
        view = frozen_view(t, np.arange(n) / n)
        (tree,) = hs.export_search_tree(view, top_k=1)
        node, depth = tree, 0
        while node["children"]:
            (node,) = node["children"]
            depth += 1
            assert node["min_id"] == depth and node["depth"] == depth
        assert depth == n - 1
        dot = hs.tree_to_dot(tree)
        assert dot.count("->") == n - 1
        assert f"  n{n - 1} -> n{n - 2};" in dot
        text = hs.tree_to_json(tree)
        assert text.count('"min_id"') == n
        assert text.endswith("\n}")

    @pytest.mark.parametrize("spec,noise", [
        ("clique-power:4,3", "none"), ("tree:3,4", "gaussian:0.2"),
        ("complete:12", "none"), ("clique-power:2,6", "uniform-replace")])
    def test_exports_match_recursive_reference(self, spec, noise):
        t = hs.Topology.from_spec(spec)
        scape = hs.Landscape(t, np.random.default_rng(3).random(t.n))
        view = hs.LandscapeView(scape, hs.NoiseSpec.parse(noise), seed=5)
        minima = hs.find_local_minima(view)
        smap = hs.successor_map(view)
        trees = hs.export_search_tree(view, top_k=len(minima))
        assert trees == [_recursive_tree(smap, int(v), 0)
                         for v in minima[np.argsort(smap.values[minima], kind="stable")]]
        for tree in trees:
            assert hs.tree_to_dot(tree) == _recursive_dot(tree)
            assert hs.tree_to_json(tree) == json.dumps(tree, indent=2, sort_keys=True)

    def test_dot_output(self):
        t = hs.make_complete(4)
        view = frozen_view(t, [0.1, 0.5, 0.4, 0.3])
        tree = hs.export_search_tree(view, top_k=1)[0]
        dot = hs.tree_to_dot(tree)
        assert dot.startswith("digraph")
        assert "n1 -> n0;" in dot
        assert dot.count("->") == 3
