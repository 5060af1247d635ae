import hashlib
import io
import json
import math
import pickle
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hillscape as hs
from hillscape import landscape
from hillscape.landscape import LandscapeError, _ndtr, _ndtri
from hillscape.seeding import spawn_rng
from hillscape.topology import _bfs_tree

from conftest import custom_twin, cycle_topology


def phi(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)


def Phi(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2)))


class TestSampleUniform:
    def test_support_and_determinism(self, k56):
        a = hs.sample_uniform(k56, seed=11)
        b = hs.sample_uniform(k56, seed=11)
        assert ((a.val_loss >= 0) & (a.val_loss <= 1)).all()
        assert np.array_equal(a.val_loss, b.val_loss)
        assert not np.array_equal(a.val_loss, hs.sample_uniform(k56, 12).val_loss)

    def test_mean_clt(self, k56):
        # 3 sigma/sqrt(n) ~ 0.007 around 0.5
        for seed in (0, 1, 2):
            m = hs.sample_uniform(k56, seed).val_loss.mean()
            assert 0.49 <= m <= 0.51

    def test_meta(self, k56):
        scape = hs.sample_uniform(k56, seed=3)
        assert scape.meta["generator"] == "uniform"
        assert scape.meta["seed"] == 3


class TestTruncnormPdf:
    def test_normalizes(self):
        xs = np.linspace(0, 1, 20001)
        total = np.trapezoid(hs.truncnorm_pdf(xs, 0.25, 0.18), xs)
        assert abs(total - 1.0) < 1e-8

    def test_symmetric_argmax(self):
        xs = np.linspace(0, 1, 10001)
        dens = hs.truncnorm_pdf(xs, 0.5, 0.1)
        assert xs[np.argmax(dens)] == pytest.approx(0.5, abs=1e-3)

    def test_point_value_vs_erf_oracle(self):
        v, sigma, u = 0.25, 0.18, 0.3
        z = Phi((1 - v) / sigma) - Phi((0 - v) / sigma)
        expected = phi((u - v) / sigma) / (sigma * z)
        assert hs.truncnorm_pdf(u, v, sigma) == pytest.approx(expected, rel=1e-12)

    def test_zero_outside(self):
        assert hs.truncnorm_pdf(-0.01, 0.5, 0.2) == 0.0
        assert hs.truncnorm_pdf(1.01, 0.5, 0.2) == 0.0

    def test_bad_sigma(self):
        with pytest.raises(LandscapeError):
            hs.truncnorm_pdf(0.5, 0.5, 0.0)


def _rel_err(got, want):
    return np.abs(got - want) / np.abs(want)


def _erfc_cdf(xs):
    """Phi(x) = erfc(-x / sqrt 2) / 2 from math.erfc, one float at a time."""
    return np.array([0.5 * math.erfc(-x * math.sqrt(0.5)) for x in xs])


class TestNormalCdf:
    """The numpy standard normal CDF and its inverse against oracles that
    share no code with them: math.erfc and statistics.NormalDist."""

    def test_ndtr_core_vs_erfc(self):
        xs = np.concatenate([np.linspace(-8.0, 8.0, 16001),
                             np.random.default_rng(0).uniform(-8.0, 8.0, 4000)])
        assert _rel_err(_ndtr(xs), _erfc_cdf(xs)).max() <= 2e-14

    def test_ndtr_tails_vs_erfc(self):
        # down to -37.5, where Phi is still a normal double (about 4.6e-308)
        xs = np.concatenate([np.linspace(-37.5, -8.0, 6001), np.linspace(8.0, 40.0, 641)])
        want = _erfc_cdf(xs)
        assert want.min() > 2.2250738585072014e-308
        assert _rel_err(_ndtr(xs), want).max() <= 1e-12

    def test_ndtri_vs_normal_dist(self):
        ps = np.concatenate([np.logspace(-300, -1, 3001), np.linspace(1e-6, 1 - 1e-6, 4001),
                             1.0 - np.logspace(-12, -1, 1001)])
        inv_cdf = statistics.NormalDist().inv_cdf
        want = np.array([inv_cdf(p) for p in ps])
        got = _ndtri(ps)
        zero = want == 0.0
        assert np.array_equal(got[zero], want[zero])
        assert _rel_err(got[~zero], want[~zero]).max() <= 2e-15

    @given(st.floats(1e-300, 1.0 - 1e-12))
    def test_cdf_of_quantile(self, p):
        # the slope of log Phi is about |x| <= 37, so 1e-12 covers both errors
        assert _ndtr(_ndtri(p)) == pytest.approx(p, rel=1e-12)

    @given(st.floats(-37.0, 3.0))
    def test_quantile_of_cdf(self, x):
        assert _ndtri(_ndtr(x)) == pytest.approx(x, rel=1e-12, abs=1e-12)

    def test_limits_and_non_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cdf = _ndtr(np.array([-np.inf, -1e300, 0.0, 1e300, np.inf, np.nan]))
            inv = _ndtri(np.array([0.0, 0.5, 1.0, -0.1, 1.1, np.nan]))
        assert np.array_equal(cdf, [0.0, 0.0, 0.5, 1.0, 1.0, np.nan], equal_nan=True)
        assert np.array_equal(inv, [-np.inf, 0.0, np.inf, np.nan, np.nan, np.nan],
                              equal_nan=True)

    def test_shapes_and_scalars(self):
        assert isinstance(_ndtr(0.3), np.float64) and isinstance(_ndtri(0.3), np.float64)
        assert _ndtr(np.zeros((3, 0))).shape == (3, 0)
        assert _ndtri(np.full((2, 3), 0.25)).shape == (2, 3)

    def test_slabs_match_one_value_at_a_time(self):
        # an array spanning several slabs gives each element the bits of a
        # call on that element alone
        rng = np.random.default_rng(3)
        n = 2 * landscape._SLAB + 7
        xs = rng.uniform(-12.0, 12.0, n).reshape(-1, 1)
        ps = rng.random(n)
        ps[::97] = rng.random(ps[::97].size) * 1e-20  # AS241's far tail
        picks = rng.choice(n, 300, replace=False)
        assert np.array_equal(_ndtr(xs).ravel()[picks], [_ndtr(xs[i, 0]) for i in picks])
        assert np.array_equal(_ndtri(ps)[picks], [_ndtri(ps[i]) for i in picks])

    def test_agrees_with_scipy(self):
        special = pytest.importorskip("scipy.special")
        xs = np.linspace(-8.0, 8.0, 4001)
        ps = np.concatenate([np.logspace(-300, -1, 1001), np.linspace(0.01, 0.49, 1001),
                             np.linspace(0.51, 0.99, 1001)])
        assert _rel_err(_ndtr(xs), special.ndtr(xs)).max() <= 2e-14
        assert _rel_err(_ndtri(ps), special.ndtri(ps)).max() <= 4e-15


@pytest.mark.parametrize("call", [
    lambda: hs.truncnorm_pdf(0.5, 0.25, math.nan),
    lambda: hs.truncnorm_sf(0.5, 0.25, math.nan),
    lambda: hs.sample_truncnorm(0.25, math.nan, np.random.default_rng(0), size=2),
    lambda: hs.sample_markov_truncnorm(hs.make_complete(3), math.nan, 0.25, 0.18, seed=0),
    lambda: hs.sample_markov_truncnorm(hs.make_complete(3), 0.35, 0.25, math.nan, seed=0),
], ids=["pdf", "sf", "sample", "markov-local", "markov-root"])
def test_nan_sigma_rejected(call):
    with pytest.raises(LandscapeError, match="sigma"):
        call()


class TestSampleTruncnorm:
    def test_ks_against_analytic_cdf(self):
        rng = np.random.default_rng(5)
        xs = np.sort(hs.sample_truncnorm(0.25, 0.18, rng, size=100_000))
        lo, hi = Phi((0 - 0.25) / 0.18), Phi((1 - 0.25) / 0.18)
        cdf = (np.vectorize(Phi)((xs - 0.25) / 0.18) - lo) / (hi - lo)
        emp = np.arange(1, len(xs) + 1) / len(xs)
        ks = np.max(np.abs(emp - cdf))
        assert ks < 0.02
        assert ((xs >= 0) & (xs <= 1)).all()

    def test_degenerate_concentration(self):
        rng = np.random.default_rng(0)
        x = hs.sample_truncnorm(0.5, 1e-6, rng)
        assert abs(x - 0.5) < 1e-4


def per_child_markov(t, sigma_local, root_center, root_sigma, seed):
    """sample_markov_truncnorm with both normalizing CDFs of a child's parent
    recomputed for every child."""
    order, parent, sizes = _bfs_tree(t)
    rng = np.random.default_rng(seed)
    vals = np.empty(t.n)
    vals[0] = landscape._truncnorm_ppf(rng.random(), root_center, root_sigma)
    lo = 1
    for size in sizes[1:].tolist():
        ids = order[lo:lo + size]
        vals[ids] = landscape._truncnorm_ppf(rng.random(size), vals[parent[ids]], sigma_local)
        lo += size
    return vals


class TestMarkovTruncnorm:
    def test_tiny_sigma_tracks_root(self, k56):
        scape = hs.sample_markov_truncnorm(k56, 1e-6, 0.4, 0.1, seed=2)
        root = scape.val_loss[0]
        assert np.max(np.abs(scape.val_loss - root)) < 1e-3

    def test_huge_sigma_spreads(self, k56):
        scape = hs.sample_markov_truncnorm(k56, 100.0, 0.5, 0.2, seed=2)
        assert scape.val_loss.var() > 0.05

    def test_deterministic(self, k56):
        a = hs.sample_markov_truncnorm(k56, 0.35, 0.25, 0.18, seed=9)
        b = hs.sample_markov_truncnorm(k56, 0.35, 0.25, 0.18, seed=9)
        assert np.array_equal(a.val_loss, b.val_loss)

    @pytest.mark.parametrize("center,sigma", [(9.0, 0.1), (-2.0, 0.05), (math.inf, 0.2),
                                              (math.nan, 0.2)])
    def test_root_without_mass_on_unit_interval_rejected(self, center, sigma):
        # a center of 9 at sigma 0.1 used to give the root loss 0.0
        with pytest.raises(LandscapeError, match="no normal mass"):
            hs.sample_markov_truncnorm(hs.make_complete(3), 0.35, center, sigma, seed=1)

    def test_root_far_center_with_mass_accepted(self):
        # mass Phi(-20) - Phi(-30) on [0, 1], about 2.8e-89, all of it near 1
        scape = hs.sample_markov_truncnorm(hs.make_complete(3), 0.35, 3.0, 0.1, seed=1)
        assert 0.9 < scape.val_loss[0] <= 1.0

    def test_disconnected_rejected(self):
        t = hs.load_adjacency("n 4\n0 1\n2 3\n")
        with pytest.raises(LandscapeError):
            hs.sample_markov_truncnorm(t, 0.3, 0.5, 0.2, seed=1)

    @pytest.mark.parametrize("topo", [
        lambda: hs.make_clique_power(5, 4),
        lambda: hs.Topology.from_spec("tree:3,5"),
        lambda: hs.load_adjacency("n 9\n0 1\n1 2\n2 3\n3 0\n0 4\n4 5\n5 6\n6 4\n2 7\n7 8\n"),
    ], ids=["clique-power-5-4", "tree-3-5", "custom"])
    def test_per_parent_cdfs_equal_per_child_loop(self, topo):
        t = topo()
        for sigma_local, seed in ((0.35, 0), (0.1, 5), (1e-6, 2), (100.0, 7)):
            want = per_child_markov(t, sigma_local, 0.25, 0.18, seed)
            got = hs.sample_markov_truncnorm(t, sigma_local, 0.25, 0.18, seed=seed)
            assert got.val_loss.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m,d", [(5, 3), (3, 5), (2, 7), (7, 2), (4, 1)])
    def test_clique_power_matches_custom_twin(self, m, d):
        # the closed-form BFS tree of (K_m)^d against the frontier loop: same
        # discoverers and the same draw order, so the same bits
        t = hs.make_clique_power(m, d)
        twin = custom_twin(t)
        for seed in (0, 1, 9):
            a = hs.sample_markov_truncnorm(t, 0.35, 0.25, 0.18, seed=seed)
            b = hs.sample_markov_truncnorm(twin, 0.35, 0.25, 0.18, seed=seed)
            assert a.val_loss.tobytes() == b.val_loss.tobytes()


class TestObserve:
    def test_none_is_identity(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.none(), seed=4)
        for v in (0, 99, 15624):
            assert view.observe(v) == k56_uniform.val_loss[v]

    def test_sigma_zero_equals_none(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.gaussian_frozen(0.0), seed=4)
        assert np.array_equal(view.frozen_values(), k56_uniform.val_loss)

    def test_frozen_repeat_identical(self, k56_uniform):
        for spec in (hs.NoiseSpec.gaussian_frozen(0.1), hs.NoiseSpec.uniform_replace()):
            view = hs.LandscapeView(k56_uniform, spec, seed=4)
            first = view.observe(42)
            assert view.observe(42) == first

    def test_frozen_modes_order_independent(self):
        t = hs.make_complete(40)
        scape = hs.sample_uniform(t, 1)
        specs = [hs.NoiseSpec.gaussian_frozen(0.2),
                 hs.NoiseSpec.seed_average(0.2, 3),
                 hs.NoiseSpec.uniform_replace(),
                 hs.NoiseSpec.scaled(0.05, 1.0)]
        rng = np.random.default_rng(0)
        for spec in specs:
            v1 = hs.LandscapeView(scape, spec, seed=77)
            v2 = hs.LandscapeView(scape, spec, seed=77)
            order = rng.permutation(t.n)
            got1 = {int(v): v1.observe(int(v)) for v in range(t.n)}
            got2 = {int(v): v2.observe(int(v)) for v in order}
            assert got1 == got2

    def test_seed_average_std(self):
        # sample std of observe(v) - val_loss over many views approaches sigma/sqrt(k)
        t = hs.make_complete(8)
        scape = hs.sample_uniform(t, 3)
        sigma, k = 0.3, 3
        devs = []
        for seed in range(10_000):
            view = hs.LandscapeView(scape, hs.NoiseSpec.seed_average(sigma, k), seed=seed)
            devs.append(view.observe(5) - scape.val_loss[5])
        assert np.std(devs) == pytest.approx(sigma / math.sqrt(k), rel=0.05)

    def test_seed_average_large_k_converges(self):
        t = hs.make_complete(100)
        scape = hs.sample_uniform(t, 3)
        sigma, k = 0.3, 10_000
        view = hs.LandscapeView(scape, hs.NoiseSpec.seed_average(sigma, k), seed=0)
        devs = view.frozen_values() - scape.val_loss
        assert np.max(np.abs(devs)) < 4 * sigma / math.sqrt(k)

    def test_uniform_replace_matches_uniform_generator(self):
        # same expected local-minima count as i.i.d. uniform landscapes
        t = hs.make_clique_power(3, 3)
        base = hs.sample_markov_truncnorm(t, 0.2, 0.3, 0.1, seed=0)
        counts_replace, counts_uniform = [], []
        for seed in range(200):
            view = hs.LandscapeView(base, hs.NoiseSpec.uniform_replace(), seed=seed)
            counts_replace.append(len(hs.find_local_minima(view)))
            scape = hs.sample_uniform(t, seed=seed + 10_000)
            counts_uniform.append(len(hs.find_local_minima(
                hs.LandscapeView(scape, hs.NoiseSpec.none(), seed=0))))
        a, b = np.asarray(counts_replace), np.asarray(counts_uniform)
        se = math.sqrt(a.var() / len(a) + b.var() / len(b))
        assert abs(a.mean() - b.mean()) < 3 * se

    def test_scaled_x_zero_is_denoised(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.scaled(0.1, 0.0), seed=5)
        assert np.array_equal(view.frozen_values(), k56_uniform.val_loss)

    def test_scaled_per_node_array(self):
        t = hs.make_complete(6)
        scape = hs.sample_uniform(t, 0)
        sigma_base = np.asarray([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        view = hs.LandscapeView(scape, hs.NoiseSpec.scaled(sigma_base, 0.5), seed=1)
        devs = view.frozen_values() - scape.val_loss
        assert np.array_equal(devs[:3], np.zeros(3))
        assert (devs[3:] != 0).all()

    @pytest.mark.parametrize("sigma_base", [np.ones(5), np.ones(7), np.ones((6, 1))])
    def test_scaled_per_node_array_shape_checked(self, sigma_base):
        scape = hs.sample_uniform(hs.make_complete(6), 0)
        with pytest.raises(LandscapeError, match=r"expected \(6,\)"):
            hs.LandscapeView(scape, hs.NoiseSpec.scaled(sigma_base, 1.0), seed=1)

    @pytest.mark.parametrize("k", [1, 4, 10_000])
    def test_seed_average_is_gaussian_of_sigma_over_sqrt_k(self, k):
        # the mean of k i.i.d. N(0, sigma^2) draws is exactly N(0, sigma^2 / k)
        scape = hs.sample_uniform(hs.make_complete(40), 1)
        sigma = 0.3
        assert (observed(scape, hs.NoiseSpec.seed_average(sigma, k))
                == observed(scape, hs.NoiseSpec.gaussian_frozen(sigma / math.sqrt(k))))

    def test_scalar_scaled_is_gaussian_of_x_sigma_base(self):
        scape = hs.sample_uniform(hs.make_complete(40), 1)
        for sigma_base, x in ((0.03, 2.0), (0.1, 0.7), (1.0, 0.05)):
            assert (observed(scape, hs.NoiseSpec.scaled(sigma_base, x))
                    == observed(scape, hs.NoiseSpec.gaussian_frozen(x * sigma_base)))

    @pytest.mark.parametrize("text,digest", [
        ("none", "0b4f0b6e4eb2626e89295453d7e55ce4faa13319c4fb0700de34284c8e946629"),
        ("gaussian:0.05", "ded42ddccc46c79cf0cf1f5df1f1d824b6e93548744d120cf5d82334a011e1f4"),
        ("scaled:2.0,0.03", "d87cab9650da0297e08a6e8c16a5e987955c1bcdf1fe3c47f65bccc0462e4888"),
        ("uniform-replace", "a9b31caa0ed4e945954628bb38b560a0cc6763bb79c960438715d600c3f02c0e"),
    ])
    def test_frozen_values_pinned(self, text, digest):
        # sha256 of the observation vectors before every additive mode became
        # base + scale * z
        scape = hs.sample_uniform(hs.make_clique_power(4, 3), 5)
        view = hs.LandscapeView(scape, hs.NoiseSpec.parse(text), seed=11)
        assert hashlib.sha256(view.frozen_values().tobytes()).hexdigest() == digest

    def test_budget_counter(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.gaussian_fresh(0.1), seed=6)
        for v in (1, 2, 3, 1, 2, 1):
            view.observe(v)
        assert view.query_count == 3
        assert view.observation_log() == [1, 2, 3]

    def test_fresh_cached_after_first(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.gaussian_fresh(0.5), seed=6)
        first = view.observe(10)
        assert view.observe(10) == first

    def test_fresh_has_no_frozen_vector(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.gaussian_fresh(0.5), seed=6)
        with pytest.raises(LandscapeError):
            view.frozen_values()

    def test_out_of_range(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.none(), seed=0)
        with pytest.raises(LandscapeError):
            view.observe(15625)


def observed(scape, spec, seed=3):
    """The bytes a view of ``spec`` observes for every node, in id order."""
    view = hs.LandscapeView(scape, spec, seed=seed)
    return view.observe_prefix(np.arange(scape.n))[0].tobytes()


def _observe_one_at_a_time(view, ids, budget, stop_below):
    """``observe_prefix`` as a per-node loop over ``observe``."""
    values = []
    for u in ids:
        if budget is not None and not (view.seen(u) or view.query_count < budget):
            break
        values.append(view.observe(u))
        if stop_below is not None and values[-1] < stop_below:
            break
    return np.asarray(values, dtype=float), len(values)


class TestObservePrefix:
    @pytest.mark.parametrize("noise", [hs.NoiseSpec.none(), hs.NoiseSpec.gaussian_frozen(0.1),
                                       hs.NoiseSpec.gaussian_fresh(0.1)],
                             ids=["none", "frozen", "fresh"])
    @pytest.mark.parametrize("stop_below", [None, 0.2, -1.0])
    @pytest.mark.parametrize("budget", [None, 3, 8, 60])
    def test_matches_one_at_a_time(self, k56_uniform, noise, stop_below, budget):
        rng = np.random.default_rng(3)
        batched, looped = (hs.LandscapeView(k56_uniform, noise, seed=8) for _ in range(2))
        for view in (batched, looped):
            for v in (11, 40, 12):  # seen before the sweep: free, values cached
                view.observe(v)
        for _ in range(6):
            ids = np.concatenate(([40, 11], rng.choice(np.arange(100, 300), 20, replace=False)))
            rng.shuffle(ids)
            got, k = batched.observe_prefix(ids, budget, stop_below)
            want, k_want = _observe_one_at_a_time(looped, ids.tolist(), budget, stop_below)
            assert k == k_want and got.tobytes() == want.tobytes()
            assert batched.observation_log() == looped.observation_log()
        # fresh noise: both views left their streams at the same draw
        assert batched.observe(5000) == looped.observe(5000)

    def test_budget_cut(self):
        view = hs.LandscapeView(hs.Landscape(hs.make_complete(10), np.arange(10) / 10.0))
        view.observe(6)
        view.observe(8)
        values, k = view.observe_prefix([5, 6, 7, 8], budget=3)
        assert k == 2 and values.tolist() == [0.5, 0.6]  # 7 would be the fourth charged
        assert view.observation_log() == [6, 8, 5]
        assert view.observe_prefix([6, 8], budget=3)[1] == 2  # seen ids are free
        assert view.observe_prefix([], budget=3)[1] == 0

    @pytest.mark.parametrize("ids,bad", [([3, 15625, 4], 15625), ([2, -1], -1)])
    def test_out_of_range(self, k56_uniform, ids, bad):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.none(), seed=0)
        with pytest.raises(LandscapeError, match=rf"node id {bad} out of range"):
            view.observe_prefix(ids)
        assert view.query_count == 0

    def test_generators_built_on_use(self, k56_uniform):
        frozen = hs.LandscapeView(k56_uniform, hs.NoiseSpec.gaussian_frozen(0.1), seed=2)
        assert frozen._fresh_rng is None and frozen._shuffle_rng is None
        assert (frozen.shuffle_rng.permutation(9).tolist()
                == spawn_rng(2, landscape._SHUFFLE_STREAM).permutation(9).tolist())


class TestNoiseSpec:
    def test_validation(self):
        with pytest.raises(LandscapeError):
            hs.NoiseSpec.gaussian_frozen(-0.1)
        with pytest.raises(LandscapeError):
            hs.NoiseSpec.seed_average(0.1, 0)
        with pytest.raises(LandscapeError):
            hs.NoiseSpec.scaled(0.1, -1.0)
        with pytest.raises(LandscapeError):
            hs.NoiseSpec.parse("laplace:0.1")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        for make in (hs.NoiseSpec.gaussian_frozen, hs.NoiseSpec.gaussian_fresh,
                     lambda v: hs.NoiseSpec.seed_average(v, 2),
                     lambda v: hs.NoiseSpec.scaled(0.1, v)):  # x
            with pytest.raises(LandscapeError, match="finite"):
                make(bad)
        for text in (f"gaussian:{bad}", f"seed-average:{bad},2", f"scaled:{bad}"):
            with pytest.raises(LandscapeError, match="finite"):
                hs.NoiseSpec.parse(text)

    def test_frozen_flag(self):
        assert hs.NoiseSpec.gaussian_frozen(0.1).frozen
        assert not hs.NoiseSpec.gaussian_fresh(0.1).frozen


class TestTabular:
    def test_round_trip_with_test_loss(self):
        t = hs.make_complete(4)
        text = "id,val_loss,test_loss\n0,0.5,0.6\n1,0.25,0.3\n2,0.75,0.7\n3,0.1,0.2\n"
        scape = hs.load_tabular(io.StringIO(text), t)
        assert np.array_equal(scape.val_loss, [0.5, 0.25, 0.75, 0.1])
        assert np.array_equal(scape.test_loss, [0.6, 0.3, 0.7, 0.2])

    def test_val_only(self):
        t = hs.make_complete(3)
        scape = hs.load_tabular(io.StringIO("id,val_loss\n2,0.3\n0,0.1\n1,0.2\n"), t)
        assert np.array_equal(scape.val_loss, [0.1, 0.2, 0.3])
        assert scape.test_loss is None

    def test_missing_id_rejected(self):
        t = hs.make_complete(3)
        bad = "id,val_loss\n0,0.1\n0,0.2\n2,0.3\n"
        with pytest.raises(LandscapeError, match="duplicate or missing id"):
            hs.load_tabular(io.StringIO(bad), t)

    @pytest.mark.parametrize("ids", [(0, 1, 3), (-1, 0, 1), (2, 2, 0)])
    def test_out_of_range_or_repeated_id_rejected(self, ids):
        text = "id,val_loss\n" + "".join(f"{i},0.5\n" for i in ids)
        with pytest.raises(LandscapeError, match="duplicate or missing id"):
            hs.load_tabular(io.StringIO(text), hs.make_complete(3))

    def test_row_count_mismatch(self):
        t = hs.make_complete(4)
        with pytest.raises(LandscapeError, match="rows"):
            hs.load_tabular(io.StringIO("id,val_loss\n0,0.1\n"), t)

    def test_non_finite_rejected(self):
        t = hs.make_complete(2)
        with pytest.raises(LandscapeError, match="line 2: val_loss 'nan' is not a finite"):
            hs.load_tabular(io.StringIO("id,val_loss\n0,nan\n1,0.2\n"), t)

    def test_wrong_header(self):
        t = hs.make_complete(2)
        with pytest.raises(LandscapeError, match="header"):
            hs.load_tabular(io.StringIO("node,loss\n0,0.1\n1,0.2\n"), t)


class TestPersistence:
    def test_bit_exact_round_trip(self, tmp_path):
        t = hs.make_clique_power(3, 3)
        scape = hs.sample_uniform(t, 123)
        path = str(tmp_path / "scape.csv")
        hs.save_landscape(scape, path)
        back = hs.load_landscape(path)
        assert np.array_equal(back.val_loss, scape.val_loss)
        assert back.meta == scape.meta
        assert back.topology.to_spec() == t.to_spec()

    def test_test_loss_round_trip(self, tmp_path):
        t = hs.make_complete(5)
        rng = np.random.default_rng(0)
        scape = hs.Landscape(t, rng.random(5), test_loss=rng.random(5))
        path = str(tmp_path / "s.csv")
        hs.save_landscape(scape, path)
        back = hs.load_landscape(path)
        assert np.array_equal(back.test_loss, scape.test_loss)

    def test_k56_row_count(self, tmp_path, k56_uniform):
        path = str(tmp_path / "big.csv")
        hs.save_landscape(k56_uniform, path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 15625 + 1
        assert not lines[-1].strip() == ""

    def test_bad_format_version(self, tmp_path):
        t = hs.make_complete(2)
        scape = hs.Landscape(t, np.asarray([0.1, 0.2]))
        path = str(tmp_path / "s.csv")
        hs.save_landscape(scape, path)
        meta = json.loads((tmp_path / "s.meta.json").read_text())
        meta["format"] = "hillscape-landscape/v999"
        (tmp_path / "s.meta.json").write_text(json.dumps(meta))
        with pytest.raises(LandscapeError, match="version"):
            hs.load_landscape(path)

    def test_custom_topology_needs_explicit(self, tmp_path):
        t = cycle_topology(4)
        scape = hs.Landscape(t, np.asarray([0.1, 0.5, 0.2, 0.7]))
        path = str(tmp_path / "c.csv")
        hs.save_landscape(scape, path)
        with pytest.raises(LandscapeError):
            hs.load_landscape(path)
        back = hs.load_landscape(path, topology=t)
        assert np.array_equal(back.val_loss, scape.val_loss)


class TestLandscapeValidation:
    def test_length_mismatch(self):
        with pytest.raises(LandscapeError):
            hs.Landscape(hs.make_complete(3), np.asarray([0.1, 0.2]))

    def test_non_finite(self):
        with pytest.raises(LandscapeError):
            hs.Landscape(hs.make_complete(2), np.asarray([0.1, np.inf]))

    def test_immutable(self, k56_uniform):
        with pytest.raises(ValueError):
            k56_uniform.val_loss[0] = 0.5

    def test_pickle_keeps_arrays_read_only(self):
        t = hs.load_adjacency("n 4\n0 1\n1 2\n2 3\n")
        scape = hs.Landscape(t, [0.4, 0.3, 0.2, 0.1], test_loss=[0.5, 0.6, 0.7, 0.8],
                             meta={"source": "x"})
        back = pickle.loads(pickle.dumps(scape))
        assert np.array_equal(back.val_loss, scape.val_loss)
        assert np.array_equal(back.test_loss, scape.test_loss)
        assert back.meta == scape.meta
        for arr in (back.val_loss, back.test_loss, back.topology._csr[1]):
            assert not arr.flags.writeable


def test_mix64_contract():
    # deterministic, index-sensitive, 64-bit range
    a = hs.mix64(12345, 0)
    assert a == hs.mix64(12345, 0)
    assert a != hs.mix64(12345, 1)
    assert a != hs.mix64(12346, 0)
    assert 0 <= a < 2**64
    with pytest.raises(ValueError):
        hs.mix64(1, -1)


class TestCsvReader:
    @pytest.mark.parametrize("text,message", [
        ("id,val_loss\n0,0.1\n1,0.2,0.3\n", "line 3: expected 2 cells"),
        ("id,val_loss\n0,0.1\n1\n", "line 3: expected 2 cells"),
        ("id,val_loss\n0,0.1\n1.5,0.2\n", "line 3: id '1.5' is not an integer"),
        ("id,val_loss,test_loss\n0,0.1,0.3\n1,0.2,oops\n",
         "line 3: test_loss 'oops' is not a number"),
        ("", "empty file"),
        ("\n  \n", "empty file"),
        ("id,val_loss\n0,0.1\n2.5,0.2\n", "line 3: id '2.5' is not an integer"),
        # Python's int and float read these; the CSV dialect does not
        ("id,val_loss\n0,0.1\n1,0.1_5\n", "line 3: val_loss '0.1_5' is not a number"),
        ("id,val_loss\n0,0.1\n1_0,0.2\n", "line 3: id '1_0' is not an integer"),
        ("id,val_loss\n0_2,0.1\n1,0.2\n", "line 2: id '0_2' is not an integer"),
        ("id,val_loss\n0,\u0660\n1,0.2\n", "line 2: val_loss '\u0660' is not a number"),
        ("id,val_loss\n0,0.1\n1,\uff10.\uff15\n",
         "line 3: val_loss '\uff10.\uff15' is not a number"),
        ("id,val_loss\n\uff10,0.1\n1,0.2\n", "line 2: id '\uff10' is not an integer"),
    ], ids=["long-row", "short-row", "float-id", "text-loss", "empty", "blank", "float-id-2.5",
            "underscore-loss", "underscore-id", "underscore-id-first", "arabic-indic-zero",
            "fullwidth-loss", "fullwidth-id"])
    def test_malformed_rejected(self, text, message):
        with pytest.raises(LandscapeError, match=message):
            hs.load_tabular(io.StringIO(text), hs.make_complete(2))

    def test_error_names_the_file(self, tmp_path):
        path = tmp_path / "losses.csv"
        path.write_text("id,val_loss\n0,0.1\n1,x\n")
        with pytest.raises(LandscapeError, match=r"losses\.csv: line 3"):
            hs.load_tabular(str(path), hs.make_complete(2))

    def test_blank_lines_skipped_and_lines_counted(self):
        text = "id,val_loss\n\n1,0.2\n  \n0,0.1\n\n2,zz\n"
        with pytest.raises(LandscapeError, match="line 7: val_loss 'zz'"):
            hs.load_tabular(io.StringIO(text), hs.make_complete(3))
        scape = hs.load_tabular(io.StringIO(text.replace("zz", "0.3")), hs.make_complete(3))
        assert scape.val_loss.tolist() == [0.1, 0.2, 0.3]

    def test_round_trip_bit_exact_with_test_loss(self, tmp_path):
        t = hs.make_clique_power(3, 3)
        rng = np.random.default_rng(5)
        val = rng.random(t.n) * 10.0 ** rng.integers(-300, 300, t.n)
        scape = hs.Landscape(t, val, test_loss=np.nextafter(rng.random(t.n), 1.0))
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        hs.save_landscape(scape, str(first))
        back = hs.load_landscape(str(first))
        assert back.val_loss.tobytes() == scape.val_loss.tobytes()
        assert back.test_loss.tobytes() == scape.test_loss.tobytes()
        hs.save_landscape(back, str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_bad_cell_deep_in_a_large_file_names_its_line(self):
        rows = [f"{i},{i / 25000!r}" for i in range(25000)]
        rows[19998] = "19998,0.5x"  # file line 20000
        with pytest.raises(LandscapeError, match="line 20000: val_loss '0.5x' is not a number"):
            hs.load_tabular(io.StringIO("id,val_loss\n" + "\n".join(rows) + "\n"),
                            hs.make_complete(25000))

    @pytest.mark.parametrize("cell", ["inf", "-inf", "NaN", "Infinity", "1e999"])
    def test_non_finite_cells_rejected(self, cell):
        text = f"id,val_loss\n0,0.25\n1,{cell}\n"
        with pytest.raises(LandscapeError, match=f"line 3: val_loss '{cell}' is not a finite"):
            hs.load_tabular(io.StringIO(text), hs.make_complete(2))

    @settings(max_examples=60, deadline=None)
    @given(ids=st.lists(st.integers(-2**63, 2**63 - 1).map(str) | st.sampled_from(
               ["007", "+3", "-0", " 12 ", "0"]), min_size=1, max_size=30),
           data=st.data())
    def test_bulk_equals_per_cell_oracle(self, ids, data):
        spelled = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(
            ["1e5", "-0.0", "0", ".5", "5.", "+1E-3", " 0.25", "4.9e-324", "1e-400", "007"])
        vals = data.draw(st.lists(spelled, min_size=len(ids), max_size=len(ids)))
        text = "a,b\n" + "".join(f"{i},{v}\n" for i, v in zip(ids, vals))
        table = landscape._read_csv(io.StringIO(text))
        for j, kind in ((0, int), (1, float)):
            bulk = table.column(j, kind)
            oracle = np.asarray([kind(r[j]) for r in table.rows])  # one cell at a time
            assert bulk.dtype == oracle.dtype
            assert bulk.tobytes() == oracle.tobytes()


def per_cell_csv(header, columns) -> str:
    """CSV text by the per-cell formatter: ``repr`` / ``str`` of each
    ``tolist()`` value of an array, ``_cell`` for other sequences and empty
    cells for None."""
    columns = list(columns)
    rows = max((len(c) for c in columns if c is not None), default=0)

    def text(c):
        if c is None:
            return [""] * rows
        if isinstance(c, np.ndarray) and c.dtype.kind in "iu":
            return list(map(str, c.tolist()))
        if isinstance(c, np.ndarray) and c.dtype.kind == "f":
            return list(map(repr, c.tolist()))
        return list(map(landscape._cell, c))

    return "\n".join([",".join(header), *map(",".join, zip(*map(text, columns)))]) + "\n"


_F64 = np.finfo(np.float64)
_F32 = np.finfo(np.float32)
_I64 = np.iinfo(np.int64)


class TestCsvWriter:
    @pytest.mark.parametrize("columns", [
        [np.array([0.0, -0.0, 0.0, -0.0, 1.5, -0.0])],
        [np.array([0.1, 0.1, 0.2, 0.1, 0.2, 0.30000000000000004, 0.3])],
        [np.array([5e-324, -5e-324, _F64.tiny, np.nextafter(_F64.tiny, 0), 5e-324])],
        [np.array([_F64.max, -_F64.max, 1e308, -1e308, np.nextafter(_F64.max, 0)])],
        [np.array([np.inf, -np.inf, 1.0, np.inf, np.nan, -np.nan])],
        [np.array([_F32.max, -_F32.max, _F32.tiny, 1e-45, 0.1, -0.0, 0.0, 0.1],
                  dtype=np.float32)],
        [np.array([_I64.min, _I64.max, 0, -1, _I64.min], dtype=np.int64),
         np.array([0, 2**64 - 1, 2**63, 2**64 - 1, 1], dtype=np.uint64)],
        [np.array([], dtype=np.float64), np.array([], dtype=np.int64), None],
        [np.arange(4), None, np.array([0.25, 0.5, 0.25, -0.0]), None],
        [["a", "b"], [np.int64(3), 4], [np.float32(0.1), 0.5], np.array([1.0, 1.0])],
    ], ids=["signed-zeros", "repeats", "subnormals", "near-max", "inf-nan", "float32",
            "int64-uint64", "empty", "none-columns", "sequences"])
    def test_bytes_equal_per_cell_formatter(self, tmp_path, columns):
        header = [f"c{j}" for j in range(len(columns))]
        landscape._write_csv(tmp_path / "t.csv", header, columns)
        assert (tmp_path / "t.csv").read_bytes() == per_cell_csv(header, columns).encode()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rows=st.integers(0, 40))
    def test_bytes_equal_per_cell_formatter_hypothesis(self, tmp_path_factory, data, rows):
        pool = st.sampled_from([0.0, -0.0, 0.1, 5e-324, -_F64.max, np.inf, np.nan])
        columns = [
            data.draw(arrays(np.float64, rows, elements=pool | st.floats())),
            data.draw(arrays(np.float32, rows, elements=st.floats(width=32))),
            data.draw(arrays(np.int64, rows, elements=st.integers(-3, 3) | st.integers(
                int(_I64.min), int(_I64.max)))),
            data.draw(arrays(np.uint64, rows, elements=st.integers(0, 2**64 - 1))),
            data.draw(st.sampled_from([None, np.zeros(rows, dtype=np.uint8)])),
        ]
        header = ["f64", "f32", "i64", "u64", "last"]
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        landscape._write_csv(path, header, columns)
        assert path.read_bytes() == per_cell_csv(header, columns).encode()


class TestNoiseSpecGrammar:
    @pytest.mark.parametrize("text", [
        "none:5", "uniform-replace:3", "gaussian:0.1,2", "gaussian-fresh:0.1,0.2",
        "seed-average:0.1,3,4", "scaled:1,2,3"])
    def test_extra_parameter_rejected(self, text):
        with pytest.raises(LandscapeError, match=f"bad noise spec {text!r}"):
            hs.NoiseSpec.parse(text)

    @pytest.mark.parametrize("text", ["gaussian", "gaussian-fresh:", "seed-average:0.1",
                                      "scaled", "seed-average:0.1,2.5", "gaussian:x"])
    def test_missing_or_bad_parameter_rejected(self, text):
        with pytest.raises(LandscapeError, match=f"bad noise spec {text!r}"):
            hs.NoiseSpec.parse(text)

    @pytest.mark.parametrize("text,expected", [
        ("none", hs.NoiseSpec.none()),
        ("none:", hs.NoiseSpec.none()),
        ("gaussian:0.1", hs.NoiseSpec.gaussian_frozen(0.1)),
        ("gaussian-fresh: 0.25", hs.NoiseSpec.gaussian_fresh(0.25)),
        ("seed-average:0.1,3", hs.NoiseSpec.seed_average(0.1, 3)),
        ("uniform-replace", hs.NoiseSpec.uniform_replace()),
        ("scaled:2.0", hs.NoiseSpec.scaled(1.0, 2.0)),
        ("scaled:1.0,0.02", hs.NoiseSpec.scaled(0.02, 1.0)),
    ])
    def test_accepted_spellings(self, text, expected):
        spec = hs.NoiseSpec.parse(text)
        scape = hs.sample_uniform(hs.make_complete(40), 1)
        assert spec.frozen == expected.frozen
        assert observed(scape, spec) == observed(scape, expected)
