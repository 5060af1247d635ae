import contextlib
import hashlib
import io
import json
import math
import pickle
import re
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

    @pytest.mark.parametrize("f", [_ndtr, _ndtri], ids=["ndtr", "ndtri"])
    def test_one_slab_and_slab_loop_match_each_element(self, f):
        # an input within one _SLAB takes one kernel call, with no copy, and a
        # longer one the slab loop; both give every element the bits of a 0-d call
        rng = np.random.default_rng(21)
        n = landscape._SLAB + 1
        if f is _ndtr:
            a = rng.uniform(-12.0, 12.0, n)  # |x| >= 8 takes erfc's far branch
        else:
            a = rng.random(n)
            a[::97] *= 1e-20  # AS241's far tail
        want = np.array([f(x) for x in a])

        def bits(v):
            return np.asarray(v, dtype=float).view(np.uint64)

        for x, w in ((a[3], want[3]), (a[:0], want[:0]), (a[:1], want[:1]),
                     (a[:-1], want[:-1]), (a, want),
                     (a[:-1].reshape(128, -1), want[:-1].reshape(128, -1)),
                     (a.reshape(5, -1), want.reshape(5, -1))):
            got = f(x)
            assert np.shape(got) == np.shape(w)
            assert np.array_equal(bits(got), bits(w))
        assert isinstance(f(a[3]), np.float64)

    def test_bits_pinned_across_branches_and_slabs(self):
        # sha256 of _ndtri and _ndtr over inputs spanning three slabs, taken
        # before the kernels gathered their tails by flat index.  _ndtri:
        # hashed uniforms (central and tail), exp(-k) and 1 - exp(-k) for k
        # up to 700 and 36 (tail and far tail on both sides), and the edge
        # values.  _ndtr: |x / sqrt 2| below 1, from 1 to 8 and from 8 to 48
        # (clamped at 40), signs alternating, then +-0, +-inf and NaN.
        n = 2 * landscape._SLAB + 4099
        u = landscape._hashed_uniform(1234, np.arange(n, dtype=np.uint64))
        ps = np.concatenate([u, np.exp(-700.0 * u[:2000]), 1.0 - np.exp(-36.0 * u[:2000]),
                             [0.0, 1.0, 2.0**-53, 1.0 - 2.0**-53, 1e-300, 0.075, 0.925, np.nan]])
        w = landscape._hashed_uniform(5678, np.arange(n, dtype=np.uint64))
        third, rt2 = n // 3, math.sqrt(2.0)
        xs = np.concatenate([w[:third] * rt2, rt2 + w[third:2 * third] * 7 * rt2,
                             8 * rt2 + w[2 * third:] * 40 * rt2])
        xs[::2] *= -1.0
        xs = np.concatenate([xs, [0.0, -0.0, np.inf, -np.inf, np.nan]])
        assert (hashlib.sha256(_ndtri(ps).tobytes()).hexdigest()
                == "f6f479d273b06753f546fda1ffb84d4e355712e1062aa16e347842795739c8cc")
        assert (hashlib.sha256(_ndtr(xs).tobytes()).hexdigest()
                == "c5fbee67a85139c90e824048446526d5b5e8ee7b0b770d8c8e6b849ff764a8d1")

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


@pytest.mark.parametrize("center,sigma", [(0.5, math.inf), (50.0, 0.1)],
                         ids=["inf-sigma", "far-center"])
@pytest.mark.parametrize("call", [
    lambda c, s: hs.truncnorm_pdf(0.5, c, s),
    lambda c, s: hs.truncnorm_sf(0.5, c, s),
    lambda c, s: hs.sample_truncnorm(c, s, np.random.default_rng(0), size=2),
], ids=["pdf", "sf", "sample"])
def test_no_mass_on_unit_interval_rejected(call, center, sigma):
    # these used to return NaN after a division-by-zero RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LandscapeError, match="no normal mass"):
            call(center, sigma)


def test_markov_local_sigma_checked_like_the_root():
    # an infinite sigma_local used to fail later, as "val_loss contains non-finite values"
    with pytest.raises(LandscapeError, match="no normal mass"):
        hs.sample_markov_truncnorm(hs.make_complete(3), math.inf, 0.25, 0.18, seed=0)
    # complete:1 draws no child, and still rejects a bad sigma_local
    with pytest.raises(LandscapeError, match="sigma must be positive"):
        hs.sample_markov_truncnorm(hs.make_complete(1), math.nan, 0.25, 0.18, seed=0)


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

    @pytest.mark.parametrize("center,sigma", [(0.25, 0.18), (0.25, math.nan), (50.0, 0.1)],
                             ids=["valid", "nan-sigma", "no-mass"])
    def test_generator_state_on_every_path(self, center, sigma):
        # the uniforms are drawn before the parameters are checked, so a
        # rejected call leaves the generator where an accepted one does
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        with contextlib.suppress(LandscapeError):
            hs.sample_truncnorm(center, sigma, rng, size=3)
        ref.random(3)
        assert rng.random() == ref.random()


def per_child_markov(t, sigma_local, root_center, root_sigma, seed):
    """sample_markov_truncnorm with both normalizing CDFs of a child's parent
    recomputed for every child."""
    order, parent, sizes = _bfs_tree(t)
    rng = np.random.default_rng(seed)
    vals = np.empty(t.n)
    vals[0] = hs.sample_truncnorm(root_center, root_sigma, rng)
    lo = 1
    for size in sizes[1:].tolist():
        ids = order[lo:lo + size]
        vals[ids] = hs.sample_truncnorm(vals[parent[ids]], sigma_local, rng, size)
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
        lambda: hs.make_clique_power(2, 10),
        lambda: hs.make_complete(1),
        lambda: hs.make_complete(2),
        lambda: hs.make_complete(40),
        lambda: hs.Topology.from_spec("tree:3,5"),
        lambda: hs.load_adjacency("n 9\n0 1\n1 2\n2 3\n3 0\n0 4\n4 5\n5 6\n6 4\n2 7\n7 8\n"),
    ], ids=["clique-power-5-4", "clique-power-2-10", "complete-1", "complete-2", "complete-40",
            "tree-3-5", "custom"])
    def test_per_parent_cdfs_equal_per_child_loop(self, topo):
        t = topo()
        for sigma_local, seed in ((0.35, 0), (0.1, 5), (1e-6, 2), (100.0, 7)):
            want = per_child_markov(t, sigma_local, 0.25, 0.18, seed)
            got = hs.sample_markov_truncnorm(t, sigma_local, 0.25, 0.18, seed=seed)
            assert got.val_loss.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m,d", [(5, 3), (3, 5), (2, 7), (7, 2), (4, 1), (2, 10),
                                     (1, 1), (2, 1), (40, 1)])
    def test_clique_power_matches_custom_twin(self, m, d):
        # the digit blocks of (K_m)^d against the frontier loop on the same
        # graph: same discoverers and the same draw order, so the same bits
        t = hs.make_complete(m) if d == 1 else hs.make_clique_power(m, d)
        twin = custom_twin(t)
        for sigma_local in (0.35, 1e-6, 100.0):
            for seed in (0, 1, 9):
                a = hs.sample_markov_truncnorm(t, sigma_local, 0.25, 0.18, seed=seed)
                b = hs.sample_markov_truncnorm(twin, sigma_local, 0.25, 0.18, seed=seed)
                assert a.val_loss.tobytes() == b.val_loss.tobytes()

    def test_clique_power_builds_no_bfs_tree(self, monkeypatch):
        def no_tree(*args):
            raise AssertionError("(K_m)^d reached the frontier loop")

        monkeypatch.setattr(landscape, "_bfs_tree", no_tree)
        for t in (hs.make_clique_power(3, 4), hs.make_complete(1), hs.make_complete(6)):
            assert np.isfinite(hs.sample_markov_truncnorm(t, 0.35, 0.25, 0.18, seed=1).val_loss).all()


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
        ("gaussian:0.05", "84928da9fd6233dae75cdf8e857bde3aa0fb2504e313fc10b04a37b28e581998"),
        ("scaled:2.0,0.03", "0ffa90074e1b30e141822bb312f102e1f5cbe9d2d788ab57ccf4eb509b7d1a68"),
        ("uniform-replace", "441c5c0e5864f7abb036c434737325318f935c32e00e8b8ed2cb10c8339102d8"),
    ])
    def test_frozen_values_pinned(self, text, digest):
        # sha256 of the observation vectors since the noise became counter-based;
        # "none" is the base loss vector, unchanged since before every additive
        # mode became base + scale * z
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


def _observe_one_at_a_time(view, ids, budget, stop_below, seen):
    """``ViewBatch.observe`` of one row as a per-node loop over ``observe``;
    ``seen`` is the set of nodes the view has observed, and is updated."""
    values = []
    for u in ids:
        if budget is not None and not (u in seen or view.query_count < budget):
            break
        values.append(view.observe(u))
        seen.add(u)
        if stop_below is not None and values[-1] < stop_below:
            break
    return np.asarray(values, dtype=float), len(values)


_ROW = np.zeros(1, dtype=np.int64)


def _observe_row(batch, ids, budget=None, stop_below=None):
    """``(values, k)`` of one-row ``batch`` observing ``ids``."""
    values, k = batch.observe(_ROW, np.asarray(ids, dtype=np.int64).reshape(1, -1),
                              budget=budget,
                              stop_below=None if stop_below is None else np.array([stop_below]))
    return values[0, :k[0]], int(k[0])


def _row_log(batch):
    return batch.log_ids[0, :batch.count[0]].tolist()


class TestObservePrefix:
    """``ViewBatch.observe`` on one row, and ``LandscapeView.observe_prefix``."""

    @pytest.mark.parametrize("noise", [hs.NoiseSpec.none(), hs.NoiseSpec.gaussian_frozen(0.1),
                                       hs.NoiseSpec.gaussian_fresh(0.1)],
                             ids=["none", "frozen", "fresh"])
    @pytest.mark.parametrize("stop_below", [None, 0.2, -1.0])
    @pytest.mark.parametrize("budget", [None, 3, 8, 60])
    def test_matches_one_at_a_time(self, k56_uniform, noise, stop_below, budget):
        # a one-row batch with a view's seed is that view's search state
        rng = np.random.default_rng(3)
        batched = landscape.ViewBatch(k56_uniform, noise, [8])
        looped, seen = hs.LandscapeView(k56_uniform, noise, seed=8), set()
        for v in (11, 40, 12):  # seen before the sweep: free, values cached
            _observe_row(batched, [v])
            looped.observe(v)
            seen.add(v)
        for _ in range(6):
            ids = np.concatenate(([40, 11], rng.choice(np.arange(100, 300), 20, replace=False)))
            rng.shuffle(ids)
            got, k = _observe_row(batched, ids, budget, stop_below)
            want, k_want = _observe_one_at_a_time(looped, ids.tolist(), budget, stop_below,
                                                    seen)
            assert k == k_want and got.tobytes() == want.tobytes()
            assert _row_log(batched) == looped.observation_log()
        # fresh noise: both views left their streams at the same draw
        assert _observe_row(batched, [5000])[0][0] == looped.observe(5000)

    def test_budget_cut(self):
        batch = landscape.ViewBatch(hs.Landscape(hs.make_complete(10), np.arange(10) / 10.0),
                                    hs.NoiseSpec.none(), [0])
        _observe_row(batch, [6])
        _observe_row(batch, [8])
        values, k = _observe_row(batch, [5, 6, 7, 8], budget=3)
        assert k == 2 and values.tolist() == [0.5, 0.6]  # 7 would be the fourth charged
        assert _row_log(batch) == [6, 8, 5]
        assert _observe_row(batch, [6, 8], budget=3)[1] == 2  # seen ids are free
        assert _observe_row(batch, [], budget=3)[1] == 0

    def test_seen_ids_free_past_the_budget(self):
        # a row that charged more than the budget still observes its seen ids
        batch = landscape.ViewBatch(hs.Landscape(hs.make_complete(10), np.arange(10) / 10.0),
                                    hs.NoiseSpec.none(), [0])
        _observe_row(batch, [6, 8, 5])
        values, k = _observe_row(batch, [6, 8], budget=2)
        assert k == 2 and values.tolist() == [0.6, 0.8]
        values, k = _observe_row(batch, [5, 9, 6], budget=2)
        assert k == 1 and values.tolist() == [0.5]
        assert _row_log(batch) == [6, 8, 5]

    @pytest.mark.parametrize("ids,bad", [([3, 15625, 4], 15625), ([2, -1], -1)])
    def test_out_of_range(self, k56_uniform, ids, bad):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.none(), seed=0)
        with pytest.raises(LandscapeError, match=rf"node id {bad} out of range"):
            view.observe_prefix(ids)
        assert view.query_count == 0

    @pytest.mark.parametrize("bad,shown", [(2.5, "2.5"), ("3", "'3'"), (np.array([3.9]), "3.9"),
                                           (True, "True")],
                             ids=["float", "str", "float-array", "bool"])
    def test_non_integer_ids_rejected(self, bad, shown):
        # observe(2.5) observed node 2 and observe("3") node 3, and charged it
        view = hs.LandscapeView(hs.sample_uniform(hs.make_complete(5), 1),
                                hs.NoiseSpec.gaussian_fresh(0.1), seed=2)
        message = rf"node id {re.escape(shown)} is not an integer in \[0, 5\)"
        with pytest.raises(LandscapeError, match=message):
            view.observe(bad)
        with pytest.raises(LandscapeError, match=message):
            view.observe_prefix(bad if isinstance(bad, np.ndarray) else [bad])
        assert view.query_count == 0 and view.observation_log() == []
        values, k = view.observe_prefix([])  # an empty list is float64: accepted
        assert values.size == k == view.query_count == 0

    @pytest.mark.parametrize("noise", [hs.NoiseSpec.none(), hs.NoiseSpec.gaussian_frozen(0.1),
                                       hs.NoiseSpec.gaussian_fresh(0.1)],
                             ids=["none", "frozen", "fresh"])
    def test_repeats_charged_once(self, noise):
        # observe_prefix([3, 3, 1]) charged node 3 twice and gave it two values
        scape = hs.sample_uniform(hs.make_complete(5), 1)
        view, looped = (hs.LandscapeView(scape, noise, seed=2) for _ in range(2))
        ids = [3, 3, 1, 4, 3, 1, 0]
        values, k = view.observe_prefix(ids)
        want = np.asarray([looped.observe(v) for v in ids])
        assert k == len(ids) and values.tobytes() == want.tobytes()
        assert view.query_count == 4 and view.observation_log() == [3, 1, 4, 0]
        assert view.observation_log() == looped.observation_log()

    def test_frozen_values_equal_observations(self, k56_uniform):
        # frozen_values evaluates all n nodes slab by slab through the function
        # that observation uses: the two agree bit for bit in any order
        for spec in (hs.NoiseSpec.gaussian_frozen(0.1), hs.NoiseSpec.uniform_replace(),
                     hs.NoiseSpec.scaled(np.linspace(0.0, 0.2, k56_uniform.n), 1.5)):
            whole = hs.LandscapeView(k56_uniform, spec, seed=4).frozen_values()
            view = hs.LandscapeView(k56_uniform, spec, seed=4)
            ids = np.random.default_rng(1).permutation(k56_uniform.n)[:5000]
            assert view.observe_prefix(ids)[0].tobytes() == whole[ids].tobytes()

    def test_fresh_noise_keyed_on_charge_index(self, k56_uniform):
        # the k-th charge of a fresh view draws the k-th counter normal,
        # whichever node it charges
        spec = hs.NoiseSpec.gaussian_fresh(0.1)
        a, b = (hs.LandscapeView(k56_uniform, spec, seed=9) for _ in range(2))
        a.observe_prefix([5, 900, 77])
        b.observe_prefix([77, 5, 900])
        z = landscape._hashed_normal(hs.mix64(9, landscape._NOISE_STREAM), np.arange(3))
        for view, order in ((a, [5, 900, 77]), (b, [77, 5, 900])):
            want = k56_uniform.val_loss[order] + 0.1 * z
            assert view.observed_values().tobytes() == want.tobytes()


class TestPads:
    """A seen id repeated after a row's real ids, as a neighbor block pads a
    row with its current node, is a free cache read in ``ViewBatch.observe``."""

    @pytest.mark.parametrize("rows,block", [
        ([0], [[7, 8, 4, 4]]),
        ([1, 0], [[7, 8, 4, 4], [9, 2, 2, 2]]),
    ], ids=["one-row", "two-row"])
    def test_pad_is_a_free_cache_read(self, rows, block):
        scape = hs.Landscape(hs.make_complete(10), np.arange(10) / 10.0)
        rows, block = np.asarray(rows), np.asarray(block)
        cur = block[:, -1]
        batch = landscape.ViewBatch(scape, hs.NoiseSpec.gaussian_fresh(0.01), [5, 6][:len(rows)])
        lv = batch.observe(rows, cur[:, None])[0][:, 0]  # each row charges its current node
        pads = block == cur[:, None]
        real = [row[~pad].tolist() for row, pad in zip(block, pads)]
        width = [block.shape[1]] * len(rows)

        # no value is below stop_below, the pads' own: the rows sweep to the end
        values, k = batch.observe(rows, block, stop_below=lv)
        assert k.tolist() == width  # the pads are counted
        assert (values[pads] == np.broadcast_to(lv[:, None], block.shape)[pads]).all()
        assert batch.count[rows].tolist() == [1 + len(r) for r in real]  # pads charge nothing
        for r, c, rest in zip(rows, cur, real):
            assert batch.log_ids[r, :batch.count[r]].tolist() == [c] + rest

        # at 0 room the pads, like the seen real ids, are never cut
        counts = batch.count[rows].copy()
        again, k = batch.observe(rows, block, budget=int(counts.min()))
        assert k.tolist() == width and batch.count[rows].tolist() == counts.tolist()
        assert again.tobytes() == values.tobytes()


class TestLogRoom:
    """``ViewBatch.observe`` without a budget charges a row up to its log's
    ``limit``, never into the next row's log."""

    def test_no_budget_stops_at_the_log(self):
        scape = hs.sample_uniform(hs.make_complete(10), 1)
        batch = landscape.ViewBatch(scape, hs.NoiseSpec.none(), [1, 2], limit=2)
        seven = batch.observe(np.array([1]), np.array([[7]]))[0][0, 0]
        values, k = batch.observe(np.array([0]), np.array([[3, 4, 5]]))
        assert k.tolist() == [2] and batch.count.tolist() == [2, 1]
        assert values[0, :2].tolist() == scape.val_loss[[3, 4]].tolist()
        assert values[0, 2] == np.inf
        assert batch.log_ids[0].tolist() == [3, 4] and batch.log_ids[1, :1].tolist() == [7]
        # row 1 re-reads node 7 from its own log, at its first value
        again, k = batch.observe(np.array([1]), np.array([[7]]))
        assert k.tolist() == [1] and again[0, 0] == seven == scape.val_loss[7]
        # a full log still reads its seen nodes for free
        values, k = batch.observe(np.array([0]), np.array([[4, 3, 6]]))
        assert k.tolist() == [2] and batch.count.tolist() == [2, 1]
        assert values[0, :2].tolist() == scape.val_loss[[4, 3]].tolist()


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

    # a list used to raise a bare TypeError, and "0.1" and True to build a scale
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), [0.1, 0.2], "0.1", True])
    def test_non_finite_rejected(self, bad):
        for make, name in ((hs.NoiseSpec.gaussian_frozen, "sigma"),
                           (hs.NoiseSpec.gaussian_fresh, "sigma"),
                           (lambda v: hs.NoiseSpec.seed_average(v, 2), "sigma"),
                           (lambda v: hs.NoiseSpec.scaled(0.1, v), "scale factor x")):
            with pytest.raises(LandscapeError, match=f"{name} must be .*finite"):
                make(bad)
        if not isinstance(bad, float):  # the specs below parse floats
            return
        for text in (f"gaussian:{bad}", f"seed-average:{bad},2", f"scaled:{bad}"):
            with pytest.raises(LandscapeError, match="finite"):
                hs.NoiseSpec.parse(text)

    def test_frozen_flag(self):
        assert hs.NoiseSpec.gaussian_frozen(0.1).frozen
        assert not hs.NoiseSpec.gaussian_fresh(0.1).frozen

    def test_checked_when_the_view_is_built(self, k56_uniform):
        # the view builds no search state up front, but a spec that does not
        # fit the landscape still fails at construction
        wrong = hs.NoiseSpec.scaled(np.full(k56_uniform.n - 1, 0.1), 1.0)
        with pytest.raises(LandscapeError, match=r"shape \(15624,\), expected \(15625,\)"):
            hs.LandscapeView(k56_uniform, wrong)
        with pytest.raises(LandscapeError, match="shape"):
            landscape.ViewBatch(k56_uniform, wrong, [0])
        big = hs.Landscape(hs.make_complete(3), [0.0, 1e308, 0.5])
        with pytest.raises(LandscapeError, match="finite"):
            hs.LandscapeView(big, hs.NoiseSpec.gaussian_frozen(1e307))
        hs.LandscapeView(big, hs.NoiseSpec.uniform_replace())  # replaces the base


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

    def test_whole_float_sizes_round_trip(self, tmp_path):
        # clique-power:3,2.0 used to be saved, and could not be read back
        scape = hs.sample_uniform(hs.make_clique_power(3, 2.0), 1)
        path = str(tmp_path / "s.csv")
        hs.save_landscape(scape, path)
        back = hs.load_landscape(path)
        assert back.topology.to_spec() == "clique-power:3,2"
        assert np.array_equal(back.val_loss, scape.val_loss)

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


class TestCounterNoise:
    def test_vectorized_mix64_equals_scalar(self):
        rng = np.random.default_rng(5)
        roots = rng.integers(0, 2**64, size=2000, dtype=np.uint64)
        idx = rng.integers(0, 2**64 - 1, size=2000, dtype=np.uint64)
        roots[:4] = [0, 2**64 - 1, 0, 2**64 - 1]
        idx[:4] = [0, 0, 2**64 - 2, 2**64 - 2]  # index + 1 wraps at 2**64 - 1 as well
        got = hs.mix64(roots, idx)
        assert got.dtype == np.uint64
        assert got.tolist() == [hs.mix64(int(r), int(i)) for r, i in zip(roots, idx)]
        # an int root or index broadcasts against an array
        assert hs.mix64(7, np.arange(5)).tolist() == [hs.mix64(7, i) for i in range(5)]
        assert hs.mix64(roots[:3], 11).tolist() == [hs.mix64(int(r), 11) for r in roots[:3]]
        with pytest.raises(ValueError):
            hs.mix64(1, np.array([3, -1]))

    def test_counter_normals_are_standard_normal(self):
        stats = pytest.importorskip("scipy.stats")  # scipy is the oracle only
        z = landscape._hashed_normal(hs.mix64(2024, landscape._NOISE_STREAM),
                                     np.arange(10**6))
        assert stats.kstest(z, stats.norm.cdf).pvalue > 0.01
        assert np.abs(z).max() <= landscape._Z_MAX

    def test_uniform_set_is_symmetric_and_open(self):
        # the extreme hashed uniforms are 2**-53 and 1 - 2**-53, so |z| is
        # at most _Z_MAX on both sides
        ends = np.array([0, 2**64 - 1], dtype=np.uint64)
        u = (ends >> np.uint64(12)) * 2.0**-52 + 2.0**-53
        assert u.tolist() == [2.0**-53, 1 - 2.0**-53]
        assert _ndtri(u).tolist() == [-landscape._Z_MAX, landscape._Z_MAX]

    @pytest.mark.parametrize("make", [lambda: hs.NoiseSpec.parse("scaled:1e300,1e300"),
                                      lambda: hs.NoiseSpec.parse("gaussian:1e308"),
                                      lambda: hs.NoiseSpec.gaussian_fresh(3e307),
                                      lambda: hs.NoiseSpec.scaled(np.array([1.0, 1e308]), 1.0)])
    def test_scale_that_can_overflow_rejected(self, make):
        # used to pass and observe inf for |z| > 1.8 (gaussian:1e308)
        with pytest.raises(LandscapeError, match="must stay finite"):
            make()

    def test_base_plus_scale_overflow_rejected(self):
        # each alone is finite, but the largest observation would not be
        scape = hs.Landscape(hs.make_complete(3), [1e308, 0.0, -1.0])
        with pytest.raises(LandscapeError, match="must stay finite"):
            hs.LandscapeView(scape, hs.NoiseSpec.gaussian_frozen(1e307))
        hs.LandscapeView(scape, hs.NoiseSpec.gaussian_frozen(1e306)).frozen_values()
        assert np.isfinite(hs.LandscapeView(scape, hs.NoiseSpec.uniform_replace())
                           .frozen_values()).all()


def test_mix64_contract():
    # deterministic, index-sensitive, 64-bit range
    a = hs.mix64(12345, 0)
    assert a == hs.mix64(12345, 0)
    assert a != hs.mix64(12345, 1)
    assert a != hs.mix64(12346, 0)
    assert 0 <= a < 2**64
    with pytest.raises(ValueError):
        hs.mix64(1, -1)


@pytest.mark.parametrize("index", [2.5, True, math.nan, np.array([2.5]), np.array([True])],
                         ids=["2.5", "True", "nan", "float-array", "bool-array"])
@pytest.mark.parametrize("root", [1, np.array([1], dtype=np.uint64)], ids=["int", "array"])
def test_mix64_rejects_non_integer_index(root, index):
    # 2.5 used to hash as 2, True as 1, and a float array was cast to uint64
    with pytest.raises(ValueError, match="index"):
        hs.mix64(root, index)


def test_mix64_index_keeps_exact_values():
    assert hs.mix64(1, 7.0) == hs.mix64(1, 7) == hs.mix64(1, np.int64(7))
    big = 2**64 - 2
    assert hs.mix64(1, np.array([big], dtype=np.uint64)).tolist() == [hs.mix64(1, big)]
    assert hs.mix64(1, np.array([3], dtype=np.int32)).tolist() == [hs.mix64(1, 3)]


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
