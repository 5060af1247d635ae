import math

import numpy as np
import pytest

import hillscape as hs
from hillscape import theory
from hillscape.analysis import _fixed_points_and_depth
from hillscape.theory import (_ROW_BLOCK, _clique_power_depths, _preimage_table,
                              _prefix, _simpson, _weight_blocks)

from conftest import dense_preimage_table, frozen_view, traced_peak


def Phi(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2)))


@pytest.fixture(scope="module")
def k56_params(k56_module):
    return hs.TheoryParams.from_topology(k56_module)


@pytest.fixture(scope="module")
def k56_module():
    return hs.make_clique_power(5, 6)


UNIFORM = hs.PdfSpec.uniform01()
UNIFORM_LOCAL = hs.LocalPdfSpec.independent(UNIFORM)


def eye_weights(xs):
    """W[i, j] = P_j[-1] - P_j[i] from the prefixes of all unit vectors at once."""
    A = _prefix(np.eye(len(xs)), xs)  # A[j, i]: weight of y_j in prefix i
    return (A[:, -1][:, None] - A).T


def whole_grid_table(pdf_e, params, max_k, grid_points):
    """Bit-for-bit oracle: the whole-grid form of the center-dependent table.

    Builds the weights from ``_prefix(np.eye(grid))`` and holds the pdf,
    weight and tail matrices whole (about six grid^2 float64 arrays).
    """
    xs = np.linspace(0.0, 1.0, grid_points)
    s = params.s
    E = np.zeros((max_k, grid_points))
    PW = pdf_e.density(xs[:, None], xs[None, :]) * eye_weights(xs)
    tail = pdf_e.survival(xs[None, :], xs[:, None])
    E[0] = s * (PW * tail ** (s - 1)).sum(axis=1)
    denom = pdf_e.survival(xs, xs)
    for k in range(2, max_k + 1):
        b = params.b_at(k - 1)
        if b == 0.0:
            break
        numer = np.einsum("ij,j->i", PW, E[k - 2])
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(denom > 1e-300, numer / denom, 0.0)
        E[k - 1] = b * E[0] * ratio
    return xs, E


def whole_grid_bound(pdf_n, pdf_e, s, sigma, n, delta, grid_points):
    """Bit-for-bit oracle: the Chebyshev bound summed over the whole grid at once."""
    xs = np.linspace(0.0, 1.0, grid_points)
    diff = xs[:, None] - xs[None, :]
    dens = pdf_n.density(xs)[:, None] * pdf_e.density(xs, xs)
    mask = (np.abs(diff) >= delta) & (dens > 0.0)
    integrand = np.zeros_like(dens)
    with np.errstate(over="ignore", divide="ignore"):
        core = (2.0 * diff[mask] ** 2) ** (-float(s))
        integrand[mask] = dens[mask] * core
    if not np.isfinite(integrand).all():
        return float("inf")
    inner = np.trapezoid(integrand, xs, axis=1)
    value = float(np.trapezoid(inner, xs))
    with np.errstate(over="ignore"):
        bound = float(sigma) ** (2 * s) * n * value
    return bound if np.isfinite(bound) else float("inf")


# 9: one partial block; 257 and 2049: a last block of one row; 2048: even
ORACLE_POINTS = [9, 257, 2048, 2049]
# the smallest grids, and one row short of, at and past a whole block
WEIGHT_POINTS = [9, 10, 11, 127, 128, 129, 257, 2048, 2049]


class TestSimpson:
    @pytest.mark.parametrize("points", [2049, 2048, 10, 9])
    def test_matches_scipy(self, points):
        simpson = pytest.importorskip("scipy.integrate").simpson
        xs = np.linspace(0.0, 1.0, points)
        pdf_n = hs.PdfSpec.truncnorm(0.25, 0.18)
        pdf_e = hs.LocalPdfSpec.truncnorm_centered(0.35)
        for y in (np.exp(-3.0 * xs) * (2.0 + np.cos(7.0 * xs)),
                  pdf_n.density(xs) * pdf_e.survival(xs, xs) ** 24):
            assert _simpson(y, xs) == pytest.approx(float(simpson(y, x=xs)),
                                                    rel=1e-15, abs=0.0)


class TestPdfSpec:
    def test_pdf_spellings(self):
        assert hs.PdfSpec.parse("uniform").kind == "uniform"
        pdf = hs.PdfSpec.parse("truncnorm:0.25,0.18")
        assert (pdf.kind, pdf.center, pdf.sigma) == ("truncnorm", 0.25, 0.18)
        local = hs.LocalPdfSpec.parse("uniform")
        assert (local.kind, local.g.kind) == ("independent", "uniform")
        local = hs.LocalPdfSpec.parse("truncnorm-local:0.35")
        assert (local.kind, local.sigma) == ("truncnorm_centered", 0.35)

    def test_uniform_density_and_survival(self):
        xs = np.asarray([-0.5, 0.0, 0.3, 1.0, 1.5])
        assert np.array_equal(UNIFORM.density(xs), [0, 1, 1, 1, 0])
        assert np.allclose(UNIFORM.survival(np.asarray([0.0, 0.25, 1.0])), [1, 0.75, 0])

    def test_truncnorm_survival_matches_erf(self):
        spec = hs.PdfSpec.truncnorm(0.25, 0.18)
        z = Phi((1 - 0.25) / 0.18) - Phi((0 - 0.25) / 0.18)
        expected = (Phi((1 - 0.25) / 0.18) - Phi((0.4 - 0.25) / 0.18)) / z
        assert spec.survival(0.4) == pytest.approx(expected, rel=1e-12)

    def test_tabulated_validation(self):
        xs = np.linspace(0, 1, 11)
        with pytest.raises(ValueError, match="integrates"):
            hs.PdfSpec.tabulated(xs, np.full(11, 2.0))
        with pytest.raises(ValueError, match="non-negative"):
            hs.PdfSpec.tabulated(xs, np.linspace(-0.1, 2.1, 11))
        spec = hs.PdfSpec.tabulated(xs, np.ones(11))
        assert spec.survival(0.5) == pytest.approx(0.5, abs=1e-12)

    def test_local_row_normalization(self):
        spec = hs.LocalPdfSpec.truncnorm_centered(0.35)
        xs = np.linspace(0, 1, 4001)
        for c in (0.1, 0.6):
            total = np.trapezoid(spec.density(c, xs), xs)
            assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            hs.PdfSpec.truncnorm(bad, 0.18)  # center
        with pytest.raises(ValueError, match="finite"):
            hs.PdfSpec.truncnorm(0.25, bad)  # sigma
        with pytest.raises(ValueError, match="finite"):
            hs.LocalPdfSpec.truncnorm_centered(bad)

    @pytest.mark.parametrize("center,sigma", [(9.0, 0.1), (-2.0, 0.05), (-5.0, 0.5)])
    def test_truncnorm_without_mass_on_unit_interval_rejected(self, center, sigma):
        # the normal mass on [0, 1] underflows to 0, so the density would be 0/0
        with pytest.raises(ValueError, match="no normal mass"):
            hs.PdfSpec.truncnorm(center, sigma)

    def test_centered_truncnorm_without_mass_rejected_at_construction(self):
        # sigma 1e20 used to construct, and every density or survival call raised
        with pytest.raises(ValueError, match="no normal mass"):
            hs.LocalPdfSpec.truncnorm_centered(1e20)
        spec = hs.LocalPdfSpec.truncnorm_centered(1e3)  # wide, but with mass at every center
        assert np.isfinite(spec.density(np.linspace(0, 1, 5), np.linspace(0, 1, 5))).all()

    def test_truncnorm_far_center_with_mass_accepted(self):
        spec = hs.PdfSpec.truncnorm(3.0, 0.1)  # mass Phi(-20) - Phi(-30), about 2.8e-89
        xs = np.linspace(0.0, 1.0, 2049)
        assert np.isfinite(spec.density(xs)).all()
        assert spec.survival(0.0) == 1.0

    def test_local_survival_from_own_center(self):
        spec = hs.LocalPdfSpec.truncnorm_centered(0.35)
        # at the left support edge the entire mass lies above the center
        assert spec.survival(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert spec.survival(1.0, 1.0) == pytest.approx(0.0, abs=1e-12)


class TestTheoryParams:
    def test_from_topology(self, k56_params):
        assert k56_params.n == 15625
        assert k56_params.s == 24
        assert np.allclose(k56_params.b[:2], [1.0, 5 / 12])

    def test_validation(self):
        with pytest.raises(ValueError):
            hs.TheoryParams(n=10, s=3, b=[0.5])  # b_1 != 1
        with pytest.raises(ValueError):
            hs.TheoryParams(n=10, s=3, b=[1.0, 1.2])
        with pytest.raises(ValueError):
            hs.TheoryParams.from_topology(hs.make_regular_tree(3, 2))

    @pytest.mark.parametrize("b", [[1.0, float("nan")], [float("nan")],
                                   [1.0, 0.5, float("inf")]])
    def test_non_finite_b_rejected(self, b):
        with pytest.raises(ValueError, match="finite"):
            hs.TheoryParams(n=10, s=3, b=b)

    def test_b_terminates(self, k56_params):
        assert k56_params.b_at(0) == 1.0
        assert k56_params.b_at(6) == pytest.approx(1 / 36)
        assert k56_params.b_at(7) == 0.0


def _whole_number_cases():
    """(call, message) pairs: each call passes a count that is no whole
    number >= 1, and each used to return a number or raise a bare error."""
    params = hs.TheoryParams(n=125, s=12, b=[1.0])
    local = hs.LocalPdfSpec.truncnorm_centered(0.35)
    view = frozen_view(hs.make_clique_power(3, 2), np.arange(9) / 9)
    return {
        "params-n": (lambda: hs.TheoryParams(n=2.5, s=2, b=[1]),
                     "n must be a whole number, got 2.5"),
        "params-s-bool": (lambda: hs.TheoryParams(n=10, s=True, b=[1]),
                          "s must be a whole number, got True"),
        "params-n-huge": (lambda: hs.TheoryParams(n=1e300, s=2, b=[1]),
                          "n must be a whole number, got 1e+300"),
        "minima-s": (lambda: hs.expected_minima_fraction(UNIFORM, UNIFORM_LOCAL, 2.5),
                     "s must be a whole number, got 2.5"),
        "minima-grid": (lambda: hs.expected_minima_fraction(UNIFORM, UNIFORM_LOCAL, 2,
                                                            grid_points=33.5),
                        "grid_points must be a whole number, got 33.5"),
        "chebyshev-s": (lambda: hs.chebyshev_minima_bound(UNIFORM, UNIFORM_LOCAL, 2.5, 0.1,
                                                          100),
                        "s must be a whole number, got 2.5"),
        "chebyshev-n": (lambda: hs.chebyshev_minima_bound(UNIFORM, UNIFORM_LOCAL, 2, 0.1, 2.5),
                        "n must be a whole number, got 2.5"),
        "chebyshev-n-0": (lambda: hs.chebyshev_minima_bound(UNIFORM, UNIFORM_LOCAL, 2, 0.1, 0),
                          "n must be >= 1"),
        "uniform-minima-n": (lambda: hs.uniform_closed_form_minima(2.5, 4),
                             "n must be a whole number, got 2.5"),
        "bounds-s": (lambda: hs.full_preimage_bounds(0.5, 2.5),
                     "s must be a whole number, got 2.5"),
        "curve-max-k-0": (lambda: hs.success_curve(UNIFORM, local, params, [0.0, 0.1], max_k=0,
                                                   grid_points=33),
                          "max_k must be >= 1"),
        "curve-max-k": (lambda: hs.success_curve(UNIFORM, local, params, [0.0, 0.1], max_k=2.5,
                                                 grid_points=33),
                        "max_k must be a whole number, got 2.5"),
        "closed-form-k": (lambda: hs.independent_closed_form(UNIFORM, params, 0.5, 1.5),
                          "k must be a whole number, got 1.5"),
        "preimage-max-k": (lambda: hs.preimage_sizes(view, 0, 2.5),
                           "max_k must be a whole number, got 2.5"),
        "rwa-max-lag": (lambda: hs.rwa(view, 100, 1.5, seed=0),
                        "max_lag must be a whole number, got 1.5"),
        "clique-power-m": (lambda: hs.make_clique_power(2.5, 2),
                           "clique power m must be a whole number, got 2.5"),
        "clique-power-d": (lambda: hs.make_clique_power(3, 2.5),
                           "clique power d must be a whole number, got 2.5"),
        "complete-n": (lambda: hs.make_complete(3.5),
                       "complete graph n must be a whole number, got 3.5"),
        "tree-arity": (lambda: hs.make_regular_tree(2.5, 3),
                       "regular tree arity must be a whole number, got 2.5"),
        "seed-average-k": (lambda: hs.NoiseSpec.seed_average(0.1, 2.5),
                           "seed-average k must be a whole number, got 2.5"),
        "export-top-k": (lambda: hs.export_search_tree(view, 2.5),
                         "top_k must be a whole number, got 2.5"),
        "branching-k": (lambda: hs.branching_fraction(view.landscape.topology, 1.5),
                        "branching fraction k must be a whole number, got 1.5"),
        "clique-curve-m": (lambda: hs.clique_power_uniform_curve(2.5, 2, [0.0, 0.1]),
                           "clique power m must be a whole number, got 2.5"),
        "chebyshev-s-0": (lambda: hs.chebyshev_minima_bound(UNIFORM, UNIFORM_LOCAL, 0, 0.1, 100),
                          "s must be >= 1"),
    }


@pytest.mark.parametrize("case", list(_whole_number_cases()))
def test_counts_must_be_whole_numbers(case):
    call, message = _whole_number_cases()[case]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_whole_float_counts_accepted():
    # the check is topology._whole's: an integral float counts as its integer
    assert hs.expected_minima_fraction(UNIFORM, UNIFORM_LOCAL, 2.0, grid_points=33.0) == \
        hs.expected_minima_fraction(UNIFORM, UNIFORM_LOCAL, 2, grid_points=33)
    params = hs.TheoryParams(n=125.0, s=12.0, b=[1.0])
    assert (params.n, params.s) == (125, 12)
    assert hs.independent_closed_form(UNIFORM, params, 0.5, 2.0) == \
        hs.independent_closed_form(UNIFORM, params, 0.5, 2)
    view = frozen_view(hs.make_clique_power(3, 2), np.arange(9) / 9)
    assert hs.preimage_sizes(view, 0, 3.0) == hs.preimage_sizes(view, 0, 3)
    assert hs.rwa(view, 100.0, 4.0, seed=0) == hs.rwa(view, 100, 4, seed=0)
    assert hs.make_regular_tree(3.0, 2.0).to_spec() == "tree:3,2"
    assert hs.make_complete(4.0).to_spec() == "complete:4"
    assert hs.NoiseSpec.seed_average(0.1, 4.0).scale == hs.NoiseSpec.seed_average(0.1, 4).scale
    assert hs.branching_fraction(view.landscape.topology, 2.0) == 0.25
    assert hs.clique_power_uniform_curve(3.0, 2.0, [0.1]) == \
        hs.clique_power_uniform_curve(3, 2, [0.1])


def _seed_calls():
    """One call per public seed parameter, as a function of the seed."""
    t = hs.make_clique_power(3, 2)
    scape = hs.sample_uniform(t, 1)
    rwa_rows = [(0, 0.0, 1.0), (1, 1.0, 0.4), (2, 2 ** 0.5, 0.1)]

    def history(h):
        return h.nodes.tolist(), h.val_loss.tolist()

    return {
        "sample_uniform": lambda s: hs.sample_uniform(t, s).val_loss.tolist(),
        "sample_markov_truncnorm": lambda s: hs.sample_markov_truncnorm(
            t, 0.35, 0.25, 0.18, seed=s).val_loss.tolist(),
        "LandscapeView": lambda s: hs.LandscapeView(scape, seed=s).seed,
        "random_search": lambda s: history(hs.random_search(hs.LandscapeView(scape), 5, s)),
        "run_budgeted": lambda s: history(hs.run_budgeted(
            hs.LandscapeView(scape), hs.SearchConfig(5, restart_on_convergence=True), s)),
        "run_trials": lambda s: [history(h) for h in hs.run_trials(
            scape, hs.NoiseSpec.none(), "local", 5, 2, s)],
        "rwa": lambda s: hs.rwa(hs.LandscapeView(scape), 40, 2, seed=s),
        "fit_local_sigma_via_rwa": lambda s: hs.fit_local_sigma_via_rwa(
            rwa_rows, t, [0.35], s, walk_len=40),
        "mix64": lambda s: hs.mix64(s, 3),
        "mix64-array": lambda s: hs.mix64(s, np.arange(3)).tolist(),
        "spawn_rng": lambda s: hs.spawn_rng(s, 3).random(),
    }


@pytest.mark.parametrize("name", list(_seed_calls()))
@pytest.mark.parametrize("seed", [2.5, True, math.nan, math.inf, 1e300, "3", None],
                         ids=["2.5", "True", "nan", "inf", "1e300", "str", "None"])
def test_seeds_must_be_whole_numbers(name, seed):
    # 2.5 used to run as seed 2 and True as seed 1
    with pytest.raises(ValueError, match="seed must be a whole number"):
        _seed_calls()[name](seed)


@pytest.mark.parametrize("name", list(_seed_calls()))
def test_whole_float_seed_accepted(name):
    call = _seed_calls()[name]
    assert call(7.0) == call(7)


@pytest.mark.parametrize("name", list(_seed_calls()))
@pytest.mark.parametrize("seed", [-1, -2**63, 2**64, 2**70])
def test_seed_outside_u64_rejected(name, seed):
    # -1 used to run in views and search (wrapped to 2**64 - 1) but fail in
    # the generators; 2**64 aliased seed 0 in views and search
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        _seed_calls()[name](seed)


@pytest.mark.parametrize("name", list(_seed_calls()))
def test_seed_range_ends_accepted(name):
    call = _seed_calls()[name]
    call(0)
    call(2**64 - 1)


class TestExpectedMinimaFraction:
    @pytest.mark.parametrize("s", [2, 5, 24])
    def test_uniform_closed_form(self, s):
        got = hs.expected_minima_fraction(UNIFORM, UNIFORM_LOCAL, s)
        assert got == pytest.approx(1 / (s + 1), abs=1e-6)

    def test_truncnorm_against_mc_oracle(self):
        # Monte-Carlo oracle: rejection-sample x ~ pdf_n, average survival^s
        pdf_n = hs.PdfSpec.truncnorm(0.25, 0.18)
        pdf_e = hs.LocalPdfSpec.truncnorm_centered(0.35)
        s = 24
        rng = np.random.default_rng(42)
        n_samples = 1_200_000
        zn = Phi((1 - 0.25) / 0.18) - Phi((0 - 0.25) / 0.18)
        max_dens = 1.0 / (0.18 * zn * math.sqrt(2 * math.pi)) * 1.001
        xs = np.empty(0)
        while xs.size < n_samples:
            cand = rng.random(n_samples)
            accept = rng.random(n_samples) * max_dens <= hs.truncnorm_pdf(cand, 0.25, 0.18)
            xs = np.concatenate([xs, cand[accept]])
        xs = xs[:n_samples]
        ze = np.vectorize(Phi)((1 - xs) / 0.35) - np.vectorize(Phi)((0 - xs) / 0.35)
        surv = (np.vectorize(Phi)((1 - xs) / 0.35) - 0.5) / ze
        samples = surv**s
        mc = samples.mean()
        se = samples.std() / math.sqrt(n_samples)
        got = hs.expected_minima_fraction(pdf_n, pdf_e, s)
        assert abs(got - mc) < 3 * se

    def test_quadrature_failure_surfaces(self):
        with pytest.raises(ValueError):
            hs.expected_minima_fraction(UNIFORM, UNIFORM_LOCAL, 0)


class TestPreimageRecursion:
    def test_e1_uniform(self, k56_params):
        xs, E = _preimage_table(UNIFORM_LOCAL, k56_params, 1, 2049)
        at = np.searchsorted(xs, [0.0, 0.125, 0.5, 0.875])  # grid-aligned points
        assert np.array_equal(xs[at], [0.0, 0.125, 0.5, 0.875])
        assert np.allclose(E[0, at], 24 * (1 - xs[at]) ** 24, atol=1e-6)

    def test_worst_loss_is_zero(self, k56_params):
        xs, E = _preimage_table(UNIFORM_LOCAL, k56_params, 5, 2049)
        assert xs[-1] == 1.0
        for k in (1, 2, 5):
            assert E[k - 1, -1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_closed_form_on_grid(self, k56_params):
        # the table is the closed form; the quadrature recursion is the oracle
        # (max abs gap 3.4e-8)
        xs, E = _preimage_table(UNIFORM_LOCAL, k56_params, 5, 2049)
        ref_xs, ref = dense_preimage_table(UNIFORM_LOCAL, k56_params, 5, 2049)
        assert np.array_equal(xs, ref_xs)
        assert np.max(np.abs(E - ref)) < 1e-5

    def test_matches_closed_form_truncnorm_g(self, k56_params):
        # max abs gap 4.4e-10 for (0.4, 0.25) and 4.3e-9 for (0.25, 0.18)
        for center, sigma in ((0.4, 0.25), (0.25, 0.18)):
            pdf_e = hs.LocalPdfSpec.independent(hs.PdfSpec.truncnorm(center, sigma))
            xs, E = _preimage_table(pdf_e, k56_params, 4, 2049)
            _, ref = dense_preimage_table(pdf_e, k56_params, 4, 2049)
            assert np.max(np.abs(E - ref)) < 1e-5

    @pytest.mark.parametrize("points", [2049, 2048, 257])
    def test_center_dependent_matches_dense_reference(self, k56_params, points):
        pdf_e = hs.LocalPdfSpec.truncnorm_centered(0.35)
        xs, E = _preimage_table(pdf_e, k56_params, 5, points)
        ref_xs, ref = dense_preimage_table(pdf_e, k56_params, 5, points)
        assert np.array_equal(xs, ref_xs)
        assert np.max(np.abs(E - ref)) < 1e-11

    @pytest.mark.parametrize("points", WEIGHT_POINTS)
    def test_weight_blocks_equal_unit_vector_prefixes(self, points):
        xs = np.linspace(0.0, 1.0, points)
        blocks = list(_weight_blocks(xs))
        assert [b.shape[0] for _, b in blocks] == [
            min(_ROW_BLOCK, points - r0) for r0 in range(0, points, _ROW_BLOCK)]
        W = np.vstack([b for _, b in blocks])
        assert W.tobytes() == eye_weights(xs).tobytes()  # signed zeros included

    @pytest.mark.parametrize("points", WEIGHT_POINTS)
    def test_weight_blocks_zero_left_of_subdiagonal(self, points):
        # the table keeps the row block from r0 only on the columns from r0 - 1
        W = np.vstack([b for _, b in _weight_blocks(np.linspace(0.0, 1.0, points))])
        left = W[np.tril_indices(points, -2)]
        assert not left.any() and not np.signbit(left).any()

    @pytest.mark.parametrize("points", ORACLE_POINTS)
    def test_center_dependent_table_equals_whole_grid_form(self, k56_params, points):
        for sigma in (0.35, 0.05):
            pdf_e = hs.LocalPdfSpec.truncnorm_centered(sigma)
            xs, E = _preimage_table(pdf_e, k56_params, 5, points)
            ref_xs, ref = whole_grid_table(pdf_e, k56_params, 5, points)
            assert np.array_equal(xs, ref_xs)
            assert np.array_equal(E, ref)

    def test_table_holds_half_a_grid_squared_array(self, k56_params):
        # the whole-grid form peaked at about 6 * 8 * grid^2 bytes, a whole
        # grid-by-grid PW at 1.33 * 8 * grid^2; the kept triangle at 0.74
        pdf_e = hs.LocalPdfSpec.truncnorm_centered(0.35)
        _preimage_table(pdf_e, k56_params, 5, 33)  # first-call imports off the books
        points = 2049
        peak = traced_peak(_preimage_table, pdf_e, k56_params, 5, points)
        assert peak <= 0.85 * 8 * points**2


class TestIndependentClosedForm:
    def test_k1_at_support_floor(self, k56_params):
        assert hs.independent_closed_form(UNIFORM, k56_params, 0.0, 1) == \
            pytest.approx(24.0)
        xs = np.asarray([0.0, 0.125, 0.5, 0.875])
        got = hs.independent_closed_form(UNIFORM, k56_params, xs, 1)
        assert np.allclose(got, 24 * (1 - xs) ** 24, rtol=1e-14, atol=0.0)

    def test_k3_plugin_arithmetic(self, k56_params):
        # s^3 * (b0 b1 b2) / (1 * (s+1) * (2s+1)) with b2 = 5/12
        expected = 24**3 * (5 / 12) / (25 * 49)
        got = hs.independent_closed_form(UNIFORM, k56_params, 0.0, 3)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(4.702, abs=5e-4)

    def test_beyond_diameter_is_zero(self, k56_params):
        assert hs.independent_closed_form(UNIFORM, k56_params, 0.0, 8) == 0.0
        for k in (1, 2, 5):  # and at the worst loss, which no neighbor descends to
            assert hs.independent_closed_form(UNIFORM, k56_params, 1.0, k) == 0.0

    def test_series_ends_at_underflow(self):
        # b = 1 out to depth 1000: the branching product underflows first
        coeffs = theory._series_coeffs(hs.TheoryParams(n=10**9, s=1, b=np.ones(1000)))
        assert 100 < len(coeffs) < theory._MAX_TERMS
        assert coeffs[0] == 1.0 and min(coeffs) > 0.0


class TestFullPreimage:
    def test_series_against_term_oracle(self, k56_params):
        # independent term-by-term summation, written out explicitly
        s, bs = 24, [1, 5 / 12, 2 / 9, 1 / 8, 1 / 15, 1 / 36]
        total, prod = 0.0, 1.0
        for m in range(1, 8):
            b_prev = 1.0 if m == 1 else (bs[m - 2] if m - 2 < len(bs) else 0.0)
            prod *= b_prev / ((m - 1) * s + 1)
            total += s**m * prod  # G(0) = 1
        got = hs.full_preimage_series(UNIFORM, k56_params, 0.0)
        assert got == pytest.approx(total, rel=1e-9)

    def test_worst_loss(self, k56_params):
        assert hs.full_preimage_series(UNIFORM, k56_params, 1.0) == 0.0

    @pytest.mark.parametrize("b", [None, np.ones(40)], ids=["k56", "b1"])
    def test_series_is_sum_of_closed_forms(self, k56_params, b):
        params = k56_params if b is None else hs.TheoryParams(n=10**9, s=4, b=b)
        xs = np.linspace(0.0, 1.0, 101)
        want = sum(hs.independent_closed_form(UNIFORM, params, xs, k) for k in range(1, 64))
        got = hs.full_preimage_series(UNIFORM, params, xs)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("g_val", [0.5, 0.9, 1.0])
    @pytest.mark.parametrize("s", [4, 24])
    def test_tree_series_within_bounds(self, g_val, s):
        params = hs.TheoryParams(n=10**9, s=s, b=np.ones(64))
        # pdf with survival g_val at x: uniform survival is 1 - x
        x = 1.0 - g_val
        series = hs.full_preimage_series(UNIFORM, params, x)
        lower, upper = hs.full_preimage_bounds(g_val, s)
        assert lower <= series <= upper

    def test_bounds_values(self):
        assert hs.full_preimage_bounds(0.0, 24) == (0.0, 0.0)
        lower, upper = hs.full_preimage_bounds(1.0, 24)
        assert lower == pytest.approx(24 * math.exp(24 / 25), rel=1e-12)
        assert upper == pytest.approx(24 * math.e, rel=1e-12)
        assert lower <= upper

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            hs.full_preimage_bounds(1.5, 4)


class TestSuccessCurve:
    def test_uniform_matches_closed_form_series(self, k56_params):
        eps = np.linspace(0.0, 0.3, 61)
        curve = hs.success_curve(UNIFORM, UNIFORM_LOCAL, k56_params, eps, max_k=5)
        # closed-form terms i = 0..5 use b_0..b_4, so pass b_1..b_4 only
        closed = hs.uniform_closed_form_curve(
            k56_params.n, k56_params.s, k56_params.b[:4], eps)
        got = np.asarray([f for _, f in curve])
        want = np.asarray([f for _, f in closed])
        assert np.max(np.abs(got - want)) < 1e-4

    def test_eps_zero(self, k56_params):
        curve = hs.success_curve(UNIFORM, UNIFORM_LOCAL, k56_params, [0.0])
        assert curve[0][1] == 0.0

    def test_rejects_non_finite_eps(self, k56_params):
        for eps in ([0.1, np.nan], [0.0, np.inf]):
            with pytest.raises(ValueError, match="finite"):
                hs.success_curve(UNIFORM, UNIFORM_LOCAL, k56_params, eps)

    def test_fitted_pipeline_vs_simulation(self, k56_module):
        # fitted-pdf pipeline on a synthetic correlated landscape:
        # theory tracks the simulated curve closely at small eps and
        # overshoots mid-range; the documented envelope is 0.3 absolute
        scape = hs.sample_markov_truncnorm(k56_module, 0.35, 0.25, 0.18, seed=4242)
        view = hs.LandscapeView(scape, hs.NoiseSpec.none(), seed=0)
        vals = view.frozen_values()
        fit = hs.fit_global_truncnorm(vals)
        eps = np.linspace(0, 0.1, 101)
        sim = np.asarray([f for _, f in hs.within_epsilon_curve(view, eps)])
        params = hs.TheoryParams.from_topology(k56_module, ell_star=float(vals.min()))
        theo = hs.success_curve(hs.PdfSpec.truncnorm(fit.center, fit.sigma),
                                hs.LocalPdfSpec.truncnorm_centered(0.35),
                                params, eps)
        theo = np.asarray([f for _, f in theo])
        assert abs(sim[1] - theo[1]) < 0.05        # near-exact at eps -> 0
        assert np.max(np.abs(sim - theo)) < 0.3    # measured max gap ~ 0.22
        assert (np.diff(theo) >= -1e-12).all()


class TestUniformClosedForms:
    def test_minima_count(self):
        assert hs.uniform_closed_form_minima(15625, 24) == 625.0
        assert hs.uniform_closed_form_minima(3, 2) == 1.0
        assert hs.uniform_closed_form_minima(25, 24) == 1.0

    def test_curve_at_zero(self, k56_params):
        curve = hs.uniform_closed_form_curve(15625, 24, k56_params.b, [0.0])
        assert curve[0][1] == 0.0

    def test_terms_match_hand_arithmetic(self):
        # b = [1, 0] keeps terms i = 0, 1, 2; the i = 0 term at eps = 1 is the
        # minima fraction 1/(s+1), the higher terms follow the b_0 = 1 convention
        s = 24
        curve = hs.uniform_closed_form_curve(100, s, [1.0, 0.0], [1.0])
        expected = 1 / (s + 1) + s / (2 * s + 1) + s**2 / ((3 * s + 1) * (s + 1))
        assert curve[0][1] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("b", [None, np.ones(40)], ids=["k56", "b1"])
    def test_coefficients_are_preimage_coefficients(self, k56_params, b):
        # coeff_i = c_i / ((i+1)s+1), with c_i the closed-form preimage
        # coefficient (its value at uniform loss 0, where G = 1)
        params = k56_params if b is None else hs.TheoryParams(n=10**9, s=4, b=b)
        s = params.s
        _, coeffs, _ = theory._uniform_series(params, np.asarray([1.0]))
        want = [1.0 / (s + 1)] + [
            hs.independent_closed_form(UNIFORM, params, 0.0, i) / ((i + 1) * s + 1)
            for i in range(1, len(coeffs))]
        assert coeffs.tolist() == want
        assert hs.independent_closed_form(UNIFORM, params, 0.0, len(coeffs)) == 0.0

    def test_monotone_and_bounded(self, k56_params):
        eps = np.linspace(0, 1, 101)
        fr = np.asarray([f for _, f in hs.uniform_closed_form_curve(
            15625, 24, k56_params.b, eps)])
        assert (np.diff(fr) >= 0).all()
        assert fr[-1] <= 1.0
        clique = np.asarray([f for _, f in hs.uniform_closed_form_curve(
            25, 24, [1.0], eps)])
        assert (np.diff(clique) >= 0).all()
        assert clique[-1] <= 1.0

    def test_eps_above_one_gives_value_at_one(self):
        # losses lie in [0, 1]; unclipped, (1 - eps) is a negative base and
        # eps = 2 gave 1.69 on K_25
        at_one = hs.uniform_closed_form_curve(25, 24, [1.0], [1.0])[0][1]
        curve = hs.uniform_closed_form_curve(25, 24, [1.0], [0.1, 0.5, 1.0, 2.0])
        assert curve[-1] == (2.0, at_one)
        assert at_one <= 1.0

    def test_rejects_bad_eps(self):
        for eps in ([0.5, 0.1, 2.0], [0.1, np.nan], [0.1, np.inf], [-0.1], [[0.1]]):
            with pytest.raises(ValueError, match="eps grid"):
                hs.uniform_closed_form_curve(25, 24, [1.0], eps)

    def test_complete3_exactness_caveat(self):
        # the theory is approximate on small dense graphs: at eps = 1 it
        # predicts ~0.924 n while exhaustive search reaches every node (n);
        # the discrepancy itself is stable and reproduced within 0.03 n
        t = hs.make_complete(3)
        curve = hs.uniform_closed_form_curve(3, 2, [1.0], [1.0])
        theory_frac = curve[0][1]
        assert theory_frac == pytest.approx(1 / 3 + 2 / 5 + (4 / 7) * (1 / 3), rel=1e-12)
        sims = []
        for seed in range(50):
            view = hs.LandscapeView(hs.sample_uniform(t, seed), hs.NoiseSpec.none(), 0)
            sims.append(hs.within_epsilon_curve(view, [1.0])[0][1])
        sim_frac = float(np.mean(sims))
        assert sim_frac == 1.0
        discrepancy = sim_frac - theory_frac
        assert discrepancy == pytest.approx(1.0 - 0.9238, abs=0.03)


class TestCliquePowerUniformCurve:
    @staticmethod
    def _curve(m, d, eps):
        return np.asarray([f for _, f in hs.clique_power_uniform_curve(m, d, eps)])

    def test_single_clique_is_exact(self):
        # on K_m every start steps straight to the global minimum, so the
        # within-eps fraction is P(min of m uniforms <= eps)
        eps = np.linspace(0.0, 1.0, 101)
        for m in (2, 3, 5, 8):
            assert self._curve(m, 1, eps) == pytest.approx(1.0 - (1.0 - eps) ** m,
                                                          rel=1e-12, abs=1e-15)
        t = hs.make_complete(3)
        sims = [hs.within_epsilon_curve(
            hs.LandscapeView(hs.sample_uniform(t, seed), hs.NoiseSpec.none(), 0),
            [1.0])[0][1] for seed in range(50)]
        assert self._curve(3, 1, [1.0])[0] == pytest.approx(np.mean(sims), abs=1e-12)

    def test_unit_mass_and_monotone(self):
        eps = np.concatenate([np.linspace(0.0, 1.0, 201), [1.5, 4.0]])
        for m, d in ((2, 2), (2, 12), (3, 7), (5, 6), (10, 2), (29, 29)):
            fr = self._curve(m, d, eps)
            assert fr[0] == 0.0
            assert (np.diff(fr) >= 0).all()
            assert fr[200:] == pytest.approx(1.0, abs=1e-12)

    def test_deep_mass_is_non_negative(self):
        for m in range(2, 30):
            for d in range(1, 30):
                rest = 1 - sum(mass for mass, _ in _clique_power_depths(m, d))
                assert rest >= 0 if d > 1 else rest == 0

    @pytest.mark.parametrize("m,d", [(4, 3), (3, 4)])
    def test_shallow_depths_match_exhaustive_profile(self, m, d):
        # per-depth share of starts whose terminal loss is within eps, from
        # the exhaustive successor map of each landscape, against
        # mass_k * (1 - (1-eps)^a_k) for depths 0, 1, 2
        t = hs.make_clique_power(m, d)
        eps = np.asarray([0.02, 0.05, 0.1, 1.0])
        n_land = 5000
        shares = np.zeros((n_land, 3, len(eps)))
        for i in range(n_land):
            scape = hs.sample_uniform(t, seed=hs.mix64(20261018, i))
            smap = hs.successor_map(hs.LandscapeView(scape, hs.NoiseSpec.none(), 0))
            terminal, depth = _fixed_points_and_depth(smap.succ)
            within = smap.values[terminal][:, None] <= eps[None, :]
            for k in range(3):
                shares[i, k] = (within & (depth == k)[:, None]).mean(axis=0)
        mean = shares.mean(axis=0)
        se = shares.std(axis=0, ddof=1) / math.sqrt(n_land)
        for k, (mass, a) in enumerate(_clique_power_depths(m, d)):
            want = float(mass) * (1.0 - (1.0 - eps) ** a)
            z = np.abs(mean[k] - want) / se[k]
            assert (z <= 3.0).all(), f"depth {k}: z = {z}"

    def test_rejects_bad_input(self):
        for args in ((1, 3, [0.1]), (5, 0, [0.1]), (5, 2, [-0.1, 0.2]),
                     (5, 2, [0.2, 0.1]), (5, 2, [0.1, np.nan]), (5, 2, [[0.1]])):
            with pytest.raises(ValueError):
                hs.clique_power_uniform_curve(*args)


class TestChebyshevBound:
    def test_sigma_zero(self):
        assert hs.chebyshev_minima_bound(UNIFORM, UNIFORM_LOCAL, 4, 0.0, 100) == 0.0

    def test_non_finite_delta_and_sigma_rejected(self):
        # a NaN delta used to exclude every cell and return a bound of 0.0
        for delta in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="delta must be finite"):
                hs.chebyshev_minima_bound(UNIFORM, UNIFORM_LOCAL, 4, 0.1, 100, delta)
        for sigma in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sigma must be finite"):
                hs.chebyshev_minima_bound(UNIFORM, UNIFORM_LOCAL, 4, sigma, 100)

    @pytest.mark.parametrize("delta", [-0.5, 0.0, 1.0, 2.0])
    def test_delta_outside_unit_interval_rejected(self, delta):
        # these used to return inf (delta <= 0) or 0.0 (delta = 2) silently
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            hs.chebyshev_minima_bound(UNIFORM, UNIFORM_LOCAL, 4, 0.1, 100, delta)

    @pytest.mark.parametrize("points", ORACLE_POINTS)
    def test_equals_whole_grid_form(self, points):
        pdf_n, pdf_sep = _separated_specs()
        cases = [
            (hs.PdfSpec.truncnorm(0.25, 0.18), hs.LocalPdfSpec.truncnorm_centered(0.35),
             24, 0.05, 15625, 1e-3),
            (pdf_n, pdf_sep, 2, 0.1, 1000, 1e-3),
            (UNIFORM, UNIFORM_LOCAL, 4, 0.1, 100, 0.05),
            # pdf_n is zero below 0.6, so past one block the first block's rows
            # are all zero and the overflow to inf happens only in later blocks
            (pdf_n, UNIFORM_LOCAL, 128, 0.1, 15625, 1e-7),
        ]
        for args in cases:
            if args[0] is pdf_n and points == 9:
                # its step has Simpson mass 1.146 on 9 points: the grid cannot resolve it
                with pytest.raises(ValueError, match="needs more grid points"):
                    hs.chebyshev_minima_bound(*args, grid_points=points)
                continue
            got = hs.chebyshev_minima_bound(*args, grid_points=points)
            assert got == whole_grid_bound(*args, points)
        assert (got == float("inf")) == (points > _ROW_BLOCK)

    @pytest.mark.parametrize("points", [9, 129, 2048, 2049])
    @pytest.mark.parametrize("delta", [1e-3, 0.3])
    @pytest.mark.parametrize("local", ["uniform", "truncnorm-local"])
    @pytest.mark.parametrize("s", [24, 64])
    def test_equals_masked_index_formula(self, points, delta, local, s):
        # each row block is np.where(mask, dens * core, 0.0) with core taken
        # over the whole block; whole_grid_bound gathers and scatters the
        # masked cells, as the blocks did before
        pdf_n = hs.PdfSpec.truncnorm(0.25, 0.18)
        pdf_e = UNIFORM_LOCAL if local == "uniform" else hs.LocalPdfSpec.truncnorm_centered(0.35)
        args = (pdf_n, pdf_e, s, 0.05, 15625, delta)
        got = hs.chebyshev_minima_bound(*args, grid_points=points)
        assert got == whole_grid_bound(*args, points)
        # at s = 64 a block next to the diagonal overflows once cells are fine enough
        assert (got == float("inf")) == (s == 64 and delta == 1e-3 and points > 129)

    def test_unresolved_pdf_n_rejected_as_in_minima_fraction(self):
        # a spike of width 0.003 on 129 points: the bound used to return 21.56
        # (22.90 at 8193 points) where expected_minima_fraction raises
        pdf_n = hs.PdfSpec.truncnorm(0.5, 0.003)
        for f, args in ((hs.chebyshev_minima_bound, (4, 0.1, 100, 0.05)),
                        (hs.expected_minima_fraction, (4,))):
            with pytest.raises(ValueError, match="needs more grid points"):
                f(pdf_n, UNIFORM_LOCAL, *args, grid_points=129)

    def test_holds_no_grid_squared_array(self):
        pdf_n = hs.PdfSpec.truncnorm(0.25, 0.18)
        pdf_e = hs.LocalPdfSpec.truncnorm_centered(0.35)
        points = 2049
        hs.chebyshev_minima_bound(pdf_n, pdf_e, 24, 0.05, 15625, grid_points=33)
        peak = traced_peak(hs.chebyshev_minima_bound, pdf_n, pdf_e, 24, 0.05, 15625,
                           1e-3, points)
        assert peak <= 0.5 * 8 * points**2

    def test_doubling_sigma_scales_exactly(self):
        pdf_n, pdf_e = _separated_specs()
        b1 = hs.chebyshev_minima_bound(pdf_n, pdf_e, 2, 0.1, 1000)
        b2 = hs.chebyshev_minima_bound(pdf_n, pdf_e, 2, 0.2, 1000)
        assert b2 / b1 == pytest.approx(2**4, rel=1e-9)

    def test_vacuous_reported_as_inf(self):
        # with mass adjacent to the diagonal and a large degree the integrand
        # overflows float range; the bound reports inf instead of a number
        got = hs.chebyshev_minima_bound(UNIFORM, UNIFORM_LOCAL, 64, 0.1, 15625,
                                        delta=1e-7)
        assert got == float("inf")

    def test_bound_dominates_simulation(self):
        # generative model of the bound: x ~ pdf_n, one shared neighbor loss
        # y ~ g, s independent gaussians; count survivals of all s comparisons
        pdf_n, pdf_e = _separated_specs()
        s, sigma, n = 2, 0.3, 1000
        bound = hs.chebyshev_minima_bound(pdf_n, pdf_e, s, sigma, n)
        assert np.isfinite(bound)
        rng = np.random.default_rng(4)
        trials = 400_000
        x = 0.6 + 0.4 * rng.random(trials)
        y = 0.4 * rng.random(trials)
        eps = sigma * rng.standard_normal((trials, s))
        hits = (eps > (x - y)[:, None]).all(axis=1)
        est = n * hits.mean()
        se = n * hits.std() / math.sqrt(trials)
        assert bound >= est - 3 * se
        assert est > 0  # the simulation actually exercises the event


def _separated_specs():
    """pdf_n on [0.6, 1], local g on [0, 0.4]: |x - y| >= 0.2 wherever mass sits."""
    ramp = 1e-4
    h_n = 1.0 / (0.4 - ramp / 2)
    pdf_n = hs.PdfSpec.tabulated([0.0, 0.6, 0.6 + ramp, 1.0], [0, 0, h_n, h_n])
    h_g = 1.0 / (0.4 - ramp / 2)
    g = hs.PdfSpec.tabulated([0.0, 0.4 - ramp, 0.4, 1.0], [h_g, h_g, 0, 0])
    return pdf_n, hs.LocalPdfSpec.independent(g)


def per_pair_global_fit(losses):
    """fit_global_truncnorm as a double loop: one model density per
    (sigma, center), the first strict minimum kept."""
    hist, edges = np.histogram(losses, bins=50, range=(0.0, 1.0), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    best = None
    for sig in np.round(np.arange(0.02, 1.0 + 1e-9, 0.01), 2):
        for v in np.round(np.arange(0.0, 1.0 + 1e-9, 0.05), 2):
            model = theory.truncnorm_pdf(centers, v, sig)
            obj = float(np.sqrt(np.sum((hist - model) ** 2)))
            if best is None or obj < best[0]:
                best = (obj, float(sig), float(v))
    return hs.GlobalFit(sigma=best[1], center=best[2], objective=best[0])


class TestFits:
    def test_global_round_trip(self):
        rng = np.random.default_rng(11)
        losses = hs.sample_truncnorm(0.25, 0.18, rng, size=100_000)
        fit = hs.fit_global_truncnorm(losses)
        assert abs(fit.sigma - 0.18) <= 0.02
        assert abs(fit.center - 0.25) <= 0.05

    def test_global_cifar100_value(self):
        rng = np.random.default_rng(12)
        losses = hs.sample_truncnorm(0.25, 0.10, rng, size=100_000)
        fit = hs.fit_global_truncnorm(losses)
        assert abs(fit.sigma - 0.10) <= 0.02

    def test_constant_input_degenerate(self):
        # constant aligned with the center grid: narrowest sigma wins outright
        fit = hs.fit_global_truncnorm(np.full(500, 0.40))
        assert fit.sigma == 0.02  # smallest grid value
        assert abs(fit.center - 0.40) <= 0.05

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="insufficient data"):
            hs.fit_global_truncnorm(np.linspace(0, 1, 10))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.1])
    def test_losses_outside_unit_interval(self, bad):
        # a NaN used to pass the range check and fit with a NaN objective
        with pytest.raises(ValueError, match=r"losses must lie in \[0, 1\]"):
            hs.fit_global_truncnorm(np.full(100, bad))

    @pytest.mark.parametrize("losses", [
        lambda: hs.sample_truncnorm(0.25, 0.18, np.random.default_rng(11), size=5000),
        lambda: hs.sample_markov_truncnorm(hs.make_clique_power(5, 4), 0.35, 0.25, 0.18,
                                           seed=3).val_loss,
        lambda: np.random.default_rng(4).random(300),
        lambda: np.full(500, 0.40),
    ], ids=["truncnorm", "markov", "uniform", "constant"])
    def test_global_equals_per_pair_loop(self, losses):
        values = losses()
        assert hs.fit_global_truncnorm(values) == per_pair_global_fit(values)

    @pytest.mark.parametrize("model", [
        # flat at round(center + sigma, 1): the minimum is tied along
        # center + sigma = const, so sigma-major and center-major order differ
        lambda u, c, s: np.round(10 * (c + s)) / 10 * np.ones_like(u),
        lambda u, c, s: np.ones(np.broadcast_shapes(np.shape(u), np.shape(c))),
    ], ids=["flat-by-center-plus-sigma", "flat"])
    def test_global_ties_go_to_first_in_sigma_major_order(self, model, monkeypatch):
        monkeypatch.setattr(theory, "truncnorm_pdf", model)
        values = hs.sample_truncnorm(0.3, 0.2, np.random.default_rng(2), size=2000)
        assert hs.fit_global_truncnorm(values) == per_pair_global_fit(values)

    def test_rwa_single_candidate(self, k56_module):
        obs = np.asarray([[0, 0.0, 1.0], [1, 1.0, 0.2], [2, 1.414, 0.1]])
        fit = hs.fit_local_sigma_via_rwa(obs, k56_module, [0.35], seed=1,
                                         walk_len=2000)
        assert fit.sigma == 0.35

    def test_rwa_white_noise_selects_largest(self, k56_module):
        rng = np.random.default_rng(3)
        lags = np.arange(0, 17)
        rho = np.concatenate([[1.0], 0.002 * rng.standard_normal(16)])
        obs = np.column_stack([lags, np.sqrt(lags), rho])
        fit = hs.fit_local_sigma_via_rwa(obs, k56_module, [0.2, 0.35, 0.5],
                                         seed=5, walk_len=50_000)
        assert fit.sigma == 0.5
