"""Closed-form and quadrature evaluation of local-search performance.

Predictions are driven by two densities on [0, 1]: a global one for node
losses (``PdfSpec``) and a local one for a neighbor's loss given a node's
loss (``LocalPdfSpec``), together with the graph parameters (degree ``s``
and branching fractions ``b_k``, with ``b_0 = 1`` by convention).

All integrals run on a shared uniform grid (default 2049 points).  Plain
integrals use composite Simpson, written in numpy on the uniform grid
(with scipy's last-interval correction for an even point count);
cumulative ones use an endpoint-corrected trapezoid (the Euler-Maclaurin
h^2/12 term with second-order numerical derivatives), which matches
Simpson-class accuracy while vectorizing cheaply over matrices.

For a center-independent local pdf with survival G, the expected k-th
preimage is the closed form c_k G(x)^{sk} with
c_k = s^k prod_{j<k} b_j/(js+1), exact because the integral of
g(y) G(y)^m from x to 1 is G(x)^{m+1}/(m+1).  One helper,
``_series_coeffs``, computes the c_k; the full-preimage sum and the
uniform within-eps curve read the same list.  For center-dependent local
pdfs the preimage recursion is memoized on the grid: the integral from
x_i to 1 of a row of samples is a fixed linear functional of that row.
Its weights are zero left of the subdiagonal, so their product with the
local pdf is kept only from there on: about half a grid-by-grid array
(4 grid^2 bytes), filled in blocks of ``_ROW_BLOCK`` rows together with
the first depth, so the pdf, weight and tail values exist one row block
at a time.  Each further depth is one O(grid^2) matrix-vector product,
taken row block by row block without BLAS, so the table does not depend
on the BLAS thread count.
The Chebyshev bound is likewise summed one row block at a time.

The truncated-normal densities come from ``landscape``, whose normal CDF is
evaluated in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import analysis
from .landscape import (LandscapeView, NoiseSpec, _cdf_ends, sample_markov_truncnorm,
                        truncnorm_pdf, truncnorm_sf)
from .seeding import mix64
from .topology import Topology, _clique_power_branching, branching_fractions

__all__ = [
    "PdfSpec",
    "LocalPdfSpec",
    "TheoryParams",
    "DEFAULT_GRID_POINTS",
    "expected_minima_fraction",
    "independent_closed_form",
    "full_preimage_series",
    "full_preimage_bounds",
    "success_curve",
    "uniform_closed_form_minima",
    "uniform_closed_form_curve",
    "clique_power_uniform_curve",
    "chebyshev_minima_bound",
    "fit_global_truncnorm",
    "fit_local_sigma_via_rwa",
    "GlobalFit",
    "RwaFit",
]

DEFAULT_GRID_POINTS = 2049  # even interval count for Simpson
_PDF_TOL = 1e-6
_ROW_BLOCK = 128  # grid rows per block of the grid-by-grid quadratures
_MAX_TERMS = 512  # longest independence series


def _grid(points: int) -> np.ndarray:
    if points < 9:
        raise ValueError("grid needs at least 9 points")
    return np.linspace(0.0, 1.0, points)


def _simpson(y, x) -> float:
    """Composite Simpson integral of samples ``y`` on the uniform grid ``x``.

    An even point count integrates all but the last interval by Simpson and
    adds scipy's correction for the last one (weights 5h/12, 2h/3, -h/12 on
    the last three samples).
    """
    y = np.asarray(y, dtype=float)
    h = float(x[1] - x[0])
    if len(y) % 2:
        return float(np.sum(y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2]) * (h / 3.0))
    head = np.sum(y[0:-3:2] + 4.0 * y[1:-2:2] + y[2:-1:2]) * (h / 3.0)
    return float(head + 5.0 * h / 12.0 * y[-1] + 2.0 * h / 3.0 * y[-2]
                 - h / 12.0 * y[-3])


def _prefix(y, x, axis=-1):
    """Cumulative integral of samples ``y`` along the uniform grid ``x``.

    Endpoint-corrected trapezoid: the h^2/12 Euler-Maclaurin term is removed
    using second-order numerical derivatives, leaving O(h^4) error for
    smooth integrands.  Zero at the left edge.
    """
    y = np.asarray(y, dtype=float)
    h = float(x[1] - x[0])
    yc = np.moveaxis(y, axis, -1)
    cells = 0.5 * h * (yc[..., 1:] + yc[..., :-1])
    zeros = np.zeros(yc.shape[:-1] + (1,))
    trap = np.concatenate([zeros, np.cumsum(cells, axis=-1)], axis=-1)
    dy = np.gradient(yc, h, axis=-1, edge_order=2)
    out = trap - (h * h / 12.0) * (dy - dy[..., :1])
    return np.moveaxis(out, -1, axis)


def _weight_blocks(xs):
    """Row blocks ``(rows, W[rows])`` of the weights of the integral to 1.

    ``W[i] @ y`` is ``_prefix(y, xs)[-1] - _prefix(y, xs)[i]`` bit for bit,
    and W[i, j] is +0.0 for every j <= i - 2.
    ``_prefix`` is linear, so W[i, j] = P_j[-1] - P_j[i] with P_j the prefix
    of the j-th unit vector.  For a column j at least three samples from
    either end, P_j[i] depends only on i - j, and is the same for every
    i - j <= -2 and for every i - j >= 2; so one interior prefix, slid
    along the diagonal, gives those columns and six more prefixes give the
    edge columns.
    """
    n = len(xs)
    cols = np.array([0, 1, 2, n - 3, n - 2, n - 1, n // 2])
    units = np.zeros((cols.size, n))
    units[np.arange(cols.size), cols] = 1.0
    P = _prefix(units, xs)
    edge, mid = cols[:-1], cols[-1]
    W_edge = (P[:-1, -1:] - P[:-1]).T
    # interior W[i, j] = R[j - i + n - 1]: row i is the window R[n-1-i : 2n-1-i]
    R = P[-1, -1] - P[-1, mid + np.clip(np.arange(n - 1, -n, -1), -2, 2)]
    W = np.lib.stride_tricks.sliding_window_view(R, n)[::-1]
    for r0 in range(0, n, _ROW_BLOCK):
        rows = slice(r0, r0 + _ROW_BLOCK)
        block = W[rows].copy()
        block[:, edge] = W_edge[rows]
        yield rows, block


# -- global pdf ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PdfSpec:
    """A probability density on [0, 1]: uniform, truncated normal, or tabulated."""

    kind: str
    center: float = 0.0
    sigma: float = 0.0
    xs: np.ndarray | None = None
    ys: np.ndarray | None = None

    @classmethod
    def uniform01(cls):
        return cls("uniform")

    @classmethod
    def truncnorm(cls, center: float, sigma: float):
        if not (np.isfinite(center) and np.isfinite(sigma)):
            raise ValueError("center and sigma must be finite")
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        lo, hi = _cdf_ends(center, sigma)
        if not hi - lo > 0:
            raise ValueError(f"truncated normal ({center}, {sigma}) has no normal "
                             "mass on [0, 1]")
        return cls("truncnorm", center=float(center), sigma=float(sigma))

    @classmethod
    def tabulated(cls, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
            raise ValueError("tabulated pdf needs matching 1-d grids")
        if (np.diff(xs) <= 0).any() or xs[0] < 0 or xs[-1] > 1:
            raise ValueError("tabulated grid must be ascending within [0, 1]")
        if (ys < 0).any():
            raise ValueError("density must be non-negative")
        total = np.trapezoid(ys, xs)
        if abs(total - 1.0) > _PDF_TOL:
            raise ValueError(f"tabulated density integrates to {total}, not 1")
        return cls("tabulated", xs=xs, ys=ys)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "uniform":
            out = np.where((x >= 0.0) & (x <= 1.0), 1.0, 0.0)
        elif self.kind == "truncnorm":
            out = np.asarray(truncnorm_pdf(x, self.center, self.sigma))
        else:
            out = np.interp(x, self.xs, self.ys, left=0.0, right=0.0)
        return out if out.ndim else float(out)

    def survival(self, x):
        """P(X > x) for x in [0, 1] (1 below 0, 0 above 1)."""
        x = np.asarray(x, dtype=float)
        xc = np.clip(x, 0.0, 1.0)
        if self.kind == "uniform":
            out = 1.0 - xc
        elif self.kind == "truncnorm":
            out = truncnorm_sf(xc, self.center, self.sigma)
        else:
            cum = np.concatenate([[0.0], np.cumsum(
                0.5 * (self.ys[1:] + self.ys[:-1]) * np.diff(self.xs))])
            total = cum[-1]
            out = total - np.interp(xc, self.xs, cum, left=0.0, right=total)
            out = np.clip(out, 0.0, 1.0)
        return out if out.ndim else float(out)


# -- local pdf ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LocalPdfSpec:
    """Neighbor-loss density pdf_e(center, y) on [0, 1].

    ``independent`` ignores the center entirely (pdf_e(x, y) = g(y));
    ``truncnorm_centered`` re-centers a [0,1]-truncated normal at the
    current loss.
    """

    kind: str
    g: PdfSpec | None = None
    sigma: float = 0.0

    @classmethod
    def independent(cls, g: PdfSpec):
        return cls("independent", g=g)

    @classmethod
    def truncnorm_centered(cls, sigma: float):
        if not np.isfinite(sigma) or sigma <= 0:
            raise ValueError("sigma must be finite and positive")
        return cls("truncnorm_centered", sigma=float(sigma))

    def density(self, center, y):
        """pdf_e(center, y); ``center`` and ``y`` broadcast elementwise."""
        center = np.asarray(center, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "independent":
            dens = np.asarray(self.g.density(y))
            out = np.broadcast_to(dens, np.broadcast_shapes(center.shape, y.shape))
            return out if out.ndim else float(out)
        out = np.asarray(truncnorm_pdf(y, center, self.sigma))
        return out if out.ndim else float(out)

    def survival(self, center, lower):
        """Integral of pdf_e(center, z) for z from ``lower`` to 1 (broadcasts)."""
        center = np.asarray(center, dtype=float)
        lower = np.asarray(lower, dtype=float)
        if self.kind == "independent":
            out = np.asarray(self.g.survival(lower))
            out = np.broadcast_to(out, np.broadcast_shapes(center.shape, lower.shape))
            return out if out.ndim else float(out)
        out = truncnorm_sf(lower, center, self.sigma)
        return out if out.ndim else float(out)


@dataclass(frozen=True, eq=False)
class TheoryParams:
    """Graph-side inputs: node count, degree, branching fractions, loss floor."""

    n: int
    s: int
    b: np.ndarray
    ell_star: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if self.n < 1 or self.s < 1:
            raise ValueError("n and s must be >= 1")
        if not np.isfinite(self.b).all():
            raise ValueError("branching fractions must be finite")
        if self.b.size and not np.isclose(self.b[0], 1.0):
            raise ValueError("b_1 must be 1")
        if ((self.b < 0) | (self.b > 1.0 + 1e-12)).any():
            raise ValueError("branching fractions must lie in [0, 1]")
        if not 0.0 <= self.ell_star < 1.0:
            raise ValueError("ell_star must lie in [0, 1)")

    @classmethod
    def from_topology(cls, t: Topology, reference: int = 0, ell_star: float = 0.0):
        if t.degree is None or t.degree < 1:
            raise ValueError("theory parameters need a regular topology with degree >= 1")
        return cls(n=t.n, s=t.degree, b=branching_fractions(t, reference),
                   ell_star=ell_star)

    def b_at(self, j: int) -> float:
        """b_j with the b_0 = 1 convention and 0 beyond the diameter."""
        if j == 0:
            return 1.0
        if j - 1 < self.b.size:
            return float(self.b[j - 1])
        return 0.0


def _series_coeffs(params: TheoryParams) -> list[float]:
    """c_k = s^k prod_{j=0}^{k-1} b_j / (j s + 1) for k = 0, 1, ... (c_0 = 1).

    The list ends before the first zero branching product (past the
    diameter, or on underflow), after at most ``_MAX_TERMS`` terms.
    """
    s = params.s
    coeffs, prod = [], 1.0
    for i in range(_MAX_TERMS):
        coeffs.append(float(s) ** i * prod)
        prod *= params.b_at(i) / (i * s + 1)
        if prod == 0.0:
            break
    return coeffs


# -- expected minima fraction ---------------------------------------------------


def expected_minima_fraction(pdf_n: PdfSpec, pdf_e: LocalPdfSpec, s: int,
                             grid_points: int = DEFAULT_GRID_POINTS) -> float:
    """Expected fraction of nodes that are local minima.

    Quadrature of  integral pdf_n(x) * (integral_x^1 pdf_e(x, y) dy)^s dx.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    xs = _grid(grid_points)
    integrand = pdf_n.density(xs) * pdf_e.survival(xs, xs) ** s
    out = _simpson(integrand, xs)
    if not np.isfinite(out):
        raise ValueError("quadrature failed (non-finite integrand)")
    return out


# -- preimage machinery ---------------------------------------------------------


def _preimage_table(pdf_e: LocalPdfSpec, params: TheoryParams, max_k: int,
                    grid_points: int) -> tuple[np.ndarray, np.ndarray]:
    """E[|LS^-k|](x) for k = 1..max_k on the shared grid: the closed form for
    a center-independent local pdf, the quadrature recursion otherwise."""
    xs = _grid(grid_points)
    s = params.s
    n_pts = len(xs)
    E = np.zeros((max_k, n_pts))

    if pdf_e.kind == "independent":
        for k in range(1, max_k + 1):
            E[k - 1] = independent_closed_form(pdf_e.g, params, xs, k)
        return xs, E

    # center-dependent local pdf: the integral of row i from x_i to 1 is
    # W[i] @ row (see _weight_blocks), and W[i, j] is +0.0 for j <= i - 2; so
    # the row block from r0 keeps PW[i, j] = pdf_e(x_i, y_j) * W[i, j] only on
    # the columns from c0 = max(r0 - 1, 0), about half the grid-by-grid array.
    # Each sum runs over the block zero-padded back to full width, so it adds
    # the terms of the whole row in the whole row's order; einsum keeps the
    # products off BLAS, whose result depends on its thread count.
    pad = np.empty((_ROW_BLOCK, n_pts))

    def padded(c0, block):
        full = pad[:len(block)]
        full[:, :c0] = 0.0
        full[:, c0:] = block
        return full

    blocks = []
    for rows, W in _weight_blocks(xs):
        c0 = max(rows.start - 1, 0)
        ys = xs[None, c0:]
        pw = pdf_e.density(xs[rows, None], ys) * W[:, c0:]
        tail = pdf_e.survival(ys, xs[rows, None])  # int_{x_i}^1 pdf_e(y_j, .)
        E[0, rows] = s * padded(c0, pw * tail ** (s - 1)).sum(axis=1)
        blocks.append((rows, c0, pw))
    denom = pdf_e.survival(xs, xs)
    numer = np.empty(n_pts)
    for k in range(2, max_k + 1):
        b = params.b_at(k - 1)
        if b == 0.0:
            break
        for rows, c0, pw in blocks:
            numer[rows] = np.einsum("ij,j->i", padded(c0, pw), E[k - 2])
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(denom > 1e-300, numer / denom, 0.0)
        E[k - 1] = b * E[0] * ratio
    if not np.isfinite(E).all():
        raise ValueError("quadrature failed (non-finite preimage table)")
    return xs, E


def independent_closed_form(g: PdfSpec, params: TheoryParams, x, k: int):
    """c_k G(x)^{sk} for center-independent pdfs (see ``_series_coeffs``)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    coeffs = _series_coeffs(params)
    c = coeffs[k] if k < len(coeffs) else 0.0
    G = g.survival(np.asarray(x, dtype=float))
    out = c * G ** (params.s * k)
    return out if np.ndim(out) else float(out)


def full_preimage_series(g: PdfSpec, params: TheoryParams, x):
    """E[|LS^-*|](x): the sum of ``independent_closed_form`` over depths k >= 1."""
    s = params.s
    G = np.asarray(g.survival(np.asarray(x, dtype=float)), dtype=float)
    total = np.zeros_like(G)
    for k, c in enumerate(_series_coeffs(params)[1:], start=1):
        total = total + c * G ** (s * k)
    return total if total.ndim else float(total)


def full_preimage_bounds(G_val: float, s: int) -> tuple[float, float]:
    """(lower, upper) on the expected full-preimage size, preimage-only part.

    lower = s G^s exp(s G^s / (s+1));  upper = s G^s exp(G^s).
    """
    if not 0.0 <= G_val <= 1.0:
        raise ValueError("G_val must lie in [0, 1]")
    if s < 1:
        raise ValueError("s must be >= 1")
    core = s * G_val**s
    return core * np.exp(core / (s + 1)), core * np.exp(G_val**s)


# -- within-eps success curve ----------------------------------------------------


def success_curve(pdf_n: PdfSpec, pdf_e: LocalPdfSpec, params: TheoryParams,
                  eps_grid, max_k: int = 5,
                  grid_points: int = DEFAULT_GRID_POINTS) -> list[tuple[float, float]]:
    """Expected fraction of starts converging within eps of the optimum.

    integral from ell* to ell*+eps of
    pdf_n(x) * survival(x)^s * (1 + sum_k E[|LS^-k|](x)) dx,
    with preimage depth capped at ``max_k``.
    """
    analysis._eps_array(eps_grid)  # reject a bad grid before building the table
    xs, E = _preimage_table(pdf_e, params, max_k, grid_points)
    return _success_from_table(pdf_n, pdf_e, params, eps_grid, xs, E)


def _success_from_table(pdf_n: PdfSpec, pdf_e: LocalPdfSpec, params: TheoryParams,
                        eps_grid, xs: np.ndarray,
                        E: np.ndarray) -> list[tuple[float, float]]:
    """``success_curve`` from a preimage table ``_preimage_table`` returned."""
    eps = analysis._eps_array(eps_grid)
    weight = 1.0 + E.sum(axis=0)
    integrand = pdf_n.density(xs) * pdf_e.survival(xs, xs) ** params.s * weight
    integrand = np.where(xs >= params.ell_star, integrand, 0.0)
    pre = _prefix(integrand, xs)
    if not np.isfinite(pre).all():
        raise ValueError("quadrature failed (non-finite success curve)")
    base = float(np.interp(params.ell_star, xs, pre))
    vals = np.interp(np.minimum(params.ell_star + eps, 1.0), xs, pre) - base
    return [(float(e), float(v)) for e, v in zip(eps, vals)]


# -- uniform closed forms ----------------------------------------------------------


def uniform_closed_form_minima(n: int, s: int) -> float:
    """Expected number of local minima under fully uniform losses: n / (s + 1)."""
    if n < 1 or s < 1:
        raise ValueError("n and s must be >= 1")
    return n / (s + 1)


def _uniform_series(params: TheoryParams, eps: np.ndarray):
    """The paper's uniform series term by term: (sum, coefficients, terms).

    Term i is coeff_i * (1 - (1-eps)^{(i+1)s+1}) with
    coeff_i = c_i / ((i+1)s+1) (see ``_series_coeffs``), its mass at eps = 1.
    """
    s = params.s
    total = np.zeros_like(eps)
    coeffs, terms = [], []
    for i, c in enumerate(_series_coeffs(params)):
        coeff = c / ((i + 1) * s + 1)
        term = coeff * (1.0 - (1.0 - eps) ** ((i + 1) * s + 1))
        coeffs.append(coeff)
        terms.append(term)
        total += term
    return total, np.asarray(coeffs), np.asarray(terms)


def uniform_closed_form_curve(n: int, s: int, b, eps_grid) -> list[tuple[float, float]]:
    """The paper's independence series for the uniform within-eps fraction.

    fraction(eps) = sum_i s^i (1 - (1-eps)^{(i+1)s+1}) / ((i+1)s+1)
                    * prod_{j=0}^{i-1} b_j/(js+1),
    the series terminating where the branching product reaches zero.  It
    treats neighbor losses as independent given a node's loss, so its total
    basin mass falls short of 1 on dense graphs (0.897 on (K_5)^6); see
    ``clique_power_uniform_curve`` for the expected fraction on (K_m)^d.
    Losses lie in [0, 1], so an eps above 1 gives the value at eps = 1.
    """
    params = TheoryParams(n=n, s=s, b=np.asarray(b, dtype=float))
    eps = analysis._eps_array(eps_grid)
    total, _, _ = _uniform_series(params, np.minimum(eps, 1.0))
    return [(float(e), float(v)) for e, v in zip(eps, total)]


def _clique_power_depths(m: int, d: int) -> list[tuple[Fraction, int]]:
    """(mass, a) of descent depths 0, 1 and 2 on (K_m)^d under i.i.d. losses.

    ``mass`` is the expected fraction of nodes that descend to their local
    minimum v in exactly k moves.  Each such descent holds exactly when v is
    the lowest of the ``a`` nodes it compares, so the fraction whose v has
    loss <= eps is mass * (1 - (1-eps)^a).  With s = d(m-1):

    - depth 0: v itself, lowest of N[v] (a = s + 1);
    - depth 1: each of the s neighbors u of v, with v lowest of N[v] and
      N(u), which share the m - 2 other nodes of their K_m factor
      (a = 2s - m + 2);
    - depth 2: each of the s(s-m+1) paths v <- u1 <- u2, with v lowest of
      the 3s - 2m + 2 nodes of N[v], N(u1) and N(u2), and u1 lowest of
      N[u2] (probability 1/(s+1) given the former).

    The masses are exact rationals, so their shortfall from 1 is the exact
    mass of depths >= 3 (zero on a single clique).
    """
    s = d * (m - 1)
    a1 = 2 * s - m + 2
    a2 = 3 * s - 2 * m + 2
    return [(Fraction(1, s + 1), s + 1),
            (Fraction(s, a1), a1),
            (Fraction(s * (s - m + 1), (s + 1) * a2), a2)]


def clique_power_uniform_curve(m: int, d: int, eps_grid) -> list[tuple[float, float]]:
    """Expected within-eps fraction under i.i.d. uniform losses on (K_m)^d.

    Exact to descent depth 2: a start at depth k <= 2 contributes
    mass_k * (1 - (1-eps)^{a_k}) (see ``_clique_power_depths``), conditioning
    on every comparison its descent makes and on the neighbors that
    adjacent nodes share.  The remaining mass R = 1 - mass_0 - mass_1 -
    mass_2 (exact, since basins partition the nodes) is spread over eps by
    the paper's series terms i >= 3, normalized to unit mass.  Losses lie
    in [0, 1], so the fraction is 1 for eps >= 1.
    """
    if m < 2:
        raise ValueError("clique power needs m >= 2")
    if d < 1:
        raise ValueError("clique power needs d >= 1")
    eps = analysis._eps_array(eps_grid)
    clipped = np.minimum(eps, 1.0)
    depths = _clique_power_depths(m, d)
    total = np.zeros_like(eps)
    for mass, a in depths:
        total += float(mass) * (1.0 - (1.0 - clipped) ** a)
    rest = 1 - sum(mass for mass, _ in depths)
    if rest > 0:
        s = d * (m - 1)
        params = TheoryParams(n=m**d, s=s, b=_clique_power_branching(d))
        _, coeffs, terms = _uniform_series(params, clipped)
        total += float(rest) * terms[3:].sum(axis=0) / coeffs[3:].sum()
    return [(float(e), float(v)) for e, v in zip(eps, total)]


# -- noise corollary -----------------------------------------------------------------


def chebyshev_minima_bound(pdf_n: PdfSpec, pdf_e: LocalPdfSpec, s: int,
                           sigma: float, n: int, delta: float = 1e-3,
                           grid_points: int = DEFAULT_GRID_POINTS) -> float:
    """Upper bound sigma^{2s} * n * double integral over x and y of
    pdf_n(x) * pdf_e.density(y, y) / (2(x-y)^2)^s.

    A band |x - y| < ``delta`` around the singular diagonal is excluded and
    should be reported alongside the value; ``delta`` must lie strictly
    between 0 and 1, and one below the grid spacing cannot be resolved more
    finely than one cell.  Returns ``inf`` when the integral overflows float
    range (bound vacuous).  The grid is summed one row block at a time.
    """
    if not np.isfinite(sigma) or sigma < 0:
        raise ValueError("sigma must be finite and >= 0")
    if not 0.0 < delta < 1.0:  # also rejects NaN
        raise ValueError(f"delta must be finite and lie strictly between 0 and 1, "
                         f"got {delta}")
    if sigma == 0.0:
        return 0.0
    xs = _grid(grid_points)
    dens_n, dens_e = pdf_n.density(xs), pdf_e.density(xs, xs)
    inner = np.empty(len(xs))
    for r0 in range(0, len(xs), _ROW_BLOCK):
        rows = slice(r0, r0 + _ROW_BLOCK)
        diff = xs[rows, None] - xs[None, :]
        dens = dens_n[rows, None] * dens_e
        mask = (np.abs(diff) >= delta) & (dens > 0.0)
        integrand = np.zeros_like(dens)
        with np.errstate(over="ignore", divide="ignore"):
            core = (2.0 * diff[mask] ** 2) ** (-float(s))
            integrand[mask] = dens[mask] * core
        if not np.isfinite(integrand).all():
            return float("inf")
        inner[rows] = np.trapezoid(integrand, xs, axis=1)
    value = float(np.trapezoid(inner, xs))
    with np.errstate(over="ignore"):
        bound = float(sigma) ** (2 * s) * n * value
    return bound if np.isfinite(bound) else float("inf")


# -- fitting procedures ----------------------------------------------------------------


class GlobalFit(NamedTuple):
    sigma: float
    center: float
    objective: float


class RwaFit(NamedTuple):
    sigma: float
    objective: float


def fit_global_truncnorm(losses) -> GlobalFit:
    """Grid-search truncated-normal fit to a 50-bin loss histogram.

    sigma over [0.02, 1.0] step 0.01 and center over [0, 1] step 0.05,
    minimizing the L2 distance between the density-normalized histogram and
    the model density at bin centers.
    """
    losses = np.asarray(losses, dtype=float)
    if losses.size < 100:
        raise ValueError("insufficient data: need at least 100 losses")
    if (losses < 0).any() or (losses > 1).any():
        raise ValueError("losses must lie in [0, 1]")
    hist, edges = np.histogram(losses, bins=50, range=(0.0, 1.0), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    sigmas = np.round(np.arange(0.02, 1.0 + 1e-9, 0.01), 2)
    vs = np.round(np.arange(0.0, 1.0 + 1e-9, 0.05), 2)
    # one row of objectives per sigma; argmin takes the first minimum in
    # sigma-major order
    obj = np.empty((sigmas.size, vs.size))
    for i, sig in enumerate(sigmas):
        model = truncnorm_pdf(centers, vs[:, None], sig)
        obj[i] = np.sqrt(np.sum((hist - model) ** 2, axis=1))
    i, j = np.unravel_index(np.argmin(obj), obj.shape)
    return GlobalFit(sigma=float(sigmas[i]), center=float(vs[j]), objective=float(obj[i, j]))


def fit_local_sigma_via_rwa(observed_rwa, t: Topology, candidates, seed: int,
                            walk_len: int = 100_000,
                            root_center: float = 0.25,
                            root_sigma: float = 0.18) -> RwaFit:
    """Pick the local sigma whose model RWA curve best matches an observed one.

    For each candidate sigma a correlated landscape is generated on ``t``
    and its RWA computed with the same walk length; the L2 distance is taken
    over lags where the observed correlation exceeds 0.05 (all lags when
    none do, so a white-noise input selects the flattest curve).  Exact ties
    go to the smallest sigma.
    """
    obs = np.asarray(observed_rwa, dtype=float)
    if obs.ndim != 2 or obs.shape[1] < 3 or obs.shape[0] < 2:
        raise ValueError("observed curve must be rows of (lag, sqrt_lag, rho)")
    cand = sorted(float(c) for c in candidates)
    if not cand or min(cand) <= 0:
        raise ValueError("candidates must be positive")
    max_lag = int(obs[-1, 0])
    rho_obs = obs[1:, 2]
    lag_mask = rho_obs > 0.05
    if not lag_mask.any():
        lag_mask = np.ones_like(lag_mask, dtype=bool)
    best = None
    for i, sig in enumerate(cand):
        scape = sample_markov_truncnorm(t, sig, root_center, root_sigma,
                                        seed=mix64(seed, 2 * i))
        view = LandscapeView(scape, NoiseSpec.none(), seed=0)
        rows = analysis.rwa(view, walk_len, max_lag, seed=mix64(seed, 2 * i + 1))
        rho_model = np.asarray([r[2] for r in rows[1:]])
        obj = float(np.sqrt(np.sum((rho_obs[lag_mask] - rho_model[lag_mask]) ** 2)))
        if best is None or obj < best[0]:
            best = (obj, sig)
    return RwaFit(sigma=best[1], objective=best[0])
