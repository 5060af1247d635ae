"""Loss assignment, observation noise, and landscape persistence.

A :class:`Landscape` pins a base loss to every node of a topology.  A
:class:`LandscapeView` mediates noisy access to it under a
:class:`NoiseSpec` and enforces the cache contract: every node is charged
at most one evaluation no matter how often it is re-queried, and under all
frozen modes the value observed for a node does not depend on query order.
:meth:`NoiseSpec.values` computes every observed value.  A :class:`ViewBatch`
holds the search state of many views as rows of arrays, so that search can
advance them together; a view builds its one-row batch when it first
observes a node.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _HOMES
from .seeding import _seed, mix64
from .topology import (Topology, TopologyError, _bfs_tree, _clique_power_levels, _count,
                       _parse_spec)

__all__ = list(_HOMES["landscape"])

_FORMAT = "hillscape-landscape/v1"
_NOISE_STREAM = 0xA1


class LandscapeError(ValueError):
    """Malformed landscape data or an invalid observation request."""


# -- argument checks shared by analysis, theory and the CLI -----------------


def _eps_array(eps_grid) -> np.ndarray:
    """``eps_grid`` as a float array; it must be non-empty, 1-d, finite,
    non-negative and ascending."""
    eps = np.asarray(eps_grid, dtype=float)
    if (eps.ndim != 1 or len(eps) == 0 or not np.isfinite(eps).all()
            or (eps < 0).any() or (np.diff(eps) < 0).any()):
        raise ValueError("eps grid must be ascending, finite and non-negative")
    return eps


# -- truncated normal on [0, 1] --------------------------------------------
#
# The standard normal CDF and its inverse are evaluated in numpy, so the
# package needs no library beyond it: _ndtr from Cephes' erf and erfc rational
# approximations, _ndtri by Wichura's AS241 (the algorithm and coefficients of
# CPython's statistics.NormalDist.inv_cdf).

_SQRT1_2 = 0.7071067811865476
# elements per pass of _ndtr and _ndtri: their temporaries stay in cache
_SLAB = 16384
# erf(x) = x T(x^2) / U(x^2) for |x| < 1
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, and R(x) / S(x) beyond
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
# AS241: x = q A(r) / B(r) with r = 0.180625 - q^2 for |q| = |p - 0.5| <= 0.425;
# beyond, with r = sqrt(-log(min(p, 1 - p))), C(r - 1.6) / D(r - 1.6) for
# r <= 5 and E(r - 5) / F(r - 5) above
_AS241_A = (2.5090809287301226727e3, 3.3430575583588128105e4,
            6.7265770927008700853e4, 4.5921953931549871457e4,
            1.3731693765509461125e4, 1.9715909503065514427e3,
            1.3314166789178437745e2, 3.3871328727963666080e0)
_AS241_B = (5.2264952788528545610e3, 2.8729085735721942674e4,
            3.9307895800092710610e4, 2.1213794301586595867e4,
            5.3941960214247511077e3, 6.8718700749205790830e2,
            4.2313330701600911252e1, 1.0)
_AS241_C = (7.7454501427834140764e-4, 2.2723844989269184583e-2,
            2.4178072517745061177e-1, 1.2704582524523683826e0,
            3.6478483247632045605e0, 5.7694972214606914055e0,
            4.6303378461565452959e0, 1.4234371107496835773e0)
_AS241_D = (1.0507500716444168432e-9, 5.4759380849953449460e-4,
            1.5198666563616457197e-2, 1.4810397642748007459e-1,
            6.8976733498510000455e-1, 1.6763848301838038494e0,
            2.0531916266377588219e0, 1.0)
_AS241_E = (2.0103343992922881327e-7, 2.7115555687434875782e-5,
            1.2426609473880784386e-3, 2.6532189526576123093e-2,
            2.9656057182850489123e-1, 1.7848265399172913358e0,
            5.4637849111641143699e0, 6.6579046435011037772e0)
_AS241_F = (2.0442631033899397856e-15, 1.4215117583164458887e-7,
            1.8463183175100546818e-5, 7.8686913114561325910e-4,
            1.4875361290850614853e-2, 1.3692988092273580531e-1,
            5.9983220655588793769e-1, 1.0)


def _horner(x, coefs):
    """The polynomial with ``coefs`` (highest power first) at array ``x``."""
    out = x * coefs[0]
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _by_slabs(kernel, a):
    """``kernel`` applied elementwise to ``a``, one ``_SLAB`` of the flattened
    array at a time (one call, with no copy, if ``a`` fits in one); a 0-d
    input gives a numpy scalar."""
    a = np.asarray(a, dtype=float)
    flat = a.reshape(-1)
    if flat.size <= _SLAB:
        return kernel(flat).reshape(a.shape)[()]
    out = np.empty(flat.shape)
    for lo in range(0, flat.size, _SLAB):
        out[lo:lo + _SLAB] = kernel(flat[lo:lo + _SLAB])
    return out.reshape(a.shape)[()]


def _ndtr_slab(a):
    x = a * _SQRT1_2
    with np.errstate(over="ignore", invalid="ignore"):
        x2 = x * x
        y = _horner(x2, _ERF_T)
        y *= x
        y /= _horner(x2, _ERF_U)
    y *= 0.5
    y += 0.5
    # |x| >= 1: 0.5 erfc(|x|), reflected above 0; erfc is 0 in double beyond
    # |x| = 28, and the clamp keeps the polynomials finite.  Flat indices, not
    # boolean masks, gather and scatter the far elements: the masks cost
    # about a third of a slab.
    far = np.flatnonzero(np.abs(x) >= 1.0)
    if far.size:
        w = x.take(far)
        v = np.minimum(np.abs(w), 40.0)
        num = _horner(v, _ERFC_P)
        den = _horner(v, _ERFC_Q)
        big = np.flatnonzero(v >= 8.0)
        if big.size:
            vb = v.take(big)
            num[big] = _horner(vb, _ERFC_R)
            den[big] = _horner(vb, _ERFC_S)
        half = np.exp(-v * v)
        half *= num
        half /= den
        half *= 0.5
        np.subtract(1.0, half, out=half, where=w > 0.0)
        y[far] = half
    return y


def _ndtri_slab(p):
    q = p - 0.5
    r = 0.180625 - q * q
    x = _horner(r, _AS241_A)
    x *= q
    x /= _horner(r, _AS241_B)
    # flat indices gather and scatter the tail, as in _ndtr_slab
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        pt = p.take(tail)
        with np.errstate(divide="ignore", invalid="ignore"):  # p = 0 and 1 give inf
            r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
            rn = r - 1.6
            xt = _horner(rn, _AS241_C) / _horner(rn, _AS241_D)
            far = np.flatnonzero(r > 5.0)
            if far.size:
                rf = r.take(far) - 5.0
                xt[far] = np.where(rf == np.inf, np.inf,
                                   _horner(rf, _AS241_E) / _horner(rf, _AS241_F))
        x[tail] = np.copysign(xt, q.take(tail))
    return x


def _ndtr(a):
    """Standard normal CDF, elementwise: 0.5 + 0.5 erf(a / sqrt 2) for
    |a| < sqrt 2, else 0.5 erfc(|a| / sqrt 2), reflected for a > 0."""
    return _by_slabs(_ndtr_slab, a)


def _ndtri(p):
    """Inverse of :func:`_ndtr`, elementwise, by AS241; -inf at 0, inf at 1."""
    return _by_slabs(_ndtri_slab, p)


# Counter-based noise, search starts and random-search candidates: a uniform
# in (0, 1) is the top 52 bits of a splitmix64 hash plus one half, over 2^52.
# That set of values is symmetric about 1/2 and excludes 0 and 1, so its
# _ndtri is finite, at most _Z_MAX in size.
_HALF_ULP = 2.0 ** -53


def _hashed_uniform(key, counters):
    """Uniforms in (0, 1), one per entry of the integer array ``counters``;
    each is a pure function of ``(key, counter)``."""
    return (mix64(key, counters) >> np.uint64(12)) * (2 * _HALF_ULP) + _HALF_ULP


def _hashed_normal(key, counters):
    """Standard normals: :func:`_ndtri` of :func:`_hashed_uniform`."""
    return _ndtri(_hashed_uniform(key, counters))


_Z_MAX = float(-_ndtri(_HALF_ULP))


def _cdf_ends(center, sigma):
    """Phi(-center / sigma) and Phi((1 - center) / sigma): the normal mass
    below 0 and below 1.  The one check of truncated-normal parameters:
    ``LandscapeError`` unless ``sigma > 0`` and each ``center`` leaves normal
    mass on [0, 1], which also rejects NaN and infinite parameters."""
    if not sigma > 0:  # also rejects NaN
        raise LandscapeError("sigma must be positive")
    center = np.asarray(center, dtype=float)
    lo, hi = _ndtr(np.stack([(0.0 - center) / sigma, (1.0 - center) / sigma]))
    has_mass = hi - lo > 0
    if not has_mass.all():
        raise LandscapeError(f"truncated normal ({center.flat[np.argmin(has_mass)]}, {sigma}) "
                             "has no normal mass on [0, 1]")
    return lo, hi


def truncnorm_pdf(u, center, sigma):
    """Density at ``u`` of a normal(center, sigma) renormalized to [0, 1].

    Zero outside [0, 1].  Broadcasts over ``u`` and ``center``.
    """
    u = np.asarray(u, dtype=float)
    lo, hi = _cdf_ends(center, sigma)
    with np.errstate(over="ignore"):  # a square past float range: exp gives the exact 0
        phi = np.exp(-0.5 * ((u - center) / sigma) ** 2) / np.sqrt(2.0 * np.pi)
    dens = phi / (sigma * (hi - lo))
    dens = np.where((u < 0.0) | (u > 1.0), 0.0, dens)
    return dens if dens.ndim else float(dens)


def truncnorm_sf(x, center, sigma):
    """P(X > x) for X ~ normal(center, sigma) renormalized to [0, 1].

    ``x`` is clipped to [0, 1], so the result is 1 below 0 and 0 above 1.
    Broadcasts over ``x`` and ``center``.
    """
    xc = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    lo, hi = _cdf_ends(center, sigma)
    out = (hi - _ndtr((xc - center) / sigma)) / (hi - lo)
    return np.clip(out, 0.0, 1.0)


def _truncnorm_ppf_at(q, center, sigma, lo, span):
    """Quantile ``q`` of the [0, 1]-truncated normal around ``center``, given
    the :func:`_cdf_ends` ``lo`` and ``lo + span`` of ``center``."""
    x = center + sigma * _ndtri(lo + q * span)
    return np.clip(x, 0.0, 1.0)


def sample_truncnorm(center, sigma, rng, size=None):
    """Inverse-CDF sample(s) from the [0, 1]-truncated normal."""
    q = rng.random(size)  # drawn first, so a rejected center or sigma still advances rng
    lo, hi = _cdf_ends(center, sigma)
    return _truncnorm_ppf_at(q, center, sigma, lo, hi - lo)


# -- landscape container ----------------------------------------------------


@dataclass
class Landscape:
    """Base losses on a topology, with optional test losses and provenance."""

    topology: Topology
    val_loss: np.ndarray
    test_loss: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.val_loss = np.asarray(self.val_loss, dtype=np.float64)
        if self.val_loss.shape != (self.topology.n,):
            raise LandscapeError(
                f"val_loss must have length {self.topology.n}, got {self.val_loss.shape}"
            )
        if not np.isfinite(self.val_loss).all():
            raise LandscapeError("val_loss contains non-finite values")
        self.val_loss.setflags(write=False)
        if self.test_loss is not None:
            self.test_loss = np.asarray(self.test_loss, dtype=np.float64)
            if self.test_loss.shape != (self.topology.n,):
                raise LandscapeError("test_loss length mismatch")
            if not np.isfinite(self.test_loss).all():
                raise LandscapeError("test_loss contains non-finite values")
            self.test_loss.setflags(write=False)

    def __reduce__(self):
        # rebuild through __init__, so unpickled loss arrays are validated
        # and read-only again (worker processes of run_trials receive these)
        return (Landscape, (self.topology, self.val_loss, self.test_loss, self.meta))

    @property
    def n(self) -> int:
        return self.topology.n


# -- noise models ------------------------------------------------------------

_KINDS = ("frozen", "fresh", "uniform-replace")


def _finite_nonneg(value, what: str) -> np.ndarray:
    """``value`` as a float array; ``LandscapeError`` unless all finite and >= 0."""
    a = np.asarray(value, dtype=float)
    if not np.isfinite(a).all() or (a < 0).any():
        raise LandscapeError(f"{what} must be finite and >= 0")
    return a


def _nonneg_float(value, what: str) -> float:
    """``value`` as a float; ``LandscapeError`` unless it is one finite real
    number >= 0: not a string, a bool or an array of other than 0 dimensions."""
    a = np.asarray(value)
    if a.ndim or a.dtype.kind not in "iuf":
        raise LandscapeError(f"{what} must be one finite number >= 0, got {value!r}")
    return float(_finite_nonneg(a, what))


def _check_reach(base_abs: float, scale, what: str) -> None:
    """``LandscapeError`` unless ``base_abs + scale * _Z_MAX`` is finite: the
    largest observation a noise scale can produce from that base."""
    top = float(np.max(scale)) if np.size(scale) else 0.0
    if not math.isfinite(base_abs + top * _Z_MAX):
        raise LandscapeError(f"{what}: noise scale {top!r} times the largest hashed normal "
                             f"{_Z_MAX:.4g} must stay finite")


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """How observed losses deviate from base losses.

    A node observes ``base + scale * z`` with one standard normal z, except
    under ``uniform-replace``, where it observes a uniform (0, 1) value
    instead of its base loss.  ``scale`` is a scalar or a per-node array.
    z and the uniform are counter-based: :func:`_hashed_normal` of a key
    that the view derives from its seed, at a counter.  Under ``frozen``
    and ``uniform-replace`` the counter is the node id, so the value a view
    reports for a node is a pure function of (view seed, node id); under
    ``fresh`` it is the charge index (0 for the first node a view charges,
    1 for the next), so each charge draws anew.  Every |z| is at most
    ``_Z_MAX`` (about 8.2), and a scale whose ``scale * _Z_MAX`` is not
    finite is rejected.

    Use the constructors (``NoiseSpec.none()`` etc.) rather than the raw
    dataclass.  The mean of k i.i.d. N(0, sigma^2) draws is N(0, sigma^2/k),
    so ``seed_average(sigma, k)`` is frozen noise of scale sigma / sqrt(k).
    """

    kind: str
    scale: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise LandscapeError(f"unknown noise kind {self.kind!r}")
        _check_reach(0.0, self.scale, "noise")

    @classmethod
    def none(cls):
        return cls("frozen")

    @classmethod
    def gaussian_frozen(cls, sigma):
        return cls("frozen", _nonneg_float(sigma, "sigma"))

    @classmethod
    def gaussian_fresh(cls, sigma):
        return cls("fresh", _nonneg_float(sigma, "sigma"))

    @classmethod
    def seed_average(cls, sigma, k):
        sigma = _nonneg_float(sigma, "sigma")
        k = _count(k, "seed-average k", 1, LandscapeError)
        return cls("frozen", float(sigma / np.sqrt(k)))

    @classmethod
    def uniform_replace(cls):
        return cls("uniform-replace")

    @classmethod
    def scaled(cls, sigma_base, x):
        base = _finite_nonneg(sigma_base, "sigma_base")
        x = _nonneg_float(x, "scale factor x")
        with np.errstate(over="ignore"):  # an infinite product is rejected by __post_init__
            return cls("frozen", x * base)

    @property
    def frozen(self) -> bool:
        return self.kind != "fresh"

    @functools.cached_property
    def _any_scale(self) -> bool:
        """Whether some scale is nonzero (:meth:`values` asks on every call)."""
        return bool(np.any(self.scale))

    def check(self, base: np.ndarray) -> None:
        """``LandscapeError`` unless a per-node scale has one entry per base
        loss in ``base`` and the largest observation stays finite."""
        if isinstance(self.scale, np.ndarray) and self.scale.shape != base.shape:
            raise LandscapeError(f"per-node noise scale has shape {self.scale.shape}, "
                                 f"expected {base.shape}")
        if self.kind != "uniform-replace" and self._any_scale:
            _check_reach(max(-float(base.min()), float(base.max())), self.scale, "landscape")

    def values(self, base: np.ndarray, keys, ids, counters) -> np.ndarray:
        """Observed values of nodes ``ids`` with base losses ``base``, hashed
        from ``keys`` (one per id, or one for all) at the node ids, or under
        ``fresh`` at the charge indices ``counters``."""
        if self.kind == "uniform-replace":
            return _hashed_uniform(keys, ids)
        if not self._any_scale:
            return base[ids]
        scale = self.scale[ids] if isinstance(self.scale, np.ndarray) else self.scale
        return base[ids] + scale * _hashed_normal(keys, ids if self.frozen else counters)

    @classmethod
    def parse(cls, text: str) -> "NoiseSpec":
        """Parse CLI-style specs: ``none``, ``gaussian:0.1``, ``gaussian-fresh:0.1``,
        ``seed-average:0.1,3``, ``uniform-replace``, ``scaled:1.0,0.02``
        (x, sigma_base; sigma_base defaults to 1)."""
        return _parse_spec(text, {
            "none": (cls.none,),
            "gaussian": (cls.gaussian_frozen, float),
            "gaussian-fresh": (cls.gaussian_fresh, float),
            "seed-average": (cls.seed_average, float, int),
            "uniform-replace": (cls.uniform_replace,),
            "scaled": (lambda x, sigma_base=1.0: cls.scaled(sigma_base, x), float, float),
        }, LandscapeError, "noise")


class ViewBatch:
    """The search state of independent views of one landscape, one per row.

    Row r has the view seed ``seeds[r]`` and its own cache:
    ``log_ids[r, :count[r]]`` and ``log_vals[r, :count[r]]`` list the nodes
    it has charged and their observed values in charge order, and
    ``mark[r, v]`` is 0 for a node the row has not observed and otherwise
    1 + its charge index modulo the largest value of the mark type.
    ``limit`` bounds the charges per row (at most n); the marks take the
    smallest unsigned type whose largest value is at least a quarter of
    it, so :meth:`_position` resolves a mark in at most four tries.
    :meth:`observe` advances many rows by one call and computes what it
    charges with :meth:`NoiseSpec.values`.  ``sweeps`` counts each row's
    query-until-lower sweeps; search keys their neighbor order on it.
    """

    def __init__(self, landscape: Landscape, noise: NoiseSpec, seeds, limit: int | None = None):
        n = landscape.n
        noise.check(landscape.val_loss)
        self.landscape, self.noise = landscape, noise
        self.seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
        self._keys = mix64(self.seeds, _NOISE_STREAM)
        self.limit = n if limit is None else min(int(limit), n)
        rows = self.seeds.size
        self.mark = np.zeros((rows, n), dtype=self.mark_type(self.limit))
        self._modulus = int(np.iinfo(self.mark.dtype).max)
        # np.empty: the pages of a log stay untouched until its row charges
        self.log_ids = np.empty((rows, self.limit), dtype=np.int64)
        self.log_vals = np.empty((rows, self.limit))
        self.count = np.zeros(rows, dtype=np.int64)
        self.sweeps = np.zeros(rows, dtype=np.int64)

    @staticmethod
    def mark_type(limit: int) -> np.dtype:
        for kind in (np.uint8, np.uint16):
            if limit <= 4 * np.iinfo(kind).max:
                return np.dtype(kind)
        return np.dtype(np.uint32)

    def observe(self, rows, ids, budget=None, stop_below=None):
        """Observe ``ids[i]`` left to right in row ``rows[i]``; return
        ``(values, k)``.

        ``rows`` are distinct, ``ids`` is ``(len(rows), w)`` and the ids a
        row has not seen are distinct; a seen id, such as a neighbor block's
        pad, may repeat and is a free cache read.  Row i stops before its
        first unseen id that would bring its charged count above ``budget``
        or its log's ``limit`` (``budget=None`` is the log), and, given
        ``stop_below``, after its first value lower than
        ``stop_below[i]``.  Its first ``k[i]`` ids are observed: the unseen
        ones are charged in order, as observing one at a time would.
        ``values`` holds their observations; other entries are +inf.
        """
        rows = np.asarray(rows, dtype=np.int64)
        h, w = ids.shape
        values = np.full(ids.shape, np.inf)
        if not w:
            return values, np.zeros(h, dtype=np.int64)
        # marks, logs and values are read and written through flat indices
        # into the raveled arrays: one take or put each, no 2-D fancy indexing
        flat_ids = ids.reshape(-1)
        at_mark = (rows * self.landscape.n)[:, None] + ids
        marks = self.mark.reshape(-1).take(at_mark)
        new = marks == 0
        inside = ~new
        k = np.full(h, w)
        at = np.cumsum(new, axis=1)  # 1 + the charge offset of each new id
        # at 0 room (or less, after charges under a larger budget) seen ids
        # stay free: a row is cut only if it has a new id past the room
        cap = self.limit if budget is None else min(budget, self.limit)
        room = np.maximum(cap - self.count[rows], 0)
        cut = at[:, -1] > room
        if cut.any():  # stop before the first new id past the room
            over = at > room[:, None]
            over &= new
            k = np.where(cut, over.argmax(axis=1), k)
            new ^= over  # over is within new
            inside &= np.arange(w) < k[:, None]
        flat_values = values.reshape(-1)
        s = np.flatnonzero(inside)
        if s.size:
            r = rows.take(s // w)
            pos = self._position(r, flat_ids.take(s), marks.reshape(-1).take(s))
            flat_values[s] = self.log_vals.reshape(-1).take(pos)
        s = np.flatnonzero(new)
        if s.size:
            i = s // w
            r = rows.take(i)
            new_ids = flat_ids.take(s)
            charges = self.count.take(r) + at.reshape(-1).take(s) - 1
            flat_values[s] = self.noise.values(self.landscape.val_loss, self._keys.take(r),
                                               new_ids, charges)
        if stop_below is not None:
            lower = values < stop_below[:, None]
            k = np.where(lower.any(axis=1), lower.argmax(axis=1) + 1, k)
            values[np.arange(w) >= k[:, None]] = np.inf
            if s.size:
                keep = s - i * w < k.take(i)
                s, i, r, new_ids, charges = s[keep], i[keep], r[keep], new_ids[keep], charges[keep]
        if s.size:
            self._charge(r, new_ids, flat_values.take(s), charges, at_mark.reshape(-1).take(s))
        return values, k

    def _position(self, rows, ids, marks=None) -> np.ndarray:
        """Flat indices into the raveled logs (``rows * limit`` plus the charge
        index) of seen nodes ``ids``, given their ``marks`` or gathering
        them: the charge index c below the row's count with c + 1 = the mark
        modulo the mark modulus whose log entry is the node."""
        if marks is None:
            marks = self.mark.reshape(-1).take(rows * self.landscape.n + ids)
        pos = rows * self.limit + marks - 1
        if self.limit > self._modulus:
            log_ids = self.log_ids.reshape(-1)
            miss = (log_ids.take(pos) != ids).nonzero()[0]
            while miss.size:
                pos[miss] += self._modulus
                miss = miss[log_ids.take(pos[miss]) != ids[miss]]
        return pos

    def _charge(self, rows, ids, values, charges, at_mark) -> None:
        """Log ``ids`` with ``values`` at charge indices ``charges`` of
        ``rows`` (a row's indices continue its count), mark them at the flat
        mark indices ``at_mark``, and advance each row's count by its
        charges: the one place that counts advance."""
        at = rows * self.limit + charges
        self.log_ids.reshape(-1)[at] = ids
        self.log_vals.reshape(-1)[at] = values
        self.mark.reshape(-1)[at_mark] = charges % self._modulus + 1
        self.count += np.bincount(rows, minlength=self.count.size)


class LandscapeView:
    """Single-owner noisy access to a landscape.

    Tracks a query counter for budget accounting: the first observation of a
    node increments it, repeats are free (cache contract).  The view holds
    no search state until it first observes a node and builds ``_rows``, its
    one-row :class:`ViewBatch`; :meth:`frozen_values` needs none.
    """

    def __init__(self, landscape: Landscape, noise: NoiseSpec | None = None, seed: int = 0):
        self.landscape = landscape
        self.noise = noise if noise is not None else NoiseSpec.none()
        self.noise.check(landscape.val_loss)
        self.seed = _seed(seed)
        self._values: np.ndarray | None = None  # frozen_values, built on first use
        self._successor_map = None  # analysis.successor_map's cache (frozen views)

    @functools.cached_property
    def _rows(self) -> ViewBatch:
        return ViewBatch(self.landscape, self.noise, [self.seed])

    # -- observation ------------------------------------------------------

    def observe(self, v: int) -> float:
        """Observe one node: :meth:`observe_prefix` of ``(v,)``."""
        return float(self.observe_prefix((v,))[0][0])

    def observe_prefix(self, ids) -> tuple[np.ndarray, int]:
        """Observe the node ``ids`` in order; return ``(values, len(ids))``.

        A repeated id is observed at its first visit and gets that value
        again.  Unseen ids are charged and logged in first-visit order, so
        fresh noise gives the values that observing the ids one at a time
        would.
        """
        ids = np.asarray(ids).reshape(-1)
        try:
            self.landscape.topology._check_id(ids)  # an empty list is float64: it passes
        except TopologyError as exc:
            raise LandscapeError(str(exc)) from None
        ids = ids.astype(np.int64, copy=False)
        nodes, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        by_visit = np.argsort(first)
        values = np.empty(nodes.size)
        values[by_visit] = self._rows.observe(_ROW, nodes[by_visit][None])[0][0]
        return values[inverse], ids.size

    @property
    def query_count(self) -> int:
        return int(self._rows.count[0])

    def observation_log(self) -> list[int]:
        """Node ids in first-observation order."""
        return self._rows.log_ids[0, :self.query_count].tolist()

    def observed_values(self) -> np.ndarray:
        """Observed losses of the :meth:`observation_log` nodes, in that order."""
        return self._rows.log_vals[0, :self.query_count].copy()

    def frozen_values(self) -> np.ndarray:
        """The full observation vector (frozen modes only; read-only).

        Every node goes through :meth:`NoiseSpec.values` with the view's
        noise key, as observation does, one ``_SLAB`` of ids at a time.
        Exhaustive analytics read this directly; it builds no search state
        and does not touch the query counter.
        """
        if not self.noise.frozen:
            raise LandscapeError("fresh-noise views have no frozen observation vector")
        if self._values is None:
            n, base = self.landscape.n, self.landscape.val_loss
            key = mix64(self.seed, _NOISE_STREAM)
            vals = np.empty(n)
            for lo in range(0, n, _SLAB):
                ids = np.arange(lo, min(lo + _SLAB, n))
                vals[lo:lo + _SLAB] = self.noise.values(base, key, ids, None)
            vals.setflags(write=False)
            self._values = vals
        return self._values


_ROW = np.zeros(1, dtype=np.int64)


# -- generators --------------------------------------------------------------


def sample_uniform(t: Topology, seed: int) -> Landscape:
    """I.i.d. uniform [0, 1] losses; deterministic for a fixed seed."""
    seed = _seed(seed)
    rng = np.random.default_rng(seed)
    vals = rng.random(t.n)
    meta = {"generator": "uniform", "params": {}, "seed": seed}
    return Landscape(t, vals, meta=meta)


def sample_markov_truncnorm(t: Topology, sigma_local: float, root_center: float,
                            root_sigma: float, seed: int) -> Landscape:
    """Correlated losses: BFS from node 0, each node drawn around its parent.

    The root loss is truncnorm(root_center, root_sigma); every other node is
    truncnorm(parent_loss, sigma_local) where the parent is its BFS
    discoverer.  Nodes are drawn level by level, in ascending id within a
    level, so the structure and draw order are deterministic for a fixed
    seed.
    """
    seed = _seed(seed)
    root_lo, root_hi = _cdf_ends(root_center, root_sigma)
    rng = np.random.default_rng(seed)
    vals = np.empty(t.n)
    vals[0] = _truncnorm_ppf_at(rng.random(), root_center, root_sigma, root_lo,
                                root_hi - root_lo)
    _cdf_ends(vals[0], sigma_local)  # rejects a bad sigma_local before any level, complete:1 too
    fill = _clique_power_markov if t.kind == "clique_power" else _frontier_markov
    fill(t, vals, sigma_local, rng)
    meta = {
        "generator": "markov-truncnorm",
        "params": {
            "sigma_local": float(sigma_local),
            "root_center": float(root_center),
            "root_sigma": float(root_sigma),
        },
        "seed": seed,
    }
    return Landscape(t, vals, meta=meta)


def _frontier_markov(t: Topology, vals: np.ndarray, sigma_local: float, rng) -> None:
    """Fill ``vals[1:]`` level by level along :func:`_bfs_tree`."""
    order, parent, sizes = _bfs_tree(t)
    if sizes.sum() != t.n:
        raise LandscapeError("topology is disconnected")
    # each parent's normalizing CDFs are taken once, then gathered per child
    has_child = np.zeros(t.n, dtype=bool)
    has_child[parent] = True
    below0, span = np.empty(t.n), np.empty(t.n)
    lo, prev = 1, order[:1]
    for size in sizes[1:].tolist():
        heads = prev[has_child[prev]]
        a, b = _cdf_ends(vals[heads], sigma_local)
        below0[heads], span[heads] = a, b - a
        ids = order[lo:lo + size]
        up = parent[ids]
        vals[ids] = _truncnorm_ppf_at(rng.random(size), vals[up], sigma_local,
                                      below0[up], span[up])
        lo, prev = lo + size, ids


def _clique_power_markov(t: Topology, vals: np.ndarray, sigma_local: float, rng) -> None:
    """Fill ``vals[1:]`` of (K_m)^d with the draws of :func:`_frontier_markov`.

    Block p, the ids ``[m^p, m^(p+1))`` viewed as an ``(m - 1, m^p)`` array,
    has the parent row ``vals[:m^p]`` in every row (a node's discoverer is
    the node with its highest non-zero digit set to 0), so one quantile call
    per block runs against the broadcast parent row, and the CDF ends of
    each parent block are taken once.  The uniforms of a level are drawn in
    one call, as the frontier loop draws them, and spent in ascending id:
    for each k, the rows of block p in turn take the next uniforms of level
    k + 1 for the columns at level k.
    """
    m, d = t.m, t.d
    level = _clique_power_levels(m, d)
    draws = [rng.random(math.comb(d, k) * (m - 1) ** k) for k in range(1, d + 1)]
    used = [0] * d
    below0, span = np.empty(m ** (d - 1)), np.empty(m ** (d - 1))
    lo, width = 0, 1
    for p in range(d):
        a, b = _cdf_ends(vals[lo:width], sigma_local)  # the parents new to this block
        below0[lo:width], span[lo:width] = a, b - a
        block = vals[width:m * width].reshape(m - 1, width)  # holds the uniforms first
        for k in range(p + 1):
            cols = np.flatnonzero(level[:width] == k)
            take = (m - 1) * cols.size
            block[:, cols] = draws[k][used[k]:used[k] + take].reshape(m - 1, cols.size)
            used[k] += take
        block[:] = _truncnorm_ppf_at(block, vals[:width], sigma_local, below0[:width],
                                     span[:width])
        lo, width = width, m * width


# -- tabular ingestion and persistence ----------------------------------------


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _column_text(column, rows: int):
    """The cells of one column: an int array as decimals, a float array with
    repr, None as empty cells, any other sequence cell by cell.

    An array is formatted one distinct value at a time (distinct by bit
    pattern, so ``-0.0`` and ``0.0`` keep their own text) and the strings are
    gathered back into row order.
    """
    if column is None:
        return [""] * rows
    if isinstance(column, np.ndarray) and column.dtype.kind in "iuf":
        bits = column.view(f"u{column.itemsize}") if column.dtype.kind == "f" else column
        distinct, inverse = np.unique(bits, return_inverse=True)
        fmt = repr if column.dtype.kind == "f" else str
        text = list(map(fmt, distinct.view(column.dtype).tolist()))
        return np.array(text, dtype=object)[inverse].tolist()
    return map(_cell, column)


def _write_csv(path, header, columns) -> None:
    """The one CSV writer, one column at a time: ints as decimals, floats
    with repr (so reading a file back is bit-exact), strings as given and a
    None column as empty cells.  Each distinct value of an array column is
    formatted once (see :func:`_column_text`)."""
    columns = list(columns)
    rows = max((len(c) for c in columns if c is not None), default=0)
    cells = [_column_text(c, rows) for c in columns]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


class _Csv(NamedTuple):
    name: str
    header: list
    rows: list
    lines: list  # file line number of each row, for error messages

    def column(self, j: int, kind) -> np.ndarray:
        """Cells of column ``j`` converted with ``kind`` (``int`` or ``float``)
        by one ``map`` over the whole column.  A cell must be ASCII without
        ``_`` (Python's numbers also read PEP 515 underscores and Unicode
        digits) and a float column finite.  Only a column that fails is
        scanned cell by cell, to name its first bad cell."""
        cells = [r[j] for r in self.rows]
        joined = "".join(cells)
        try:
            if not joined.isascii() or "_" in joined:
                raise ValueError(joined)
            values = list(map(kind, cells))
        except ValueError:
            line, cell = next((line, cell) for line, cell in zip(self.lines, cells)
                              if not _is_number(kind, cell))
            raise LandscapeError(
                f"{self.name}: line {line}: {self.header[j]} {cell!r} is not "
                f"{'an integer' if kind is int else 'a number'}") from None
        out = np.asarray(values)
        if kind is float and not np.isfinite(out).all():
            i = int(np.flatnonzero(~np.isfinite(out))[0])
            raise LandscapeError(f"{self.name}: line {self.lines[i]}: {self.header[j]} "
                                 f"{cells[i]!r} is not a finite number")
        return out


def _is_number(kind, cell: str) -> bool:
    """Whether ``cell`` is a ``kind`` of the CSV dialect: ASCII, no ``_``."""
    if not cell.isascii() or "_" in cell:
        return False
    try:
        kind(cell)
    except ValueError:
        return False
    return True


def _read_csv(source) -> _Csv:
    """The one CSV reader, for a path or a text stream.

    Blank lines are skipped; every row must have the header's cell count.
    """
    if hasattr(source, "read"):
        text = source.read()
        name = str(getattr(source, "name", "<stream>"))
    else:
        with open(source, encoding="utf-8", newline="") as fh:
            text = fh.read()
        name = str(source)
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    raw = text.splitlines()
    lines = [i for i, ln in enumerate(raw, start=1) if ln.strip()]
    if not lines:
        raise LandscapeError(f"{name}: empty file")
    header = [c.strip() for c in raw[lines.pop(0) - 1].split(",")]
    rows = [raw[i - 1].split(",") for i in lines]
    for r, line in zip(rows, lines):
        if len(r) != len(header):
            raise LandscapeError(f"{name}: line {line}: expected {len(header)} cells "
                                 f"like the header, got {len(r)}")
    return _Csv(name, header, rows, lines)


def load_tabular(source, t: Topology) -> Landscape:
    """Load losses from ``id,val_loss[,test_loss]`` CSV (one row per node)."""
    table = _read_csv(source)
    if table.header not in (["id", "val_loss"], ["id", "val_loss", "test_loss"]):
        raise LandscapeError(
            f"{table.name}: unsupported landscape header/version: {','.join(table.header)!r}"
        )
    if len(table.rows) != t.n:
        raise LandscapeError(f"{table.name}: expected {t.n} rows, found {len(table.rows)}")
    ids = table.column(0, int)
    order = np.argsort(ids)
    if not np.array_equal(ids[order], np.arange(t.n)):
        raise LandscapeError(f"{table.name}: duplicate or missing id")
    val = table.column(1, float)[order]
    test = table.column(2, float)[order] if len(table.header) == 3 else None
    meta = {"source": table.name, "columns": table.header}
    return Landscape(t, val, test_loss=test, meta=meta)


def _meta_path(path: str) -> str:
    stem, ext = os.path.splitext(path)
    return stem + ".meta.json"


def save_landscape(landscape: Landscape, path: str) -> None:
    """Write the CSV (rows sorted by id) plus the ``<name>.meta.json`` sidecar.

    Floats are written with repr, so a save/load round trip is bit-exact.
    """
    columns = [np.arange(landscape.n), landscape.val_loss]
    if landscape.test_loss is not None:
        columns.append(landscape.test_loss)
    _write_csv(path, ["id", "val_loss", "test_loss"][:len(columns)], columns)
    sidecar = {
        "format": _FORMAT,
        "topology": landscape.topology.to_spec(),
        "n": landscape.n,
        "meta": landscape.meta,
    }
    with open(_meta_path(path), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_landscape(path: str, topology: Topology | None = None) -> Landscape:
    """Load a landscape saved by :func:`save_landscape`.

    The topology is rebuilt from the sidecar for generated kinds; custom
    topologies must be supplied explicitly.
    """
    meta_file = _meta_path(path)
    sidecar = None
    if os.path.exists(meta_file):
        with open(meta_file, encoding="utf-8") as fh:
            sidecar = json.load(fh)
        if sidecar.get("format") != _FORMAT:
            raise LandscapeError(
                f"unsupported landscape file header/version: {sidecar.get('format')!r}"
            )
    if topology is None:
        if sidecar is None:
            raise LandscapeError(f"missing sidecar {meta_file}; pass a topology explicitly")
        spec = sidecar.get("topology", "")
        if spec.startswith("custom"):
            raise LandscapeError("custom topology cannot be rebuilt from metadata; pass one")
        topology = Topology.from_spec(spec)
    landscape = load_tabular(path, topology)
    if sidecar is not None:
        landscape.meta = dict(sidecar.get("meta", {}))
    return landscape
