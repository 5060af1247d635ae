"""Deterministic 64-bit seed derivation and counter-based randomness.

A single root seed reproduces a whole experiment bit-for-bit.  Per-trial
seeds are derived as

    seed_trial = mix64(root_seed, trial_index)

where ``mix64`` advances the root seed by ``(index + 1)`` golden-gamma
increments and applies the splitmix64 finalizer.  Only landscape generators
and random walks draw from streams: numpy PCG64 generators seeded through
``mix64``.  All search randomness is counter-based instead: observation
noise, the query-until-lower neighbor order, search starts and
random-search candidates are ``mix64`` itself, evaluated on arrays of
counters (node ids, charge indices, draw indices), so a value depends only
on its key and never on what was drawn before it.  The construction is part
of the output contract: identical (root seed, index) pairs give identical
values on every platform for a fixed numpy version.
"""

from __future__ import annotations

import numpy as np

from . import _HOMES
from .topology import _whole

__all__ = list(_HOMES["seeding"])

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
# the same constants as numpy scalars, for the array form of mix64
_U1, _U_GAMMA, _U_M1, _U_M2 = (np.uint64(c) for c in (1, _GAMMA, _M1, _M2))
_U27, _U30, _U31 = (np.uint64(c) for c in (27, 30, 31))


def _seed(value, name: str = "seed") -> int:
    """``value`` as an int: the one check of a seed (and of a scalar
    ``mix64`` index).  ``ValueError`` unless it is a whole number (see
    :func:`~hillscape.topology._whole`) in [0, 2^64), the seeds numpy's
    generators take: 2.5, NaN, inf, True, -1 and 2**64 are rejected, 7.0
    accepted."""
    value = _whole(value, name)
    if not 0 <= value <= _MASK64:
        raise ValueError(f"{name} must be in [0, 2**64), got {value}")
    return value


def mix64(root_seed, index):
    """Derive a child seed from ``root_seed`` and a non-negative ``index``.

    With two ints the result is an int.  If either argument is a numpy
    array the two broadcast and the result is a ``uint64`` array whose
    entries equal the int results (uint64 arithmetic wraps modulo 2^64).
    A ``root_seed`` or ``index`` that is not an array must be a whole
    number in [0, 2^64) (:func:`_seed`); an ``index`` array must have an
    integer dtype and no negative entry.
    """
    if isinstance(index, np.ndarray):
        if index.dtype.kind not in "iu":
            raise ValueError(f"index array must have an integer dtype, got {index.dtype}")
        if index.dtype.kind == "i" and index.size and np.minimum.reduce(index, axis=None) < 0:
            raise ValueError("index must be non-negative")
    else:
        index = _seed(index, "index")
    if not isinstance(root_seed, np.ndarray):
        root_seed = _seed(root_seed, "root_seed")
    if isinstance(root_seed, int) and isinstance(index, int):
        z = (root_seed + (index + 1) * _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _M1) & _MASK64
        z = ((z ^ (z >> 27)) * _M2) & _MASK64
        return (z ^ (z >> 31)) & _MASK64
    # at least one dimension: 0-d operands would take numpy's scalar path,
    # which warns on the wrap-around that this hash relies on
    z = np.array(index, dtype=np.uint64, ndmin=1)
    z += _U1
    z *= _U_GAMMA
    z = z + np.array(root_seed, dtype=np.uint64, ndmin=1)
    z ^= z >> _U30
    z *= _U_M1
    z ^= z >> _U27
    z *= _U_M2
    z ^= z >> _U31
    return z.reshape(()) if np.ndim(index) == np.ndim(root_seed) == 0 else z


def spawn_rng(root_seed: int, index: int) -> np.random.Generator:
    """A PCG64 generator seeded with ``mix64(root_seed, index)``."""
    return np.random.default_rng(mix64(root_seed, index))
