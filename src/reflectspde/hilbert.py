"""Geometry of the closed unit ball in a (weighted) coefficient Hilbert space.

States are coefficient arrays of shape ``(..., m)`` against a fixed
orthonormal-in-H basis; the H inner product is a weighted dot product so a
single code path covers plain L^2-type spaces (unit weights) and Sobolev-type
spaces (polynomial weights).  All operations broadcast over leading axes.

norm_h and norm_v are one weighted contraction each, a single einsum pass
over the coefficients that forms no weighted or squared copy of x; norm_h
sums again, scaled by a power of two, only the rows whose sum of squares
underflows to 0 or overflows to inf.  inner_h and the quadratic v_energy,
which the estimates take on every step, are one elementwise product and one
matrix-vector product against the weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError

__all__ = [
    "SpaceSpec",
    "inner_h",
    "norm_h",
    "norm_v",
    "v_energy",
    "project_ball",
    "penalty_gap",
]


@dataclass(frozen=True, eq=False)
class SpaceSpec:
    """Coefficient-space description of a Gelfand triple V ⊂ H ⊂ V*.

    All arithmetic runs on the flat coefficient axis of length ``n_coeffs``.

    h_weights
        Diagonal of the H inner product, shape (m,).  Strictly positive.
    v_weights
        Diagonal of the squared V norm when V is itself a weighted l2 space
        (alpha = 2); None when the V norm is not quadratic.
    v_norm_fn
        Override for non-quadratic V norms (e.g. W^{1,p}); takes coefficient
        arrays (..., m) and returns norms (...).  Exactly one of v_weights /
        v_norm_fn must be set.
    wavenumbers
        Optional |k| per coefficient, which shapes the spectral decay of
        decay_profile_x0 and of hypotheses.FieldSampler.
    """

    h_weights: np.ndarray
    v_weights: np.ndarray | None
    v_norm_fn: Callable[[np.ndarray], np.ndarray] | None = None
    wavenumbers: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.h_weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ConfigurationError("h_weights must be a non-empty 1-D array")
        if not np.all(np.isfinite(w)) or not np.all(w > 0):
            raise ConfigurationError("h_weights must be strictly positive and finite")
        object.__setattr__(self, "h_weights", w)
        if self.v_weights is not None:
            vw = np.asarray(self.v_weights, dtype=float)
            if vw.shape != w.shape:
                raise ConfigurationError("v_weights must match h_weights in shape")
            if not np.all(np.isfinite(vw)) or not np.all(vw > 0):
                raise ConfigurationError("v_weights must be strictly positive and finite")
            object.__setattr__(self, "v_weights", vw)
        if (self.v_weights is None) == (self.v_norm_fn is None):
            raise ConfigurationError("exactly one of v_weights / v_norm_fn must be given")

    @property
    def n_coeffs(self) -> int:
        return self.h_weights.shape[0]

    def check_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        arr = np.asarray(coeffs, dtype=float)
        if arr.ndim == 0 or arr.shape[-1] != self.n_coeffs:
            raise DimensionMismatchError(
                f"expected trailing axis of size {self.n_coeffs}, got shape {arr.shape}"
            )
        return arr


def _weighted_dot(x: np.ndarray, w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum(w * x * y) over the trailing axis, in one pass."""
    return np.einsum("...m,m,...m->...", x, w, y)


def inner_h(space: SpaceSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """H inner product, broadcasting over leading axes: (x * y) @ w, which
    forms the product of x and y."""
    x = space.check_coeffs(x)
    y = space.check_coeffs(y)
    return np.multiply(x, y) @ space.h_weights


def norm_h(space: SpaceSpec, x: np.ndarray) -> np.ndarray:
    """H norm, broadcasting over leading axes.

    Exact up to rounding for every finite row: a row whose weighted sum of
    squares underflows to 0 or overflows to inf is summed again, scaled.
    """
    x = space.check_coeffs(x)
    sq = _weighted_dot(x, space.h_weights, x)
    if np.count_nonzero(sq) == sq.size and sq.sum() < np.inf:  # NaN fails too
        return np.sqrt(sq)
    return _rescaled_norm(x, space.h_weights, sq)


# Power-of-two factors that bring any nonzero finite row whose weighted sum of
# squares underflows to 0 or overflows to inf back into range, exactly.
_UP, _DOWN = 2.0**600, 2.0**-600


def _rescaled_norm(x: np.ndarray, w: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """sqrt(sq), with the rows whose sum sq is 0 or inf summed again scaled:
    up where it underflowed (entries below about 1e-154), down where it
    overflowed (entries above about 1e154).  Zero rows stay 0 and rows with
    an infinite entry stay inf."""
    sq = np.asarray(sq).reshape(-1)
    norm = np.sqrt(sq)
    odd = np.flatnonzero((sq == 0.0) | (sq == np.inf))
    rows = np.take(x.reshape(-1, x.shape[-1]), odd, axis=0)
    if not rows.any():  # zero rows only, such as penalty increments inside the ball
        return norm.reshape(x.shape[:-1])[()]
    factor = np.where(sq[odd] == 0.0, _UP, _DOWN)
    rows *= factor[:, None]
    norm[odd] = np.sqrt(_weighted_dot(rows, w, rows)) / factor
    return norm.reshape(x.shape[:-1])[()]


def norm_v(space: SpaceSpec, x: np.ndarray) -> np.ndarray:
    x = space.check_coeffs(x)
    if space.v_norm_fn is not None:
        return np.asarray(space.v_norm_fn(x), dtype=float)
    return np.sqrt(_weighted_dot(x, space.v_weights, x))


def v_energy(space: SpaceSpec, x: np.ndarray, alpha: float) -> np.ndarray:
    """||x||_V^alpha: x**2 @ v_weights when V is quadratic and alpha is 2,
    else norm_v ** alpha."""
    if space.v_weights is None or alpha != 2:
        return norm_v(space, x) ** alpha
    x = space.check_coeffs(x)
    return np.square(x) @ space.v_weights


def project_ball(space: SpaceSpec, x: np.ndarray) -> np.ndarray:
    """Metric projection onto the closed unit ball: identity inside, radial
    rescale outside, and no moved row reads above radius 1 (`_clamp`).
    Points on the sphere are fixed."""
    x = space.check_coeffs(x)
    return _clamp(space, x, norm_h(space, x))


def _clamp(space: SpaceSpec, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """x * fl(1 / max(r, 1)) for r = |x|_H.  A moved row has computed radius
    1 + O(m eps) and may read just above 1: such a row is scaled once by the
    inverse of the radius norm_h reads, and then each pass multiplies the
    rows still above 1 by 1 - eps, which lowers every normal coefficient by
    one or two ulps, until norm_h reads at most 1.  Rows inside are returned
    as is."""
    x = x * (1.0 / np.maximum(r, 1.0))[..., None]
    outside = np.array(r > 1.0)
    if outside.any():
        read = norm_h(space, x[outside])
        outside[outside] = above = read > 1.0
        x[outside] *= (1.0 / read[above])[:, None]
    while outside.any():
        outside[outside] = norm_h(space, x[outside]) > 1.0
        x[outside] *= 1.0 - np.finfo(float).eps
    return x


def _gap_factor(r: np.ndarray) -> np.ndarray:
    """lambda(r) = 1 - 1/max(r, 1): x - project_ball(x) = lambda(|x|_H) x."""
    return 1.0 - 1.0 / np.maximum(r, 1.0)


def penalty_gap(space: SpaceSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(x - project_ball(x), half squared distance to the ball)``.

    The gap is radial: lambda(r) * x with lambda(r) = 1 - 1/max(r, 1) and
    r = |x|_H, so its H norm is exactly (r - 1)_+ and the second output is
    (r - 1)_+^2 / 2.
    """
    x = space.check_coeffs(x)
    r = norm_h(space, x)
    excess = np.maximum(r - 1.0, 0.0)
    return _gap_factor(r)[..., None] * x, 0.5 * excess * excess

