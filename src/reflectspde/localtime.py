"""Reflection-measure accounting as reductions over the stepping kernel's arrays.

States (steps+1, *batch, m) and penalty increments dL (steps, *batch, m)
carry time on axis 0, any batch axes (levels, paths) between, and
coefficients last.  Each functional reduces them for every batch row at
once: the total variation of L^n, the variational-inequality functional
against a family of ball-valued test paths, and the mass of reflection away
from the unit sphere.  Riemann-Stieltjes sums use left endpoints, as the
stepper does.  The reflection mass over radii is one histogram over the
same arrays: ``np.histogram(norm_h(space, states[:-1]), weights=norm_h(space, dL))``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .hilbert import SpaceSpec, norm_h
from .montecarlo import Report
from .penalize import _brownian_block, _trajectory

__all__ = [
    "total_variation",
    "variational_gap",
    "boundary_leak",
    "make_test_paths",
    "InequalityRow",
    "inequality_study",
]


def _check_path(space: SpaceSpec, states, l_increments) -> tuple[np.ndarray, np.ndarray]:
    states, l_increments = space.check_coeffs(states), space.check_coeffs(l_increments)
    if l_increments.shape != (len(states) - 1,) + states.shape[1:]:
        raise ConfigurationError(f"increments {l_increments.shape} do not fit {states.shape}")
    return states, l_increments


def total_variation(space: SpaceSpec, l_increments: np.ndarray) -> np.ndarray:
    """Var_H of the piecewise-constant L^n: the sum of increment norms over time."""
    return np.sum(norm_h(space, l_increments), axis=0)


def variational_gap(
    space: SpaceSpec, states: np.ndarray, l_increments: np.ndarray, tests: np.ndarray
) -> np.ndarray:
    """sum_j (phi(t_j) - X(t_j), dL_j)_H for every batch row and test path.

    tests is a family (*family, steps+1, m) of ball-valued paths on the
    states' time grid, or one (steps+1, m) path; the result has shape
    (*batch, *family).  Each gap is sum_j (phi_j, dL_j)_H - sum_j (X_j, dL_j)_H;
    the first sum, for the whole family, is one (family, steps*m) @
    (steps*m, batch) product.

    Nonnegative up to one-step discretization error.  For the explicit
    stepper each term (phi_j - X_j, dL_j)_H is >= 0 (dL_j points from X_j
    toward its projection), but the difference of the two sums keeps that
    sign only up to rounding of order eps * sum_j |X_j|_H |dL_j|_H.
    """
    states, l_increments = _check_path(space, states, l_increments)
    tests = space.check_coeffs(tests)
    if tests.ndim < 2 or tests.shape[-2] != states.shape[0]:
        raise ConfigurationError(
            f"test paths must match the state grid {(states.shape[0], space.n_coeffs)}, "
            f"got {tests.shape}"
        )
    w = space.h_weights
    # squared radii without a family-sized temporary
    if np.any(np.einsum("...m,m,...m->...", tests, w, tests) > (1.0 + 1e-9) ** 2):
        raise ConfigurationError("test path leaves the closed unit ball")
    steps, batch, family = l_increments.shape[0], states.shape[1:-1], tests.shape[:-2]
    # (*batch, steps, m) weighted increments, C-ordered so rows flatten to steps*m
    w_dl = np.multiply(w, np.moveaxis(l_increments, 0, -2), order="C")
    own = np.einsum("j...m,...jm->...", states[:-1], w_dl)
    # the family's first steps rows, flattened as a view: no copy of the family
    left = tests[..., :-1, :].reshape(-1, steps * space.n_coeffs)
    cross = left @ w_dl.reshape(-1, steps * space.n_coeffs).T
    gaps = cross.T.reshape(batch + family) - own.reshape(batch + (1,) * len(family))
    return gaps[()]


def boundary_leak(
    space: SpaceSpec, states: np.ndarray, l_increments: np.ndarray, delta: float
) -> np.ndarray:
    """Reflection mass caught by a bump supported delta-deep inside the ball.

    psi_delta(r) = (1 - delta - r)^2 for r < 1 - delta, else 0; the result is
    sum_j psi_delta(|X(t_j)|_H) |dL_j|_H and should vanish as n grows.
    """
    if not 0.0 < delta < 1.0:
        raise ConfigurationError("delta must lie in (0, 1)")
    states, l_increments = _check_path(space, states, l_increments)
    r = norm_h(space, states[:-1])
    bump = np.where(r < 1.0 - delta, (1.0 - delta - r) ** 2, 0.0)
    return np.sum(bump * norm_h(space, l_increments), axis=0)


def make_test_paths(space: SpaceSpec, seed: int, count: int, times: np.ndarray) -> np.ndarray:
    """Seeded (count, len(times), m) family of continuous ball-valued test paths.

    Member 0 is the zero path; the next members are fixed boundary constants
    (unit basis vectors); the rest are random low-frequency coefficient
    curves rescaled to a random sup radius <= 1.  Values at grid points lie
    in the ball, hence so does the piecewise-linear interpolant (convexity).
    """
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    times = np.asarray(times, dtype=float)
    n_t = times.shape[0]
    m = space.n_coeffs
    family = np.zeros((count, n_t, m))
    filled = 1  # member 0 is the zero path

    for idx in (0, m - 1):
        if filled >= count:
            break
        family[filled, :, idx] = 1.0 / np.sqrt(space.h_weights[idx])
        filled += 1

    rng = np.random.default_rng(seed)
    span = times[-1] - times[0] if n_t > 1 else 1.0
    tau = (times - times[0]) / (span if span > 0 else 1.0)
    # low-frequency shape functions in time
    shapes = np.stack(
        [
            np.ones_like(tau),
            np.sin(np.pi * tau),
            np.cos(np.pi * tau),
            np.sin(2.0 * np.pi * tau),
            np.cos(2.0 * np.pi * tau),
        ],
        axis=-1,
    )  # (n_t, 5)
    active = min(6, m)
    for curve in family[filled:]:
        coeffs = rng.standard_normal((5, active))
        curve[:, :active] = shapes @ coeffs
        radius = rng.uniform(0.15, 1.0)
        sup = np.max(norm_h(space, curve))
        if sup > 0:
            curve *= radius / sup
    return family


class InequalityRow(NamedTuple):
    n: float
    path_index: int
    total_variation: float
    min_gap: float
    boundary_leak: float


def inequality_study(
    model,
    cfg,
    x0: np.ndarray,
    n_grid,
    *,
    paths: int = 3,
    test_count: int = 200,
    delta: float = 0.1,
) -> Report:
    """Variational-gap and boundary-leak table over a penalization grid.

    Simulates every level n and path index in one coupled ensemble (the
    noise of path i is shared by all levels) and reports, per level and
    path, the total variation of L^n, the minimum over the test-path family
    (seeded by cfg.seed) of the variational gap, and the boundary leak at
    delta.  A path that blows up yields a NaN row and counts as a failure.
    """
    space = model.space
    n_grid = [float(n) for n in n_grid]
    times = np.arange(cfg.steps + 1) * cfg.dt
    tests = make_test_paths(space, cfg.seed, test_count, times)
    dW = _brownian_block(cfg.seed, paths, model.noise.mode_count, cfg.steps, cfg.dt)
    states, l_increments, _, alive = _trajectory(model, cfg, n_grid, x0, dW)

    table = np.stack(
        [
            total_variation(space, l_increments),
            variational_gap(space, states, l_increments, tests).min(axis=-1),
            boundary_leak(space, states, l_increments, delta),
        ],
        axis=-1,
    )
    table[~alive] = np.nan  # dead rows were pinned to zero by the kernel
    rows = [
        InequalityRow(n, i, *map(float, table[li, i]))
        for li, n in enumerate(n_grid)
        for i in range(paths)
    ]
    return Report(tuple(rows), int(np.count_nonzero(~alive)))
