"""Reflection-measure accounting as reductions over the stepping kernel's output.

States (steps+1, *batch, m) and penalty increments dL (steps, *batch, m)
carry time on axis 0, any batch axes (levels, paths) between, and
coefficients last.  Each functional reduces them for every batch row at
once: the total variation of L^n, the variational-inequality functional
against a family of ball-valued test paths, and the mass of reflection away
from the unit sphere.  Riemann-Stieltjes sums use left endpoints, as the
explicit stepper does: its dL_j reads the pre-step state X_j, where the
splitting stepper's acts on x-tilde.  The reflection mass over radii is one
histogram over the same arrays:
``np.histogram(norm_h(space, states[:-1]), weights=norm_h(space, dL))``.
`inequality_study` takes the same sums as a running reduction over the
kernel's steps, which `penalize._ensemble`, the owner of the final alive
mask, hands it, against the test family's factors, and holds one block of
at most 32 steps: each full block, and the last, is summed by
`total_variation`, `boundary_leak` and the factored cross term, so the
left-endpoint sums are written once, here.  The reduction checks the
study's arguments and reads the ensemble's leading paths, so one ensemble
can feed it and the estimates together, as the CLI's does.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, _check_count
from .hilbert import SpaceSpec, norm_h
from .montecarlo import Report
from .penalize import _ensemble

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


def _test_factors(space: SpaceSpec, seed: int, count: int, times: np.ndarray):
    """make_test_paths' family as (shapes (len(times), 5), coeffs (count, 5, m)):
    member f is shapes @ coeffs[f], drawn in make_test_paths' order."""
    times = np.asarray(times, dtype=float)
    m = space.n_coeffs
    coeffs = np.zeros((count, 5, m))
    constants = [0, m - 1][: count - 1]  # the members after the zero path
    filled = 1 + len(constants)
    coeffs[np.arange(1, filled), 0, constants] = 1.0 / np.sqrt(space.h_weights[constants])

    rng = np.random.default_rng(seed)
    span = times[-1] - times[0] if times.shape[0] > 1 else 1.0
    angle = np.pi * ((times - times[0]) / (span if span > 0 else 1.0))
    shapes = np.stack(
        [np.ones_like(angle), np.sin(angle), np.cos(angle), np.sin(2 * angle), np.cos(2 * angle)],
        axis=-1,
    )
    active = min(6, m)
    w = space.h_weights[:active]
    # one member's curve at a time, on its active columns (it is zero beyond)
    curve, squares = np.empty((len(times), active)), np.empty(len(times))
    for member in coeffs[filled:]:
        member[:, :active] = rng.standard_normal((5, active))
        radius = rng.uniform(0.15, 1.0)
        np.matmul(shapes, member[:, :active], out=curve)
        sup = np.sqrt(np.max(np.einsum("tm,m,tm->t", curve, w, curve, out=squares)))
        if sup > 0:
            member *= radius / sup
    return shapes, coeffs


def make_test_paths(space: SpaceSpec, seed: int, count: int, times: np.ndarray) -> np.ndarray:
    """Seeded (count, len(times), m) family of continuous ball-valued test paths.

    Member 0 is the zero path; the next members are fixed boundary constants
    (unit basis vectors); the rest are random low-frequency coefficient
    curves rescaled to a random sup radius <= 1.  Values at grid points lie
    in the ball, hence so does the piecewise-linear interpolant (convexity).
    """
    _check_count("count", count, 1)
    return np.matmul(*_test_factors(space, seed, count, times))


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
    The sums run over the kernel's steps; per row, the moment sum_j shapes(t_j)
    (x) w dL_j gives each test member's cross term in one contraction.
    """
    reduction = _Inequality(model, cfg, n_grid, paths=paths, test_count=test_count, delta=delta)
    return next(_ensemble(model, cfg, x0, reduction))


# a block of the inequality table holds at most this many steps, and at most
# this many values in each of its arrays unless one step holds more
_BLOCK_STEPS, _BLOCK_VALUES = 32, 2**15


class _Inequality:
    """inequality_study as a reduction over `penalize._ensemble`, on its
    leading `paths` paths; its arguments are the study's but x0, which the
    ensemble starts it at.

    Each step's increments and post-step states are copied into a block of
    at most _BLOCK_STEPS steps and _BLOCK_VALUES values per array (one step
    when a step's table is larger), whose sums total_variation,
    boundary_leak and the factored cross term add to the totals once the
    block is full, and at the end.  The block's first state is the pre-step
    state of its first step, carried over from the block before."""

    def __init__(self, model, cfg, n_grid, *, paths, test_count, delta):
        if not 0.0 < delta < 1.0:
            raise ConfigurationError("delta must lie in (0, 1)")
        _check_count("paths", paths, 1)
        _check_count("test_count", test_count, 1)
        self.space, self.delta = model.space, delta
        self.levels, self.paths = [float(n) for n in n_grid], paths
        times = np.arange(cfg.steps + 1) * cfg.dt
        self.shapes, self.coeffs = _test_factors(model.space, cfg.seed, test_count, times)

    def start(self, x0):
        shape, m = (len(self.levels), self.paths), self.space.n_coeffs
        block = max(1, min(_BLOCK_STEPS, _BLOCK_VALUES // (shape[0] * shape[1] * m)))
        self.dL = np.empty((block,) + shape + (m,))
        self.x = np.empty((block + 1,) + shape + (m,))  # a failed row is zero
        self.x[0] = x0
        self.tv, self.leak, self.own = np.zeros((3,) + shape)
        self.moment = np.zeros(shape + self.coeffs.shape[1:])
        self.j = 0  # the first step of the block
        self.k = 0  # the steps in the block

    def step(self, x_rows, dL_rows, _r, _alive, put):
        k = self.k
        np.take(dL_rows, put, axis=0, out=self.dL[k])
        np.take(x_rows, put, axis=0, out=self.x[k + 1])
        self.k = k + 1
        if self.k == len(self.dL):
            self._add_block()

    def _add_block(self):
        space, k = self.space, self.k
        dL, x = self.dL[:k], self.x[: k + 1]
        self.tv += total_variation(space, dL)
        self.leak += boundary_leak(space, x, dL, self.delta)
        w_dl = space.h_weights * dL
        self.own += np.einsum("j...m,j...m->...", x[:-1], w_dl)
        self.moment += np.einsum("js,j...m->...sm", self.shapes[self.j : self.j + k], w_dl)
        self.x[0] = x[-1]
        self.j += k
        self.k = 0

    def result(self, alive) -> Report:
        if self.k:
            self._add_block()
        gaps = np.einsum("fsm,...sm->...f", self.coeffs, self.moment) - self.own[..., None]
        table = np.stack([self.tv, gaps.min(axis=-1), self.leak], axis=-1)
        table[~alive] = np.nan  # dead rows were pinned to zero by the kernel
        rows = [
            InequalityRow(n, i, *map(float, table[li, i]))
            for li, n in enumerate(self.levels)
            for i in range(self.paths)
        ]
        return Report(tuple(rows), int(np.count_nonzero(~alive)))
