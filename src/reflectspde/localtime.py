"""Reflection-measure accounting on recorded paths.

Everything here is a pure function of a PathRecord: the total variation of
the recorded L^n, the variational-inequality functional against ball-valued
test paths, and the boundary-support functional that measures how much of
the reflection mass falls away from the unit sphere.  All Riemann-Stieltjes
sums use left endpoints, matching the stepper's quadrature convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .hilbert import SpaceSpec, norm_h
from .montecarlo import Report
from .penalize import PathRecord, _brownian_block, _path_record, _penalized_stack

__all__ = [
    "ReflectionSummary",
    "total_variation",
    "variational_gap",
    "boundary_leak",
    "make_test_paths",
    "summarize",
    "InequalityRow",
    "inequality_study",
]


@dataclass(frozen=True, eq=False)
class ReflectionSummary:
    """Per-path reflection statistics.

    support_profile is a histogram of |X(t_j)|_H at the steps' left
    endpoints, weighted by the reflection mass |dL_j|_H — all mass should
    concentrate near radius 1.
    """

    total_variation: float
    masses: np.ndarray  # (steps,) per-step |dL|_H
    support_profile: tuple[np.ndarray, np.ndarray]  # (hist, bin_edges)


def _masses(space: SpaceSpec, path: PathRecord) -> np.ndarray:
    return norm_h(space, path.l_increments)


def total_variation(space: SpaceSpec, path: PathRecord) -> float:
    """Var_H of the piecewise-constant L^n: the sum of increment norms."""
    return float(np.sum(_masses(space, path)))


def variational_gap(space: SpaceSpec, path: PathRecord, test: np.ndarray) -> float:
    """sum_j (phi(t_j) - X(t_j), dL_j) for a ball-valued test path phi.

    Nonnegative up to one-step discretization error; exactly nonnegative for
    the explicit stepper (each dL_j points from X(t_j) toward its projection).
    """
    test = space.check_coeffs(np.asarray(test, dtype=float))
    if test.shape != path.states.shape:
        raise ConfigurationError(
            f"test path must match the state grid {path.states.shape}, got {test.shape}"
        )
    if np.any(norm_h(space, test) > 1.0 + 1e-9):
        raise ConfigurationError("test path leaves the closed unit ball")
    diff = test[:-1] - path.states[:-1]
    return float(np.sum(space.h_weights * diff * path.l_increments))


def boundary_leak(space: SpaceSpec, path: PathRecord, delta: float) -> float:
    """Reflection mass caught by a bump supported delta-deep inside the ball.

    psi_delta(r) = (1 - delta - r)^2 for r < 1 - delta, else 0; the result is
    sum_j psi_delta(|X(t_j)|_H) |dL_j|_H and should vanish as n grows.
    """
    if not 0.0 < delta < 1.0:
        raise ConfigurationError("delta must lie in (0, 1)")
    r = norm_h(space, path.states[:-1])
    bump = np.where(r < 1.0 - delta, (1.0 - delta - r) ** 2, 0.0)
    return float(np.sum(bump * _masses(space, path)))


def make_test_paths(
    space: SpaceSpec, seed: int, count: int, times: np.ndarray
) -> list[np.ndarray]:
    """Seeded family of continuous ball-valued test paths on the given grid.

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
    paths: list[np.ndarray] = [np.zeros((n_t, m))]

    for idx in (0, m - 1):
        if len(paths) >= count:
            break
        const = np.zeros(m)
        const[idx] = 1.0 / np.sqrt(space.h_weights[idx])
        paths.append(np.tile(const, (n_t, 1)))

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
    while len(paths) < count:
        coeffs = rng.standard_normal((5, active))
        curve = np.zeros((n_t, m))
        curve[:, :active] = shapes @ coeffs
        radius = rng.uniform(0.15, 1.0)
        sup = np.max(norm_h(space, curve))
        if sup > 0:
            curve *= radius / sup
        paths.append(curve)
    return paths[:count]


def summarize(
    space: SpaceSpec,
    path: PathRecord,
    bins: int = 24,
    radius_range: tuple[float, float] = (0.0, 1.2),
) -> ReflectionSummary:
    masses = _masses(space, path)
    r_left = norm_h(space, path.states[:-1])
    hist, edges = np.histogram(r_left, bins=bins, range=radius_range, weights=masses)
    return ReflectionSummary(
        total_variation=float(np.sum(masses)),
        masses=masses,
        support_profile=(hist, edges),
    )


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
    test_seed: int | None = None,
) -> Report:
    """Variational-gap and boundary-leak table over a penalization grid.

    Simulates every level n and path index in one coupled ensemble (the
    noise of path i is shared by all levels) and reports, per level and
    path, the total variation of L^n, the minimum over the seeded test-path
    family of the variational gap, and the boundary leak at delta.  A path
    that blows up yields a NaN row and counts as a failure.
    """
    space = model.space
    n_grid = [float(n) for n in n_grid]
    if not n_grid:
        raise ConfigurationError("n_grid must be nonempty")
    if paths < 1:
        raise ConfigurationError("paths must be >= 1")
    x0 = space.check_coeffs(np.asarray(x0, dtype=float))
    times = np.arange(cfg.steps + 1) * cfg.dt
    seed = cfg.seed if test_seed is None else test_seed
    tests = make_test_paths(space, seed, test_count, times)

    dW = _brownian_block(cfg.seed, paths, model.noise.mode_count, cfg.steps, cfg.dt)
    states = np.empty((cfg.steps + 1, len(n_grid), paths, space.n_coeffs))
    l_increments = np.empty((cfg.steps,) + states.shape[1:])
    states[0] = x0
    for j, (x, dL, _, alive) in enumerate(_penalized_stack(model, cfg, n_grid, x0, dW)):
        states[j + 1] = x
        l_increments[j] = dL

    rows = []
    for li, n in enumerate(n_grid):
        for i in range(paths):
            if not alive[li, i]:
                rows.append(InequalityRow(n, i, float("nan"), float("nan"), float("nan")))
                continue
            rec = _path_record(
                space, cfg.with_n(n), states[:, li, i], l_increments[:, li, i]
            )
            tv = total_variation(space, rec)
            min_gap = min(variational_gap(space, rec, phi) for phi in tests)
            leak = boundary_leak(space, rec, delta)
            rows.append(InequalityRow(n, i, tv, min_gap, leak))
    return Report(tuple(rows), int(np.count_nonzero(~alive)))
