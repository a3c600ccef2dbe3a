"""Time discretization of the penalized dynamics with reflection recording.

The continuous model adds a penalty drift -n (X - pi(X)) to the SPDE; its
running integral L^n(t) = -n \\int_0^t (X^n - pi(X^n)) ds approximates the
reflection process.  Two steppers are provided:

explicit
    Euler-Maruyama transcription; the penalty increment is evaluated at the
    pre-step state, so dL_j = -n dt (X_j - pi(X_j)) exactly and the recorded
    variation is n dt sum |X_j - pi(X_j)|.  Requires n dt <= 1 at a
    finite level.
splitting
    Drift+noise move to an intermediate state, then the exact flow of
    r' = -n (r - 1)_+ applied to the H radius; stable for arbitrary n dt.

At n = inf both steppers are the projection (clamp) scheme: the splitting
step's excess factor exp(-n dt) is 0 and x-tilde is mapped onto the ball,
x-tilde / max(|x-tilde|_H, 1).  An explicit stack may hold this level next to
its finite ones: its rows take the clamp, every other row the pre-step
penalty.

Models with a stiff diagonal linear part declare linear_symbol; the
drift+noise move then uses the Lawson integrating factor
exp(symbol dt) * (x + dt * nonstiff(x)), which is exact on the linear flow.

Every path is stepped by one kernel, `_penalized_stack`, which checks the
levels, the initial state (in the closed unit ball) and the noise, raising
ConfigurationError, then advances a (levels, paths, coeffs) stack on one
Brownian block shared by all levels; `simulate_path` is its one-level,
one-path case, and the ensemble studies are reductions over what it yields.
Each explicit step reads the pre-step radius that the kernel's divergence
check computed, so it computes one H norm per row per step; a splitting step,
or an explicit step of a stack that holds n = inf, computes two, of x-tilde
and of the new state.

The kernel holds a path as one row while its level rows coincide.  The
penalty vanishes inside the ball and every level reads the same noise, so
for every n, X^n is the free solution up to the path's first exit: all
levels take dL = 0 while each radius their rules read is at most 1, the
pre-step radius for a finite explicit level and |x-tilde|_H for a splitting
level or the projection level.  At the first step at which one of them
exceeds 1, after the move and before the penalty, the path parts: its row
is copied once per further level, each row then reads its own level's n dt,
and it never merges again.  So the move, the penalty, the divergence norm,
the dead-row pinning and the studies' reductions all run on the rows (level
0 of every path, then levels 1.. of the parted paths), not on the
levels x paths stack; the (L, M) map `put` takes the stack to the rows.
The studies reduce each step's rows as they come and keep no time axis;
`_trajectory` builds the whole stack on the time grid for `simulate_path` and
the tests.  The rows are kept in arrays of the full capacity L * M, and rows
yielded by the kernel are valid until it is resumed.  With one level the
rows are the paths, in order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ConfigurationError
from .hilbert import SpaceSpec, norm_h, penalty_gap
from .models import ModelSpec, apply_noise

__all__ = [
    "SchemeConfig",
    "PathRecord",
    "brownian_increments",
    "one_step_move",
    "step_penalized",
    "simulate_path",
]

# H norm beyond which a trajectory is declared divergent, in every study
BLOWUP_NORM = 1e10


@dataclass(frozen=True)
class SchemeConfig:
    """Time grid and one penalty level.

    n is one number: a level >= 0, or inf for the projection scheme under
    either method.  The ensemble kernel checks each level of its grid
    through `with_n`.
    """

    dt: float
    steps: int
    n: float
    method: str = "explicit"
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ConfigurationError("dt must be positive and finite")
        if self.steps < 1:
            raise ConfigurationError("steps must be >= 1")
        if np.ndim(self.n) != 0:
            raise ConfigurationError(f"penalization level n must be one number, got {self.n!r}")
        if not self.n >= 0:  # NaN fails too
            raise ConfigurationError("penalization level n must be >= 0")
        if self.method not in ("explicit", "splitting"):
            raise ConfigurationError(f"unknown method {self.method!r}")
        if self.method == "explicit" and np.isfinite(self.n) and self.n * self.dt > 1.0 + 1e-12:
            raise ConfigurationError(
                f"explicit stepper needs n*dt <= 1 (got {self.n * self.dt:g}); "
                "use method=splitting for large n"
            )
        if self.seed < 0:
            raise ConfigurationError("seed must be nonnegative")

    @property
    def t_final(self) -> float:
        return self.dt * self.steps

    def with_n(self, n: float) -> "SchemeConfig":
        return SchemeConfig(self.dt, self.steps, n, self.method, self.seed)


@dataclass(frozen=True, eq=False)
class PathRecord:
    """One trajectory of (X^n, L^n), at the level and method of the
    SchemeConfig that simulate_path was given."""

    times: np.ndarray  # (steps+1,)
    states: np.ndarray  # (steps+1, m)
    l_increments: np.ndarray  # (steps, m)


def brownian_increments(
    seed: int, path_index: int, mode_count: int, steps: int, dt: float
) -> np.ndarray:
    """(steps, mode_count) Gaussian increments of variance dt.

    Counter-based generator keyed on (seed, path_index); draws are laid out
    (step, mode) row-major, so every penalization level replays the identical
    increments for a given path — the common-random-numbers coupling.
    """
    if mode_count < 1 or steps < 1:
        raise ConfigurationError("mode_count and steps must be >= 1")
    dW = _path_generator(seed, path_index).standard_normal((steps, mode_count))
    dW *= np.sqrt(dt)
    return dW


def _path_generator(seed: int, path_index: int) -> np.random.Generator:
    """The counter-based generator of path path_index's increments."""
    key = np.random.SeedSequence((int(seed), int(path_index)))
    return np.random.Generator(np.random.Philox(key))


def _brownian_block(seed: int, paths: int, mode_count: int, steps: int, dt: float) -> np.ndarray:
    """(paths, steps, mode_count) increments of path indices 0..paths-1; a
    block larger than physical memory is refused before it is allocated."""
    if paths < 1:
        raise ConfigurationError(f"paths must be >= 1, got {paths}")
    if mode_count < 1 or steps < 1:
        raise ConfigurationError("mode_count and steps must be >= 1")
    size = int(paths) * int(steps) * int(mode_count) * 8
    if size > os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"):
        raise ConfigurationError(
            f"noise block ({paths}, {steps}, {mode_count}) of {size / 2**30:.4g} GiB "
            "exceeds physical memory"
        )
    block = np.empty((paths, steps, mode_count))
    for i in range(paths):  # brownian_increments' draws, made in place
        _path_generator(seed, i).standard_normal(out=block[i])
        block[i] *= np.sqrt(dt)
    return block


def one_step_move(
    model: ModelSpec,
    t: float,
    dt: float,
    state: np.ndarray,
    dW: np.ndarray,
) -> np.ndarray:
    """Drift+noise move (no penalty): the x-tilde of the splitting stepper.

    Built in one fresh array, x + dt N(x) (times exp(symbol dt) for the
    Lawson step) plus B(x) dW; state and dW are never written, whatever the
    drift returns, and they broadcast against each other.
    """
    state, dW = np.asarray(state, dtype=float), np.asarray(dW, dtype=float)
    lawson = model.linear_symbol is not None
    drift = model.nonstiff_drift(t, state) if lawson else model.state_rhs(t, state)
    # allocated after the drift, so that the drift's scratch and it never coexist
    moved = np.empty(np.broadcast(state[..., 0], dW[..., 0]).shape + state.shape[-1:])
    np.multiply(dt, drift, out=moved)
    moved += state
    if lawson:
        moved *= np.exp(model.linear_symbol * dt)
    return apply_noise(model.noise, state, dW, out=moved)


def step_penalized(
    state: np.ndarray,
    t: float,
    cfg: SchemeConfig,
    model: ModelSpec,
    dW: np.ndarray,
    r: np.ndarray | None = None,
    rows: _Rows | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance one step at level cfg.n; returns (state', dL).

    state and dW broadcast against each other.  r is the pre-step radius
    |state|_H, which the explicit step's penalty reads; it is computed from
    state when not given, and the splitting step, whose penalty acts on
    x-tilde, ignores it.  At n = inf either method clamps x-tilde onto the
    ball.  No divergence check here: `_penalized_stack` makes it once per
    step for every row.

    rows is the kernel's row table, and state its rows in use: row q reads
    dW[rows.path[q]] and its own level's n dt, and cfg.n is not read.  After
    the move, the merged paths on which the penalty is about to act are
    parted, so state' and dL have one row per row in use after parting, and
    state' is written into the table.
    """
    space = model.space
    if rows is not None:
        dW = np.take(dW, rows.path[: len(state)], axis=0)
    x_tilde = one_step_move(model, t, cfg.dt, state, dW)
    rate, out = np.multiply(cfg.n, cfg.dt), None
    if cfg.method == "splitting":
        r_tilde = norm_h(space, x_tilde)
        if rows is not None:
            r_tilde, x_tilde = rows.part(r_tilde > 1.0, r_tilde, x_tilde)
            rate, out = rows.in_use()
        excess = np.maximum(r_tilde - 1.0, 0.0)
        scale = (1.0 + excess * np.exp(-rate)) / np.maximum(r_tilde, 1.0)
        new = np.multiply(x_tilde, scale[..., None], out=out)
        return new, new - x_tilde
    if r is None:
        r = norm_h(space, state)
    arrays, acting = (state, r, x_tilde), r > 1.0
    # of the explicit levels only the projection level reads |x-tilde|_H
    projection = np.isinf(cfg.n if rows is None else rows.level_rate).any()
    if projection:
        r_tilde = norm_h(space, x_tilde)
        arrays, acting = arrays + (r_tilde,), acting | (r_tilde > 1.0)
    if rows is not None:
        arrays = rows.part(acting, *arrays)
        rate, out = rows.in_use()
    state, r, x_tilde = arrays[:3]
    # the projection level takes no pre-step penalty: its rate is inf, and inf * 0 is NaN
    clamp = np.isinf(rate)[..., None]
    dL, _ = penalty_gap(space, state, r)
    dL *= np.where(clamp, 0.0, -rate[..., None])
    new = np.add(x_tilde, dL, out=out)
    if projection:  # the splitting step at exp(-inf) = 0: x-tilde onto the ball
        r_tilde = arrays[3]
        np.copyto(new, x_tilde * (1.0 / np.maximum(r_tilde, 1.0))[..., None], where=clamp)
        np.subtract(new, x_tilde, out=dL, where=clamp)
    return new, dL


class _Rows:
    """The kernel's rows of a (levels, paths) stack.

    A path has one row, on level 0, while its level rows coincide, and one
    row per level from the step at which it parts; the rows of levels 1.. of
    a parted path are appended in the order the paths part, so rows never
    move and the first `count` rows are in use.  put[l, i] is the row of
    level l of path i.  Every array is allocated at the full capacity
    levels * paths.
    """

    def __init__(self, rates, paths, m):
        levels = rates.size
        self.level_rate = rates
        self.x = np.empty((levels * paths, m))
        self.alive = np.ones(levels * paths, dtype=bool)
        self.rate = np.repeat(rates, paths)
        self.path = np.tile(np.arange(paths), levels)
        self.put = np.tile(np.arange(paths), (levels, 1))
        self.merged = np.full(paths, levels > 1)  # one level has nothing to part
        self.count = paths

    def in_use(self):
        """(rate, x) of the rows in use: each row's n dt, and its states."""
        return self.rate[: self.count], self.x[: self.count]

    def part(self, acting, *arrays):
        """Part the live merged paths whose row `acting` marks, and return
        arrays, each over the rows in use, with copies of those rows appended
        for the new rows."""
        if not self.merged.any():
            return arrays
        paths = self.merged.size
        split = np.flatnonzero(acting[:paths] & self.merged & self.alive[:paths])
        if split.size == 0:
            return arrays
        levels, start = len(self.put), self.count
        self.count += (levels - 1) * split.size
        new = slice(start, self.count)
        self.rate[new] = np.repeat(self.level_rate[1:], split.size)
        self.path[new] = np.tile(split, levels - 1)
        self.alive[new] = True
        self.put[1:, split] = np.arange(start, self.count).reshape(levels - 1, split.size)
        self.merged[split] = False
        # a merged path's row is row i of path i, which its new rows copy
        return tuple(np.concatenate([a, a[self.path[new]]]) for a in arrays)


def _penalized_stack(model, cfg, levels, x0, dW):
    """Step a (levels, paths, coeffs) stack from x0, held as the rows of `_Rows`.

    Raises ConfigurationError before any step unless levels is a nonempty
    1-D sequence of levels that cfg.with_n accepts, x0 one state with
    |x0|_H <= 1 + 1e-12 and dW a block (M >= 1, steps, K), which every level
    reads (common random numbers).
    The generator returned yields (x, dL, r, alive, put) after each step:
    the (k, m) rows in use and their penalty increments, the (k,) H radii
    the divergence check read, the (k,) mask of rows that have stayed finite
    with radius <= BLOWUP_NORM, and the (L, M) map from the stack to the
    rows, so that x[put] is the (L, M, m) stack.  x, alive and put are the
    kernel's own arrays, valid until the generator is resumed.  A dead row
    stays dead: its state and dL are pinned to zero, and its r is the radius
    that killed it at that step and meaningless after.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 1 or levels.size == 0:
        raise ConfigurationError("penalization levels must be a nonempty 1-D sequence")
    for n in levels:
        cfg.with_n(n)
    x0, dW = np.asarray(x0, dtype=float), np.asarray(dW, dtype=float)
    if x0.shape != (model.space.n_coeffs,):
        raise ConfigurationError(f"x0 must be one state of {model.space.n_coeffs} coefficients")
    r0 = norm_h(model.space, x0)
    if not r0 <= 1.0 + 1e-12:  # NaN fails too
        raise ConfigurationError("initial state must lie in the closed unit ball")
    k = model.noise.mode_count
    if dW.ndim != 3 or len(dW) < 1 or dW.shape[1:] != (cfg.steps, k):
        raise ConfigurationError(f"dW must be (paths >= 1, {cfg.steps}, {k}), got {dW.shape}")
    return _advance(model, cfg, levels, x0, dW, r0)


def _advance(model, cfg, levels, x0, dW, r0):
    rows = _Rows(levels * cfg.dt, len(dW), x0.size)
    rows.x[: rows.count] = x0
    # r is the pre-step radius: |x0|_H, then the radius each divergence check
    # read, which the next explicit step reuses.  A dead row's r only reaches
    # its own row, which is pinned to zero again.
    r = np.full(rows.count, r0)
    for j in range(cfg.steps):
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            x, dL = step_penalized(rows.x[: rows.count], j * cfg.dt, cfg, model, dW[:, j], r, rows)
            r = norm_h(model.space, x)
        alive = rows.alive[: rows.count]
        # a non-finite coefficient makes r inf or NaN, and NaN compares False
        alive &= r <= BLOWUP_NORM
        if not alive.all():
            x[~alive] = 0.0
            dL[~alive] = 0.0
        yield x, dL, r, alive, rows.put


def _trajectory(model, cfg, levels, x0, dW):
    """The kernel's whole output as a stack on the time grid: states
    (steps+1, L, M, m), dL (steps, L, M, m), radii (steps+1, L, M) and the
    final (L, M) alive mask.  Row 0 of states and radii is x0; dead rows
    read as yielded."""
    kernel = _penalized_stack(model, cfg, levels, x0, dW)
    states = np.empty((cfg.steps + 1, len(levels), len(dW), model.space.n_coeffs))
    dL = np.empty((cfg.steps,) + states.shape[1:])
    radii = np.empty(states.shape[:-1])
    states[0], radii[0] = x0, norm_h(model.space, x0)
    for j, (x, dl, r, alive, put) in enumerate(kernel, start=1):
        states[j], dL[j - 1], radii[j] = x[put], dl[put], r[put]
    return states, dL, radii, alive[put]


def simulate_path(
    model: ModelSpec,
    cfg: SchemeConfig,
    x0: np.ndarray,
    path_index: int = 0,
    dW: np.ndarray | None = None,
) -> PathRecord:
    """One trajectory; raises BlowUpError on divergence.

    Deterministic given (cfg.seed, path_index); dW may be supplied explicitly
    for coupling experiments and must then have shape (steps, K).
    """
    if dW is None:
        dW = brownian_increments(cfg.seed, path_index, model.noise.mode_count, cfg.steps, cfg.dt)
    x, dl, r, alive = _trajectory(model, cfg, [cfg.n], x0, np.asarray(dW, dtype=float)[None])
    states, l_increments, radii = x[:, 0, 0], dl[:, 0, 0], r[:, 0, 0]
    if not alive[0, 0]:
        step = int(np.argmin(radii[1:] <= BLOWUP_NORM)) + 1  # the first step it left
        raise BlowUpError(step, step * cfg.dt, radii[step])
    return PathRecord(cfg.dt * np.arange(cfg.steps + 1), states, l_increments)
