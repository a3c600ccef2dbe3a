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

At n = inf both steppers are the projection scheme: x-tilde is mapped onto
the ball by the clamp of hilbert.project_ball, which leaves no row above
radius 1 (the splitting step at exp(-n dt) = 0).  An explicit stack may hold
this level next to its finite ones: its rows take the clamp, every other row
the pre-step penalty.

Models with a stiff diagonal linear part declare linear_symbol; the
drift+noise move then uses the Lawson integrating factor
exp(symbol dt) * (x + dt * nonstiff(x)), which is exact on the linear flow.

Every path is stepped by one kernel, `_penalized_stack`, which checks the
levels, the initial state (in the closed unit ball) and the range of path
indices, raising ConfigurationError, then advances a (levels, paths, coeffs)
stack.  It draws the noise itself, keyed on (seed, path) and shared by all
levels, in chunks of 1024 values per path, so that nothing it holds grows
with the horizon; `simulate_path` is its one-level, one-path case.  The
studies are reductions fed by `_ensemble`, the one owner of their paths and
of the final alive mask, which hands each the kernel's own step; one
ensemble can feed several studies, each reading its leading paths.
What stays fixed for a run is computed once, when the kernel opens: the
Lawson factor exp(symbol dt), whether a level is n = inf, and each row's
penalty factor (-n dt for an explicit level, 0 at n = inf, and exp(-n dt)
for a splitting level), which a row's copies take when its path parts; the
noise amplitudes sqrt(q) are the NoiseSpec's own.  The explicit penalty is
then one scaled pass over the rows, x * (lambda(r) * factor).
Each explicit step reads the pre-step radius that the kernel's divergence
check computed, so it computes one H norm per row per step; a splitting step,
or an explicit step of a stack that holds n = inf, computes two, of x-tilde
and of the new state, and at n = inf the clamp's guard reads the clamped
rows once or more.

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

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ConfigurationError
from .hilbert import _clamp, _gap_factor, norm_h
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


def _check_count(name: str, value, least: int) -> None:
    """A count is an int or numpy integer >= least; a float or a bool is
    rejected, not rounded."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ConfigurationError(f"{name} must be a whole number >= {least}, got {value!r}")


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
        _check_count("steps", self.steps, 1)
        _check_count("seed", self.seed, 0)
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
    _check_count("seed", seed, 0)
    _check_count("path_index", path_index, 0)
    _check_count("mode_count", mode_count, 1)
    _check_count("steps", steps, 1)
    (generator,) = _path_generators(seed, range(path_index, path_index + 1))
    dW = generator.standard_normal((steps, mode_count))
    dW *= np.sqrt(dt)
    return dW


def _path_generators(seed: int, paths: range) -> list[np.random.Generator]:
    """The counter-based generator of each path index in paths:
    Generator(Philox(SeedSequence((seed, i)))), built from the keys of
    `_path_keys`."""
    keys = _path_keys(seed, paths)
    return [np.random.Generator(np.random.Philox(_PhiloxKey(key))) for key in keys]


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """A seed sequence that knows only its Philox key: the answer of
    SeedSequence.generate_state(2, np.uint64), which is all Philox asks."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key answers generate_state(2, np.uint64) only")
        return self.key


# numpy's SeedSequence hash on its pool of 4 words (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = np.uint32(0x43B0D7E5), np.uint32(0x931E8875)
_INIT_B, _MULT_B = np.uint32(0x8B51F9DD), np.uint32(0x58F38DED)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4


def _words(n: int) -> list[int]:
    """The 32-bit words, least significant first, that SeedSequence reads
    from a nonnegative int: at least one."""
    words = [n & 0xFFFFFFFF]
    while n >= 2**32:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


# faster than a SeedSequence per path: 200 paths' generators open in 0.73-0.89 ms,
# against 2.04-2.34 ms (2-core Xeon, numpy 2.4)
def _path_keys(seed: int, paths: range) -> np.ndarray:
    """(len(paths), 2) uint64 keys: SeedSequence((seed, i)).generate_state(2,
    np.uint64) for each i in the nonempty range paths, hashed for all paths
    at once.  The entropy of (seed, i) is the words of seed then those of i,
    so the paths are hashed in groups of one word count (i >= 2**32 takes
    two)."""
    seed_words = _words(int(seed))
    top = max(paths[0], paths[-1])
    index = np.arange(paths.start, paths.stop, paths.step, np.uint64 if top < 2**64 else object)
    count = len(_words(top))
    size = np.ones(len(index), dtype=int)
    for w in range(1, count):
        size += index >= 2 ** (32 * w)
    keys = np.empty((len(index), 2), dtype=np.uint64)
    for w in range(1, count + 1):
        rows = np.flatnonzero(size == w)
        entropy = np.empty((len(seed_words) + w, rows.size), dtype=np.uint32)
        entropy[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
        for k in range(w):
            entropy[len(seed_words) + k] = (index[rows] >> (32 * k)) & 0xFFFFFFFF
        keys[rows] = _seed_hash(entropy)
    return keys


def _seed_hash(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(entropy[:, c]).generate_state(2, np.uint64) for every
    column c of an (E, N) uint32 array, as an (N, 2) uint64 array."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A
        value = value * const
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = _MIX_L * x - _MIX_R * y
        return value ^ (value >> np.uint32(16))

    zero = np.zeros(entropy.shape[1], dtype=np.uint32)
    with np.errstate(over="ignore"):  # uint32 products wrap, as the C hash's do
        pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[_POOL:]:
            for dst in range(_POOL):
                pool[dst] = mix(pool[dst], hashmix(word))
        state = np.empty((entropy.shape[1], 4), dtype="<u4")
        const = _INIT_B
        for i in range(4):
            value = pool[i] ^ const
            const = const * _MULT_B
            value = value * const
            state[:, i] = value ^ (value >> np.uint32(16))
    return state.view("<u8").astype(np.uint64)


# values of every path's noise that the kernel draws at once: 128 steps of
# 8 modes, 1024 steps of one mode
_CHUNK_VALUES = 1024


def _brownian_stream(seed: int, paths: range, mode_count: int, steps: int, dt: float):
    """Yield each step's (len(paths), mode_count) increments of the path
    indices in paths: brownian_increments' draws, read from one generator per
    path _CHUNK_VALUES values (whole steps, at least one) at a time.  The
    generators' keys are hashed for all paths at once (`_path_keys`).  A
    yielded array is overwritten by a later chunk."""
    streams = _path_generators(seed, paths)
    chunk_steps = max(1, _CHUNK_VALUES // mode_count)
    chunk = np.empty((len(paths), min(steps, chunk_steps), mode_count))
    for start in range(0, steps, chunk_steps):
        drawn = chunk[:, : steps - start]
        for stream, rows in zip(streams, drawn):
            stream.standard_normal(out=rows)
        # the whole chunk, since numpy buffers a strided multiply of a partial
        # one; the rest of a partial chunk is never read
        chunk *= np.sqrt(dt)
        yield from drawn.swapaxes(0, 1)


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
    return _move(model, t, dt, state, dW, _lawson_factor(model, dt))


def _lawson_factor(model: ModelSpec, dt: float) -> np.ndarray | None:
    """exp(symbol dt) of a model with a stiff linear part, else None."""
    return None if model.linear_symbol is None else np.exp(model.linear_symbol * dt)


def _move(model, t, dt, state, dW, lawson):
    """one_step_move on float arrays, with the Lawson factor given."""
    drift = model.state_rhs(t, state) if lawson is None else model.nonstiff_drift(t, state)
    # allocated after the drift, so that the drift's scratch and it never coexist
    moved = np.empty(np.broadcast(state[..., 0], dW[..., 0]).shape + state.shape[-1:])
    np.multiply(dt, drift, out=moved)
    moved += state
    if lawson is not None:
        moved *= lawson
    return apply_noise(model.noise, state, dW, out=moved)


def _penalty_factor(method: str, rate):
    """The factor a level's penalty scales by, from its n dt: -n dt for an
    explicit level, 0 at n = inf (the clamp then acts; inf * 0 is NaN), and
    exp(-n dt) for a splitting level."""
    if method == "splitting":
        return np.exp(-rate)
    return np.where(np.isinf(rate), 0.0, -rate)


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
    x-tilde, ignores it.  At n = inf either method takes x-tilde onto the
    ball by the clamp of project_ball.  No divergence check here:
    `_penalized_stack` makes it once per step for every row.

    rows is the kernel's row table, and state its rows in use: row q reads
    dW[rows.path[q]] and its own level's n dt, and cfg.n is not read; the
    table holds the run's constants.  After the move, the merged paths on
    which the penalty is about to act are parted, so state' and dL have one
    row per row in use after parting, and state' is written into the table.
    """
    space = model.space
    if rows is None:
        lawson, projection = _lawson_factor(model, cfg.dt), np.isinf(cfg.n)
        rate, out = np.multiply(cfg.n, cfg.dt), None
        factor = _penalty_factor(cfg.method, rate)
    else:
        lawson, projection = rows.lawson, rows.projection
        dW = np.take(dW, rows.path[: len(state)], axis=0)
    x_tilde = _move(model, t, cfg.dt, state, dW, lawson)
    if cfg.method == "splitting":
        r_tilde = norm_h(space, x_tilde)
        if rows is not None:
            r_tilde, x_tilde = rows.part(r_tilde > 1.0, r_tilde, x_tilde)
            rate, factor, out = rows.in_use()
        excess = np.maximum(r_tilde - 1.0, 0.0)
        scale = (1.0 + excess * factor) / np.maximum(r_tilde, 1.0)
        new = np.multiply(x_tilde, scale[..., None], out=out)
        dL = new - x_tilde
    else:
        if r is None:
            r = norm_h(space, state)
        arrays, acting = (state, r, x_tilde), r > 1.0
        # of the explicit levels only the projection level reads |x-tilde|_H
        if projection:
            r_tilde = norm_h(space, x_tilde)
            arrays, acting = arrays + (r_tilde,), acting | (r_tilde > 1.0)
        if rows is not None:
            arrays = rows.part(acting, *arrays)
            rate, factor, out = rows.in_use()
        state, r, x_tilde, r_tilde = arrays if projection else arrays + (None,)
        # dL = -n dt (x - pi(x)), in one pass; the projection level's factor is 0
        dL = np.multiply(state, (_gap_factor(r) * factor)[..., None])
        new = np.add(x_tilde, dL, out=out)
    if projection:  # the splitting step at exp(-inf) = 0: x-tilde onto the ball
        clamp = np.isinf(rate)
        # radius 1 leaves the rows of the other levels unmoved and unguarded
        onto = _clamp(space, x_tilde, np.where(clamp, r_tilde, 1.0))
        np.copyto(new, onto, where=clamp[..., None])
        np.subtract(new, x_tilde, out=dL, where=clamp[..., None])
    return new, dL


class _Rows:
    """The kernel's rows of a (levels, paths) stack.

    A path has one row, on level 0, while its level rows coincide, and one
    row per level from the step at which it parts; the rows of levels 1.. of
    a parted path are appended in the order the paths part, so rows never
    move and the first `count` rows are in use.  put[l, i] is the row of
    level l of path i.  Every array is allocated at the full capacity
    levels * paths.  The table also holds the run's constants, which
    step_penalized reads: the Lawson factor, whether a level is n = inf, and
    each row's penalty factor.
    """

    def __init__(self, model, cfg, levels, paths):
        rates = levels * cfg.dt
        self.lawson = _lawson_factor(model, cfg.dt)
        self.projection = bool(np.isinf(rates).any())
        self.level_rate, self.level_factor = rates, _penalty_factor(cfg.method, rates)
        self.x = np.empty((levels.size * paths, model.space.n_coeffs))
        self.alive = np.ones(levels.size * paths, dtype=bool)
        self.rate = np.repeat(rates, paths)
        self.factor = np.repeat(self.level_factor, paths)
        self.path = np.tile(np.arange(paths), levels.size)
        self.put = np.tile(np.arange(paths), (levels.size, 1))
        self.merged = np.full(paths, levels.size > 1)  # one level has nothing to part
        self.count = paths

    def in_use(self):
        """(rate, factor, x) of the rows in use: each row's n dt and penalty
        factor, and its states."""
        return self.rate[: self.count], self.factor[: self.count], self.x[: self.count]

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
        self.factor[new] = np.repeat(self.level_factor[1:], split.size)
        self.path[new] = np.tile(split, levels - 1)
        self.alive[new] = True
        self.put[1:, split] = np.arange(start, self.count).reshape(levels - 1, split.size)
        self.merged[split] = False
        # a merged path's row is row i of path i, which its new rows copy
        return tuple(np.concatenate([a, a[self.path[new]]]) for a in arrays)


def _penalized_stack(model, cfg, levels, x0, paths):
    """Step a (levels, paths, coeffs) stack from x0, held as the rows of `_Rows`.

    Raises ConfigurationError before any step unless levels is a nonempty
    1-D sequence of levels that cfg.with_n accepts, x0 one state with
    |x0|_H <= 1 + 1e-12 and paths a nonempty range of path indices >= 0,
    whose noise every level reads (common random numbers).
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
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.space.n_coeffs,):
        raise ConfigurationError(f"x0 must be one state of {model.space.n_coeffs} coefficients")
    r0 = norm_h(model.space, x0)
    if not r0 <= 1.0 + 1e-12:  # NaN fails too
        raise ConfigurationError("initial state must lie in the closed unit ball")
    if not (isinstance(paths, range) and len(paths) and min(paths[0], paths[-1]) >= 0):
        raise ConfigurationError(f"paths must be a nonempty range of indices >= 0, got {paths!r}")
    return _advance(model, cfg, levels, x0, paths, r0)


def _advance(model, cfg, levels, x0, paths, r0):
    rows = _Rows(model, cfg, levels, len(paths))
    rows.x[: rows.count] = x0
    noise = _brownian_stream(cfg.seed, paths, model.noise.mode_count, cfg.steps, cfg.dt)
    # r is the pre-step radius: |x0|_H, then the radius each divergence check
    # read, which the next explicit step reuses.  A dead row's r only reaches
    # its own row, which is pinned to zero again.
    r = np.full(rows.count, r0)
    for j, dW in enumerate(noise):
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            x, dL = step_penalized(rows.x[: rows.count], j * cfg.dt, cfg, model, dW, r, rows)
            r = norm_h(model.space, x)
        alive = rows.alive[: rows.count]
        # a non-finite coefficient makes r inf or NaN, and NaN compares False
        alive &= r <= BLOWUP_NORM
        if not alive.all():
            x[~alive] = 0.0
            dL[~alive] = 0.0
        yield x, dL, r, alive, rows.put


def _ensemble(model, cfg, levels, x0, paths):
    """The coupled ensemble of one or more studies: the kernel on paths
    0..paths-1, opened here so that its inputs are checked before a study
    reads x0.  Returns feed(*reductions), which steps the kernel once and
    returns the list of each reduction's result.

    A reduction reads its leading `paths` paths, at most the ensemble's.
    After each step, feed calls its step(x, dL, r, alive, put): what the
    kernel yields, with put cut to the (L, paths) map from the reduction's
    leading paths to the rows.  At the end feed calls result(alive) of each,
    with alive its final (L, paths) mask of the rows that stayed finite."""
    _check_count("paths", paths, 1)
    kernel = _penalized_stack(model, cfg, levels, x0, range(paths))

    def feed(*reductions):
        leads = [np.s_[:, : reduction.paths] for reduction in reductions]
        for x, dL, r, alive, put in kernel:
            for reduction, lead in zip(reductions, leads):
                reduction.step(x, dL, r, alive, put[lead])
        final = alive[put]
        return [reduction.result(final[lead]) for reduction, lead in zip(reductions, leads)]

    return feed


def _trajectory(model, cfg, levels, x0, paths):
    """The kernel's whole output as a stack on the time grid: states
    (steps+1, L, M, m), dL (steps, L, M, m), radii (steps+1, L, M) and the
    final (L, M) alive mask.  Row 0 of states and radii is x0; dead rows
    read as yielded."""
    kernel = _penalized_stack(model, cfg, levels, x0, paths)
    states = np.empty((cfg.steps + 1, len(levels), len(paths), model.space.n_coeffs))
    dL = np.empty((cfg.steps,) + states.shape[1:])
    radii = np.empty(states.shape[:-1])
    states[0], radii[0] = x0, norm_h(model.space, x0)
    for j, (x, dl, r, alive, put) in enumerate(kernel, start=1):
        states[j], dL[j - 1], radii[j] = x[put], dl[put], r[put]
    return states, dL, radii, alive[put]


def simulate_path(
    model: ModelSpec, cfg: SchemeConfig, x0: np.ndarray, path_index: int = 0
) -> PathRecord:
    """One trajectory; raises BlowUpError on divergence.

    Deterministic given (cfg.seed, path_index), which key its noise as they
    key a study's path path_index.
    """
    _check_count("path_index", path_index, 0)
    x, dl, r, alive = _trajectory(model, cfg, [cfg.n], x0, range(path_index, path_index + 1))
    states, l_increments, radii = x[:, 0, 0], dl[:, 0, 0], r[:, 0, 0]
    if not alive[0, 0]:
        step = int(np.argmin(radii[1:] <= BLOWUP_NORM)) + 1  # the first step it left
        raise BlowUpError(step, step * cfg.dt, radii[step])
    return PathRecord(cfg.dt * np.arange(cfg.steps + 1), states, l_increments)
