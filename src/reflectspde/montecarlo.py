"""Ensemble studies for the penalized scheme.

Estimator conventions (per penalization level n, horizon T, M paths):

    est_sup4         E[ sup_t |X|_H^4 ]
    est_weighted_pen n * E[ int_0^T |X|_H^2 <X, X - pi(X)>_H dt ]
    est_var2         E[ (n * int_0^T |X - pi(X)|_H dt)^2 ]
    est_pen_l2       n * E[ int_0^T |X - pi(X)|_H^2 dt ]
    est_v_energy     E[ int_0^T ||X||_V^alpha dt ]
    est_pen_sup4     E[ sup_t |X - pi(X)|_H^4 ]

Radial identities make every integrand a function of r = |X|_H alone:
|X - pi(X)| = (r-1)^+ and <X, X - pi(X)> = r (r-1)^+.  Time integrals use the
left-endpoint rule on the scheme grid.  That is the explicit stepper's own
quadrature, whose penalty reads the pre-step state: there n dt sum_j (r_j-1)^+
is sum_j |dL_j|_H.  Under splitting the penalty acts on x-tilde, and the same
sum reads n dt / (e^{n dt} - 1) of sum_j |dL_j|_H (0.069 at n dt = 4.096).

Coupling: every penalization level consumes the same per-path Brownian
increments (common random numbers), which is what makes the Cauchy and oracle
studies meaningful at modest path counts.  All levels and paths of a study
advance together as one (levels, paths, coeffs) stack in `penalize._ensemble`,
which owns the final alive mask, and whose kernel draws the noise step by
step.  Each study is a private reduction, which names its levels and its
leading paths and checks its own arguments, and the public function builds
it and hands it to `_ensemble`.  The estimates keep their own pre-step radii
per (level, path), a failed row reading 0.  One ensemble can feed several
reductions on one level grid, each reading its leading paths: every CLI run
feeds the estimates, the Cauchy gaps and the inequality table it wants from
one.
The kernel yields one row per path while the path's levels coincide, and
the studies reduce on those rows as they come, keeping no time axis: radii
and V energies are taken per row, gathered through the kernel's map `put`
and summed, and the Cauchy gaps are taken over the parted paths only, since
a merged path's level differences are exactly 0.  A bad argument to any
study raises ConfigurationError, which is a ValueError.

Determinism: every reduction runs in a fixed order, so results are
byte-identical across reruns.  Standard errors are the standard deviation
of the means of at most 10 contiguous path slices over sqrt(#slices).

Reports: every ensemble study returns a `Report` (rows, failures).  The rows
are NamedTuples of one row type, whose field names are the CSV header and
whose values are the CSV record.  `run_estimates` returns the pair
(estimates, cauchy) from its one ensemble.  `uniqueness_check` returns a
`UniquenessReport` of two single paths and counts nothing: a divergent path
raises `simulate_path`'s BlowUpError.

A path whose state turns non-finite or leaves |x|_H <= penalize.BLOWUP_NORM
(1e10) at some level is counted as a failure at that level, pinned to zero,
and excluded from that level's statistics; a level whose paths all fail gets
NaN cells, as do the n-scaled cells (inf * 0) of the level n = inf.  The
Cauchy study compares levels pathwise, so it drops a path from every gap
when it fails at any level, and its report counts the dropped paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, _check_count
from .hilbert import inner_h, norm_h, v_energy
from .models import ModelSpec, make_oracle_1d
from .penalize import SchemeConfig, _ensemble, simulate_path

__all__ = [
    "Report",
    "EstimateRow",
    "CauchyRow",
    "OracleRow",
    "UniquenessReport",
    "run_estimates",
    "cauchy_study",
    "uniqueness_check",
    "oracle_compare_1d",
    "max_min_ratio",
    "count_inversions",
    "trend_decreasing",
    "format_value",
    "write_csv",
]

_MAX_BATCHES = 10


# --------------------------------------------------------------------------
# CSV plumbing


def format_value(x) -> str:
    """Canonical cell text: strings verbatim, integers verbatim, floats at 17
    significant digits."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path, header, rows) -> None:
    """Write rows with an exact header, LF endings, no quoting or padding."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(x) for x in row))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# report types: each row type's fields are its CSV header, and a row is its
# own CSV record


class Report(NamedTuple):
    """A study's table and its failure count.

    rows holds records of one row type; failures counts the failed paths the
    study excluded (for a per-level table, the failed (level, path) pairs).
    """

    rows: tuple
    failures: int

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])

    def to_csv(self, path) -> None:
        if not self.rows:
            raise ValueError("an empty table has no row type to take its header from")
        write_csv(path, self.rows[0]._fields, self.rows)


class EstimateRow(NamedTuple):
    n: float
    est_sup4: float
    se_sup4: float
    est_weighted_pen: float
    se_weighted_pen: float
    est_var2: float
    se_var2: float
    est_pen_l2: float
    se_pen_l2: float
    est_v_energy: float
    se_v_energy: float
    est_pen_sup4: float
    se_pen_sup4: float
    failures: int


class CauchyRow(NamedTuple):
    n_lo: float
    n_hi: float
    est_supdiff2: float
    se: float


class OracleRow(NamedTuple):
    n: float
    est_supdiff: float
    se_supdiff: float
    est_tv_diff: float
    se_tv_diff: float
    est_terminal_diff: float


@dataclass(frozen=True)
class UniquenessReport:
    perturbation: float
    sup_diff: float
    terminal_diff: float
    stability_factor: float  # sup_diff / perturbation (0 when perturbation is 0)


# --------------------------------------------------------------------------
# standard errors


def _batches(paths: int) -> np.ndarray:
    """The first path of each of the at most _MAX_BATCHES contiguous path
    slices, none empty, that np.array_split makes; batch-mean standard
    errors need 2 paths."""
    _check_count("paths", paths, 2)
    return np.array([p[0] for p in np.array_split(np.arange(paths), min(_MAX_BATCHES, paths))])


def _se_from_batch_means(means: np.ndarray) -> float:
    if len(means) < 2:
        return 0.0
    if np.isinf(means).any():  # a mean that overflowed a double has no spread to read
        return float("nan")
    return float(np.std(means, ddof=1) / np.sqrt(len(means)))


def _mean_and_se(values: np.ndarray, alive: np.ndarray, starts: np.ndarray):
    """Mean over surviving paths + standard error of the means of the path
    slices that begin at starts, skipping the slices with no survivor; the
    slices' survivor counts and sums are one reduceat each."""
    counts = np.add.reduceat(alive, starts, dtype=np.intp)
    if not counts.any():
        return float("nan"), float("nan")
    sums = np.add.reduceat(np.where(alive, values, 0.0), starts)
    kept = counts > 0
    return float(np.mean(values[alive])), _se_from_batch_means(sums[kept] / counts[kept])


# --------------------------------------------------------------------------
# penalized ensembles


class _Estimates:
    """run_estimates as a reduction over `penalize._ensemble`: its result
    is the pair (estimates, cauchy) of its leading `paths` paths."""

    def __init__(self, model: ModelSpec, cfg: SchemeConfig, n_grid, paths: int):
        self.space, self.alpha, self.dt = model.space, model.alpha, cfg.dt
        self.levels, self.paths = [float(n) for n in n_grid], paths
        self.starts = _batches(paths)

    def start(self, x0):
        shape = (len(self.levels), self.paths)
        # pre-step |X|_H and ||X||_V^alpha per (level, path), the
        # left-endpoint sums (times dt at the end) and sup_t |X|_H from t = 0;
        # fl(r - 1) is monotone in r, so (sup_t r - 1)^+ is sup_t (r - 1)^+ exactly
        self.r = np.full(shape, norm_h(self.space, x0))
        self.energy = np.full(shape, v_energy(self.space, x0, self.alpha))
        self.pen, self.pen_sq, self.weighted_pen, self.v_int, self.sup_h = (
            np.zeros(shape) for _ in range(5)
        )
        self.sup_diff2 = np.zeros((shape[0] - 1, shape[1]))  # sup_t |X^lo - X^hi|_H^2

    def step(self, x, _dL, r, alive, put):
        r_pre = self.r
        # a failed row reads radius 0: the radius it died at may overflow r^3
        self.r = np.take(np.where(alive, r, 0.0), put)
        excess = np.maximum(r_pre - 1.0, 0.0)
        self.pen += excess
        self.pen_sq += excess**2
        self.weighted_pen += r_pre**3 * excess
        self.v_int += self.energy
        self.energy = np.take(v_energy(self.space, x, self.alpha), put)
        np.maximum(self.sup_h, r_pre, out=self.sup_h)
        # a merged path's level rows are one row, so its differences are
        # exactly 0; squared, by inner_h, to skip norm_h's underflow recheck
        parted = np.flatnonzero(put[0] != put[-1])
        if parted.size:
            stack = x[put[:, parted]]
            diff = stack[:-1] - stack[1:]
            sup = self.sup_diff2[:, parted]
            self.sup_diff2[:, parted] = np.maximum(sup, inner_h(self.space, diff, diff))

    def result(self, alive) -> tuple[Report, Report]:
        levels, starts, dt = self.levels, self.starts, self.dt
        sup_h = np.maximum(self.sup_h, self.r)  # with the final state's radius
        rows = []
        for i, n in enumerate(levels):
            ok = alive[i]
            cells = {"n": n, "failures": int(np.count_nonzero(~ok))}
            n_scale = n if np.isfinite(n) else np.nan  # inf * 0 at the projection level
            with np.errstate(over="ignore"):  # a square past the largest double reads inf
                var2 = (n_scale * (dt * self.pen[i])) ** 2
            for column, values, scale in (
                ("sup4", sup_h[i] ** 4, 1.0),
                ("weighted_pen", dt * self.weighted_pen[i], n_scale),
                ("var2", var2, 1.0),
                ("pen_l2", dt * self.pen_sq[i], n_scale),
                ("v_energy", dt * self.v_int[i], 1.0),
                ("pen_sup4", np.maximum(sup_h[i] - 1.0, 0.0) ** 4, 1.0),
            ):
                est, se = _mean_and_se(values, ok, starts)
                cells[f"est_{column}"], cells[f"se_{column}"] = scale * est, scale * se
            rows.append(EstimateRow(**cells))
        estimates = Report(tuple(rows), int(np.count_nonzero(~alive)))

        coupled = np.all(alive, axis=0)
        gaps = []
        for i in range(len(levels) - 1):
            est, se = _mean_and_se(self.sup_diff2[i], coupled, starts)
            gaps.append(CauchyRow(levels[i], levels[i + 1], est, se))
        return estimates, Report(tuple(gaps), int(np.count_nonzero(~coupled)))


def run_estimates(
    model: ModelSpec,
    cfg: SchemeConfig,
    n_grid,
    paths: int,
    *,
    x0: np.ndarray,
) -> tuple[Report, Report]:
    """Moment/variation estimators over a penalization grid on coupled noise,
    and the consecutive-level Cauchy gaps of the same ensemble: returns the
    pair (estimates, cauchy)."""
    return next(_ensemble(model, cfg, x0, _Estimates(model, cfg, n_grid, paths)))


def cauchy_study(
    model: ModelSpec,
    cfg: SchemeConfig,
    n_grid,
    paths: int,
    *,
    x0: np.ndarray,
) -> Report:
    """E[sup_t |X^n_lo - X^n_hi|_H^2] for consecutive levels on coupled noise.

    Its failures are the paths dropped from every gap for failing at some
    level."""
    if len(n_grid) < 2:
        raise ConfigurationError("cauchy study needs at least 2 penalization levels")
    return run_estimates(model, cfg, n_grid, paths, x0=x0)[1]


def uniqueness_check(
    model: ModelSpec,
    cfg: SchemeConfig,
    x0: np.ndarray,
    perturbation: float,
) -> UniquenessReport:
    """Two runs on identical noise, initial states `perturbation` apart in H.

    A divergent path is not counted: simulate_path's BlowUpError propagates."""
    if perturbation < 0:
        raise ConfigurationError("perturbation must be nonnegative")
    space = model.space
    x0 = np.asarray(x0, dtype=float)
    first = simulate_path(model, cfg, x0, path_index=0)  # the kernel checks x0 first
    r0 = float(norm_h(space, x0))
    if r0 > 0:
        x0_other = x0 * (1.0 - perturbation / r0)  # radial shift of exactly that H-norm
    else:
        e0 = np.zeros_like(x0)
        e0[0] = perturbation / np.sqrt(space.h_weights[0])
        x0_other = e0
    second = simulate_path(model, cfg, x0_other, path_index=0)
    diff = norm_h(space, first.states - second.states)
    sup_diff = float(np.max(diff))
    terminal = float(diff[-1])
    factor = sup_diff / perturbation if perturbation > 0 else 0.0
    return UniquenessReport(
        perturbation=float(perturbation),
        sup_diff=sup_diff,
        terminal_diff=terminal,
        stability_factor=factor,
    )


# --------------------------------------------------------------------------
# 1-D oracle: the projection (clamp) scheme is the kernel's level n = inf


def oracle_compare_1d(
    kappa: float,
    sigma: float,
    cfg: SchemeConfig,
    n_grid,
    paths: int,
) -> Report:
    """Penalized scalar runs vs the projection scheme on the same noise, as
    one stack whose last level is n = inf.

    Its failures are the failed (level, path) pairs."""
    bundle = make_oracle_1d(kappa=kappa, sigma=sigma)
    return next(_ensemble(bundle.model, cfg, bundle.x0, _Oracle(n_grid, paths)))


class _Oracle:
    """oracle_compare_1d as a reduction over `penalize._ensemble`: its
    levels are n_grid and then the projection level n = inf."""

    def __init__(self, n_grid, paths: int):
        self.levels = [float(n) for n in n_grid] + [np.inf]
        if len(self.levels) < 2:
            raise ConfigurationError("oracle study needs at least 1 penalization level")
        self.paths, self.starts = paths, _batches(paths)

    def start(self, _x0):
        self.sup_diff = np.zeros((len(self.levels) - 1, self.paths))
        self.tv = np.zeros((len(self.levels), self.paths))

    def step(self, x, dl, _r, _alive, put):
        self.tv += np.abs(np.take(dl[:, 0], put))
        stack = np.take(x[:, 0], put)
        self.terminal = np.abs(stack[:-1] - stack[-1])
        np.maximum(self.sup_diff, self.terminal, out=self.sup_diff)

    def result(self, alive) -> Report:
        alive = alive[:-1] & alive[-1]
        tv_diff = np.abs(self.tv[:-1] - self.tv[-1])
        rows = []
        for i, n in enumerate(self.levels[:-1]):
            sd_est, sd_se = _mean_and_se(self.sup_diff[i], alive[i], self.starts)
            tv_est, tv_se = _mean_and_se(tv_diff[i], alive[i], self.starts)
            term_est, _ = _mean_and_se(self.terminal[i], alive[i], self.starts)
            rows.append(OracleRow(n, sd_est, sd_se, tv_est, tv_se, term_est))
        return Report(tuple(rows), int(np.count_nonzero(~alive)))


# --------------------------------------------------------------------------
# trend helpers for the Monte Carlo acceptance checks


def max_min_ratio(values) -> float:
    vals = np.asarray(values, dtype=float)
    lo = float(np.min(vals))
    if lo <= 0:
        return float("inf")
    return float(np.max(vals) / lo)


def count_inversions(values) -> int:
    """Number of consecutive rises in a sequence expected to decrease."""
    vals = np.asarray(values, dtype=float)
    return int(np.count_nonzero(np.diff(vals) > 0))


def trend_decreasing(values, ses=None, allowed_inversions: int = 1) -> bool:
    """Decreasing trend, tolerating `allowed_inversions` rises; a rise within
    the combined standard errors of its endpoints is not counted."""
    vals = np.asarray(values, dtype=float)
    slack = np.zeros(vals.size - 1)
    if ses is not None:
        se = np.asarray(ses, dtype=float)
        slack = se[:-1] + se[1:]
    rises = np.count_nonzero(np.diff(vals) > slack)
    return int(rises) <= allowed_inversions
