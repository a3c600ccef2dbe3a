"""Randomized numerical audits of the structural hypotheses H1-H5.

Each check evaluates a declared inequality on seeded random Galerkin fields
and reports the worst signed margin (negative = violation witnessed), an
estimated constant, and the witness achieving the worst margin.  A finite
sample can only falsify a universally quantified hypothesis or fail to do
so; every report carries that caveat in its note field.

Each hypothesis has one evaluator, EVALUATORS[name](model, *fields), which
returns (margins, constants) with one entry per sample: the signed margin of
the declared inequality and the constant that sample needs, NaN where it
defines none.  The fields are per-sample rows followed by any inputs that
every sample shares (H4's probe directions).  A report keeps the worst
margin, the largest defined constant (0.0 when no sample defines one) and,
as the witness, the worst sample's fields followed by the shared ones, so
evaluating the witness replays the reported margin.  H1's evaluator loops
over h1_jump_and_margin, which replays one triple (u, v, x).  The audits,
witness replay and constant_stability all read these evaluators.

Sampling law: Gaussian coefficients with configurable spectral decay,
rescaled cyclically to H radii {0.5, 1, 2, 4} so both the inside and the
outside of the unit ball are probed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ModelEvaluationError
from .hilbert import SpaceSpec, norm_h, norm_v
from .models import ModelSpec, dual_pairing, hs_diff_sq, hs_norm_sq, vstar_norm

__all__ = [
    "AuditReport",
    "FieldSampler",
    "check_hemicontinuity",
    "check_local_monotonicity",
    "check_coercivity",
    "check_growth_and_lipschitz",
    "run_all_audits",
    "constant_stability",
]

_NOTE = "sampled falsification check; a finite sample cannot certify the hypothesis"

# dyadic lambda grid on [-1, 1] with spacing 2^-10
_LAM_GRID = np.linspace(-1.0, 1.0, 2**11 + 1)
_H4_PROBES = 64  # sampled directions lower-bounding a non-quadratic dual norm


@dataclass(frozen=True, eq=False)
class AuditReport:
    hypothesis: str
    samples: int
    worst_margin: float
    constant: float
    witness: tuple[np.ndarray, ...] | None
    seed: int
    note: str = _NOTE


class FieldSampler:
    """Seeded random fields with spectral amplitude decay and radius cycling."""

    RADII = (0.5, 1.0, 2.0, 4.0)

    def __init__(self, space: SpaceSpec, seed, decay: float = 1.0):
        self.space = space
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        if space.wavenumbers is not None:
            k = np.abs(np.asarray(space.wavenumbers, dtype=float))
        else:
            k = np.zeros(space.n_coeffs)
        self.amp = (1.0 + k) ** (-decay)

    def sample(self, count: int) -> np.ndarray:
        raw = self.rng.standard_normal((count, self.space.n_coeffs)) * self.amp
        radii = np.asarray([self.RADII[i % len(self.RADII)] for i in range(count)])
        r = norm_h(self.space, raw)
        return raw * (radii / np.where(r > 0, r, 1.0))[:, None]


def _drift(model: ModelSpec, states: np.ndarray) -> np.ndarray:
    out = np.asarray(model.drift(0.0, states), dtype=float)
    if not np.all(np.isfinite(out)):
        raise ModelEvaluationError(f"non-finite drift output from model {model.name!r}")
    return out


# --------------------------------------------------------------------------
# margin evaluators (shared by the batch checks and witness replay)


def h1_jump_and_margin(
    model: ModelSpec, u: np.ndarray, v: np.ndarray, x: np.ndarray
) -> tuple[float, float, float]:
    """Estimated jump of lambda -> <A(u + lambda v), x>, its tolerance, margin.

    The profile is sampled on the dyadic grid; comparing the maximal local
    increment at spacings h and 2h separates a genuine discontinuity (both
    approximately the jump height) from smooth variation (increment halves).
    The profile is the grid form's line_profile when the model declares one
    (Allen-Cahn, p-Laplacian): in closed form when phi declares its
    polynomial (Allen-Cahn, p = 2, 4, 6), 65 Taylor expansions about
    every 32nd lambda read at all 2049, else phi sampled at the 2049 lambdas.
    Otherwise (tamed Navier-Stokes, the scalar oracle) the drift is
    evaluated at the 2049 states and contracted with x.
    """
    if model.grid_form is not None:
        f = model.grid_form.line_profile(u, v, x, _LAM_GRID)
    else:
        f = np.einsum("gm,m->g", _drift(model, u + _LAM_GRID[:, None] * v), x)
    return _jump_from_profile(f)


def _jump_from_profile(f: np.ndarray) -> tuple[float, float, float]:
    def max_abs(a: np.ndarray) -> float:
        return float(np.max(np.abs(a)))

    m_fine = max_abs(np.diff(f))  # spacing 2^-10
    m_half = max_abs(np.diff(f[::2]))  # spacing 2^-9
    coarse = np.diff(f[::32])  # spacing 2^-5
    # a genuine jump J contributes J to both scales, so 2*m_fine - m_half ~ J;
    # smooth variation cancels up to a Richardson residual O(h^2 sup|f''|)
    jump = max(0.0, 2.0 * m_fine - m_half)
    slope = max_abs(coarse) / 2.0**-5
    curvature = max_abs(np.diff(coarse)) / 2.0**-10
    tol = 1e-6 * (1.0 + max_abs(f) + slope + 8.0 * curvature)
    return jump, tol, tol - jump


Evaluation = tuple[np.ndarray, np.ndarray]  # (margins, constants), one entry per sample


def evaluate_h1(model: ModelSpec, u: np.ndarray, v: np.ndarray, x: np.ndarray) -> Evaluation:
    """Per triple: the jump margin and the measured jump (h1_jump_and_margin)."""
    jumps, _tols, margins = np.array(
        [h1_jump_and_margin(model, *triple) for triple in zip(u, v, x)]
    ).T
    return margins, jumps


def evaluate_h2(model: ModelSpec, u: np.ndarray, v: np.ndarray) -> Evaluation:
    """Per pair: (c0 + rho(u) + rho(v))|u-v|^2 - 2<A(u)-A(v),u-v> - ||B(u)-B(v)||^2,
    and the measured over the declared term where the latter exceeds 1e-12."""
    d = u - v
    measured = 2.0 * dual_pairing(_drift(model, u) - _drift(model, v), d) + hs_diff_sq(
        model.space, model.noise, u, v
    )
    bound = (model.c0 + model.rho(u) + model.rho(v)) * norm_h(model.space, d) ** 2
    ratio = np.divide(measured, bound, out=np.full(np.shape(bound), np.nan), where=bound > 1e-12)
    return bound - measured, ratio


def evaluate_h3(model: ModelSpec, u: np.ndarray) -> Evaluation:
    """Per sample: C0(1+|u|^2) - c ||u||_V^alpha - 2<A(u),u> - ||B(u)||^2, and
    the least C0 that certifies the sample at the declared c and alpha."""
    space = model.space
    measured = 2.0 * dual_pairing(_drift(model, u), u) + hs_norm_sq(space, model.noise, u)
    coercive = model.c * norm_v(space, u) ** model.alpha
    energy = 1.0 + norm_h(space, u) ** 2
    return model.c0 * energy - coercive - measured, (measured + coercive) / energy


def evaluate_h4(
    model: ModelSpec, u: np.ndarray, probes: np.ndarray | None = None
) -> Evaluation:
    """Per sample: growth_c (1+||u||_V^alpha)(1+|u|^beta) - ||A(u)||_{V*}^{alpha/(alpha-1)},
    and the dual-norm power over its envelope.

    For quadratic V the dual norm is exact (reciprocal weights); otherwise it
    is lower-bounded by the best of the supplied probe directions, keeping
    the check a pure falsification test.
    """
    space = model.space
    a = _drift(model, u)
    if space.v_weights is not None:
        dual = vstar_norm(space, a)
    else:
        if probes is None:
            raise ModelEvaluationError("non-quadratic V norm needs probe directions")
        pv = norm_v(space, probes)
        good = pv > 1e-12
        ratios = np.abs(a @ probes[good].T) / pv[good]
        dual = np.max(ratios, axis=-1)
    lhs = dual ** (model.alpha / (model.alpha - 1.0))
    envelope = (1.0 + norm_v(space, u) ** model.alpha) * (
        1.0 + norm_h(space, u) ** model.beta
    )
    return model.growth_c * envelope - lhs, lhs / envelope


def evaluate_h5(model: ModelSpec, u: np.ndarray, v: np.ndarray) -> Evaluation:
    """Per pair: min(c0 - ratio, c0 (1+|u|^2) - ||B(u)||^2) and the Lipschitz
    ratio ||B(u)-B(v)||^2 / |u-v|^2, taken as 0.0 for pairs closer than 1e-10
    in H.  No drift is evaluated."""
    space = model.space
    dh2 = norm_h(space, u - v) ** 2
    diff = hs_diff_sq(space, model.noise, u, v)
    ratio = np.divide(diff, dh2, out=np.zeros(np.shape(dh2)), where=dh2 > 1e-20)
    growth = model.c0 * (1.0 + norm_h(space, u) ** 2) - hs_norm_sq(space, model.noise, u)
    return np.minimum(model.c0 - ratio, growth), ratio


EVALUATORS = {
    "H1": evaluate_h1,
    "H2": evaluate_h2,
    "H3": evaluate_h3,
    "H4": evaluate_h4,
    "H5": evaluate_h5,
}
_STREAM = {"H1": 1, "H2": 2, "H3": 3, "H4": 4, "H5": 4}  # H4 and H5 read one stream


# --------------------------------------------------------------------------
# audit drivers


def _sampler(model: ModelSpec, seed, hypothesis: str) -> FieldSampler:
    """The fresh sampler run_all_audits gives the hypothesis."""
    return FieldSampler(model.space, (seed, _STREAM[hypothesis]))


def _nests(hypothesis: str, model: ModelSpec) -> bool:
    """Whether the check reads only its sampler's first draw, whose first c
    rows are its c-row draw: H3, and H4 when the V norm is quadratic."""
    return hypothesis == "H3" or (hypothesis == "H4" and model.space.v_weights is not None)


def _draw(hypothesis: str, model: ModelSpec, sampler: FieldSampler, count: int):
    """(per-sample fields, shared fields) of the hypothesis's check, in draw order.

    The H4/H5 stream is u, v, then the probe directions H4 shares across
    samples when the V norm is not quadratic.
    """
    u = sampler.sample(count)
    if _nests(hypothesis, model):
        return (u,), ()
    v = sampler.sample(count)
    if hypothesis == "H1":
        return (u, v, sampler.sample(count)), ()
    if hypothesis == "H4":
        return (u,), (sampler.sample(_H4_PROBES),)
    return (u, v), ()


def _largest(constants: np.ndarray) -> float:
    """The largest constant some sample defines (not NaN); 0.0 when none does."""
    defined = constants[~np.isnan(constants)]
    return float(np.max(defined)) if defined.size else 0.0


def _report(
    hypothesis: str, model: ModelSpec, sampler: FieldSampler, fields: tuple, shared: tuple = ()
) -> AuditReport:
    """The evaluator's worst margin, largest constant and worst sample's fields."""
    margins, constants = EVALUATORS[hypothesis](model, *fields, *shared)
    worst = int(np.argmin(margins))
    note = _NOTE + "; dual norm lower-bounded by sampled probe directions" if shared else _NOTE
    return AuditReport(
        hypothesis=hypothesis,
        samples=len(margins),
        worst_margin=float(margins[worst]),
        constant=_largest(constants),
        witness=tuple(f[worst] for f in fields) + shared,
        seed=int(np.asarray(sampler.seed).ravel()[0]),
        note=note,
    )


def _check(hypothesis: str, model: ModelSpec, sampler: FieldSampler, count: int) -> AuditReport:
    return _report(hypothesis, model, sampler, *_draw(hypothesis, model, sampler, count))


def check_hemicontinuity(
    model: ModelSpec, sampler: FieldSampler, count: int
) -> AuditReport:
    """H1: the worst jump margin over `count` sampled triples (u, v, x).

    Each triple is evaluated by h1_jump_and_margin, the evaluator witness
    replay uses, so the working set is one 2049-point profile at a time.
    The profile comes from the grid form when the model declares one, in
    closed form when its phi is a declared polynomial.
    """
    return _check("H1", model, sampler, count)


def check_local_monotonicity(
    model: ModelSpec, sampler: FieldSampler, count: int
) -> AuditReport:
    return _check("H2", model, sampler, count)


def check_coercivity(model: ModelSpec, sampler: FieldSampler, count: int) -> AuditReport:
    return _check("H3", model, sampler, count)


def check_growth_and_lipschitz(
    model: ModelSpec, sampler: FieldSampler, count: int
) -> tuple[AuditReport, AuditReport]:
    """H4 and H5 on one draw of u and v; H4 reads u and any probes."""
    (u, v), _ = _draw("H5", model, sampler, count)
    probes = () if model.space.v_weights is not None else (sampler.sample(_H4_PROBES),)
    return _report("H4", model, sampler, (u,), probes), _report("H5", model, sampler, (u, v))


def run_all_audits(
    model: ModelSpec,
    seed: int = 0,
    count: int = 1000,
    h1_count: int = 0,
) -> list[AuditReport]:
    """All five audits with independent seeded samplers; deterministic.

    H2-H5 sample count fields each; H1 samples h1_count triples, or count
    when h1_count is 0 (its default).
    """
    if count < 1:
        raise ConfigurationError(f"count: need at least 1 sample, got {count}")
    if h1_count < 0:
        raise ConfigurationError(f"h1_count: need 0 or more samples, got {h1_count}")
    h1 = check_hemicontinuity(model, _sampler(model, seed, "H1"), h1_count or count)
    h2 = check_local_monotonicity(model, _sampler(model, seed, "H2"), count)
    h3 = check_coercivity(model, _sampler(model, seed, "H3"), count)
    h4, h5 = check_growth_and_lipschitz(model, _sampler(model, seed, "H4"), count)
    return [h1, h2, h3, h4, h5]


def constant_stability(
    model: ModelSpec,
    seed: int = 0,
    counts: tuple[int, ...] = (250, 500, 1000),
    hypotheses: tuple[str, ...] = ("H2", "H3", "H4", "H5"),
) -> dict[str, list[float]]:
    """Estimated constants across growing sample counts; deterministic.

    Every count uses the fresh sampler that run_all_audits gives the
    hypothesis, so the constants are those of the per-count checks.  A
    sampler's first c rows equal its c-row draw.  An evaluator whose only
    input is its sampler's first draw (H3, and H4 when the V norm is
    quadratic) is therefore evaluated once, at the largest count, and each
    count reads a prefix maximum.  The others read later draws, which do not
    nest, and are checked per count: H2 and H5 read v, drawn after u, and H4
    with a non-quadratic V norm reads probes drawn after u and v.  H5 needs
    no drift.  Nested values equal the per-count ones bit for bit wherever
    the drift rounds a row the same in any batch; BLAS products over a
    handful of rows can round differently, which moves a constant by
    rounding.
    """
    if not counts or min(counts) < 1:
        raise ConfigurationError(f"counts: need one or more counts of at least 1, got {counts}")
    unknown = sorted(set(hypotheses) - {"H2", "H3", "H4", "H5"})
    if unknown:
        raise ConfigurationError(f"hypotheses: unknown {unknown}, choose from H2-H5")
    top = max(counts)
    table = {}
    for h in hypotheses:
        if _nests(h, model):
            u = _sampler(model, seed, h).sample(top)
            constants = EVALUATORS[h](model, u)[1]
            table[h] = [_largest(constants[:c]) for c in counts]
        else:
            table[h] = [_check(h, model, _sampler(model, seed, h), c).constant for c in counts]
    return table
