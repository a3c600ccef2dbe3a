"""Randomized numerical audits of the structural hypotheses H1-H5.

Each check evaluates a declared inequality on seeded random Galerkin fields
and reports the worst signed margin (negative = violation witnessed), an
estimated constant, and the witness achieving the worst margin.  A finite
sample can only falsify a universally quantified hypothesis or fail to do
so; every report carries that caveat in its note field.

Sampling law: Gaussian coefficients with configurable spectral decay,
rescaled cyclically to H radii {0.5, 1, 2, 4} so both the inside and the
outside of the unit ball are probed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelEvaluationError
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
    """
    states = u[None, :] + _LAM_GRID[:, None] * v[None, :]
    f = np.einsum("gm,m->g", _drift(model, states), x)
    return _jump_from_profile(f)


def _jump_from_profile(f: np.ndarray) -> tuple[float, float, float]:
    def max_inc(stride: int) -> float:
        sub = f[::stride]
        return float(np.max(np.abs(np.diff(sub))))

    m_fine = max_inc(1)  # spacing 2^-10
    m_half = max_inc(2)  # spacing 2^-9
    m_coarse = max_inc(32)  # spacing 2^-5
    # a genuine jump J contributes J to both scales, so 2*m_fine - m_half ~ J;
    # smooth variation cancels up to a Richardson residual O(h^2 sup|f''|)
    jump = max(0.0, 2.0 * m_fine - m_half)
    slope = m_coarse / 2.0**-5
    curvature = float(np.max(np.abs(np.diff(f[::32], n=2)))) / 2.0**-10
    tol = 1e-6 * (1.0 + float(np.max(np.abs(f))) + slope + 8.0 * curvature)
    return jump, tol, tol - jump


def h2_values(
    model: ModelSpec, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(measured, bound): 2<A(u)-A(v),u-v> + ||B(u)-B(v)||^2 vs declared."""
    d = u - v
    au = _drift(model, u)
    av = _drift(model, v)
    measured = 2.0 * dual_pairing(au - av, d) + hs_diff_sq(model.space, model.noise, u, v)
    dh2 = norm_h(model.space, d) ** 2
    bound = (model.c0 + model.rho(u) + model.eta(v)) * dh2
    return measured, bound


def h3_values(model: ModelSpec, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(measured, bound): 2<A(u),u> + ||B(u)||^2 vs C0(1+|u|^2) - c ||u||_V^alpha."""
    measured = 2.0 * dual_pairing(_drift(model, u), u) + hs_norm_sq(model.space, model.noise, u)
    bound = model.c0 * (1.0 + norm_h(model.space, u) ** 2) - model.c * norm_v(
        model.space, u
    ) ** model.alpha
    return measured, bound


def h4_values(
    model: ModelSpec, u: np.ndarray, probes: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, envelope): ||A(u)||_{V*}^{alpha/(alpha-1)} vs (1+||u||_V^a)(1+|u|^b).

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
    return lhs, envelope


def h5_values(
    model: ModelSpec, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lipschitz ratios, growth values, growth envelopes)."""
    space = model.space
    dh2 = norm_h(space, u - v) ** 2
    keep = dh2 > 1e-20
    ratios = hs_diff_sq(space, model.noise, u, v)[keep] / dh2[keep]
    growth = hs_norm_sq(space, model.noise, u)
    envelope = 1.0 + norm_h(space, u) ** 2
    return ratios, growth, envelope


# --------------------------------------------------------------------------
# audit drivers


def check_hemicontinuity(
    model: ModelSpec, sampler: FieldSampler, count: int
) -> AuditReport:
    """H1: the worst jump margin over `count` sampled triples (u, v, x).

    Each triple is evaluated by h1_jump_and_margin, the evaluator witness
    replay uses, so the working set is one 2049-point profile at a time.
    """
    u_all = sampler.sample(count)
    v_all = sampler.sample(count)
    x_all = sampler.sample(count)
    worst = np.inf
    worst_idx = 0
    largest_jump = 0.0
    for i in range(count):
        jump, _tol, margin = h1_jump_and_margin(model, u_all[i], v_all[i], x_all[i])
        largest_jump = max(largest_jump, jump)
        if margin < worst:
            worst = margin
            worst_idx = i
    witness = (u_all[worst_idx], v_all[worst_idx], x_all[worst_idx])
    return AuditReport(
        hypothesis="H1",
        samples=count,
        worst_margin=float(worst),
        constant=float(largest_jump),
        witness=witness,
        seed=_seed_int(sampler.seed),
    )


def check_local_monotonicity(
    model: ModelSpec, sampler: FieldSampler, count: int
) -> AuditReport:
    u = sampler.sample(count)
    v = sampler.sample(count)
    measured, bound = h2_values(model, u, v)
    margins = bound - measured
    worst = int(np.argmin(margins))
    pos = bound > 1e-12
    constant = float(np.max(measured[pos] / bound[pos])) if np.any(pos) else 0.0
    return AuditReport(
        hypothesis="H2",
        samples=count,
        worst_margin=float(margins[worst]),
        constant=constant,
        witness=(u[worst], v[worst]),
        seed=_seed_int(sampler.seed),
    )


def check_coercivity(model: ModelSpec, sampler: FieldSampler, count: int) -> AuditReport:
    u = sampler.sample(count)
    measured, bound = h3_values(model, u)
    margins = bound - measured
    worst = int(np.argmin(margins))
    return AuditReport(
        hypothesis="H3",
        samples=count,
        worst_margin=float(margins[worst]),
        constant=float(np.max(_h3_needed(model, u, measured))),
        witness=(u[worst],),
        seed=_seed_int(sampler.seed),
    )


def _h3_needed(model: ModelSpec, u: np.ndarray, measured: np.ndarray) -> np.ndarray:
    """Per sample, the least C0 that certifies it at the declared c and alpha."""
    return (measured + model.c * norm_v(model.space, u) ** model.alpha) / (
        1.0 + norm_h(model.space, u) ** 2
    )


def _h5_constant(ratios: np.ndarray) -> float:
    return float(np.max(ratios)) if ratios.size else 0.0


def check_growth_and_lipschitz(
    model: ModelSpec, sampler: FieldSampler, count: int, n_probes: int = 64
) -> tuple[AuditReport, AuditReport]:
    space = model.space
    u = sampler.sample(count)
    v = sampler.sample(count)
    probes = None
    note4 = _NOTE
    if space.v_weights is None:
        probes = sampler.sample(n_probes)
        note4 = _NOTE + "; dual norm lower-bounded by sampled probe directions"
    lhs, envelope = h4_values(model, u, probes)
    margins4 = model.growth_c * envelope - lhs
    worst4 = int(np.argmin(margins4))
    witness4 = (u[worst4],) if probes is None else (u[worst4], probes)
    h4 = AuditReport(
        hypothesis="H4",
        samples=count,
        worst_margin=float(margins4[worst4]),
        constant=float(np.max(lhs / envelope)),
        witness=witness4,
        seed=_seed_int(sampler.seed),
        note=note4,
    )

    ratios, growth, genv = h5_values(model, u, v)
    lip_margin = model.c0 - _h5_constant(ratios)
    growth_margins = model.c0 * genv - growth
    worst5 = int(np.argmin(growth_margins))
    h5 = AuditReport(
        hypothesis="H5",
        samples=count,
        worst_margin=float(min(lip_margin, growth_margins[worst5])),
        constant=_h5_constant(ratios),
        witness=(u[worst5], v[worst5]),
        seed=_seed_int(sampler.seed),
    )
    return h4, h5


def _seed_int(seed) -> int:
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return int(np.asarray(seed).ravel()[0])


def run_all_audits(
    model: ModelSpec,
    seed: int = 0,
    count: int = 1000,
    h1_count: int | None = None,
    decay: float = 1.0,
) -> list[AuditReport]:
    """All five audits with independent seeded samplers; deterministic."""

    def sampler(tag: int) -> FieldSampler:
        return FieldSampler(model.space, (seed, tag), decay=decay)

    h1 = check_hemicontinuity(model, sampler(1), h1_count or count)
    h2 = check_local_monotonicity(model, sampler(2), count)
    h3 = check_coercivity(model, sampler(3), count)
    h4, h5 = check_growth_and_lipschitz(model, sampler(4), count)
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
    sampler's first c rows equal its c-row draw.  Where a constant is a
    maximum over the first stream alone, the fields are therefore drawn and
    evaluated once, at the largest count, and each count reads a prefix
    maximum: H3 always, and H4 when the V norm is quadratic.  The other
    streams do not nest, so they are evaluated per count: H2 and H5 draw v
    after u, and H4 with a non-quadratic V norm draws its probes after u and
    v.  H5 needs no drift.  Nested values equal the per-count ones bit for
    bit wherever the drift rounds a row the same in any batch; BLAS products
    over a handful of rows can round differently, which moves a constant by
    rounding.
    """
    top = max(counts)

    def sampler(tag: int) -> FieldSampler:
        return FieldSampler(model.space, (seed, tag))

    def prefix_max(values: np.ndarray) -> list[float]:
        return [float(np.max(values[:c])) for c in counts]

    def h2() -> list[float]:
        return [check_local_monotonicity(model, sampler(2), c).constant for c in counts]

    def h3() -> list[float]:
        u = sampler(3).sample(top)
        return prefix_max(_h3_needed(model, u, h3_values(model, u)[0]))

    def h4() -> list[float]:
        if model.space.v_weights is None:
            return [check_growth_and_lipschitz(model, sampler(4), c)[0].constant for c in counts]
        lhs, envelope = h4_values(model, sampler(4).sample(top))
        return prefix_max(lhs / envelope)

    def h5() -> list[float]:
        out = []
        for c in counts:
            draw = sampler(4)
            u, v = draw.sample(c), draw.sample(c)
            out.append(_h5_constant(h5_values(model, u, v)[0]))
        return out

    table = {"H2": h2, "H3": h3, "H4": h4, "H5": h5}
    return {h: table[h]() for h in hypotheses}
