"""Structural-hypothesis audits: clean models pass, rigged models are caught."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reflectspde.cli import main
from reflectspde.errors import ConfigurationError, ModelEvaluationError
from reflectspde.hilbert import norm_h
from reflectspde.localtime import inequality_study, make_test_paths
from reflectspde.hypotheses import (
    _LAM_GRID,
    EVALUATORS,
    FieldSampler,
    check_coercivity,
    check_growth_and_lipschitz,
    check_hemicontinuity,
    check_local_monotonicity,
    constant_stability,
    evaluate_h4,
    evaluate_h5,
    h1_jump_and_margin,
    run_all_audits,
)
from reflectspde.models import (
    ModelSpec,
    NoiseSpec,
    hs_norm_sq,
    make_allen_cahn,
    make_oracle_1d,
    make_p_laplacian,
)
from reflectspde.penalize import SchemeConfig
from reflectspde.tamednse import make_tamed_nse


def row_counting(model):
    """The model with a drift that records the rows of each call."""
    seen = []

    def drift(t, u):
        seen.append(int(np.prod(np.shape(u)[:-1])))
        return model.drift(t, u)

    return dataclasses.replace(model, drift=drift), seen


def rigged_model(drift, c0=1.0, growth_c=10.0, lam=0.0, noise_lip_sq=0.0):
    """Oracle-shaped scalar model with an arbitrary drift and declared constants."""
    base = make_oracle_1d().model
    return ModelSpec(
        name="rigged",
        space=base.space,
        noise=NoiseSpec(q=np.ones(1), mu=0.0, lam=lam),
        drift=drift,
        alpha=2.0,
        beta=0.0,
        gamma=0.0,
        c=1.0,
        c0=c0,
        growth_c=growth_c,
        noise_lip_sq=noise_lip_sq,
    )


# --------------------------------------------------------------------------
# sampler


def test_field_sampler_radius_cycling():
    space = make_allen_cahn(modes=8).space
    sampler = FieldSampler(space, seed=(0, 1))
    fields = sampler.sample(8)
    assert np.allclose(norm_h(space, fields), [0.5, 1.0, 2.0, 4.0] * 2)
    again = FieldSampler(space, seed=(0, 1)).sample(8)
    assert np.array_equal(fields, again)


# --------------------------------------------------------------------------
# clean models show no violations


@pytest.mark.parametrize("builder", [make_allen_cahn, make_p_laplacian])
def test_audits_find_no_violations_on_clean_models(builder):
    model = builder(modes=8).model
    reports = run_all_audits(model, seed=0, count=200, h1_count=32)
    assert [r.hypothesis for r in reports] == ["H1", "H2", "H3", "H4", "H5"]
    for r in reports:
        assert r.worst_margin >= 0.0, f"{r.hypothesis}: {r.worst_margin}"
        assert "falsification" in r.note
        assert r.witness is not None
    assert reports[0].samples == 32
    assert reports[1].samples == 200


def test_audits_deterministic():
    model = make_allen_cahn(modes=8).model
    a = run_all_audits(model, seed=3, count=100, h1_count=16)
    b = run_all_audits(model, seed=3, count=100, h1_count=16)
    for ra, rb in zip(a, b):
        assert ra.worst_margin == rb.worst_margin
        assert ra.constant == rb.constant


def test_witness_replay_reproduces_margins():
    # every stored witness re-evaluates to the reported worst margin; H5's
    # witness is the pair whose min(Lipschitz, growth) margin is the worst
    model = make_allen_cahn(modes=8).model
    h1, *rest = run_all_audits(model, seed=1, count=150, h1_count=24)

    _, _, margin1 = h1_jump_and_margin(model, *h1.witness)
    assert margin1 == pytest.approx(h1.worst_margin, abs=1e-9)
    for report in rest:
        margin = float(EVALUATORS[report.hypothesis](model, *report.witness)[0])
        assert margin == pytest.approx(report.worst_margin, abs=1e-9), report.hypothesis


def test_h4_witness_replay_with_probes():
    model = make_p_laplacian(modes=8).model
    reports = run_all_audits(model, seed=2, count=100, h1_count=16)
    h4 = reports[3]
    assert "probe" in h4.note
    margin = float(evaluate_h4(model, *h4.witness)[0])
    assert margin == pytest.approx(h4.worst_margin, abs=1e-9)


def test_h5_pairs_closer_than_the_cutoff_have_ratio_zero():
    # a coincident pair defines no Lipschitz ratio: its ratio is 0.0, so its
    # margin is min(c0, growth margin) exactly
    model = make_allen_cahn(modes=8).model
    u = FieldSampler(model.space, 0).sample(4)
    margins, ratios = evaluate_h5(model, u, u)
    assert np.array_equal(ratios, np.zeros(4))
    growth = model.c0 * (1.0 + norm_h(model.space, u) ** 2) - hs_norm_sq(
        model.space, model.noise, u
    )
    assert np.array_equal(margins, np.minimum(model.c0, growth))


# --------------------------------------------------------------------------
# the grid-form H1 profile is the profile of the drift that is stepped

GRID_FORM_MODELS = {
    "allen_cahn": lambda modes: make_allen_cahn(modes=modes).model,
    "p_laplacian_p2": lambda modes: make_p_laplacian(modes=modes, p=2.0).model,
    "p_laplacian_p4": lambda modes: make_p_laplacian(modes=modes, p=4.0).model,
    "p_laplacian_p3": lambda modes: make_p_laplacian(modes=modes, p=3.0).model,  # sampled
}


# The profile and the reference round the same pairing sum_m D_gm x_m by two
# routes, so they differ by rounding of the terms summed, not of the sum: in
# the pinned example sum_m |D_gm x_m| reaches 24.8 where max |reference| is
# 0.042.  An n-term sum errs by at most gamma_n sum |terms|, gamma_n =
# n u / (1 - n u) <= 1.01 n u with u = eps / 2 (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., section 3.1).  The reference
# pays gamma_m for the grid values Sigma (u + lam v), 3 gamma_m once phi has
# acted (s - s^3 and |s|^2 s at most triple the relative error of s, against
# |s| + |s|^3), gamma_G for Pi over the G = 2m + 2 grid points and gamma_m for
# its dot product.  The profile pays the same 3 gamma_m through phi, gamma_m
# for Sigma x and gamma_G for its grid sum.  With gamma_G <= 2.25 gamma_m for
# m >= 8 that is 12.5 gamma_m <= 6.3 m eps, and a few u per term for forming
# u + lam v and evaluating phi make c = 6.8: the two differ by at most
# c m eps (|D| @ |x|) at each grid point.  Where nothing cancels this is below
# 1e-13 |reference| for every m tested (6.8 * 64 eps = 9.7e-14).
# Cancellation inside the drift's own transforms is not covered: over 16000
# draws at m = 8 the largest error measured was 3.0 m eps (|D| @ |x|).
# p = 3 declares no polynomial; its phi, -|s| s, at most doubles the relative
# error of s, inside the same count.
# A form that declares poly takes the centred route of GridForm.line_profile.
# It reads the same grid values, so it pays the same gamma_m for Sigma x, the
# same 3 gamma_m propagated through phi and gamma_G for each Taylor
# coefficient's grid sum.  In place of phi's few u per point it rounds each
# term at most 2d + 1 times (Horner in g_c, the power gv^i, their product,
# Horner in delta): 7 u at d = 3.  Its terms sum in absolute value to
# sum_j |gx_j| |phi|(|g_c,j| + |delta gv_j|), |phi| having the coefficients
# |a_k|, where the loop's sum to sum_j |gx_j| |phi|(|g_j|), g = g_c + delta gv.
# They differ only where delta gv_j opposes g_c,j, by at most the factor
# (1 + 2^-5 |gv_j| / |g_j|)^d since |delta| <= 2^-6, which is near 1 at the
# points that dominate the sum.  About lam = 0 (|delta| up to 1) the factor is
# unbounded.  Over 2000 draws at m = 8 the largest difference from the
# reference was 2.4 m eps (|D| @ |x|) for the centred route, 2.5 for the loop
# and 21.3, beyond c, for an expansion about lam = 0; from an 80-bit profile
# of the same grid values the centred route and the loop erred by at most
# 0.90 and 0.72.
GRID_FORM_C = 6.8


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(sorted(GRID_FORM_MODELS)),
    modes=st.sampled_from([8, 16, 64]),
    seed=st.integers(0, 2**16),
    decay=st.floats(0.0, 2.0),
    radii=st.tuples(*[st.floats(0.1, 4.0)] * 3),
)
@example(
    name="p_laplacian_p2", modes=64, seed=143, decay=1.3359375, radii=(1.0, 1.0, 1.0)
)
def test_grid_form_profile_matches_einsum_of_the_drift(name, modes, seed, decay, radii):
    model = GRID_FORM_MODELS[name](modes)
    form = model.grid_form
    u, v, x = FieldSampler(model.space, seed, decay).sample(3) * np.asarray(radii)[:, None]
    states = u + _LAM_GRID[:, None] * v
    drift = model.drift(0.0, states)
    reference = np.einsum("gm,m->g", drift, x)
    profile = form.line_profile(u, v, x, _LAM_GRID)
    bound = GRID_FORM_C * modes * np.finfo(float).eps * (np.abs(drift) @ np.abs(x))
    assert np.all(np.abs(profile - reference) <= bound)
    linear = 0.0 if form.symbol is None else form.symbol * states
    assert np.array_equal(form.drift(0.0, states), linear + form.nonstiff(0.0, states))


# Horner on a_0..a_d rounds each of its d steps twice, a product and a sum,
# so it errs by at most gamma_2d sum_k |a_k| |g|^k (Higham, section 5.1).
# The callables round g^3 as two products and then subtract (Allen-Cahn), or
# take |g|^(p-2) by pow, within 2 u, then multiply and negate (p-Laplacian):
# at most gamma_3 times the same sum.  With gamma_n <= 1.01 n u, u = eps / 2,
# the two declarations agree within 1.01 (2d + 3) u sum_k |a_k| |g|^k.
POLY_FORMS = {
    "allen_cahn": make_allen_cahn(modes=8).model.grid_form,
    "p2": make_p_laplacian(modes=8, p=2.0).model.grid_form,
    "p4": make_p_laplacian(modes=8, p=4.0).model.grid_form,
    "p6": make_p_laplacian(modes=8, p=6.0).model.grid_form,
}


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(POLY_FORMS)),
    seed=st.integers(0, 2**16),
    scale=st.floats(1e-3, 1e2),
)
def test_poly_declares_the_same_phi(name, seed, scale):
    form = POLY_FORMS[name]
    g = np.random.default_rng(seed).standard_normal((4, form.basis.grid_size)) * scale
    a = np.asarray(form.poly)
    d = a.size - 1
    horner = np.polynomial.polynomial.polyval(g, a)
    bound = 1.01 * (2 * d + 3) * np.finfo(float).eps / 2 * (
        np.polynomial.polynomial.polyval(np.abs(g), np.abs(a))
    )
    assert np.all(np.abs(horner - form.phi(g)) <= bound)


@pytest.mark.parametrize("p", [2.5, 3.0, 5.0, 8.0])
def test_non_polynomial_and_high_p_phi_declare_no_poly(p):
    # odd or fractional p is not a polynomial; beyond p = 6 the profile samples
    assert make_p_laplacian(modes=8, p=p).model.grid_form.poly is None


@pytest.mark.parametrize("name", ["allen_cahn", "p_laplacian_p4"])
def test_polynomial_h1_profile_hands_phi_one_row_per_centre(name):
    # the 2049-point lam grid has 65 centres, every 32nd point; evaluating phi
    # on the whole grid would hand it blocks of up to 2049 rows
    model = GRID_FORM_MODELS[name](16)
    blocks = []

    def phi(g):
        blocks.append(int(np.prod(np.shape(g)[:-1])))
        return model.grid_form.phi(g)

    counted = dataclasses.replace(model.grid_form, phi=phi)
    u, v, x = FieldSampler(model.space, 0).sample(3)
    h1_jump_and_margin(dataclasses.replace(model, grid_form=counted), u, v, x)
    assert blocks and max(blocks) <= 65


# --------------------------------------------------------------------------
# rigged models are caught


def sign_jump_model():
    def drift(t, u):
        out = np.zeros_like(np.asarray(u, dtype=float))
        out[..., 0] = np.sign(u[..., 0] + 0.3)
        return out

    return rigged_model(drift)


def test_h1_catches_discontinuous_drift():
    model = sign_jump_model()
    report = check_hemicontinuity(model, FieldSampler(model.space, 0), count=32)
    assert report.worst_margin < 0.0
    assert report.constant > 0.1  # a genuine O(1) jump was measured
    # and the witness replays to a violation
    _, _, margin = h1_jump_and_margin(model, *report.witness)
    assert margin == pytest.approx(report.worst_margin, abs=1e-9)


@pytest.mark.parametrize(
    "build", [lambda: make_allen_cahn(modes=8).model, sign_jump_model], ids=["allen_cahn", "rigged"]
)
def test_h1_check_is_a_loop_over_the_replay_evaluator(build):
    model = build()
    report = check_hemicontinuity(model, FieldSampler(model.space, (4, 1)), count=12)
    draw = FieldSampler(model.space, (4, 1))
    u, v, x = draw.sample(12), draw.sample(12), draw.sample(12)
    results = [h1_jump_and_margin(model, u[i], v[i], x[i]) for i in range(12)]
    assert report.worst_margin == min(margin for _, _, margin in results)
    assert report.constant == max(jump for jump, _, _ in results)


def test_h2_catches_understated_monotonicity_constant():
    model = rigged_model(lambda t, u: 50.0 * np.asarray(u, dtype=float), c0=1.0)
    report = check_local_monotonicity(model, FieldSampler(model.space, 0), count=64)
    assert report.worst_margin < 0.0
    assert report.constant == pytest.approx(100.0, rel=1e-9)


def test_h3_catches_anticoercive_drift():
    model = rigged_model(lambda t, u: 50.0 * np.asarray(u, dtype=float), c0=1.0)
    report = check_coercivity(model, FieldSampler(model.space, 0), count=64)
    assert report.worst_margin < 0.0
    assert report.constant > 50.0


def test_h4_catches_understated_growth():
    model = rigged_model(lambda t, u: 50.0 * np.asarray(u, dtype=float), growth_c=1.0)
    h4, _ = check_growth_and_lipschitz(model, FieldSampler(model.space, 0), count=64)
    assert h4.worst_margin < 0.0


def test_h5_catches_understated_noise_lipschitz():
    # actual multiplicative Lipschitz ratio ~ lam^2 q = 4, declared c0 = 0.5
    model = rigged_model(lambda t, u: np.zeros_like(u), c0=0.5, lam=2.0)
    _, h5 = check_growth_and_lipschitz(model, FieldSampler(model.space, 0), count=64)
    assert h5.worst_margin < 0.0
    assert h5.constant > 0.5


def test_non_finite_drift_is_reported():
    def drift(t, u):
        out = np.asarray(u, dtype=float).copy()
        out[..., 0] = np.nan
        return out

    model = rigged_model(drift)
    with pytest.raises(ModelEvaluationError):
        check_coercivity(model, FieldSampler(model.space, 0), count=8)


def test_h4_requires_probes_for_nonquadratic_v():
    model = make_p_laplacian(modes=8).model
    u = FieldSampler(model.space, 0).sample(4)
    with pytest.raises(ModelEvaluationError):
        evaluate_h4(model, u)


@pytest.mark.parametrize(
    "name, call",
    [
        ("count", lambda m: run_all_audits(m, count=0)),
        ("h1_count", lambda m: run_all_audits(m, count=10, h1_count=-1)),
        ("counts", lambda m: constant_stability(m, counts=())),
        ("counts", lambda m: constant_stability(m, counts=(5, 0))),
        ("hypotheses", lambda m: constant_stability(m, counts=(5,), hypotheses=("H1",))),
        ("hypotheses", lambda m: constant_stability(m, counts=(5,), hypotheses=("H6", "H2"))),
    ],
    ids=["count", "h1_count", "empty_counts", "zero_count", "h1", "unknown"],
)
def test_bad_audit_arguments_raise_before_any_drift(name, call):
    model, seen = row_counting(make_allen_cahn(modes=8).model)
    with pytest.raises(ConfigurationError, match=rf"^{name}\b"):
        call(model)
    assert seen == []


@pytest.mark.parametrize(
    "call",
    [
        lambda m: run_all_audits(m, count=10.0),
        lambda m: run_all_audits(m, count=True),
        lambda m: run_all_audits(m, count=10, h1_count=2.5),
        lambda m: constant_stability(m, counts=(5.0, 10.0)),
        lambda m: inequality_study(
            m, SchemeConfig(dt=0.01, steps=2, n=1.0), np.zeros(8), [1.0], test_count=2.0
        ),
        lambda m: make_test_paths(m.space, 0, 3.0, np.linspace(0.0, 1.0, 5)),
        lambda m: FieldSampler(m.space, 0).sample(2.0),
    ],
    ids=["count", "bool_count", "h1_count", "counts", "test_count", "test_paths", "sample"],
)
def test_every_count_is_a_whole_number(call):
    # the one count rule of the package: a float or a bool is rejected, not rounded
    with pytest.raises(ConfigurationError, match="must be a whole number"):
        call(make_allen_cahn(modes=8).model)


@pytest.mark.parametrize("builder", [make_allen_cahn, make_p_laplacian])
def test_run_all_audits_drift_budget(builder):
    # H1 reads the grid form; H2 evaluates u then v, H3 and H4 u once each
    model, seen = row_counting(builder(modes=8).model)
    run_all_audits(model, seed=0, count=10, h1_count=2)
    assert seen == [10] * 4


# --------------------------------------------------------------------------
# constant stability


def test_constant_stability_structure():
    model = make_allen_cahn(modes=8).model
    table = constant_stability(model, seed=0, counts=(50, 100), hypotheses=("H2", "H3", "H5"))
    assert set(table) == {"H2", "H3", "H5"}
    for values in table.values():
        assert len(values) == 2
        assert all(np.isfinite(values))
    # H3 resamples a nested stream: the needed constant cannot shrink
    assert table["H3"][1] >= table["H3"][0] - 1e-12
    again = constant_stability(model, seed=0, counts=(50, 100), hypotheses=("H2", "H3", "H5"))
    assert table == again


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_tamed_nse(modes=4).model,
        lambda: make_allen_cahn(modes=8).model,
        lambda: make_p_laplacian(modes=8).model,  # probes: H4 is not nested
    ],
    ids=["tamed_nse", "allen_cahn", "p_laplacian"],
)
def test_constant_stability_equals_per_count_checks(build):
    model = build()
    counts = (6, 13)  # neither a multiple of the 4-radius cycle
    table = constant_stability(model, seed=5, counts=counts)

    def sampler(tag):
        return FieldSampler(model.space, (5, tag))

    # the nesting premise: a sampler's first c rows are its c-row draw
    assert np.array_equal(sampler(3).sample(13)[:6], sampler(3).sample(6))
    expected = {"H2": [], "H3": [], "H4": [], "H5": []}
    for c in counts:
        expected["H2"].append(check_local_monotonicity(model, sampler(2), c).constant)
        expected["H3"].append(check_coercivity(model, sampler(3), c).constant)
        h4, h5 = check_growth_and_lipschitz(model, sampler(4), c)
        expected["H4"].append(h4.constant)
        expected["H5"].append(h5.constant)
    assert table == expected


@pytest.mark.parametrize(
    "build, rows",
    [
        (
            lambda: make_tamed_nse(modes=4).model,
            {"H2": [6, 6, 13, 13], "H3": [13], "H4": [13], "H5": []},
        ),
        (lambda: make_p_laplacian(modes=8).model, {"H3": [13], "H4": [6, 13], "H5": []}),
    ],
    ids=["tamed_nse", "p_laplacian"],
)
def test_constant_stability_drift_budget(build, rows):
    # nested evaluators run once at the largest count, the others per count;
    # H5 evaluates no drift
    model, seen = row_counting(build())
    for h, expected in rows.items():
        seen.clear()
        constant_stability(model, seed=5, counts=(6, 13), hypotheses=(h,))
        assert seen == expected, h


# --------------------------------------------------------------------------
# the 1-D audit artifacts are frozen to 17 digits

AUDIT_CONF = """\
model.name = {name}
model.modes = 16
scheme.seed = 7
run.samples = 64
run.h1_samples = 8
"""
AUDIT_CSV = {
    "allen_cahn": """\
hypothesis,margin,constant,seed
H1,4.4998208705599313e-06,0.0010663035826610212,7
H2,3.0029138758075806,-0.82793069301038236,7
H3,4.8771769965119729,1.0419694288675188,7
H4,193.46163869119954,16.98685825807868,7
H5,4.8629979808610075,0.080713045216090185,7
""",
    "p_laplacian": """\
hypothesis,margin,constant,seed
H1,0.00036031526851512062,0.25400258539593779,7
H2,27.725886757332677,-61.632657031184031,7
H3,1.3726009011278855,0.06911304327002768,7
H4,15.614080013769138,0.43990626727345278,7
H5,1.1504174673025647,0.016776296869770859,7
""",
}


@pytest.mark.parametrize("name", sorted(AUDIT_CSV))
def test_1d_audit_artifact_is_frozen(name, tmp_path):
    conf = tmp_path / f"{name}.conf"
    conf.write_text(AUDIT_CONF.format(name=name))
    out = tmp_path / "out"
    assert main(["hypotheses", "--config", str(conf), "--out", str(out)]) == 0
    assert (out / "hypotheses.csv").read_bytes() == AUDIT_CSV[name].encode("ascii")
