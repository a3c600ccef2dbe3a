"""Structural-hypothesis audits: clean models pass, rigged models are caught."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectspde.errors import ModelEvaluationError
from reflectspde.hypotheses import (
    _LAM_GRID,
    FieldSampler,
    check_coercivity,
    check_growth_and_lipschitz,
    check_hemicontinuity,
    check_local_monotonicity,
    constant_stability,
    h1_jump_and_margin,
    h2_values,
    h3_values,
    h4_values,
    h5_values,
    run_all_audits,
)
from reflectspde.models import (
    ModelSpec,
    NoiseSpec,
    make_allen_cahn,
    make_oracle_1d,
    make_p_laplacian,
)
from reflectspde.tamednse import make_tamed_nse


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
    from reflectspde.hilbert import norm_h

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
    # the stored witness re-evaluates to the reported worst margin
    model = make_allen_cahn(modes=8).model
    h1, h2, h3, h4, h5 = run_all_audits(model, seed=1, count=150, h1_count=24)

    _, _, margin1 = h1_jump_and_margin(model, *h1.witness)
    assert margin1 == pytest.approx(h1.worst_margin, abs=1e-9)

    measured, bound = h2_values(model, *h2.witness)
    assert bound - measured == pytest.approx(h2.worst_margin, abs=1e-9)

    measured, bound = h3_values(model, *h3.witness)
    assert bound - measured == pytest.approx(h3.worst_margin, abs=1e-9)

    lhs, envelope = h4_values(model, *h4.witness)
    assert model.growth_c * envelope - lhs == pytest.approx(h4.worst_margin, abs=1e-9)

    # H5 margin is min(lipschitz over the batch, growth at the witness)
    _, growth, genv = h5_values(model, *h5.witness)
    assert model.c0 * genv - growth >= h5.worst_margin - 1e-9


def test_h4_witness_replay_with_probes():
    model = make_p_laplacian(modes=8).model
    reports = run_all_audits(model, seed=2, count=100, h1_count=16)
    h4 = reports[3]
    assert "probe" in h4.note
    lhs, envelope = h4_values(model, *h4.witness)
    assert model.growth_c * envelope - lhs == pytest.approx(h4.worst_margin, abs=1e-9)


# --------------------------------------------------------------------------
# the grid-form H1 profile is the profile of the drift that is stepped

GRID_FORM_MODELS = {
    "allen_cahn": lambda modes: make_allen_cahn(modes=modes).model,
    "p_laplacian_p2": lambda modes: make_p_laplacian(modes=modes, p=2.0).model,
    "p_laplacian_p4": lambda modes: make_p_laplacian(modes=modes, p=4.0).model,
}


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(sorted(GRID_FORM_MODELS)),
    modes=st.sampled_from([8, 16, 64]),
    seed=st.integers(0, 2**16),
    decay=st.floats(0.0, 2.0),
    radii=st.tuples(*[st.floats(0.1, 4.0)] * 3),
)
def test_grid_form_profile_matches_einsum_of_the_drift(name, modes, seed, decay, radii):
    model = GRID_FORM_MODELS[name](modes)
    form = model.grid_form
    u, v, x = FieldSampler(model.space, seed, decay).sample(3) * np.asarray(radii)[:, None]
    states = u + _LAM_GRID[:, None] * v
    reference = np.einsum("gm,m->g", model.drift(0.0, states), x)
    profile = form.line_profile(u, v, x, _LAM_GRID)
    assert np.max(np.abs(profile - reference)) <= 1e-13 * np.max(np.abs(reference))
    linear = 0.0 if form.symbol is None else form.symbol * states
    assert np.array_equal(form.drift(0.0, states), linear + form.nonstiff(0.0, states))


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
        h4_values(model, u, None)


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
