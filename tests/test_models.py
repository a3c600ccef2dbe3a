"""Model drifts against hand-computed values; noise algebra; registry."""

import dataclasses

import numpy as np
import pytest

from reflectspde.errors import ConfigurationError, UnsupportedParameterError
from reflectspde.hilbert import norm_h
from reflectspde.models import (
    ModelSpec,
    NoiseSpec,
    REGISTRY,
    apply_noise,
    build_model,
    decay_profile_x0,
    dual_pairing,
    geometric_noise,
    hs_diff_sq,
    hs_norm_sq,
    make_allen_cahn,
    make_oracle_1d,
    make_p_laplacian,
    noise_growth_sq,
    noise_lip_sq,
    vstar_norm,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


# --------------------------------------------------------------------------
# drifts


def allen_cahn_drift(u):
    return make_allen_cahn(modes=8).model.drift(0.0, u)


def p_laplacian_drift(p, u):
    return make_p_laplacian(modes=8, p=p).model.drift(0.0, u)


def test_allen_cahn_drift_constant_state():
    # u = 2: Laplacian vanishes, 2 - 8 = -6 on the constant slot
    u = np.zeros(8)
    u[0] = 2.0
    expected = np.zeros(8)
    expected[0] = -6.0
    assert np.max(np.abs(allen_cahn_drift(u) - expected)) < 1e-12


def test_allen_cahn_drift_single_sine():
    # u = sin x: Laplacian and linear term cancel; -sin^3 x leaves
    # -(3/4) sin x + (1/4) sin 3x
    u = np.zeros(8)
    u[2] = INV_SQRT2  # sin-1 slot
    expected = np.zeros(8)
    expected[2] = -0.75 * INV_SQRT2
    expected[6] = 0.25 * INV_SQRT2  # sin-3 slot
    assert np.max(np.abs(allen_cahn_drift(u) - expected)) < 1e-12


def test_allen_cahn_drift_batched():
    rng = np.random.default_rng(4)
    batch = rng.standard_normal((6, 8))
    rows = np.stack([allen_cahn_drift(row) for row in batch])
    assert np.max(np.abs(allen_cahn_drift(batch) - rows)) < 1e-12


def test_allen_cahn_phi_is_the_cubic_bitwise():
    form = make_allen_cahn(modes=8).model.grid_form
    g = np.random.default_rng(5).standard_normal((3, form.basis.grid_size)) * 4.0
    before = g.copy()
    assert np.array_equal(form.phi(g), g - g * g * g)
    assert np.array_equal(g, before)


def test_p_laplacian_drift_single_sine_p4():
    # u = sin x, p = 4: (|u'|^2 u')' = -(3/4)(sin x + sin 3x)
    u = np.zeros(8)
    u[1] = INV_SQRT2  # sin-1 slot
    out = p_laplacian_drift(4.0, u)
    expected = np.zeros(8)
    expected[1] = -0.75 * INV_SQRT2
    expected[5] = -0.75 * INV_SQRT2  # sin-3 slot
    assert np.max(np.abs(out - expected)) < 1e-12


def test_p_laplacian_drift_reduces_to_laplacian_at_p2():
    u = np.zeros(8)
    u[1] = INV_SQRT2
    out = p_laplacian_drift(2.0, u)
    expected = np.zeros(8)
    expected[1] = -INV_SQRT2
    assert np.max(np.abs(out - expected)) < 1e-12


def test_p_laplacian_monotone_decreasing():
    # <A(u) - A(v), u - v> <= 0 for the monotone p-Laplacian
    drift = make_p_laplacian(modes=12, p=4.0).model.drift
    rng = np.random.default_rng(8)
    for _ in range(20):
        u = rng.standard_normal(12)
        v = rng.standard_normal(12)
        pair = dual_pairing(drift(0.0, u) - drift(0.0, v), u - v)
        assert pair <= 1e-10


def test_p_laplacian_rejects_small_p():
    with pytest.raises(UnsupportedParameterError):
        make_p_laplacian(modes=8, p=1.5)
    with pytest.raises(UnsupportedParameterError):
        make_p_laplacian(modes=8, p=1.0)


# --------------------------------------------------------------------------
# noise


def test_geometric_noise_weights():
    noise = geometric_noise(3, mu=1.0, lam=0.0, decay=2.0)
    assert np.allclose(noise.q, [1.0, 0.25, 1.0 / 9.0])
    assert noise.mode_count == 3
    with pytest.raises(ConfigurationError):
        geometric_noise(0, 1.0, 0.0)


def test_apply_noise_additive():
    noise = NoiseSpec(q=np.array([0.25]), mu=1.0, lam=0.0)
    out = apply_noise(noise, np.zeros(4), np.array([1.0]))
    assert np.allclose(out, [0.5, 0.0, 0.0, 0.0])


def test_apply_noise_clamps_multiplicative_part():
    noise = NoiseSpec(q=np.array([0.36]), mu=0.0, lam=1.0)
    u = np.array([2.0, 0.0, 0.0])  # clamp(2) = 1
    out = apply_noise(noise, u, np.array([1.5]))
    assert np.allclose(out, [0.6 * 1.5, 0.0, 0.0])
    out_neg = apply_noise(noise, np.array([-5.0, 0.0, 0.0]), np.array([1.0]))
    assert out_neg[0] == pytest.approx(-0.6)


def test_apply_noise_shape_checks():
    noise = NoiseSpec(q=np.array([1.0, 1.0]), mu=1.0, lam=0.0)
    with pytest.raises(ConfigurationError):
        apply_noise(noise, np.zeros(4), np.zeros(3))
    with pytest.raises(ConfigurationError):
        apply_noise(noise, np.zeros(4), np.zeros(3), out=np.zeros(4))


def test_apply_noise_adds_into_out_bitwise():
    # the stepping kernel's call: u an (L, M, m) stack, dW (M, K)
    rng = np.random.default_rng(5)
    noise = geometric_noise(3, mu=0.4, lam=0.3)
    u, buf = rng.standard_normal((2, 2, 5, 6))
    dW = rng.standard_normal((5, 3))
    want = buf + apply_noise(noise, u, dW)
    got = apply_noise(noise, u, dW, out=buf)
    assert got is buf
    assert got.tobytes() == want.tobytes()


def test_noise_spec_validation():
    with pytest.raises(ConfigurationError):
        NoiseSpec(q=np.array([-1.0]), mu=1.0, lam=0.0)
    with pytest.raises(ConfigurationError):
        NoiseSpec(q=np.zeros((2, 2)), mu=1.0, lam=0.0)
    with pytest.raises(ConfigurationError):
        NoiseSpec(q=np.ones(2), mu=np.inf, lam=0.0)


def test_hs_norms_and_declared_constants():
    bundle = make_allen_cahn(modes=16)
    space, noise = bundle.space, bundle.noise
    rng = np.random.default_rng(12)
    u = rng.standard_normal((30, 16))
    v = rng.standard_normal((30, 16))
    lip = noise_lip_sq(noise)
    growth = noise_growth_sq(space, noise)
    assert np.all(hs_diff_sq(space, noise, u, v) <= lip * norm_h(space, u - v) ** 2 + 1e-12)
    assert np.all(hs_norm_sq(space, noise, u) <= growth * (1.0 + norm_h(space, u) ** 2) + 1e-12)
    # additive part alone: HS norm is state-independent
    add = NoiseSpec(q=np.array([0.25, 0.04]), mu=2.0, lam=0.0)
    assert hs_norm_sq(space, add, u[0]) == pytest.approx(4.0 * (0.25 + 0.04))
    assert noise_lip_sq(add) == 0.0


# --------------------------------------------------------------------------
# duality helpers


def test_dual_pairing_contraction():
    a = np.array([1.0, -2.0, 3.0])
    v = np.array([2.0, 1.0, 0.5])
    assert dual_pairing(a, v) == pytest.approx(1.5)
    with pytest.raises(ConfigurationError):
        dual_pairing(np.zeros(3), np.zeros(4))


def test_vstar_norm_quadratic_only():
    bundle = make_allen_cahn(modes=8)
    a = np.zeros(8)
    a[0] = 2.0  # v_weight on the constant slot is 1 + 0^2 = 1
    assert vstar_norm(bundle.space, a) == pytest.approx(2.0)
    plap = make_p_laplacian(modes=8)
    with pytest.raises(ConfigurationError):
        vstar_norm(plap.space, np.zeros(8))


# --------------------------------------------------------------------------
# bundles, registry, validation


def test_make_allen_cahn_bundle():
    bundle = make_allen_cahn(modes=16, x0_radius=0.8)
    assert bundle.space.n_coeffs == 16
    assert norm_h(bundle.space, bundle.x0) == pytest.approx(0.8)
    # state split: drift = linear_symbol * u + nonstiff (unit h-weights)
    m = bundle.model
    rng = np.random.default_rng(3)
    u = rng.standard_normal(16)
    recombined = m.linear_symbol * u + m.nonstiff_drift(0.0, u)
    assert np.max(np.abs(m.drift(0.0, u) - recombined)) < 1e-12
    assert np.max(np.abs(m.state_rhs(0.0, u) - m.drift(0.0, u))) < 1e-15


def test_noise_must_fit_the_space():
    # README's recipe for another noise; a 40-mode noise on 16 coefficients
    # used to pass here and die in a numpy broadcast inside the study
    model = make_allen_cahn(modes=16).model
    wide = geometric_noise(40, 0.5, 0.3)
    with pytest.raises(ConfigurationError, match="noise drives 40 modes"):
        dataclasses.replace(model, noise=wide)
    u = np.zeros(16)
    with pytest.raises(ConfigurationError):
        hs_norm_sq(model.space, wide, u)
    with pytest.raises(ConfigurationError):
        hs_diff_sq(model.space, wide, u, u)
    with pytest.raises(ConfigurationError):
        noise_growth_sq(model.space, wide)
    fits = dataclasses.replace(model, noise=geometric_noise(16, 0.5, 0.3))
    assert fits.noise.mode_count == 16


def test_allen_cahn_guards():
    with pytest.raises(ConfigurationError):
        make_allen_cahn(modes=4)
    with pytest.raises(ConfigurationError):
        make_allen_cahn(modes=8, noise_modes=9)


def test_p_laplacian_guards():
    with pytest.raises(ConfigurationError):
        make_p_laplacian(modes=9)  # odd zero-mean layout
    with pytest.raises(ConfigurationError):
        make_p_laplacian(modes=6)


def test_oracle_bundle_defaults():
    bundle = make_oracle_1d(kappa=0.5, sigma=0.5)
    assert bundle.x0 == pytest.approx([0.5])
    assert bundle.model.drift(0.0, np.array([2.0])) == pytest.approx([1.0])
    assert bundle.noise.lam == 0.0


def test_rho_weight_formula():
    # built-in drifts are globally semi-monotone: zero weights everywhere
    plap = make_p_laplacian(modes=8)
    assert np.all(plap.model.rho(np.ones((3, 8))) == 0.0)
    ac = make_allen_cahn(modes=8)
    assert np.all(ac.model.rho(ac.x0) == 0.0)
    # nonzero mono_scale switches on (1 + ||u||_V^2)(1 + |u|_H^4)
    base = make_oracle_1d().model
    scaled = ModelSpec(
        name="scaled",
        space=base.space,
        noise=base.noise,
        drift=base.drift,
        alpha=2.0,
        beta=0.0,
        gamma=4.0,
        c=1.0,
        c0=base.c0,
        growth_c=1.0,
        noise_lip_sq=0.0,
        mono_scale=2.0,
    )
    u = np.array([1.0])
    assert scaled.rho(u) == pytest.approx(8.0)
    # away from |u| = 1 each declared exponent shows: 2 (1 + 2^2)(1 + 2^4)
    assert scaled.rho(2.0 * u) == pytest.approx(170.0)
    # and exponents other than 2 and 4 are read too: 2 (1 + 2^3)(1 + 2^1)
    other = dataclasses.replace(scaled, alpha=3.0, gamma=1.0)
    assert other.rho(2.0 * u) == pytest.approx(54.0)


def test_model_spec_rejects_understated_c0():
    bundle = make_oracle_1d()
    m = bundle.model
    with pytest.raises(ConfigurationError):
        ModelSpec(
            name="bad",
            space=m.space,
            noise=m.noise,
            drift=m.drift,
            alpha=2.0,
            beta=0.0,
            gamma=0.0,
            c=1.0,
            c0=0.0,
            growth_c=1.0,
            noise_lip_sq=1.0,  # exceeds declared c0
        )


def test_overflowing_declared_constants_are_rejected():
    # the squares overflow to inf without a warning (warnings are errors in
    # this suite), and ModelSpec names the constant
    huge = NoiseSpec(q=np.array([1.0, 0.5]), mu=1e200, lam=-1e200)
    assert noise_lip_sq(huge) == np.inf
    assert noise_growth_sq(make_oracle_1d().space, NoiseSpec(np.ones(1), 1e200, 0.0)) == np.inf
    for kwargs, name in [
        (dict(kappa=-1e200), "growth_c"),
        (dict(sigma=1e200), "c0"),
        (dict(kappa=np.float64(1e200)), "growth_c"),
    ]:
        with pytest.raises(ConfigurationError, match=f"declared constant {name} is not finite"):
            make_oracle_1d(**kwargs)
    for build in (make_allen_cahn, make_p_laplacian):
        with pytest.raises(ConfigurationError, match="declared constant c0 is not finite"):
            build(modes=8, lam=1e200)


def test_an_overflowing_noise_weight_is_rejected_without_a_warning():
    # warnings are errors in this suite: (1 + k)^1000 overflows to inf silently
    for build in (make_allen_cahn, make_p_laplacian):
        with pytest.raises(ConfigurationError, match="q weights must be finite"):
            build(modes=8, q_decay=-1000)


def test_model_spec_exponent_validation():
    bundle = make_oracle_1d()
    m = bundle.model
    for bad in (dict(alpha=1.0), dict(c=0.0), dict(beta=-1.0)):
        kwargs = dict(
            name="bad",
            space=m.space,
            noise=m.noise,
            drift=m.drift,
            alpha=2.0,
            beta=0.0,
            gamma=0.0,
            c=1.0,
            c0=m.c0,
            growth_c=1.0,
            noise_lip_sq=0.0,
        )
        kwargs.update(bad)
        with pytest.raises(ConfigurationError):
            ModelSpec(**kwargs)


def test_decay_profile_requires_wavenumbers():
    bundle = make_allen_cahn(modes=8)
    x0 = decay_profile_x0(bundle.space, radius=0.5)
    assert norm_h(bundle.space, x0) == pytest.approx(0.5)
    for radius in (-0.1, 1.0 + 1e-9, np.nan):  # the initial state lies in the closed ball
        with pytest.raises(UnsupportedParameterError, match="x0_radius"):
            decay_profile_x0(bundle.space, radius=radius)
    from reflectspde.hilbert import SpaceSpec

    bare = SpaceSpec(np.ones(4), np.ones(4))
    with pytest.raises(ConfigurationError):
        decay_profile_x0(bare)


def test_registry_dispatch():
    assert set(REGISTRY) == {"allen_cahn", "p_laplacian", "oracle_1d", "tamed_nse"}
    bundle = build_model("oracle_1d", kappa=0.25)
    assert bundle.model.drift(0.0, np.array([4.0])) == pytest.approx([1.0])
    with pytest.raises(ConfigurationError):
        build_model("heat_equation")


SUBMODULES = "cli fourier hilbert hypotheses localtime models montecarlo penalize tamednse".split()


@pytest.mark.parametrize("module", ["reflectspde"] + [f"reflectspde.{m}" for m in SUBMODULES])
def test_public_names_are_unique_and_defined(module):
    import importlib

    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
