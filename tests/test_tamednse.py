"""Spectral tamed 3-D Navier-Stokes: lattice packing, Leray projection,
taming profile, drift identities, penalized reflection behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectspde import tamednse
from reflectspde.cli import main
from reflectspde.errors import (
    ConfigurationError,
    ModelEvaluationError,
    UnsupportedParameterError,
)
from reflectspde.hilbert import inner_h, norm_h
from reflectspde.models import dual_pairing
from reflectspde.penalize import SchemeConfig, simulate_path
from reflectspde.tamednse import (
    TamedSpec,
    build_lattice,
    h1_space,
    leray_project,
    make_tamed_nse,
    taming_g,
    tamed_drift,
)
from reflectspde.tamednse import _nonlinear_hat, state_from_uhat, uhat_from_state


@pytest.fixture(scope="module")
def lattice():
    return build_lattice(4)


def random_divfree_uhat(lattice, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((lattice.n_half, 3)) + 1j * rng.standard_normal(
        (lattice.n_half, 3)
    )
    return scale * leray_project(lattice, raw)


# --------------------------------------------------------------------------
# lattice bookkeeping


def test_lattice_counts(lattice):
    # |k|_inf <= 4 minus the origin is 9^3 - 1 vectors; half of them stored
    assert lattice.n_half == 364
    assert lattice.n_coeffs == 1456
    assert lattice.grid_size == 18
    # sorted by |k|^2, so the three |k|^2 = 1 modes come first
    assert np.array_equal(lattice.kvecs[:3], [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    # exactly one of {k, -k} kept: first nonzero component positive
    firsts = np.array(
        [next(c for c in k if c != 0) for k in lattice.kvecs]
    )
    assert np.all(firsts > 0)


def test_polarizations_orthonormal(lattice):
    kf = lattice.kvecs.astype(float)
    assert np.max(np.abs(np.einsum("lc,lc->l", lattice.pol1, kf))) < 1e-12
    assert np.max(np.abs(np.einsum("lc,lc->l", lattice.pol2, kf))) < 1e-12
    assert np.allclose(np.linalg.norm(lattice.pol1, axis=1), 1.0)
    assert np.allclose(np.linalg.norm(lattice.pol2, axis=1), 1.0)
    assert np.max(np.abs(np.einsum("lc,lc->l", lattice.pol1, lattice.pol2))) < 1e-12


def test_mode_range_validation():
    with pytest.raises(ConfigurationError):
        build_lattice(3)
    with pytest.raises(UnsupportedParameterError):
        build_lattice(9)
    with pytest.raises(ConfigurationError):
        TamedSpec(nu=0.0, taming_n=1.0)
    with pytest.raises(ConfigurationError):
        TamedSpec(nu=1.0, taming_n=0.0)


def test_state_packing_isometry(lattice):
    uh = random_divfree_uhat(lattice, seed=1)
    state = state_from_uhat(lattice, uh)
    assert state.shape == (1456,)
    back = uhat_from_state(lattice, state)
    assert np.max(np.abs(back - uh)) < 1e-12
    # plain dot product of storage coordinates is the L^2 inner product:
    # each stored half-mode contributes 2 |uhat_k|^2
    assert np.dot(state, state) == pytest.approx(
        2.0 * np.sum(np.abs(uh) ** 2), rel=1e-12
    )


def test_h1_space_weights_and_unit_modes(lattice):
    space = h1_space(lattice)
    assert space.n_coeffs == 1456
    # a storage basis vector on a |k|^2 = 1 slot has H^1 norm sqrt(2)
    e = np.zeros(1456)
    e[0] = 1.0
    assert norm_h(space, e) == pytest.approx(np.sqrt(2.0))
    assert np.allclose(space.v_weights, space.h_weights**2)


# --------------------------------------------------------------------------
# Leray projection


def test_leray_frozen_values(lattice):
    row_110 = int(np.where((lattice.kvecs == [1, 1, 0]).all(axis=1))[0][0])
    row_100 = int(np.where((lattice.kvecs == [1, 0, 0]).all(axis=1))[0][0])
    uh = np.zeros((lattice.n_half, 3), dtype=complex)
    uh[row_110] = [1.0, 0.0, 0.0]
    out = leray_project(lattice, uh)
    assert np.allclose(out[row_110], [0.5, -0.5, 0.0], atol=1e-14)

    uh = np.zeros((lattice.n_half, 3), dtype=complex)
    uh[row_100] = [1.0, 0.0, 0.0]  # purely compressible: annihilated
    assert np.max(np.abs(leray_project(lattice, uh)[row_100])) < 1e-14

    uh[row_100] = [0.0, 1.0, 0.0]  # already solenoidal: untouched
    assert np.allclose(leray_project(lattice, uh)[row_100], [0.0, 1.0, 0.0], atol=1e-14)


def test_leray_operator_identities(lattice):
    rng = np.random.default_rng(5)
    u = rng.standard_normal((lattice.n_half, 3)) + 1j * rng.standard_normal(
        (lattice.n_half, 3)
    )
    v = rng.standard_normal((lattice.n_half, 3)) + 1j * rng.standard_normal(
        (lattice.n_half, 3)
    )
    pu = leray_project(lattice, u)
    # idempotent
    assert np.max(np.abs(leray_project(lattice, pu) - pu)) < 1e-12
    # self-adjoint for the mode-wise complex inner product
    ip = lambda a, b: np.sum(np.conj(a) * b)
    assert abs(ip(leray_project(lattice, u), v) - ip(u, leray_project(lattice, v))) < 1e-12
    # norm-nonincreasing mode by mode
    assert np.all(
        np.sum(np.abs(pu) ** 2, axis=1) <= np.sum(np.abs(u) ** 2, axis=1) + 1e-12
    )
    # output is divergence-free
    div = np.einsum("lc,lc->l", pu, lattice.kvecs.astype(complex))
    assert np.max(np.abs(div)) < 1e-12


# --------------------------------------------------------------------------
# taming profile


def test_taming_frozen_values():
    spec = TamedSpec(nu=1.0, taming_n=1.0)
    assert taming_g(0.5, spec) == 0.0
    assert taming_g(1.0, spec) == 0.0
    assert taming_g(3.0, spec) == pytest.approx(2.0)
    assert taming_g(1.5, spec) == pytest.approx(0.375)
    with pytest.raises(ModelEvaluationError):
        taming_g(-0.1, spec)


def test_taming_c1_matching():
    spec = TamedSpec(nu=2.0, taming_n=3.0)
    eps = 1e-7
    # value continuity at both knots
    assert taming_g(3.0 + eps, spec) == pytest.approx(0.0, abs=1e-12)
    assert taming_g(4.0 - eps, spec) == pytest.approx(taming_g(4.0 + eps, spec), abs=1e-6)
    # slope beyond the bridge is 1/nu
    assert (taming_g(6.0, spec) - taming_g(5.0, spec)) == pytest.approx(0.5)
    r = np.linspace(0.0, 6.0, 601)
    vals = taming_g(r, spec)
    assert np.all(np.diff(vals) >= -1e-12)  # monotone profile


def allocating_taming_g(r, spec):
    """Reference: the profile built in fresh arrays, one operation at a time,
    in the order the in-place form takes them."""
    s = r - spec.taming_n
    t = np.clip(s, 0.0, 1.0)
    out = (2.0 - t) * t * t
    return (out + np.maximum(s - 1.0, 0.0)) / spec.nu


@settings(max_examples=200, deadline=None)
@given(
    nu=st.floats(0.05, 20.0),
    taming_n=st.floats(1e-3, 100.0),
    # offsets from N: below it (down to r = 0), across the bridge, beyond it
    offsets=st.lists(
        st.one_of(st.floats(-1.0, 0.0), st.floats(0.0, 1.0), st.floats(1.0, 1e3)),
        min_size=1,
        max_size=40,
    ),
)
def test_in_place_taming_equals_taming_g(nu, taming_n, offsets):
    spec = TamedSpec(nu=nu, taming_n=taming_n)
    off = np.array(offsets)
    r = np.where(off < 0.0, (1.0 + off) * taming_n, taming_n + off)
    want = taming_g(r, spec)
    assert np.array_equal(want, allocating_taming_g(r, spec))
    assert [taming_g(float(x), spec) for x in r] == want.tolist()
    # as the drift calls it: strided views of one buffer, scratch holding garbage
    buf = np.full((3, 2 * r.size), np.nan)
    inplace, t, w = buf[0, ::2], buf[1, 1::2], buf[2, ::2]
    inplace[:] = r
    assert tamednse._taming_g_into(inplace, t, w, spec) is inplace
    assert np.array_equal(inplace, want)


# --------------------------------------------------------------------------
# drift identities


def test_drift_zero_at_rest(lattice):
    spec = TamedSpec(nu=1.0, taming_n=1.0)
    out = tamed_drift(lattice, spec, np.zeros(1456))
    assert np.max(np.abs(out)) == 0.0


def test_drift_single_mode_is_pure_stokes(lattice):
    # one low-amplitude shear mode: convection vanishes pointwise (u is
    # perpendicular to its own wavevector) and the speed stays under the
    # taming threshold, so A(u) = nu Laplace u exactly
    spec = TamedSpec(nu=1.0, taming_n=1.0)
    state = np.zeros(1456)
    state[0] = 0.3  # k = (0,0,1), Re z1
    out = tamed_drift(lattice, spec, state)
    expected = np.zeros(1456)
    expected[0] = (1.0 + 1.0) * (-1.0) * 0.3  # (1+|k|^2) * (-nu |k|^2) * state
    assert np.max(np.abs(out - expected)) < 1e-12


def test_drift_functional_coefficients_pair_in_h1(lattice):
    # <A(u), v> contraction equals the H^1 inner product of the state-space
    # right-hand side with v
    bundle = make_tamed_nse(modes=4)
    model = bundle.model
    rng = np.random.default_rng(3)
    u = state_from_uhat(lattice, random_divfree_uhat(lattice, seed=3, scale=0.05))
    v = state_from_uhat(lattice, random_divfree_uhat(lattice, seed=4, scale=0.05))
    a = model.drift(0.0, u)
    assert dual_pairing(a, v) == pytest.approx(
        inner_h(model.space, model.state_rhs(0.0, u), v), rel=1e-12
    )


def test_drift_is_divergence_free(lattice):
    spec = TamedSpec(nu=1.0, taming_n=1.0)
    u = state_from_uhat(lattice, random_divfree_uhat(lattice, seed=6, scale=0.2))
    rhs = tamed_drift(lattice, spec, u) / np.repeat(1.0 + lattice.ksq, 4)
    rhat = uhat_from_state(lattice, rhs)
    div = np.einsum("lc,lc->l", rhat, lattice.kvecs.astype(complex))
    assert np.max(np.abs(div)) < 1e-12 * (1.0 + np.abs(rhat).max())


def test_convection_is_skew_in_l2(lattice):
    # int (u.grad)u . u dx = 0 for div-free u; with the taming term switched
    # off (huge threshold) the nonlinearity is convection alone
    silent = TamedSpec(nu=1.0, taming_n=1e6)
    u = state_from_uhat(lattice, random_divfree_uhat(lattice, seed=7, scale=0.5))
    stokes = -np.repeat(lattice.ksq, 4) * u  # state-space Stokes part (nu = 1)
    rhs = tamed_drift(lattice, silent, u) / np.repeat(1.0 + lattice.ksq, 4)
    conv = rhs - stokes  # = -P(u.grad u) in storage coordinates
    # storage dot product is the L^2 pairing
    scale = float(np.linalg.norm(u) ** 3)
    assert abs(np.dot(conv, u)) < 1e-10 * (1.0 + scale)


def test_drift_batched_rows_match(lattice):
    spec = TamedSpec(nu=1.0, taming_n=1.0)
    rng = np.random.default_rng(8)
    batch = np.stack(
        [
            state_from_uhat(lattice, random_divfree_uhat(lattice, seed=s, scale=0.1))
            for s in range(3)
        ]
    )
    together = tamed_drift(lattice, spec, batch)
    for i in range(3):
        assert np.max(np.abs(together[i] - tamed_drift(lattice, spec, batch[i]))) < 1e-12


def full_complex_nonlinear_hat(lattice, spec, uh):
    """Reference: the full-spectrum pseudo-spectral nonlinearity, one complex
    (G, G, G, 3) cube per row indexed (kx, ky, kz), one inverse FFT for u and
    one per derivative."""
    g = lattice.grid_size
    flat = lambda k: (k % g) @ np.array([g * g, g, 1])
    cube = np.zeros(uh.shape[:-2] + (g**3, 3), dtype=complex)
    cube[..., flat(lattice.kvecs), :] = uh
    cube[..., flat(-lattice.kvecs), :] = np.conj(uh)
    cube = cube.reshape(uh.shape[:-2] + (g, g, g, 3))
    axis = np.fft.fftfreq(g) * g
    freqs = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"))

    def grid_values(c):
        return np.fft.ifftn(c, axes=(-4, -3, -2)).real * g**3

    u = grid_values(cube)
    conv = sum(u[..., d : d + 1] * grid_values(cube * (1j * freqs[d])[..., None]) for d in range(3))
    tame = taming_g(np.sum(u * u, axis=-1), spec)[..., None] * u
    coeffs = np.fft.fftn(conv + tame, axes=(-4, -3, -2)) / g**3
    flat_coeffs = coeffs.reshape(uh.shape[:-2] + (g**3, 3))
    return leray_project(lattice, flat_coeffs[..., flat(lattice.kvecs), :])


@pytest.fixture(scope="module")
def lattices():
    return {modes: build_lattice(modes) for modes in (4, 5, 8)}


@pytest.mark.parametrize("modes", [4, 5, 8])
@settings(max_examples=20, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    support=st.sampled_from(["all", "kx0_plane", "one_mode"]),
    scale=st.floats(0.0, 2.0),
    taming_n=st.sampled_from([0.05, 1.0, 1e6]),
)
def test_nonlinearity_matches_full_complex_reference(
    lattices, modes, data, seed, support, scale, taming_n
):
    # the box shape and the grid both depend on modes; the full-complex
    # reference is costly at 8 modes, so that case draws at most two rows
    lattice = lattices[modes]
    rows = data.draw(st.integers(1, 2 if modes == 8 else 3), label="rows")
    # the kx = 0 plane is the one place the box needs conjugate partners
    # scattered explicitly; fields living only there exercise it
    rng = np.random.default_rng(seed)
    keep = {
        "all": np.ones(lattice.n_half, dtype=bool),
        "kx0_plane": lattice.kvecs[:, 0] == 0,
        "one_mode": np.arange(lattice.n_half) == rng.integers(lattice.n_half),
    }[support]
    raw = rng.standard_normal((rows, lattice.n_half, 3)) + 1j * rng.standard_normal(
        (rows, lattice.n_half, 3)
    )
    uh = scale * leray_project(lattice, raw * keep[:, None]) / np.sqrt(lattice.n_half)
    spec = TamedSpec(nu=1.0, taming_n=taming_n)
    # in storage form: the polarization projection drops the gradient part
    work = tamednse._workspace(lattice, rows)
    got = state_from_uhat(lattice, _nonlinear_hat(lattice, spec, uh, work))
    want = state_from_uhat(lattice, full_complex_nonlinear_hat(lattice, spec, uh))
    # relative to the size of the grid products, which can cancel to rounding
    # (a single shear mode has no convection); the absolute floor covers tiny
    # scales, whose products are subnormal and round to their spacing
    kmag = np.sqrt(lattice.ksq)[:, None]
    products = np.sum(np.abs(uh)) * np.sum(kmag * np.abs(uh))
    bound = 1e-12 * (np.max(np.abs(want)) + products) + np.finfo(float).tiny
    assert np.max(np.abs(got - want)) <= bound


def test_drift_bit_equal_across_chunkings(lattice, monkeypatch):
    spec = TamedSpec(nu=1.0, taming_n=0.5)
    batch = np.stack(
        [
            state_from_uhat(lattice, random_divfree_uhat(lattice, seed=s, scale=0.2))
            for s in range(7)
        ]
    )
    per_row = tamednse._row_scratch_bytes(lattice)
    results = []
    for rows_per_chunk in (7, 3, 1):
        monkeypatch.setattr(tamednse, "_CHUNK_BYTES", rows_per_chunk * per_row)
        assert tamednse._chunk_rows(lattice) == rows_per_chunk
        results.append(tamed_drift(lattice, spec, batch))
    assert np.array_equal(results[0], results[1])
    assert np.array_equal(results[0], results[2])


def test_drift_result_never_views_the_workspace(lattice):
    # a later call on another batch must leave an earlier result as it was:
    # the workspace belongs to one call, and no result is a view of it
    spec = TamedSpec(nu=1.0, taming_n=0.5)
    rows = 2 * tamednse._chunk_rows(lattice) + 3  # three chunks, the last partial
    first, second = (
        np.stack(
            [
                state_from_uhat(lattice, random_divfree_uhat(lattice, seed=s, scale=scale))
                for s in seeds
            ]
        )
        for seeds, scale in ((range(rows), 0.2), (range(rows, 2 * rows), 0.4))
    )
    results = [tamed_drift(lattice, spec, first), tamednse._chunked(lattice, spec, first)]
    kept = [a.copy() for a in results]
    tamed_drift(lattice, spec, second)
    tamednse._chunked(lattice, spec, second)
    for got, want in zip(results, kept):
        assert np.array_equal(got, want)
    # and within a call: blocks share the workspace, not their results
    work = tamednse._workspace(lattice, 2)
    uh = [uhat_from_state(lattice, batch[:2]) for batch in (first, second)]
    hat = _nonlinear_hat(lattice, spec, uh[0], work)
    kept = hat.copy()
    _nonlinear_hat(lattice, spec, uh[1], work)
    assert np.array_equal(hat, kept)
    fresh = tamednse._workspace(lattice, 2)
    assert np.array_equal(kept, _nonlinear_hat(lattice, spec, uh[0], fresh))


# --------------------------------------------------------------------------
# model bundle and penalized reflection


# frozen from the drift built in fresh arrays, one chunk at a time, before the
# chunks shared a workspace; the workspace must reproduce it bit for bit.  H1
# compares drifts along a line, so it shows a change of rounding that the
# sampled maxima of H2-H5 can miss; four H1 profiles (8196 drift rows) show
# it and keep the run near 5 s, where the default 16 would take 20 s
TAMED_AUDIT_CONF = """\
model.name = tamed_nse
model.modes = 4
model.taming_n = 0.5
scheme.seed = 3
run.samples = 16
run.h1_samples = 4
"""
TAMED_AUDIT_CSV = """\
hypothesis,margin,constant,seed
H1,1.4617100492342705e-06,1.282684962689018e-05,3
H2,37.826471271399839,-0.00012014937057826258,3
H3,17.589465761720618,-6.0559228429922847,3
H4,8.0695940246061895,0.75956738628276188,3
H5,8.0156497663842092,0,3
"""


def test_tamed_audit_artifact_is_frozen(tmp_path):
    conf = tmp_path / "tamed.conf"
    conf.write_text(TAMED_AUDIT_CONF)
    out = tmp_path / "out"
    assert main(["hypotheses", "--config", str(conf), "--out", str(out)]) == 0
    assert (out / "hypotheses.csv").read_bytes() == TAMED_AUDIT_CSV.encode("ascii")


def test_make_tamed_nse_bundle():
    bundle = make_tamed_nse(modes=4, x0_radius=0.8)
    assert bundle.space.n_coeffs == 1456
    assert norm_h(bundle.space, bundle.x0) == pytest.approx(0.8)
    assert bundle.model.c == pytest.approx(0.5)
    with pytest.raises(ConfigurationError):
        make_tamed_nse(modes=4, noise_modes=2000)


def test_tamed_lawson_split_recombines_to_state_rhs(lattice):
    # the Lawson move integrates linear_symbol exactly and steps
    # nonstiff_drift; together they must be the state-space drift
    model = make_tamed_nse(modes=4, taming_n=0.05).model
    u = np.stack(
        [
            state_from_uhat(lattice, random_divfree_uhat(lattice, seed=s, scale=0.2))
            for s in range(4)
        ]
    )
    recombined = model.linear_symbol * u + model.nonstiff_drift(0.0, u)
    assert np.max(np.abs(model.state_rhs(0.0, u) - recombined)) < 1e-12


def test_penalized_reflection_keeps_h1_ball_with_decaying_penetration():
    # additive noise from a boundary state: |X|_H1 never exceeds 1 by more
    # than the recorded penetration, and the penetration sup shrinks as the
    # penalization level grows on coupled noise
    bundle = make_tamed_nse(modes=4, mu=1.0)
    model = bundle.model
    x0 = np.zeros(model.space.n_coeffs)
    x0[0] = 1.0 / np.sqrt(2.0)  # unit H^1 vector on the lowest mode
    sups = []
    for n in (4.0, 16.0, 64.0):
        cfg = SchemeConfig(dt=0.005, steps=100, n=n, seed=0)
        r = norm_h(model.space, simulate_path(model, cfg, x0).states)
        sup_pen = np.max(np.maximum(r - 1.0, 0.0))
        assert np.max(r) <= 1.0 + sup_pen + 1e-12
        sups.append(sup_pen)
    assert sups[0] > sups[1] > sups[2] > 0.0
