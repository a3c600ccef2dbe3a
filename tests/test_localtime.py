"""Reflection accounting: total variation, variational gap, boundary support."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectspde.errors import ConfigurationError
from reflectspde.hilbert import SpaceSpec, norm_h, penalty_gap, project_ball
from reflectspde.localtime import (
    boundary_leak,
    inequality_study,
    make_test_paths,
    total_variation,
    variational_gap,
)
from reflectspde.models import make_allen_cahn, make_oracle_1d
from reflectspde.penalize import SchemeConfig, _brownian_block, _trajectory, simulate_path


def flat_space(m):
    return SpaceSpec("flat", 1, m, np.ones(m), np.ones(m))


# --------------------------------------------------------------------------
# frozen functionals


def test_total_variation_sums_increment_norms():
    space = flat_space(2)
    dL = np.array([[0.3, 0.4], [0.0, 0.5]])  # norms 0.5 and 0.5
    assert total_variation(space, dL) == pytest.approx(1.0, abs=1e-15)


def test_variational_gap_single_step_value():
    # X = e1, dL = -0.1 e1, phi = 0: (phi - X, dL) = 0.1
    space = flat_space(2)
    states, dL = np.array([[1.0, 0.0], [0.9, 0.0]]), np.array([[-0.1, 0.0]])
    assert variational_gap(space, states, dL, np.zeros((2, 2))) == pytest.approx(0.1, abs=1e-15)


def test_variational_gap_input_checks():
    space = flat_space(2)
    states, dL = np.array([[1.0, 0.0], [0.9, 0.0]]), np.array([[-0.1, 0.0]])
    with pytest.raises(ConfigurationError):
        variational_gap(space, states, dL, np.zeros((3, 2)))  # wrong time grid
    bad = np.zeros((2, 2))
    bad[0, 0] = 2.0  # leaves the ball
    with pytest.raises(ConfigurationError):
        variational_gap(space, states, dL, bad)


def test_boundary_leak_frozen_values():
    space = flat_space(2)
    # all mass while sitting at the origin: psi_0.1(0) = 0.81
    dL = np.array([[1.0, 0.0]])
    assert boundary_leak(space, np.zeros((2, 2)), dL, 0.1) == pytest.approx(0.81, abs=1e-15)
    # mass on the sphere is invisible to the bump
    sphere = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert boundary_leak(space, sphere, dL, 0.1) == 0.0
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ConfigurationError):
            boundary_leak(space, np.zeros((2, 2)), dL, bad)


# --------------------------------------------------------------------------
# test-path families


def test_make_test_paths_structure():
    space = flat_space(5)
    times = np.linspace(0.0, 1.0, 11)
    paths = make_test_paths(space, seed=3, count=12, times=times)
    assert paths.shape == (12, 11, 5)
    assert np.array_equal(paths[0], np.zeros((11, 5)))
    # boundary constants on the first and last coordinate
    assert np.allclose(paths[1][:, 0], 1.0) and np.allclose(paths[1][:, 1:], 0.0)
    assert np.allclose(paths[2][:, 4], 1.0) and np.allclose(paths[2][:, :4], 0.0)
    assert np.max(norm_h(space, paths)) <= 1.0 + 1e-12
    assert np.array_equal(paths, make_test_paths(space, seed=3, count=12, times=times))
    assert not np.array_equal(paths[5], make_test_paths(space, 4, 12, times)[5])
    with pytest.raises(ConfigurationError):
        make_test_paths(space, 0, 0, times)


def test_make_test_paths_weighted_boundary_constant():
    space = SpaceSpec("w", 1, 3, np.array([4.0, 1.0, 1.0]), np.ones(3))
    paths = make_test_paths(space, seed=0, count=2, times=np.zeros(2))
    assert paths[1][0, 0] == pytest.approx(0.5)  # 1/sqrt(4) lands on the sphere
    assert norm_h(space, paths[1][0]) == pytest.approx(1.0)


# --------------------------------------------------------------------------
# properties on simulated paths


def strong_ac_path(n=16.0, steps=200):
    bundle = make_allen_cahn(modes=8, mu=1.5)
    cfg = SchemeConfig(dt=0.005, steps=steps, n=n, seed=2)
    rec = simulate_path(bundle.model, cfg, bundle.x0)
    return bundle, cfg, rec


def test_projection_shadow_gap_is_exactly_nonnegative():
    # phi = pi(X) turns the gap into n dt sum |X - pi(X)|^2 >= 0, exactly
    bundle, cfg, rec = strong_ac_path()
    space = bundle.space
    shadow = project_ball(space, rec.states)
    gap = variational_gap(space, rec.states, rec.l_increments, shadow)
    assert gap >= 0.0
    gaps = penalty_gap(space, rec.states[:-1])[0]
    expected = cfg.n * cfg.dt * np.sum(space.h_weights * gaps * gaps)
    assert gap == pytest.approx(expected, rel=1e-12)
    assert gap > 0.0  # the path did leave the ball


def test_variational_gap_nonnegative_for_all_ball_tests():
    # explicit stepper: every per-step term is (phi - X, -n dt (X - pi X)) >= 0
    bundle, cfg, rec = strong_ac_path()
    space = bundle.space
    tests = make_test_paths(space, seed=7, count=40, times=rec.times)
    worst = np.min(variational_gap(space, rec.states, rec.l_increments, tests))
    assert worst >= 0.0


# --------------------------------------------------------------------------
# the array reductions against per-path formulas, on generated stacks

BUNDLES = {
    "oracle": make_oracle_1d(kappa=1.0, sigma=0.6),
    "allen_cahn": make_allen_cahn(modes=8, mu=1.5),
}
DT = 0.02  # explicit levels stay at n * DT <= 1; most paths reach the sphere
EXPLICIT_LEVELS = st.floats(0.0, 1.0 / DT)
SPLITTING_LEVELS = st.one_of(st.floats(0.0, 1e4), st.just(float("inf")))
REDUCTION_SETTINGS = settings(max_examples=20, deadline=None)


def penalized_arrays(bundle, cfg, levels, paths):
    """(steps+1, L, M, m) states and (steps, L, M, m) increments of the kernel."""
    dW = _brownian_block(cfg.seed, paths, bundle.model.noise.mode_count, cfg.steps, cfg.dt)
    return _trajectory(bundle.model, cfg, levels, bundle.x0, dW)[:2]


def per_path_reference(space, X, dL, tests, delta):
    """The functionals of one path (steps+1, m), written out term by term."""
    w = space.h_weights
    gaps = [np.sum(w * (phi[:-1] - X[:-1]) * dL) for phi in tests]
    r = norm_h(space, X[:-1])
    bump = np.where(r < 1.0 - delta, (1.0 - delta - r) ** 2, 0.0)
    return np.sum(norm_h(space, dL)), np.array(gaps), np.sum(bump * norm_h(space, dL))


@REDUCTION_SETTINGS
@given(
    name=st.sampled_from(sorted(BUNDLES)),
    method=st.sampled_from(["explicit", "splitting"]),
    data=st.data(),
    paths=st.integers(1, 3),
    steps=st.integers(1, 32),
    seed=st.integers(0, 2**16),
    count=st.integers(1, 9),
)
def test_reductions_equal_per_path_formulas(name, method, data, paths, steps, seed, count):
    level = EXPLICIT_LEVELS if method == "explicit" else SPLITTING_LEVELS
    levels = data.draw(st.lists(level, min_size=1, max_size=3))
    check_reductions(name, method, levels, paths, steps, seed, count)


def test_reductions_at_a_subnormal_level():
    # n dt and every dL are subnormal: the gaps agree to one smallest
    # subnormal (5e-324), and their relative bound underflows to 0
    check_reductions("allen_cahn", "explicit", [2.2250738585e-313], 1, 3, 1, 4)


def check_reductions(name, method, levels, paths, steps, seed, count):
    bundle = BUNDLES[name]
    space = bundle.space
    cfg = SchemeConfig(dt=DT, steps=steps, n=levels[0], method=method, seed=seed)
    states, dL = penalized_arrays(bundle, cfg, levels, paths)
    tests = make_test_paths(space, seed, count, DT * np.arange(steps + 1))

    tv = total_variation(space, dL)
    gaps = variational_gap(space, states, dL, tests)
    leak = boundary_leak(space, states, dL, 0.1)
    assert tv.shape == leak.shape == (len(levels), paths)
    assert gaps.shape == (len(levels), paths, count)
    # a single test path gives the batch shape
    single = variational_gap(space, states, dL, tests[-1])
    assert single.shape == (len(levels), paths)

    for li in range(len(levels)):
        for i in range(paths):
            X, d = states[:, li, i], dL[:, li, i]
            want_tv, want_gaps, want_leak = per_path_reference(space, X, d, tests, 0.1)
            # sum_j,i w_i (|X_ji| + |phi_ji|) |dL_ji|: by Cauchy-Schwarz at most
            # sum_j (|X_j|_H + |phi_j|_H) |dL_j|_H, and it squares no tiny dL
            w_dl = space.h_weights * np.abs(d)
            scale = np.sum((np.abs(X[:-1]) + np.abs(tests[:, :-1])) * w_dl, axis=(1, 2))
            # a product that lands below the normal range errs by up to half
            # the smallest subnormal, absolutely, and a sum of subnormals is
            # exact.  Per summed term (steps * m of them) the reduction rounds
            # three products (w dL, then X and phi times it) and the reference
            # one (w (phi - X) times dL): at most (3 + 1) / 2 = 2 of them apart
            tiny = 2 * d.size * np.finfo(float).smallest_subnormal
            bound = 1e-12 * scale + tiny
            assert np.all(abs(gaps[li, i] - want_gaps) <= bound), (gaps[li, i], want_gaps)
            assert abs(single[li, i] - want_gaps[-1]) <= bound[-1]
            assert abs(tv[li, i] - want_tv) <= 1e-12 * want_tv
            assert abs(leak[li, i] - want_leak) <= 1e-12 * want_leak


@REDUCTION_SETTINGS
@given(
    name=st.sampled_from(sorted(BUNDLES)),
    levels=st.lists(EXPLICIT_LEVELS, min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_explicit_variational_gap_nonnegative_to_rounding(name, levels, seed):
    # Exactly, every term (phi_j - X_j, dL_j)_H of the explicit stepper is
    # >= 0.  The computed gap is sum_j (phi_j, dL_j)_H - sum_j (X_j, dL_j)_H,
    # two dot products of N = steps * m terms.  The stepper writes dL_j = 0
    # unless |X_j|_H > 1 >= |phi_j|_H (checked below), so by Cauchy-Schwarz
    # the absolute terms of either sum add up to at most
    # S = sum_j |X_j|_H |dL_j|_H.  Rounding errors of a length-N sum grow like
    # sqrt(N) u S, u = eps / 2 the unit roundoff (Higham & Mary, SIAM J. Sci.
    # Comput. 41, 2019); four of those for each sum, at N = 32 * 8 = 256,
    # give the floor 2 * 4 * sqrt(256) * u * S = 64 eps S.
    bundle = BUNDLES[name]
    space = bundle.space
    steps = 32
    assert steps * space.n_coeffs <= 256
    times = DT * np.arange(steps + 1)
    tests = make_test_paths(space, seed, 20, times)
    for n in levels:
        rec = simulate_path(bundle.model, SchemeConfig(DT, steps, n, seed=seed), bundle.x0)
        radii = norm_h(space, rec.states[:-1])
        assert np.all(rec.l_increments[radii <= 1.0] == 0.0)
        floor = 64 * np.finfo(float).eps * np.sum(radii * norm_h(space, rec.l_increments))
        gaps = variational_gap(space, rec.states, rec.l_increments, tests)
        assert np.min(gaps) >= -floor, (np.min(gaps), floor)


def test_outward_oracle_total_variation_matches_ode_budget():
    # kappa = 1, x0 = 0.5, sigma = 0: the free flow reaches the wall at
    # t = ln 2 and then pushes at rate ~kappa; TV over [0, 2] ~ 2 - ln 2
    bundle = make_oracle_1d(kappa=1.0, sigma=0.0)
    cfg = SchemeConfig(dt=1e-3, steps=2000, n=1000.0, method="explicit")
    rec = simulate_path(bundle.model, cfg, np.array([0.5]))
    tv = total_variation(bundle.space, rec.l_increments)
    assert tv == pytest.approx(2.0 - np.log(2.0), rel=0.05)


def test_inequality_study_rows():
    bundle = make_oracle_1d(kappa=1.0, sigma=0.3)
    cfg = SchemeConfig(dt=0.01, steps=100, n=1.0, seed=5)
    rows, failures = inequality_study(
        bundle.model, cfg, bundle.x0, [10.0, 100.0], paths=2, test_count=8
    )
    assert failures == 0
    assert len(rows) == 4
    assert [(r[0], r[1]) for r in rows] == [(10.0, 0), (10.0, 1), (100.0, 0), (100.0, 1)]
    for n, i, tv, min_gap, leak in rows:
        assert tv >= 0.0
        assert min_gap >= 0.0  # explicit stepper is exact here
        assert leak >= 0.0
    with pytest.raises(ConfigurationError):
        inequality_study(bundle.model, cfg, bundle.x0, [])
    with pytest.raises(ConfigurationError):
        inequality_study(bundle.model, cfg, bundle.x0, [10.0], paths=0)
