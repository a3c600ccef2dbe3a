"""Reflection accounting: total variation, variational gap, boundary support."""

import numpy as np
import pytest

from reflectspde.errors import ConfigurationError
from reflectspde.hilbert import SpaceSpec, norm_h, penalty_gap, project_ball
from reflectspde.localtime import (
    boundary_leak,
    inequality_study,
    make_test_paths,
    summarize,
    total_variation,
    variational_gap,
)
from reflectspde.models import make_allen_cahn, make_oracle_1d
from reflectspde.penalize import PathRecord, SchemeConfig, simulate_path


def flat_space(m):
    return SpaceSpec("flat", 1, m, np.ones(m), np.ones(m), 2.0)


def fake_record(states, l_increments, n=1.0):
    states = np.asarray(states, dtype=float)
    steps = states.shape[0] - 1
    return PathRecord(
        times=np.arange(steps + 1, dtype=float),
        states=states,
        l_increments=np.asarray(l_increments, dtype=float),
        int_pen=0.0,
        int_pen_sq=0.0,
        int_weighted_pen=0.0,
        int_v_energy=0.0,
        sup_h=float(np.max(np.abs(states))),
        sup_pen=0.0,
        n=n,
        method="explicit",
    )


# --------------------------------------------------------------------------
# frozen functionals


def test_total_variation_sums_increment_norms():
    space = flat_space(2)
    rec = fake_record(
        np.zeros((3, 2)),
        [[0.3, 0.4], [0.0, 0.5]],  # norms 0.5 and 0.5
    )
    assert total_variation(space, rec) == pytest.approx(1.0, abs=1e-15)


def test_variational_gap_single_step_value():
    # X = e1, dL = -0.1 e1, phi = 0: (phi - X, dL) = 0.1
    space = flat_space(2)
    rec = fake_record([[1.0, 0.0], [0.9, 0.0]], [[-0.1, 0.0]])
    assert variational_gap(space, rec, np.zeros((2, 2))) == pytest.approx(0.1, abs=1e-15)


def test_variational_gap_input_checks():
    space = flat_space(2)
    rec = fake_record([[1.0, 0.0], [0.9, 0.0]], [[-0.1, 0.0]])
    with pytest.raises(ConfigurationError):
        variational_gap(space, rec, np.zeros((3, 2)))  # wrong time grid
    bad = np.zeros((2, 2))
    bad[0, 0] = 2.0  # leaves the ball
    with pytest.raises(ConfigurationError):
        variational_gap(space, rec, bad)


def test_boundary_leak_frozen_values():
    space = flat_space(2)
    # all mass while sitting at the origin: psi_0.1(0) = 0.81
    rec = fake_record([[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]])
    assert boundary_leak(space, rec, 0.1) == pytest.approx(0.81, abs=1e-15)
    # mass on the sphere is invisible to the bump
    rec_sphere = fake_record([[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]])
    assert boundary_leak(space, rec_sphere, 0.1) == 0.0
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ConfigurationError):
            boundary_leak(space, rec, bad)


# --------------------------------------------------------------------------
# test-path families


def test_make_test_paths_structure():
    space = flat_space(5)
    times = np.linspace(0.0, 1.0, 11)
    paths = make_test_paths(space, seed=3, count=12, times=times)
    assert len(paths) == 12
    assert np.array_equal(paths[0], np.zeros((11, 5)))
    # boundary constants on the first and last coordinate
    assert np.allclose(paths[1][:, 0], 1.0) and np.allclose(paths[1][:, 1:], 0.0)
    assert np.allclose(paths[2][:, 4], 1.0) and np.allclose(paths[2][:, :4], 0.0)
    for phi in paths:
        assert phi.shape == (11, 5)
        assert np.max(norm_h(space, phi)) <= 1.0 + 1e-12
    again = make_test_paths(space, seed=3, count=12, times=times)
    for a, b in zip(paths, again):
        assert np.array_equal(a, b)
    assert not np.array_equal(paths[5], make_test_paths(space, 4, 12, times)[5])
    with pytest.raises(ConfigurationError):
        make_test_paths(space, 0, 0, times)


def test_make_test_paths_weighted_boundary_constant():
    space = SpaceSpec("w", 1, 3, np.array([4.0, 1.0, 1.0]), np.ones(3), 2.0)
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
    gap = variational_gap(space, rec, shadow)
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
    worst = min(variational_gap(space, rec, phi) for phi in tests)
    assert worst >= 0.0


def test_summarize_mass_sits_outside_unit_radius():
    bundle, cfg, rec = strong_ac_path()
    space = bundle.space
    summary = summarize(space, rec, bins=24, radius_range=(0.0, 1.2))
    hist, edges = summary.support_profile
    assert summary.total_variation == pytest.approx(total_variation(space, rec))
    assert summary.masses.shape == (cfg.steps,)
    assert hist.sum() > 0.0
    # explicit increments are only written where |X| > 1
    below = edges[1:] <= 1.0
    assert hist[below].sum() == 0.0
    assert hist.sum() <= summary.total_variation + 1e-12


def test_outward_oracle_total_variation_matches_ode_budget():
    # kappa = 1, x0 = 0.5, sigma = 0: the free flow reaches the wall at
    # t = ln 2 and then pushes at rate ~kappa; TV over [0, 2] ~ 2 - ln 2
    bundle = make_oracle_1d(kappa=1.0, sigma=0.0)
    cfg = SchemeConfig(dt=1e-3, steps=2000, n=1000.0, method="explicit")
    rec = simulate_path(bundle.model, cfg, np.array([0.5]))
    tv = total_variation(bundle.space, rec)
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
