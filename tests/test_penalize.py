"""Penalized steppers: frozen one-step values, coupling, guards."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reflectspde import penalize
from reflectspde.errors import BlowUpError, ConfigurationError
from reflectspde.hilbert import inner_h, norm_h, norm_v, penalty_gap, v_energy
from reflectspde.models import NoiseSpec, make_allen_cahn, make_oracle_1d
from reflectspde.penalize import (
    SchemeConfig,
    _penalized_stack,
    brownian_increments,
    one_step_move,
    simulate_path,
    step_penalized,
)


def silent_oracle():
    """kappa = 0, sigma = 0: drift and noise both vanish."""
    return make_oracle_1d(kappa=0.0, sigma=0.0)


# --------------------------------------------------------------------------
# Brownian increments


def test_brownian_increments_deterministic():
    a = brownian_increments(42, 3, 5, 20, 0.01)
    b = brownian_increments(42, 3, 5, 20, 0.01)
    assert a.shape == (20, 5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, brownian_increments(42, 4, 5, 20, 0.01))
    assert not np.array_equal(a, brownian_increments(43, 3, 5, 20, 0.01))


def test_brownian_increments_sqrt_dt_scaling():
    # same standard draws underneath, so quadrupling dt doubles every entry
    a = brownian_increments(7, 0, 3, 10, 0.01)
    b = brownian_increments(7, 0, 3, 10, 0.04)
    assert np.array_equal(b, 2.0 * a)


def test_brownian_increments_validation():
    with pytest.raises(ConfigurationError):
        brownian_increments(0, 0, 0, 10, 0.01)
    with pytest.raises(ConfigurationError):
        brownian_increments(0, 0, 3, 0, 0.01)


@pytest.mark.parametrize(
    "seed, path_index, mode_count, steps",
    [
        (0, True, 3, 10),
        (0, 1.5, 3, 10),
        (0, -1, 3, 10),
        (0, 0, 3.0, 10),
        (0, 0, 3, 3.0),
        (0, 0, 3, True),
        (1.5, 0, 3, 10),
    ],
)
def test_brownian_increments_counts_are_whole_numbers(seed, path_index, mode_count, steps):
    # a float or a bool is rejected, not rounded or read as path 1
    with pytest.raises(ConfigurationError):
        brownian_increments(seed, path_index, mode_count, steps, 0.01)


STREAM_MODELS = {"oracle": make_oracle_1d(), "allen_cahn": make_allen_cahn(modes=8, noise_modes=3)}


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(sorted(STREAM_MODELS)),
    steps=st.sampled_from([1, 127, 128, 129, 300, 342, 1025]),
    start=st.integers(0, 40),
    count=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
@example(name="oracle", steps=1025, start=3, count=2, seed=7)
def test_kernel_noise_is_the_paths_increments(name, steps, start, count, seed):
    # the kernel reads its noise in chunks of 1024 values, path by path, from
    # the keyed streams that brownian_increments reads whole: 1024 steps of
    # the oracle's one mode, 341 of the Allen-Cahn stack's three
    bundle = STREAM_MODELS[name]
    seen, step = [], penalize.step_penalized

    def recording(state, t, cfg, model, dW, *args):
        seen.append(np.array(dW))
        return step(state, t, cfg, model, dW, *args)

    cfg = SchemeConfig(dt=1e-3, steps=steps, n=4.0, seed=seed)
    paths = range(start, start + count)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(penalize, "step_penalized", recording)
        for _ in _penalized_stack(bundle.model, cfg, [4.0, 16.0], bundle.x0, paths):
            pass
    k = bundle.noise.mode_count
    want = [brownian_increments(seed, i, k, steps, cfg.dt) for i in paths]
    assert np.array_equal(np.array(seen), np.stack(want, axis=1))


@pytest.mark.parametrize("seed", [0, 1, 11, 2**32 - 1, 2**32, 2**64 + 5])
@pytest.mark.parametrize("paths", [range(0, 3), range(2**32 - 1, 2**32 + 1)])
@pytest.mark.parametrize("mode_count, steps", [(1, 1030), (8, 130)], ids=["1-mode", "8-modes"])
def test_every_path_draws_from_numpys_seed_sequence(seed, paths, mode_count, steps):
    # the seeding rule: path i draws from Generator(Philox(SeedSequence((seed,
    # i)))), bit for bit, in the kernel's chunked stream (the step counts cross
    # a chunk) and in the one-path reference
    dt = 0.01
    want = [
        np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, i)))).standard_normal(
            (steps, mode_count)
        )
        * np.sqrt(dt)
        for i in paths
    ]
    stream = penalize._brownian_stream(seed, paths, mode_count, steps, dt)
    drawn = np.array([dW.copy() for dW in stream])
    assert drawn.shape == (steps, len(paths), mode_count)
    assert np.array_equal(drawn, np.stack(want, axis=1))
    for i, path in zip(paths, want):
        assert np.array_equal(brownian_increments(seed, i, mode_count, steps, dt), path)


# --------------------------------------------------------------------------
# scheme config


def test_explicit_requires_small_n_dt():
    with pytest.raises(ConfigurationError):
        SchemeConfig(dt=0.1, steps=10, n=11.0, method="explicit")
    cfg = SchemeConfig(dt=0.1, steps=10, n=1000.0, method="splitting")
    assert cfg.with_n(4.0).n == 4.0


def test_scheme_config_validation():
    with pytest.raises(ConfigurationError):
        SchemeConfig(dt=0.0, steps=10, n=1.0)
    with pytest.raises(ConfigurationError):
        SchemeConfig(dt=0.1, steps=0, n=1.0)
    with pytest.raises(ConfigurationError):
        SchemeConfig(dt=0.1, steps=10, n=-1.0)
    with pytest.raises(ConfigurationError):
        SchemeConfig(dt=0.1, steps=10, n=1.0, method="implicit")
    with pytest.raises(ConfigurationError):
        SchemeConfig(dt=0.1, steps=10, n=1.0, seed=-1)
    # counts are whole numbers: a float or a bool is rejected, not rounded
    for steps in (10.0, 2.5, True, np.float64(10)):
        with pytest.raises(ConfigurationError, match="steps must be a whole number"):
            SchemeConfig(dt=0.1, steps=steps, n=1.0)
    for seed in (1.7, 1.0, True, False, np.float64(1)):
        with pytest.raises(ConfigurationError, match="seed must be a whole number"):
            SchemeConfig(dt=0.1, steps=10, n=1.0, seed=seed)
    cfg = SchemeConfig(dt=0.1, steps=np.int64(10), n=1.0, seed=np.uint32(3))
    assert (cfg.steps, cfg.seed) == (10, 3)


@pytest.mark.parametrize(
    "n",
    [[1.0], [1.0, 4.0], np.array([1.0, 4.0]), np.array([[1.0], [4.0]])],
    ids=["one-item list", "list", "array", "column"],
)
def test_scheme_config_holds_one_level(n):
    with pytest.raises(ConfigurationError, match="one number"):
        SchemeConfig(dt=0.1, steps=10, n=n)
    with pytest.raises(ConfigurationError, match="one number"):
        SchemeConfig(dt=0.1, steps=10, n=1.0).with_n(n)
    assert SchemeConfig(dt=0.1, steps=10, n=np.float64(4.0)).n == 4.0


# --------------------------------------------------------------------------
# frozen one-step values (drift and noise switched off)


def test_explicit_step_pulls_back_radially():
    # state 2, n dt = 0.5: gap = 1, dL = -0.5, new state 1.5
    bundle = silent_oracle()
    cfg = SchemeConfig(dt=0.5, steps=1, n=1.0, method="explicit")
    new, dL = step_penalized(np.array([2.0]), 0.0, cfg, bundle.model, np.zeros(1))
    assert new == pytest.approx([1.5], abs=1e-15)
    assert dL == pytest.approx([-0.5], abs=1e-15)


def test_splitting_step_exact_radial_flow():
    # x-tilde 2, n dt = ln 2: excess decays to 0.5, new state 1.5
    bundle = silent_oracle()
    cfg = SchemeConfig(dt=np.log(2.0), steps=1, n=1.0, method="splitting")
    new, dL = step_penalized(np.array([2.0]), 0.0, cfg, bundle.model, np.zeros(1))
    assert new == pytest.approx([1.5], abs=1e-12)
    assert dL == pytest.approx([-0.5], abs=1e-12)


@pytest.mark.parametrize("method", ["explicit", "splitting"])
def test_projection_step_clamps_x_tilde(method):
    # x-tilde = 1.5 x: the clamp reads x-tilde, not the pre-step state
    bundle = make_oracle_1d(kappa=1.0, sigma=0.0)
    cfg = SchemeConfig(dt=0.5, steps=1, n=np.inf, method=method)
    state = np.array([[0.9], [0.4], [-2.0]])
    new, dL = step_penalized(state, 0.0, cfg, bundle.model, np.zeros(1))
    assert new[:, 0] == pytest.approx([1.0, 0.6, -1.0], abs=1e-15)
    assert dL[:, 0] == pytest.approx([-0.35, 0.0, 2.0], abs=1e-15)


def test_step_inside_ball_is_untouched():
    bundle = silent_oracle()
    for method in ("explicit", "splitting"):
        cfg = SchemeConfig(dt=0.25, steps=1, n=1.0, method=method)
        new, dL = step_penalized(np.array([0.7]), 0.0, cfg, bundle.model, np.zeros(1))
        assert np.array_equal(new, [0.7])
        assert np.array_equal(dL, [0.0])


def test_one_step_move_euler_and_lawson():
    # plain Euler for the linear oracle
    bundle = make_oracle_1d(kappa=0.5, sigma=0.0)
    out = one_step_move(bundle.model, 0.0, 0.1, np.array([1.0]), np.zeros(1))
    assert out == pytest.approx([1.05], abs=1e-15)

    # integrating factor for the stiff Laplacian part of Allen-Cahn
    ac = make_allen_cahn(modes=8)
    u = np.zeros(8)
    u[0] = 2.0  # constant state: nonstiff = u - u^3 slotwise on the mean
    dt = 0.01
    moved = one_step_move(ac.model, 0.0, dt, u, np.zeros(8))
    expected = np.zeros(8)
    expected[0] = 2.0 + dt * (2.0 - 8.0)  # symbol is 0 on the constant slot
    assert np.max(np.abs(moved - expected)) < 1e-14
    # oscillating slot: exp(-k^2 dt) damping applied to the whole move
    v = np.zeros(8)
    v[3] = 0.5  # cos-2 slot, symbol -4
    moved_v = one_step_move(ac.model, 0.0, dt, v, np.zeros(8))
    manual = np.exp(-4.0 * dt) * (v + dt * ac.model.nonstiff_drift(0.0, v))
    assert np.max(np.abs(moved_v - manual)) < 1e-14


def test_noise_enters_after_drift_move():
    bundle = make_oracle_1d(kappa=0.0, sigma=2.0)
    out = one_step_move(bundle.model, 0.0, 0.1, np.array([0.3]), np.array([0.25]))
    assert out == pytest.approx([0.3 + 2.0 * 0.25], abs=1e-15)


# --------------------------------------------------------------------------
# whole paths


def test_constant_path_without_forcing():
    bundle = silent_oracle()
    cfg = SchemeConfig(dt=0.1, steps=10, n=4.0, method="splitting")
    rec = simulate_path(bundle.model, cfg, np.array([0.5]))
    assert np.all(rec.states == 0.5)
    assert np.all(rec.l_increments == 0.0)
    r = norm_h(bundle.space, rec.states)
    excess = np.maximum(r - 1.0, 0.0)
    assert cfg.dt * np.sum(excess[:-1]) == 0.0  # int |X - pi(X)|_H dt
    assert np.max(r) == 0.5
    assert np.max(excess) == 0.0
    # left-endpoint V energy: dt * steps * |0.5|^2
    energy = v_energy(bundle.space, rec.states[:-1], bundle.model.alpha)
    assert cfg.dt * np.sum(energy) == pytest.approx(0.25, abs=1e-15)
    assert rec.times[-1] == pytest.approx(1.0)


def test_simulate_path_reproducible_bitwise():
    bundle = make_allen_cahn(modes=8)
    cfg = SchemeConfig(dt=0.01, steps=50, n=16.0, seed=5)
    a = simulate_path(bundle.model, cfg, bundle.x0, path_index=2)
    b = simulate_path(bundle.model, cfg, bundle.x0, path_index=2)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.l_increments, b.l_increments)
    c = simulate_path(bundle.model, cfg, bundle.x0, path_index=3)
    assert not np.array_equal(a.states, c.states)


@pytest.mark.parametrize("path_index", [True, 1.5, np.float64(1.0), -1])
def test_simulate_path_index_is_a_whole_number(path_index):
    # True used to run as path 1, and 1.5 died with a raw TypeError
    bundle = make_allen_cahn(modes=8)
    cfg = SchemeConfig(dt=0.01, steps=5, n=16.0)
    with pytest.raises(ConfigurationError, match="path_index"):
        simulate_path(bundle.model, cfg, bundle.x0, path_index=path_index)


def test_common_random_numbers_coupling():
    # the same (seed, path_index) replays identical increments at every n
    bundle = make_allen_cahn(modes=8)
    cfg = SchemeConfig(dt=0.01, steps=30, n=1.0, seed=9)
    a = simulate_path(bundle.model, cfg, bundle.x0)
    b = simulate_path(bundle.model, cfg.with_n(64.0), bundle.x0)
    # coupled paths agree at t=0 and then separate
    assert np.array_equal(a.states[0], b.states[0])
    assert not np.array_equal(a.states[-1], b.states[-1])


def test_penalty_accumulators_match_states():
    bundle = make_allen_cahn(modes=8, mu=1.2)  # strong noise to force exits
    cfg = SchemeConfig(dt=0.01, steps=100, n=4.0, seed=1)
    rec = simulate_path(bundle.model, cfg, bundle.x0)
    space, left = bundle.space, rec.states[:-1]

    r = norm_h(space, left)
    e = np.maximum(r - 1.0, 0.0)
    assert np.max(e) > 0.0  # the forcing actually pushed outside
    # explicit scheme: dL_j = -n dt (X_j - pi(X_j)) exactly, a radial vector
    # of H norm n dt (r_j - 1)^+, so each left-endpoint penalty integral is a
    # sum over the recorded increments
    gaps = penalty_gap(space, left)[0]
    assert np.max(np.abs(rec.l_increments + 4.0 * 0.01 * gaps)) < 1e-15
    dl = norm_h(space, rec.l_increments)
    assert 0.01 * np.sum(e) == pytest.approx(np.sum(dl) / 4.0, rel=1e-12)
    assert 0.01 * np.sum(e**2) == pytest.approx(np.sum(dl**2) / (4.0 * 4.0 * 0.01), rel=1e-12)
    # r^3 (r-1)^+ = r^2 (X, X - pi(X))_H = -r^2 (X, dL)_H / (n dt)
    pairing = inner_h(space, left, rec.l_increments)
    assert 0.01 * np.sum(r**3 * e) == pytest.approx(-np.sum(r**2 * pairing) / 4.0, rel=1e-12)
    assert 0.01 * np.sum(v_energy(space, left, bundle.model.alpha)) == pytest.approx(
        0.01 * np.sum(norm_v(space, left) ** 2), rel=1e-12
    )


def test_simulate_path_guards():
    bundle = silent_oracle()
    cfg = SchemeConfig(dt=0.1, steps=5, n=1.0)
    with pytest.raises(ConfigurationError):
        simulate_path(bundle.model, cfg, np.array([1.5]))  # outside the ball
    with pytest.raises(ConfigurationError):
        simulate_path(bundle.model, cfg, np.array([[0.5]]))  # not a single state


def test_blow_up_detection():
    bundle = make_oracle_1d(kappa=1e6, sigma=0.0)
    cfg = SchemeConfig(dt=1.0, steps=3, n=1.0, method="explicit")
    with pytest.raises(BlowUpError):
        simulate_path(bundle.model, cfg, np.array([1.0]))


def test_splitting_never_overshoots():
    # splitting contracts the radius monotonically toward the ball
    bundle = make_oracle_1d(kappa=3.0, sigma=0.8)
    cfg = SchemeConfig(dt=0.01, steps=200, n=1e6, method="splitting", seed=3)
    rec = simulate_path(bundle.model, cfg, np.array([0.9]))
    assert np.max(norm_h(bundle.space, rec.states)) <= 1.0 + 1e-6

    noise = NoiseSpec(q=np.ones(1), mu=0.8, lam=0.0)
    rec2 = simulate_path(dataclasses.replace(bundle.model, noise=noise), cfg, np.array([0.9]))
    assert np.max(norm_h(bundle.space, rec2.states)) <= 1.0 + 1e-6
