"""Invariants of the (levels, paths, coeffs) stepping kernel, on generated inputs."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectspde import penalize
from reflectspde.errors import ConfigurationError
from reflectspde.hilbert import norm_h, norm_v
from reflectspde.localtime import inequality_study
from reflectspde.models import decay_profile_x0, make_allen_cahn, make_oracle_1d
from reflectspde.montecarlo import cauchy_study, oracle_compare_1d, run_estimates
from reflectspde.penalize import (
    SchemeConfig,
    _brownian_block,
    _penalized_stack,
    _trajectory,
    brownian_increments,
    one_step_move,
    simulate_path,
    step_penalized,
)

SETTINGS = settings(max_examples=20, deadline=None)

MODELS = {
    "oracle": make_oracle_1d(kappa=1.5, sigma=0.6),
    "allen_cahn": make_allen_cahn(modes=8, mu=1.2),
}


def clamp_reference(kappa, sigma, x0, dW, dt):
    """Projected Euler for dX = kappa X dt + sigma dW in [-1, 1]."""
    x = np.empty(dW.shape[0] + 1)
    x[0] = x0
    for j, dw in enumerate(dW):
        x[j + 1] = np.clip(x[j] + dt * kappa * x[j] + sigma * dw, -1.0, 1.0)
    return x


@SETTINGS
@given(
    name=st.sampled_from(sorted(MODELS)),
    method=st.sampled_from(["explicit", "splitting"]),
    levels=st.lists(st.sampled_from([0.0, 1.0, 4.0, 16.0, 50.0]), min_size=1, max_size=3),
    paths=st.integers(1, 3),
    steps=st.integers(1, 25),
    seed=st.integers(0, 2**16),
)
def test_stack_rows_equal_single_paths(name, method, levels, paths, steps, seed):
    bundle = MODELS[name]
    cfg = SchemeConfig(dt=0.02, steps=steps, n=levels[0], method=method, seed=seed)
    dW = _brownian_block(seed, paths, bundle.noise.mode_count, steps, cfg.dt)
    kernel = _penalized_stack(bundle.model, cfg, levels, bundle.x0, dW)
    stack = [x[put] for x, _, _, _, put in kernel]
    space = bundle.space
    for li, n in enumerate(levels):
        for i in range(paths):
            rec = simulate_path(bundle.model, cfg.with_n(n), bundle.x0, path_index=i)
            for j, x in enumerate(stack):
                ref = rec.states[j + 1]
                assert norm_h(space, x[li, i] - ref) <= 1e-12 * max(1.0, norm_h(space, ref))


@SETTINGS
@given(
    radius=st.floats(0.0, 5.0),
    n=st.one_of(st.floats(0.0, 1e4), st.just(np.inf)),
    dt=st.floats(1e-4, 0.5),
    seed=st.integers(0, 2**16),
)
def test_splitting_step_never_overshoots(radius, n, dt, seed):
    bundle = MODELS["allen_cahn"]
    space = bundle.space
    rng = np.random.default_rng(seed)
    state = rng.standard_normal((4, space.n_coeffs))
    state *= radius / norm_h(space, state)[:, None]
    dW = np.sqrt(dt) * rng.standard_normal((4, bundle.noise.mode_count))
    cfg = SchemeConfig(dt=dt, steps=1, n=n, method="splitting")
    x_tilde = one_step_move(bundle.model, 0.0, dt, state, dW)
    new, dL = step_penalized(state, 0.0, cfg, bundle.model, dW)
    r_tilde, r_new = norm_h(space, x_tilde), norm_h(space, new)
    bound = np.where(r_tilde > 1.0, 1.0 + (r_tilde - 1.0) * np.exp(-n * dt), r_tilde)
    assert np.all(r_new <= bound * (1.0 + 1e-12))
    if n == np.inf:
        assert np.all(r_new <= 1.0 + 1e-12)
    assert np.allclose(new, x_tilde + dL, rtol=0.0, atol=1e-12 * max(1.0, np.max(r_tilde)))


@SETTINGS
@given(
    kappa=st.floats(-2.0, 4.0),
    sigma=st.floats(0.0, 1.5),
    steps=st.integers(1, 200),
    seed=st.integers(0, 2**16),
)
def test_projection_level_is_the_clamp_scheme(kappa, sigma, steps, seed):
    bundle = make_oracle_1d(kappa=kappa, sigma=sigma)
    cfg = SchemeConfig(dt=0.01, steps=steps, n=np.inf, method="splitting", seed=seed)
    rec = simulate_path(bundle.model, cfg, bundle.x0)
    dW = brownian_increments(seed, 0, 1, steps, cfg.dt)[:, 0]
    ref = clamp_reference(kappa, sigma, bundle.x0[0], dW, cfg.dt)
    assert np.max(np.abs(rec.states[:, 0] - ref)) <= 1e-12
    free = ref[:-1] + cfg.dt * kappa * ref[:-1] + sigma * dW
    assert np.max(np.abs(np.abs(rec.l_increments[:, 0]) - np.abs(free - ref[1:]))) <= 1e-12


# the oracle with a drift that hands back its own argument: a step that
# wrote into the drift's output would write into the state
ECHO = dataclasses.replace(MODELS["oracle"].model, drift=lambda t, u: u)


@SETTINGS
@given(
    name=st.sampled_from(sorted(MODELS) + ["echo"]),
    method=st.sampled_from(["explicit", "splitting"]),
    levels=st.lists(st.sampled_from([0.0, 1.0, 16.0, 50.0]), min_size=1, max_size=3),
    radius=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**16),
)
def test_step_reads_the_given_radius_and_writes_no_input(name, method, levels, radius, seed):
    model = ECHO if name == "echo" else MODELS[name].model
    space = model.space
    rng = np.random.default_rng(seed)
    state = rng.standard_normal((3, space.n_coeffs))
    state *= radius / norm_h(space, state)[:, None]
    dW = np.sqrt(0.02) * rng.standard_normal((3, model.noise.mode_count))
    inputs = state.copy(), dW.copy()
    for n in levels:
        cfg = SchemeConfig(dt=0.02, steps=1, n=n, method=method)
        new, dL = step_penalized(state, 0.0, cfg, model, dW)
        new_r, dL_r = step_penalized(state, 0.0, cfg, model, dW, r=norm_h(space, state))
        assert np.array_equal(new_r, new) and np.array_equal(dL_r, dL)
        assert np.array_equal(state, inputs[0]) and np.array_equal(dW, inputs[1])


# --------------------------------------------------------------------------
# a path's level rows coincide until its first nonzero penalty increment


def row_counting(model):
    """The model with a nonstiff drift that records the rows of each call."""
    seen = []

    def drift(t, u):
        seen.append(int(np.prod(np.shape(u)[:-1])))
        return model.nonstiff_drift(t, u)

    return dataclasses.replace(model, nonstiff_drift=drift), seen


@pytest.mark.parametrize("method", ["explicit", "splitting"])
def test_paths_inside_the_ball_are_moved_once(method):
    bundle = make_allen_cahn(modes=8, mu=0.1, lam=0.05, x0_radius=0.5)
    model, seen = row_counting(bundle.model)
    cfg = SchemeConfig(dt=0.01, steps=30, n=0.0, method=method)
    levels, kick = [1.0, 4.0, 16.0], 10
    dW = _brownian_block(3, 4, bundle.noise.mode_count, cfg.steps, cfg.dt)
    radii = [r for _, _, r, _, _ in _penalized_stack(model, cfg, levels, bundle.x0, dW)]
    assert max(np.max(r) for r in radii) < 1.0
    assert seen == [4] * cfg.steps
    # a kick takes path 2 out of the ball: from the step after its first
    # nonzero dL its three level rows are moved apart, and only its rows
    dW[2, kick, 0] = 20.0
    seen.clear()
    kernel = _penalized_stack(model, cfg, levels, bundle.x0, dW)
    penalized = np.array([(dl[put] != 0).any(axis=(0, 2)) for _, dl, _, _, put in kernel])
    first = int(np.argmax(penalized[:, 2]))
    assert penalized[:, 2].any() and not penalized[:, [0, 1, 3]].any()
    assert first == kick + (method == "explicit")  # explicit penalizes the pre-step state
    assert seen == [4] * (first + 1) + [4 + len(levels) - 1] * (cfg.steps - first - 1)


INSIDE = {  # bundles whose paths stay inside the ball for 30 steps of 0.01
    "allen_cahn": make_allen_cahn(modes=8, mu=0.1, lam=0.05, x0_radius=0.5),
    "oracle": make_oracle_1d(kappa=-1.0, sigma=0.1),
}


@pytest.mark.parametrize(
    "name, method",
    [(name, method) for name in INSIDE for method in ("explicit", "splitting")],
    ids=["explicit", "splitting", "oracle-explicit", "oracle-splitting"],
)
def test_penalty_and_divergence_norm_see_one_row_per_merged_path(method, name, monkeypatch):
    seen = {"norm_h": [], "penalty_gap": []}

    def counting(attr):
        fn = getattr(penalize, attr)

        def counted(space, x, *args):
            seen[attr].append(int(np.prod(np.shape(x)[:-1])))
            return fn(space, x, *args)

        return counted

    for attr in seen:
        monkeypatch.setattr(penalize, attr, counting(attr))
    bundle = INSIDE[name]
    cfg = SchemeConfig(dt=0.01, steps=30, n=0.0, method=method)
    dW = _brownian_block(3, 4, bundle.noise.mode_count, cfg.steps, cfg.dt)
    kernel = _penalized_stack(bundle.model, cfg, [1.0, 4.0, 16.0], bundle.x0, dW)
    out = [(len(dl), np.max(r)) for _, dl, r, _, _ in kernel]
    assert max(r for _, r in out) < 1.0  # 3 levels x 4 paths inside the ball
    assert [rows for rows, _ in out] == [4] * cfg.steps
    # x0's check, then the divergence norm (and under splitting |x-tilde|_H)
    norms_per_step = 1 if method == "explicit" else 2
    assert seen["norm_h"] == [1] + [4] * norms_per_step * cfg.steps
    assert seen["penalty_gap"] == ([4] * cfg.steps if method == "explicit" else [])


@SETTINGS
@given(
    method=st.sampled_from(["explicit", "splitting"]),
    levels=st.lists(st.sampled_from([0.0, 1.0, 16.0, 50.0]), min_size=1, max_size=3),
    projection=st.booleans(),
    paths=st.integers(1, 3),
    steps=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
def test_level_rows_coincide_until_the_first_penalty(method, levels, projection, paths, steps, seed):
    bundle = MODELS["allen_cahn"]
    levels = [0.0] + levels + ([np.inf] if projection and method == "splitting" else [])
    cfg = SchemeConfig(dt=0.02, steps=steps, n=0.0, method=method, seed=seed)
    dW = _brownian_block(seed, paths, bundle.noise.mode_count, steps, cfg.dt)
    penalized = np.zeros(paths, dtype=bool)
    for x, dL, _, _, put in _penalized_stack(bundle.model, cfg, levels, bundle.x0, dW):
        x, dL = x[put], dL[put]
        penalized |= (dL != 0).any(axis=(0, 2))
        assert np.all((x == x[0]).all(axis=(0, 2)) | penalized)


@SETTINGS
@given(
    method=st.sampled_from(["explicit", "splitting"]),
    levels=st.lists(st.sampled_from([1.0, 16.0, 50.0]), min_size=0, max_size=3),
    projection=st.booleans(),
    paths=st.integers(2, 4),
    steps=st.integers(1, 30),
    seed=st.integers(0, 2**16),
)
def test_run_estimates_is_a_reduction_over_the_trajectory(
    method, levels, projection, paths, steps, seed
):
    bundle = MODELS["allen_cahn"]
    model, space = bundle.model, bundle.space
    levels = [0.0] + levels + ([np.inf] if projection and method == "splitting" else [])
    cfg = SchemeConfig(dt=0.02, steps=steps, n=0.0, method=method, seed=seed)
    estimates, cauchy = run_estimates(model, cfg, levels, paths, x0=bundle.x0)
    dW = _brownian_block(seed, paths, model.noise.mode_count, steps, cfg.dt)
    states, _, radii, alive = _trajectory(model, cfg, levels, bundle.x0, dW)
    assert alive.all()
    excess = np.maximum(radii - 1.0, 0.0)
    energy = norm_v(space, states) ** model.alpha
    n = np.array(levels)[:, None]
    n_scale = np.where(np.isfinite(n), n, np.nan)
    want = {
        "est_sup4": np.max(radii, axis=0) ** 4,
        "est_weighted_pen": n_scale * cfg.dt * np.sum(radii[:-1] ** 3 * excess[:-1], axis=0),
        "est_var2": (n_scale * cfg.dt * np.sum(excess[:-1], axis=0)) ** 2,
        "est_pen_l2": n_scale * cfg.dt * np.sum(excess[:-1] ** 2, axis=0),
        "est_v_energy": cfg.dt * np.sum(energy[:-1], axis=0),
        "est_pen_sup4": np.max(excess, axis=0) ** 4,
    }
    for column, values in want.items():
        np.testing.assert_allclose(estimates.column(column), values.mean(axis=1), rtol=1e-12)
    if len(levels) > 1:
        gaps = np.max(norm_h(space, states[:, :-1] - states[:, 1:]) ** 2, axis=0)
        np.testing.assert_allclose(cauchy.column("est_supdiff2"), gaps.mean(axis=1), rtol=1e-12)


def test_projection_level_needs_splitting():
    with pytest.raises(ConfigurationError, match="splitting"):
        SchemeConfig(dt=0.01, steps=10, n=np.inf, method="explicit")
    assert SchemeConfig(dt=0.01, steps=10, n=np.inf, method="splitting").n == np.inf
    with pytest.raises(ConfigurationError):
        SchemeConfig(dt=0.01, steps=10, n=np.nan, method="splitting")


def test_dead_rows_are_pinned_per_level():
    # the outward oracle diverges at the weak level only; the strong level,
    # on the same noise, keeps its row alive
    bundle = make_oracle_1d(kappa=1e3, sigma=0.0)
    cfg = SchemeConfig(dt=1.0, steps=4, n=0.0, method="splitting")
    dW = np.zeros((2, 4, 1))
    *_, (x, dL, r, alive, put) = _penalized_stack(bundle.model, cfg, [0.0, 1e3], bundle.x0, dW)
    assert alive[put].tolist() == [[False, False], [True, True]]
    assert np.all(x[put[0]] == 0.0) and np.all(dL[put[0]] == 0.0)
    assert np.all(np.isfinite(r[put[1]]))


# --------------------------------------------------------------------------
# input checks: every stepping study goes through the kernel's one door

TINY = make_allen_cahn(modes=8, noise_modes=4)
TINY_CFG = SchemeConfig(dt=0.01, steps=3, n=1.0, seed=2)


def tiny_block(paths=2, steps=3, k=4):
    return _brownian_block(2, paths, k, steps, TINY_CFG.dt)


# each stepping study as a call on (x0, level grid)
STUDIES = {
    "run_estimates": lambda x0, grid: run_estimates(TINY.model, TINY_CFG, grid, 2, x0=x0),
    "cauchy_study": lambda x0, grid: cauchy_study(TINY.model, TINY_CFG, grid, 2, x0=x0),
    "inequality_study": lambda x0, grid: inequality_study(
        TINY.model, TINY_CFG, x0, grid, paths=1, test_count=2
    ),
    "oracle_compare_1d": lambda x0, grid: oracle_compare_1d(0.5, 0.5, TINY_CFG, grid, 2),
    "_penalized_stack": lambda x0, grid: list(
        _penalized_stack(TINY.model, TINY_CFG, grid, x0, tiny_block())
    ),
}
# the ones that take an initial state, and simulate_path, which takes one level
STEPPERS = {
    name: functools.partial(study, grid=[1.0, 4.0])
    for name, study in STUDIES.items()
    if name != "oracle_compare_1d"
}
STEPPERS["simulate_path"] = lambda x0: simulate_path(TINY.model, TINY_CFG, x0)


@settings(max_examples=40, deadline=None)
@given(
    study=st.sampled_from(sorted(STEPPERS)),
    delta=st.floats(1e-11, 0.5),
    outside=st.booleans(),
)
def test_initial_radius_is_checked_against_the_closed_ball(study, delta, outside):
    x0 = decay_profile_x0(TINY.space, 1.0) * (1.0 + delta if outside else 1.0 - delta)
    if outside:
        with pytest.raises(ConfigurationError, match="closed unit ball"):
            STEPPERS[study](x0)
    else:
        STEPPERS[study](x0)


@pytest.mark.parametrize("study", sorted(STEPPERS))
def test_initial_state_on_the_sphere_is_accepted(study):
    for factor in (1.0, 1.0 + 5e-13):  # within the 1e-12 tolerance
        STEPPERS[study](factor * decay_profile_x0(TINY.space, 1.0))


@pytest.mark.parametrize("study", sorted(STEPPERS))
def test_initial_state_must_be_one_finite_vector(study):
    x0 = TINY.x0
    for bad in (x0[None], x0[:-1], np.full_like(x0, np.nan)):
        with pytest.raises(ConfigurationError):
            STEPPERS[study](bad)


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_empty_level_grid_is_rejected(study):
    with pytest.raises(ConfigurationError):
        STUDIES[study](TINY.x0, [])


@pytest.mark.parametrize(
    "dW",
    [np.empty((0, 3, 4)), tiny_block(steps=2), tiny_block(k=3), tiny_block()[0]],
    ids=["no paths", "short", "wrong modes", "not a block"],
)
def test_noise_block_of_the_wrong_shape_is_rejected(dW):
    with pytest.raises(ConfigurationError, match="dW"):
        _penalized_stack(TINY.model, TINY_CFG, [1.0], TINY.x0, dW)


@pytest.mark.parametrize("paths", [0, -1])
def test_noise_block_needs_a_path(paths):
    with pytest.raises(ConfigurationError, match="paths"):
        tiny_block(paths=paths)
    with pytest.raises(ConfigurationError, match="paths"):
        inequality_study(TINY.model, TINY_CFG, TINY.x0, [1.0], paths=paths, test_count=2)
