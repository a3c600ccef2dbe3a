"""Invariants of the (levels, paths, coeffs) stepping kernel, on generated inputs."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectspde import hilbert, penalize
from reflectspde.errors import ConfigurationError
from reflectspde.hilbert import _clamp, norm_h, norm_v, project_ball
from reflectspde.localtime import inequality_study
from reflectspde.models import decay_profile_x0, make_allen_cahn, make_oracle_1d
from reflectspde.montecarlo import cauchy_study, oracle_compare_1d, run_estimates
from reflectspde.penalize import (
    SchemeConfig,
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
    kernel = _penalized_stack(bundle.model, cfg, levels, bundle.x0, range(paths))
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
    n=st.sampled_from([0.0, 1.0, 16.0, 100.0]),
    steps=st.integers(1, 200),
    seed=st.integers(0, 2**16),
)
def test_projection_level_is_the_clamp_scheme(kappa, sigma, n, steps, seed):
    bundle = make_oracle_1d(kappa=kappa, sigma=sigma)
    cfg = SchemeConfig(dt=0.01, steps=steps, n=np.inf, method="splitting", seed=seed)
    rec = simulate_path(bundle.model, cfg, bundle.x0)
    dW = brownian_increments(seed, 0, 1, steps, cfg.dt)[:, 0]
    ref = clamp_reference(kappa, sigma, bundle.x0[0], dW, cfg.dt)
    free = ref[:-1] + cfg.dt * kappa * ref[:-1] + sigma * dW
    # the inf row of an explicit stack [n, inf], whose other row parts from it
    explicit = SchemeConfig(dt=0.01, steps=steps, n=n, seed=seed)
    states, dL, _, _ = _trajectory(bundle.model, explicit, [n, np.inf], bundle.x0, range(1))
    for x, dl in ((rec.states, rec.l_increments), (states[:, 1, 0], dL[:, 1, 0])):
        assert np.max(np.abs(x[:, 0] - ref)) <= 1e-12
        assert np.max(np.abs(np.abs(dl[:, 0]) - np.abs(free - ref[1:]))) <= 1e-12


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
def test_paths_inside_the_ball_are_moved_once(method, monkeypatch):
    bundle = make_allen_cahn(modes=8, mu=0.1, lam=0.05, x0_radius=0.5)
    model, seen = row_counting(bundle.model)
    cfg = SchemeConfig(dt=0.01, steps=30, n=0.0, method=method, seed=3)
    levels, kick = [1.0, 4.0, 16.0], 10
    radii = [r for _, _, r, _, _ in _penalized_stack(model, cfg, levels, bundle.x0, range(4))]
    assert max(np.max(r) for r in radii) < 1.0
    assert seen == [4] * cfg.steps
    # a kick takes path 2 out of the ball: from the step after its first
    # nonzero dL its three level rows are moved apart, and only its rows
    stream = penalize._brownian_stream

    def kicked(*args):
        for j, dW in enumerate(stream(*args)):
            if j == kick:
                dW[2, 0] = 20.0
            yield dW

    monkeypatch.setattr(penalize, "_brownian_stream", kicked)
    seen.clear()
    kernel = _penalized_stack(model, cfg, levels, bundle.x0, range(4))
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
    seen = {"norm_h": [], "_gap_factor": []}

    def counting(attr, rows):
        fn = getattr(penalize, attr)

        def counted(*args):
            seen[attr].append(rows(*args))
            return fn(*args)

        return counted

    # norm_h(space, x) reads rows of x; the explicit penalty's factor, a radius per row
    rows_of_x = lambda _, x: int(np.prod(np.shape(x)[:-1]))  # noqa: E731
    monkeypatch.setattr(penalize, "norm_h", counting("norm_h", rows_of_x))
    monkeypatch.setattr(penalize, "_gap_factor", counting("_gap_factor", np.size))
    bundle = INSIDE[name]
    cfg = SchemeConfig(dt=0.01, steps=30, n=0.0, method=method, seed=3)
    kernel = _penalized_stack(bundle.model, cfg, [1.0, 4.0, 16.0], bundle.x0, range(4))
    out = [(len(dl), np.max(r)) for _, dl, r, _, _ in kernel]
    assert max(r for _, r in out) < 1.0  # 3 levels x 4 paths inside the ball
    assert [rows for rows, _ in out] == [4] * cfg.steps
    # x0's check, then the divergence norm (and under splitting |x-tilde|_H)
    norms_per_step = 1 if method == "explicit" else 2
    assert seen["norm_h"] == [1] + [4] * norms_per_step * cfg.steps
    assert seen["_gap_factor"] == ([4] * cfg.steps if method == "explicit" else [])


@pytest.mark.parametrize("projection", [False, True], ids=["finite", "with-inf"])
def test_explicit_stack_takes_the_x_tilde_norm_only_for_the_projection_level(
    projection, monkeypatch
):
    calls = []

    def counted(space, x):
        calls.append(1)
        return norm_h(space, x)

    guard = []  # the norms the clamp's rounding guard takes, per call

    def guarded(space, x, r):
        before = len(calls)
        clamped = _clamp(space, x, r)
        guard.append(len(calls) - before)
        return clamped

    monkeypatch.setattr(penalize, "norm_h", counted)
    monkeypatch.setattr(hilbert, "norm_h", counted)  # the guard's norms
    monkeypatch.setattr(penalize, "_clamp", guarded)
    bundle = MODELS["allen_cahn"]  # strong noise: paths leave the ball and part
    cfg = SchemeConfig(dt=0.02, steps=30, n=0.0, seed=4)
    levels = [1.0, 16.0, 50.0] + ([np.inf] if projection else [])
    kernel = _penalized_stack(bundle.model, cfg, levels, bundle.x0, range(3))
    rows = [len(x) for x, *_ in kernel]
    assert rows[-1] == 3 * len(levels)  # every path has parted
    # x0's check, then per step the divergence norm, and |x-tilde|_H with inf;
    # the guard runs only with inf, and only on the clamped rows
    assert len(guard) == (cfg.steps if projection else 0)
    assert len(calls) == 1 + (2 if projection else 1) * cfg.steps + sum(guard)


STRONG = make_allen_cahn(modes=16, mu=3.0)


@SETTINGS
@given(
    method=st.sampled_from(["explicit", "splitting"]),
    n=st.sampled_from([1.0, 16.0, 50.0]),
    radius=st.floats(0.5, 1.0),
    seed=st.integers(0, 2**16),
)
def test_projection_level_is_project_ball_of_x_tilde(method, n, radius, seed):
    # one step of an [n, inf] stack from a generated low-mode state: every row
    # of the projection level is project_ball(x-tilde) bit for bit, and
    # dL = new - x-tilde.  The strong noise takes a tenth to two fifths of the
    # rows out of the ball, and the clamp of about one in ten of those reads
    # above 1.
    bundle, paths, dt = STRONG, 64, 0.02
    space = bundle.space
    x0 = np.random.default_rng(seed).standard_normal(space.n_coeffs)
    x0 /= (1.0 + np.abs(space.wavenumbers)) ** 2
    x0 *= radius / norm_h(space, x0)
    cfg = SchemeConfig(dt=dt, steps=1, n=0.0, method=method, seed=seed)
    x, dL, _, _, put = next(_penalized_stack(bundle.model, cfg, [n, np.inf], x0, range(paths)))
    k = bundle.noise.mode_count
    dW = np.stack([brownian_increments(seed, i, k, 1, dt)[0] for i in range(paths)])
    x_tilde = one_step_move(bundle.model, 0.0, dt, np.tile(x0, (paths, 1)), dW)
    clamped = project_ball(space, x_tilde)
    assert np.array_equal(x[put[1]], clamped)
    assert np.array_equal(dL[put[1]], clamped - x_tilde)


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
    levels = [0.0] + levels + ([np.inf] if projection else [])
    cfg = SchemeConfig(dt=0.02, steps=steps, n=0.0, method=method, seed=seed)
    penalized = np.zeros(paths, dtype=bool)
    for x, dL, _, _, put in _penalized_stack(bundle.model, cfg, levels, bundle.x0, range(paths)):
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
    levels = [0.0] + levels + ([np.inf] if projection else [])
    cfg = SchemeConfig(dt=0.02, steps=steps, n=0.0, method=method, seed=seed)
    estimates, cauchy = run_estimates(model, cfg, levels, paths, x0=bundle.x0)
    states, _, radii, alive = _trajectory(model, cfg, levels, bundle.x0, range(paths))
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


@SETTINGS
@given(
    method=st.sampled_from(["explicit", "splitting"]),
    levels=st.lists(st.sampled_from([0.0, 1.0, 16.0, 50.0]), min_size=1, max_size=3),
    kappa=st.floats(-2.0, 4.0),
    sigma=st.floats(0.0, 1.5),
    paths=st.integers(2, 4),
    steps=st.integers(1, 30),
    seed=st.integers(0, 2**16),
)
def test_oracle_compare_1d_is_a_reduction_over_the_trajectory(
    method, levels, kappa, sigma, paths, steps, seed
):
    bundle = make_oracle_1d(kappa=kappa, sigma=sigma)
    cfg = SchemeConfig(dt=0.02, steps=steps, n=0.0, method=method, seed=seed)
    report = oracle_compare_1d(kappa, sigma, cfg, levels, paths)
    stack = levels + [np.inf]
    states, dL, _, alive = _trajectory(bundle.model, cfg, stack, bundle.x0, range(paths))
    assert alive.all() and report.failures == 0
    x, tv = states[..., 0], np.sum(np.abs(dL[..., 0]), axis=0)
    want = {  # each level against the projection level, the last of the stack
        "est_supdiff": np.max(np.abs(x[:, :-1] - x[:, -1:]), axis=0),
        "est_tv_diff": np.abs(tv[:-1] - tv[-1]),
        "est_terminal_diff": np.abs(x[-1, :-1] - x[-1, -1]),
    }
    for column, values in want.items():
        np.testing.assert_allclose(report.column(column), values.mean(axis=1), rtol=1e-12)


@pytest.mark.parametrize("method", ["explicit", "splitting"])
def test_projection_level_is_accepted_under_either_method(method):
    assert SchemeConfig(dt=0.01, steps=10, n=np.inf, method=method).n == np.inf
    for bad in (np.nan, -np.inf):
        with pytest.raises(ConfigurationError, match=">= 0"):
            SchemeConfig(dt=0.01, steps=10, n=bad, method=method)
    if method == "explicit":  # a finite level still needs n dt <= 1
        with pytest.raises(ConfigurationError, match="n\\*dt <= 1"):
            SchemeConfig(dt=0.01, steps=10, n=101.0, method=method)


@pytest.mark.parametrize("method", ["explicit", "splitting"])
def test_projection_level_penetrates_by_rounding_only(method):
    # The clamp is x~ * fl(1 / fl(|x~|_H)).  A weighted sum of m squares
    # w_i x_i x_i is computed with relative error at most gamma_{m+1}, about
    # (m + 1) u with u = eps / 2 (two products per term, m - 1 additions;
    # Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1), and
    # the square root halves that and adds u, so a computed H norm is off by
    # at most (m + 3) u / 2 relatively.  The clamp's radius is then 1 up to
    # that error in |x~|_H, u in the reciprocal and u in the scaled
    # coefficients, and the kernel's norm of the clamped state adds one more
    # norm error: r - 1 <= (m + 3) u + 2 u = (m + 5) eps / 2 to first order.
    # Twice that covers the second-order terms.
    bundle = make_allen_cahn(modes=8, mu=1.5)  # strong noise: paths reach the sphere
    m, dt, steps, paths = bundle.space.n_coeffs, 0.02, 50, 4
    bound = (m + 5) * np.finfo(float).eps
    levels = [1.0, 16.0, np.inf]
    cfg = SchemeConfig(dt=dt, steps=steps, n=1.0, method=method, seed=1)
    _, dL, radii, alive = _trajectory(bundle.model, cfg, levels, bundle.x0, range(paths))
    assert alive.all()
    assert np.all(np.any(dL[:, -1] != 0.0, axis=(0, 2)))  # every path was clamped
    penetration = np.max(np.maximum(radii - 1.0, 0.0), axis=0)
    assert np.all(penetration[0] > 0.1)  # the weakest level leaves the ball
    assert np.all(penetration[-1] <= bound), (penetration[-1], bound)
    estimates, _ = run_estimates(bundle.model, cfg, levels, paths, x0=bundle.x0)
    assert estimates.rows[-1].est_pen_sup4 <= bound**4


# the plain clamp x~ * fl(1 / fl(|x~|_H)) reads a radius above 1 on about 4 %
# of clamped rows at 8 modes and about 20 % at 64 (strong noise)
CLAMP_MODELS = {m: make_allen_cahn(modes=m, mu=1.5) for m in (8, 64)}


def clamp_step(bundle, method, seed, dt, rows):
    """One n = inf step from generated states of radii 0.5..3: (x~, the plain
    clamp of x~, and the step's state' and dL)."""
    space = bundle.space
    rng = np.random.default_rng(seed)
    state = rng.standard_normal((rows, space.n_coeffs))
    state *= (rng.uniform(0.5, 3.0, rows) / norm_h(space, state))[:, None]
    dW = np.sqrt(dt) * rng.standard_normal((rows, bundle.noise.mode_count))
    cfg = SchemeConfig(dt=dt, steps=1, n=np.inf, method=method)
    x_tilde = one_step_move(bundle.model, 0.0, dt, state, dW)
    plain = x_tilde * (1.0 / np.maximum(norm_h(space, x_tilde), 1.0))[:, None]
    return (x_tilde, plain) + step_penalized(state, 0.0, cfg, bundle.model, dW)


@SETTINGS
@given(
    method=st.sampled_from(["explicit", "splitting"]),
    modes=st.sampled_from(sorted(CLAMP_MODELS)),
    seed=st.integers(0, 2**16),
    dt=st.floats(1e-3, 0.1),
)
def test_no_clamp_row_ends_outside_the_ball(method, modes, seed, dt):
    # only the rows the plain clamp leaves outside move, and by a few ulps
    bundle = CLAMP_MODELS[modes]
    x_tilde, plain, new, dL = clamp_step(bundle, method, seed, dt, rows=64)
    assert np.all(norm_h(bundle.space, new) <= 1.0)
    moved = np.any(new != plain, axis=1)
    assert np.all(norm_h(bundle.space, plain[moved]) > 1.0)
    np.testing.assert_allclose(new, plain, rtol=8 * np.finfo(float).eps, atol=0.0)
    assert np.array_equal(dL, new - x_tilde)


@pytest.mark.parametrize("method", ["explicit", "splitting"])
def test_the_clamp_guard_moves_rows_and_holds_in_the_kernel(method):
    bundle = CLAMP_MODELS[64]
    _, plain, new, _ = clamp_step(bundle, method, seed=0, dt=0.01, rows=256)
    assert np.any(norm_h(bundle.space, plain) > 1.0)  # the guard has rows to move
    assert np.any(new != plain) and np.all(norm_h(bundle.space, new) <= 1.0)
    # the kernel's projection rows, parted from a finite level, stay inside too
    cfg = SchemeConfig(dt=0.02, steps=40, n=1.0, method=method, seed=3)
    _, dL, radii, alive = _trajectory(bundle.model, cfg, [1.0, np.inf], bundle.x0, range(4))
    assert alive.all() and np.any(dL[:, 1] != 0.0)  # the projection level clamped
    assert np.all(radii[:, 1] <= 1.0)


def test_dead_rows_are_pinned_per_level():
    # the outward oracle diverges at the weak level only; the strong level,
    # on the same noise, keeps its row alive
    bundle = make_oracle_1d(kappa=1e3, sigma=0.0)
    cfg = SchemeConfig(dt=1.0, steps=4, n=0.0, method="splitting")
    kernel = _penalized_stack(bundle.model, cfg, [0.0, 1e3], bundle.x0, range(2))
    *_, (x, dL, r, alive, put) = kernel
    assert alive[put].tolist() == [[False, False], [True, True]]
    assert np.all(x[put[0]] == 0.0) and np.all(dL[put[0]] == 0.0)
    assert np.all(np.isfinite(r[put[1]]))


# --------------------------------------------------------------------------
# input checks: every stepping study goes through the kernel's one door

TINY = make_allen_cahn(modes=8, noise_modes=4)
TINY_CFG = SchemeConfig(dt=0.01, steps=3, n=1.0, seed=2)

# each stepping study as a call on (x0, level grid), with its path count
STUDIES = {
    "run_estimates": lambda x0, grid, paths=2: run_estimates(
        TINY.model, TINY_CFG, grid, paths, x0=x0
    ),
    "cauchy_study": lambda x0, grid, paths=2: cauchy_study(
        TINY.model, TINY_CFG, grid, paths, x0=x0
    ),
    "inequality_study": lambda x0, grid, paths=1: inequality_study(
        TINY.model, TINY_CFG, x0, grid, paths=paths, test_count=2
    ),
    "oracle_compare_1d": lambda x0, grid, paths=2: oracle_compare_1d(
        0.5, 0.5, TINY_CFG, grid, paths
    ),
    "_penalized_stack": lambda x0, grid, paths=range(2): list(
        _penalized_stack(TINY.model, TINY_CFG, grid, x0, paths)
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


@pytest.mark.parametrize("study", sorted(set(STUDIES) - {"_penalized_stack"}))
def test_study_path_count_is_a_whole_number(study):
    # the kernel takes a range (checked below); a study's count is rejected,
    # not rounded or passed to range() raw
    for paths in (3.0, 2.5, True, np.float64(2)):
        with pytest.raises(ConfigurationError, match="paths must be a whole number"):
            STUDIES[study](TINY.x0, [1.0, 4.0], paths=paths)
    STUDIES[study](TINY.x0, [1.0, 4.0], paths=np.int64(2))


@pytest.mark.parametrize(
    "paths",
    [range(0), range(3, 3), range(-1, 2), range(2, -2, -1), 2, [0, 1], np.arange(2)],
    ids=["empty", "empty at 3", "from -1", "down to -1", "int", "list", "array"],
)
def test_paths_must_be_a_nonempty_range_of_nonnegative_indices(paths):
    with pytest.raises(ConfigurationError, match="paths"):
        _penalized_stack(TINY.model, TINY_CFG, [1.0], TINY.x0, paths)


@pytest.mark.parametrize("paths", [0, -1])
def test_noise_block_needs_a_path(paths):
    with pytest.raises(ConfigurationError, match="paths"):
        _penalized_stack(TINY.model, TINY_CFG, [1.0], TINY.x0, range(paths))
    with pytest.raises(ConfigurationError, match="paths"):
        inequality_study(TINY.model, TINY_CFG, TINY.x0, [1.0], paths=paths, test_count=2)


@pytest.mark.parametrize(
    "study", ["run_estimates", "inequality_study", "oracle_compare_1d", "simulate_path"]
)
def test_each_study_draws_its_noise_once(study, monkeypatch):
    # every stepping call reaches the noise only through the kernel's stream,
    # so a recorder bound in penalize sees every draw
    calls, draw = [], penalize._brownian_stream

    def counting(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(penalize, "_brownian_stream", counting)
    if study == "simulate_path":
        simulate_path(TINY.model, TINY_CFG, TINY.x0, path_index=3)
        paths = range(3, 4)
    else:
        STUDIES[study](TINY.x0, [1.0, 4.0])
        paths = range(1 if study == "inequality_study" else 2)
    k = 1 if study == "oracle_compare_1d" else TINY.noise.mode_count
    assert calls == [(TINY_CFG.seed, paths, k, TINY_CFG.steps, TINY_CFG.dt)]
