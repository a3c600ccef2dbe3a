"""Ensemble estimators: frozen degenerate cases, coupling, failure counting."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reflectspde.errors import BlowUpError, ConfigurationError
from reflectspde.hilbert import norm_h, norm_v
from reflectspde.models import make_allen_cahn, make_oracle_1d
from reflectspde.montecarlo import (
    Report,
    cauchy_study,
    count_inversions,
    format_value,
    max_min_ratio,
    oracle_compare_1d,
    run_estimates,
    trend_decreasing,
    uniqueness_check,
    write_csv,
)
from reflectspde.montecarlo import _batches, _mean_and_se
from reflectspde.penalize import SchemeConfig, simulate_path


# --------------------------------------------------------------------------
# CSV plumbing


def test_format_value_canonical():
    assert format_value("H1") == "H1"
    assert format_value(3) == "3"
    assert format_value(np.int64(-7)) == "-7"
    assert format_value(1.0) == "1"
    assert format_value(0.1) == "0.10000000000000001"
    # 17 significant digits round-trip exactly
    x = 0.123456789123456789
    assert float(format_value(x)) == x


def test_write_csv_exact_bytes(tmp_path):
    out = tmp_path / "t.csv"
    write_csv(out, ("a", "b", "c"), [(1, 0.5, "x"), (2, 1.0, "y")])
    data = out.read_bytes()
    assert data == b"a,b,c\n1,0.5,x\n2,1,y\n"


# --------------------------------------------------------------------------
# trend helpers


def test_max_min_ratio():
    assert max_min_ratio([1.0, 2.0, 4.0]) == pytest.approx(4.0)
    assert max_min_ratio([2.0, 2.0]) == pytest.approx(1.0)
    assert max_min_ratio([0.0, 1.0]) == np.inf


def test_count_inversions():
    assert count_inversions([4.0, 3.0, 2.0, 1.0]) == 0
    assert count_inversions([3.0, 2.0, 5.0, 4.0]) == 1
    assert count_inversions([1.0, 2.0, 3.0]) == 2


def test_trend_decreasing_with_se_slack():
    vals = [5.0, 4.0, 4.5, 3.0]
    assert trend_decreasing(vals, allowed_inversions=1)
    assert not trend_decreasing(vals, allowed_inversions=0)
    ses = [0.0, 0.6, 0.6, 0.0]  # the one rise sits inside its error bars
    assert trend_decreasing(vals, ses, allowed_inversions=0)


# --------------------------------------------------------------------------
# slice means and standard errors


def gamma(k):
    """gamma_k = k u / (1 - k u), u = eps / 2: a sum of k + 1 terms in any
    order errs by at most gamma_k times the sum of their magnitudes."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def per_slice_reference(values, alive):
    """Each path slice's survivors averaged alone; returns the mean over all
    survivors, the standard error of the slice means, and the bound on how
    far another summation order moves that error."""
    u = np.finfo(float).eps / 2
    paths = len(values)
    slices = np.array_split(np.arange(paths), min(10, paths))
    kept = [values[b][alive[b]] for b in slices if alive[b].any()]
    if not kept:
        return float("nan"), float("nan"), 0.0
    means = np.array([np.mean(v) for v in kept])
    k = len(means)
    if k < 2:
        return float(np.mean(values[alive])), 0.0, 0.0
    se = np.std(means, ddof=1) / np.sqrt(k)
    # A slice of c <= ceil(paths / 10) survivors is summed in two orders (the
    # dead paths add exact zeros to one of them): each errs by at most
    # gamma_{c-1} S, S the sum of magnitudes, and the quotient by c rounds by
    # u, so the two means differ by at most
    # (2 gamma_{c-1} + 2 u (1 + gamma_{c-1})) S / c.
    g = np.array([gamma(v.size - 1) for v in kept])
    magnitude = np.array([np.sum(np.abs(v)) / v.size for v in kept])
    delta = (2 * g + 2 * u * (1 + g)) * magnitude
    # The exact sample deviation is ||P m||_2 / sqrt(k - 1) with P the
    # centring projection, so it moves by at most ||delta||_2 / sqrt(k - 1).
    # Computing it (mean, deviations, squares, sum, root and the quotient by
    # sqrt(k)) errs on either side by at most
    # gamma_{k+2} max|m| / sqrt(k - 1) + gamma_{k+6} se.
    rounding = gamma(k + 2) * np.max(np.abs(means)) / np.sqrt(k - 1) + gamma(k + 6) * se
    bound = np.linalg.norm(delta) / np.sqrt(k * (k - 1)) + 2 * rounding
    return float(np.mean(values[alive])), float(se), float(bound)


@settings(max_examples=60, deadline=None)
@given(
    paths=st.integers(2, 57),
    seed=st.integers(0, 2**16),
    dead=st.floats(0.0, 0.6),
    dead_slice=st.booleans(),
)
@example(paths=23, seed=1, dead=0.0, dead_slice=True)
@example(paths=200, seed=2, dead=0.1, dead_slice=False)
def test_slice_means_equal_per_slice_reference(paths, seed, dead, dead_slice):
    rng = np.random.default_rng(seed)
    # magnitudes over six decades around an offset, so that the sums cancel
    values = rng.uniform(-10, 10) + rng.standard_normal(paths) * 10.0 ** rng.uniform(-3, 3, paths)
    alive = rng.random(paths) >= dead
    starts = _batches(paths)
    if dead_slice:  # the second slice has no survivor and is skipped
        alive[starts[1] : starts[2] if len(starts) > 2 else paths] = False
    mean, se = _mean_and_se(values, alive, starts)
    want_mean, want_se, bound = per_slice_reference(values, alive)
    if not alive.any():
        assert np.isnan(mean) and np.isnan(se)
        return
    assert mean == want_mean
    assert abs(se - want_se) <= bound, (se, want_se, bound)


def test_all_dead_level_gives_nan():
    starts = _batches(23)
    mean, se = _mean_and_se(np.arange(23.0), np.zeros(23, dtype=bool), starts)
    assert np.isnan(mean) and np.isnan(se)
    # one survivor: its value, and no spread to take an error from
    alive = np.zeros(23, dtype=bool)
    alive[7] = True
    assert _mean_and_se(np.arange(23.0), alive, starts) == (7.0, 0.0)


# --------------------------------------------------------------------------
# degenerate ensembles with closed-form outputs


def silent_cfg(steps=10, n=4.0):
    return SchemeConfig(dt=0.1, steps=steps, n=n, method="splitting", seed=0)


def test_run_estimates_frozen_for_constant_dynamics():
    bundle = make_oracle_1d(kappa=0.0, sigma=0.0)
    report, _ = run_estimates(
        bundle.model, silent_cfg(), [1.0, 4.0], paths=6, x0=np.array([0.5])
    )
    assert len(report.rows) == 2
    for row in report.rows:
        assert row.est_sup4 == pytest.approx(0.5**4, abs=1e-15)
        assert row.est_weighted_pen == 0.0
        assert row.est_var2 == 0.0
        assert row.est_pen_l2 == 0.0
        assert row.est_v_energy == pytest.approx(0.25, abs=1e-14)
        assert row.est_pen_sup4 == 0.0
        assert row.failures == 0
        assert row.se_sup4 == 0.0  # identical paths, zero batch spread


def test_cauchy_zero_for_duplicate_levels():
    bundle = make_oracle_1d(kappa=1.0, sigma=0.5)
    cfg = SchemeConfig(dt=0.01, steps=50, n=1.0, seed=4)
    report = cauchy_study(bundle.model, cfg, [8.0, 8.0], paths=5, x0=bundle.x0)
    assert len(report.rows) == 1
    assert report.rows[0].est_supdiff2 == 0.0
    assert report.rows[0].se == 0.0


def test_input_validation():
    bundle = make_oracle_1d()
    cfg = silent_cfg()
    assert issubclass(ConfigurationError, ValueError)  # callers catching ValueError still do
    with pytest.raises(ConfigurationError):
        run_estimates(bundle.model, cfg, [], paths=4, x0=bundle.x0)
    with pytest.raises(ConfigurationError):
        run_estimates(bundle.model, cfg, [1.0], paths=1, x0=bundle.x0)
    with pytest.raises(ConfigurationError):
        cauchy_study(bundle.model, cfg, [1.0], paths=4, x0=bundle.x0)
    with pytest.raises(ConfigurationError):
        uniqueness_check(bundle.model, cfg, bundle.x0, -0.1)
    for x0 in (np.array([1.5]), np.array([0.5, 0.0])):  # outside the ball; not one state
        with pytest.raises(ConfigurationError):
            uniqueness_check(bundle.model, cfg, x0, 0.1)


def test_failures_are_counted_and_pinned():
    bundle = make_oracle_1d(kappa=1e6, sigma=0.0)
    cfg = SchemeConfig(dt=1.0, steps=3, n=1.0, seed=0)
    report, _ = run_estimates(bundle.model, cfg, [1.0], paths=4, x0=np.array([0.5]))
    row = report.rows[0]
    assert row.failures == 4
    assert np.isnan(row.est_sup4)


def test_projection_level_leaves_n_scaled_cells_undefined():
    # at n = inf, n * (r-1)^+ is inf * 0: those cells read nan, silently
    bundle = make_allen_cahn(modes=16)
    cfg = SchemeConfig(dt=1e-3, steps=50, n=64.0, method="splitting", seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report, _ = run_estimates(bundle.model, cfg, [64.0, np.inf], paths=20, x0=bundle.x0)
    assert report.failures == 0
    finite, projection = report.rows
    assert np.all(np.isfinite(finite))
    assert projection.n == np.inf
    scaled = [f"{k}_{col}" for col in ("weighted_pen", "var2", "pen_l2") for k in ("est", "se")]
    for name, value in zip(projection._fields[1:], projection[1:]):
        assert np.isnan(value) if name in scaled else np.isfinite(value), name


# --------------------------------------------------------------------------
# consistency with the reference single-path stepper


def test_ensemble_matches_single_path_statistics():
    bundle = make_allen_cahn(modes=8, mu=1.5)
    space, n, dt = bundle.space, 16.0, 0.005
    cfg = SchemeConfig(dt=dt, steps=60, n=n, seed=6)
    paths = 8
    report, _ = run_estimates(bundle.model, cfg, [n], paths=paths, x0=bundle.x0)
    columns = ("sup4", "weighted_pen", "var2", "pen_l2", "v_energy", "pen_sup4")
    want = {column: [] for column in columns}
    for i in range(paths):
        states = simulate_path(bundle.model, cfg, bundle.x0, path_index=i).states
        # each estimator's integrand at every grid time, written out from the
        # radial identities |X - pi(X)|_H = (r-1)^+ and (X, X - pi(X))_H = r (r-1)^+
        r = norm_h(space, states)
        e = np.maximum(r - 1.0, 0.0)
        want["sup4"].append(np.max(r) ** 4)
        want["weighted_pen"].append(n * sum(dt * r[j] ** 2 * r[j] * e[j] for j in range(60)))
        want["var2"].append((n * sum(dt * e[j] for j in range(60))) ** 2)
        want["pen_l2"].append(n * sum(dt * e[j] ** 2 for j in range(60)))
        energy = norm_v(space, states) ** bundle.model.alpha
        want["v_energy"].append(sum(dt * energy[j] for j in range(60)))
        want["pen_sup4"].append(np.max(e) ** 4)
    row = report.rows[0]
    for column, values in want.items():
        assert getattr(row, f"est_{column}") == pytest.approx(np.mean(values), rel=1e-10), column


def test_multi_level_run_equals_single_level_runs():
    # levels share the noise but never each other's state, so stacking them
    # changes nothing beyond rounding; reruns are bit-identical
    bundle = make_allen_cahn(modes=8, mu=1.2)
    cfg = SchemeConfig(dt=0.01, steps=40, n=4.0, seed=2)
    grid = [1.0, 4.0, 16.0]
    stacked, stacked_cauchy = run_estimates(bundle.model, cfg, grid, 23, x0=bundle.x0)
    for row, n in zip(stacked.rows, grid):
        single = run_estimates(bundle.model, cfg, [n], 23, x0=bundle.x0)[0].rows[0]
        assert np.allclose(row, single, rtol=1e-12, atol=0.0)
    again = run_estimates(bundle.model, cfg, grid, 23, x0=bundle.x0)
    assert again == (stacked, stacked_cauchy)
    assert cauchy_study(bundle.model, cfg, grid, 23, x0=bundle.x0) == stacked_cauchy


def test_one_divergence_threshold():
    # one step to radius ~1e8: below penalize.BLOWUP_NORM = 1e10, so neither
    # the ensemble nor the single-path stepper counts it as a failure
    bundle = make_oracle_1d(kappa=2e8, sigma=0.0)
    cfg = SchemeConfig(dt=1.0, steps=1, n=1.0, seed=0)
    report, _ = run_estimates(bundle.model, cfg, [1.0], paths=2, x0=bundle.x0)
    assert report.rows[0].failures == 0
    assert report.rows[0].est_sup4 == pytest.approx((1e8 + 0.5) ** 4, rel=1e-12)
    rec = simulate_path(bundle.model, cfg, bundle.x0)
    assert np.max(norm_h(bundle.space, rec.states)) == pytest.approx(1e8 + 0.5, rel=1e-12)


def test_cauchy_drops_a_path_failing_at_any_level():
    bundle = make_oracle_1d(kappa=1e6, sigma=0.0)
    cfg = SchemeConfig(dt=1.0, steps=3, n=1.0, seed=0)
    report, cauchy = run_estimates(bundle.model, cfg, [0.5, 1.0], paths=4, x0=bundle.x0)
    assert [r.failures for r in report.rows] == [4, 4]
    assert cauchy.failures == 4
    assert np.isnan(cauchy.column("est_supdiff2")[0])


def test_a_failed_row_reads_radius_zero():
    # one step takes both paths to radius 0.5 (1 + 1e120) = 5e119, whose cube
    # overflows: the estimates read a failed row's radius as 0 from that step
    # on, so no overflow is raised (warnings are errors in this suite)
    bundle = make_oracle_1d(kappa=1e120, sigma=0.0)
    cfg = SchemeConfig(dt=1.0, steps=3, n=1.0, seed=0)
    report, cauchy = run_estimates(bundle.model, cfg, [1.0, 1.0], paths=2, x0=bundle.x0)
    assert [r.failures for r in report.rows] == [2, 2]
    assert cauchy.failures == 2


def test_oracle_counts_failed_paths():
    cfg = SchemeConfig(dt=1.0, steps=3, n=1.0, seed=0)
    report = oracle_compare_1d(1e6, 0.0, cfg, [0.5, 1.0], paths=3)
    assert report.failures == 6
    assert np.isnan(report.column("est_supdiff")).all()
    calm = oracle_compare_1d(1.0, 0.5, SchemeConfig(dt=0.01, steps=20, n=1.0), [1.0], paths=3)
    assert calm.failures == 0


# --------------------------------------------------------------------------
# uniqueness / stability


def test_uniqueness_zero_perturbation_is_bitwise():
    bundle = make_allen_cahn(modes=8)
    cfg = SchemeConfig(dt=0.01, steps=50, n=16.0, seed=3)
    for x0 in (bundle.x0, np.zeros_like(bundle.x0)):  # the twin of 0 is 0
        rep = uniqueness_check(bundle.model, cfg, x0, 0.0)
        assert rep.sup_diff == 0.0
        assert rep.terminal_diff == 0.0
        assert rep.stability_factor == 0.0


def test_uniqueness_small_perturbation_stays_small():
    bundle = make_allen_cahn(modes=8)
    cfg = SchemeConfig(dt=0.01, steps=50, n=16.0, seed=3)
    rep = uniqueness_check(bundle.model, cfg, bundle.x0, 1e-6)
    assert rep.perturbation == 1e-6
    assert rep.sup_diff < 1e-2  # regression envelope, far above observed ~1e-6
    assert rep.stability_factor == rep.sup_diff / 1e-6


def test_uniqueness_raises_where_its_path_diverges():
    # the one study that raises instead of counting a failed path: its first
    # run is simulate_path's, so it fails at the same step, time and radius
    bundle = make_oracle_1d(kappa=1e6, sigma=0.0)
    cfg = SchemeConfig(dt=1.0, steps=3, n=1.0)
    for run in (
        lambda: uniqueness_check(bundle.model, cfg, bundle.x0, 1e-3),
        lambda: simulate_path(bundle.model, cfg, bundle.x0),
    ):
        with pytest.raises(BlowUpError) as caught:
            run()
        # x1 = 0.5 + 1e6 * 0.5; x2 = x1 + 1e6 * x1 - (x1 - 1), exact in floats
        err = caught.value
        assert (err.step, err.time, err.h_norm) == (2, 2.0, 500000500001.0)


# --------------------------------------------------------------------------
# scalar oracle comparisons


def test_oracle_compare_trivial_dynamics():
    cfg = SchemeConfig(dt=0.1, steps=10, n=1.0, seed=0)
    report = oracle_compare_1d(0.0, 0.0, cfg, [1.0, 4.0], paths=4)
    for row in report.rows:
        assert row.est_supdiff == 0.0
        assert row.est_tv_diff == 0.0
        assert row.est_terminal_diff == 0.0


def test_oracle_terminal_matches_penalized_fixed_point():
    # deterministic outward drift: the penalized chain settles at n/(n-kappa),
    # the clamped oracle at 1; the gap is kappa/(n-kappa), independent of dt
    cfg = SchemeConfig(dt=1e-3, steps=2000, n=100.0, seed=0)
    report = oracle_compare_1d(1.0, 0.0, cfg, [100.0], paths=2)
    assert report.rows[0].est_terminal_diff == pytest.approx(1.0 / 99.0, rel=1e-9)


def test_outward_oracle_var2_is_n_insensitive():
    # (n int (r-1)+ dt)^2 stabilizes once the penalty regime dominates:
    # levels 100 and 400 agree within a few percent
    var2 = []
    for n in (100.0, 400.0):
        cfg = SchemeConfig(dt=1e-3, steps=2000, n=n, seed=0)
        bundle = make_oracle_1d(kappa=1.0, sigma=0.0)
        rep, _ = run_estimates(bundle.model, cfg, [n], paths=2, x0=bundle.x0)
        var2.append(rep.rows[0].est_var2)
    assert var2[0] == pytest.approx(var2[1], rel=0.05)


def test_report_column_access_and_csv(tmp_path):
    bundle = make_oracle_1d(kappa=0.5, sigma=0.5)
    cfg = SchemeConfig(dt=0.01, steps=30, n=1.0, seed=1)
    report, _ = run_estimates(bundle.model, cfg, [1.0, 4.0], paths=6, x0=bundle.x0)
    col = report.column("est_sup4")
    assert col.shape == (2,)
    f = tmp_path / "est.csv"
    report.to_csv(f)
    lines = f.read_text().splitlines()
    assert lines[0].startswith("n,est_sup4,se_sup4,")
    assert len(lines) == 3
    with pytest.raises(ValueError, match="empty table"):
        Report((), 0).to_csv(tmp_path / "empty.csv")
