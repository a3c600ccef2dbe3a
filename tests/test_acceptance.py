"""Acceptance checklist for the penalized-reflection engine.

One test per criterion.  Each test prints a single ``ACCEPTANCE k: PASS|FAIL``
line with the measured numbers before asserting, so ``pytest -v`` on this file
doubles as a sign-off sheet (failed tests show the line in the captured
output; run with ``-s`` to see every line).

Three assertions are red by construction of the dynamics, not by bug, and are
left red on purpose (see README.md, "Known-red acceptance checks"): near the
unit sphere the cubic ensemble drift points inward, so a bounded share of the
confinement work is done by the drift instead of the penalty term.  The
penalty share of the reflection measure then grows with n roughly like
n/(n + kappa_eff) instead of saturating, which floors the weighted
penetration ratio (criterion 4), blows up the squared-variation ratio
(criterion 5), and keeps the first Cauchy gap artificially small so the decay
factor across the grid misses 4x (criterion 7).
"""

import hashlib
import time

import numpy as np
import pytest

from reflectspde.cli import main
from reflectspde.hilbert import SpaceSpec, inner_h, norm_h, penalty_gap, project_ball
from reflectspde.hypotheses import constant_stability, run_all_audits
from reflectspde.localtime import inequality_study, variational_gap
from reflectspde.models import make_allen_cahn, make_oracle_1d, make_p_laplacian
from reflectspde.montecarlo import (
    count_inversions,
    max_min_ratio,
    oracle_compare_1d,
    run_estimates,
    trend_decreasing,
    uniqueness_check,
)
from reflectspde.penalize import SchemeConfig, simulate_path
from reflectspde.tamednse import make_tamed_nse

DESK_N_GRID = (1.0, 4.0, 16.0, 64.0, 256.0)
DESK_PATHS = 200


def verdict(k, ok, detail):
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


@pytest.fixture(scope="module")
def ac64():
    return make_allen_cahn(modes=64)


@pytest.fixture(scope="module")
def desk_cfg():
    # dt=1e-3, T=1; n*dt <= 0.256 keeps the explicit stepper admissible
    return SchemeConfig(dt=1e-3, steps=1000, n=1.0, seed=11)


@pytest.fixture(scope="module")
def desk_ensemble(ac64, desk_cfg):
    # one simulated ensemble gives both the estimates and the Cauchy gaps
    t0 = time.perf_counter()
    reports = run_estimates(ac64.model, desk_cfg, DESK_N_GRID, DESK_PATHS, x0=ac64.x0)
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def desk_run(desk_ensemble):
    (estimates, _), elapsed = desk_ensemble
    return estimates, elapsed


@pytest.fixture(scope="module")
def desk_cauchy(desk_ensemble):
    (_, cauchy), _ = desk_ensemble
    return cauchy


@pytest.fixture(scope="module")
def desk_inequality(ac64, desk_cfg):
    return inequality_study(
        ac64.model, desk_cfg, ac64.x0, DESK_N_GRID, paths=3, test_count=200, delta=0.1
    )


def test_criterion_01_projection_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816)
    groups = ((1, 1000), (2, 1500), (7, 1500), (16, 2000), (64, 2000), (128, 2000))
    tol = 1e-10
    worst = 0.0
    for dim, pairs in groups:
        hw = rng.uniform(0.5, 2.0, size=dim)
        space = SpaceSpec(
            h_weights=hw,
            v_weights=2.0 * hw,
        )

        def sample(count):
            u = rng.standard_normal((count, dim))
            u /= norm_h(space, u)[:, None]
            return u * rng.uniform(0.0, 3.0, size=count)[:, None]

        x, y = sample(pairs), sample(pairs)
        r = norm_h(space, x)
        excess = np.maximum(r - 1.0, 0.0)
        gap, half_sq = penalty_gap(space, x)
        px, py = project_ball(space, x), project_ball(space, y)

        errs = [
            np.abs(norm_h(space, gap) - excess),
            np.abs(inner_h(space, x, gap) - r * excess),
            np.abs(r * r * inner_h(space, x, gap) - r**3 * excess),
            np.abs(half_sq - 0.5 * excess**2),
            norm_h(space, project_ball(space, px) - px),  # idempotence
            np.maximum(norm_h(space, px - py) - norm_h(space, x - y), 0.0),
            np.maximum(-inner_h(space, x - py, gap), 0.0),  # variational inequality
        ]
        worst = max(worst, max(float(np.max(e)) for e in errs))
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and elapsed < 1.0
    verdict(1, ok, f"worst deviation {worst:.2e} (tol 1e-10) over 10^4 pairs, {elapsed:.2f}s")
    assert worst <= tol
    assert elapsed < 1.0


def stable_within_factor2(values):
    a, b = values
    m = max(abs(a), abs(b))
    if m == 0.0:
        return True  # both estimates identically zero
    return a * b > 0 and m / min(abs(a), abs(b)) <= 2.0


def test_criterion_02_hypothesis_audits():
    t0 = time.perf_counter()
    reports = run_all_audits(make_allen_cahn(modes=64).model, seed=0, count=1000)
    reports += run_all_audits(make_p_laplacian(modes=64, p=4.0).model, seed=0, count=1000)
    worst = min(r.worst_margin for r in reports)
    stab = constant_stability(
        make_tamed_nse(modes=4).model, seed=0, counts=(500, 1000), hypotheses=("H3", "H4", "H5")
    )
    drift = {h: stable_within_factor2(v) for h, v in stab.items()}
    elapsed = time.perf_counter() - t0
    ok = worst >= 0.0 and all(drift.values()) and elapsed < 120.0
    verdict(
        2,
        ok,
        f"worst audit margin {worst:.3g}; tamed constants stable under doubling "
        f"{dict(sorted(stab.items()))}; {elapsed:.1f}s",
    )
    for rep in reports:
        assert rep.worst_margin >= 0.0, (rep.hypothesis, rep.worst_margin)
    for h in ("H3", "H4", "H5"):
        assert drift[h], (h, stab[h])
    assert elapsed < 120.0


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    # noiseless outward drift: terminal state sits at the penalized equilibrium
    n = 1000.0
    cfg = SchemeConfig(dt=1e-4, steps=10_000, n=n, seed=3)
    bundle = make_oracle_1d(kappa=1.0, sigma=0.0)
    rec = simulate_path(bundle.model, cfg, bundle.x0)
    terminal = float(rec.states[-1, 0])
    target = 1.0 + 1.0 / (n - 1.0)
    terminal_err = abs(terminal - target)

    # coupled-noise sweep against the clamped scheme
    sweep = oracle_compare_1d(
        1.0,
        0.5,
        SchemeConfig(dt=1e-4, steps=10_000, n=100.0, seed=3),
        [100.0, 1000.0, 10_000.0],
        500,
    )
    sup = sweep.column("est_supdiff")
    elapsed = time.perf_counter() - t0
    ok = terminal_err <= 2e-3 and sup[0] > sup[1] > sup[2] and elapsed < 120.0
    verdict(
        3,
        ok,
        f"terminal vs equilibrium err {terminal_err:.2e} (tol 2e-3); "
        f"E[sup diff] {np.array2string(sup, precision=5)}; {elapsed:.1f}s",
    )
    assert terminal_err <= 2e-3
    assert sup[0] > sup[1] > sup[2], sup
    assert elapsed < 120.0


def test_criterion_04_moment_and_weighted_penetration(desk_run):
    report, elapsed = desk_run
    r_sup4 = max_min_ratio(report.column("est_sup4"))
    r_wpen = max_min_ratio(report.column("est_weighted_pen"))
    failures = int(np.sum(report.column("failures")))
    ok = r_sup4 <= 3.0 and r_wpen <= 3.0 and failures == 0 and elapsed < 600.0
    verdict(
        4,
        ok,
        f"est_sup4 ratio {r_sup4:.3f}, est_weighted_pen ratio {r_wpen:.3f} "
        f"(both need <=3), failures {failures}, run {elapsed:.1f}s",
    )
    assert failures == 0
    assert elapsed < 600.0
    assert r_sup4 <= 3.0, f"est_sup4 max/min ratio {r_sup4:.3f}"
    assert r_wpen <= 3.0, (
        f"est_weighted_pen max/min ratio {r_wpen:.3f}: the inward drift at the sphere "
        "takes a fixed share of the confinement work, so the penalty share grows with n "
        "like n/(n + kappa_eff) and the ratio floors near 4 (documented in README.md)"
    )


def test_criterion_05_variation_bounds(desk_run):
    report, _ = desk_run
    r_var2 = max_min_ratio(report.column("est_var2"))
    r_venergy = max_min_ratio(report.column("est_v_energy"))
    ok = r_var2 <= 3.0 and r_venergy <= 3.0
    verdict(
        5,
        ok,
        f"est_var2 ratio {r_var2:.3f}, est_v_energy ratio {r_venergy:.3f} (both need <=3)",
    )
    assert r_venergy <= 3.0, f"est_v_energy max/min ratio {r_venergy:.3f}"
    assert r_var2 <= 3.0, (
        f"est_var2 max/min ratio {r_var2:.3f}: squared penalty variation scales with the "
        "penalty share (n/(n + kappa_eff))^2, which rises ~50x between n=1 and n=256 "
        "(documented in README.md)"
    )


def test_criterion_06_penetration_decay(desk_run):
    report, _ = desk_run
    pen = report.column("est_pen_sup4")
    ses = report.column("se_pen_sup4")
    decreasing = trend_decreasing(pen, ses, allowed_inversions=1)
    drop = pen[0] / pen[-1] if pen[-1] > 0 else np.inf
    ok = decreasing and pen[-1] < pen[0] / 10.0
    verdict(
        6,
        ok,
        f"est_pen_sup4 {pen[0]:.3g} -> {pen[-1]:.3g} (x{drop:.0f} drop, "
        f"{count_inversions(pen)} inversions)",
    )
    assert decreasing, pen
    assert pen[-1] < pen[0] / 10.0, pen


def test_criterion_07_cauchy_contraction(desk_cauchy):
    diffs = desk_cauchy.column("est_supdiff2")
    ses = desk_cauchy.column("se")
    decreasing = trend_decreasing(diffs, ses, allowed_inversions=1)
    ok = decreasing and diffs[-1] < diffs[0] / 4.0
    verdict(
        7,
        ok,
        f"consecutive-level sup-diffs {np.array2string(diffs, precision=5)} "
        f"({count_inversions(diffs)} inversions beyond SE; need last < first/4)",
    )
    assert decreasing, diffs
    assert diffs[-1] < diffs[0] / 4.0, (
        f"last gap {diffs[-1]:.3g} vs first/4 = {diffs[0] / 4.0:.3g}: at n=1 vs n=4 both "
        "levels are still drift-confined, so the first gap starts artificially small and "
        "the grid-wide decay factor misses 4x (documented in README.md)"
    )


def test_criterion_08_variational_inequality(desk_inequality, ac64, desk_cfg):
    rows, failures = desk_inequality
    margins = [row[3] + 1e-3 * row[2] for row in rows]  # min_gap + 1e-3 * TV
    worst = min(margins)
    shadow_gaps = []
    for n in DESK_N_GRID:
        rec = simulate_path(ac64.model, desk_cfg.with_n(n), ac64.x0)
        shadow = project_ball(ac64.model.space, rec.states)
        shadow_gaps.append(variational_gap(ac64.model.space, rec.states, rec.l_increments, shadow))
    ok = failures == 0 and worst >= 0.0 and all(g >= 0.0 for g in shadow_gaps)
    verdict(
        8,
        ok,
        f"min gap + 1e-3*TV over 200 test paths x {len(DESK_N_GRID)} levels x 3 paths: "
        f"{worst:.3g}; pi-shadow gaps all >= 0: {min(shadow_gaps):.3g}",
    )
    assert failures == 0
    assert worst >= 0.0, worst
    for g in shadow_gaps:
        assert g >= 0.0, shadow_gaps


def test_criterion_09_boundary_support(desk_inequality):
    rows, _ = desk_inequality
    leak_by_n, tv_by_n = {}, {}
    for n, _idx, tv, _gap, leak in rows:
        leak_by_n[n] = leak_by_n.get(n, 0.0) + leak
        tv_by_n[n] = tv_by_n.get(n, 0.0) + tv
    ns = sorted(leak_by_n)
    leaks = [leak_by_n[n] for n in ns]
    top = ns[-1]
    ratio = leak_by_n[top] / tv_by_n[top] if tv_by_n[top] > 0 else 0.0
    inversions = count_inversions(leaks)
    ok = ratio < 0.05 and inversions <= 1
    verdict(
        9,
        ok,
        f"leak(0.1)/TV at n={top:g}: {ratio:.3g} (need <0.05); "
        f"leak trend {leaks} ({inversions} inversions)",
    )
    assert ratio < 0.05
    assert inversions <= 1, leaks


def test_criterion_10_uniqueness(ac64):
    cfg = SchemeConfig(dt=1e-3, steps=500, n=64.0, seed=5)
    twin = uniqueness_check(ac64.model, cfg, ac64.x0, 0.0)

    # contracting scalar drift, no boundary contact: difference obeys the
    # exact linear recursion diff_{j+1} = (1 - 0.5*dt) * diff_j
    orc = make_oracle_1d(kappa=-0.5, sigma=0.0)
    cfg1 = SchemeConfig(dt=1e-3, steps=1000, n=100.0, seed=5)
    pert = 1e-3
    rep = uniqueness_check(orc.model, cfg1, orc.x0, pert)
    exact_terminal = pert * (1.0 - 0.5 * cfg1.dt) ** cfg1.steps
    term_err = abs(rep.terminal_diff - exact_terminal)
    sup_err = abs(rep.sup_diff - pert)
    ok = twin.sup_diff == 0.0 and term_err <= 1e-9 and sup_err <= 1e-9
    verdict(
        10,
        ok,
        f"zero-perturbation twin sup diff {twin.sup_diff!r} (bitwise); contraction "
        f"terminal err {term_err:.2e}, sup err {sup_err:.2e} (tol 1e-9)",
    )
    assert twin.sup_diff == 0.0
    assert term_err <= 1e-9
    assert sup_err <= 1e-9


CLI_CONF = """\
model.name = allen_cahn
model.modes = 16
noise.mu = 0.5
scheme.dt = 0.002
scheme.t_final = 0.5
scheme.seed = 7
run.n_grid = 1, 4, 16
run.paths = 20
run.samples = 200
run.h1_samples = 64
run.test_paths = 50
run.ineq_paths = 2
"""


def test_criterion_11_cli_reproducibility(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(CLI_CONF)
    digests = []
    for name, threads in (("run-a", None), ("run-b", None), ("run-c", 4)):
        out = tmp_path / name
        argv = ["all", "--config", str(conf), "--out", str(out)]
        if threads is not None:
            argv += ["--threads", str(threads)]
        assert main(argv) == 0
        digests.append(
            {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir())
            }
        )
    names = sorted(digests[0])
    ok = digests[0] == digests[1] == digests[2] and len(names) == 6
    verdict(
        11,
        ok,
        f"{len(names)} artifacts ({', '.join(names)}) byte-identical across reruns "
        f"and --threads 4",
    )
    assert len(names) == 6
    assert digests[0] == digests[1], "rerun with identical config diverged"
    assert digests[0] == digests[2], "thread count changed artifact bytes"
