"""Traced working sets of the audit, tamed-drift, variational-gap and stepping
hot paths stay bounded, and the studies' do not grow with the horizon beyond
their noise block.

numpy reports its array allocations to tracemalloc, so the traced peak of a
call is the numpy scratch it holds at once.
"""

import tracemalloc

import numpy as np

from reflectspde import tamednse
from reflectspde.hilbert import norm_h
from reflectspde.hypotheses import FieldSampler, check_hemicontinuity
from reflectspde.localtime import inequality_study, make_test_paths, variational_gap
from reflectspde.models import make_allen_cahn
from reflectspde.montecarlo import run_estimates
from reflectspde.penalize import SchemeConfig, _Rows, step_penalized


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_h1_holds_one_profile_at_a_time():
    model = make_allen_cahn(modes=64).model
    sampler = FieldSampler(model.space, (0, 1))
    peak = traced_peak(lambda: check_hemicontinuity(model, sampler, count=8))
    # one 2049-point profile needs about 6 MB; eight stacked need about 48 MB
    assert peak <= 16 * 2**20, peak


def test_tamed_drift_scratch_follows_the_chunk_budget():
    model = tamednse.make_tamed_nse(modes=4).model
    lattice = tamednse.build_lattice(4)
    rows = 3 * tamednse._chunk_rows(lattice) + 1
    states = FieldSampler(model.space, (0, 4)).sample(rows)
    peak = traced_peak(lambda: model.drift(0.0, states))
    assert peak <= 2 * tamednse._CHUNK_BYTES, peak


def test_variational_gap_never_copies_the_test_family():
    space = make_allen_cahn(modes=64).space
    steps, levels, paths = 200, 5, 3
    family = make_test_paths(space, seed=0, count=200, times=np.arange(steps + 1) * 1e-3)
    assert family.nbytes == 200 * 201 * 64 * 8  # 19.6 MiB
    rng = np.random.default_rng(0)
    states = rng.standard_normal((steps + 1, levels, paths, space.n_coeffs))
    dL = rng.standard_normal((steps, levels, paths, space.n_coeffs))
    peak = traced_peak(lambda: variational_gap(space, states, dL, family))
    # the weighted increments (1.5 MiB) and the family's squared radii fit;
    # one family-sized temporary does not
    assert peak < family.nbytes / 4, peak


def test_explicit_step_scratch():
    model = make_allen_cahn(modes=64).model
    levels, paths = np.array([1.0, 4.0, 16.0, 64.0, 256.0]), 200
    cfg = SchemeConfig(dt=1e-3, steps=1, n=0.0)
    # the kernel's row table with every path parted: 5 x 200 rows in use
    table = _Rows(levels * cfg.dt, paths, model.space.n_coeffs)
    table.part(np.ones(paths, dtype=bool))
    rows = table.count
    states = table.x[:rows]
    states[:] = FieldSampler(model.space, (0, 1)).sample(rows)
    dW = 0.03 * np.random.default_rng(0).standard_normal((paths, model.noise.mode_count))
    r = norm_h(model.space, states)  # the kernel's divergence check hands this over
    peak = traced_peak(lambda: step_penalized(states, 0.0, cfg, model, dW, r, table))
    # the cubic needs the grid values and one product buffer; the move, the
    # gap and the new state are built in place of one another, the new state
    # in the table, and the rows' noise (8 modes) is an eighth of a state
    grid_buffer = rows * model.grid_form.basis.grid_size * 8
    assert peak <= 2 * grid_buffer + states.nbytes, peak


LEVELS = [1.0, 4.0, 16.0]


def horizon_growth(study, paths, time_columns):
    """How much the traced peak of study(bundle, cfg) grows from 50 steps to
    1000, and the growth allowed to it.

    Allowed are the (paths, steps, K) noise block's own growth, which is
    drawn in place; time_columns float vectors on the time grid; and one step
    of the kernel with every (level, path) row parted, which at 50 steps may
    still be merged.  That step's scratch is bounded as in
    test_explicit_step_scratch (two grid buffers and a state) plus four more
    states for the studies' per-step gathers and differences.
    """
    bundle = make_allen_cahn(modes=8, mu=1.2)  # strong noise: paths part
    model = bundle.model
    study(bundle, SchemeConfig(dt=1e-3, steps=5, n=1.0))  # first-call caches
    short, long = (
        traced_peak(lambda: study(bundle, SchemeConfig(dt=1e-3, steps=s, n=1.0, seed=3)))
        for s in (50, 1000)
    )
    grown = 950 * 8  # bytes per float vector on the time grid
    rows, m = len(LEVELS) * paths, model.space.n_coeffs
    step = rows * (2 * model.grid_form.basis.grid_size + 5 * m) * 8
    noise = paths * model.noise.mode_count * grown
    return long - short, noise + time_columns * grown + step


def test_run_estimates_holds_no_time_axis():
    # its reductions are (levels, paths) accumulators, so no time column
    growth, allowed = horizon_growth(
        lambda b, cfg: run_estimates(b.model, cfg, LEVELS, 10, x0=b.x0), 10, 0
    )
    assert growth <= allowed, (growth, allowed)


def test_run_estimates_draws_its_noise_block_in_place():
    # the (paths, steps, K) block lives through the whole run, and filling it
    # may hold nothing else of a path's size: one path's (steps, K) draw is
    # 64000 B here.  The rest of the study's working set does not depend on
    # the horizon, so it is read off the 50-step run (its peak less its
    # block), plus one kernel step with every (level, path) row parted, as in
    # horizon_growth, since at 50 steps the rows may still be merged
    bundle = make_allen_cahn(modes=8, mu=1.2)
    model, paths = bundle.model, 10
    run_estimates(model, SchemeConfig(dt=1e-3, steps=5, n=1.0), LEVELS, paths, x0=bundle.x0)
    short, long = (
        traced_peak(
            lambda: run_estimates(
                model, SchemeConfig(dt=1e-3, steps=s, n=1.0, seed=3), LEVELS, paths, x0=bundle.x0
            )
        )
        for s in (50, 1000)
    )
    block = paths * model.noise.mode_count * 8  # bytes per step
    rows, m = len(LEVELS) * paths, model.space.n_coeffs
    step = rows * (2 * model.grid_form.basis.grid_size + 5 * m) * 8
    assert long <= 1000 * block + (short - 50 * block) + step, (long, short)


def test_inequality_study_holds_no_time_axis():
    # the factored test family keeps the (steps+1, 5) time shapes; with the
    # grid and the angle, building them (five columns and their stack, one
    # doubled angle) or sizing the members (the shapes, one member's
    # (steps+1, 6) curve and its squared radii) holds at most 14 columns
    growth, allowed = horizon_growth(
        lambda b, cfg: inequality_study(b.model, cfg, b.x0, LEVELS, paths=2, test_count=20),
        2,
        14,
    )
    assert growth <= allowed, (growth, allowed)
