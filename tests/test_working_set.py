"""Traced working sets of the audit, tamed-drift, variational-gap and stepping
hot paths stay bounded.

numpy reports its array allocations to tracemalloc, so the traced peak of a
call is the numpy scratch it holds at once.
"""

import tracemalloc

import numpy as np

from reflectspde import tamednse
from reflectspde.hilbert import norm_h
from reflectspde.hypotheses import FieldSampler, check_hemicontinuity
from reflectspde.localtime import make_test_paths, variational_gap
from reflectspde.models import make_allen_cahn
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
    lattice = model.space.transform
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
    grid_buffer = rows * model.space.transform.grid_size * 8
    assert peak <= 2 * grid_buffer + states.nbytes, peak
