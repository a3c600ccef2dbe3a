"""Span tracing of reflectspde's layers, applied from outside the package.

`Tracer.patch()` replaces each traced function at every place it is reachable
by name: every `reflectspde.*` module attribute bound to it (so
`montecarlo.norm_h`, `penalize.norm_h`, `hilbert.norm_h`, ... all see the
wrapper), the two transform methods on the `TrigBasis1D` class, and the model
builders, whose bundles come back with the drift closures wrapped through
`dataclasses.replace` on the `ModelSpec`.  `Tracer.restore()` undoes every
patch.  Wrappers only time and count; they never touch arguments or results,
so traced outputs must equal untraced ones, and the benchmark asserts it.

A span is (name, start, end, parent span, rows, flops, bytes); spans are kept
in compact arrays in memory and written out by `save()` at the end of a run.
Self time is a span's duration minus the durations of its direct children.
The flop and byte counts are computed from array sizes, not measured.
"""

from __future__ import annotations

import dataclasses
import sys
from array import array
from time import perf_counter

import numpy as np

# Span names, grouped by the module (layer) that owns the traced function.
LAYER_SPANS = {
    "cli": ("cli.main",),
    "montecarlo": (
        "montecarlo.run_estimates",
        "montecarlo.cauchy_study",
        "montecarlo.oracle_compare_1d",
        "montecarlo.uniqueness_check",
    ),
    "penalize": (
        "penalize.step_penalized",
        "penalize.simulate_path",
        "penalize.brownian_increments",
    ),
    "hilbert": ("hilbert.norm_h", "hilbert.penalty_gap"),
    "models": ("models.drift", "models.nonstiff_drift", "models.apply_noise"),
    "fourier": ("fourier.to_grid", "fourier.to_coeffs"),
    "tamednse": ("tamednse.tamed_drift",),
    "hypotheses": (
        "hypotheses.check_hemicontinuity",
        "hypotheses.check_local_monotonicity",
        "hypotheses.check_coercivity",
        "hypotheses.check_growth_and_lipschitz",
        "hypotheses.constant_stability",
    ),
    "localtime": ("localtime.inequality_study", "localtime.variational_gap"),
}

UNITS = {
    "penalize.step_calls": "count",
    "penalize.rows_per_step_call": "rows/call",
    "penalize.step_self_s": "s",
    "penalize.step_us_p50": "us",
    "penalize.step_us_p99": "us",
    "penalize.simulate_path_s": "s",
    "penalize.brownian_s": "s",
    "hilbert.norm_calls": "count",
    "hilbert.norms_per_path_step": "calls/step",
    "hilbert.norm_s": "s",
    "montecarlo.self_s": "s",
    "montecarlo.failed_paths": "count",
    "models.drift_calls": "count",
    "models.drift_rows": "count",
    "models.drift_self_s": "s",
    "models.noise_s": "s",
    "fourier.transform_calls": "count",
    "fourier.rows_per_call": "rows/call",
    "fourier.transform_s": "s",
    "fourier.flops_computed": "flop",
    "fourier.bytes_computed": "B",
    "tamednse.drift_calls": "count",
    "tamednse.drift_rows": "count",
    "tamednse.drift_s": "s",
    "tamednse.fft_bytes_computed": "B",
    "hypotheses.h1_s": "s",
    "hypotheses.h2_s": "s",
    "hypotheses.h3_s": "s",
    "hypotheses.h45_s": "s",
    "hypotheses.stability_s": "s",
    "localtime.gap_calls": "count",
    "localtime.gap_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_frac": "ratio",
}

# FFTs of one (G, G, G, 3) complex cube per row in tamednse._nonlinear_hat:
# velocity, three derivatives, and the forward transform of the product.
_TAMED_FFTS_PER_ROW = 5


def _rows(arr) -> int:
    shape = np.shape(arr)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    """Records nested spans around reflectspde's layer boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.rows = array("q")
        self.flops = array("d")
        self.bytes = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, work=None):
        """Return fn wrapped in a span; work(args, kwargs) -> (rows, flops, bytes)."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            rows, flops, nbytes = work(args, kwargs) if work else (0, 0.0, 0.0)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.rows.append(rows)
            self.flops.append(flops)
            self.bytes.append(nbytes)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.start[idx] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def model(self, model):
        """The same ModelSpec with its drift closures wrapped in spans."""

        def rows(args, kwargs):  # drift(t, state)
            return _rows(args[1]), 0.0, 0.0

        changes = {"drift": self.wrap("models.drift", model.drift, rows)}
        if model.nonstiff_drift is not None:
            changes["nonstiff_drift"] = self.wrap(
                "models.nonstiff_drift", model.nonstiff_drift, rows
            )
        return dataclasses.replace(model, **changes)

    def _bundle(self, builder):
        def traced_builder(*args, **kwargs):
            bundle = builder(*args, **kwargs)
            return dataclasses.replace(bundle, model=self.model(bundle.model))

        return traced_builder

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if modname != "reflectspde" and not modname.startswith("reflectspde."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def patch(self):
        from reflectspde import (
            cli,
            fourier,
            hilbert,
            hypotheses,
            localtime,
            models,
            montecarlo,
            penalize,
            tamednse,
        )

        def first_rows(a, k):
            return (_rows(a[0]), 0.0, 0.0)

        def second_rows(a, k):
            return (_rows(a[1]), 0.0, 0.0)

        def matmul_work(a, k):
            basis, x = a[0], a[1]
            rows = _rows(x)
            m, g = basis.modes, basis.grid_size
            return rows, 2.0 * rows * m * g, 8.0 * (rows * m + rows * g + m * g)

        def tamed_work(a, k):
            lattice, state = a[0], a[2]
            rows = _rows(state)
            cube = lattice.grid_size**3 * 3 * 16
            return rows, 0.0, float(rows * _TAMED_FFTS_PER_ROW * 2 * cube)

        functions = [
            ("cli.main", cli.main, None),
            ("montecarlo.run_estimates", montecarlo.run_estimates, None),
            ("montecarlo.cauchy_study", montecarlo.cauchy_study, None),
            ("montecarlo.oracle_compare_1d", montecarlo.oracle_compare_1d, None),
            ("montecarlo.uniqueness_check", montecarlo.uniqueness_check, None),
            ("penalize.step_penalized", penalize.step_penalized, first_rows),
            ("penalize.simulate_path", penalize.simulate_path, None),
            ("penalize.brownian_increments", penalize.brownian_increments, None),
            ("hilbert.norm_h", hilbert.norm_h, second_rows),
            ("hilbert.penalty_gap", hilbert.penalty_gap, second_rows),
            ("models.apply_noise", models.apply_noise, second_rows),
            ("tamednse.tamed_drift", tamednse.tamed_drift, tamed_work),
            ("localtime.inequality_study", localtime.inequality_study, None),
            ("localtime.variational_gap", localtime.variational_gap, None),
        ]
        for name in LAYER_SPANS["hypotheses"]:
            fn = getattr(hypotheses, name.split(".", 1)[1])
            functions.append((name, fn, None))
        for name, fn, work in functions:
            self._patch_everywhere(fn, self.wrap(name, fn, work))
        for method in ("to_grid", "to_coeffs"):
            fn = getattr(fourier.TrigBasis1D, method)
            self._set(fourier.TrigBasis1D, method, self.wrap(f"fourier.{method}", fn, matmul_work))
        # builders whose bundles carry model closures the benchmark never sees
        self._patch_everywhere(models.build_model, self._bundle(models.build_model))
        self._patch_everywhere(models.make_oracle_1d, self._bundle(models.make_oracle_1d))

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def spans(self):
        """Per-span arrays: name index, duration, self time, rows, flops, bytes."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "dur": dur,
            "self": dur - child_time,
            "rows": np.frombuffer(self.rows, dtype=np.int64),
            "flops": np.frombuffer(self.flops, dtype=float),
            "bytes": np.frombuffer(self.bytes, dtype=float),
        }

    def save(self, path):
        """Write every span (name, start, end, parent id, work) to an .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            rows=np.frombuffer(self.rows, dtype=np.int64),
            flops=np.frombuffer(self.flops, dtype=float),
            bytes=np.frombuffer(self.bytes, dtype=float),
        )


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """(counts, times) per layer from one traced repetition.

    Counts (calls, rows, computed flops and bytes) repeat exactly from run to
    run; times do not.
    """
    s = tracer.spans()
    index = {name: i for i, name in enumerate(tracer.names)}

    def select(*names):
        ids = [index[n] for n in names if n in index]
        return np.isin(s["name_id"], ids)

    def total(key, *names):
        return float(np.sum(s[key][select(*names)]))

    def calls(*names):
        return int(np.count_nonzero(select(*names)))

    step = select("penalize.step_penalized")
    step_us = s["dur"][step] * 1e6
    step_calls = int(np.count_nonzero(step))
    norm_calls = calls("hilbert.norm_h")
    transforms = ("fourier.to_grid", "fourier.to_coeffs")
    transform_calls = calls(*transforms)
    drifts = ("models.drift", "models.nonstiff_drift")

    counts = {
        "penalize.step_calls": step_calls,
        "penalize.rows_per_step_call": (
            total("rows", "penalize.step_penalized") / step_calls if step_calls else 0.0
        ),
        "hilbert.norm_calls": norm_calls,
        "hilbert.norms_per_path_step": norm_calls / step_calls if step_calls else 0.0,
        "models.drift_calls": calls(*drifts),
        "models.drift_rows": int(total("rows", *drifts)),
        "fourier.transform_calls": transform_calls,
        "fourier.rows_per_call": (
            total("rows", *transforms) / transform_calls if transform_calls else 0.0
        ),
        "fourier.flops_computed": total("flops", *transforms),
        "fourier.bytes_computed": total("bytes", *transforms),
        "tamednse.drift_calls": calls("tamednse.tamed_drift"),
        "tamednse.drift_rows": int(total("rows", "tamednse.tamed_drift")),
        "tamednse.fft_bytes_computed": total("bytes", "tamednse.tamed_drift"),
        "localtime.gap_calls": calls("localtime.variational_gap"),
    }
    times = {
        "penalize.step_self_s": total("self", "penalize.step_penalized"),
        "penalize.step_us_p50": float(np.percentile(step_us, 50)) if step_calls else 0.0,
        "penalize.step_us_p99": float(np.percentile(step_us, 99)) if step_calls else 0.0,
        "penalize.simulate_path_s": total("dur", "penalize.simulate_path"),
        "penalize.brownian_s": total("dur", "penalize.brownian_increments"),
        "hilbert.norm_s": total("dur", "hilbert.norm_h"),
        "montecarlo.self_s": total("self", *LAYER_SPANS["montecarlo"]),
        "models.drift_self_s": total("self", *drifts),
        "models.noise_s": total("dur", "models.apply_noise"),
        "fourier.transform_s": total("dur", *transforms),
        "tamednse.drift_s": total("dur", "tamednse.tamed_drift"),
        "hypotheses.h1_s": total("dur", "hypotheses.check_hemicontinuity"),
        "hypotheses.h2_s": total("dur", "hypotheses.check_local_monotonicity"),
        "hypotheses.h3_s": total("dur", "hypotheses.check_coercivity"),
        "hypotheses.h45_s": total("dur", "hypotheses.check_growth_and_lipschitz"),
        "hypotheses.stability_s": total("dur", "hypotheses.constant_stability"),
        "localtime.gap_s": total("dur", "localtime.variational_gap"),
        "cli.self_s": total("self", "cli.main"),
    }
    return counts, times
