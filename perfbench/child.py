"""One benchmark process: build a workload's inputs, then time, trace or stop.

Started by run.py with the thread environment already fixed.  Modes:

setup    build the inputs and report the set-up time only;
measure  also repeat the workload's unit until --seconds are used up;
trace    alternate untraced and traced units until --seconds are used up.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3


def _machine_facts() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "REFLECTSPDE_THREADS")
        },
    }


class Tally:
    """Attempted and failed operations: path-levels plus output checks."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_outputs = None
        self.info = {}

    def add(self, outcome, extra_checks=()):
        checks = self.workload.checks(outcome, self.reference) + list(extra_checks)
        if self.first_outputs is None:
            self.first_outputs = outcome.outputs
        else:
            checks.append(("same_outputs_every_rep", outcome.outputs == self.first_outputs, ""))
        self.attempted += outcome.path_levels + len(checks)
        self.failed += outcome.failed_paths
        for name, ok, detail in checks:
            if not ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{name}: {detail}")
        self.info = outcome.info

    def result(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "info": self.info,
        }


def _timed(workload, tracer=None):
    t0 = time.perf_counter()
    outcome = workload.run(tracer)
    return outcome, time.perf_counter() - t0


def measure(workload, tally, seconds) -> dict:
    deadline = time.perf_counter() + seconds
    walls = []
    while True:
        outcome, wall = _timed(workload)
        walls.append(wall)
        tally.add(outcome)
        if len(walls) >= MIN_REPS and time.perf_counter() + statistics.median(walls) > deadline:
            break
    return {"wall_s": walls}


def trace(workload, tally, seconds, spans_path) -> dict:
    from tracer import Tracer, layer_metrics

    deadline = time.perf_counter() + seconds
    plain, traced, times = [], [], []
    counts = first = None
    while True:
        outcome, wall = _timed(workload)
        plain.append(wall)
        tally.add(outcome)
        tracer = Tracer()
        tracer.patch()
        try:
            traced_outcome, traced_wall = _timed(workload, tracer)
        finally:
            tracer.restore()
        traced.append(traced_wall)
        rep_counts, rep_times = layer_metrics(tracer)
        rep_counts["montecarlo.failed_paths"] = traced_outcome.failed_paths
        rep_counts["cli.bytes_written"] = traced_outcome.bytes_written
        extra = [("traced_outputs_equal_untraced", traced_outcome.outputs == outcome.outputs, "")]
        if first is None:
            counts, first = rep_counts, tracer
        else:
            extra.append(("trace_counts_repeat", rep_counts == counts, ""))
        tally.add(traced_outcome, extra)
        times.append(rep_times)
        pair = statistics.median(plain) + statistics.median(traced)
        if time.perf_counter() + pair > deadline:
            break
    first.save(spans_path)
    layer_times = {k: statistics.median(t[k] for t in times) for k in times[0]}
    return {
        "wall_s": plain,
        "traced_wall_s": traced,
        "counts": counts,
        "times": layer_times,
        "overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="where trace mode writes its spans")
    args = ap.parse_args(argv)

    import reflectspde

    src = (ROOT / "src").resolve()
    if src not in Path(reflectspde.__file__).resolve().parents:
        print(f"reflectspde imported from {reflectspde.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, args.size, Path(args.workdir))
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if args.mode != "setup":
        reference = None
        ref_all = json.loads((HERE / "reference.json").read_text())
        ref = ref_all.get(args.workload)
        if ref and ref["seed"] == args.seed and ref["size"] == args.size:
            reference = ref["values"]
        tally = Tally(workload, reference)
        if args.mode == "measure":
            result.update(measure(workload, tally, args.seconds))
        else:
            result.update(trace(workload, tally, args.seconds, args.spans))
        result.update(tally.result())
        result["work_per_rep"] = workload.work()
        result["reference_checked"] = reference is not None
        result["machine"] = _machine_facts()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
