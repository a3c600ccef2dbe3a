"""reflectspde benchmark: end-to-end metrics per workload, or per-layer with --trace 1.

    python3 perfbench/run.py --workload desk_all --seed 11 --seconds 55 --trace 0
    python3 perfbench/run.py            # every workload at its default seed

Run from a checkout of the repository; the program is imported from its
`src/` tree.  Every process this script starts runs one workload with the
thread environment fixed to one thread; nothing is inherited.  Build output,
work files and results go under `.bench_build/` in the checkout.

With --trace 0 the workload's unit is repeated in one process until --seconds
are used up, and the unit time is the median over those repetitions.  The
set-up time is the median over that process and SETUP_PROCESSES_EACH_SIDE
fresh processes before it and as many after it, so that its samples span the
run.  With
--trace 1 one process alternates untraced and traced units and reports the
per-layer metrics of tracer.py.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the exit code is
non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
SETUP_PROCESSES_EACH_SIDE = 3
RUN_LIMIT_S = 170  # every process of one workload run ends within this
THREADS = 1  # per process; at most nproc


class BenchError(Exception):
    pass


def machine_facts() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # bytecode is cached under .bench_build
    threads = str(min(THREADS, os.cpu_count() or 1))
    env.update(
        {
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONPYCACHEPREFIX": str(BUILD / "pycache"),
            "PYTHONHASHSEED": "0",
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "MKL_NUM_THREADS": threads,
            "REFLECTSPDE_THREADS": threads,
        }
    )
    return env


def run_child(workload, seed, size, mode, seconds, workdir, deadline, spans=None) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--size", size,
        "--mode", mode,
        "--seconds", repr(float(seconds)),
        "--workdir", str(workdir),
    ]
    if spans:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic()
    if t0 >= deadline:
        raise BenchError(f"{workload}: run limit of {RUN_LIMIT_S}s reached before {mode}")
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)],
            env=child_env(),
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=deadline - t0,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} process killed at the run limit of {RUN_LIMIT_S}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} process failed (exit {proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def _summary(values) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": list(values),
    }


def run_workload(workload, seed, seconds, trace, size) -> dict:
    workdir = BUILD / "work" / f"{workload}-{os.getpid()}"
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-{size}-trace{trace}"
    deadline = time.monotonic() + RUN_LIMIT_S

    def setup_samples():
        return [
            run_child(workload, seed, size, "setup", 0, workdir, deadline)["setup_s"]
            for _ in range(SETUP_PROCESSES_EACH_SIDE)
        ]

    try:
        if trace:
            spans = results / f"{stem}.spans.npz"
            child = run_child(workload, seed, size, "trace", seconds, workdir, deadline, spans)
            values = {**child["counts"], **child["times"], "trace.overhead_frac": child["overhead_frac"]}
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
            samples = {"wall_s": _summary(child["wall_s"]), "traced_wall_s": _summary(child["traced_wall_s"])}
        else:
            setups = setup_samples()
            child = run_child(workload, seed, size, "measure", seconds, workdir, deadline)
            setups += [child["setup_s"]] + setup_samples()
            wall = statistics.median(child["wall_s"])
            metrics = {
                "wall_s": {"value": wall, "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "work_per_s": {"value": child["work_per_rep"] / wall, "unit": "1/s"},
                "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
            }
            samples = {"wall_s": _summary(child["wall_s"]), "setup_s": _summary(setups)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "workload": workload,
        "seed": seed,
        "default_seed": seed == WORKLOADS[workload].default_seed,
        "reference_checked": child["reference_checked"],
        "size": size,
        "trace": trace,
        "seconds": seconds,
        "work_unit": WORKLOADS[workload].work_unit,
        "work_per_rep": child["work_per_rep"],
        "metrics": metrics,
        "samples": samples,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "failures": child["failures"],
        "info": child["info"],
        "machine": {**machine_facts(), **child["machine"]},
    }
    (results / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def report(result) -> None:
    """Human-readable block; every number with its unit and sample count."""
    w = result["workload"]
    m, s = result["metrics"], result["samples"]
    print(f"== {w}  seed {result['seed']}  size {result['size']}  trace {result['trace']}")
    if result["trace"]:
        for name in sorted(m):
            print(f"  {name:34s} {m[name]['value']:.6g} {m[name]['unit']}")
        print(f"  (untraced units n={s['wall_s']['n']}, traced units n={s['traced_wall_s']['n']})")
    else:
        work_name = WORKLOADS[w].work_metric
        ws = s["wall_s"]
        print(f"  wall_s            {m['wall_s']['value']:.4f} s   median of n={ws['n']} units "
              f"(min {ws['min']:.4f}, max {ws['max']:.4f})")
        print(f"  setup_s           {m['setup_s']['value']:.4f} s   median of n={s['setup_s']['n']} processes")
        print(f"  {work_name:17s} {m['work_per_s']['value']:.6g} 1/s   "
              f"({result['work_per_rep']} {result['work_unit']} per unit / median wall_s; "
              f"metric work_per_s)")
        print(f"  peak_rss_mb       {m['peak_rss_mb']['value']:.1f} MB  (n=1 measuring process)")
    frac = result["failed"] / result["attempted"]
    print(f"  failed_frac       {frac:.4g}   ({result['failed']} failed of {result['attempted']}: "
          f"path-levels plus output checks, over every unit run)")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    for key, value in result["info"].get("known_red", {}).items():
        shown = "undefined" if value is None else f"{value:.4g}"
        print(f"  known-red (recorded, not asserted) {key} = {shown}")
    checked = "with" if result["reference_checked"] else "without"
    print(f"  output checks ran {checked} the committed reference values")
    print(f"  machine {json.dumps(result['machine'], sort_keys=True)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the self-test only")
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 60:
        ap.error("--seconds must lie in (0, 60]")
    if not (ROOT / "src" / "reflectspde" / "__init__.py").is_file():
        print(f"no reflectspde source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
            results.append(run_workload(name, seed, args.seconds, args.trace, args.size))
            report(results[-1])
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
