"""Self-test of the benchmark at tiny size; not part of the test suite.

    python3 perfbench/smoke.py

Runs every workload of workloads.py at --size tiny, untraced and traced,
and checks that the last output line carries exactly the keys of the result
contract, that the run is correct, and that every metric BENCHMARK.json
names is emitted with its declared unit and a finite value.  Then copies BENCHMARK.json and the
benchmark directory alone into .bench_build/ and checks that the benchmark
refuses to run there: non-zero exit and no result line.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170


def run(cwd: Path, *args) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=str(cwd), capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(spec, workload, trace) -> list[str]:
    proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} attempted={result.get('attempted')}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"{where}: missing {sorted(set(declared) - set(metrics))}, "
                        f"undeclared {sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        got = metrics.get(name, {})
        value = got.get("value")
        if got.get("unit") != unit:
            problems.append(f"{where}: {name} unit {got.get('unit')!r}, declared {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")
    return problems


def check_refuses_without_program(spec) -> list[str]:
    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, "--workload", "oracle_sweep", "--seed", "3", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return [f"bare directory: exit {proc.returncode}, last line {last[0]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
    problems += check_refuses_without_program(spec)
    for p in problems:
        print("SMOKE FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
