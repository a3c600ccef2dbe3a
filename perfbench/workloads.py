"""The three benchmark workloads: inputs from a seed, one timed unit, checks.

Each workload builds its inputs from (seed, size) only, runs one unit of
work through reflectspde's public API, and checks the outputs.  Checks that
hold for every seed (finite values, oracle ordering, audit margins,
tamed-NSE stability) always apply, except that the oracle ordering needs
the full horizon, in which paths reach the sphere.  Comparison with the
committed reference values applies only at the default seed and the full
size, the inputs the reference was made from.  Failed paths are counted
apart from the checks.

Sizes keep the seed workloads' levels, modes, method and batch structure and
shrink only step, sample and count totals, so that one unit takes a few
seconds on one core and a run holds several units.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

# Loose enough for float-rounding changes (reordered sums, batched matmuls:
# relative changes near 1e-13), tight enough that any change in the sampled
# statistics (relative changes of order 1e-3 and up) fails.
REFERENCE_RTOL = 1e-6

H1_LAMBDA_POINTS = 2049  # hypotheses._LAM_GRID
DESK_N_GRID = (1.0, 4.0, 16.0, 64.0, 256.0)
ORACLE_N_GRID = (1e2, 1e3, 1e4)
DESK_ARTIFACTS = (
    "cauchy.csv",
    "estimates.csv",
    "hypotheses.csv",
    "inequality.csv",
    "manifest.json",
    "oracle1d.csv",
)


@dataclass
class Outcome:
    """What one unit of work produced."""

    outputs: object  # compared for equality across reps and traced/untraced
    path_levels: int  # (path, level) pairs attempted
    failed_paths: int
    bytes_written: int = 0
    info: dict = field(default_factory=dict)


def _check(checks, name, ok, detail=""):
    checks.append((name, bool(ok), detail))


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _ratio(num, den):
    """num / den, or None when den is not positive (the ratio is undefined)."""
    return num / den if den > 0 else None


def _close(got, want) -> tuple[bool, float]:
    """(all within REFERENCE_RTOL, largest relative difference)."""
    if len(got) != len(want):
        return False, float("inf")
    worst = 0.0
    for g, w in zip(got, want):
        diff = abs(g - w)
        if diff:
            worst = max(worst, diff / abs(w) if w else float("inf"))
    return worst <= REFERENCE_RTOL, worst


def _parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.strip().split("\n")
    return lines[0].split(","), [[float(c) for c in ln.split(",")] for ln in lines[1:]]


def _flat(rows) -> list[float]:
    return [v for row in rows for v in row]


# --------------------------------------------------------------------------


class DeskAll:
    """`reflectspde all` in process on the Allen-Cahn desk config."""

    name = "desk_all"
    work_unit, work_metric = "path-steps", "path_steps_per_s"
    default_seed = 11
    sizes = {
        "full": dict(t_final=0.2, paths=200, samples=200, h1_samples=32, ineq_paths=3),
        "tiny": dict(t_final=0.01, paths=20, samples=50, h1_samples=4, ineq_paths=2),
    }

    def __init__(self, seed, size, workdir: Path):
        from reflectspde import cli, models

        self.seed, self.size = seed, size
        self.p = self.sizes[size]
        self.steps = round(self.p["t_final"] / 1e-3)
        # estimates, cauchy and oracle1d step every path at every level
        self.path_levels = len(DESK_N_GRID) * (3 * self.p["paths"] + self.p["ineq_paths"])
        self.workdir = workdir
        self.conf = workdir / "desk.conf"
        self.out = workdir / "out"
        workdir.mkdir(parents=True, exist_ok=True)
        self.conf.write_text(self.config_text())
        # the same parse and model build cli.main repeats in each study
        config = cli.load_config(self.conf)
        models.build_model("allen_cahn", modes=config.values["model.modes"])

    def config_text(self) -> str:
        p = self.p
        return "\n".join(
            [
                "model.name = allen_cahn",
                "model.modes = 64",
                "noise.mu = 0.5",
                "noise.lambda = 0.3",
                "scheme.dt = 0.001",
                f"scheme.t_final = {p['t_final']!r}",
                "scheme.method = explicit",
                f"scheme.seed = {self.seed}",
                "run.n_grid = " + ", ".join(f"{n:g}" for n in DESK_N_GRID),
                f"run.paths = {p['paths']}",
                f"run.samples = {p['samples']}",
                f"run.h1_samples = {p['h1_samples']}",
                f"run.ineq_paths = {p['ineq_paths']}",
                "oracle.kappa = 1",
                "oracle.sigma = 0.5",
                "",
            ]
        )

    def work(self) -> int:
        """Nominal path-steps: levels x paths x steps over the four stepping studies."""
        return self.path_levels * self.steps

    def run(self, tracer=None) -> Outcome:
        from reflectspde import cli

        if self.out.exists():
            shutil.rmtree(self.out)
        code = cli.main(["all", "--config", str(self.conf), "--out", str(self.out)])
        files = {p.name: p.read_bytes() for p in sorted(self.out.iterdir())}
        failed = 0
        if "estimates.csv" in files:
            header, rows = _parse_csv(files["estimates.csv"].decode())
            failed += int(sum(r[header.index("failures")] for r in rows))
        if "inequality.csv" in files:
            _, rows = _parse_csv(files["inequality.csv"].decode())
            failed += sum(1 for r in rows if not _finite(r))
        return Outcome(
            outputs=(code, files),
            path_levels=self.path_levels,
            failed_paths=failed,
            bytes_written=sum(len(b) for b in files.values()),
        )

    def reference_values(self, outcome: Outcome) -> dict:
        _, files = outcome.outputs
        return {
            name: _flat(_parse_csv(files[name].decode())[1])
            for name in ("estimates.csv", "cauchy.csv", "oracle1d.csv")
        }

    def checks(self, outcome: Outcome, reference) -> list:
        checks = []
        code, files = outcome.outputs
        _check(checks, "exit_code_0", code == 0, f"exit code {code}")
        names = tuple(sorted(files))
        _check(checks, "six_artifacts", names == DESK_ARTIFACTS, ", ".join(names))
        if names != DESK_ARTIFACTS:
            return checks
        manifest = json.loads(files["manifest.json"])
        digests = {n: hashlib.sha256(files[n]).hexdigest() for n in DESK_ARTIFACTS}
        _check(
            checks,
            "manifest_digests",
            all(manifest["artifacts"].get(n) == d for n, d in digests.items() if n != "manifest.json"),
        )
        tables = {n: _parse_csv(files[n].decode()) for n in ("estimates.csv", "cauchy.csv", "oracle1d.csv")}
        for n, (_, rows) in tables.items():
            _check(checks, f"finite_{n}", _finite(_flat(rows)))
        hyp = files["hypotheses.csv"].decode().strip().split("\n")[1:]
        margins = [float(line.split(",")[1]) for line in hyp]
        _check(checks, "audit_margins_nonnegative", min(margins) >= 0.0, f"min {min(margins):.3g}")
        if reference is not None:
            for n, values in self.reference_values(outcome).items():
                ok, worst = _close(values, reference[n])
                _check(checks, f"reference_{n}", ok, f"max rel diff {worst:.3g} (rtol {REFERENCE_RTOL:g})")
        # known-red acceptance 4, 5 and 7: recorded as measured, never asserted
        header, rows = tables["estimates.csv"]
        col = {h: [r[i] for r in rows] for i, h in enumerate(header)}
        gaps = [r[2] for r in tables["cauchy.csv"][1]]
        outcome.info["known_red"] = {
            f"acc{k}_{c}_max_min_ratio": _ratio(max(col[c]), min(col[c]))
            for k, c in ((4, "est_sup4"), (4, "est_weighted_pen"), (5, "est_var2"), (5, "est_v_energy"))
        }
        outcome.info["known_red"]["acc7_last_over_first_gap"] = _ratio(gaps[-1], gaps[0])
        return checks


class OracleSweep:
    """Coupled 1-D oracle sweep against the clamped scheme (acceptance 3 shape)."""

    name = "oracle_sweep"
    work_unit, work_metric = "path-steps", "path_steps_per_s"
    default_seed = 3
    sizes = {"full": dict(steps=2000, paths=500), "tiny": dict(steps=50, paths=20)}

    def __init__(self, seed, size, workdir: Path):
        from reflectspde import models
        from reflectspde.penalize import SchemeConfig

        self.seed, self.size = seed, size
        self.p = self.sizes[size]
        self.cfg = SchemeConfig(dt=1e-4, steps=self.p["steps"], n=ORACLE_N_GRID[0], seed=seed)
        models.make_oracle_1d(kappa=1.0, sigma=0.5)

    def work(self) -> int:
        return len(ORACLE_N_GRID) * self.p["paths"] * self.p["steps"]

    def run(self, tracer=None) -> Outcome:
        from reflectspde import montecarlo

        report = montecarlo.oracle_compare_1d(1.0, 0.5, self.cfg, list(ORACLE_N_GRID), self.p["paths"])
        rows = tuple(
            (r.n, r.est_supdiff, r.se_supdiff, r.est_tv_diff, r.se_tv_diff, r.est_terminal_diff)
            for r in report.rows
        )
        return Outcome(outputs=rows, path_levels=len(ORACLE_N_GRID) * self.p["paths"], failed_paths=0)

    def reference_values(self, outcome: Outcome) -> dict:
        return {"oracle_rows": _flat(outcome.outputs)}

    def checks(self, outcome: Outcome, reference) -> list:
        checks = []
        rows = outcome.outputs
        _check(checks, "finite", _finite(_flat(rows)))
        sup = [r[1] for r in rows]
        if self.size == "full":  # tiny horizons end before any path reaches the sphere
            _check(checks, "supdiff_strictly_decreasing", sup[0] > sup[1] > sup[2], repr(sup))
        if reference is not None:
            ok, worst = _close(_flat(rows), reference["oracle_rows"])
            _check(checks, "reference_oracle_rows", ok, f"max rel diff {worst:.3g} (rtol {REFERENCE_RTOL:g})")
        outcome.info["supdiff"] = sup
        return checks


class Audits:
    """H1-H5 on Allen-Cahn and p-Laplacian, tamed-NSE constant stability."""

    name = "audits"
    work_unit, work_metric = "drift rows", "audit_rows_per_s"
    default_seed = 0
    sizes = {
        "full": dict(count=1000, h1_count=64, tamed_counts=(50, 100)),
        "tiny": dict(count=100, h1_count=4, tamed_counts=(4, 8)),
    }

    def __init__(self, seed, size, workdir: Path):
        from reflectspde import models, tamednse

        self.seed, self.size = seed, size
        self.p = self.sizes[size]
        self.models = {
            "allen_cahn": models.make_allen_cahn(modes=64).model,
            "p_laplacian": models.make_p_laplacian(modes=64, p=4.0).model,
        }
        self.tamed = tamednse.make_tamed_nse(modes=4).model

    def work(self) -> int:
        """Nominal drift rows: H1 samples x 2049, H2 2 x samples, H3 and H4
        samples each, per 1-D model; H3 and H4 rows per tamed count."""
        p = self.p
        per_model = p["h1_count"] * H1_LAMBDA_POINTS + 4 * p["count"]
        return len(self.models) * per_model + 2 * sum(p["tamed_counts"])

    def run(self, tracer=None) -> Outcome:
        from reflectspde import hypotheses

        p = self.p
        reports = {}
        # these models were built before tracing began, so wrap them here;
        # the other workloads' models are built inside reflectspde, where
        # the tracer's patched builders wrap them
        for name, model in self.models.items():
            model = tracer.model(model) if tracer else model
            reps = hypotheses.run_all_audits(model, seed=self.seed, count=p["count"], h1_count=p["h1_count"])
            reports[name] = tuple((r.hypothesis, r.worst_margin, r.constant) for r in reps)
        tamed = tracer.model(self.tamed) if tracer else self.tamed
        stab = hypotheses.constant_stability(
            tamed, seed=self.seed, counts=p["tamed_counts"], hypotheses=("H3", "H4", "H5")
        )
        reports["tamed_nse_stability"] = tuple((h, tuple(v)) for h, v in sorted(stab.items()))
        return Outcome(outputs=reports, path_levels=0, failed_paths=0)

    def checks(self, outcome: Outcome, reference) -> list:
        checks = []
        for name in self.models:
            rows = outcome.outputs[name]
            _check(checks, f"finite_{name}", _finite([v for _, m, c in rows for v in (m, c)]))
            worst = min(m for _, m, _ in rows)
            _check(checks, f"zero_violations_{name}", worst >= 0.0, f"worst margin {worst:.3g}")
        for h, (a, b) in outcome.outputs["tamed_nse_stability"]:
            hi = max(abs(a), abs(b))
            stable = hi == 0.0 or (a * b > 0 and hi / min(abs(a), abs(b)) <= 2.0)
            _check(checks, f"tamed_stable_{h}", stable, f"{a:.4g} -> {b:.4g}")
        return checks


WORKLOADS = {w.name: w for w in (DeskAll, OracleSweep, Audits)}
