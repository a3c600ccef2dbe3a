"""Experiment runner: flat dotted-key configs in, CSV artifacts + manifest out.

Config format — UTF-8 text, one `key = value` per line, `#` comments, blank
lines ignored:

    model.name     = allen_cahn
    model.modes    = 64
    noise.mu       = 0.2
    noise.lambda   = 0.15
    scheme.dt      = 1e-3
    scheme.t_final = 1.0
    scheme.method  = explicit
    scheme.seed    = 7
    run.n_grid     = 1,4,16,64,256
    run.paths      = 200

A model takes a ``model.*`` or ``noise.*`` key exactly when its builder in
``models.REGISTRY`` has the keyword the key maps to; any other is an error.
``oracle.*`` keys are an error on an ``oracle_1d`` config, whose ``model.*``
keys the oracle1d study reads.  ``run.n_grid`` has no empty item.

Each study returns one `montecarlo.Report`; a run writes ``<study>.csv``
for each study it ran, plus ``manifest.json`` recording the config hash,
effective seed, and per-artifact SHA-256 checksums.  Artifacts are
byte-identical across reruns (reduction order is fixed).  ``--threads`` is
accepted and validated (>= 1) but has no effect: every study runs in one
thread, and no environment variable is read.  The seed, ``--seed`` or else
``scheme.seed``, must be >= 0 for every subcommand, and every level of
``run.n_grid`` must be one that `SchemeConfig` accepts.  A run steps the
configured model once, as one coupled ensemble that feeds each study it
wants its leading paths: ``run.paths`` to the estimates and Cauchy gaps,
``run.ineq_paths`` (3 when unset) to the inequality table.  The 1-D oracle
comparison steps its own stack, which ends in the projection level.  So the
``estimates.csv`` and ``cauchy.csv`` of ``all`` are the single subcommands'
when ``run.ineq_paths`` is at most ``run.paths``; its ``inequality.csv`` may
differ from the ``inequality`` subcommand's in the last digits, since the
matrix products of the model's transforms round a row differently in a
larger batch.
Counts are checked before any study starts, and must be usable
(``run.paths >= 2``, ``run.samples >= 1``, ``run.h1_samples >= 0``
with 0 meaning ``run.samples``, ``run.ineq_paths``, ``run.test_paths >= 1``).
A study is passed only the ``run.*`` values its config sets.

Exit codes: 0 success, 2 configuration error or an allocation that cannot be
made, 3 numerical failure (a failed path in any study; every report is still
written, and each failing study gets one stderr line
``numerical failure: <study>: <k> failed paths``).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import ReflectSPDEError
from .hypotheses import run_all_audits
from .localtime import _Inequality, inequality_study
from .models import REGISTRY, ModelBundle, build_model
from .montecarlo import Report, _Estimates, oracle_compare_1d
from .penalize import SchemeConfig, _ensemble

__all__ = ["ExperimentConfig", "load_config", "run_experiment", "main"]

SUBCOMMANDS = ("estimates", "cauchy", "inequality", "hypotheses", "oracle1d", "all")

# master schema: dotted key -> type caster
_INT = int
_STR = str


def _FLOAT(text: str) -> float:
    """A finite float: no scalar key has a meaningful nan or inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _float_list(text: str) -> list[float]:
    items = [t.strip() for t in text.split(",")]
    if "" in items:
        raise ValueError("empty item")
    return [float(t) for t in items]


# config key -> (model-builder keyword, type caster); a model takes the key
# exactly when the signature of its REGISTRY builder has the keyword
_MODEL_KEYS = {
    "model.modes": ("modes", _INT),
    "model.p": ("p", _FLOAT),
    "model.nu": ("nu", _FLOAT),
    "model.taming_n": ("taming_n", _FLOAT),
    "model.kappa": ("kappa", _FLOAT),
    "model.sigma": ("sigma", _FLOAT),
    "model.x0_radius": ("x0_radius", _FLOAT),
    "noise.modes": ("noise_modes", _INT),
    "noise.mu": ("mu", _FLOAT),
    "noise.lambda": ("lam", _FLOAT),
    "noise.q_decay": ("q_decay", _FLOAT),
}

_SCHEMA = {
    "model.name": _STR,
    **{key: caster for key, (_, caster) in _MODEL_KEYS.items()},
    "scheme.dt": _FLOAT,
    "scheme.t_final": _FLOAT,
    "scheme.method": _STR,
    "scheme.seed": _INT,
    "run.n_grid": _float_list,
    "run.paths": _INT,
    "run.delta": _FLOAT,
    "run.test_paths": _INT,
    "run.ineq_paths": _INT,
    "run.samples": _INT,
    "run.h1_samples": _INT,
    "run.out": _STR,
    "oracle.kappa": _FLOAT,
    "oracle.sigma": _FLOAT,
}


class ConfigError(Exception):
    """Raised with a field-level diagnostic; maps to exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    values: dict
    raw_bytes: bytes

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def require(self, key: str):
        if key not in self.values:
            raise ConfigError(f"{key}: required key is missing")
        return self.values[key]


def parse_config_text(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if key in entries:
            raise ConfigError(f"{key}: duplicate key (line {lineno})")
        entries[key] = value
    return entries


def load_config(path) -> ExperimentConfig:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"--config: cannot read {path}: {exc}") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"--config: {path} is not UTF-8 text ({exc})") from None
    entries = parse_config_text(text)
    values = {}
    for key, text in entries.items():
        if key not in _SCHEMA:
            raise ConfigError(f"{key}: unknown key")
        try:
            values[key] = _SCHEMA[key](text)
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse {text!r} ({exc})") from None
    if "model.name" in values and values["model.name"] not in REGISTRY:
        raise ConfigError(
            f"model.name: unknown model {values['model.name']!r}; "
            f"available: {sorted(REGISTRY)}"
        )
    for key in ("oracle.kappa", "oracle.sigma"):
        if key in values and values.get("model.name") == "oracle_1d":
            model_key = key.replace("oracle.", "model.")
            raise ConfigError(f"{key}: ambiguous on an oracle_1d config; set {model_key} instead")
    return ExperimentConfig(values=values, raw_bytes=raw)


def _model_kwargs(config: ExperimentConfig) -> tuple[str, dict]:
    """The model's name and the builder keywords its config sets."""
    name = config.require("model.name")
    parameters = inspect.signature(REGISTRY[name]).parameters
    kwargs = {}
    for key, value in config.values.items():
        if key in _MODEL_KEYS:
            keyword = _MODEL_KEYS[key][0]
            if keyword not in parameters:
                raise ConfigError(f"{key}: not a parameter of model {name!r}")
            kwargs[keyword] = value
    return name, kwargs


def _build_bundle(config: ExperimentConfig) -> ModelBundle:
    name, kwargs = _model_kwargs(config)
    try:
        return build_model(name, **kwargs)
    except ReflectSPDEError as exc:
        raise ConfigError(f"model.name: cannot build {name!r}: {exc}") from None


def _build_scheme(config: ExperimentConfig, seed: int) -> tuple[SchemeConfig, list[float]]:
    """The scheme at the first level of run.n_grid, and the grid, whose every
    level SchemeConfig has accepted."""
    dt = float(config.require("scheme.dt"))
    t_final = float(config.require("scheme.t_final"))
    if dt <= 0 or t_final <= 0:
        raise ConfigError("scheme.dt/scheme.t_final: must be positive")
    ratio = t_final / dt
    if not math.isfinite(ratio):
        raise ConfigError(
            f"scheme.t_final: {t_final:g} / scheme.dt = {dt:g} overflows the step count"
        )
    steps = int(round(ratio))
    if steps < 1:
        raise ConfigError("scheme.t_final: horizon shorter than one step")
    if abs(ratio - steps) > 1e-9 * ratio:
        raise ConfigError(
            f"scheme.t_final: {t_final:g} is not a whole number of steps of "
            f"scheme.dt = {dt:g} (ratio {ratio:.12g})"
        )
    method = config.get("scheme.method", "explicit")
    try:
        cfg = SchemeConfig(dt=dt, steps=steps, n=0.0, method=method, seed=seed)
    except ReflectSPDEError as exc:
        raise ConfigError(f"scheme: {exc}") from None
    n_grid = config.require("run.n_grid")
    try:
        levels = [cfg.with_n(n) for n in n_grid]
    except ReflectSPDEError as exc:
        raise ConfigError(f"run.n_grid: {exc}") from None
    return levels[0], n_grid


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _count(config: ExperimentConfig, key: str, least: int) -> int:
    value = config.require(key)
    if value < least:
        raise ConfigError(f"{key}: must be >= {least}, got {value}")
    return value


def _set_counts(config: ExperimentConfig, keywords: dict) -> dict:
    """{keyword: count} of each key, key -> (keyword, least), the config sets."""
    return {
        keyword: _count(config, key, least)
        for key, (keyword, least) in keywords.items()
        if key in config.values
    }


class AuditRow(NamedTuple):
    hypothesis: str
    margin: float
    constant: float
    seed: int


def _studies(config: ExperimentConfig, wanted, seed: int) -> dict:
    """Each wanted task's study as a call, built after the bundle, the scheme
    and every count the task reads are checked.

    The bundle and the scheme are built at most once: `hypotheses` builds no
    scheme, and `oracle1d` builds no bundle; it binds the oracle builder's
    arguments, from the `model.*` keys of an `oracle_1d` config, so that
    `estimates` steps the same oracle, and else from the `oracle.*` keys,
    the builder's defaults filling in what is left out.  The estimates and
    Cauchy gaps (one `_Estimates`) and the inequality table (`_Inequality`,
    bound from `inequality_study`'s signature) are reductions over one
    ensemble of the model, opened on the paths of whichever reads more and
    stepped once, when the first of them is called.
    """
    stepping = any(t != "hypotheses" for t in wanted)
    cfg, n_grid = _build_scheme(config, seed) if stepping else (None, None)
    if "cauchy" in wanted and len(n_grid) < 2:
        raise ConfigError("run.n_grid: the cauchy study needs at least 2 levels")
    bundle = _build_bundle(config) if any(t != "oracle1d" for t in wanted) else None

    studies, reductions = {}, {}  # reductions: task -> (paths, builder)
    if "estimates" in wanted or "cauchy" in wanted:
        paths = _count(config, "run.paths", 2)
        reductions["estimates"] = paths, functools.partial(
            _Estimates, bundle.model, cfg, n_grid, paths, bundle.x0
        )
    if "inequality" in wanted:
        ineq = _set_counts(
            config, {"run.ineq_paths": ("paths", 1), "run.test_paths": ("test_count", 1)}
        )
        if "run.delta" in config.values:
            ineq["delta"] = delta = config.values["run.delta"]
            if not 0.0 < delta < 1.0:
                raise ConfigError(f"run.delta: must lie in (0, 1), got {delta}")
        study = inspect.signature(inequality_study).bind(
            bundle.model, cfg, bundle.x0, n_grid, **ineq
        )
        study.apply_defaults()
        reductions["inequality"] = study.arguments["paths"], functools.partial(
            _Inequality, **study.arguments
        )
    if reductions:

        @functools.cache
        def results():  # one ensemble feeds every reduction, built once it has opened
            reach = max(lead for lead, _ in reductions.values())
            feed = _ensemble(bundle.model, cfg, n_grid, bundle.x0, reach)
            return dict(zip(reductions, feed(*(build() for _, build in reductions.values()))))

        studies["estimates"] = lambda: results()["estimates"][0]
        studies["cauchy"] = lambda: results()["estimates"][1]
        studies["inequality"] = lambda: results()["inequality"]
    if "hypotheses" in wanted:
        # run.h1_samples = 0 passes h1_count 0, which run_all_audits reads as count
        sizes = _set_counts(
            config, {"run.samples": ("count", 1), "run.h1_samples": ("h1_count", 0)}
        )

        def audits():
            reports = run_all_audits(bundle.model, seed=seed, **sizes)
            rows = [AuditRow(r.hypothesis, r.worst_margin, r.constant, int(r.seed)) for r in reports]
            return Report(tuple(rows), 0)

        studies["hypotheses"] = audits
    if "oracle1d" in wanted:
        if config.get("model.name") == "oracle_1d":
            given, keys = _model_kwargs(config)[1], "model.name"
        else:
            given = {
                key.removeprefix("oracle."): value
                for key, value in config.values.items()
                if key.startswith("oracle.")
            }
            keys = ", ".join(f"oracle.{keyword}" for keyword in given)
        oracle = inspect.signature(REGISTRY["oracle_1d"]).bind(**given)
        oracle.apply_defaults()
        try:  # the oracle's declared constants are checked before any study runs
            REGISTRY["oracle_1d"](**oracle.arguments)
        except ReflectSPDEError as exc:
            raise ConfigError(f"{keys}: cannot build 'oracle_1d': {exc}") from None
        kappa, sigma = oracle.arguments["kappa"], oracle.arguments["sigma"]
        paths = _count(config, "run.paths", 2)
        studies["oracle1d"] = lambda: oracle_compare_1d(kappa, sigma, cfg, n_grid, paths)
    return {task: studies[task] for task in wanted}


def run_experiment(config: ExperimentConfig, subcommand: str, out_dir, seed=None):
    """Run one subcommand; returns (exit_code, artifact paths).

    Every study writes `<study>.csv` and reports its failed paths; each
    study with failures gets one line on stderr.
    """
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}; choose from {SUBCOMMANDS}")
    wanted = SUBCOMMANDS[:-1] if subcommand == "all" else (subcommand,)
    key = "scheme.seed" if seed is None else "--seed"
    seed = int(config.get("scheme.seed", 0) if seed is None else seed)
    if seed < 0:
        raise ConfigError(f"{key}: must be >= 0, got {seed}")
    studies = _studies(config, wanted, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts: list[Path] = []
    failures = {}
    for task, study in studies.items():
        report = study()
        path = out / f"{task}.csv"
        report.to_csv(path)
        artifacts.append(path)
        failures[task] = report.failures

    manifest = {
        "config_sha256": hashlib.sha256(config.raw_bytes).hexdigest(),
        "seed": seed,
        "subcommand": subcommand,
        "artifacts": {p.name: _sha256(p) for p in artifacts},
    }
    manifest_path = out / "manifest.json"
    with open(manifest_path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    artifacts.append(manifest_path)
    for task, k in failures.items():
        if k:
            print(f"numerical failure: {task}: {k} failed paths", file=sys.stderr)
    return (3 if any(failures.values()) else 0), artifacts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="reflectspde",
        description="Penalized simulation and verification suite for ball-reflected SPDEs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} study")
        p.add_argument("--config", required=True, help="flat dotted-key config file")
        p.add_argument("--out", default=None, help="output directory (default: run.out or .)")
        p.add_argument("--seed", type=int, default=None, help="override scheme.seed")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="accepted and validated (>= 1) for compatibility; has no effect",
        )
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        if args.threads < 1:  # accepted for compatibility; it changes nothing
            raise ConfigError(f"--threads: must be >= 1, got {args.threads}")
        out_dir = args.out or config.get("run.out", ".")
        code, _ = run_experiment(config, args.subcommand, out_dir, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ReflectSPDEError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
