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

Each study returns one `montecarlo.Report`; a run writes ``<study>.csv``
for each study it ran, plus ``manifest.json`` recording the config hash,
effective seed, and per-artifact SHA-256 checksums.  Artifacts are
byte-identical across reruns (reduction order is fixed).  ``--threads`` and
``REFLECTSPDE_THREADS`` are still accepted and validated (>= 1), but have no
effect: every study runs in one thread.  The seed, ``--seed`` or else
``scheme.seed``, must be >= 0 for every subcommand, and every level of
``run.n_grid`` must be one that `SchemeConfig` accepts.  ``all`` simulates the estimates
ensemble once and writes both ``estimates.csv`` and ``cauchy.csv`` from it.
Counts are checked before any study starts, and must be usable
(``run.paths >= 2``, ``run.samples >= 1``, ``run.h1_samples >= 0``
with 0 meaning ``run.samples``, ``run.ineq_paths``, ``run.test_paths >= 1``).

Exit codes: 0 success, 2 configuration error, 3 numerical failure (a failed
path in any study; every report is still written, and each failing study
gets one stderr line ``numerical failure: <study>: <k> failed paths``).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import BlowUpError, ReflectSPDEError
from .hypotheses import run_all_audits
from .localtime import inequality_study
from .models import REGISTRY, ModelBundle, build_model
from .montecarlo import Report, oracle_compare_1d, run_estimates
from .penalize import SchemeConfig

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
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ValueError("empty list")
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


def _threads(cli_value) -> int:
    """Validated thread count; accepted for compatibility, it changes nothing."""
    key, value = "--threads", cli_value
    if value is None:
        key, env = "REFLECTSPDE_THREADS", os.environ.get("REFLECTSPDE_THREADS", "").strip()
        try:
            value = int(env) if env else 1
        except ValueError:
            raise ConfigError(f"{key}: cannot parse {env!r}") from None
    if value < 1:
        raise ConfigError(f"{key}: must be >= 1, got {value}")
    return value


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _count(config: ExperimentConfig, key: str, least: int, default=None) -> int:
    value = config.require(key) if default is None else config.get(key, default)
    if value < least:
        raise ConfigError(f"{key}: must be >= {least}, got {value}")
    return value


class AuditRow(NamedTuple):
    hypothesis: str
    margin: float
    constant: float
    seed: int


def _studies(config: ExperimentConfig, wanted, seed: int) -> dict:
    """Each wanted task's study as a call, built after the bundle, the scheme
    and every count the task reads are checked.

    The bundle and the scheme are built at most once: `hypotheses` builds no
    scheme, and `oracle1d` builds no bundle; on an `oracle_1d` config it
    binds the builder's arguments, so `estimates` steps the same oracle.
    """
    stepping = any(t != "hypotheses" for t in wanted)
    cfg, n_grid = _build_scheme(config, seed) if stepping else (None, None)
    if "cauchy" in wanted and len(n_grid) < 2:
        raise ConfigError("run.n_grid: the cauchy study needs at least 2 levels")
    bundle = _build_bundle(config) if any(t != "oracle1d" for t in wanted) else None

    studies = {}
    if "estimates" in wanted or "cauchy" in wanted:
        paths = _count(config, "run.paths", 2)

        @functools.cache
        def ensemble():  # one simulated ensemble serves estimates and cauchy
            return run_estimates(bundle.model, cfg, n_grid, paths, x0=bundle.x0)

        studies["estimates"] = lambda: ensemble()[0]
        studies["cauchy"] = lambda: ensemble()[1]
    if "inequality" in wanted:
        delta = float(config.get("run.delta", 0.1))
        if not 0.0 < delta < 1.0:
            raise ConfigError(f"run.delta: must lie in (0, 1), got {delta}")
        kwargs = dict(
            paths=_count(config, "run.ineq_paths", 1, 3),
            test_count=_count(config, "run.test_paths", 1, 200),
            delta=delta,
        )
        studies["inequality"] = lambda: inequality_study(
            bundle.model, cfg, bundle.x0, n_grid, **kwargs
        )
    if "hypotheses" in wanted:
        count = _count(config, "run.samples", 1, 1000)
        h1_count = _count(config, "run.h1_samples", 0, 0) or None  # 0: use run.samples

        def audits():
            reports = run_all_audits(bundle.model, seed=seed, count=count, h1_count=h1_count)
            rows = [AuditRow(r.hypothesis, r.worst_margin, r.constant, int(r.seed)) for r in reports]
            return Report(tuple(rows), 0)

        studies["hypotheses"] = audits
    if "oracle1d" in wanted:
        if config.get("model.name") == "oracle_1d":
            oracle = inspect.signature(REGISTRY["oracle_1d"]).bind(**_model_kwargs(config)[1])
            oracle.apply_defaults()
            kappa, sigma = oracle.arguments["kappa"], oracle.arguments["sigma"]
        else:
            kappa = float(config.get("oracle.kappa", 1.0))
            sigma = float(config.get("oracle.sigma", 0.5))
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
            default=None,
            help="accepted and validated for compatibility; has no effect "
            "(fallback: REFLECTSPDE_THREADS, then 1)",
        )
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        _threads(args.threads)
        out_dir = args.out or config.get("run.out", ".")
        code, _ = run_experiment(config, args.subcommand, out_dir, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ReflectSPDEError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
