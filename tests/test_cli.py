"""Config parsing, experiment driver, artifact determinism, exit codes."""

import hashlib
import inspect
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectspde import cli, penalize
from reflectspde.cli import (
    _FLOAT,
    _INT,
    _MODEL_KEYS,
    _SCHEMA,
    ConfigError,
    load_config,
    main,
    parse_config_text,
    run_experiment,
)
from reflectspde.errors import ConfigurationError
from reflectspde.hilbert import norm_h
from reflectspde.localtime import _Inequality, inequality_study
from reflectspde.models import REGISTRY
from reflectspde.montecarlo import _Estimates

ORACLE_CONF = """\
# tiny deterministic-ish oracle study
model.name     = oracle_1d
model.kappa    = 1.0
model.sigma    = 0.4

scheme.dt      = 0.01
scheme.t_final = 0.5   # 50 steps
scheme.seed    = 7

run.n_grid     = 1, 4, 16
run.paths      = 6
run.samples    = 64
run.h1_samples = 16
run.test_paths = 12
run.ineq_paths = 2
"""


def write_conf(tmp_path, text, name="run.conf"):
    p = tmp_path / name
    p.write_text(text)
    return p


def conf_with(key, value):
    """ORACLE_CONF with `key = value` in place of any line that sets key."""
    lines = [ln for ln in ORACLE_CONF.splitlines() if ln.partition("=")[0].strip() != key]
    return "\n".join(lines + [f"{key} = {value}", ""])


# --------------------------------------------------------------------------
# parsing


def test_parse_config_text_basics():
    entries = parse_config_text(
        "# header\n\na.b = 1\nc.d = hello # trailing comment\n  e.f =  2,3 \n"
    )
    assert entries == {"a.b": "1", "c.d": "hello", "e.f": "2,3"}


def test_parse_config_text_diagnostics():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("a.b = 1\nno equals sign here\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a.b = 1\na.b = 2\n")


# generated configs: dotted keys, and values free of '#' and line breaks
KEYS = st.from_regex(r"[a-z][a-z0-9_]{0,6}(\.[a-z0-9_]{1,6}){0,2}", fullmatch=True)
TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="#"), max_size=12)
PAD = st.sampled_from(["", " ", "   ", "\t"])
PARSER_SETTINGS = settings(max_examples=50, deadline=None)


def entry_line(draw, key, value):
    """`key = value` with random padding and, sometimes, an inline comment."""
    comment = draw(st.one_of(st.just(""), TEXT.map(lambda t: " # " + t)))
    return f"{draw(PAD)}{key}{draw(PAD)}={draw(PAD)}{value}{draw(PAD)}{comment}"


VALUES = st.dictionaries(KEYS, TEXT.map(str.strip), max_size=8)
FILLER = st.one_of(PAD, TEXT.map(lambda t: "# " + t), PAD.map(lambda p: p + "#"))


@st.composite
def config_lines(draw, values):
    """One entry line per key, each after up to two blank or whole-line
    comment lines; returns (lines, index of each key's line)."""
    lines, where = [], {}
    for key, value in values.items():
        lines += draw(st.lists(FILLER, max_size=2))
        where[key] = len(lines)
        lines.append(entry_line(draw, key, value))
    return lines, where


@PARSER_SETTINGS
@given(data=st.data(), values=VALUES)
def test_parse_config_text_round_trips(data, values):
    lines, _ = data.draw(config_lines(values))
    assert parse_config_text("\n".join(lines)) == values


@PARSER_SETTINGS
@given(data=st.data(), values=VALUES.filter(bool))
def test_duplicate_key_named_with_its_line(data, values):
    lines, where = data.draw(config_lines(values))
    key = data.draw(st.sampled_from(sorted(values)))
    at = data.draw(st.integers(where[key] + 1, len(lines)))
    lines.insert(at, entry_line(data.draw, key, "1"))
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: duplicate key \(line {at + 1}\)$"):
        parse_config_text("\n".join(lines))


@PARSER_SETTINGS
@given(
    data=st.data(),
    values=VALUES,
    bad=st.text(
        st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="="), min_size=1
    ).filter(lambda t: t.strip() and not t.strip().startswith("#")),
)
def test_line_without_equals_named(data, values, bad):
    lines, _ = data.draw(config_lines(values))
    at = data.draw(st.integers(0, len(lines)))
    lines.insert(at, bad)
    with pytest.raises(ConfigError, match=rf"^line {at + 1}: expected 'key = value'"):
        parse_config_text("\n".join(lines))


@PARSER_SETTINGS
@given(key=KEYS.filter(lambda k: k not in _SCHEMA))
def test_load_config_rejects_every_unknown_key(tmp_path_factory, key):
    path = tmp_path_factory.getbasetemp() / "unknown.conf"
    path.write_text(f"{key} = 1\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: unknown key$"):
        load_config(path)


def parses_as_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("key", sorted(k for k, cast in _SCHEMA.items() if cast is _INT))
@settings(max_examples=20, deadline=None)
@given(
    text=st.one_of(TEXT, st.floats().map(repr)).map(str.strip).filter(lambda t: not parses_as_int(t))
)
def test_load_config_rejects_non_integer_counts(tmp_path_factory, key, text):
    path = tmp_path_factory.getbasetemp() / f"{key}.conf"
    path.write_text(f"{key} = {text}\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: cannot parse"):
        load_config(path)


def test_load_config_typed_values(tmp_path):
    cfg = load_config(write_conf(tmp_path, ORACLE_CONF))
    assert cfg.get("model.name") == "oracle_1d"
    assert cfg.get("scheme.dt") == 0.01
    assert cfg.get("run.n_grid") == [1.0, 4.0, 16.0]
    assert cfg.get("run.paths") == 6
    assert cfg.require("model.kappa") == 1.0
    with pytest.raises(ConfigError, match="missing"):
        cfg.require("model.p")


def test_load_config_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write_conf(tmp_path, "model.name = oracle_1d\nmodel.color = red\n"))


def test_load_config_rejects_bad_value(tmp_path):
    with pytest.raises(ConfigError, match="model.modes"):
        load_config(write_conf(tmp_path, "model.name = allen_cahn\nmodel.modes = many\n"))


def test_load_config_rejects_unknown_model(tmp_path):
    with pytest.raises(ConfigError, match="unknown model"):
        load_config(write_conf(tmp_path, "model.name = heat\n"))


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="^--config: cannot read"):
        load_config("/nonexistent/path.conf")


def test_foreign_model_parameter_rejected(tmp_path):
    conf = ORACLE_CONF + "noise.mu = 0.5\n"  # oracle_1d has no noise block
    cfg = load_config(write_conf(tmp_path, conf))
    for subcommand in ("estimates", "oracle1d"):  # oracle1d reads the builder's arguments
        with pytest.raises(ConfigError, match="not a parameter"):
            run_experiment(cfg, subcommand, tmp_path / "out")


# The model.* and noise.* keys each model takes, written out as the reference
# that reading them from the builders' signatures must reproduce.
ACCEPTED_KEYS = {
    "allen_cahn": {
        "model.modes", "model.x0_radius",
        "noise.modes", "noise.mu", "noise.lambda", "noise.q_decay",
    },
    "p_laplacian": {
        "model.modes", "model.p", "model.x0_radius",
        "noise.modes", "noise.mu", "noise.lambda", "noise.q_decay",
    },
    "oracle_1d": {"model.kappa", "model.sigma"},
    "tamed_nse": {
        "model.modes", "model.nu", "model.taming_n", "model.x0_radius",
        "noise.modes", "noise.mu", "noise.lambda", "noise.q_decay",
    },
}
MODEL_KEYS = sorted(k for k in _SCHEMA if k.startswith(("model.", "noise.")) and k != "model.name")


@pytest.mark.parametrize("key", MODEL_KEYS)
@pytest.mark.parametrize("name", sorted(ACCEPTED_KEYS))
def test_model_takes_exactly_its_listed_keys(tmp_path, capsys, monkeypatch, name, key):
    calls = []

    def build_model(model, **kwargs):
        calls.append((model, kwargs))
        raise ConfigurationError("stopped once the keywords are read")

    monkeypatch.setattr(cli, "build_model", build_model)
    conf = write_conf(tmp_path, f"model.name = {name}\n{key} = 1\n")
    assert main(["hypotheses", "--config", str(conf), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    if key in ACCEPTED_KEYS[name]:
        [(model, kwargs)] = calls
        assert model == name and list(kwargs.values()) == [1], kwargs
        assert "stopped once the keywords are read" in err
    else:
        assert calls == []
        assert err == f"config error: {key}: not a parameter of model {name!r}\n"


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_every_builder_keyword_has_a_config_key(name):
    keywords = set(inspect.signature(REGISTRY[name]).parameters)
    assert keywords <= {keyword for keyword, _ in _MODEL_KEYS.values()}


@pytest.mark.parametrize(
    "lines",
    [[], ["model.kappa = 2.5"], ["model.sigma = 0.3"], ["model.kappa = -1.0", "model.sigma = 0.7"]],
)
def test_estimates_and_oracle1d_step_one_oracle(tmp_path, monkeypatch, lines):
    seen = {}

    class Estimates(_Estimates):
        def __init__(self, model, *args):
            kappa = float(model.drift(0.0, [1.0])[0])  # the oracle's drift is kappa u
            seen["estimates"] = (kappa, model.noise.mu)
            super().__init__(model, *args)

    def oracle1d(kappa, sigma, *args):
        seen["oracle1d"] = (kappa, sigma)

    monkeypatch.setattr(cli, "_Estimates", Estimates)
    monkeypatch.setattr(cli, "oracle_compare_1d", oracle1d)
    scheme = ["scheme.dt = 0.01", "scheme.t_final = 0.1", "run.n_grid = 1, 4", "run.paths = 2"]
    text = "\n".join(["model.name = oracle_1d", *lines, *scheme, ""])
    config = load_config(write_conf(tmp_path, text))
    for study in cli._studies(config, ("estimates", "oracle1d"), 0).values():
        study()
    assert seen["estimates"] == seen["oracle1d"], seen


@pytest.mark.parametrize(
    "given", [{}, {"kappa": 2.0}, {"sigma": 0.1}], ids=["none", "kappa", "sigma"]
)
def test_oracle1d_takes_the_oracle_builders_defaults(tmp_path, monkeypatch, given):
    # a non-oracle config: an oracle.* key it leaves out is make_oracle_1d's default
    seen = []
    monkeypatch.setattr(cli, "oracle_compare_1d", lambda *args: seen.append(args[:2]))
    lines = [f"oracle.{keyword} = {value}" for keyword, value in given.items()]
    scheme = ["scheme.dt = 0.01", "scheme.t_final = 0.1", "run.n_grid = 1, 4", "run.paths = 2"]
    text = "\n".join(["model.name = allen_cahn", *lines, *scheme, ""])
    config = load_config(write_conf(tmp_path, text))
    cli._studies(config, ("oracle1d",), 0)["oracle1d"]()
    defaults = inspect.signature(REGISTRY["oracle_1d"]).parameters
    want = {k: given.get(k, defaults[k].default) for k in ("kappa", "sigma")}
    assert seen == [(want["kappa"], want["sigma"])]


@pytest.mark.parametrize(
    "lines, inequality, audits",
    [
        ([], {}, {"seed": 0}),
        (
            ["run.ineq_paths = 2", "run.test_paths = 12", "run.delta = 0.2",
             "run.samples = 64", "run.h1_samples = 0"],
            {"paths": 2, "test_count": 12, "delta": 0.2},
            {"seed": 0, "count": 64, "h1_count": 0},
        ),
    ],
    ids=["no run keys", "every run key"],
)
def test_studies_see_only_the_keywords_the_config_sets(
    tmp_path, monkeypatch, lines, inequality, audits
):
    # the inequality table binds every keyword, taking inequality_study's
    # default for each that the config leaves out
    seen = {}

    class Inequality(_Inequality):
        def __init__(self, model, cfg, x0, n_grid, **kwargs):
            seen["inequality"] = kwargs
            super().__init__(model, cfg, x0, n_grid, **kwargs)

    def run_all_audits(*args, **kwargs):
        seen["hypotheses"] = kwargs
        return []

    monkeypatch.setattr(cli, "_Inequality", Inequality)
    monkeypatch.setattr(cli, "run_all_audits", run_all_audits)
    # run.n_grid is the one run.* key the inequality study cannot do without
    scheme = ["scheme.dt = 0.01", "scheme.t_final = 0.1", "run.n_grid = 1, 4"]
    text = "\n".join(["model.name = oracle_1d", *scheme, *lines, ""])
    config = load_config(write_conf(tmp_path, text))
    for study in cli._studies(config, ("inequality", "hypotheses"), 0).values():
        study()
    defaults = {
        name: parameter.default
        for name, parameter in inspect.signature(inequality_study).parameters.items()
        if parameter.kind is parameter.KEYWORD_ONLY
    }
    assert seen == {"inequality": {**defaults, **inequality}, "hypotheses": audits}


def test_explicit_large_n_dt_rejected(tmp_path):
    conf = ORACLE_CONF.replace("run.n_grid     = 1, 4, 16", "run.n_grid     = 1, 4, 500")
    cfg = load_config(write_conf(tmp_path, conf))
    with pytest.raises(ConfigError, match="splitting"):
        run_experiment(cfg, "estimates", tmp_path / "out")


# --------------------------------------------------------------------------
# end-to-end runs


def run_cli(args):
    return main([str(a) for a in args])


def test_estimates_run_writes_verifiable_manifest(tmp_path):
    conf = write_conf(tmp_path, ORACLE_CONF)
    out = tmp_path / "out"
    assert run_cli(["estimates", "--config", conf, "--out", out]) == 0

    est = out / "estimates.csv"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "estimates"
    assert manifest["seed"] == 7
    assert manifest["config_sha256"] == hashlib.sha256(conf.read_bytes()).hexdigest()
    assert "threads" not in manifest
    assert manifest["artifacts"] == {
        "estimates.csv": hashlib.sha256(est.read_bytes()).hexdigest()
    }
    lines = est.read_text().splitlines()
    assert lines[0].startswith("n,est_sup4,")
    assert len(lines) == 4  # header + one row per penalization level


def test_artifacts_byte_identical_across_reruns_and_threads(tmp_path):
    conf = write_conf(tmp_path, ORACLE_CONF)
    outs = [tmp_path / f"out{i}" for i in range(3)]
    assert run_cli(["estimates", "--config", conf, "--out", outs[0]]) == 0
    assert run_cli(["estimates", "--config", conf, "--out", outs[1]]) == 0
    assert run_cli(["estimates", "--config", conf, "--out", outs[2], "--threads", 4]) == 0
    ref_csv = (outs[0] / "estimates.csv").read_bytes()
    ref_manifest = (outs[0] / "manifest.json").read_bytes()
    for out in outs[1:]:
        assert (out / "estimates.csv").read_bytes() == ref_csv
        assert (out / "manifest.json").read_bytes() == ref_manifest


def test_seed_override_changes_results(tmp_path):
    conf = write_conf(tmp_path, ORACLE_CONF)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["estimates", "--config", conf, "--out", out_a]) == 0
    assert run_cli(["estimates", "--config", conf, "--out", out_b, "--seed", 9]) == 0
    assert json.loads((out_b / "manifest.json").read_text())["seed"] == 9
    assert (out_a / "estimates.csv").read_bytes() != (out_b / "estimates.csv").read_bytes()


def test_all_subcommand_writes_every_artifact(tmp_path):
    conf = write_conf(tmp_path, ORACLE_CONF)
    out = tmp_path / "out"
    assert run_cli(["all", "--config", conf, "--out", out]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "cauchy.csv",
        "estimates.csv",
        "hypotheses.csv",
        "inequality.csv",
        "manifest.json",
        "oracle1d.csv",
    ]
    headers = {
        "estimates.csv": "n,est_sup4,se_sup4,est_weighted_pen,se_weighted_pen,est_var2,se_var2,"
        "est_pen_l2,se_pen_l2,est_v_energy,se_v_energy,est_pen_sup4,se_pen_sup4,failures",
        "cauchy.csv": "n_lo,n_hi,est_supdiff2,se",
        "oracle1d.csv": "n,est_supdiff,se_supdiff,est_tv_diff,se_tv_diff,est_terminal_diff",
    }
    for name, header in headers.items():
        assert (out / name).read_text().splitlines()[0] == header
    hyp = (out / "hypotheses.csv").read_text().splitlines()
    assert hyp[0] == "hypothesis,margin,constant,seed"
    assert [row.split(",")[0] for row in hyp[1:]] == ["H1", "H2", "H3", "H4", "H5"]
    ineq = (out / "inequality.csv").read_text().splitlines()
    assert ineq[0] == "n,path_index,total_variation,min_gap,boundary_leak"
    assert len(ineq) == 1 + 3 * 2  # n-grid levels x ineq_paths
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["artifacts"]) == 5


def test_exit_code_2_on_config_error(tmp_path, capsys):
    conf = write_conf(tmp_path, "model.name = oracle_1d\nbogus.key = 1\n")
    assert run_cli(["estimates", "--config", conf, "--out", tmp_path / "out"]) == 2
    assert "config error" in capsys.readouterr().err


BLOWUP_CONF = """\
model.name = oracle_1d
model.kappa = 1e6
model.sigma = 0.0
scheme.dt = 1.0
scheme.t_final = 3.0
run.n_grid = 1
run.paths = 2
"""


def test_exit_code_3_on_blowup_still_writes_reports(tmp_path, capsys):
    conf = write_conf(tmp_path, BLOWUP_CONF)
    out = tmp_path / "out"
    assert run_cli(["estimates", "--config", conf, "--out", out]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert err.splitlines() == ["numerical failure: estimates: 2 failed paths"]
    lines = (out / "estimates.csv").read_text().splitlines()
    assert lines[1].split(",")[-1] == "2"  # both paths failed, and it is recorded


def test_run_out_key_used_when_no_flag(tmp_path, monkeypatch):
    dest = tmp_path / "dest"
    conf = write_conf(tmp_path, ORACLE_CONF + f"run.out = {dest}\n")
    assert run_cli(["estimates", "--config", conf]) == 0
    assert (dest / "estimates.csv").exists()


def test_unknown_subcommand_rejected(tmp_path):
    cfg = load_config(write_conf(tmp_path, ORACLE_CONF))
    with pytest.raises(ConfigError, match="unknown subcommand"):
        run_experiment(cfg, "plot", tmp_path / "out")


@pytest.mark.parametrize("subcommand", ["estimates", "cauchy", "inequality", "oracle1d"])
def test_exit_code_3_on_blowup_in_every_study(tmp_path, capsys, subcommand):
    # two levels, because the cauchy study compares consecutive levels
    conf = write_conf(tmp_path, BLOWUP_CONF.replace("run.n_grid = 1", "run.n_grid = 0.5, 1"))
    out = tmp_path / "out"
    assert run_cli([subcommand, "--config", conf, "--out", out]) == 3
    assert (out / f"{subcommand}.csv").exists()
    # cauchy counts paths dropped from every gap, the others failed (level,
    # path) pairs: 2 levels of run.paths = 2, or of the 3 default run.ineq_paths
    failed = {"estimates": 4, "cauchy": 2, "inequality": 6, "oracle1d": 4}[subcommand]
    assert capsys.readouterr().err.splitlines() == [
        f"numerical failure: {subcommand}: {failed} failed paths"
    ]


@pytest.mark.parametrize(
    "subcommand, key, value",
    [
        ("estimates", "run.paths", 1),
        ("cauchy", "run.paths", 1),
        ("oracle1d", "run.paths", 1),
        ("hypotheses", "run.samples", 0),
        ("hypotheses", "run.h1_samples", -3),
        ("inequality", "run.ineq_paths", 0),
        ("inequality", "run.test_paths", 0),
    ],
)
def test_exit_code_2_on_unusable_count(tmp_path, capsys, subcommand, key, value):
    conf = write_conf(tmp_path, conf_with(key, value))
    out = tmp_path / "out"
    assert run_cli([subcommand, "--config", conf, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: must be >= ")
    assert not out.exists()  # rejected before any study ran


@pytest.mark.parametrize("delta", [0.0, 1.0, 1.5])
def test_exit_code_2_on_delta_outside_unit_interval(tmp_path, capsys, delta):
    conf = write_conf(tmp_path, ORACLE_CONF + f"run.delta = {delta}\n")
    out = tmp_path / "out"
    assert run_cli(["all", "--config", conf, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("config error: run.delta: must lie in (0, 1)")
    assert not out.exists()  # rejected before any study ran


def test_exit_code_2_on_an_allocation_that_cannot_be_made(tmp_path, capsys):
    # 10^17 steps: the time grid of the inequality study's test family alone
    # is 711 PiB, beyond the 2^57 B = 128 PiB of virtual addresses of any
    # current 64-bit machine, so the allocation fails at once whatever the
    # overcommit policy, and the run ends with one error line
    conf = ORACLE_CONF.replace("scheme.dt      = 0.01", "scheme.dt      = 1e-6").replace(
        "scheme.t_final = 0.5   # 50 steps", "scheme.t_final = 1e11"
    )
    out = tmp_path / "out"
    assert run_cli(["inequality", "--config", write_conf(tmp_path, conf), "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not (out / "inequality.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", sorted(k for k, cast in _SCHEMA.items() if cast is _FLOAT))
def test_exit_code_2_on_non_finite_float(tmp_path, capsys, key, value):
    conf = write_conf(tmp_path, conf_with(key, value))
    out = tmp_path / "out"
    assert run_cli(["all", "--config", conf, "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {key}: "), err
    assert not out.exists()  # rejected before any study ran


NOISE_MODELS = sorted(n for n in REGISTRY if "mu" in inspect.signature(REGISTRY[n]).parameters)


@pytest.mark.parametrize("value", ["1e200", "-1e200"])
@pytest.mark.parametrize(
    "name, key, reader",
    [(name, key, "estimates") for name in NOISE_MODELS for key in ("noise.mu", "noise.lambda")]
    + [("oracle_1d", f"model.{k}", "oracle1d") for k in ("kappa", "sigma")]
    + [("allen_cahn", f"oracle.{k}", "oracle1d") for k in ("kappa", "sigma")],
)
def test_exit_code_2_on_an_overflowing_model_constant(tmp_path, capsys, name, key, reader, value):
    # a finite parameter whose square overflows makes a declared constant inf
    lines = [f"model.name = {name}", f"{key} = {value}", "scheme.dt = 0.01",
             "scheme.t_final = 0.1", "run.n_grid = 1, 4", "run.paths = 2", ""]
    conf = write_conf(tmp_path, "\n".join(lines))
    for subcommand in ("all", reader):
        out = tmp_path / subcommand
        assert run_cli([subcommand, "--config", conf, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err
        assert "is not finite" in err[0], err
        assert not out.exists()  # rejected before any study ran


@pytest.mark.parametrize(
    "subcommand, conf, args, key",
    [
        ("all", b"model.name = oracle_1d\n# caf\xe9\n", [], "--config"),
        ("hypotheses", ORACLE_CONF, ["--seed", -1], "--seed"),
        ("all", ORACLE_CONF, ["--seed", -1], "--seed"),
        ("hypotheses", conf_with("scheme.seed", -2), [], "scheme.seed"),
        ("estimates", ORACLE_CONF, ["--threads", 0], "--threads"),
        ("estimates", ORACLE_CONF, ["--threads", -3], "--threads"),
        ("all", conf_with("run.n_grid", "1, -4, 16"), [], "run.n_grid"),
        ("all", conf_with("run.n_grid", "1, nan"), [], "run.n_grid"),
        ("all", conf_with("run.n_grid", "1, 101"), [], "run.n_grid"),  # n dt = 1.01
        ("oracle1d", ORACLE_CONF + "oracle.kappa = 3.0\n", [], "oracle.kappa"),
        ("all", ORACLE_CONF + "oracle.sigma = 2.0\n", [], "oracle.sigma"),
        ("all", conf_with("scheme.t_final", "1e300").replace("0.01", "1e-10"), [],
         "scheme.t_final"),
        ("all", conf_with("run.n_grid", "1,,16"), [], "run.n_grid"),
        ("all", conf_with("run.n_grid", "1, 4,"), [], "run.n_grid"),
    ],
    ids=[
        "not utf-8",
        "--seed on hypotheses",
        "--seed on all",
        "scheme.seed on hypotheses",
        "--threads 0",
        "--threads -3",
        "negative level",
        "nan level",
        "explicit n dt > 1",
        "oracle.kappa on an oracle_1d config",
        "oracle.sigma on an oracle_1d config",
        "step count overflow",
        "empty level",
        "trailing comma",
    ],
)
def test_exit_code_2_names_the_key(tmp_path, capsys, subcommand, conf, args, key):
    path = tmp_path / "run.conf"
    path.write_bytes(conf if isinstance(conf, bytes) else conf.encode())
    out = tmp_path / "out"
    assert run_cli([subcommand, "--config", path, "--out", out, *args]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {key}: "), err
    assert not out.exists()  # rejected before any study ran


@pytest.mark.parametrize("radius", [-0.5, 1.5])
def test_exit_code_2_on_initial_radius_outside_the_ball(tmp_path, capsys, radius):
    lines = [ln for ln in ORACLE_CONF.splitlines() if not ln.startswith("model.")]
    model = ["model.name = allen_cahn", "model.modes = 8", f"model.x0_radius = {radius}"]
    conf = write_conf(tmp_path, "\n".join(lines + model + [""]))
    out = tmp_path / "out"
    assert run_cli(["all", "--config", conf, "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: model.name: "), err
    assert "x0_radius" in err[0]
    assert not out.exists()  # rejected before any study ran


def test_nan_level_rejected_and_inf_level_kept(tmp_path, capsys):
    conf = write_conf(tmp_path, conf_with("run.n_grid", "1, nan, 16"))
    out = tmp_path / "out"
    assert run_cli(["all", "--config", conf, "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: run.n_grid: "), err
    assert not out.exists()
    # inf is the projection level, under either method
    for method in ("explicit", "splitting"):
        text = conf_with("run.n_grid", "1, inf") + f"scheme.method = {method}\n"
        conf = write_conf(tmp_path, text, name=f"{method}.conf")
        assert run_cli(["oracle1d", "--config", conf, "--out", tmp_path / method]) == 0


def test_cauchy_needs_two_levels(tmp_path):
    cfg = load_config(write_conf(tmp_path, BLOWUP_CONF))
    with pytest.raises(ConfigError, match="run.n_grid"):
        run_experiment(cfg, "cauchy", tmp_path / "out")


def test_ambiguous_horizon_rejected(tmp_path):
    conf = ORACLE_CONF.replace("scheme.dt      = 0.01", "scheme.dt      = 0.3").replace(
        "scheme.t_final = 0.5   # 50 steps", "scheme.t_final = 1.0"
    )
    cfg = load_config(write_conf(tmp_path, conf))
    with pytest.raises(ConfigError, match="scheme.t_final"):
        run_experiment(cfg, "estimates", tmp_path / "out")
    # 0.2 / 0.001 is 200 up to rounding, and is accepted
    conf = ORACLE_CONF.replace("scheme.dt      = 0.01", "scheme.dt      = 0.001").replace(
        "scheme.t_final = 0.5   # 50 steps", "scheme.t_final = 0.2"
    )
    cfg = load_config(write_conf(tmp_path, conf, name="ok.conf"))
    code, _ = run_experiment(cfg, "oracle1d", tmp_path / "ok")
    assert code == 0


# --------------------------------------------------------------------------
# `all` steps each model once

AC_CONF = """\
model.name = allen_cahn
model.modes = 32
noise.mu = 1.5
scheme.dt = 0.002
scheme.t_final = 0.1
scheme.seed = 5
run.n_grid = 1, 16, 256
run.paths = 12
run.samples = 16
run.h1_samples = 2
run.test_paths = 20
"""
AC_STEPS, AC_DT, AC_PATHS = 50, 0.002, 12


def ac_conf(tmp_path, ineq_paths):
    line = "" if ineq_paths is None else f"run.ineq_paths = {ineq_paths}\n"
    return write_conf(tmp_path, AC_CONF + line)


@pytest.mark.parametrize("ineq_paths", [None, 2, 20], ids=["default", "fewer", "more"])
def test_all_opens_one_kernel_per_model(tmp_path, monkeypatch, ineq_paths):
    # every kernel draws its noise through one stream, so the recorder sees
    # each kernel a run opens: the Allen-Cahn stack once, on the paths of
    # whichever of estimates and inequality reads more (3 when unset), and
    # in `all` the oracle's once
    calls, draw = [], penalize._brownian_stream

    def counting(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(penalize, "_brownian_stream", counting)
    conf = ac_conf(tmp_path, ineq_paths)
    ineq = 3 if ineq_paths is None else ineq_paths
    oracle = (5, range(AC_PATHS), 1, AC_STEPS, AC_DT)
    for subcommand, reach, rest in [
        ("all", max(AC_PATHS, ineq), [oracle]),
        ("estimates", AC_PATHS, []),
        ("cauchy", AC_PATHS, []),
        ("inequality", ineq, []),
    ]:
        calls.clear()
        assert run_cli([subcommand, "--config", conf, "--out", tmp_path / subcommand]) == 0
        allen_cahn = (5, range(reach), 8, AC_STEPS, AC_DT)
        assert calls == [allen_cahn, *rest], subcommand


def kernel_drift(model, cfg, levels, x0, paths, reach):
    """How far the kernel's rows of paths 0..paths-1 move when the stack
    holds paths 0..reach-1: (largest H distance between states, between
    increments), the largest increment and the largest radius."""
    space = model.space
    states, dls, radii, _ = penalize._trajectory(model, cfg, levels, x0, range(paths))
    wide = penalize._trajectory(model, cfg, levels, x0, range(reach))
    wide_states, wide_dls, wide_radii, _ = wide
    d_x = np.max(norm_h(space, states - wide_states[:, :, :paths]))
    d_l = np.max(norm_h(space, dls - wide_dls[:, :, :paths]))
    return d_x, d_l, np.max(norm_h(space, dls)), max(np.max(radii), np.max(wide_radii))


@pytest.mark.parametrize("ineq_paths", [None, 2])
def test_all_writes_the_single_subcommands_tables(tmp_path, ineq_paths):
    conf = ac_conf(tmp_path, ineq_paths)
    assert run_cli(["all", "--config", conf, "--out", tmp_path / "all"]) == 0
    for task in ("estimates", "cauchy", "hypotheses", "oracle1d", "inequality"):
        assert run_cli([task, "--config", conf, "--out", tmp_path / task]) == 0
    for task in ("estimates", "cauchy", "hypotheses", "oracle1d"):
        name = f"{task}.csv"
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / task / name).read_bytes(), name

    # inequality reads the leading paths of a 12-path stack in `all` and a
    # stack of its own paths alone; a matrix product may round a row
    # differently in the larger batch, so the tables agree within what that
    # moves.  Over N steps, with states and increments dx and dl apart in H,
    # increments at most g and radii at most R (test paths lie in the ball):
    #   total variation sum |dL_j|:           N dl
    #   gap sum <phi_j - X_j, dL_j>:          N (dx g + (1 + R) dl)
    #   leak sum psi(|X_j|) |dL_j|, psi <= 1, |psi'| <= 2:  N (2 dx g + dl)
    # plus the rounding of N-step sums of m-coefficient products, which two
    # runs on different inputs need not share: N (m + 3) eps of the column's
    # scale (for the gap, that of sum |phi_j - X_j| |dL_j| <= (1 + R) TV).
    paths = 3 if ineq_paths is None else ineq_paths
    bundle = cli._build_bundle(load_config(conf))
    cfg, n_grid = cli._build_scheme(load_config(conf), 5)
    d_x, d_l, g, radius = kernel_drift(bundle.model, cfg, n_grid, bundle.x0, paths, AC_PATHS)
    n, m, eps = AC_STEPS, bundle.model.space.n_coeffs, np.finfo(float).eps
    got, want = (
        np.loadtxt(tmp_path / d / "inequality.csv", delimiter=",", skiprows=1)
        for d in ("all", "inequality")
    )
    assert np.array_equal(got[:, :2], want[:, :2])
    tv_scale = np.max(want[:, 2])
    bounds = [
        n * d_l + n * (m + 3) * eps * tv_scale,
        n * (d_x * g + (1 + radius) * d_l) + n * (m + 3) * eps * (1 + radius) * tv_scale,
        n * (2 * d_x * g + d_l) + n * (m + 3) * eps * np.max(want[:, 4]),
    ]
    assert np.all(np.abs(got[:, 2:] - want[:, 2:]) <= bounds)


def test_all_feeds_each_study_its_leading_paths(tmp_path):
    # with more inequality paths than estimate paths the one stack holds the
    # inequality's paths: its table is the inequality subcommand's, and the
    # estimates and Cauchy gaps are those of the leading 12 paths of that stack
    conf = ac_conf(tmp_path, 20)
    assert run_cli(["all", "--config", conf, "--out", tmp_path / "all"]) == 0
    assert run_cli(["inequality", "--config", conf, "--out", tmp_path / "ineq"]) == 0
    name = "inequality.csv"
    assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "ineq" / name).read_bytes()
    config = load_config(conf)
    bundle = cli._build_bundle(config)
    cfg, n_grid = cli._build_scheme(config, 5)
    feed = penalize._ensemble(bundle.model, cfg, n_grid, bundle.x0, 20)
    [(estimates, cauchy)] = feed(_Estimates(bundle.model, cfg, n_grid, AC_PATHS, bundle.x0))
    estimates.to_csv(tmp_path / "estimates.csv")
    cauchy.to_csv(tmp_path / "cauchy.csv")
    for name in ("estimates.csv", "cauchy.csv"):
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / name).read_bytes(), name
    lines = (tmp_path / "all" / "inequality.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 * 20


def test_all_reports_each_studys_failures(tmp_path, capsys):
    # the one stack counts each study's failures on that study's own paths
    conf = write_conf(tmp_path, BLOWUP_CONF.replace("run.n_grid = 1", "run.n_grid = 0.5, 1"))
    single = []
    for task in ("estimates", "cauchy", "inequality", "oracle1d"):
        assert run_cli([task, "--config", conf, "--out", tmp_path / task]) == 3
        single += capsys.readouterr().err.splitlines()
    assert run_cli(["all", "--config", conf, "--out", tmp_path / "all"]) == 3
    assert capsys.readouterr().err.splitlines() == single
    for task in ("estimates", "cauchy", "inequality", "oracle1d"):
        name = f"{task}.csv"
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / task / name).read_bytes(), name
