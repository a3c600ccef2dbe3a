"""Config parsing, experiment driver, artifact determinism, exit codes."""

import hashlib
import inspect
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectspde import cli
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
from reflectspde.models import REGISTRY

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

    def estimates(model, *args, **kwargs):
        kappa = float(model.drift(0.0, [1.0])[0])  # the oracle's drift is kappa u
        seen["estimates"] = (kappa, model.noise.mu)
        return None, None

    def oracle1d(kappa, sigma, *args):
        seen["oracle1d"] = (kappa, sigma)

    monkeypatch.setattr(cli, "run_estimates", estimates)
    monkeypatch.setattr(cli, "oracle_compare_1d", oracle1d)
    scheme = ["scheme.dt = 0.01", "scheme.t_final = 0.1", "run.n_grid = 1, 4", "run.paths = 2"]
    text = "\n".join(["model.name = oracle_1d", *lines, *scheme, ""])
    config = load_config(write_conf(tmp_path, text))
    for study in cli._studies(config, ("estimates", "oracle1d"), 0).values():
        study()
    assert seen["estimates"] == seen["oracle1d"], seen


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


def test_threads_env_fallback(tmp_path, monkeypatch):
    conf = write_conf(tmp_path, ORACLE_CONF)
    out_env, out_ref = tmp_path / "env", tmp_path / "ref"
    monkeypatch.setenv("REFLECTSPDE_THREADS", "3")
    assert run_cli(["estimates", "--config", conf, "--out", out_env]) == 0
    monkeypatch.delenv("REFLECTSPDE_THREADS")
    assert run_cli(["estimates", "--config", conf, "--out", out_ref]) == 0
    assert (out_env / "estimates.csv").read_bytes() == (out_ref / "estimates.csv").read_bytes()
    monkeypatch.setenv("REFLECTSPDE_THREADS", "lots")
    assert run_cli(["estimates", "--config", conf, "--out", tmp_path / "bad"]) == 2


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


@pytest.mark.parametrize("subcommand", ["cauchy", "oracle1d"])
def test_exit_code_3_on_blowup_in_every_study(tmp_path, capsys, subcommand):
    # two levels, because the cauchy study compares consecutive levels
    conf = write_conf(tmp_path, BLOWUP_CONF.replace("run.n_grid = 1", "run.n_grid = 0.5, 1"))
    out = tmp_path / "out"
    assert run_cli([subcommand, "--config", conf, "--out", out]) == 3
    assert (out / f"{subcommand}.csv").exists()
    # cauchy counts paths dropped from every gap, oracle1d failed (level, path) pairs
    failed = {"cauchy": 2, "oracle1d": 4}[subcommand]
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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", sorted(k for k, cast in _SCHEMA.items() if cast is _FLOAT))
def test_exit_code_2_on_non_finite_float(tmp_path, capsys, key, value):
    conf = write_conf(tmp_path, conf_with(key, value))
    out = tmp_path / "out"
    assert run_cli(["all", "--config", conf, "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {key}: "), err
    assert not out.exists()  # rejected before any study ran


@pytest.mark.parametrize(
    "subcommand, conf, args, env, key",
    [
        ("all", b"model.name = oracle_1d\n# caf\xe9\n", [], {}, "--config"),
        ("hypotheses", ORACLE_CONF, ["--seed", -1], {}, "--seed"),
        ("all", ORACLE_CONF, ["--seed", -1], {}, "--seed"),
        ("hypotheses", conf_with("scheme.seed", -2), [], {}, "scheme.seed"),
        ("estimates", ORACLE_CONF, ["--threads", 0], {}, "--threads"),
        ("estimates", ORACLE_CONF, ["--threads", -3], {}, "--threads"),
        ("estimates", ORACLE_CONF, [], {"REFLECTSPDE_THREADS": "0"}, "REFLECTSPDE_THREADS"),
        ("all", conf_with("run.n_grid", "1, -4, 16"), [], {}, "run.n_grid"),
        ("all", conf_with("run.n_grid", "1, nan"), [], {}, "run.n_grid"),
        ("all", conf_with("run.n_grid", "1, 101"), [], {}, "run.n_grid"),  # n dt = 1.01
    ],
    ids=[
        "not utf-8",
        "--seed on hypotheses",
        "--seed on all",
        "scheme.seed on hypotheses",
        "--threads 0",
        "--threads -3",
        "REFLECTSPDE_THREADS",
        "negative level",
        "nan level",
        "explicit n dt > 1",
    ],
)
def test_exit_code_2_names_the_key(
    tmp_path, capsys, monkeypatch, subcommand, conf, args, env, key
):
    path = tmp_path / "run.conf"
    path.write_bytes(conf if isinstance(conf, bytes) else conf.encode())
    for name, value in env.items():
        monkeypatch.setenv(name, value)
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
    # inf is the projection level of the splitting stepper
    text = conf_with("run.n_grid", "1, inf") + "scheme.method = splitting\n"
    conf = write_conf(tmp_path, text, name="inf.conf")
    assert run_cli(["oracle1d", "--config", conf, "--out", tmp_path / "inf"]) == 0


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
