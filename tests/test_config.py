import importlib.util
import math

import pytest

from idcascade.config import (ConfigError, RunConfig, config_hash,
                              load_config, parse_config, serialize_config)
from idcascade.field import GridSpec, field_kind, truncated_model
from idcascade.levy import AtomicJumps, TabulatedJumps, ZeroJumps

SAMPLE = """
[model]
sigma2 = 0.5
jump_kind = none

[grid]
levels = 9
oversample = 2

[experiment]
seed = 123
replicas = 50

[output]
directory = out
formats = json
"""


def test_parse_and_typed_accessors():
    cfg = parse_config(SAMPLE)
    assert cfg.value("experiment", "seed") == 123
    assert cfg.value("experiment", "replicas") == 50
    assert cfg.value("model", "sigma2") == 0.5
    assert cfg.get("model", "missing", "fallback") == "fallback"
    assert cfg.value("output", "directory") == "out"
    assert cfg.value("output", "formats") == "json"
    grid = cfg.build_grid()
    assert grid == GridSpec((0.0, 1.0), 9, 2, 0)
    model = cfg.build_model()
    assert model.sigma2 == 0.5
    assert isinstance(model.nu, ZeroJumps)
    assert cfg.check() == (model, grid)


def test_defaults_without_file():
    cfg = RunConfig()
    assert cfg.value("experiment", "seed") == 0
    assert cfg.value("experiment", "replicas") == 1
    assert cfg.build_grid() == GridSpec((0.0, 1.0), 8, 4, 0)
    assert cfg.value("output", "formats") == "both"


def test_serialize_round_trip_is_a_fixpoint():
    cfg = parse_config(SAMPLE)
    text = serialize_config(cfg)
    again = serialize_config(parse_config(text))
    assert text == again
    # canonical section order, keys sorted inside each section
    heads = [ln for ln in text.splitlines() if ln.startswith("[")]
    assert heads == ["[model]", "[grid]", "[experiment]", "[output]"]


def test_hash_ignores_formatting_but_not_values():
    messy = SAMPLE.replace("sigma2 = 0.5", "sigma2 =    0.5").replace(
        "\n[grid]", "\n\n\n[grid]")
    assert config_hash(parse_config(messy)) == config_hash(
        parse_config(SAMPLE))
    other = SAMPLE.replace("seed = 123", "seed = 124")
    assert config_hash(parse_config(other)) != config_hash(
        parse_config(SAMPLE))
    assert len(config_hash(parse_config(SAMPLE))) == 16


def test_unknown_section_and_bad_values():
    with pytest.raises(ConfigError, match=r"^\(file\): cannot parse: "):
        parse_config("sigma2 = 0.5\n")  # a key before any section
    with pytest.raises(ConfigError, match="unknown"):
        parse_config("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError, match="grid.interval: unknown key"):
        parse_config(SAMPLE.replace("[grid]\n", "[grid]\ninterval = 0, 2\n"))
    with pytest.raises(ConfigError, match="model.sigm: unknown key"):
        parse_config(SAMPLE.replace("sigma2 = 0.5", "sigm = 0.5"))
    cfg = parse_config(SAMPLE)
    cfg.set("model", "sigma2", "not-a-number")
    with pytest.raises(ConfigError, match="sigma2"):
        cfg.build_model()
    for kind in ("martian", "zero"):
        cfg = parse_config(SAMPLE)
        cfg.set("model", "jump_kind", kind)
        with pytest.raises(ConfigError, match="model.jump_kind"):
            cfg.build_model()
    cfg = parse_config(SAMPLE)
    cfg.set("experiment", "replicas", "0")
    with pytest.raises(ConfigError, match="replicas"):
        cfg.value("experiment", "replicas")
    with pytest.raises(ConfigError, match="experiment.chunk: unknown key"):
        parse_config(SAMPLE.replace("[experiment]\n",
                                    "[experiment]\nchunk = 8\n"))
    with pytest.raises(ConfigError, match="grid.cell_levels: unknown key"):
        parse_config(SAMPLE.replace("[grid]\n", "[grid]\ncell_levels = 0\n"))
    cfg = parse_config(SAMPLE)
    cfg.set("model", "small_jump_cutoff", "abc")
    with pytest.raises(ConfigError, match="model.small_jump_cutoff"):
        cfg.value("model", "small_jump_cutoff")


def test_atom_model_from_config():
    cfg = parse_config(SAMPLE)
    cfg.set("model", "sigma2", "0")
    cfg.set("model", "jump_kind", "atoms")
    with pytest.raises(ConfigError,
                       match="^model.atom_locations: missing required key$"):
        cfg.build_model()
    cfg.set("model", "atom_locations", str(-math.log(2.0)))
    cfg.set("model", "atom_masses", "1.0")
    model = cfg.build_model()
    assert isinstance(model.nu, AtomicJumps)
    assert model.sigma2 == 0.0
    cfg.set("model", "atom_masses", "1.0, 2.0")
    with pytest.raises(ConfigError, match="equal length"):
        cfg.build_model()


def test_bad_tabulated_rate_names_its_key():
    cfg = parse_config(SAMPLE)
    cfg.set("model", "jump_kind", "tabulated")
    cfg.set("model", "tabulated_x", "-1.0, 0.0, 0.5")
    cfg.set("model", "tabulated_density", "1.0, 2.0, 0.4")
    for key in ("left_rate", "right_rate"):
        cfg.set("model", key, "abc")
        with pytest.raises(ConfigError, match=f"model.{key}: not a number"):
            cfg.build_model()
        cfg.set("model", key, "3.0")
    assert cfg.build_model().nu == TabulatedJumps(
        (-1.0, 0.0, 0.5), (1.0, 2.0, 0.4), 3.0, 3.0)


def test_build_model_truncates_small_jumps():
    cfg = parse_config(SAMPLE)
    cfg.set("model", "sigma2", "0")
    cfg.set("model", "jump_kind", "atoms")
    cfg.set("model", "atom_locations", f"{-math.log(2.0)!r}, -0.05")
    cfg.set("model", "atom_masses", "1.0, 2.0")
    configured = cfg.build_model()
    cfg.set("model", "small_jump_cutoff", "0.1")
    cfg.set("model", "substitute_small", "true")
    model = cfg.build_model()
    assert model == truncated_model(configured, 0.1, True)
    assert model.nu == AtomicJumps((-math.log(2.0),), (1.0,))
    assert field_kind(model) == "hybrid"
    cfg.set("model", "substitute_small", "maybe")
    with pytest.raises(ConfigError, match="model.substitute_small"):
        cfg.build_model()


def test_shipped_configs_parse(pytestconfig):
    root = pytestconfig.rootpath
    for name in ("lognormal.ini", "atom.ini"):
        cfg = load_config(root / "configs" / name)
        cfg.build_model()
        cfg.build_grid()
        assert cfg.value("experiment", "replicas") >= 1


def test_benchmark_and_shipped_configs_pass_the_table(pytestconfig,
                                                     tmp_path, monkeypatch):
    # the configs the benchmark's CLI workload writes, by its own function,
    # load and check cleanly, so stricter loading cannot fail its runs
    root = pytestconfig.rootpath
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", root / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.write_cli_config(tmp_path / "simulate.ini", 7,
                           bench.CLI_SIMULATE_REPLICAS)
    bench.write_cli_config(tmp_path / "estimate.ini", 7,
                           bench.CLI_ESTIMATE_REPLICAS, "covariance")
    for path in (tmp_path / "simulate.ini", tmp_path / "estimate.ini",
                 root / "configs" / "atom.ini",
                 root / "configs" / "lognormal.ini"):
        cfg = load_config(path)
        cfg.check()
        cfg.build_model()
        cfg.build_grid()
    cfg = load_config(tmp_path / "estimate.ini")
    assert cfg.value("experiment", "kind") == "covariance"
    assert cfg.value("experiment", "ks_p_min") == bench.KS_P_MIN


def test_load_config_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "nope.ini")
