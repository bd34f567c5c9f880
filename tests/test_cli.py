import configparser
import json
import math
import operator
import os
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

import idcascade
from idcascade import checks, config, cones
from idcascade.cli import main
from idcascade.config import KEYS

BASE = """
[model]
sigma2 = 0.5
jump_kind = none

[grid]
levels = 4
oversample = 2

[experiment]
seed = 5
replicas = 3
{experiment}

[output]
formats = both
{output}
"""


def write_cfg(path, outdir, experiment="", output=""):
    text = BASE.format(experiment=experiment,
                       output=f"directory = {outdir}\n{output}")
    path.write_text(text)
    return path


@pytest.fixture
def cfg_file(tmp_path):
    return write_cfg(tmp_path / "run.ini", tmp_path / "out")


def run(*argv):
    return main([str(a) for a in argv])


def shipped_cfg(name, tmp_path, **sections):
    """configs/<name> with 4 replicas, output to tmp_path / "out" and the
    given {section: {key: value}} overrides, written to tmp_path / name."""
    cfg = configparser.ConfigParser()
    cfg.read(Path(__file__).resolve().parents[1] / "configs" / name)
    cfg["experiment"]["replicas"] = "4"
    cfg["output"]["directory"] = str(tmp_path / "out")
    for section, keys in sections.items():
        cfg[section].update(keys)
    path = tmp_path / name
    with open(path, "w") as fh:
        cfg.write(fh)
    return path


def test_theory_writes_stamped_report(cfg_file, tmp_path):
    assert run("--config", cfg_file, "theory") == 0
    payload = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert payload["tail_index"] == pytest.approx(4.0)
    assert payload["seed"] == 5
    assert len(payload["config_hash"]) == 16


def test_simulate_outputs_and_reruns_identically(cfg_file, tmp_path):
    assert run("--config", cfg_file, "simulate") == 0
    out = tmp_path / "out"
    first = (out / "summary.csv").read_bytes()
    blob = (out / "realization_000002.bin").read_bytes()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["replicas"] == 3
    assert summary["mean_total_mass"] > 0
    assert summary["sampler"] == "dense"
    assert summary["sampler_health"] == {"cholesky_jitter": 0.0}
    header, cols, *rows = first.decode().strip().splitlines()
    assert header.startswith("# config_hash=")
    assert cols == "replica,total_mass"
    assert len(rows) == 3

    assert run("--config", cfg_file, "--out", tmp_path / "o2",
               "simulate") == 0
    assert (tmp_path / "o2" / "realization_000002.bin").read_bytes() == blob
    # the stamp differs (directory is part of the config), the data rows not
    second = (tmp_path / "o2" / "summary.csv").read_bytes()
    assert second.decode().splitlines()[2:] == first.decode().splitlines()[2:]


def test_reports_rewritten_shorter_are_cut_to_length(cfg_file, tmp_path):
    # reports and dumps are overwritten in place: a rerun with fewer
    # replicas leaves no tail of the longer run's files
    short = tmp_path / "short.ini"
    short.write_text(cfg_file.read_text().replace("replicas = 3",
                                                  "replicas = 1"))
    out = tmp_path / "out"
    names = ("summary.csv", "summary.json", "realization_000000.bin")
    assert run("--config", short, "simulate") == 0
    first = [(out / name).read_bytes() for name in names]
    assert run("--config", cfg_file, "simulate") == 0
    assert run("--config", short, "simulate") == 0
    assert [(out / name).read_bytes() for name in names] == first


def test_progress_reports_count_and_rate(tmp_path, capsys, monkeypatch):
    from idcascade import cascade
    monkeypatch.setattr(cascade, "RUN_CHUNK", 2)
    path = write_cfg(tmp_path / "p.ini", tmp_path / "p")
    assert run("--config", path, "simulate") == 0
    err = capsys.readouterr().err
    # a tick per chunk of 2 and the closing line, each rewriting one line
    ticks = err.split("\r")[1:]
    assert len(ticks) == 3 and err.endswith("\n")
    assert re.fullmatch(r"replica 3/3  \d+ replicas/s  ETA 0\.0 s\n",
                        ticks[-1])
    assert ticks[0].startswith("replica 2/3  ")


def test_simulate_records_its_sampler(tmp_path):
    path = write_cfg(tmp_path / "deep.ini", tmp_path / "deep")
    path.write_text(path.read_text().replace("levels = 4", "levels = 10"))
    assert run("--config", path, "simulate") == 0
    summary = json.loads((tmp_path / "deep" / "summary.json").read_text())
    assert summary["sampler"] == "circulant"
    assert 0.0 < summary["sampler_health"]["min_eigenvalue_ratio"] < 1.0
    # a pure-jump model whose small jumps become a Gaussian is hybrid
    path = shipped_cfg("atom.ini", tmp_path, grid={"levels": "6"}, model={
        "atom_locations": "-0.6931471805599453, -0.05",
        "atom_masses": "1.0, 2.0", "small_jump_cutoff": "0.1",
        "substitute_small": "true"})
    assert run("--config", path, "simulate") == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["sampler"] == "hybrid"


def test_simulate_draws_a_grid_of_levels_and_oversample_on_the_circulant(
        tmp_path):
    # a [grid] of two keys, 2048 points: the batch carries no cells
    path = write_cfg(tmp_path / "deep.ini", tmp_path / "deep")
    path.write_text(path.read_text().replace(
        "levels = 4\noversample = 2", "levels = 9\noversample = 4"))
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(path)
    assert dict(cp["grid"]) == {"levels": "9", "oversample": "4"}
    assert run("--config", path, "simulate") == 0
    summary = json.loads((tmp_path / "deep" / "summary.json").read_text())
    assert summary["sampler"] == "circulant"


def test_simulate_writes_the_same_bytes_on_one_thread(tmp_path,
                                                      monkeypatch):
    # 2048 points: the circulant sampler, whose batches run on the workers
    from idcascade import cascade
    monkeypatch.setattr(cascade, "RUN_CHUNK", 16)
    path = write_cfg(tmp_path / "deep.ini", tmp_path / "deep")
    path.write_text(path.read_text().replace("levels = 4", "levels = 10")
                    .replace("replicas = 3", "replicas = 40"))
    outputs = []
    for workers in (lambda: 1, cascade.pool_size):
        monkeypatch.setattr(cascade, "pool_size", workers)
        assert run("--config", path, "simulate") == 0
        outputs.append({f.name: f.read_bytes()
                        for f in (tmp_path / "deep").iterdir()})
        shutil.rmtree(tmp_path / "deep")
    assert len(outputs[0]) == 42 and outputs[0] == outputs[1]


def test_simulate_holds_no_chunk_of_leaf_masses(tmp_path, monkeypatch):
    from idcascade import cascade  # its import is not traced
    from idcascade._rng import make_generator
    from idcascade.field import make_sampler
    peaks = {}
    for chunk in (256, 8):
        monkeypatch.setattr(cascade, "RUN_CHUNK", chunk)
        path = shipped_cfg("atom.ini", tmp_path, grid={"levels": "12"},
                           experiment={"replicas": "256"})
        tracemalloc.start()
        try:
            assert run("--config", path, "simulate") == 0
            peaks[chunk] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    cfg = config.load_config(path)
    grid = cfg.build_grid()  # 16384 points, 4096 leaf cells
    rngs = [make_generator(3, i, "t") for i in range(64)]
    rows = len(next(make_sampler(grid, cfg.build_model()).blocks(rngs))[1])
    # the dumps are written a sampler block at a time: beyond one
    # block's point values and leaf masses, chunk 256 adds only its 248
    # more generators, where a chunk of leaf masses would add 8.4 MB
    assert peaks[256] - peaks[8] < 8 * rows * (grid.n_points +
                                                   grid.n_cells)


@pytest.mark.parametrize("name", ["atom.ini", "lognormal.ini"])
def test_simulate_files_keep_their_bytes_at_any_chunk_and_worker_count(
        name, tmp_path, monkeypatch):
    # at levels 9 the lognormal grid's 2048 points draw on the circulant
    # sampler, whose workers write the dumps; the atom grid's Poisson
    # sampler draws and writes on the calling thread
    from idcascade import cascade
    threads = set()
    write = cascade.write_masses_binary

    def recording(*args):
        threads.add(threading.current_thread().name)
        write(*args)
    monkeypatch.setattr(cascade, "write_masses_binary", recording)
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(cascade, "pool_size", lambda: workers)
        for chunk in (1, 7, 12):
            monkeypatch.setattr(cascade, "RUN_CHUNK", chunk)
            threads.clear()
            path = shipped_cfg(name, tmp_path, grid={"levels": "9"},
                               experiment={"replicas": "12"})
            assert run("--config", path, "simulate") == 0
            out = tmp_path / "out"
            summary = json.loads((out / "summary.json").read_text())
            outputs.append((
                {f.name: f.read_bytes() for f in out.glob("*.bin")},
                summary, (out / "summary.csv").read_text().split("\n")[1:]))
            shutil.rmtree(out)
            pooled = (summary["sampler"] == "circulant" and workers == 2
                      and chunk != 1)  # one replica draws on one thread
            assert all(t.startswith("idcascade-worker") == pooled
                       for t in threads) and threads
    assert len(outputs[0][0]) == 12
    assert all(o == outputs[0] for o in outputs)


def test_threads_is_a_usage_error(cfg_file, tmp_path, capsys):
    # the process's CPU affinity sets the workers: the flag is named and
    # rejected before anything is written
    for threads in ("1", "0"):
        with pytest.raises(SystemExit) as exc:
            run("--config", cfg_file, "--threads", threads, "theory")
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_seed_flag_changes_rows(cfg_file, tmp_path):
    assert run("--config", cfg_file, "--format", "csv", "simulate") == 0
    a = (tmp_path / "out" / "summary.csv").read_text().splitlines()[2]
    assert not (tmp_path / "out" / "summary.json").exists()
    assert run("--config", cfg_file, "--seed", 6, "simulate") == 0
    b = (tmp_path / "out" / "summary.csv").read_text().splitlines()[2]
    assert a != b


def test_verify_pass_fail_and_unknown(cfg_file, tmp_path, capsys,
                                     monkeypatch):
    path = write_cfg(tmp_path / "v.ini", tmp_path / "v",
                     experiment="checks = normalization,areas,star\n")
    assert run("--config", path, "verify") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["normalization: pass", "areas: pass", "star: pass"]
    payload = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert payload["all_passed"] is True

    # a p-value of 0 is below any bound ks_p_min may take
    monkeypatch.setitem(checks.VERIFY, "scaling_ks", (
        lambda *args: (0.0, {}), "ks_p_min", operator.ge))
    strict = write_cfg(tmp_path / "strict.ini", tmp_path / "v",
                       experiment="checks = scaling_ks\n")
    assert run("--config", strict, "verify") == 1
    assert "scaling_ks: FAIL" in capsys.readouterr().out

    bad = write_cfg(tmp_path / "bad.ini", tmp_path / "v",
                    experiment="checks = nonsense\n")
    assert run("--config", bad, "verify") == 2


@pytest.mark.parametrize("levels", [1, 2])
def test_verify_runs_on_one_and_two_level_grids(levels, tmp_path, capsys):
    # star splits a grid of at least 3 levels at levels 1 and 2, and
    # scaling_ks halves one of at least 2
    path = write_cfg(tmp_path / "v.ini", tmp_path / "v")
    path.write_text(path.read_text().replace("levels = 4",
                                             f"levels = {levels}"))
    assert run("--config", path, "verify") == 0
    assert capsys.readouterr().out.split() == [
        "normalization:", "pass", "areas:", "pass", "star:", "pass",
        "scaling_ks:", "pass"]


def test_estimate_moments_report(cfg_file, tmp_path):
    assert run("--config", cfg_file, "estimate") == 0
    payload = json.loads((tmp_path / "out" / "moments.json").read_text())
    qs = [row["q"] for row in payload["estimates"]]
    assert qs == [1.0, 2.0]
    assert all(row["mean"] > 0 for row in payload["estimates"])
    assert (tmp_path / "out" / "moments.csv").exists()

    cov = write_cfg(tmp_path / "cov.ini", tmp_path / "cov",
                    experiment="kind = covariance\nn_intervals = 3\n")
    cov.write_text(cov.read_text().replace("replicas = 3", "replicas = 40"))
    assert run("--config", cov, "estimate") == 0
    payload = json.loads((tmp_path / "cov" / "covariance.json").read_text())
    assert [row["gap"] for row in payload["rows"]] == [1, 2]
    assert payload["sampler"] == "juxtaposed-dense"
    assert payload["sampler_health"] == {"cholesky_jitter": 0.0}
    # the first terms of the exact covariance in 1 / gap, a column of both
    # reports
    series = [idcascade.juxtaposed_covariance_series(
        idcascade.lognormal_model(0.5), g) for g in (1, 2)]
    assert [row["theory_series"] for row in payload["rows"]] == series
    lines = (tmp_path / "cov" / "covariance.csv").read_text().splitlines()[1:]
    assert lines[0].split(",")[-1] == "theory_series"
    assert [float(line.split(",")[-1]) for line in lines[1:]] == series


def test_estimate_reports_record_their_sampler(tmp_path):
    for kind in ("moments", "tail", "scaling"):
        path = write_cfg(tmp_path / f"{kind}.ini", tmp_path / kind,
                         experiment=f"kind = {kind}\n")
        path.write_text(path.read_text().replace("replicas = 3",
                                                 "replicas = 100"))
        assert run("--config", path, "estimate") == 0
        payload = json.loads((tmp_path / kind / f"{kind}.json").read_text())
        assert payload["sampler"] == "dense"
        assert payload["sampler_health"] == {"cholesky_jitter": 0.0}


def test_config_error_exits_2(tmp_path):
    assert run("--config", tmp_path / "missing.ini", "theory") == 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[martian]\nx = 1\n")
    assert run("--config", bad, "theory") == 2
    ok = write_cfg(tmp_path / "ok.ini", tmp_path / "out")
    assert run("--config", ok, "--seed", -1, "theory") == 2
    for old, new in (("jump_kind = none",
                      "jump_kind = none\nsmall_jump_cutoff = abc"),
                     ("jump_kind = none",
                      "jump_kind = none\nsmall_jump_cutoff = 1.5"),
                     ("jump_kind = none",
                      "jump_kind = none\nsubstitute_small = true"),
                     ("oversample = 2", "oversample = 2\ninterval = 0, 2")):
        bad.write_text(ok.read_text().replace(old, new))
        assert run("--config", bad, "simulate") == 2
    # a cutoff above the only atom leaves no randomness, on every path
    for kind in ("scaling", "covariance"):
        path = shipped_cfg("atom.ini", tmp_path,
                           model={"small_jump_cutoff": "0.9"},
                           experiment={"kind": kind})
        for command in ("theory", "simulate", "verify", "estimate"):
            assert run("--config", path, command) == 2
    # covariance needs two intervals; caught before any replica is drawn
    bad.write_text(ok.read_text().replace(
        "replicas = 3", "replicas = 3\nkind = covariance\nn_intervals = 1"))
    assert run("--config", bad, "estimate") == 2


@pytest.mark.parametrize("rates", ["", "left_rate = 2.0\nright_rate = 3.0\n"],
                         ids=["no-tails", "tails"])
@pytest.mark.parametrize("sigma2", ["0", "0.3"])
def test_zero_mass_tabulated_density_is_a_config_error(tmp_path, capsys,
                                                       rates, sigma2):
    # a density that is zero everywhere names its key, before anything is
    # drawn or written, with or without a Gaussian part and tail rates
    path = write_cfg(tmp_path / "z.ini", tmp_path / "z")
    path.write_text(path.read_text().replace(
        "sigma2 = 0.5\njump_kind = none\n",
        f"sigma2 = {sigma2}\njump_kind = tabulated\ntabulated_x = -1, 1\n"
        f"tabulated_density = 0, 0\n{rates}"))
    for command in ("theory", "simulate"):
        assert run("--config", path, command) == 2
        assert ("model.tabulated_density: tabulated density has zero "
                "total mass") in capsys.readouterr().err
    assert not (tmp_path / "z").exists()


def test_substitute_without_cutoff_is_a_config_error(tmp_path, capsys):
    path = shipped_cfg("atom.ini", tmp_path,
                       model={"substitute_small": "true"})
    for command in ("theory", "simulate", "verify", "estimate"):
        assert run("--config", path, command) == 2
    assert "model.substitute_small" in capsys.readouterr().err


def test_chunk_is_an_unknown_key(tmp_path, capsys):
    # every batch draws cascade.RUN_CHUNK replicas at a time: caught
    # before any replica is drawn or written, on every subcommand
    for chunk in ("8", "0"):
        for kind in ("moments", "tail", "scaling", "covariance"):
            path = shipped_cfg("atom.ini", tmp_path,
                               experiment={"chunk": chunk, "kind": kind})
            for command in ("theory", "simulate", "estimate"):
                assert run("--config", path, command) == 2
                assert "config error: experiment.chunk: unknown key" in \
                    capsys.readouterr().err
        # verify's scaling check draws batches too
        path = shipped_cfg("atom.ini", tmp_path, experiment={
            "chunk": chunk, "checks": "scaling_ks"})
        assert run("--config", path, "verify") == 2
        assert "config error: experiment.chunk: unknown key" in \
            capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_missing_file_while_running_exits_3(tmp_path, capsys,
                                             monkeypatch):
    # the output directory removed under a running simulate: a runtime
    # error, where only a missing --config file is a config error
    from idcascade import cascade
    write = cascade.write_masses_binary

    def vanishing(path, *args):
        shutil.rmtree(tmp_path / "out", ignore_errors=True)
        write(path, *args)
    monkeypatch.setattr(cascade, "write_masses_binary", vanishing)
    path = shipped_cfg("atom.ini", tmp_path)
    assert run("--config", path, "simulate") == 3
    assert "runtime error: FileNotFoundError" in capsys.readouterr().err


def test_runtime_error_exits_3(tmp_path, capsys):
    # a directory where the report file goes: no setting foretells it
    path = shipped_cfg("atom.ini", tmp_path)
    (tmp_path / "out" / "diagnostics.json").mkdir(parents=True)
    assert run("--config", path, "theory") == 3
    assert "runtime error: IsADirectoryError" in capsys.readouterr().err


def test_hybrid_covariance_draws_juxtaposed_hybrid_copies(tmp_path):
    # the atom config with a Gaussian part, on a 256-point grid: its 4
    # copies' dense Gram has 1028 objects
    path = shipped_cfg("atom.ini", tmp_path, model={"sigma2": "0.2"},
                       grid={"levels": "6"},
                       experiment={"kind": "covariance"})
    assert run("--config", path, "estimate") == 0
    payload = json.loads((tmp_path / "out" / "covariance.json").read_text())
    assert payload["sampler"] == "juxtaposed-hybrid"
    assert payload["sampler_health"] == {"cholesky_jitter": 0.0}
    assert [row["gap"] for row in payload["rows"]] == [1, 2, 3]


@pytest.mark.parametrize("command", ["theory", "estimate"])
def test_a_bad_output_directory_is_a_config_error(command, tmp_path, capsys):
    # an existing file, and a directory below one, caught before anything
    # is drawn
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    for outdir in (blocker, blocker / "sub"):
        path = write_cfg(tmp_path / "o.ini", outdir)
        assert run("--config", path, command) == 2
        err = capsys.readouterr().err
        assert f"config error: output.directory: {blocker} is not a " \
            "directory" in err
    assert blocker.read_text() == "kept"


def test_grid_bounds_stop_every_subcommand(tmp_path, capsys):
    # the whole configuration is checked before any subcommand runs, so
    # theory stops on a bad grid as the drawing subcommands do
    for old, new, name in (
            ("levels = 4", "levels = 0", "grid.levels"),
            ("oversample = 2", "oversample = 0", "grid.oversample"),
            ("oversample = 2", "oversample = 2\ninterval_lo = 2\n"
             "interval_hi = 1", "grid.interval_hi")):
        path = write_cfg(tmp_path / "g.ini", tmp_path / "g")
        path.write_text(path.read_text().replace(old, new))
        for command in ("theory", "simulate", "verify", "estimate"):
            assert run("--config", path, command) == 2, (name, command)
            assert f"config error: {name}: " in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_ks_p_min_lies_strictly_between_0_and_1(tmp_path, capsys):
    # at or below 0 the scaling_ks check could not fail, at or above 1 it
    # could not pass
    for value in ("0", "-1", "1", "2"):
        path = write_cfg(tmp_path / "p.ini", tmp_path / "p",
                         experiment=f"ks_p_min = {value}\n")
        for command in ("theory", "simulate", "verify", "estimate"):
            assert run("--config", path, command) == 2, (value, command)
            assert "config error: experiment.ks_p_min: must lie in (0, 1)" \
                in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_config_is_required(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run("theory")
    assert exc.value.code == 2
    assert "required: --config" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_tail_estimate_needs_100_replicas(tmp_path, capsys):
    # the config draws 3 replicas; nothing is drawn or written
    path = write_cfg(tmp_path / "t.ini", tmp_path / "t",
                     experiment="kind = tail\n")
    assert run("--config", path, "estimate") == 2
    assert "experiment.replicas: tail estimation needs at least 100" in \
        capsys.readouterr().err
    assert not (tmp_path / "t").exists()


# A malformed value of every key in the table but output.directory, which
# takes any string.
MALFORMED = {
    "model.sigma2": "-0.5", "model.jump_kind": "bogus",
    "model.atom_locations": "1, two", "model.atom_masses": "nan",
    "model.tabulated_x": "x", "model.tabulated_density": "1, inf",
    "model.left_rate": "abc", "model.right_rate": "-inf",
    "model.small_jump_cutoff": "abc", "model.substitute_small": "maybe",
    "grid.levels": "x", "grid.oversample": "2.5",
    "grid.interval_lo": "abc", "grid.interval_hi": "inf",
    "experiment.seed": "-1", "experiment.replicas": "0",
    "experiment.scale_ratios": "half",
    "experiment.n_intervals": "x", "experiment.ks_p_min": "nan",
    "experiment.kind": "bogus", "experiment.checks": "nosuch",
    "experiment.q_values": "1, two", "output.formats": "xml",
}
# Rules across model keys, each broken on configs/atom.ini: the key the
# error names, and the model keys that break it.
TABULATED = {"jump_kind": "tabulated", "tabulated_x": "-1, 1",
             "tabulated_density": "1, 1"}
CROSS_KEY = [
    ("atom_masses", {"atom_locations": "-0.5, -0.3", "atom_masses": "1"}),
    ("atom_masses", {"atom_masses": "0"}),
    ("atom_locations", {"atom_locations": "0"}),
    ("tabulated_x", {**TABULATED, "tabulated_x": "0",
                     "tabulated_density": "1"}),
    ("tabulated_x", {**TABULATED, "tabulated_x": "1, 0"}),
    ("tabulated_density", {**TABULATED, "tabulated_density": "1, -1"}),
    ("tabulated_density", {**TABULATED, "tabulated_density": "0, 0"}),
    ("tabulated_density", {**TABULATED, "tabulated_x": "-1, 0, 1"}),
    ("left_rate", {**TABULATED, "left_rate": "-2"}),
    ("right_rate", {**TABULATED, "right_rate": "0.5"}),
    ("sigma2", {"sigma2": "0", "jump_kind": "none"}),
]
# Every comma-list key, holding no number.
EMPTY_LISTS = [(name, ",") for name in (
    "model.atom_locations", "model.atom_masses", "model.tabulated_x",
    "model.tabulated_density", "experiment.q_values",
    "experiment.scale_ratios")]


def test_every_malformed_key_is_named(tmp_path, capsys):
    assert set(MALFORMED) | {"output.directory"} == {
        f"{section}.{key}" for section, keys in KEYS.items() for key in keys}
    for name, value in [*MALFORMED.items(), *EMPTY_LISTS]:
        section, key = name.split(".")
        path = write_cfg(tmp_path / "k.ini", tmp_path / "k")
        cp = configparser.ConfigParser(interpolation=None)
        cp.read(path)
        cp[section][key] = value
        with open(path, "w") as fh:
            cp.write(fh)
        # caught before anything is drawn or written, on every subcommand
        for command in ("theory", "simulate", "verify", "estimate"):
            assert run("--config", path, command) == 2, (name, command)
            assert f"config error: {name}: " in capsys.readouterr().err
        assert not (tmp_path / "k").exists()


@pytest.mark.parametrize("key,model", CROSS_KEY,
                         ids=[f"{k}-{i}" for i, (k, _) in enumerate(CROSS_KEY)])
def test_every_cross_key_model_error_names_its_key(key, model, tmp_path,
                                                   capsys):
    path = shipped_cfg("atom.ini", tmp_path, model=model)
    # caught before anything is drawn or written, on every subcommand
    for command in ("theory", "simulate", "verify", "estimate"):
        assert run("--config", path, command) == 2, command
        assert f"config error: model.{key}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_finite_numbers_are_config_errors(tmp_path, capsys):
    # caught before any output is written, on every subcommand
    for key, value in (("sigma2", "nan"), ("sigma2", "inf"),
                       ("sigma2", "-inf"), ("atom_masses", "1.0, nan")):
        path = shipped_cfg("atom.ini", tmp_path, model={key: value})
        for command in ("theory", "simulate", "verify", "estimate"):
            assert run("--config", path, command) == 2
            assert f"model.{key}: not finite" in capsys.readouterr().err
    path = shipped_cfg("atom.ini", tmp_path, experiment={"ks_p_min": "nan"})
    assert run("--config", path, "verify") == 2
    assert "experiment.ks_p_min: not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_tolerance_keys_are_unknown(tmp_path, capsys):
    # verify's bounds and sizes are constants of checks.VERIFY, all but
    # the KS level; and batches draw no cells, so the grid has no
    # cell_levels
    for name in ("experiment.normalization_tol", "experiment.areas_tol",
                 "experiment.areas_count", "experiment.star_tol",
                 "grid.cell_levels"):
        section, key = name.split(".")
        path = write_cfg(tmp_path / "a.ini", tmp_path / "a",
                         experiment="checks = areas\n")
        path.write_text(path.read_text().replace(
            f"[{section}]\n", f"[{section}]\n{key} = 1\n"))
        assert run("--config", path, "verify") == 2
        assert f"config error: {name}: unknown key" in \
            capsys.readouterr().err
        assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("name", ["area_cell", "area_cross"])
def test_a_broken_closed_form_fails_areas(name, monkeypatch, tmp_path,
                                          capsys):
    closed = getattr(cones, name)
    monkeypatch.setattr(cones, name, lambda *args: closed(*args) + 1e-6)
    path = write_cfg(tmp_path / "a.ini", tmp_path / "a",
                     experiment="checks = areas\n")
    assert run("--config", path, "verify") == 1
    assert capsys.readouterr().out == "areas: FAIL\n"


def test_scale_ratios_off_the_grid_are_config_errors(tmp_path, capsys):
    # 0.3 is no whole number of the 16 leaf cells, 2^-5 is below one, 0
    # gives an empty prefix; a lone 1.5 fails the two-ratio bound first,
    # so 1.5 also comes paired
    for ratios in ("0.5, 0.3", "0.5, 0.03125", "0.5, 0", "1.5", "0.5, 1.5"):
        path = write_cfg(tmp_path / "s.ini", tmp_path / "s", experiment=(
            f"kind = scaling\nscale_ratios = {ratios}\n"))
        assert run("--config", path, "estimate") == 2
        assert "experiment.scale_ratios" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_scale_ratios_need_two_distinct_values(tmp_path, capsys):
    # one ratio, or two equal ones, fit no slope: every subcommand stops
    # at the config, before a replica is drawn or a report written
    for ratios in ("0.5", "0.5, 0.5"):
        path = write_cfg(tmp_path / "s.ini", tmp_path / "s", experiment=(
            f"kind = scaling\nscale_ratios = {ratios}\n"))
        for command in ("theory", "simulate", "verify", "estimate"):
            assert run("--config", path, command) == 2, (ratios, command)
            err = capsys.readouterr().err
            assert err == ("config error: experiment.scale_ratios: needs "
                           "at least two distinct ratios\n")
    assert not (tmp_path / "s").exists()


def test_moments_report_is_strict_json(tmp_path):
    # 10 replicas are too few for median-of-means; sigma2 = 0.8 has the
    # tail index 2.5, and sigma2 = 0.02 one above the root search's cap
    def strict(token):
        raise ValueError(f"non-standard JSON token {token}")

    for sigma2, heavy in (("0.8", [0, 1]), ("0.02", [None, None])):
        out = tmp_path / sigma2
        path = write_cfg(tmp_path / "m.ini", out)
        path.write_text(path.read_text().replace(
            "replicas = 3", "replicas = 10").replace(
            "sigma2 = 0.5", f"sigma2 = {sigma2}"))
        assert run("--config", path, "estimate") == 0
        payload = json.loads((out / "moments.json").read_text(),
                             parse_constant=strict)
        rows = payload["estimates"]
        assert [row["median_of_means"] for row in rows] == [None, None]
        assert [row["heavy_tail"] for row in rows] == heavy
        csv = (out / "moments.csv").read_text().splitlines()[2:]
        assert [line.split(",")[3:] for line in csv] == [
            ["nan", "" if h is None else str(h)] for h in heavy]


def test_json_reports_spell_infinities_and_write_nan_as_null(cfg_file,
                                                            tmp_path):
    from idcascade.cli import _write_json
    path = _write_json(config.load_config(cfg_file), "r.json", {
        "values": [math.inf, -math.inf, math.nan, 1.5],
        "health": {"ratio": math.inf}})
    assert Path(path).read_text() == (
        '{\n  "health": {\n    "ratio": "inf"\n  },\n  "values": [\n'
        '    "inf",\n    "-inf",\n    null,\n    1.5\n  ]\n}\n')


def test_console_script_smoke(cfg_file, tmp_path):
    # Run the [project.scripts] target in a fresh interpreter the way the
    # installed wrapper would, so no install is needed; the child imports
    # the same idcascade package as this test.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    module, func = project["scripts"]["idcascade"].split(":")
    pkg_root = str(Path(idcascade.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [pkg_root, os.environ.get("PYTHONPATH")])))
    # on one CPU, as taskset would run it: the affinity sets the workers
    one_cpu = ("import os\nif hasattr(os, 'sched_setaffinity'): "
               "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n")
    launch = (f"{one_cpu}import sys; from {module} import {func}; "
              f"sys.exit({func}())")
    proc = subprocess.run(
        [sys.executable, "-c", launch,
         "--config", str(cfg_file), "theory"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("diagnostics.json")


def _modules_after(launch, *argv, packages=("scipy",)):
    """Run launch in a fresh interpreter importing this idcascade package,
    check that it succeeds, and return the list of modules of the
    packages (scipy, by default) that it loaded, as printed."""
    pkg_root = str(Path(idcascade.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [pkg_root, os.environ.get("PYTHONPATH")])))
    report = ("import sys; print(sorted(m for m in sys.modules "
              f"for p in {tuple(packages)!r} "
              "if m == p or m.startswith(p + '.')))")
    proc = subprocess.run(
        [sys.executable, "-c", f"{launch}\n{report}", *map(str, argv)],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    assert _modules_after("import idcascade") == "[]"


@pytest.mark.parametrize("launch, packages, loaded", [
    # the name table alone
    ("import idcascade", ("idcascade", "numpy", "scipy"), ["idcascade"]),
    # the paper's closed-form diagnostics need no sampler
    ("from idcascade import diagnose, lognormal_model",
     ("idcascade.levy", "idcascade.field", "idcascade.cascade",
      "numpy.random"), ["idcascade.levy"]),
    # every module that `import idcascade` ran before its names were lazy
    ("from idcascade import *\nimport threading\n"
     "assert threading.active_count() == 1",
     ("scipy", "concurrent.futures"), []),
], ids=["bare", "levy-names", "star"])
def test_an_import_loads_only_the_modules_its_names_need(launch, packages,
                                                         loaded):
    assert _modules_after(launch, packages=packages) == str(loaded)


def test_every_public_name_is_its_defining_modules_object():
    launch = (
        "import importlib, idcascade\n"
        "idcascade.config.KEYS, idcascade.checks.VERIFY\n"
        "idcascade.moments.scaling_fit\n"
        "from idcascade import GridSpec, cascade\n"
        "assert cascade.__name__ == 'idcascade.cascade'\n"
        "assert cascade.GridSpec is GridSpec\n"
        "for name in idcascade._MODULES:\n"
        "    module = importlib.import_module('idcascade.' + name)\n"
        "    assert getattr(idcascade, name) is module, name\n"
        "for name, module in idcascade._HOME.items():\n"
        "    home = 'idcascade.' + module\n"
        "    obj = getattr(idcascade, name)\n"
        "    assert obj.__module__ == home, name\n"
        "    assert obj is getattr(importlib.import_module(home), name)\n"
        "assert set(idcascade.__all__) <= set(dir(idcascade))\n"
        "assert idcascade.GridSpec is idcascade.field.GridSpec\n"
        "assert len(set(idcascade.__all__)) == len(idcascade.__all__) == 51\n"
        "from idcascade import *\n"
        "assert all(globals()[name] is getattr(idcascade, name)\n"
        "           for name in idcascade.__all__)\n"
        "try:\n"
        "    idcascade.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc), exc\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')")
    assert _modules_after(launch) == "[]"


@pytest.mark.parametrize("name", ["atom.ini", "lognormal.ini"])
def test_simulate_loads_no_scipy(name, tmp_path):
    # no subcommand loads scipy, which only the tests use: theory's tail
    # index is 2 / sigma2 for the lognormal config, and drawing replicas
    # and the KS test of verify's scaling_ks check need numpy alone
    path = shipped_cfg(name, tmp_path)
    launch = ("import sys; from idcascade import cli\n"
              "assert cli.main(sys.argv[1:]) == 0")
    assert _modules_after(launch, "--config", path, "theory") == "[]"
    assert (tmp_path / "out" / "diagnostics.json").exists()
    assert _modules_after(launch, "--config", path, "simulate") == "[]"
    assert len(list((tmp_path / "out").glob("realization_*.bin"))) == 4
    assert _modules_after(launch, "--config", path, "verify") == "[]"
    assert json.loads((tmp_path / "out" / "verify.json").read_text())[
        "all_passed"]


@pytest.mark.parametrize("command,kind", [
    ("simulate", "moments"), ("verify", "moments"), ("estimate", "moments"),
    ("estimate", "covariance")])
def test_drawing_commands_load_no_scipy_or_numpy_ma(command, kind,
                                                    tmp_path):
    # numpy.ma, which np.median imports on its first call, takes 8 MB;
    # the Gauss-Legendre rules need no numpy.polynomial; 100 replicas are
    # enough for the moments' median of 32 block means
    path = shipped_cfg("atom.ini", tmp_path,
                       experiment={"replicas": "100", "kind": kind})
    launch = ("import sys; from idcascade import cli\n"
              "assert cli.main(sys.argv[1:]) == 0")
    assert _modules_after(launch, "--config", path, command,
                          packages=("scipy", "numpy.ma",
                                    "numpy.polynomial")) == "[]"


@pytest.mark.parametrize("command,replicas", [
    ("theory", "4"), ("verify", "4"), ("estimate", "100")])
def test_a_tabulated_model_loads_no_scipy(command, replicas, tmp_path):
    # a tabulated jump measure's integrals sum fixed Gauss-Legendre rules;
    # 100 replicas are enough for the moments' median of 32 block means
    path = shipped_cfg("atom.ini", tmp_path, model={
        "sigma2": "0.1", "jump_kind": "tabulated",
        "tabulated_x": "-1.5, -0.2, 0.5", "tabulated_density": "0.4, 1, 0",
        "left_rate": "2", "right_rate": "3"},
        experiment={"replicas": replicas, "kind": "moments"})
    launch = ("import sys; from idcascade import cli\n"
              "assert cli.main(sys.argv[1:]) == 0")
    assert _modules_after(launch, "--config", path, command) == "[]"


@pytest.mark.parametrize("command,kind", [("theory", "moments"),
                                          ("estimate", "tail")])
def test_a_finite_tail_index_loads_no_scipy(command, kind, tmp_path):
    # with sigma2 = 0.2 the atom model has a tail index (about 5.97),
    # which theory reports and the tail estimate takes; 100 replicas are
    # the fewest the Hill estimates accept
    path = shipped_cfg("atom.ini", tmp_path, model={"sigma2": "0.2"},
                       experiment={"replicas": "100", "kind": kind})
    launch = ("import sys; from idcascade import cli\n"
              "assert cli.main(sys.argv[1:]) == 0")
    assert _modules_after(launch, "--config", path, command) == "[]"
    if command == "theory":
        report = json.loads((tmp_path / "out" / "diagnostics.json")
                            .read_text())
        assert report["tail_index"] == pytest.approx(5.97, abs=0.01)
