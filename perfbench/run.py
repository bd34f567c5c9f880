"""idcascade benchmark: three closed-loop workloads and a traced layer run.

Run from the root of a checkout (nothing needs installing; the package is
imported from ./src):

    python3 perfbench/run.py                         # all three workloads
    python3 perfbench/run.py --workload gauss-batch --seed 7 --seconds 30
    python3 perfbench/run.py --workload jump-cli --trace 1

Every workload runs as passes.  A pass is the whole workload at a fixed
size, in fresh interpreters, one call after the previous one returns:

* gauss-batch: one process builds one BatchSimulator at 4096 points and
  reduces its chunks; the dense Gaussian path does the work.
* gauss-single: one process loops build_realization, decompose_star and
  the export round trips at levels 8 with every cell level carried; the
  sampler is rebuilt on every call.
* jump-cli: four processes run the CLI subcommands theory, simulate,
  verify and estimate (covariance) on a config written from
  configs/atom.ini; the compound-Poisson path does the work.

With --trace 0, a workload runs a fixed number of passes: --seconds
divided by the workload's nominal pass time, and at least MIN_PASSES.  The
count depends on --seconds only, never on how fast the host is.  The
end-to-end metrics are medians over passes (peak RSS is the maximum).
With --trace 1, one pass runs untraced and then the same pass (same seed)
runs traced: their outputs must be bit-identical, the per-layer metrics
come from the traced pass and `trace.overhead_s` is the traced minus the
untraced wall time.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Metric names and units come from BENCHMARK.json, and
--seconds defaults to its run_seconds.  The exit code is 1 when any
operation failed, so a broken program cannot pass as a slow one.
"""

import argparse
import configparser
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import summarise_checks

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "perfbench"
OUT = HERE / "out"

# BLAS/OpenMP pool size of every workload process.  One thread: on a 2-core
# host the 4096-point Cholesky was slower at 2 threads (3.4 s vs 2.6 s) and
# a single thread leaves the second core to the harness and neighbours.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

MIN_PASSES = 3
# Nominal seconds per pass at one BLAS thread on a 2-vCPU host.  They only
# turn --seconds into a pass count; nothing is timed against them.
PASS_SECONDS = {"gauss-batch": 6.0, "gauss-single": 7.5, "jump-cli": 14.0}
CHILD_TIMEOUT_S = 150
WORKLOADS = ("gauss-batch", "gauss-single", "jump-cli")

# Fixed pass sizes, each about 6-14 s at one BLAS thread.  The CLI counts
# make replica draws, not process start-up, most of the time inside
# cli.main of simulate and estimate.
GAUSS_BATCH_REPLICAS = 2000
GAUSS_BATCH_CHUNK = 500
GAUSS_SINGLE_REPLICAS = 80
CLI_SIMULATE_REPLICAS = 500
CLI_ESTIMATE_REPLICAS = 100
COVARIANCE_PULL_MAX = 5.0
MASS_SUM_RTOL = 1e-12
# Significance level of verify's scaling_ks check.  The CLI default, 0.01,
# fails one correct verify in a hundred; the benchmark runs verify about a
# hundred times per evaluation, so it sets the level to keep the chance of
# any false alarm near 0.1% (Bonferroni).
KS_P_MIN = 1e-5

# Note printed beside metrics whose unit marks them as computed counts.
_COMPUTED_NOTE = "computed from sizes; ignores cache effects"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (missing source or config)."""


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def spawn(spec, workdir, tag):
    """Run child.py with a spec and wait; return its result with the
    process wall time and its set-up time (spawn to end of set-up)."""
    spec = dict(spec, workdir=str(workdir),
                result=str(workdir / f"{tag}.result.json"),
                spans=str(workdir / f"{tag}.spans.json"))
    log = workdir / f"{tag}.log"
    with open(log, "wb") as fh:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=str(workdir), env=child_env(), stdin=subprocess.DEVNULL,
            stdout=fh, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    t_end = time.monotonic()
    if code != 0 or not Path(spec["result"]).exists():
        tail = log.read_text(errors="replace")[-2000:]
        raise RuntimeError(f"{tag} process exited with {code}:\n{tail}")
    with open(spec["result"]) as fh:
        result = json.load(fh)
    if spec["trace"]:
        with open(spec["spans"]) as fh:
            result["spans"] = json.load(fh)
    result["wall_s"] = t_end - t_spawn
    result["setup_s"] = result["setup_end"] - t_spawn
    return result


# ---------------------------------------------------------------------------
# workloads: one pass each
# ---------------------------------------------------------------------------


def _count_checks(checks):
    attempted = sum(row[3] for row in checks)
    failed = sum(row[4] for row in checks)
    return attempted, failed


def pass_gauss_batch(seed, trace, workdir):
    spec = {"mode": "gauss-batch", "seed": seed, "trace": trace,
            "replicas": GAUSS_BATCH_REPLICAS, "chunk": GAUSS_BATCH_CHUNK}
    return _in_process_pass(spawn(spec, workdir, "gauss-batch"))


def pass_gauss_single(seed, trace, workdir):
    spec = {"mode": "gauss-single", "seed": seed, "trace": trace,
            "replicas": GAUSS_SINGLE_REPLICAS}
    return _in_process_pass(spawn(spec, workdir, "gauss-single"))


def _in_process_pass(res):
    attempted, failed = _count_checks(res["checks"])
    return {
        "wall_s": res["wall_s"], "setup_s": res["setup_s"],
        "replicas": res["replicas"], "deliver_s": res["loop_s"],
        "peak_rss_mb": res["maxrss_mb"],
        "attempted": attempted + res["replicas"],
        "failed": failed + res["failed_replicas"],
        "checks": res["checks"], "digest": res["digest"],
        "layers": [res["layers"]] if "layers" in res else [],
        "spans": {"main": res.get("spans", [])},
    }


def write_cli_config(path, seed, replicas, kind=None):
    """configs/atom.ini with the benchmark's seed and size, writing to out/."""
    cfg = configparser.ConfigParser(interpolation=None)
    with open(ROOT / "configs" / "atom.ini") as fh:
        cfg.read_file(fh)
    cfg.set("experiment", "seed", str(seed))
    cfg.set("experiment", "replicas", str(replicas))
    cfg.set("experiment", "ks_p_min", repr(KS_P_MIN))
    if kind is not None:
        cfg.set("experiment", "kind", kind)
    cfg.set("output", "directory", "out")
    with open(path, "w") as fh:
        cfg.write(fh)


def pass_jump_cli(seed, trace, workdir):
    # Paths are relative to the pass directory, the processes' working
    # directory, so a traced and an untraced pass hash the same config.
    start = time.monotonic()
    write_cli_config(workdir / "simulate.ini", seed, CLI_SIMULATE_REPLICAS)
    write_cli_config(workdir / "estimate.ini", seed, CLI_ESTIMATE_REPLICAS,
                     "covariance")
    procs = {}
    for sub, ini in (("theory", "simulate.ini"), ("simulate", "simulate.ini"),
                     ("verify", "simulate.ini"), ("estimate", "estimate.ini")):
        spec = {"mode": "cli", "trace": trace,
                "argv": ["--config", ini, sub]}
        procs[sub] = spawn(spec, workdir, sub)

    out = workdir / "out"
    checks = summarise_checks(
        [[f"{sub} exit 0", res["exit_code"] == 0,
          f"exit code {res['exit_code']}"] for sub, res in procs.items()]
        + check_cli_outputs(out))
    wall = time.monotonic() - start
    attempted, failed = _count_checks(checks)
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    replicas = CLI_SIMULATE_REPLICAS + CLI_ESTIMATE_REPLICAS
    return {
        "wall_s": wall,
        "setup_s": sum(r["setup_s"] for r in procs.values()),
        "replicas": replicas,
        # Time inside cli.main: spawn and import are set-up, counted above.
        "deliver_s": procs["simulate"]["main_s"]
        + procs["estimate"]["main_s"],
        "peak_rss_mb": max(r["maxrss_mb"] for r in procs.values()),
        "attempted": attempted, "failed": failed, "checks": checks,
        "digest": digest.hexdigest(),
        "layers": [r["layers"] for r in procs.values() if "layers" in r],
        "spans": {sub: r.get("spans", []) for sub, r in procs.items()},
    }


def check_cli_outputs(out):
    """The jump-cli gate, read from the files the four subcommands wrote."""
    from idcascade.cascade import read_binary_masses
    rows = []

    def check(name, ok, detail):
        rows.append([name, bool(ok), detail])

    def load_json(name):
        path = out / name
        return json.loads(path.read_text()) if path.exists() else None

    check("diagnostics.json written", load_json("diagnostics.json")
          is not None, "theory output")
    verify = load_json("verify.json") or {}
    check("verify all_passed", verify.get("all_passed") is True,
          json.dumps(verify.get("checks")))

    totals = {}
    summary = out / "summary.csv"
    if summary.exists():
        lines = [ln for ln in summary.read_text().splitlines()
                 if ln and not ln.startswith("#")][1:]
        for line in lines:
            replica, total = line.split(",")
            totals[int(replica)] = float(total)
    check("summary.csv rows", len(totals) == CLI_SIMULATE_REPLICAS,
          f"{len(totals)} rows")
    for replica, total in sorted(totals.items()):
        check("replica mass finite and > 0",
              math.isfinite(total) and total > 0, f"replica {replica}")
        path = out / f"realization_{replica:06d}.bin"
        if path.exists():
            got = float(read_binary_masses(str(path))[3].sum())
            check("binary sum = summary total",
                  abs(got - total) <= MASS_SUM_RTOL * abs(total),
                  f"replica {replica}: {got!r} vs {total!r}")
        else:
            check("binary sum = summary total", False,
                  f"{path.name} missing")

    cov = load_json("covariance.json") or {"rows": []}
    check("covariance rows", len(cov["rows"]) == 3,
          f"{len(cov['rows'])} rows")
    for row in cov["rows"]:
        pull = ((row["covariance"] - row["theory_exact_quadrature"])
                / row["stderr"])
        check(f"covariance(gap={row['gap']}) vs exact quadrature",
              abs(pull) <= COVARIANCE_PULL_MAX,
              f"{row['covariance']:.5f} vs {row['theory_exact_quadrature']:.5f}"
              f", pull {pull:.2f} (max {COVARIANCE_PULL_MAX})")
    return rows


PASSES = {
    "gauss-batch": pass_gauss_batch,
    "gauss-single": pass_gauss_single,
    "jump-cli": pass_jump_cli,
}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def pass_count(workload, seconds):
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def pass_seed(seed, index):
    return (seed * 1009 + index) % 2 ** 63


def end_to_end(passes):
    """Medians over passes; peak RSS is the maximum."""
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "replicas_per_s": statistics.median(p["replicas"] / p["deliver_s"]
                                            for p in passes),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


def derive_layer_metrics(layers):
    """Sum per-process layer figures and derive the ratios."""
    out = {}
    keys = []
    factor_mb = 0.0
    for proc in layers:
        for name, value in proc.items():
            if name == "field.build_keys":
                keys += value
            elif name == "field.factor_mb":
                factor_mb = max(factor_mb, value)
            else:
                out[name] = out.get(name, 0) + value
    out["field.builds"] = len(keys)
    out["field.distinct_build_frac"] = (len(set(keys)) / len(keys)
                                        if keys else 0.0)
    out["field.factor_mb"] = factor_mb
    return out


def run_workload(workload, seed, seconds, trace, spec_metrics):
    workdir = OUT / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    run_pass = PASSES[workload]
    passes = []
    try:
        if trace:
            for label, traced in (("untraced", False), ("traced", True)):
                pdir = workdir / label
                pdir.mkdir(parents=True)
                passes.append(run_pass(pass_seed(seed, 0), traced, pdir))
        else:
            for index in range(pass_count(workload, seconds)):
                pdir = workdir / f"pass{index}"
                pdir.mkdir(parents=True)
                passes.append(run_pass(pass_seed(seed, index), False, pdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if trace:
        untraced, traced = passes
        same = untraced["digest"] == traced["digest"]
        attempted += 1
        failed += int(not same)
        values = derive_layer_metrics(traced["layers"])
        values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    else:
        values = end_to_end(passes)
        values["ok_frac"] = 1.0 - failed / attempted
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in spec_metrics}
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "environment": environment(),
        "passes": [{k: v for k, v in p.items() if k not in ("layers", "spans")}
                   for p in passes],
        "metrics": metrics,
        "failed_frac": failed / attempted,
    }
    if trace:
        record["bit_identical"] = same
        record["spans"] = passes[1]["spans"]
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{workload}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}, record


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def environment():
    import numpy
    import scipy
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "idcascade").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "threads": THREADS, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": git_commit(),
        "src_sha256": src.hexdigest()[:16],
    }


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def load_benchmark_spec():
    """run_seconds and the (end_to_end, per_layer) lists of (name, unit)
    from BENCHMARK.json."""
    for need in (ROOT / "src" / "idcascade" / "__init__.py",
                 ROOT / "configs" / "atom.ini", ROOT / "BENCHMARK.json"):
        if not need.exists():
            raise SetupError(f"{need.relative_to(ROOT)} is missing: run "
                             "from the root of an idcascade checkout")
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return (bench["run_seconds"],
            [(m["name"], m["unit"]) for m in bench["end_to_end"]],
            [(m["name"], m["unit"]) for m in bench["per_layer"]])


def print_table(workload, result, record):
    env = record["environment"]
    print(f"== {workload}  seed {record['seed']}  trace {int(record['trace'])}  "
          f"passes {len(record['passes'])}  threads {env['threads']}  "
          f"nproc {env['nproc']}  python {env['python']}  numpy "
          f"{env['numpy']}  scipy {env['scipy']}  commit {env['commit']}  "
          f"src {env['src_sha256']}")
    for name, m in result["metrics"].items():
        note = f"  ({_COMPUTED_NOTE})" if m["unit"].endswith("computed") \
            else ""
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}{note}")
    print(f"  {'failed_frac':32s} {record['failed_frac']:>16.6g} ratio  "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    for p in record["passes"]:
        for row in p["checks"]:
            if not row[1]:
                print(f"  FAILED {row[0]}: {row[2]} ({row[4]}/{row[3]})")
    if record.get("trace"):
        print("  outputs bit-identical traced vs untraced: "
              f"{record['bit_identical']}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float,
                   help="measuring time per workload; sets the pass count "
                   "(default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")

    try:
        run_seconds, e2e, per_layer = load_benchmark_spec()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    seconds = run_seconds if args.seconds is None else args.seconds
    for var in THREAD_VARS:         # before numpy loads in this process
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    # The jump-cli gate reads the binary dumps with the package's reader;
    # import it here so no pass pays for the harness's own import.
    import idcascade.cascade  # noqa: F401

    spec_metrics = per_layer if args.trace else e2e
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        result, record = run_workload(workload, args.seed, seconds,
                                      bool(args.trace), spec_metrics)
        print_table(workload, result, record)
        results[workload] = result
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
