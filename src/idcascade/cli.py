"""Command-line front-end.

Subcommands: theory (closed-form diagnostics), simulate (replica files),
verify (invariant suite), estimate (statistical reports).  The INI file
--config names, with the overrides --seed, --out and --format, is checked
whole before any subcommand runs: main alone builds the model and grid
that cmd_<sub>(cfg, model, grid) gets.  Exit codes: 0 success, 1 failed
verification check, 2 configuration error, 3 runtime/sampler error.  Every
batch draws cascade.RUN_CHUNK replicas at a time (cascade.pool_size: its
workers).
"""

import argparse
import json
import math
import os
import sys
import time

from . import config
from .cascade import _write_file


def _build_parser():
    p = argparse.ArgumentParser(
        prog="idcascade",
        description="simulation and verification engine for exactly "
                    "scale-invariant log-infinitely divisible cascades")
    p.add_argument("--config", required=True,
                   help="path to an INI-style run configuration")
    p.add_argument("--seed", type=int, help="override experiment.seed")
    p.add_argument("--out", help="override output.directory")
    p.add_argument("--format", choices=config.FORMATS,
                   help="override output.formats")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("theory", help="write the closed-form diagnostics report")
    sub.add_parser("simulate", help="simulate replicas and write files")
    sub.add_parser("verify", help="run the configured invariant checks")
    sub.add_parser("estimate", help="run a statistical estimation experiment")
    return p


def main(argv=None):
    parser = _build_parser()
    # argparse would name the value after an unknown option as a bad command
    options = [o for action in parser._actions for o in action.option_strings]
    unknown = [a for a in (sys.argv[1:] if argv is None else argv)
               if a.startswith("--")
               and not any(o.startswith(a.split("=")[0]) for o in options)]
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    args = parser.parse_args(argv)

    try:
        try:
            cfg = config.load_config(args.config)
        except FileNotFoundError as exc:
            raise config.ConfigError("--config", exc) from None
        if args.seed is not None:
            if not 0 <= args.seed < 2 ** 64:
                raise config.ConfigError("--seed", "must be unsigned 64-bit")
            cfg.set("experiment", "seed", args.seed)
        if args.out is not None:
            cfg.set("output", "directory", args.out)
        if args.format is not None:
            cfg.set("output", "formats", args.format)
        model, grid = cfg.check()  # before anything is drawn or written
        _check_outdir(cfg)
        return globals()[f"cmd_{args.command}"](cfg, model, grid)
    except config.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # sampler / runtime failures
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _experiment(cfg, *keys):
    return tuple(cfg.value("experiment", key) for key in keys)


def _outdir(cfg):
    path = cfg.value("output", "directory")
    os.makedirs(path, exist_ok=True)
    return path


def _check_outdir(cfg):
    """A ConfigError unless output.directory is a directory or could be
    made one, its nearest existing ancestor being a directory.  Nothing
    is made here, so a run whose own settings fail later writes nothing."""
    path = os.path.abspath(cfg.value("output", "directory"))
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise config.ConfigError("output.directory",
                                 f"{path} is not a directory")


def _stamp(cfg):
    return {"config_hash": config.config_hash(cfg),
            "seed": cfg.value("experiment", "seed")}


def _write_json(cfg, name, payload):
    # JSON has no NaN or infinity, and strict parsers reject Python's
    # tokens for them: an infinite value is written as the string "inf" or
    # "-inf", a NaN as null
    payload = json.loads(json.dumps(payload), parse_constant={
        "Infinity": "inf", "-Infinity": "-inf"}.get)
    path = os.path.join(_outdir(cfg), name)
    _write_file(path, (json.dumps(payload, indent=2, sort_keys=True,
                                  allow_nan=False) + "\n").encode())
    return path


def _csv_header(cfg):
    s = _stamp(cfg)
    return f"# config_hash={s['config_hash']} seed={s['seed']}\n"


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(cfg, name, columns, rows):
    path = os.path.join(_outdir(cfg), name)
    lines = [_csv_header(cfg), ",".join(columns) + "\n"]
    lines += [",".join(_fmt(v) for v in row) + "\n" for row in rows]
    _write_file(path, "".join(lines).encode())
    return path


def _write_report(cfg, stem, fields, columns, rows):
    """<stem>.json (fields and the stamp) and <stem>.csv, each if
    output.formats asks for it."""
    fmt = cfg.value("output", "formats")
    if fmt in ("json", "both"):
        _write_json(cfg, f"{stem}.json", {**fields, **_stamp(cfg)})
    if fmt in ("csv", "both"):
        _write_csv(cfg, f"{stem}.csv", columns, rows)


class _Progress:
    """Replica progress on stderr: called with the replicas done after
    each chunk, it rewrites one line with the count, the rate so far and
    the time left at that rate; finish() ends the line."""

    def __init__(self, total):
        self.total = total
        self.start = time.monotonic()

    def __call__(self, done, end=""):
        elapsed = time.monotonic() - self.start
        rate = done / elapsed if elapsed > 0 else math.inf
        eta = (self.total - done) / rate if rate > 0 else math.inf
        print(f"\rreplica {done}/{self.total}  {rate:.0f} replicas/s  "
              f"ETA {eta:.1f} s", end=end, file=sys.stderr, flush=True)

    def finish(self):
        self(self.total, end="\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_theory(cfg, model, grid):
    from .levy import diagnose
    path = _write_json(cfg, "diagnostics.json",
                       {**vars(diagnose(model)), **_stamp(cfg)})
    print(path)
    return 0


def cmd_simulate(cfg, model, grid):
    from .cascade import BatchSimulator, model_digest, write_masses_binary
    seed, replicas = _experiment(cfg, "seed", "replicas")
    outdir = _outdir(cfg)
    fmt = cfg.value("output", "formats")
    sim = BatchSimulator(model, grid)
    digest = model_digest(model)

    def dump(start, cells):  # each block's leaf masses, as they are drawn
        for j, c in enumerate(cells, start):
            write_masses_binary(
                os.path.join(outdir, f"realization_{j:06d}.bin"),
                grid, digest, c)
    progress = _Progress(replicas)
    totals = sim.total_masses(seed, replicas, progress, dump)
    progress.finish()
    _write_report(cfg, "summary", {
        "replicas": replicas,
        "mean_total_mass": float(totals.mean()),
        "sampler": sim.sampler.name,
        "sampler_health": sim.sampler.health,
    }, ("replica", "total_mass"), list(enumerate(totals.tolist())))
    print(os.path.join(outdir, "summary.csv" if fmt != "json"
                       else "summary.json"))
    return 0


def cmd_verify(cfg, model, grid):
    """Run each check of experiment.checks, an entry of checks.VERIFY."""
    from .checks import VERIFY
    names = cfg.value("experiment", "checks")
    seed, replicas = _experiment(cfg, "seed", "replicas")
    results = []
    for name in names:
        statistic, bound, passes = VERIFY[name]
        if isinstance(bound, str):
            bound = cfg.value("experiment", bound)
        metric, detail = statistic(model, grid, seed, replicas)
        passed = bool(passes(metric, bound))
        results.append({"check": name, "passed": passed, "metric": metric,
                        "tolerance": bound, **detail})
        print(f"{name}: {'pass' if passed else 'FAIL'}")
    all_passed = all(r["passed"] for r in results)
    _write_report(cfg, "verify", {"checks": results,
                                  "all_passed": all_passed},
                  ("check", "passed", "metric", "tolerance"),
                  [(r["check"], int(r["passed"]), r["metric"],
                    r["tolerance"]) for r in results])
    return 0 if all_passed else 1


# -- estimate ---------------------------------------------------------------


def cmd_estimate(cfg, model, grid):
    """Run experiment.kind: _estimate_<kind>(cfg, model, grid) checks its
    settings, draws through _draw and returns (fields, columns, rows) for
    <kind>.json and <kind>.csv."""
    kind = cfg.value("experiment", "kind")
    fields, columns, rows = globals()[f"_estimate_{kind}"](cfg, model, grid)
    _write_report(cfg, kind, fields, columns, rows)
    return 0


def _draw(cfg, model, grid, batch, **kw):
    """The sampler's report fields and cascade.<batch>(model, grid, **kw)
    at the configured seed and replicas, drawn with progress.
    make_sampler builds the sampler before any draw, and the batch reuses
    it from its cache."""
    from . import cascade
    from .field import make_sampler
    sampler = make_sampler(grid, model, kw.get("n_intervals", 1))
    seed, replicas = _experiment(cfg, "seed", "replicas")
    progress = _Progress(replicas)
    out = getattr(cascade, batch)(model, grid, seed=seed, replicas=replicas,
                                  progress=progress, **kw)
    progress.finish()
    return {"sampler": sampler.name, "sampler_health": sampler.health}, out


def _estimate_moments(cfg, model, grid):
    from .levy import tail_index_root
    from .moments import estimate_moment
    qs = cfg.value("experiment", "q_values")
    qs = [1.0, 2.0] if qs is None else qs
    record, z = _draw(cfg, model, grid, "simulate_total_masses")
    zeta = tail_index_root(model)
    rows, estimates = [], []
    for q in qs:
        e = estimate_moment(z, q, tail_index=zeta)
        heavy = None if e.heavy_tail is None else int(e.heavy_tail)
        estimates.append({"q": q, "mean": e.mean, "stderr": e.stderr,
                          "median_of_means": e.median_of_means,
                          "heavy_tail": heavy})
        # the CSV spells an unknown value nan or leaves it empty
        rows.append((q, e.mean, e.stderr,
                     math.nan if e.median_of_means is None
                     else e.median_of_means, "" if heavy is None else heavy))
    return ({"estimates": estimates, **record},
            ("q", "mean", "stderr", "median_of_means", "heavy_tail"), rows)


def _estimate_tail(cfg, model, grid):
    from .levy import tail_index_root
    from .moments import TAIL_MIN_SAMPLES, hill_tail_report
    if cfg.value("experiment", "replicas") < TAIL_MIN_SAMPLES:
        raise config.ConfigError("experiment.replicas", "tail estimation "
                                 f"needs at least {TAIL_MIN_SAMPLES}")
    record, z = _draw(cfg, model, grid, "simulate_total_masses")
    zeta = tail_index_root(model)
    rep = hill_tail_report(z, tail_index_for_constant=zeta)
    return ({"hill": {str(f): v for f, v in rep.hill.items()},
             "hill_selected": rep.hill_selected,
             "hill_stderr": rep.hill_stderr,
             "tail_constant": rep.tail_constant,
             "theory_tail_index": zeta, **record},
            ("fraction", "hill_estimate"), sorted(rep.hill.items()))


def _estimate_scaling(cfg, model, grid):
    from .moments import scaling_fit
    lams = cfg.value("experiment", "scale_ratios")
    for lam in lams:
        try:
            if grid.leaf_count(lam) == 0:
                raise ValueError(f"{lam!r} gives an empty prefix")
        except ValueError as exc:
            raise config.ConfigError("experiment.scale_ratios",
                                     str(exc)) from None
    qs = cfg.value("experiment", "q_values")
    qs = [0.5, 1.0, 1.5, 2.0] if qs is None else qs
    record, m = _draw(cfg, model, grid, "simulate_prefix_masses",
                      fractions=lams)
    rep = scaling_fit(model, lams, m, qs)
    return ({"q_values": list(rep.q_values),
             "fitted_slopes": list(rep.slopes),
             "theory_exponents": list(rep.theory),
             "max_abs_error": rep.max_abs_error, **record},
            ("q", "fitted_slope", "theory"),
            list(zip(rep.q_values, rep.slopes, rep.theory)))


def _estimate_covariance(cfg, model, grid):
    from .moments import covariance_report
    record, masses = _draw(
        cfg, model, grid, "juxtaposed_total_masses",
        n_intervals=cfg.value("experiment", "n_intervals"))
    rep = covariance_report(model, masses)
    columns = ("gap", "covariance", "stderr", "theory_claimed",
               "theory_exact_quadrature", "theory_series")
    return ({"rows": [dict(zip(columns, row)) for row in rep.rows()],
             **record}, columns, rep.rows())


if __name__ == "__main__":
    sys.exit(main())
