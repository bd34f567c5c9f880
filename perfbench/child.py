"""One workload process: a fresh interpreter started by run.py.

Usage (run.py builds the argument):

    python3 perfbench/child.py '<json spec>'

The spec names a mode:

* gauss-batch: one BatchSimulator (lognormal sigma2 = 0.5, 4096 points),
  its chunks reduced to total and dyadic prefix masses, then checked
  against the closed-form theory;
* gauss-single: a closed loop of build_realization -> decompose_star at
  levels 1 and 2 -> binary and CSV export round trips;
* cli: `idcascade.cli.main(argv)`, exactly as the console script runs it.

The process writes one JSON result and, when traced, its spans.  The end
of set-up is a time on the system-wide monotonic clock, so run.py can
subtract its spawn time.  Only the CLI itself prints.
"""

import hashlib
import json
import math
import resource
import sys
import time

# Margins of the in-process correctness gate; see README.md for why.
PULL_MAX = 5.0              # E Z and slope pulls, in standard errors
EZ2_LOW = 0.5               # E Z^2 may not fall below this share of theory
SLOPE_Q = (0.5, 1.0)        # orders whose slope estimators have 4 moments
SLOPE_LAMS = (0.5, 0.25, 0.125, 0.0625)
SLOPE_BLOCKS = 100          # jackknife blocks for the slope standard error
SLOPE_BIAS = 0.01           # finite-grid bias allowance on a fitted slope
STAR_TOL = 1e-10


def main():
    spec = json.loads(sys.argv[1])
    import_start = time.perf_counter()
    import idcascade  # noqa: F401
    import_end = time.perf_counter()
    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.record("cli.import", import_start, import_end)
        tracing.install(tracer)
    result = MODES[spec["mode"]](spec)
    result["maxrss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        result["layers"] = tracing.layer_totals(tracer)
        with open(spec["spans"], "w") as fh:
            json.dump(tracing.dump_spans(tracer), fh)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


def _check(checks, name, ok, detail):
    checks.append([name, bool(ok), detail])


def run_gauss_batch(spec):
    import numpy as np
    from idcascade import GridSpec, cascade, lognormal_model, moments

    model = lognormal_model(0.5)
    grid = GridSpec((0.0, 1.0), 10, 4, 0)
    sim = cascade.BatchSimulator(model, grid)
    setup_end = time.monotonic()

    replicas = spec["replicas"]
    prefix_cells = [round(lam * grid.n_cells) for lam in SLOPE_LAMS]
    totals = np.empty(replicas)
    prefix = np.empty((replicas, len(SLOPE_LAMS)))
    loop_start = time.perf_counter()
    for start, point_log in sim.chunks(spec["seed"], replicas,
                                       spec["chunk"]):
        cells, total = cascade.masses_from_point_log(grid, point_log)
        csum = np.cumsum(cells, axis=1)
        stop = start + len(total)
        totals[start:stop] = total
        prefix[start:stop] = csum[:, [k - 1 for k in prefix_cells]]
    loop_s = time.perf_counter() - loop_start

    checks = []
    bad = int(np.sum(~np.isfinite(totals) | (totals <= 0)))
    ez = moments.estimate_moment(totals, 1.0)
    pull = (ez.mean - 1.0) / ez.stderr
    _check(checks, "EZ=1", abs(pull) <= PULL_MAX,
           f"mean {ez.mean:.5f}, pull {pull:.2f} (max {PULL_MAX})")
    ez2 = moments.estimate_moment(totals, 2.0)
    exact = moments.exact_joint_moment(model, [((0.0, 1.0), 2)]).value
    pull2 = (ez2.mean - exact) / ez2.stderr
    _check(checks, "EZ2=exact", ez2.mean >= EZ2_LOW * exact
           and pull2 <= PULL_MAX,
           f"mean {ez2.mean:.4f} vs {exact:.4f}, pull {pull2:.2f} "
           f"(need >= {EZ2_LOW} x exact and pull <= {PULL_MAX})")
    fit = moments.scaling_fit(model, SLOPE_LAMS, prefix, SLOPE_Q)
    jack = _jackknife_slopes(moments, model, prefix)
    for q, slope, theory, err in zip(fit.q_values, fit.slopes, fit.theory,
                                     jack):
        margin = PULL_MAX * err + SLOPE_BIAS
        _check(checks, f"slope(q={q:g})", abs(slope - theory) <= margin,
               f"{slope:.4f} vs {theory:.4f}, margin {margin:.4f}")

    digest = hashlib.sha256(totals.tobytes() + prefix.tobytes()).hexdigest()
    return {"setup_end": setup_end, "loop_s": loop_s, "replicas": replicas,
            "failed_replicas": bad, "checks": summarise_checks(checks),
            "digest": digest}


def _jackknife_slopes(moments, model, prefix):
    """Delete-one-block jackknife standard error of each fitted slope."""
    import numpy as np
    blocks = np.array_split(np.arange(prefix.shape[0]), SLOPE_BLOCKS)
    slopes = np.array([
        moments.scaling_fit(model, SLOPE_LAMS,
                            np.delete(prefix, block, axis=0),
                            SLOPE_Q).slopes
        for block in blocks])
    n = len(blocks)
    return np.sqrt((n - 1) / n * np.sum(
        (slopes - slopes.mean(axis=0)) ** 2, axis=0))


def run_gauss_single(spec):
    import os
    import numpy as np
    from idcascade import GridSpec, cascade, lognormal_model

    model = lognormal_model(0.5)
    grid = GridSpec((0.0, 1.0), 8, 2, None)
    setup_end = time.monotonic()

    bin_path = os.path.join(spec["workdir"], "realization.bin")
    csv_path = os.path.join(spec["workdir"], "realization.csv")
    digest = cascade.model_digest(model)
    sha = hashlib.sha256()
    checks = []
    bad = 0
    loop_start = time.perf_counter()
    for replica in range(spec["replicas"]):
        r = cascade.build_realization(model, grid, seed=spec["seed"],
                                      replica=replica)
        if not (math.isfinite(r.total_mass) and r.total_mass > 0):
            bad += 1
        for level in (1, 2):
            recon = cascade.decompose_star(r, level).reconstruct_total()
            rel = abs(recon - r.total_mass) / r.total_mass
            _check(checks, f"star(level={level})", rel <= STAR_TOL,
                   f"replica {replica}: relative defect {rel:.3g}")
            sha.update(np.float64(recon).tobytes())
        cascade.realization_to_binary(r, bin_path)
        levels, oversample, got_digest, masses = \
            cascade.read_binary_masses(bin_path)
        _check(checks, "binary round trip",
               (levels, oversample, got_digest) ==
               (grid.levels, grid.oversample, digest)
               and np.array_equal(masses, r.cell_masses),
               f"replica {replica}")
        cascade.realization_to_csv(r, csv_path)
        with open(csv_path) as fh:
            text = fh.read()
        parsed = np.array([float(line.rsplit(",", 1)[1])
                           for line in text.splitlines()[1:]])
        _check(checks, "csv round trip",
               np.array_equal(parsed, r.cell_masses), f"replica {replica}")
        sha.update(r.cell_masses.tobytes())
        sha.update(masses.tobytes())
        sha.update(text.encode())
    loop_s = time.perf_counter() - loop_start
    return {"setup_end": setup_end, "loop_s": loop_s,
            "replicas": spec["replicas"], "failed_replicas": bad,
            "checks": summarise_checks(checks), "digest": sha.hexdigest()}


def summarise_checks(checks):
    """Collapse [name, ok, detail] rows to one [name, all ok, detail, count,
    failed] row per name.  The detail kept is the first failure's, or else
    the last passing check's."""
    out = {}
    for name, ok, detail in checks:
        row = out.setdefault(name, [name, True, detail, 0, 0])
        row[3] += 1
        if not ok:
            row[4] += 1
        if row[1]:
            row[1], row[2] = bool(ok), detail
    return list(out.values())


def run_cli(spec):
    from idcascade import cli
    setup_end = time.monotonic()
    main_start = time.perf_counter()
    code = cli.main(spec["argv"])
    main_s = time.perf_counter() - main_start
    return {"setup_end": setup_end, "main_s": main_s, "exit_code": code}


MODES = {
    "gauss-batch": run_gauss_batch,
    "gauss-single": run_gauss_single,
    "cli": run_cli,
}


if __name__ == "__main__":
    sys.exit(main())
