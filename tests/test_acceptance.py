"""End-to-end acceptance suite: one test and one printed line per
guarantee.  Run with -s to see the lines.

Every Monte Carlo experiment pins its seed, so the suite is
deterministic; sample sizes were chosen so each line has real margin
against its tolerance, not just a lucky draw.
"""

import math
import warnings

import numpy as np
import pytest

from idcascade import cones
from idcascade._rng import make_generator
from idcascade.cascade import (juxtaposed_total_masses, sample_area_logs,
                               scaled_mass_samples, simulate_prefix_masses,
                               simulate_total_masses)
from idcascade.checks import (area_defect, normalization_defect, scaling_ks,
                              star_defect)
from idcascade.cli import main as cli_main
from idcascade.field import GridSpec
from idcascade.levy import (AtomicJumps, TabulatedJumps, build_model,
                            levy_exponent, lognormal_model,
                            single_atom_model)
from idcascade.moments import (covariance_report, estimate_moment,
                               exact_joint_moment, growth_ratio_probe,
                               hill_tail_report, ks_two_sample,
                               scaling_fit)

M05 = lognormal_model(0.5)
M10 = lognormal_model(1.0)
ATOM = single_atom_model(-math.log(2.0), 1.0)
LOG2 = math.log(2.0)


def report(num, name, ok, detail):
    print(f"[{num:>2}] {name}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)


# -- 1: closed-form region areas against the quadrature oracle --------------


def test_01_cone_areas():
    worst = area_defect(2026, 50, "acceptance-areas")
    anchor = cones.area_cell((0.0, 1.0), (0.0, 0.5))
    anchor_err = abs(anchor - LOG2)
    ok = worst < 1e-8 and anchor_err < 1e-12
    report(1, "cone areas (200 regions + log 2 anchor)", ok,
           f"worst |closed - oracle| = {worst:.3g}, anchor err "
           f"{anchor_err:.3g}")
    assert ok


# -- 2: normalization of twenty randomized models ----------------------------


def _random_model(rng):
    style = int(rng.integers(0, 3))
    if style == 0:
        return lognormal_model(float(rng.uniform(0.1, 1.2)))
    sigma2 = float(rng.uniform(0.0, 0.8))
    if style == 1:
        k = int(rng.integers(1, 4))
        locs = tuple(float(x) if abs(x) > 1e-3 else -0.5
                     for x in rng.uniform(-2.0, 0.8, size=k))
        masses = tuple(float(m) for m in rng.uniform(0.1, 1.5, size=k))
        return build_model(sigma2, AtomicJumps(locs, masses))
    x = np.linspace(float(rng.uniform(-2.5, -1.0)),
                    float(rng.uniform(0.3, 0.9)), 6)
    dens = tuple(float(d) for d in rng.uniform(0.1, 1.0, size=6))
    nu = TabulatedJumps(tuple(float(v) for v in x), dens,
                        left_rate=float(rng.uniform(0.8, 2.5)),
                        right_rate=float(rng.uniform(2.5, 4.0)))
    return build_model(sigma2, nu)


def test_02_normalization_and_unit_mean():
    rng = make_generator(2026, 0, "acceptance-models")
    worst_psi = 0.0
    worst_pull = 0.0
    for i in range(20):
        model = _random_model(rng)
        worst_psi = max(worst_psi, normalization_defect(model))
        draws = make_generator(2026, i, "acceptance-q")
        q = np.exp(sample_area_logs(model, LOG2, [draws], 100_000)[0])
        pull = abs(q.mean() - 1.0) / (q.std(ddof=1) / math.sqrt(q.size))
        worst_pull = max(worst_pull, pull)
    ok = worst_psi < 1e-12 and worst_pull < 3.0
    report(2, "normalization (20 random models)", ok,
           f"worst |psi| = {worst_psi:.3g}, worst mean pull = "
           f"{worst_pull:.2f} stderr")
    assert ok


# -- 3: pathwise subdivision identity ----------------------------------------


def test_03_star_identity():
    grid = GridSpec((0.0, 1.0), 6, 2)
    worst = max(star_defect(model, grid, 3, 1000, (1, 2, 3),
                            "acceptance-star") for model in (M05, ATOM))
    ok = worst < 1e-10
    report(3, "subdivision identity (2 samplers x 1000 replicas)", ok,
           f"worst relative defect = {worst:.3g}")
    assert ok


# -- 4: second moment of the total mass ---------------------------------------


def test_04_second_moment():
    z = simulate_total_masses(M05, GridSpec((0.0, 1.0), 10, 4, 0), 7,
                              10_000)
    m2 = float(np.mean(z ** 2))
    rel = abs(m2 - 8.0 / 3.0) / (8.0 / 3.0)
    ok = rel < 0.05
    report(4, "second moment vs closed form 8/3", ok,
           f"estimate {m2:.4f}, relative error {100 * rel:.2f}%")
    assert ok


# -- 5: mixed half-interval moment at the critical variance -------------------


def test_05_critical_mixed_moment():
    mm = simulate_prefix_masses(M10, GridSpec((0.0, 1.0), 8, 2, 0), 12,
                                100_000, [0.5, 1.0])
    prod = mm[:, 0] * (mm[:, 1] - mm[:, 0])
    mom = estimate_moment(prod, 1.0, blocks=4).median_of_means
    rel = abs(mom - LOG2) / LOG2
    ok = rel < 0.15
    report(5, "critical mixed moment vs log 2", ok,
           f"median-of-means {mom:.4f}, relative error {100 * rel:.2f}%")
    assert ok


# -- 6: exact-scaling law as equality of distributions ------------------------


def test_06_exact_scaling_ks():
    grid = GridSpec((0.0, 1.0), 10, 2, 0)
    lams = [0.25, 0.5]
    ks = scaling_ks(M05, grid, lams, (1051, 51), 5000,
                    ("cascade", "scaling"))
    ps = {lam: p for lam, (_, p) in zip(lams, ks)}
    wrong = simulate_prefix_masses(lognormal_model(0.8), grid, 2051, 5000,
                                   [0.5])[:, 0]
    w = scaled_mass_samples(M05, grid, 0.5, 51, 5000)
    p_neg = ks_two_sample(w, wrong)[1]
    ok = all(p > 0.01 for p in ps.values()) and p_neg < 1e-3
    report(6, "exact scaling KS (lam 1/2, 1/4 + negative control)", ok,
           f"p = {ps[0.5]:.3f}, {ps[0.25]:.3f}; control p = {p_neg:.2e}")
    assert ok


# -- 7: fitted scaling exponents ----------------------------------------------


def test_07_scaling_exponents():
    lams = [0.5, 0.25, 0.125]
    mm = simulate_prefix_masses(M05, GridSpec((0.0, 1.0), 10, 1, 0), 71,
                                600_000, lams)
    rep = scaling_fit(M05, lams, mm, [0.5, 1.0, 1.5, 2.0])
    ok = rep.max_abs_error < 0.05
    report(7, "scaling exponents (q up to 2)", ok,
           f"max |slope - theory| = {rep.max_abs_error:.4f}")
    assert ok


# -- 8: tail index and plateau constant at the critical variance --------------


def test_08_tail_index_plateau():
    z = simulate_total_masses(M10, GridSpec((0.0, 1.0), 12, 1, 0), 32,
                              100_000)
    rep = hill_tail_report(z, fractions=(0.002, 0.005, 0.01),
                           tail_index_for_constant=2.0)
    ok = 1.7 <= rep.hill_selected <= 2.3 and 1.0 <= rep.tail_constant <= 4.0
    report(8, "tail index (Hill) and plateau constant", ok,
           f"hill = {rep.hill_selected:.3f} +- {rep.hill_stderr:.3f}, "
           f"plateau = {rep.tail_constant:.3f} vs 2")
    assert ok


# -- 9: both sides of the degeneracy boundary ---------------------------------


def test_09_degeneracy_boundary():
    z = simulate_total_masses(M05, GridSpec((0.0, 1.0), 10, 2, 0), 23,
                              20_000)
    e = estimate_moment(z, 1.0)
    pull = abs(e.mean - 1.0) / e.stderr

    # same per-replica streams at every cutoff (common random numbers), so
    # the collapse trend survives averaging over heavy-tailed replicas
    grids = [GridSpec((0.0, 1.0), 6, 32, 0), GridSpec((0.0, 1.0), 8, 8, 0),
             GridSpec((0.0, 1.0), 10, 2, 0)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        means = [float(simulate_total_masses(lognormal_model(2.5), g, 62,
                                             250,
                                             stream_tag="degeneracy").mean())
                 for g in grids]
    ok = (pull < 3.0 and means[0] > means[1] > means[2] and means[2] < 0.5)
    report(9, "degeneracy boundary", ok,
           f"conservative mean pull = {pull:.2f} stderr; degenerate means "
           + " > ".join(f"{m:.3f}" for m in means))
    assert ok


# -- 10: covariance decay of juxtaposed cascades ------------------------------


@pytest.fixture(scope="module")
def juxtaposed_cov():
    masses = juxtaposed_total_masses(ATOM, GridSpec((0.0, 1.0), 6, 2, 0), 9,
                                     1010, 30_000)
    return covariance_report(ATOM, masses, gaps=(2, 4, 8))


@pytest.mark.xfail(reason="the covariance falls like psi(2) / (4 gap^2), "
                          "not like the claimed 2 psi(2) / (3 gap); the "
                          "exact-kernel quadrature below matches it",
                   strict=True)
def test_10_covariance_decay_claimed_constant(juxtaposed_cov):
    rep = juxtaposed_cov
    target = 2.0 * levy_exponent(ATOM, 2.0) / 3.0
    scaled = [g * e for g, e in zip(rep.gaps, rep.estimate)]
    ok = all(abs(s - target) <= 0.25 * target for s in scaled)
    report(10, "covariance decay vs claimed 2 psi2 / (3 gap)", ok,
           "gap*cov = " + ", ".join(f"{s:.4f}" for s in scaled)
           + f" vs {target:.4f} +- 25%")
    assert ok


def test_10_covariance_decay_exact_kernel(juxtaposed_cov):
    rep = juxtaposed_cov
    pulls = [abs(e - t) / s for e, s, t in
             zip(rep.estimate, rep.stderr, rep.theory_exact_quadrature)]
    ok = all(p < 3.0 for p in pulls)
    report(10, "covariance decay vs exact kernel quadrature", ok,
           "pulls = " + ", ".join(f"{p:.2f}" for p in pulls) + " stderr")
    assert ok


# -- 11: factorial moment growth ----------------------------------------------


def test_11_moment_growth():
    z = simulate_total_masses(ATOM, GridSpec((0.0, 1.0), 10, 2, 0), 97,
                              30_000)
    rels = []
    for n in (2, 3):
        quad = exact_joint_moment(ATOM, [((0.0, 1.0), n)]).value
        mc = float(np.mean(z ** n))
        rels.append(abs(mc - quad) / quad)
    rep = growth_ratio_probe(ATOM, (2, 3, 4, 5, 6), mc_samples=z)
    ok = max(rels) < 0.05 and rep.increasing
    report(11, "moment growth (quadrature vs MC, ratio monotone)", ok,
           f"EZ^2/EZ^3 rel err = {100 * rels[0]:.2f}%/{100 * rels[1]:.2f}%, "
           "ratios " + " < ".join(f"{r:.4f}" for r in rep.ratios))
    assert ok


# -- 12: determinism and stream independence ----------------------------------


def test_12_determinism(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[model]\nsigma2 = 0.5\njump_kind = none\n\n"
        "[grid]\nlevels = 4\noversample = 2\n\n"
        "[experiment]\nseed = 5\nreplicas = 3\n\n"
        "[output]\nformats = csv\n")
    outs = []
    for sub in ("a", "b"):
        assert cli_main(["--config", str(cfg), "--out",
                         str(tmp_path / sub), "simulate"]) == 0
        outs.append(b"".join(
            (tmp_path / sub / f"realization_{i:06d}.bin").read_bytes()
            for i in range(3)))
    identical = outs[0] == outs[1]

    g = GridSpec((0.0, 1.0), 8, 2, 0)
    za = simulate_total_masses(M05, g, 4242, 4000, stream_tag="stream-a")
    zb = simulate_total_masses(M05, g, 4242, 4000, stream_tag="stream-b")
    r = float(np.corrcoef(za, zb)[0, 1])
    bound = 3.0 / math.sqrt(za.size)
    ok = identical and abs(r) < bound
    report(12, "determinism + stream independence", ok,
           f"reruns byte-identical = {identical}, "
           f"cross-stream corr = {r:+.4f} (|r| < {bound:.4f})")
    assert ok
