"""The closed-form checks, each experiment written once: verify runs them
at the sizes and bounds of VERIFY, the acceptance suite at its own pinned
models, seeds and sizes.  Calls go through the modules, so a wrapper
installed on a module attribute sees them."""

import operator

from . import _rng, cascade, cones, levy, moments


def area_defect(seed, count, tag):
    """Worst |closed form - cones.region_area| over count draws of four
    regions: a local cone, two local cones' overlap, a cell's cone and two
    cones anchored in disjoint intervals."""
    rng = _rng.make_generator(seed, 0, tag)
    worst = 0.0
    for _ in range(count):
        L, lo = float(rng.uniform(0.5, 3.0)), float(rng.uniform(-2.0, 2.0))
        I = (lo, lo + L)
        eps = L * 2.0 ** (-int(rng.integers(2, 9)))
        s, t = float(rng.uniform(*I)), float(rng.uniform(*I))
        level = int(rng.integers(1, 6))
        k = int(rng.integers(0, 2 ** level))
        cell = (lo + L * k * 2.0 ** -level, lo + L * (k + 1) * 2.0 ** -level)
        gap = float(rng.uniform(0.05, 2.0)) * L
        J = (I[1] + gap, I[1] + gap + L)
        u = float(rng.uniform(*J))
        base, point = cones.IntervalCone(*I), cones.PointCone(s, eps)
        for closed, region in (
                (cones.area_local_cone(I, eps), cones.local_cone(I, t, eps)),
                (cones.area_pair(I, s, t, eps),
                 (point & cones.PointCone(t, eps)) - base),
                (cones.area_cell(I, cell), cones.cell_cone(I, cell)),
                (cones.area_cross(I, J, s, u, eps),
                 (point & cones.PointCone(u, eps)) - base
                 - cones.IntervalCone(*J))):
            worst = max(worst, abs(closed - cones.region_area(region)))
    return worst


def normalization_defect(model):
    """max(|psi(0)|, |psi(1)|), 0 for a normalized model."""
    return max(abs(levy.levy_exponent(model, 0.0)),
               abs(levy.levy_exponent(model, 1.0)))


def star_defect(model, grid, seed, replicas, levels, tag):
    """Worst relative error of the total rebuilt by each replica's star
    split at each of the levels."""
    worst = 0.0
    for replica in range(replicas):
        r = cascade.build_realization(model, grid, seed=seed, replica=replica,
                                      stream_tag=tag)
        for level in levels:
            recon = cascade.decompose_star(r, level).reconstruct_total()
            worst = max(worst, abs(recon - r.total_mass) /
                        max(r.total_mass, 1e-300))
    return worst


def scaling_ks(model, grid, fractions, seeds, replicas, tags):
    """Exact scaling: for each lam in fractions, the KS (statistic,
    p-value) of the mass of the interval's first lam against lam exp(W) Z'.
    seeds and tags are the prefix masses' and the rescaled copies'."""
    prefix = cascade.simulate_prefix_masses(
        model, grid, seeds[0], replicas, fractions, stream_tag=tags[0])
    return [moments.ks_two_sample(prefix[:, col], cascade.scaled_mass_samples(
        model, grid, lam, seeds[1], replicas, stream_tag=tags[1]))
        for col, lam in enumerate(fractions)]


def _normalization(model, grid, seed, replicas):
    return normalization_defect(model), {}


def _areas(model, grid, seed, replicas):
    return area_defect(seed, 30, "verify-areas"), {"regions": 120}


def _star(model, grid, seed, replicas):
    small = type(grid)(grid.interval, max(3, min(grid.levels, 6)),
                       grid.oversample)
    return star_defect(model, small, seed, 4, (1, 2), "verify-star"), {}


def _scaling_ks(model, grid, seed, replicas):
    replicas = max(replicas, moments.KS_MIN_SAMPLES)
    small = type(grid)(grid.interval, max(2, min(grid.levels, 8)),
                       grid.oversample)
    [(stat, p)] = scaling_ks(model, small, [0.5], (seed, seed + 1), replicas,
                             ("verify-ks-a", "verify-ks-b"))
    return p, {"statistic": stat, "replicas": replicas}


# verify's checks in the order "default" runs them: name -> (statistic,
# bound, passes).  statistic(model, grid, seed, replicas) returns the
# metric at verify's sizes and the report's other fields; the check
# passes when passes(metric, bound).  A string bound names the experiment
# key that holds it.
VERIFY = {
    "normalization": (_normalization, 1e-12, operator.le),
    "areas": (_areas, 1e-8, operator.le),
    "star": (_star, 1e-10, operator.le),
    "scaling_ks": (_scaling_ks, "ks_p_min", operator.ge),
}
