"""Exact joint moments and statistical estimators for cascade masses.

The exact side rests on the n-point function of the normalized noise: for
ordered times t_1 < ... < t_n inside a base interval of length T, the
expectation of the product of point weights is

    prod over pairs i < j of (T / (t_j - t_i)) ** alpha(j - i),

where alpha(d) is the second difference of the moment exponent at rank
distance d.  Joint moments of interval masses are integrals of that product
over ordered tuples with prescribed interval membership; the quadrature
below integrates them with a substitution absorbing every adjacent-gap
singularity.

The statistical side has the usual suspects: median-of-means moment
estimates, a Hill tail-index ladder with a plateau estimate of the tail
constant, jackknifed covariances of juxtaposed masses, scaling-exponent
fits, and the growth-ratio sequence of log E Z^n / (n log n).
"""

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from . import cones, field
from .levy import (MomentDomainError, _unit_gauss, jump_drift,
                   levy_exponent, structure_derivatives, tail_index_root)

# ---------------------------------------------------------------------------
# pair exponents
# ---------------------------------------------------------------------------


def moment_pair_exponent(model, j, k):
    """Exponent of (t_j - t_k)^-alpha in the n-point function.

    Second difference of the moment exponent at the rank distance d = j - k:
    alpha = exponent(d+1) + exponent(d-1) - 2 exponent(d).
    """
    d = abs(int(j) - int(k))
    if d == 0:
        raise ValueError("pair exponent needs two distinct ranks")
    return (levy_exponent(model, d + 1) + levy_exponent(model, d - 1)
            - 2.0 * levy_exponent(model, d))


def scaling_exponent(model, q):
    """Theoretical exponent of E mass([0, lam])^q in lam: q - exponent(q)."""
    return float(q) - levy_exponent(model, q)


# ---------------------------------------------------------------------------
# exact joint moments by ordered-simplex quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JointMomentResult:
    value: float
    error: float      # difference between the two quadrature resolutions
    degree: int


def _expand_blocks(blocks):
    """[(interval, power), ...] -> per-point interval bounds, left to right."""
    spans = []
    prev_hi = None
    for interval, power in blocks:
        lo, hi = float(interval[0]), float(interval[1])
        if not lo < hi:
            raise ValueError("intervals must have positive length")
        if power < 1 or power != int(power):
            raise ValueError("powers must be positive integers")
        if prev_hi is not None and lo < prev_hi - 1e-12:
            raise ValueError("intervals must be sorted and non-overlapping")
        prev_hi = hi
        spans.extend([(lo, hi)] * int(power))
    return spans


# Gauss-Legendre nodes per axis of exact_joint_moment's two resolutions,
# by total degree.
_JOINT_NODES = {2: (320, 220), 3: (150, 104), 4: (56, 40)}


def exact_joint_moment(model, blocks):
    """E prod_j mass(I_j)^{p_j} for one cascade on the unit interval.

    blocks is a sequence of (interval, power) pairs, sorted left to right,
    each interval inside [0, 1], total degree at most 4.  Returns the value
    with a two-resolution error estimate.  Same-interval adjacent gaps
    require alpha(1) < 1, otherwise the moment diverges and this raises.
    """
    spans = _expand_blocks(blocks)
    n = len(spans)
    if n < 1 or n > 4:
        raise ValueError("total degree must be between 1 and 4")
    if any(lo < -1e-12 or hi > 1.0 + 1e-12 for lo, hi in spans):
        raise ValueError("all intervals must lie inside [0, 1]")
    if n == 1:
        lo, hi = spans[0]
        return JointMomentResult(hi - lo, 0.0, 1)

    alphas = {d: moment_pair_exponent(model, d, 0) for d in range(1, n)}
    a1 = alphas[1]
    same = [spans[i] == spans[i - 1] for i in range(1, n)]
    if a1 >= 1.0 and any(same):
        raise MomentDomainError(
            f"adjacent-gap exponent alpha(1) = {a1:.6g} >= 1: the joint "
            "moment diverges on vanishing same-interval gaps")

    M, M2 = _JOINT_NODES[n]
    v1 = _ordered_quadrature(spans, alphas, 1.0, M)
    v2 = _ordered_quadrature(spans, alphas, 1.0, M2)
    scale = 1.0
    for _, power in blocks:
        scale *= math.factorial(int(power))
    return JointMomentResult(scale * v1, abs(scale * (v1 - v2)), n)


def selberg_moment(sigma2, n):
    """E Z^n of the lognormal cascade's total mass on its integral scale,
    in closed form by Selberg's integral (Forrester & Warnaar, Bull. AMS
    2008): Z is Gaussian multiplicative chaos on the unit interval, and

        E Z^n = prod_{j<n} G(1 - ja)^2 G(1 - (j+1)a)
                           / [G(2 - (n+j-1)a) G(1 - a)],   a = sigma2 / 2,

    with G the gamma function.  Raises MomentDomainError for n >= 2 /
    sigma2, the tail index, where the moment is infinite."""
    n, a = int(n), float(sigma2) / 2.0
    if n < 0 or a < 0.0:
        raise ValueError("needs n >= 0 and sigma2 >= 0")
    if n * a >= 1.0:
        raise MomentDomainError(f"E Z^{n} is infinite: n >= 2 / sigma2 = "
                                f"{1.0 / a:.6g}")
    g = math.lgamma
    return math.exp(sum(2.0 * g(1.0 - j * a) + g(1.0 - (j + 1) * a)
                        - g(2.0 - (n + j - 1) * a) - g(1.0 - a)
                        for j in range(n)))


def implicit_renewal_constant(model):
    """(d, error) of the total mass's tail P(Z > x) ~ d x^-zeta at an
    integer tail index zeta in {2, 3, 4}, by the implicit renewal theorem
    (Goldie, Ann. Appl. Probab. 1991) for the random difference equation
    Z = a + b that halves the unit interval, a and b the masses of
    [0, 1/2] and [1/2, 1]:

        d = sum_{k=1}^{zeta-1} C(zeta, k) E[a^k b^(zeta-k)]
            / (zeta s'(zeta) log 2),

    s the structure function, each mixed moment by exact_joint_moment and
    the error the same combination of theirs.  Raises ValueError unless
    zeta lies within 1e-8 of 2, 3 or 4.
    """
    zeta = tail_index_root(model)
    order = None if zeta is None else round(zeta)
    if order not in (2, 3, 4) or abs(zeta - order) > 1e-8:
        raise ValueError(f"tail index {zeta} is not within 1e-8 of 2, 3 "
                         "or 4")
    total = error = 0.0
    for k in range(1, order):
        m = exact_joint_moment(model, [((0.0, 0.5), k),
                                       ((0.5, 1.0), order - k)])
        total += math.comb(order, k) * m.value
        error += math.comb(order, k) * m.error
    scale = order * structure_derivatives(model, zeta)[0] * math.log(2.0)
    return total / scale, error / abs(scale)


def _ordered_quadrature(spans, alphas, T, M):
    """Integral of prod (t_j - t_i)^-alpha over the ordered block simplex.

    Sequential coordinates: the gap to the previous point is substituted by
    a power law on same-interval steps (kills the alpha(1) singularity) and
    by a log map on cross-boundary steps (bounded away from zero at interior
    nodes, valid for any alpha including >= 1).
    """
    n = len(spans)
    u, wu = _unit_gauss(M)
    a1 = alphas.get(1, 0.0)
    p = 1.0 / (1.0 - a1) if a1 < 1.0 else None

    total = 0.0
    # chunks of the outermost axis: a chunk's grid holds at most
    # field.BLOCK_VALUES values, or one outer node's grid where that is more
    chunk = max(1, field.BLOCK_VALUES // M ** (n - 1))
    for c0 in range(0, M, chunk):
        sl = slice(c0, min(M, c0 + chunk))
        ts = [None] * n
        lo0, hi0 = spans[0]
        t0 = lo0 + (hi0 - lo0) * u[sl]
        jac = wu[sl] * (hi0 - lo0)
        shape = [t0.size] + [1] * (n - 1)
        ts[0] = t0.reshape(shape)
        jac = jac.reshape(shape)
        for i in range(1, n):
            axis_shape = [1] * n
            axis_shape[i] = M
            ui = u.reshape(axis_shape)
            wi = wu.reshape(axis_shape)
            lo_i, hi_i = spans[i]
            prev = ts[i - 1]
            if spans[i] == spans[i - 1]:
                gmax = hi_i - prev
                g = gmax * ui ** p
                # gap factor g^-a1 absorbed: d(gap)/du * g^-a1
                jac = jac * wi * (gmax ** (1.0 - a1)) / (1.0 - a1)
            else:
                g0 = lo_i - prev
                g1 = hi_i - prev
                ratio = g1 / g0
                g = g0 * ratio ** ui
                jac = jac * wi * np.log(ratio) * g ** (1.0 - a1)
            ts[i] = prev + g
        f = jac
        for i in range(n):
            for j in range(i + 1, n):
                if j == i + 1:
                    continue  # adjacent factor folded into the jacobian
                f = f * (ts[j] - ts[i]) ** (-alphas[j - i])
        total += float(np.sum(f))
    return total


# Sizes of the juxtaposed pair moment's product rule: Gauss-Legendre nodes
# per axis (and per angle), then the radial nodes of the touching corner in
# log radius above the cutoff and below it.
_CROSS_NODES, _CROSS_LOG_NODES, _CROSS_CUT_NODES = 20, 40, 8
_CROSS_CUT = 1e-12


def juxtaposed_pair_moment(model, gap):
    """E mass_0 * mass_gap for unit cascades sharing one noise field.

    Different construction from exact_joint_moment: each interval subtracts
    its own interval cone, so the kernel is the cross-interval overlap area
    (cones.area_cross, three overlap kernels on the hull of the two
    intervals).
    The covariance is the integral of expm1(psi(2) * area) over the anchor
    pairs (s, t) in [0, 1] x [gap, gap + 1], the area cut below at 1e-12.
    Returns (covariance, product-moment); the mean of each mass is 1.

    The integral is a fixed product rule.  For gap >= 2 the integrand is
    smooth and the rule is tensor Gauss-Legendre.  Closer, it peaks like
    (t - s)^-psi(2) at the corner (1, gap); in the distances u = 1 - s and
    v = t - gap from it, the square splits along u + v = 1 into two
    triangles mapped from (radius, angle) squares (Duffy).  The corner
    triangle has the radius u + v = t - s, Gauss-Legendre in log radius
    above the cutoff and plainly below it, so the cutoff's kink is a node
    boundary.  Touching intervals (gap 1) need psi(2) < 2: the corner
    integral diverges otherwise and this raises MomentDomainError.
    """
    gap = float(gap)
    if gap < 1.0:
        raise ValueError("the intervals [0, 1] and [gap, gap + 1] overlap")
    psi2 = levy_exponent(model, 2.0)
    if gap == 1.0 and psi2 >= 2.0:
        raise MomentDomainError(
            f"psi(2) = {psi2:.6g} >= 2: the pair moment of touching "
            "intervals diverges at their common end")
    I, J = (0.0, 1.0), (gap, gap + 1.0)
    x, w = _unit_gauss(_CROSS_NODES)
    if gap >= 2.0:
        s, t = np.meshgrid(I[0] + x, J[0] + x, indexing="ij")
        weights = np.outer(w, w)
    else:
        xc, wc = _unit_gauss(_CROSS_CUT_NODES)
        xl, wl = _unit_gauss(_CROSS_LOG_NODES)
        log_span = -math.log(_CROSS_CUT)
        above = np.exp(log_span * (xl - 1.0))
        r = np.concatenate([_CROSS_CUT * xc, above])
        dr = np.concatenate([_CROSS_CUT * wc, log_span * above * wl])
        # (u, v) = r (1 - a, a) on the corner triangle u + v <= 1 and
        # (1, 1) - r (a, 1 - a) on the far one; both have the Jacobian r
        rc, rf, a = r[:, None], x[:, None], x[None, :]
        u = np.concatenate([(rc * (1.0 - a)).ravel(), (1.0 - rf * a).ravel()])
        v = np.concatenate([(rc * a).ravel(), (1.0 - rf * (1.0 - a)).ravel()])
        weights = np.concatenate([np.outer(r * dr, w).ravel(),
                                  np.outer(x * w, w).ravel()])
        s, t = I[1] - u, J[0] + v
    area = cones.area_cross(I, J, s.ravel(), t.ravel(), _CROSS_CUT)
    cov = float(weights.ravel() @ np.expm1(psi2 * area))
    return cov, cov + 1.0


def juxtaposed_covariance_series(model, gap):
    """The first three terms of juxtaposed_pair_moment's covariance in
    1/gap: with p = psi(2), the kernel's area is s (1 - v) / gap^2 +
    O(gap^-3) for s in [0, 1] and t = gap + v, and term by term

        Cov(gap) = p / (4 gap^2) - p / (6 gap^3)
                   + (p / 6 + p^2 / 18) / gap^4 + O(gap^-5),

    so gap * Cov has no nonzero limit."""
    p, g = levy_exponent(model, 2.0), float(gap)
    return p / (4.0 * g ** 2) - p / (6.0 * g ** 3) + (
        p / 6.0 + p * p / 18.0) / g ** 4


# ---------------------------------------------------------------------------
# sample-side estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentEstimate:
    q: float
    mean: float
    stderr: float
    median_of_means: Optional[float]
    blocks: int
    heavy_tail: Optional[bool]


def median(values):
    """np.median's value without numpy.ma, which its first call imports:
    the middle sorted value, or (a + b) / 2 of the middle two; NaN if any
    value is NaN."""
    x = np.sort(np.asarray(values, float), axis=None)  # NaN sorts last
    if x.size == 0 or math.isnan(x[-1]):
        return math.nan
    a, b = x[(x.size - 1) // 2].item(), x[x.size // 2].item()
    return a if x.size % 2 else (a + b) / 2


def estimate_moment(samples, q, blocks=32, tail_index=None):
    """Empirical E X^q with a median-of-means companion.

    heavy_tail flags orders q >= tail_index / 2: X^q then has the tail
    index tail_index / q <= 2, so the plain mean has no finite variance and
    its stderr no meaning; median-of-means is the value to quote there.
    With no tail index supplied the flag is None.
    """
    x = np.asarray(samples, float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("need a one-dimensional nonempty sample")
    powered = x ** q
    mean = float(powered.mean())
    stderr = float(powered.std(ddof=1) / math.sqrt(x.size))
    mom = None
    if blocks and blocks > 1 and x.size >= 2 * blocks:
        cut = (x.size // blocks) * blocks
        bm = powered[:cut].reshape(blocks, -1).mean(axis=1)
        mom = median(bm)
    heavy = None
    if tail_index is not None:
        heavy = bool(2.0 * q >= tail_index)
    return MomentEstimate(float(q), mean, stderr, mom,
                          blocks if mom is not None else 0, heavy)


@dataclass(frozen=True)
class TailReport:
    fractions: Tuple[float, ...]
    hill: Dict[float, float]
    hill_selected: float
    hill_stderr: float
    tail_constant: Optional[float]
    exceedances: Dict[float, int]


TAIL_MIN_SAMPLES = 100  # fewest samples hill_tail_report accepts


def hill_tail_report(samples, fractions=(0.005, 0.01, 0.02, 0.05),
                     tail_index_for_constant=None):
    """Hill estimates over several top fractions, plus a plateau constant.

    The selected value is the median across fractions; its stderr is the
    jackknife over the exceedances at the middle fraction.  When a tail
    index is supplied, the constant is the median of x_(i)^zeta * i / N
    over the top 1% order statistics (the plateau of the rescaled tail).
    Each fraction f lies in (0, 1), its top count max(2, int(f N)) below N.
    """
    x = np.sort(np.asarray(samples, float))[::-1]
    N = x.size
    if N < TAIL_MIN_SAMPLES:
        raise ValueError(
            f"tail estimation needs at least {TAIL_MIN_SAMPLES} samples")
    hill = {}
    ks = {}
    for f in fractions:
        k = max(2, int(f * N))
        if not 0 < f < 1 or k >= N:
            raise ValueError(f"fraction {f!r} must lie in (0, 1) with its "
                             f"top count {k} below the {N} samples")
        logs = np.log(x[:k]) - math.log(x[k])
        hill[f] = 1.0 / float(logs.mean())
        ks[f] = k
    selected = median(list(hill.values()))
    f_mid = sorted(fractions)[len(fractions) // 2]
    k = ks[f_mid]
    logs = np.log(x[:k]) - math.log(x[k])
    s = logs.sum()
    loo = (s - logs) / (k - 1)            # delete-one means
    jk = 1.0 / loo
    hill_stderr = float(np.sqrt((k - 1) / k * np.sum(
        (jk - jk.mean()) ** 2)))
    tail_constant = None
    if tail_index_for_constant is not None:
        k1 = max(2, int(0.01 * N))
        i = np.arange(1, k1 + 1)
        tail_constant = median(x[:k1] ** tail_index_for_constant * i / N)
    return TailReport(tuple(fractions), hill, selected, hill_stderr,
                      tail_constant, ks)


# Fewest samples per side ks_two_sample accepts.
KS_MIN_SAMPLES = 5000


def ks_two_sample(a, b):
    """Two-sample Kolmogorov-Smirnov test: (statistic, asymptotic p-value).

    The statistic is scipy.stats.ks_2samp's.  The p-value is Kolmogorov's
    series at Stephens' lam = (sqrt(en) + 0.12 + 0.11 / sqrt(en)) D, en =
    mn/(m+n) (J. R. Stat. Soc. B 32, 1970), 1 where 100 terms do not
    converge, and untrustworthy for small samples, hence the size floor.
    """
    a = np.sort(np.asarray(a, float))
    b = np.sort(np.asarray(b, float))
    if min(a.size, b.size) < KS_MIN_SAMPLES:
        raise ValueError(f"KS check needs at least {KS_MIN_SAMPLES} samples "
                         f"per side, got {a.size} and {b.size}")
    both = np.concatenate([a, b])
    stat = float(np.max(np.abs(np.searchsorted(a, both, "right") / a.size
                               - np.searchsorted(b, both, "right") / b.size)))
    root_en = math.sqrt(a.size * b.size / (a.size + b.size))
    lam = (root_en + 0.12 + 0.11 / root_en) * stat
    k = np.arange(1, 101)
    terms = 2.0 * (-1.0) ** (k - 1) * np.exp(-2.0 * (k * lam) ** 2)
    converged = abs(terms[-1]) <= 1e-16
    return stat, float(np.clip(terms.sum(), 0.0, 1.0)) if converged else 1.0


# ---------------------------------------------------------------------------
# covariance of juxtaposed masses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovarianceReport:
    gaps: Tuple[int, ...]
    estimate: Tuple[float, ...]
    stderr: Tuple[float, ...]
    theory_claimed: Tuple[float, ...]          # 2 psi(-i2) / (3 gap)
    theory_exact_quadrature: Tuple[float, ...]  # cross-kernel integral
    theory_series: Tuple[float, ...]  # its first terms in 1 / gap

    def rows(self):
        return list(zip(self.gaps, self.estimate, self.stderr,
                        self.theory_claimed, self.theory_exact_quadrature,
                        self.theory_series))


def covariance_report(model, masses, gaps=None):
    """Stationary covariance across interval gaps with jackknife errors.

    masses has shape (replicas, intervals); gap g pools every pair of
    columns at distance g.  The theory columns are attached: the claimed
    1/gap asymptotic, the exact cross-kernel quadrature and its first
    three terms in 1/gap (juxtaposed_covariance_series).
    """
    m = np.asarray(masses, float)
    if m.ndim != 2 or m.shape[1] < 2:
        raise ValueError("need a (replicas, intervals >= 2) matrix")
    R, K = m.shape
    if gaps is None:
        gaps = tuple(range(1, K))
    if not all(1 <= g < K for g in gaps):
        raise ValueError(f"gaps must lie in 1..{K - 1}")
    psi2 = levy_exponent(model, 2.0)
    est, err, claimed, quad = [], [], [], []
    for g in gaps:
        pairs = [(i, i + g) for i in range(K - g)]
        # jackknife over replicas (pairs from one replica are dependent)
        xr = np.stack([m[:, i] for i, _ in pairs], axis=1)
        yr = np.stack([m[:, j] for _, j in pairs], axis=1)
        est.append(_pooled_cov(xr.T.ravel(), yr.T.ravel()))
        err.append(_jackknife_cov(xr, yr))
        claimed.append(2.0 * psi2 / (3.0 * g))
        quad.append(juxtaposed_pair_moment(model, g)[0])
    return CovarianceReport(
        tuple(gaps), tuple(est), tuple(err), tuple(claimed), tuple(quad),
        tuple(juxtaposed_covariance_series(model, g) for g in gaps))


def _pooled_cov(x, y):
    return float(np.mean(x * y) - np.mean(x) * np.mean(y))


def _jackknife_cov(xr, yr):
    """Delete-one-replica jackknife of the pooled covariance.

    xr, yr are (replicas, pairs); all pairs of one replica leave together.
    """
    R, P = xr.shape
    sx, sy = xr.sum(), yr.sum()
    sxy = (xr * yr).sum()
    n = R * P
    rx = xr.sum(axis=1)
    ry = yr.sum(axis=1)
    rxy = (xr * yr).sum(axis=1)
    n_i = n - P
    cov_i = ((sxy - rxy) / n_i -
             ((sx - rx) / n_i) * ((sy - ry) / n_i))
    return float(math.sqrt((R - 1) / R * np.sum(
        (cov_i - cov_i.mean()) ** 2)))


# ---------------------------------------------------------------------------
# scaling fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingReport:
    q_values: Tuple[float, ...]
    slopes: Tuple[float, ...]
    theory: Tuple[float, ...]
    max_abs_error: float


def scaling_fit(model, lams, prefix_masses, q_values):
    """Fit log E mass([0, lam])^q against log lam and compare with theory.

    prefix_masses has shape (replicas, len(lams)).  The per-lam moment is
    the plain mean: the columns come from the same replicas, so their
    fluctuations are positively correlated and largely cancel in the
    slope, while median-of-means has an order- and lam-dependent downward
    bias that tilts the fit.
    """
    m = np.asarray(prefix_masses, float)
    lams = np.asarray(lams, float)
    if lams.ndim != 1 or np.unique(lams).size < 2:
        raise ValueError("need at least two lams of distinct values")
    if m.ndim != 2 or m.shape[1] != lams.size:
        raise ValueError(f"prefix_masses must have shape (replicas, "
                         f"len(lams)) = (replicas, {lams.size}), got "
                         f"{m.shape}")
    slopes = []
    theory = []
    dx = np.log(lams)
    dx -= dx.mean()
    for q in q_values:
        ly = np.array([math.log(float((m[:, j] ** q).mean()))
                       for j in range(lams.size)])
        # the least-squares line's slope in closed form
        slope = float(dx @ (ly - ly.mean()) / (dx @ dx))
        slopes.append(slope)
        theory.append(scaling_exponent(model, q))
    errs = [abs(s - t) for s, t in zip(slopes, theory)]
    return ScalingReport(tuple(float(q) for q in q_values), tuple(slopes),
                         tuple(theory), max(errs))


# ---------------------------------------------------------------------------
# growth ratios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthReport:
    orders: Tuple[int, ...]
    log_moments: Tuple[float, ...]
    ratios: Tuple[float, ...]
    increasing: bool
    growth_constant: Optional[float]
    sources: Tuple[str, ...]


def growth_ratio_probe(model, orders, mc_samples=None):
    """Ratios log E Z^n / (n log n) across orders.

    Orders up to 4 use the exact quadrature; higher orders need a
    Monte Carlo sample of total masses (plain mean of Z^n).  The
    increasing flag reports whether the ratio sequence is monotone, the
    expected signature of factorial-type moment growth with the model's
    growth constant as the limiting slope.
    """
    logs, ratios, sources = [], [], []
    for n in orders:
        if n < 2:
            raise ValueError("orders start at 2")
        if n <= 4:
            res = exact_joint_moment(model, [((0.0, 1.0), n)])
            val = res.value
            sources.append("quadrature")
        else:
            if mc_samples is None:
                raise ValueError(f"order {n} needs Monte Carlo samples")
            # plain mean: it is unbiased, and the probe only makes sense for
            # models with all moments finite, where the CLT applies anyway.
            # median-of-means is biased low at high orders, which would fake
            # a break in the monotone growth it is supposed to reveal.
            val = float(np.mean(np.asarray(mc_samples, float) ** n))
            sources.append("monte-carlo")
        logs.append(math.log(val))
        ratios.append(logs[-1] / (n * math.log(n)))
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    return GrowthReport(tuple(orders), tuple(logs), tuple(ratios),
                        bool(increasing), jump_drift(model.nu),
                        tuple(sources))
