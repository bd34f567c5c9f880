"""Infinitely divisible noise models for multiplicative chaos.

A model is the pair (sigma2, nu): a Brownian variance coefficient and a jump
measure on the real line.  The drift is never chosen by the caller; it is
fixed by the normalization that makes the exponential of the noise a mean-one
weight, so the first two values of the moment exponent vanish:

    exponent(0) = exponent(1) = 0.

The moment exponent is

    exponent(q) = drift*q + sigma2*q^2/2
                  + integral(exp(q*x) - 1 - q*x*[|x| <= 1], nu(dx)),

defined for q in the finite-exponential-moment interval of nu, and the
structure function is

    structure(q) = exponent(q) - (q - 1),

a convex function with structure(0) = 1 and structure(1) = 0.  Its slope at 1
decides nondegeneracy of the cascade limit; its root above 1 (when it exists)
is the tail index of the total-mass distribution.
"""

import json
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

_QUAD_KW = dict(epsabs=1e-12, epsrel=1e-11, limit=200)


def _damped(f, t, scale, log_damp):
    if log_damp < -745.0:          # damping alone underflows float64
        return 0.0
    try:
        return f(t) * scale * math.exp(log_damp)
    except OverflowError:
        # f blows up only far out in a tail; whenever the weighted tail
        # integral converges at all, the damping has already crushed the
        # product to zero at machine precision by that point
        return 0.0


class MomentDomainError(ValueError):
    """Raised when an exponential moment of the jump measure diverges."""


# ---------------------------------------------------------------------------
# jump measure variants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroJumps:
    """No jump component (purely Gaussian noise)."""

    def total_mass(self):
        return 0.0


@dataclass(frozen=True)
class AtomicJumps:
    """Finite collection of atoms: nu = sum masses[k] * delta(locations[k])."""

    locations: Tuple[float, ...]
    masses: Tuple[float, ...]

    def __post_init__(self):
        # tuples of floats whatever sequence was passed, so that the measure
        # hashes (make_sampler and jump_law are cached per model)
        object.__setattr__(self, "locations",
                           tuple(float(v) for v in self.locations))
        object.__setattr__(self, "masses",
                           tuple(float(v) for v in self.masses))
        if len(self.locations) != len(self.masses):
            raise ValueError("locations and masses must have equal length")
        if len(self.locations) == 0:
            raise ValueError("empty atom list; use ZeroJumps instead")
        if not all(0 < m < math.inf for m in self.masses):
            raise ValueError("atom masses must be positive and finite")
        if not all(0 < abs(x) < math.inf for x in self.locations):
            raise ValueError("atom locations must be finite and nonzero")

    def total_mass(self):
        return float(sum(self.masses))


@dataclass(frozen=True)
class TabulatedJumps:
    """Density given on a finite grid, linearly interpolated between nodes.

    Outside [grid_x[0], grid_x[-1]] the density is zero unless an exponential
    tail rate is declared: with left_rate = b > 0 the density continues as
    density(grid_x[0]) * exp(b*(x - grid_x[0])) for x below the grid, and with
    right_rate = r > 0 it continues as density(grid_x[-1]) * exp(-r*(x -
    grid_x[-1])) above it.  Tail rates keep every integral here computable in
    closed form on the tail pieces.
    """

    grid_x: Tuple[float, ...]
    grid_density: Tuple[float, ...]
    left_rate: Optional[float] = None
    right_rate: Optional[float] = None

    def __post_init__(self):
        x = np.asarray(self.grid_x, float)
        d = np.asarray(self.grid_density, float)
        if x.ndim != 1 or x.size < 2:
            raise ValueError("need at least two grid nodes")
        # tuples of floats, as in AtomicJumps, so that the measure hashes
        object.__setattr__(self, "grid_x", tuple(x.tolist()))
        object.__setattr__(self, "grid_density", tuple(d.tolist()))
        if not (np.isfinite(x).all() and np.all(np.diff(x) > 0)):
            raise ValueError("grid_x must be finite and strictly increasing")
        if not np.all((d >= 0) & np.isfinite(d)):
            raise ValueError("density must be finite and nonnegative")
        if self.left_rate is not None and not 0 < self.left_rate < math.inf:
            raise ValueError("left_rate must be positive and finite")
        if self.right_rate is not None and not 0 < self.right_rate < math.inf:
            raise ValueError("right_rate must be positive and finite")

    def _arrays(self):
        return np.asarray(self.grid_x, float), np.asarray(self.grid_density, float)

    # tail integrands multiply a possibly huge f(t) by an exponentially
    # small damping factor; when f alone overflows the product is zero to
    # machine precision whenever the integral converges at all

    def integrate_weighted(self, f):
        """integral f(x) nu(dx) with the tail pieces folded into quad."""
        from scipy import integrate
        x, d = self._arrays()
        total, _ = integrate.quad(
            lambda t: f(t) * np.interp(t, x, d), x[0], x[-1],
            points=list(x) if x.size <= 50 else None, **_QUAD_KW)
        if self.left_rate is not None and d[0] > 0:
            b = self.left_rate
            val, _ = integrate.quad(
                lambda t: _damped(f, t, d[0], b * (t - x[0])),
                -np.inf, x[0], **_QUAD_KW)
            total += val
        if self.right_rate is not None and d[-1] > 0:
            r = self.right_rate
            val, _ = integrate.quad(
                lambda t: _damped(f, t, d[-1], -r * (t - x[-1])),
                x[-1], np.inf, **_QUAD_KW)
            total += val
        return total

    def total_mass(self):
        return self.integrate_weighted(lambda t: 1.0)


def nu_integral(nu, f):
    """integral f(x) nu(dx) for any jump-measure variant."""
    if isinstance(nu, ZeroJumps):
        return 0.0
    if isinstance(nu, AtomicJumps):
        return float(sum(m * f(x) for x, m in zip(nu.locations, nu.masses)))
    if isinstance(nu, TabulatedJumps):
        return nu.integrate_weighted(f)
    raise TypeError(f"unknown jump measure {type(nu).__name__}")


def moment_interval(nu):
    """Open-ended interval of q with integral exp(q*x) nu(dx) finite on |x|>=1.

    Returns (lo, hi); lo may be -inf and hi +inf.  The interval always
    contains [0, 1] for the variants accepted by build_model.
    """
    if isinstance(nu, (ZeroJumps, AtomicJumps)):
        return (-math.inf, math.inf)
    if isinstance(nu, TabulatedJumps):
        lo = -math.inf if nu.left_rate is None else -nu.left_rate
        hi = math.inf if nu.right_rate is None else nu.right_rate
        return (lo, hi)
    raise TypeError(f"unknown jump measure {type(nu).__name__}")


def _in_moment_interval(nu, q):
    lo, hi = moment_interval(nu)
    # endpoints excluded: at q == rate the tail integral diverges.
    return lo < q < hi


def normalize_drift(sigma2, nu):
    """The unique drift making exponent(0) = exponent(1) = 0."""
    if not 0 <= sigma2 < math.inf:
        raise ValueError(f"sigma2 must be finite and nonnegative, got {sigma2}")
    if not _in_moment_interval(nu, 1.0):
        raise MomentDomainError(
            "integral exp(x) nu(dx) diverges; the mean-one normalization "
            "needs q = 1 inside the finite-moment interval")
    compensated = nu_integral(
        nu, lambda x: math.exp(x) - 1.0 - (x if abs(x) <= 1.0 else 0.0))
    return -0.5 * sigma2 - compensated


def jump_drift(nu):
    """Drift of the pure-jump part: -integral (exp(x) - 1) nu(dx).

    The jump noise of a region of area a is jump_drift(nu) * a plus the
    jumps of the Poisson points inside it, which has a mean-one exponential
    whenever nu has finite total mass.
    """
    return -nu_integral(nu, lambda x: math.exp(x) - 1.0)


@dataclass(frozen=True)
class NoiseModel:
    """Normalized infinitely divisible noise: variance, jumps, derived drift.

    Build through build_model(); constructing directly bypasses validation.
    """

    sigma2: float
    nu: object
    drift: float
    moment_q_range: Tuple[float, float]


def build_model(sigma2, nu=None):
    """Validate (sigma2, nu) and attach the normalizing drift."""
    if nu is None:
        nu = ZeroJumps()
    if sigma2 == 0.0 and isinstance(nu, ZeroJumps):
        raise ValueError(
            "sigma2 = 0 with no jumps gives deterministic Lebesgue measure; "
            "rejected")
    drift = normalize_drift(sigma2, nu)
    lo, hi = moment_interval(nu)
    if not (lo < 0.0 and hi > 1.0):
        raise MomentDomainError(
            "finite-moment interval of nu must contain [0, 1] strictly; "
            f"got ({lo}, {hi})")
    return NoiseModel(float(sigma2), nu, float(drift), (lo, hi))


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------


def levy_exponent(model, q):
    """Real moment exponent: log E exp(q * noise) per unit area."""
    q = float(q)
    if not _in_moment_interval(model.nu, q):
        lo, hi = model.moment_q_range
        raise MomentDomainError(
            f"q = {q} outside ({lo}, {hi}): integral exp(q*x) nu(dx) diverges")
    jumps = nu_integral(
        model.nu,
        lambda x: math.exp(q * x) - 1.0 - (q * x if abs(x) <= 1.0 else 0.0))
    return model.drift * q + 0.5 * model.sigma2 * q * q + jumps


def structure_function(model, q):
    """Convex scaling structure function; zero at q = 1, one at q = 0."""
    return levy_exponent(model, q) - (float(q) - 1.0)


def structure_derivatives(model, q):
    """(first, second) derivative of the structure function at q.

    Analytic for atomic/zero jump measures; central differences otherwise.
    """
    q = float(q)
    if isinstance(model.nu, (ZeroJumps, AtomicJumps)):
        d1 = model.drift + model.sigma2 * q
        d2 = model.sigma2
        if isinstance(model.nu, AtomicJumps):
            for x, p in zip(model.nu.locations, model.nu.masses):
                e = math.exp(q * x)
                d1 += p * (x * e - (x if abs(x) <= 1.0 else 0.0))
                d2 += p * x * x * e
        return d1 - 1.0, d2
    h = 1e-5 * max(1.0, abs(q))
    lo, hi = model.moment_q_range
    if not (lo < q - 2 * h and q + 2 * h < hi):
        raise MomentDomainError(
            f"cannot difference the structure function at q = {q}: too close "
            f"to the boundary of ({lo}, {hi})")
    f = [structure_function(model, q + k * h) for k in (-2, -1, 0, 1, 2)]
    d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
    d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
    return d1, d2


def mean_slope(model):
    """Slope of the structure function at q = 1; negative iff nondegenerate."""
    return structure_derivatives(model, 1.0)[0]


def growth_constant(model):
    """integral (1 - exp(x)) nu(dx) when absolutely convergent, else None.

    Finite exactly when the jump measure has finite variation near zero; all
    variants representable here satisfy that, but a divergent positive tail
    (right_rate <= 1) is rejected upstream, so convergence only needs the
    total-variation check near the origin, which holds for bounded densities
    and finite atom sets.
    """
    if isinstance(model.nu, ZeroJumps):
        return 0.0
    return nu_integral(model.nu, lambda x: 1.0 - math.exp(x))


def tail_index_root(model, cap=64.0):
    """Root of the structure function in (1, cap), or None.

    Scans q = 1 + 2^k for a sign change, then brentq.  The structure function
    is convex with value 0 and negative slope at 1 (nondegenerate case), so
    any root above 1 is unique.  A pure Gaussian model has
    zeta(q) = (q - 1)(sigma2 q / 2 - 1), whose root is 2 / sigma2.
    """
    if mean_slope(model) >= 0:
        return None
    if isinstance(model.nu, ZeroJumps):
        return 2.0 / model.sigma2 if model.sigma2 * cap > 2.0 else None
    lo_q, hi_q = model.moment_q_range
    margin = 1e-9 + 1e-6 * min(abs(hi_q), 1.0) if math.isfinite(hi_q) else 0.0
    q_cap = min(cap, hi_q - margin) if math.isfinite(hi_q) else cap
    prev = 1.0
    k = -10
    while True:
        q = 1.0 + 2.0 ** k
        if q >= q_cap:
            q = q_cap
        val = structure_function(model, q)
        if val > 0.0:
            from scipy.optimize import brentq
            return float(brentq(
                lambda t: structure_function(model, t), prev, q,
                xtol=1e-13, rtol=1e-12))
        if q >= q_cap:
            return None
        prev = q
        k += 1


def _arithmetic_atoms(nu, rel_tol=1e-9):
    """True when all atom locations are integer multiples of one spacing."""
    xs = [abs(x) for x in nu.locations]
    g = xs[0]
    for x in xs[1:]:
        a, b = max(g, x), min(g, x)
        while b > rel_tol * xs[0]:
            a, b = b, math.fmod(a, b)
        g = a
    return g > rel_tol * max(xs)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticsReport:
    """Closed-form facts about a model, suitable for flat JSON export."""

    sigma2: float
    drift: float
    nondegenerate: bool
    structure_slope_at_one: float
    moment_region_sup: float
    all_moments_finite: bool
    growth_constant: Optional[float]
    tail_index: Optional[float]
    tail_slope: Optional[float]
    tail_constant_at_two: Optional[float]
    neg_moment_bound: float
    local_dimension: float
    gauge_correction_critical: float
    arithmetic_support: bool

    def to_json(self, indent=2):
        payload = {k: getattr(self, k) for k in self.__dataclass_fields__}
        # json emits bare Infinity for floats; stringify to stay portable.
        for k, v in payload.items():
            if isinstance(v, float) and math.isinf(v):
                payload[k] = ("inf" if v > 0 else "-inf")
        return json.dumps(payload, indent=indent, sort_keys=True)


def diagnose(model):
    """Assemble the report of every closed-form quantity for a model."""
    slope = mean_slope(model)
    nondeg = slope < 0.0
    root = tail_index_root(model) if nondeg else None
    lo_q, hi_q = model.moment_q_range

    if not nondeg:
        sup = 1.0
    elif root is not None:
        sup = root
    else:
        sup = hi_q  # structure function stays negative up to the domain edge

    support_nonpos = _support_nonpositive(model.nu)
    gam = growth_constant(model)
    all_finite = (
        model.sigma2 == 0.0 and support_nonpos
        and gam is not None and gam <= 1.0)
    if all_finite:
        sup = math.inf

    tail_slope = None
    tail_const = None
    if root is not None:
        tail_slope = structure_derivatives(model, root)[0]
        if abs(root - 2.0) < 1e-8:
            d2_slope = structure_derivatives(model, 2.0)[0]
            tail_const = 1.0 / d2_slope if d2_slope != 0 else None

    d1_one, d2_one = structure_derivatives(model, 1.0)
    arithmetic = (
        model.sigma2 == 0.0 and isinstance(model.nu, AtomicJumps)
        and _arithmetic_atoms(model.nu))

    return DiagnosticsReport(
        sigma2=model.sigma2,
        drift=model.drift,
        nondegenerate=nondeg,
        structure_slope_at_one=slope,
        moment_region_sup=float(sup),
        all_moments_finite=bool(all_finite),
        growth_constant=gam,
        tail_index=root,
        tail_slope=tail_slope,
        tail_constant_at_two=tail_const,
        neg_moment_bound=float(lo_q),
        local_dimension=-d1_one,
        gauge_correction_critical=math.sqrt(2.0 * d2_one),
        arithmetic_support=bool(arithmetic),
    )


def _support_nonpositive(nu):
    if isinstance(nu, ZeroJumps):
        return True
    if isinstance(nu, AtomicJumps):
        return all(x < 0 for x in nu.locations)
    if isinstance(nu, TabulatedJumps):
        if nu.right_rate is not None:
            return False
        x = np.asarray(nu.grid_x, float)
        d = np.asarray(nu.grid_density, float)
        return bool(np.all(d[x > 0] == 0.0))
    raise TypeError(f"unknown jump measure {type(nu).__name__}")


# convenient constructors used all over the tests ---------------------------


def lognormal_model(sigma2):
    """Purely Gaussian noise with variance coefficient sigma2."""
    return build_model(sigma2, ZeroJumps())


def single_atom_model(location, mass, sigma2=0.0):
    """One-atom jump model (optionally with a Gaussian part)."""
    return build_model(sigma2, AtomicJumps((float(location),), (float(mass),)))
