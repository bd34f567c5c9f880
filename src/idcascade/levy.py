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

import functools
import json
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

# Tabulated integrals: Gauss-Legendre rules of _RULE_NODES nodes on finite
# pieces no wider than _PIECE_WIDTH; a gap over _RULE_RTOL of |v|'s warns
_RULE_NODES, _PIECE_WIDTH, _RULE_RTOL = (16, 24), 0.5, 1e-8


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(1, n):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return p1, n * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))


@functools.lru_cache(maxsize=None)
def _unit_gauss(n):
    """Gauss-Legendre nodes and weights on [0, 1], read-only and cached.

    Newton iteration on the recurrence from the cosine guesses finds the
    nonnegative roots of P_n, which are mirrored; the weights are
    2 / ((1 - x)(1 + x) P_n'(x)^2).  O(n) memory, where the companion
    eigenproblem of numpy.polynomial.legendre.leggauss is n x n (Hale and
    Townsend, SIAM J. Sci. Comput. 35, 2013).
    """
    x = np.cos(math.pi * (np.arange(1, n // 2 + 1) - 0.25) / (n + 0.5))
    if n % 2:
        x = np.append(x, 0.0)  # the middle root of odd n is exact
    for _ in range(100):
        dx = np.divide(*_legendre(n, x))
        x -= dx
        if np.max(np.abs(dx)) < 1e-12:  # the next step is below rounding
            break
    d = _legendre(n, x)[1]
    w = 2.0 / ((1.0 - x) * (1.0 + x) * d * d)
    x = np.concatenate([-x, x[::-1][n % 2:]])
    w = np.concatenate([w, w[::-1][n % 2:]])
    u, wu = 0.5 * (x + 1.0), 0.5 * w
    u.setflags(write=False)
    wu.setflags(write=False)
    return u, wu


class MomentDomainError(ValueError):
    """Raised when an exponential moment of the jump measure diverges."""


# ---------------------------------------------------------------------------
# jump measure variants
# ---------------------------------------------------------------------------


class JumpMeasure:
    """A jump measure nu, which alone knows the rules of its kind.

    Each variant is a frozen, hashable dataclass (make_sampler and
    jump_drift cache per measure) with these methods:

    * integral(k, q), q in the moment interval: at k = 0 the jump part of
      exponent(q), I_0(q) = integral(exp(q*x) - 1 - q*x*[|x| <= 1], nu(dx)),
      and at k = 1, 2 its derivatives I_1(q) = integral(x*exp(q*x) -
      x*[|x| <= 1], nu(dx)) and I_2(q) = integral(x^2*exp(q*x), nu(dx));
    * jump_drift(): integral(1 - exp(x), nu(dx));
    * moment_interval(): the open-ended (lo, hi) of q with integral
      exp(q*x) nu(dx) finite on |x| >= 1, which holds [0, 1];
    * support_nonpositive(): nu charges no x > 0;
    * arithmetic(): the atoms are integer multiples of one spacing;
    * digest_fields(): the JSON list model_digest hashes;
    * truncated(cutoff): (the jumps |x| >= cutoff as a measure, the
      integral of x^2 over the dropped jumps |x| < cutoff);
    * total_mass(): nu(R), the Poisson rate of the jumps;
    * uniforms(rng, size), from_uniforms(u): the (uniform_rows, size)
      uniforms of size jumps, then the jumps, elementwise, so that many
      draws map at once (a batch fills each row in place, in the same
      order).  Their tables are built in __post_init__ and read-only.
    """

    uniform_rows = 0

    def uniforms(self, rng, size):
        if not self.uniform_rows:
            raise ValueError(f"{type(self).__name__} has no jumps to draw")
        return rng.random((self.uniform_rows, size))

    def moment_interval(self):
        return (-math.inf, math.inf)

    def arithmetic(self):
        return False

    def total_mass(self):
        return self._total


def _table_index(cum, u):
    """np.searchsorted(cum, u) of uniforms u in a cumulative table of
    shares, whose last entry is 1 up to rounding: the count of the inner
    entries below each u, one comparison per entry of the small table.
    A u above a last entry that rounds below 1 gets the last index, where
    searchsorted would run off the table."""
    index = np.zeros(u.shape, np.intp)
    for c in cum[:-1]:
        index += u > c
    return index


def _set(obj, **values):
    """Set attributes of a frozen dataclass, numpy arrays read-only."""
    for name, v in values.items():
        if isinstance(v, np.ndarray):
            v.setflags(write=False)
        object.__setattr__(obj, name, v)


def _rule_sum(v, w, tails=0.0):
    """The finer rule's sum (math.fsum) of values v at the nodes of _rules,
    weights w, plus the tails' closed forms; a gap between the rules warns."""
    coarse, fine = (math.fsum(row) for row in w * v)
    if abs(fine - coarse) > _RULE_RTOL * (w[1] @ np.abs(v) + abs(tails)):
        warnings.warn(f"tabulated jump integral: the rules of "
                      f"{_RULE_NODES} nodes disagree", RuntimeWarning)
    return float(fine + tails)


@dataclass(frozen=True)
class ZeroJumps(JumpMeasure):
    """No jump component (purely Gaussian noise)."""
    _total = 0.0

    def integral(self, k, q):
        return 0.0

    def jump_drift(self):
        return 0.0

    def support_nonpositive(self):
        return True

    def digest_fields(self):
        return ["zero"]

    def truncated(self, cutoff):
        return self, 0.0


@dataclass(frozen=True)
class AtomicJumps(JumpMeasure):
    """Finite collection of atoms: nu = sum masses[k] * delta(locations[k])."""

    locations: Tuple[float, ...]
    masses: Tuple[float, ...]
    uniform_rows = 1

    def __post_init__(self):
        # tuples of floats whatever sequence was passed, so that the
        # measure hashes
        _set(self, locations=tuple(float(v) for v in self.locations),
             masses=tuple(float(v) for v in self.masses))
        if len(self.locations) != len(self.masses):
            raise ValueError("locations and masses must have equal length")
        if len(self.locations) == 0:
            raise ValueError("empty atom list; use ZeroJumps instead")
        if not all(0 < m < math.inf for m in self.masses):
            raise ValueError("atom masses must be positive and finite")
        if not all(0 < abs(x) < math.inf for x in self.locations):
            raise ValueError("atom locations must be finite and nonzero")
        masses = np.asarray(self.masses)
        total = float(masses.sum())
        _set(self, _total=total, _x=np.asarray(self.locations),
             _cum=np.cumsum(masses) / total)

    def integral(self, k, q):
        terms = []  # the integrand of I_k at each atom
        for x in self.locations:
            e, x_in = math.exp(q * x), (x if abs(x) <= 1.0 else 0.0)
            terms.append((e - 1.0 - q * x_in, x * e - x_in, x * x * e)[k])
        return float(sum(m * v for m, v in zip(self.masses, terms)))

    def jump_drift(self):
        return float(sum(m * (1.0 - math.exp(x))
                         for x, m in zip(self.locations, self.masses)))

    def support_nonpositive(self):
        return all(x < 0 for x in self.locations)

    def arithmetic(self):
        # every atom is m*h, 0 < |m| <= 10**6, to within 1e-9*h: the
        # ratios to the first atom are fractions m/m0 with m0 <= 10**6
        from fractions import Fraction  # imports decimal: not at start-up
        x0 = self.locations[0]
        ratios = [Fraction(x / x0).limit_denominator(10 ** 6)
                  for x in self.locations]
        m0 = math.lcm(*(r.denominator for r in ratios))
        h = x0 / m0
        return all(0 < abs(r * m0) <= 10 ** 6 and
                   abs(x - float(r * m0) * h) <= 1e-9 * abs(h)
                   for x, r in zip(self.locations, ratios))

    def digest_fields(self):
        return ["atoms", list(self.locations), list(self.masses)]

    def truncated(self, cutoff):
        atoms = list(zip(self.locations, self.masses))
        kept = [(x, m) for x, m in atoms if abs(x) >= cutoff]
        var_small = sum(m * x * x for x, m in atoms if abs(x) < cutoff)
        return (AtomicJumps(*zip(*kept)) if kept else ZeroJumps()), var_small

    def from_uniforms(self, u):
        return self._x[_table_index(self._cum, u[0])]


@dataclass(frozen=True)
class TabulatedJumps(JumpMeasure):
    """Density given on a finite grid, linearly interpolated between nodes.

    Outside [grid_x[0], grid_x[-1]] the density is zero unless an exponential
    tail rate is declared: with left_rate = b > 0 the density continues as
    density(grid_x[0]) * exp(b*(x - grid_x[0])) for x below the grid, and with
    right_rate = r > 0 it continues as density(grid_x[-1]) * exp(-r*(x -
    grid_x[-1])) above it.  Tail rates keep every integral here computable in
    closed form on the tail pieces (_tails), with Gauss-Legendre rules on the
    finite ones (_rules).  The total mass must be positive.

    pieces holds the closed-form masses of the left tail, the trapezoid
    bins and the right tail; a jump draw picks a piece by its mass, then
    inverts the piece's CDF.
    """

    grid_x: Tuple[float, ...]
    grid_density: Tuple[float, ...]
    left_rate: Optional[float] = None
    right_rate: Optional[float] = None
    uniform_rows = 2

    def __post_init__(self):
        x = np.array(self.grid_x, float)
        d = np.array(self.grid_density, float)
        if x.ndim != 1 or x.size < 2:
            raise ValueError("need at least two grid nodes")
        # tuples of floats, as in AtomicJumps, so that the measure hashes
        _set(self, grid_x=tuple(x.tolist()), grid_density=tuple(d.tolist()))
        if not (np.isfinite(x).all() and np.all(np.diff(x) > 0)):
            raise ValueError("grid_x must be finite and strictly increasing")
        if not np.all((d >= 0) & np.isfinite(d)):
            raise ValueError("density must be finite and nonnegative")
        if self.left_rate is not None and not 0 < self.left_rate < math.inf:
            raise ValueError("left_rate must be positive and finite")
        if self.right_rate is not None and not 0 < self.right_rate < math.inf:
            raise ValueError("right_rate must be positive and finite")
        b, r = self.left_rate, self.right_rate
        left = d[0] / b if b and d[0] > 0 else 0.0
        right = d[-1] / r if r and d[-1] > 0 else 0.0
        pieces = np.concatenate(
            [[left], 0.5 * (d[:-1] + d[1:]) * np.diff(x), [right]])
        total = float(pieces.sum())
        if not total > 0:
            raise ValueError("tabulated density has zero total mass; use "
                             "ZeroJumps instead")
        _set(self, _total=total, _x=x, _d=d, pieces=pieces,
             _cum=np.cumsum(pieces) / total)

    def integral(self, k, q):
        t, w = self._rules((-1.0, 1.0))
        e, em1, inner = np.exp(q * t), np.expm1(q * t), np.abs(t) <= 1.0
        v = (em1 - q * t * inner, t * np.where(inner, em1, e), t * t * e)[k]
        return _rule_sum(v, w, self._tails(k, q))

    def jump_drift(self):
        t, w = self._rules((-1.0, 1.0))
        return -_rule_sum(np.expm1(t), w, self._tails(0, 1.0))

    def _rules(self, cuts):
        """Nodes t of both _RULE_NODES rules on pieces at most _PIECE_WIDTH
        wide between the grid nodes and the cuts (a cut past an end with no
        tail left out), and weights (2, t.size): each rule's times the
        density, 0 at the other rule's nodes."""
        x, d = self._x, self._d
        b, r = self.left_rate or 0.0, self.right_rate or 0.0
        edges = np.unique([*x, *(c for c in cuts if (b or c > x[0])
                                 and (r or c < x[-1]))])
        ends = np.append(np.concatenate([  # the ends of the pieces
            np.linspace(p, z, math.ceil((z - p) / _PIECE_WIDTH), False)
            for p, z in zip(edges, edges[1:])]), edges[-1])
        (u0, w0), (u1, w1) = map(_unit_gauss, _RULE_NODES)
        h = np.diff(ends)[:, None]
        t = (ends[:-1, None] + h * np.concatenate([u0, u1])).ravel()
        w = h * np.array([np.r_[w0, 0 * w1], np.r_[0 * w0, w1]])[:, None]
        dens = np.interp(t, x, d) * np.exp(b * np.minimum(t - x[0], 0.0)
                                           + r * np.minimum(x[-1] - t, 0.0))
        return t, w.reshape(2, -1) * dens

    def _tails(self, k, q):
        """The integral of x^k e^(qx), less 1 at k = 0, over each tail past
        the grid and x = -1, 1 from its start s0: c e^(q s0) sum_{j<=k} C(k,
        j) s0^(k-j) j! h^j / g, with g = rate -+ q, h = +-1 / g (upper signs
        on the right) and c the density at s0; that is c e^(q s0) / g times
        s0 + h at k = 1 and (s0 + h)^2 + h^2 at k = 2, terms of one sign, and
        c (expm1(q s0) +- q / rate) / g at k = 0, precise at small q."""
        x, d, total = self._x, self._d, 0.0
        for rate, x_e, d_e, sign in ((self.left_rate, x[0], d[0], -1.0),
                                     (self.right_rate, x[-1], d[-1], 1.0)):
            if rate:
                s0, g = sign * max(sign * x_e, 1.0), rate - sign * q
                c = d_e * math.exp(-rate * abs(s0 - x_e))
                h, e = sign / g, math.exp(q * s0)
                total += c / g * (math.expm1(q * s0) + sign * q / rate,
                                  e * (s0 + h), e * ((s0 + h) ** 2 + h * h))[k]
        return total

    def moment_interval(self):
        return (-(self.left_rate or math.inf), self.right_rate or math.inf)

    def support_nonpositive(self):
        # a bin ending above 0 with density at either end charges x > 0
        up = self._x[1:] > 0
        return self.right_rate is None and not (
            self._d[:-1][up].any() or self._d[1:][up].any())

    def digest_fields(self):
        return ["tabulated", list(self.grid_x), list(self.grid_density),
                self.left_rate, self.right_rate]

    def truncated(self, cutoff):
        t, w = self._rules((-cutoff, cutoff))
        var_small = _rule_sum(t * t * (np.abs(t) < cutoff), w)
        x, d = self._x, self._d
        pts = [p for p in sorted({*x.tolist(), -cutoff, cutoff})
               if x[0] <= p <= x[-1]]
        dens = [0.0 if abs(p) < cutoff else float(np.interp(p, x, d))
                for p in pts]
        if not any(dens):
            return ZeroJumps(), var_small
        return TabulatedJumps(tuple(pts), tuple(dens), self.left_rate,
                              self.right_rate), var_small

    def from_uniforms(self, u):
        x, d = self._x, self._d
        piece, u = _table_index(self._cum, u[0]), u[1]
        out = np.empty(u.size)
        nb = x.size - 1
        for k in range(nb + 2):
            sel = np.flatnonzero(piece == k)
            if not sel.size:
                continue
            uu = u[sel]
            if k == 0:
                out[sel] = x[0] + np.log(uu) / self.left_rate
            elif k == nb + 1:
                out[sel] = x[-1] - np.log(1.0 - uu) / self.right_rate
            else:
                a, b = x[k - 1], x[k]
                da, db = d[k - 1], d[k]
                if abs(db - da) < 1e-14 * max(da, db, 1.0):
                    out[sel] = a + uu * (b - a)
                else:
                    # invert the linear-density CDF on the bin
                    slope = (db - da) / (b - a)
                    disc = da * da + uu * (db * db - da * da)
                    out[sel] = a + (np.sqrt(disc) - da) / slope
        return out


def nu_integral(nu, k, q):
    """I_k(q) of nu (JumpMeasure.integral), the exponent's one way in."""
    return nu.integral(k, q)


def _checked_q(nu, q):
    """float(q), which must lie in the open finite-moment interval of nu:
    at an endpoint the tail integral diverges."""
    q = float(q)
    lo, hi = nu.moment_interval()
    if not lo < q < hi:
        raise MomentDomainError(
            f"q = {q} outside ({lo}, {hi}): integral exp(q*x) nu(dx) diverges")
    return q


def normalize_drift(sigma2, nu):
    """The unique drift making exponent(0) = exponent(1) = 0."""
    if not 0 <= sigma2 < math.inf:
        raise ValueError(f"sigma2 must be finite and nonnegative, got {sigma2}")
    _checked_q(nu, 1.0)  # the mean-one normalization needs exp(x) moments
    return -0.5 * sigma2 - nu_integral(nu, 0, 1.0)


@functools.lru_cache(maxsize=64)
def jump_drift(nu):
    """Drift of the pure-jump part: integral (1 - exp(x)) nu(dx).

    The jump noise of a region of area a is jump_drift(nu) * a plus the
    jumps of the Poisson points inside it, which has a mean-one exponential
    whenever nu has finite total mass.  Cached per measure: a tabulated
    measure's quadrature runs once for all its samplers and area draws.
    """
    return nu.jump_drift()


@dataclass(frozen=True)
class NoiseModel:
    """Normalized infinitely divisible noise: variance, jumps, derived drift.

    Build through build_model(); constructing directly bypasses validation.
    """

    sigma2: float
    nu: JumpMeasure
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
    # every measure's interval holds q < 0, and normalize_drift checks q = 1
    drift = normalize_drift(sigma2, nu)
    return NoiseModel(float(sigma2), nu, float(drift), nu.moment_interval())


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------


def levy_exponent(model, q):
    """Real moment exponent: log E exp(q * noise) per unit area."""
    q = _checked_q(model.nu, q)
    return (model.drift * q + 0.5 * model.sigma2 * q * q
            + nu_integral(model.nu, 0, q))


def structure_function(model, q):
    """Convex scaling structure function; zero at q = 1, one at q = 0."""
    return levy_exponent(model, q) - (float(q) - 1.0)


def structure_derivatives(model, q):
    """(first, second) derivative of the structure function at q.

    They are exponent'(q) - 1 and exponent''(q), where exponent'(q) =
    drift + sigma2*q + integral x*(exp(q*x) - [|x| <= 1]) nu(dx) and
    exponent''(q) = sigma2 + integral x^2*exp(q*x) nu(dx).
    """
    q = _checked_q(model.nu, q)
    d1, d2 = nu_integral(model.nu, 1, q), nu_integral(model.nu, 2, q)
    return model.drift + model.sigma2 * q + d1 - 1.0, model.sigma2 + d2


def mean_slope(model):
    """Slope of the structure function at q = 1; negative iff nondegenerate."""
    return structure_derivatives(model, 1.0)[0]


# The tail index search stops here: a root above it reads as none.
TAIL_INDEX_CAP = 64.0


def tail_index_root(model):
    """Root of the structure function in (1, TAIL_INDEX_CAP), or None.

    Scans q = 1 + 2^k for the first q where the structure function is
    positive, then takes Newton steps from there.  The structure function
    is convex with value 0 and negative slope at 1 (nondegenerate case), so
    any root above 1 is unique, and from above each tangent's zero stays
    at or above it.  The steps stop when one is at most 1e-15 q, or when
    the structure function reads <= 0 after one: q is then at the root to
    its rounding, which near q = 1 can exceed 1e-15 q.  After 100 steps a
    RuntimeError is raised.  A pure Gaussian model has
    zeta(q) = (q - 1)(sigma2 q / 2 - 1), whose root is 2 / sigma2.
    """
    if mean_slope(model) >= 0:
        return None
    if isinstance(model.nu, ZeroJumps):
        return (2.0 / model.sigma2 if model.sigma2 * TAIL_INDEX_CAP > 2.0
                else None)
    hi_q = model.moment_q_range[1]  # less a margin, where it is finite
    q_cap = min(TAIL_INDEX_CAP, hi_q - (1e-9 + 1e-6 * min(abs(hi_q), 1.0)))
    k = -10
    while True:
        q = min(1.0 + 2.0 ** k, q_cap)
        val = structure_function(model, q)
        if val > 0.0:
            break
        if q >= q_cap:
            return None
        k += 1
    for _ in range(100):
        step = val / structure_derivatives(model, q)[0]
        q -= step
        val = structure_function(model, q)
        if abs(step) <= 1e-15 * q or val <= 0.0:
            return q
    raise RuntimeError(f"tail index: 100 Newton steps left a step of "
                       f"{step:.3g} at q = {q!r}")


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
    growth_constant: float
    tail_index: Optional[float]
    tail_slope: Optional[float]
    tail_constant_at_two: Optional[float]
    neg_moment_bound: float
    arithmetic_support: bool

    def to_json(self):
        payload = {k: getattr(self, k) for k in self.__dataclass_fields__}
        # json emits bare Infinity for floats; stringify to stay portable.
        for k, v in payload.items():
            if isinstance(v, float) and math.isinf(v):
                payload[k] = ("inf" if v > 0 else "-inf")
        return json.dumps(payload, indent=2, sort_keys=True)


def diagnose(model):
    """Assemble the report of every closed-form quantity for a model."""
    slope = mean_slope(model)
    nondeg = slope < 0.0
    root = tail_index_root(model) if nondeg else None
    lo_q, hi_q = model.moment_q_range
    # the root, else the domain edge (the structure function stays negative)
    sup = (hi_q if root is None else root) if nondeg else 1.0
    gam = jump_drift(model.nu)
    all_finite = (model.sigma2 == 0.0 and model.nu.support_nonpositive()
                  and gam <= 1.0)
    if all_finite:
        sup = math.inf

    tail_slope = tail_const = None
    if root is not None:
        tail_slope = structure_derivatives(model, root)[0]
        if abs(root - 2.0) < 1e-8:
            d2_slope = structure_derivatives(model, 2.0)[0]
            tail_const = 1.0 / d2_slope if d2_slope != 0 else None

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
        arithmetic_support=model.sigma2 == 0.0 and model.nu.arithmetic(),
    )


# convenient constructors used all over the tests ---------------------------


def lognormal_model(sigma2):
    """Purely Gaussian noise with variance coefficient sigma2."""
    return build_model(sigma2, ZeroJumps())


def single_atom_model(location, mass, sigma2=0.0):
    """One-atom jump model (optionally with a Gaussian part)."""
    return build_model(sigma2, AtomicJumps((float(location),), (float(mass),)))
