"""Cone geometry on the time-scale half-plane.

The noise lives on the upper half-plane {(x, y): y > 0} with the scale
measure y^-2 dx dy.  The cone anchored at time t is

    cone(t) = {(x, y): -y/2 < x - t <= y/2},

half-open on the left so that cones tile exactly.  The cone of an interval J
is the set of points whose full shadow covers J:

    cone_of(J) = intersection of cone(t) over t in J
               = {(x, y): sup J - y/2 < x <= inf J + y/2},

nonempty only for y >= |J|.  All regions the samplers and the Gram matrices
need are boolean combinations of cones of points and intervals, truncated
below at some height; their scale-measure areas have closed forms collected
here, each checked against the numeric oracle that knows nothing but the
cross-section interval algebra.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np


# ---------------------------------------------------------------------------
# interval algebra on horizontal cross-sections
# ---------------------------------------------------------------------------
# A cross-section is a list of disjoint half-open intervals (a, b], kept
# sorted.  Only unions and differences are needed.


def _xsec_union(pieces):
    pieces = sorted((p for p in pieces if p[0] < p[1]))
    out = []
    for a, b in pieces:
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _xsec_intersect(left, right):
    out = []
    for a, b in left:
        for c, d in right:
            lo, hi = max(a, c), min(b, d)
            if lo < hi:
                out.append((lo, hi))
    return _xsec_union(out)


def _xsec_diff(left, right):
    out = []
    for a, b in left:
        cur = [(a, b)]
        for c, d in right:
            nxt = []
            for lo, hi in cur:
                if d <= lo or c >= hi:
                    nxt.append((lo, hi))
                else:
                    if lo < c:
                        nxt.append((lo, c))
                    if d < hi:
                        nxt.append((d, hi))
            cur = nxt
        out.extend(cur)
    return _xsec_union(out)


def _xsec_width(pieces):
    return sum(b - a for a, b in pieces)


# ---------------------------------------------------------------------------
# symbolic regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """Base class; subclasses implement cross_section(y) and x_marks()."""

    def cross_section(self, y):
        raise NotImplementedError

    def x_marks(self):
        """All x-coordinates whose pairwise distances bound the geometry."""
        raise NotImplementedError

    def floor(self):
        """Height below which the cross-section is empty."""
        return 0.0

    def __sub__(self, other):
        return DifferenceRegion(self, other)

    def __or__(self, other):
        return UnionRegion((self, other))

    def __and__(self, other):
        return IntersectionRegion((self, other))


def _point_xsec(t, y):
    return [(t - 0.5 * y, t + 0.5 * y)]


def _interval_xsec(lo, hi, y):
    if y < hi - lo:
        return []
    return [(hi - 0.5 * y, lo + 0.5 * y)]


@dataclass(frozen=True)
class PointCone(Region):
    """cone(t), optionally truncated below at height eps."""

    t: float
    eps: float = 0.0

    def cross_section(self, y):
        return _point_xsec(self.t, y) if y >= self.eps else []

    def x_marks(self):
        return (self.t,)

    def floor(self):
        return self.eps


@dataclass(frozen=True)
class IntervalCone(Region):
    """cone_of([lo, hi]): shadows covering the whole interval."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")

    def cross_section(self, y):
        return _interval_xsec(self.lo, self.hi, y)

    def x_marks(self):
        return (self.lo, self.hi)

    def floor(self):
        return self.hi - self.lo


@dataclass(frozen=True)
class UnionRegion(Region):
    parts: Tuple[Region, ...]

    def cross_section(self, y):
        pieces = []
        for p in self.parts:
            pieces.extend(p.cross_section(y))
        return _xsec_union(pieces)

    def x_marks(self):
        return tuple(m for p in self.parts for m in p.x_marks())

    def floor(self):
        return min(p.floor() for p in self.parts)


@dataclass(frozen=True)
class IntersectionRegion(Region):
    parts: Tuple[Region, ...]

    def cross_section(self, y):
        cur = self.parts[0].cross_section(y)
        for p in self.parts[1:]:
            cur = _xsec_intersect(cur, p.cross_section(y))
        return cur

    def x_marks(self):
        return tuple(m for p in self.parts for m in p.x_marks())

    def floor(self):
        return max(p.floor() for p in self.parts)


@dataclass(frozen=True)
class DifferenceRegion(Region):
    left: Region
    right: Region

    def cross_section(self, y):
        return _xsec_diff(self.left.cross_section(y),
                          self.right.cross_section(y))

    def x_marks(self):
        return self.left.x_marks() + self.right.x_marks()

    def floor(self):
        return self.left.floor()


def local_cone(interval, t, eps):
    """cone(t) relative to the base interval, truncated at eps.

    This is the region whose noise value drives the weight at time t: points
    of cone(t) at height >= eps whose shadow does not cover all of interval.
    """
    lo, hi = interval
    return PointCone(float(t), float(eps)) - IntervalCone(lo, hi)


def cell_cone(interval, cell):
    """cone_of(cell) minus cone_of(interval): the shared ancestry of a cell."""
    lo, hi = interval
    clo, chi = cell
    return IntervalCone(float(clo), float(chi)) - IntervalCone(lo, hi)


# ---------------------------------------------------------------------------
# numeric oracle
# ---------------------------------------------------------------------------


def region_area(region):
    """Scale-measure area of a region, from cross-sections alone.

    Widths of these regions are piecewise linear in y with kinks only at
    pairwise distances of the x marks (where two cross-section endpoints
    collide) and at declared floors.  Between kinks the width is fitted
    linearly and integrated exactly; a midpoint check guards the linearity
    assumption, and a piece that fails it raises ValueError.  Above the
    last kink the width must be constant or the area is infinite.
    """
    marks = sorted(set(region.x_marks()))
    cuts = {region.floor()}
    for r in _collect_floors(region):
        cuts.add(r)
    for i, a in enumerate(marks):
        for b in marks[i + 1:]:
            cuts.add(b - a)
            cuts.add(2.0 * (b - a))
    lo = region.floor()
    grid = [lo] + sorted(c for c in cuts if c > lo)
    total = 0.0
    width = lambda y: _xsec_width(region.cross_section(y))
    for a, b in zip(grid[:-1], grid[1:]):
        total += _piece_area(width, a, b)
    top = grid[-1] if grid[-1] > 0 else 1.0
    w_top = width(top * (1 + 1e-9))
    w_far = width(top * 4.0)
    if abs(w_far - w_top) > 1e-9 * (1.0 + abs(w_top)):
        raise ValueError("width keeps changing above the last kink; "
                         "area is not finite")
    total += w_top / top  # integral of w/y^2 from top to infinity
    return total


def _collect_floors(region):
    if isinstance(region, (UnionRegion, IntersectionRegion)):
        out = []
        for p in region.parts:
            out.extend(_collect_floors(p))
        return out
    if isinstance(region, DifferenceRegion):
        return _collect_floors(region.left) + _collect_floors(region.right)
    return [region.floor()]


def _piece_area(width, a, b):
    if b <= a:
        return 0.0
    # fit w = alpha + beta*y on (a, b) from two interior samples
    y1 = a + (b - a) * 0.25
    y2 = a + (b - a) * 0.75
    w1, w2 = width(y1), width(y2)
    beta = (w2 - w1) / (y2 - y1)
    alpha = w1 - beta * y1
    mid = 0.5 * (a + b)
    w_mid = width(mid)
    if abs(alpha + beta * mid - w_mid) > 1e-9 * (1.0 + abs(w_mid)):
        raise ValueError(f"width is not linear on the piece [{a!r}, {b!r}]: "
                         f"{w_mid!r} at its midpoint, {alpha + beta * mid!r} "
                         f"on the line through its quarter points")
    # integral (alpha + beta*y) y^-2 dy = alpha*(1/a - 1/b) + beta*log(b/a)
    return alpha * (1.0 / a - 1.0 / b) + beta * math.log(b / a)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _length(interval):
    lo, hi = interval
    if not lo < hi:
        raise ValueError("interval must have positive length")
    return hi - lo


def area_cell(interval, cell):
    """Area of cell_cone: log(|interval| / |cell|)."""
    L, c = _length(interval), _length(cell)
    if not (interval[0] <= cell[0] and cell[1] <= interval[1]):
        raise ValueError("cell must sit inside the base interval")
    return float(overlap_kernel(L, c, 0.0))


def area_local_cone(interval, eps):
    """Area of local_cone, independent of the anchor time."""
    L = _length(interval)
    if eps <= 0:
        raise ValueError("truncation height must be positive")
    return float(overlap_kernel(L, 0.0, eps))


def area_pair(interval, s, t, eps):
    """Area of the overlap of two local cones with the same base interval."""
    L = _length(interval)
    lo, hi = interval
    if not (lo <= s <= hi and lo <= t <= hi):
        raise ValueError("anchor times must lie in the base interval")
    return float(overlap_kernel(L, abs(t - s), eps))


def overlap_kernel(L, h, c, out=None):
    """Area of cone_of(hull) minus cone_of(base), cut below at height c.

    L is the base-interval length, h the hull length of the two footprints
    (h = 0 for a single time), c the effective cutoff (0 when neither region
    is height-truncated).  Every same-interval Gram entry reduces to this.
    h and c are arrays (broadcast together) or scalars; the result has the
    shape of h, written into out when given.
    """
    h = np.asarray(h, float)
    c = np.broadcast_to(np.asarray(c, float), h.shape)
    if out is None:
        out = np.empty(h.shape)
    out.fill(0.0)
    inside = h < L
    low = inside & (c <= h)
    with np.errstate(divide="ignore"):
        v = h[low]
        out[low] = np.log(np.divide(L, v, out=v), out=v)
    mid = inside & (c > h) & (c <= L)
    out[mid] = np.log(L / c[mid]) + 1.0 - h[mid] / c[mid]
    high = inside & (c > L)
    out[high] = (L - h[high]) / c[high]
    return out


def area_cross(I, J, s, t, eps):
    """Area of cone(s) & cone(t) above eps, outside cone_of(I) | cone_of(J).

    s lies in I, t in J, with I and J disjoint and in either order; s and
    t are floats, or arrays broadcast together for an array of areas.  On
    the hull H of I and J, cone_of(I) & cone_of(J) = cone_of(H), and the
    pair's region meets cone_of(I) in the cone of the hull of I and t, and
    cone_of(J) in that of s and J: the area is the pair's overlap_kernel
    on base length |H| less those two.
    """
    if J[1] <= I[0]:
        I, J, s, t = J, I, t, s
    if I[1] > J[0]:
        raise ValueError("intervals must be disjoint")
    s, t = np.asarray(s, float), np.asarray(t, float)
    if not (np.all((I[0] <= s) & (s <= I[1]))
            and np.all((J[0] <= t) & (t <= J[1]))):
        raise ValueError("anchors must lie in their intervals")
    H = J[1] - I[0]
    area = (overlap_kernel(H, t - s, eps) - overlap_kernel(H, J[1] - s, eps)
            - overlap_kernel(H, t - I[0], eps))
    return area if area.ndim else float(area)


def strip_kernel(h, lo, hi):
    """Area of cone_of(hull) restricted to heights [lo, hi).

    h is the hull length of the two footprints (array or scalar).  Used when
    refining: the new noise between two truncation heights has exactly this
    covariance shape.
    """
    h = np.asarray(h, float)
    out = np.zeros(h.shape)
    sel = h < hi
    a = np.maximum(lo, h[sel])
    out[sel] = np.log(hi / a) + h[sel] / hi - h[sel] / a
    return out


# ---------------------------------------------------------------------------
# sampling domain for atomic-noise simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainStrip:
    """One y-band of the union of local cones over a base interval.

    kind "fan": heights eps <= y <= L, one piece of width y + L.
    kind "flank": heights y >= max(eps, L), two pieces of width L each.
    Carries its own scale-measure mass and the inverse-CDF sampler.
    """

    kind: str
    interval: Tuple[float, float]
    y_lo: float
    y_hi: float  # inf for the flank strip

    def mass(self):
        lo, hi = self.interval
        L = hi - lo
        if self.kind == "fan":
            # integral (y + L) y^-2 over [y_lo, y_hi]
            return math.log(self.y_hi / self.y_lo) + L / self.y_lo - L / self.y_hi
        return 2.0 * L / self.y_lo

    def sample(self, u_y, u_branch, u_x):
        """Map three arrays of uniforms to (x, y) arrays, one point per
        index, with the strip's normalized law."""
        lo, hi = self.interval
        L = hi - lo
        if self.kind == "fan":
            m_log = math.log(self.y_hi / self.y_lo)
            m_inv = L / self.y_lo - L / self.y_hi
            log_branch = u_branch * (m_log + m_inv) < m_log
            y = 1.0 / (1.0 / self.y_lo
                       - u_y * (1.0 / self.y_lo - 1.0 / self.y_hi))
            ratio = self.y_hi / self.y_lo
            # scalar pow: numpy's SIMD array power can differ in the last ulp
            y[log_branch] = [self.y_lo * ratio ** float(u)
                             for u in u_y[log_branch]]
            x = (lo - 0.5 * y) + u_x * (y + L)
            return x, y
        with np.errstate(divide="ignore"):
            y = np.where(u_y > 0, self.y_lo / u_y, math.inf)
        x = np.where(u_branch < 0.5, lo - 0.5 * y, lo + 0.5 * y) + u_x * L
        return x, y


def sampling_domain(interval, eps):
    """Strips covering union of local_cone(interval, t, eps) over t.

    Total mass is log(L/eps) + L/eps + 1 when eps <= L, else 2L/eps.
    """
    lo, hi = interval
    L = _length(interval)
    if eps <= 0:
        raise ValueError("truncation height must be positive")
    if eps <= L:
        strips = []
        if eps < L:
            strips.append(DomainStrip("fan", (lo, hi), eps, L))
        strips.append(DomainStrip("flank", (lo, hi), L, math.inf))
        return strips
    return [DomainStrip("flank", (lo, hi), eps, math.inf)]


def refinement_strip(interval, eps_old, eps_new):
    """The extra band eps_new <= y < eps_old of the sampling domain."""
    if not 0 < eps_new < eps_old <= _length(interval):
        raise ValueError("need 0 < eps_new < eps_old <= interval length")
    lo, hi = interval
    return DomainStrip("fan", (lo, hi), eps_new, eps_old)
