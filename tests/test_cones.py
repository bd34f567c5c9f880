import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idcascade import cones
from idcascade.cones import (
    DomainStrip,
    IntervalCone,
    PointCone,
    Region,
    area_cell,
    area_cross,
    area_local_cone,
    area_pair,
    cell_cone,
    local_cone,
    overlap_kernel,
    refinement_strip,
    region_area,
    sampling_domain,
    strip_kernel,
)

RNG = np.random.default_rng(20260814)


def domain_mass(interval, eps):
    """Area of the Poisson sampling domain: the sum of its strips'."""
    return sum(s.mass() for s in sampling_domain(interval, eps))


def test_half_interval_cell_area_is_log_two():
    assert area_cell((0.0, 1.0), (0.0, 0.5)) == math.log(2.0)
    assert region_area(cell_cone((0.0, 1.0), (0.0, 0.5))) == pytest.approx(
        math.log(2.0), abs=1e-12)


def test_local_cone_area_branches():
    # eps <= L: log(L/eps) + 1, position independent
    for t in (0.0, 0.31, 1.0):
        r = local_cone((0.0, 1.0), t, 0.125)
        assert region_area(r) == pytest.approx(math.log(8.0) + 1.0, abs=1e-10)
    assert area_local_cone((0.0, 1.0), 0.125) == pytest.approx(
        math.log(8.0) + 1.0)
    # eps > L: pure flank, area L/eps
    assert area_local_cone((0.0, 0.5), 2.0) == pytest.approx(0.25)
    assert region_area(local_cone((0.0, 0.5), 0.2, 2.0)) == pytest.approx(
        0.25, abs=1e-10)


def test_pair_area_reduces_to_single_cone_at_zero_gap():
    assert area_pair((0.0, 1.0), 0.4, 0.4, 0.01) == pytest.approx(
        area_local_cone((0.0, 1.0), 0.01))


def test_pair_area_randomized_against_oracle():
    for _ in range(40):
        L = float(RNG.uniform(0.4, 3.0))
        lo = float(RNG.uniform(-2.0, 2.0))
        I = (lo, lo + L)
        eps = float(RNG.uniform(0.002, 0.5)) * L
        s, t = sorted(RNG.uniform(lo, lo + L, size=2))
        closed = area_pair(I, s, t, eps)
        region = (PointCone(s, eps) & PointCone(t, eps)) - IntervalCone(*I)
        assert closed == pytest.approx(region_area(region), abs=1e-9)


def test_overlap_kernel_branches():
    assert overlap_kernel(1.0, 1.2, 0.0) == 0.0          # hull swallows base
    assert overlap_kernel(1.0, 0.25, 0.1) == pytest.approx(math.log(4.0))
    assert overlap_kernel(1.0, 0.05, 0.2) == pytest.approx(
        math.log(5.0) + 1.0 - 0.25)
    assert overlap_kernel(1.0, 0.3, 2.0) == pytest.approx(0.35)
    assert overlap_kernel(1.0, 0.0, 0.0) == math.inf     # untruncated point


def test_overlap_kernel_covers_point_cell_and_cell_cell():
    for _ in range(25):
        L = float(RNG.uniform(0.5, 2.5))
        lo = float(RNG.uniform(-1.0, 1.0))
        I = (lo, lo + L)
        eps = L * 2.0 ** (-int(RNG.integers(3, 8)))
        n = int(RNG.integers(1, 4))
        edges = np.linspace(lo, lo + L, 2 ** n + 1)
        i, j = RNG.integers(0, 2 ** n, size=2)
        a = (edges[i], edges[i + 1])
        b = (edges[j], edges[j + 1])
        s = float(RNG.uniform(lo, lo + L))

        # cell x cell
        hull = (min(a[0], b[0]), max(a[1], b[1]))
        closed = overlap_kernel(L, hull[1] - hull[0], 0.0)
        region = (IntervalCone(*a) & IntervalCone(*b)) - IntervalCone(*I)
        assert closed == pytest.approx(region_area(region), abs=1e-9)

        # point x cell
        hull_pc = (min(s, a[0]), max(s, a[1]))
        closed = overlap_kernel(L, hull_pc[1] - hull_pc[0], eps)
        region = (PointCone(s, eps) & IntervalCone(*a)) - IntervalCone(*I)
        assert closed == pytest.approx(region_area(region), abs=1e-9)


def test_cross_interval_area_against_oracle():
    for _ in range(25):
        L = 1.0
        gap = float(RNG.uniform(0.0, 2.0))
        I = (0.0, 1.0)
        J = (1.0 + gap, 2.0 + gap)
        eps = 2.0 ** (-int(RNG.integers(2, 9)))
        s = float(RNG.uniform(*I))
        t = float(RNG.uniform(*J))
        closed = area_cross(I, J, s, t, eps)
        region = (PointCone(s, eps) & PointCone(t, eps)) \
            - (IntervalCone(*I) | IntervalCone(*J))
        assert closed == pytest.approx(region_area(region), abs=1e-9)
        # the array form juxtaposed_pair_moment runs
        kernel = area_cross(I, J, np.array([s, s]), np.array([t]), eps)
        assert kernel.shape == (2,)
        assert kernel.tolist() == [closed, closed]


def test_cross_interval_swaps_and_validates():
    v = area_cross((0.0, 1.0), (2.0, 3.0), 0.3, 2.7, 0.01)
    assert v == area_cross((2.0, 3.0), (0.0, 1.0), 2.7, 0.3, 0.01)
    with pytest.raises(ValueError):
        area_cross((0.0, 2.0), (1.0, 3.0), 0.5, 2.5, 0.01)
    with pytest.raises(ValueError):
        area_cross((0.0, 1.0), (2.0, 3.0), 1.5, 2.5, 0.01)


def test_strip_kernel_is_band_difference_of_cones():
    # the cone alone has infinite area; the band between two cuts is finite
    for _ in range(20):
        h = float(RNG.uniform(0.0, 1.5))
        lo = float(RNG.uniform(0.01, 1.0))
        hi = lo + float(RNG.uniform(0.05, 2.0))
        closed = strip_kernel(h, lo, hi)
        cone = IntervalCone(0.0, h) if h > 0 else PointCone(0.0, lo)
        band = (cone & PointCone(h / 2.0, lo)) - PointCone(h / 2.0, hi)
        assert closed == pytest.approx(region_area(band), abs=1e-9)


def test_sampling_domain_matches_discrete_union_oracle():
    I = (0.3, 1.8)
    L = I[1] - I[0]
    eps = L / 16.0
    ts = np.linspace(I[0], I[1], 33)   # spacing < eps keeps the union exact
    union = PointCone(float(ts[0]), eps)
    for t in ts[1:]:
        union = union | PointCone(float(t), eps)
    region = union - IntervalCone(*I)
    assert domain_mass(I, eps) == pytest.approx(region_area(region),
                                                abs=1e-8)
    assert domain_mass(I, eps) == pytest.approx(
        math.log(L / eps) + L / eps + 1.0, abs=1e-12)


def test_sampling_domain_strip_layout():
    strips = sampling_domain((0.0, 1.0), 0.25)
    assert [s.kind for s in strips] == ["fan", "flank"]
    assert strips[0].y_lo == 0.25 and strips[0].y_hi == 1.0
    assert strips[1].y_lo == 1.0 and math.isinf(strips[1].y_hi)
    # eps beyond the interval length leaves only the flank band
    strips = sampling_domain((0.0, 1.0), 4.0)
    assert [s.kind for s in strips] == ["flank"]
    assert strips[0].mass() == pytest.approx(0.5)


def test_strip_samples_land_inside_their_strip():
    rng = np.random.default_rng(7)
    for strip in sampling_domain((0.2, 1.4), 0.15):
        xs, ys = strip.sample(*rng.uniform(size=(200, 3)).T)
        for x, y in zip(xs, ys):
            assert strip.y_lo <= y
            if not math.isinf(strip.y_hi):
                assert y <= strip.y_hi * (1 + 1e-12)
            lo, hi = strip.interval
            # shadow must touch the interval ...
            assert x + 0.5 * y >= lo - 1e-12
            assert x - 0.5 * y <= hi + 1e-12
            # ... without landing in the cone above the whole interval
            assert not (y >= hi - lo and hi - 0.5 * y < x < lo + 0.5 * y)


def test_strip_y_marginal_quantiles():
    # fan strip: mixture of log-mass and inverse-mass components
    strip = DomainStrip("fan", (0.0, 1.0), 0.125, 1.0)
    rng = np.random.default_rng(11)
    u = rng.uniform(size=(40_000, 3))
    ys = strip.sample(*u.T)[1]
    # CDF of y under (1 + L/y^2 * ...)  -- check via the strip mass integral
    def cdf(y):
        part = DomainStrip("fan", (0.0, 1.0), 0.125, y).mass()
        return part / strip.mass()
    for q in (0.25, 0.5, 0.75):
        y_emp = float(np.quantile(ys, q))
        assert cdf(y_emp) == pytest.approx(q, abs=0.02)


def _reference_strip_sample(strip, u_y, u_branch, u_x):
    """One point of DomainStrip.sample, in scalar Python floats."""
    lo, hi = strip.interval
    L = hi - lo
    if strip.kind == "fan":
        m_log = math.log(strip.y_hi / strip.y_lo)
        m_inv = L / strip.y_lo - L / strip.y_hi
        if u_branch * (m_log + m_inv) < m_log:
            y = strip.y_lo * (strip.y_hi / strip.y_lo) ** u_y
        else:
            y = 1.0 / (1.0 / strip.y_lo
                       - u_y * (1.0 / strip.y_lo - 1.0 / strip.y_hi))
        return (lo - 0.5 * y) + u_x * (y + L), y
    y = strip.y_lo / u_y if u_y > 0 else math.inf
    if u_branch < 0.5:
        return (lo - 0.5 * y) + u_x * L, y
    return (lo + 0.5 * y) + u_x * L, y


@pytest.mark.parametrize("strip", [
    sampling_domain((0.3, 1.1), 0.8 * 2.0 ** -10)[0],
    refinement_strip((0.3, 1.1), 0.4, 0.2),
    sampling_domain((0.3, 1.1), 0.8 * 2.0 ** -10)[1],
    sampling_domain((0.3, 1.1), 1.7)[0],
], ids=["fan", "refinement-fan", "flank", "flank-above-L"])
def test_strip_sample_matches_scalar_formula_bitwise(strip):
    u = np.random.default_rng(99).random((100_000, 3))
    u[:50, 0] = 0.0
    u[50:100, 1] = 0.5
    x, y = strip.sample(u[:, 0], u[:, 1], u[:, 2])
    ref = np.array([_reference_strip_sample(strip, *map(float, row))
                    for row in u])
    np.testing.assert_array_equal(x.view(np.int64), ref[:, 0].view(np.int64))
    np.testing.assert_array_equal(y.view(np.int64), ref[:, 1].view(np.int64))
    if strip.kind == "fan":
        lo, hi = strip.interval
        m_log = math.log(strip.y_hi / strip.y_lo)
        m_inv = (hi - lo) / strip.y_lo - (hi - lo) / strip.y_hi
        n_log = int(np.sum(u[:, 1] * (m_log + m_inv) < m_log))
        assert 500 < n_log < u.shape[0] - 500    # both branches are hit
    else:
        assert np.isinf(y[:50]).all() and np.isfinite(y[50:]).all()


def test_refinement_strip_is_the_missing_band():
    I = (0.0, 1.0)
    strip = refinement_strip(I, 0.25, 0.125)
    assert strip.kind == "fan" and strip.y_lo == 0.125 and strip.y_hi == 0.25
    assert domain_mass(I, 0.125) == pytest.approx(
        domain_mass(I, 0.25) + strip.mass(), abs=1e-12)
    with pytest.raises(ValueError):
        refinement_strip(I, 0.125, 0.25)


def test_region_area_rejects_infinite_regions():
    with pytest.raises(ValueError):
        region_area(PointCone(0.0, 0.0))
    with pytest.raises(ValueError):
        region_area(PointCone(0.0, 1.0) & PointCone(0.1, 1.0))


@dataclass(frozen=True)
class _Parabola(Region):
    """A region of width y^2 below height 1, a width no cone combination
    has: it is not linear between kinks."""

    def cross_section(self, y):
        return [(0.0, y * y)] if y < 1.0 else []

    def x_marks(self):
        return (0.0, 0.5)


def test_region_area_rejects_a_nonlinear_piece():
    with pytest.raises(ValueError, match="not linear on the piece"):
        region_area(_Parabola())


@given(shift=st.floats(-5.0, 5.0), scale=st.floats(0.1, 8.0))
@settings(max_examples=25, deadline=None)
def test_areas_are_dilation_and_translation_invariant(shift, scale):
    I = (0.0, 1.0)
    J = (shift, shift + scale)
    assert area_local_cone(J, 0.1 * scale) == pytest.approx(
        area_local_cone(I, 0.1), rel=1e-12)
    assert area_pair(J, shift + 0.2 * scale, shift + 0.7 * scale,
                     0.05 * scale) == pytest.approx(
        area_pair(I, 0.2, 0.7, 0.05), rel=1e-12)
    assert domain_mass(J, 0.25 * scale) == pytest.approx(
        domain_mass(I, 0.25), rel=1e-12)


@given(s=st.floats(0.01, 0.99), t=st.floats(0.01, 0.99),
       k=st.integers(2, 10))
@settings(max_examples=40, deadline=None)
def test_pair_area_symmetric_and_bounded(s, t, k):
    eps = 2.0 ** -k
    I = (0.0, 1.0)
    a = area_pair(I, s, t, eps)
    assert a == area_pair(I, t, s, eps)
    assert 0.0 <= a <= area_local_cone(I, eps) + 1e-12
    # shrinking the gap can only grow the overlap
    mid = 0.5 * (s + t)
    assert area_pair(I, mid, mid, eps) >= a - 1e-12
