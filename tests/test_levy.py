import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idcascade import levy
from idcascade._rng import make_generator
from idcascade.checks import normalization_defect
from idcascade.levy import (
    AtomicJumps,
    MomentDomainError,
    TabulatedJumps,
    ZeroJumps,
    build_model,
    diagnose,
    jump_drift,
    levy_exponent,
    lognormal_model,
    mean_slope,
    normalize_drift,
    nu_integral,
    single_atom_model,
    structure_derivatives,
    structure_function,
    tail_index_root,
)

from pins import assert_pinned


def test_lognormal_exponent_closed_form():
    m = lognormal_model(0.8)
    for q in (0.0, 0.5, 1.0, 2.0, 3.7):
        assert levy_exponent(m, q) == pytest.approx(0.4 * q * (q - 1),
                                                    abs=1e-14)


def test_normalization_pins_zero_and_one():
    models = [
        lognormal_model(0.5),
        single_atom_model(-math.log(2), 1.0),
        single_atom_model(0.3, 0.7, sigma2=0.2),
        build_model(0.1, TabulatedJumps((-2.0, -0.5, 0.5),
                                        (0.3, 1.0, 0.1), 2.0, 4.0)),
    ]
    for m in models:
        assert normalization_defect(m) < 1e-12


def test_single_atom_exponent_values():
    # atom at -log 2 with unit rate: psi(-iq) = 2^-q - 1 + q/2
    m = single_atom_model(-math.log(2), 1.0)
    for q in (0.5, 2.0, 3.0, 4.0):
        assert levy_exponent(m, q) == pytest.approx(2.0 ** -q - 1 + q / 2,
                                                    rel=1e-13)
    assert m.drift == pytest.approx(0.5 - math.log(2), abs=1e-14)
    assert jump_drift(m.nu) == pytest.approx(0.5, abs=1e-14)


def test_structure_function_and_tail_root():
    # sigma2 = 1: phi(q) = (q-1)(q-2)/2, root at 2
    m = lognormal_model(1.0)
    assert structure_function(m, 3.0) == pytest.approx(1.0, abs=1e-12)
    assert tail_index_root(m) == pytest.approx(2.0, abs=1e-10)
    # sigma2 = 0.5: root at 4
    assert tail_index_root(lognormal_model(0.5)) == pytest.approx(4.0,
                                                                  abs=1e-10)


def _brentq_tail_index(model):
    """The tail index by bracketing: the scan of tail_index_root, then
    scipy's brentq between its last two points."""
    from scipy.optimize import brentq
    if mean_slope(model) >= 0:
        return None
    hi_q = model.moment_q_range[1]
    q_cap = (min(levy.TAIL_INDEX_CAP, hi_q - 1e-9 - 1e-6 * min(hi_q, 1.0))
             if math.isfinite(hi_q) else levy.TAIL_INDEX_CAP)
    prev, k = 1.0, -10
    while True:
        q = min(1.0 + 2.0 ** k, q_cap)
        if structure_function(model, q) > 0.0:
            return brentq(lambda t: structure_function(model, t), prev, q,
                          xtol=1e-14, rtol=1e-14)
        if q >= q_cap:
            return None
        prev, k = q, k + 1


def _random_jump_model(rng):
    """An atom, tabulated or hybrid (atoms and a Gaussian part) model."""
    style = int(rng.integers(0, 3))
    sigma2 = float(rng.uniform(0.01, 0.8)) if style == 2 else 0.0
    if style != 1:
        k = int(rng.integers(1, 4))
        locs = tuple(float(x) if abs(x) > 1e-3 else -0.5
                     for x in rng.uniform(-2.0, 0.8, size=k))
        masses = tuple(float(m) for m in rng.uniform(0.1, 1.5, size=k))
        return build_model(sigma2, AtomicJumps(locs, masses))
    x = np.linspace(float(rng.uniform(-2.5, -1.0)),
                    float(rng.uniform(0.3, 0.9)), 6)
    dens = tuple(float(d) for d in rng.uniform(0.1, 1.0, size=6))
    return build_model(float(rng.uniform(0.0, 0.5)), TabulatedJumps(
        tuple(float(v) for v in x), dens,
        left_rate=float(rng.uniform(0.8, 2.5)),
        right_rate=float(rng.uniform(1.02, 4.0))))


def test_tail_index_newton_steps_match_brentq():
    rng = make_generator(2026, 0, "tail-index-models")
    roots = 0
    for _ in range(60):
        model = _random_jump_model(rng)
        got, want = tail_index_root(model), _brentq_tail_index(model)
        assert (got is None) == (want is None), model
        if got is not None:
            roots += 1
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), model
    assert roots >= 20


def test_mean_slope_sign_decides_degeneracy():
    assert mean_slope(lognormal_model(0.5)) < 0
    assert mean_slope(lognormal_model(2.5)) > 0
    assert diagnose(lognormal_model(0.5)).nondegenerate
    assert not diagnose(lognormal_model(2.5)).nondegenerate


def test_structure_derivatives_match_finite_differences():
    m = build_model(0.3, AtomicJumps((-1.0, 0.4), (0.6, 0.2)))
    q = 1.3
    h = 1e-5
    d1_fd = (structure_function(m, q + h) - structure_function(m, q - h)) / (2 * h)
    d1, d2 = structure_derivatives(m, q)
    assert d1 == pytest.approx(d1_fd, rel=1e-7)
    assert d2 > 0  # convexity


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0 - 1e-5])
def test_tabulated_structure_derivatives_match_central_differences(q):
    # the right rate declares the moment domain (-2, 3); the density ends
    # at 0 on the grid, so the structure function stays smooth up to the
    # edge, where the last q sits closer than a five-point stencil reaches
    m = build_model(0.1, TabulatedJumps((-1.5, -0.2, 0.5), (0.4, 1.0, 0.0),
                                        2.0, 3.0))
    h = min(1e-4, (3.0 - q) / 4)
    lo, mid, hi = (structure_function(m, q + k * h) for k in (-1, 0, 1))
    d1, d2 = structure_derivatives(m, q)
    assert d1 == pytest.approx((hi - lo) / (2 * h), rel=1e-7)
    assert d2 == pytest.approx((hi - 2 * mid + lo) / h ** 2, rel=1e-3)
    with pytest.raises(MomentDomainError):
        structure_derivatives(m, 3.0)


def test_tabulated_total_mass_is_closed_form():
    from scipy import integrate
    nu = TabulatedJumps((-1.0, -0.3, 0.0, 0.5), (1.0, 0.2, 2.0, 0.4),
                        2.0, 3.0)
    x, d = np.array(nu.grid_x), np.array(nu.grid_density)
    want = integrate.quad(lambda t: np.interp(t, x, d), x[0], x[-1],
                          points=x[1:-1], epsabs=0, epsrel=1e-13)[0]
    want += integrate.quad(lambda t: d[0] * math.exp(2.0 * (t - x[0])),
                           -np.inf, x[0], epsabs=0, epsrel=1e-13)[0]
    want += integrate.quad(lambda t: d[-1] * math.exp(-3.0 * (t - x[-1])),
                           x[-1], np.inf, epsabs=0, epsrel=1e-13)[0]
    assert nu.total_mass() == pytest.approx(want, rel=1e-12, abs=0)
    assert nu.total_mass() == pytest.approx(1.0 / 2 + 0.4 / 3 + 0.6 * 0.7
                                            + 0.3 * 1.1 + 0.5 * 1.2)


def test_atomic_total_mass_is_pinned():
    # masses 0.1 ... 0.9: the total Poisson rate the jump draws use
    nu = AtomicJumps((-1.2, -0.9, -0.6, -0.3, -0.1, 0.1, 0.3, 0.5, 0.8),
                     (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9))
    assert_pinned("jumps/nine-atoms/total-mass", [nu.total_mass()])


@pytest.mark.parametrize("model", [
    single_atom_model(-math.log(2), 1.0),
    build_model(0.3, AtomicJumps((-1.0, 0.4, 1.7), (0.6, 0.2, 0.05))),
    build_model(0.1, TabulatedJumps((-2.0, -0.5, 0.5), (0.3, 1.0, 0.1),
                                    2.0, 4.0))])
def test_growth_constant_is_jump_drift(model):
    assert diagnose(model).growth_constant.hex() == \
        jump_drift(model.nu).hex()


def test_moment_interval_tabulated_tails():
    nu = TabulatedJumps((-1.0, 1.0), (1.0, 1.0), 3.0, 5.0)
    lo, hi = nu.moment_interval()
    assert lo == pytest.approx(-3.0)
    assert hi == pytest.approx(5.0)
    # compact support: all exponential moments finite
    lo, hi = AtomicJumps((-0.2,), (1.0,)).moment_interval()
    assert lo == -math.inf and hi == math.inf


def test_levy_exponent_outside_domain_raises():
    m = build_model(0.0, TabulatedJumps((-1.0, 1.0), (1.0, 1.0), 3.0, 2.5))
    with pytest.raises(MomentDomainError):
        levy_exponent(m, 2.5)
    with pytest.raises(MomentDomainError):
        levy_exponent(m, -3.0)


def test_tabulated_integral_against_closed_form():
    # density 1 on [-1, 1] with exp tails of rate 2 (left) and 3 (right):
    # integral of e^x nu(dx) has three closed-form pieces; I_0(1) is it
    # less the total mass and the integral of x over [-1, 1], which is 0
    nu = TabulatedJumps((-1.0, 1.0), (1.0, 1.0), 2.0, 3.0)
    got = nu.integral(0, 1.0)
    middle = math.e - math.exp(-1)
    left = math.exp(-1) / 3.0         # int_{-inf}^{-1} e^x e^{2(x+1)} dx
    right = math.e / 2.0              # int_1^inf e^x e^{-3(x-1)} dx
    assert nu.total_mass() == pytest.approx(2.0 + 1 / 2 + 1 / 3, rel=1e-15)
    assert got == pytest.approx(middle + left + right - nu.total_mass(),
                                rel=1e-13)


def _exponential_moment(nu, q):
    """integral e^(qx) nu(dx) in closed form: e^(qt) ((d + s (t - a)) / q
    - s / q^2) between the ends of each bin [a, c] of density d rising
    with slope s, and d e^(qy) / (rate -+ q) on a tail from its end y."""
    x, d = np.array(nu.grid_x), np.array(nu.grid_density)
    total = d[0] * math.exp(q * x[0]) / (nu.left_rate + q)
    total += d[-1] * math.exp(q * x[-1]) / (nu.right_rate - q)
    for a, c, da, dc in zip(x, x[1:], d, d[1:]):
        s = (dc - da) / (c - a)
        total += (math.exp(q * c) * ((dc / q) - s / q ** 2)
                  - math.exp(q * a) * ((da / q) - s / q ** 2))
    return total


def _inner_first_moment(nu):
    """integral over [-1, 1] of x nu(dx) in closed form, for a grid inside
    [-1, 1] whose tails run past it: (c^2 - a^2)(d - s a) / 2 + s (c^3 -
    a^3) / 3 on each bin, and -d e^(-rate |t - y|) (t / rate -+ 1 /
    rate^2) between a tail's end y and its cut t."""
    x, d = np.array(nu.grid_x), np.array(nu.grid_density)
    total = 0.0
    for a, c, da, dc in zip(x, x[1:], d, d[1:]):
        s = (dc - da) / (c - a)
        total += (c * c - a * a) * (da - s * a) / 2 + s * (c ** 3 - a ** 3) / 3
    for rate, y, dy, t, sign in ((nu.left_rate, x[0], d[0], -1.0, -1.0),
                                 (nu.right_rate, x[-1], d[-1], 1.0, 1.0)):
        def f(z):  # the antiderivative of x d e^(-rate |x - y|) at z
            return -sign * dy * math.exp(-rate * abs(z - y)) * (
                z / rate + sign / rate ** 2)
        total += sign * (f(t) - f(y))
    return total


@pytest.mark.parametrize("q", [-1.5, 0.5, 2.5])
def test_tabulated_exponential_moments_against_closed_form(q):
    # the linear bins rise and fall, the tails decay at rates 2 and 3,
    # so at q = -1.5 and 2.5 a tail's net decay is 1/2; I_0(q) is the
    # exponential moment less the total mass and q times the integral of
    # x over [-1, 1]
    nu = TabulatedJumps((-1.0, 0.0, 0.5), (1.0, 2.0, 0.4), 2.0, 3.0)
    want = (_exponential_moment(nu, q) - nu.total_mass()
            - q * _inner_first_moment(nu))
    assert nu.integral(0, q) == pytest.approx(want, rel=1e-13, abs=0)


def test_a_too_coarse_tabulated_rule_warns(monkeypatch):
    # two and three Gauss-Legendre nodes per piece disagree far above the
    # bound on I_0(2.5); the default rules meet it (the test above)
    nu = TabulatedJumps((-1.0, 0.0, 0.5), (1.0, 2.0, 0.4), 2.0, 3.0)
    monkeypatch.setattr(levy, "_RULE_NODES", (2, 3))
    with pytest.warns(RuntimeWarning, match="tabulated jump integral"):
        nu.integral(0, 2.5)


def test_near_edge_tail_drift_matches_closed_form():
    # density 1 on [-1, 1], tails of rates 2 and 1.02: the compensated
    # integral of e^x - 1 - x [|x| <= 1] is (2 sinh 1 - 2) on the grid,
    # e^-1 / 3 - 1/2 on the left tail and e / 0.02 - 1 / 1.02 on the right
    nu = TabulatedJumps((-1.0, 1.0), (1.0, 1.0), 2.0, 1.02)
    want = -((2 * math.sinh(1.0) - 2.0) + (math.exp(-1.0) / 3 - 0.5)
             + (math.e / 0.02 - 1 / 1.02))
    assert want == pytest.approx(-134.90672813376761, rel=1e-15)
    assert normalize_drift(0.0, nu) == pytest.approx(want, rel=1e-14)


def _mp_integral(nu, k, q):
    """I_k(q) of a tabulated measure to 30 digits: mpmath quadrature of the
    integrand on the bins and on tail pieces inside x = -1, 1, and on each
    tail beyond them in y = g |x - s0| (g its net decay, s0 its start),
    where the density times e^(qx) is a constant times e^(-y)."""
    mpf, exp, quad = mpmath.mpf, mpmath.exp, mpmath.quad
    q, x, d = mpf(q), [mpf(v) for v in nu.grid_x], nu.grid_density
    rates = ((nu.left_rate, x[0], d[0], -1), (nu.right_rate, x[-1], d[-1], 1))

    def density(t):
        for rate, end, d_e, sign in rates:
            if sign * (t - end) > 0:
                return d_e * exp(-rate * abs(t - end))
        return next(da + (dc - da) * (t - a) / (c - a) for a, c, da, dc
                    in zip(x, x[1:], d, d[1:]) if a <= t <= c)

    def integrand(t):
        e, inner = exp(q * t), abs(t) <= 1
        return density(t) * (e - 1 - q * t * inner, t * (e - inner),
                             t * t * e)[k]

    lo = min(x[0], -1) if nu.left_rate else x[0]
    hi = max(x[-1], 1) if nu.right_rate else x[-1]
    edges = sorted({min(max(p, lo), hi) for p in x + [mpf(-1), mpf(1)]})
    with mpmath.workdps(30):
        total = sum(quad(integrand, [a, c]) for a, c in zip(edges, edges[1:]))
        for rate, end, d_e, sign in rates:
            if rate:
                s0, g = (lo, rate + q) if sign < 0 else (hi, rate - q)
                c = d_e * exp(-rate * abs(s0 - end))
                total += c * exp(q * s0) / g * quad(
                    lambda y: (s0 + sign * y / g) ** k * exp(-y),
                    [0, mpmath.inf])
                total -= c / rate if k == 0 else 0
        return total


# A left tail only (its piece [-1, -0.8] inside the cut, and the grid
# across x = 1), a right tail only (its piece [0.5, 1] inside the cut) and
# two tails that start past the cuts
TAILED = {
    "left": TabulatedJumps((-0.8, 0.3, 1.4), (0.6, 1.0, 0.5), 2.0, None),
    "right": TabulatedJumps((-1.5, -0.2, 0.5), (0.4, 1.0, 0.3), None, 3.0),
    "both": TabulatedJumps((-1.2, 0.0, 1.3), (0.5, 1.0, 0.2), 1.5, 2.5),
}
# relative tolerance of I_0, I_1 and I_2 at each q, each below the worst
# error of the three measures' integrals there when the tails were stepped
# outward and I_0 took exp(qx) - 1 (1e-6 and 1e-3 inside a finite rate:
# 0.6 to 1; at q = -1e-6, 1e-6: 1.2e-10, 2.8e-11; -1e-3, 1e-3: 3.9e-13,
# 2.2e-13; at -1, 0.5, 1, 2: 4.7e-16, 6.6e-15, 1.1e-15, 6.0e-16).  At small
# q the left-tailed measure's integrals of x beyond the cuts nearly cancel,
# which costs it a digit
TOLERANCE = {"edge": 4e-16, -1.0: 4e-16, -1e-3: 1e-14, -1e-6: 1e-14,
             1e-6: 1e-14, 1e-3: 1e-15, 0.5: 1e-15, 1.0: 1e-15, 2.0: 4e-16}


def _tailed_cases():
    for name, nu in TAILED.items():
        lo, hi = nu.moment_interval()
        edge = [lo + 1e-6, lo + 1e-3] if math.isfinite(lo) else []
        edge += [hi - 1e-3, hi - 1e-6] if math.isfinite(hi) else []
        yield from ((name, q, TOLERANCE["edge"]) for q in edge)
        yield from ((name, q, tol) for q, tol in TOLERANCE.items()
                    if q != "edge" and lo < q < hi)


@pytest.mark.parametrize("name,q,tol", list(_tailed_cases()))
def test_tabulated_integrals_against_mpmath(name, q, tol):
    nu = TAILED[name]
    for k in range(3):
        want = _mp_integral(nu, k, q)
        got = nu_integral(nu, k, q)
        assert abs((got - want) / want) <= tol, (k, got, want)


def test_tabulated_tail_survives_fast_growing_weight():
    # regression: the weighted tail used to overflow before damping applied
    nu = TabulatedJumps((-1.5, 0.4), (0.5, 0.2), None, 3.0)
    m = build_model(0.3, nu)
    assert abs(levy_exponent(m, 1.0)) < 1e-12
    assert levy_exponent(m, 2.0) > 0


def test_build_model_rejects_flat_noise():
    with pytest.raises(ValueError):
        build_model(0.0, ZeroJumps())
    with pytest.raises(ValueError):
        build_model(-0.1)


def test_atomic_validation():
    with pytest.raises(ValueError):
        AtomicJumps((0.1, 0.2), (1.0,))
    with pytest.raises(ValueError):
        AtomicJumps((0.1,), (-1.0,))
    with pytest.raises(ValueError):
        TabulatedJumps((0.0, -1.0), (1.0, 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_are_rejected(bad):
    with pytest.raises(ValueError, match="sigma2 must be finite"):
        build_model(bad)
    for locations, masses in (((bad,), (1.0,)), ((-0.5,), (bad,))):
        with pytest.raises(ValueError, match="finite"):
            AtomicJumps(locations, masses)
    for x, d, rates in (((-1.0, bad), (1.0, 1.0), ()),
                        ((-1.0, 0.5), (bad, 1.0), ()),
                        ((-1.0, 0.5), (1.0, 1.0), (bad,)),
                        ((-1.0, 0.5), (1.0, 1.0), (2.0, bad))):
        with pytest.raises(ValueError, match="finite"):
            TabulatedJumps(x, d, *rates)


def test_diagnose_atom_model_report():
    rep = diagnose(single_atom_model(-math.log(2), 1.0))
    assert rep.nondegenerate
    assert rep.all_moments_finite
    assert rep.tail_index is None
    assert rep.growth_constant == pytest.approx(0.5)
    assert rep.arithmetic_support
    payload = rep.to_json()
    assert "growth_constant" in payload


@pytest.mark.parametrize("locations, lattice", [
    ((-math.log(2),), True),
    ((-math.log(2), -2 * math.log(2)), True),
    ((0.1, 0.3), True),
    ((-math.log(2), -math.log(3)), False),
    ((-1.0, -math.sqrt(2)), False),
    ((1.0, 1e-12), False),
    ((1e-12, 1.0), False),
], ids=["one-atom", "log2-2log2", "tenths", "log2-log3", "1-sqrt2",
        "1-1e-12", "1e-12-1"])
def test_arithmetic_means_integer_multiples_of_one_spacing(locations,
                                                           lattice):
    # every atom m*h for one h and integers 0 < |m| <= 10**6, to 1e-9*h
    nu = AtomicJumps(locations, (1.0,) * len(locations))
    assert nu.arithmetic() is lattice


def test_array_valued_measures_hash_and_diagnose():
    tab = TabulatedJumps(np.array([-1.0, 0.0, 0.5]), np.array([1.0, 2.0, 0.4]),
                         2.0, 3.0)
    ref = TabulatedJumps((-1.0, 0.0, 0.5), (1.0, 2.0, 0.4), 2.0, 3.0)
    atoms = AtomicJumps(np.array([-0.5, 0.3]), [1.0, 0.5])
    assert tab == ref and hash(tab) == hash(ref)
    assert atoms == AtomicJumps((-0.5, 0.3), (1.0, 0.5))
    for nu, same in ((tab, ref), (atoms, AtomicJumps((-0.5, 0.3), (1.0, 0.5)))):
        rep = diagnose(build_model(0.1, nu))
        assert rep.to_json() == diagnose(build_model(0.1, same)).to_json()


def test_diagnose_critical_tail_constant():
    rep = diagnose(lognormal_model(1.0))
    assert rep.tail_index == pytest.approx(2.0, abs=1e-9)
    # d = 1 / phi'(2); sigma2=1 gives phi'(2) = 1/2
    assert rep.tail_constant_at_two == pytest.approx(2.0, rel=1e-8)


@given(sigma2=st.floats(0.01, 1.9))
@settings(max_examples=30, deadline=None)
def test_lognormal_structure_is_convex_with_unit_values(sigma2):
    m = lognormal_model(sigma2)
    phi0 = structure_function(m, 0.0)
    phi1 = structure_function(m, 1.0)
    assert phi0 == pytest.approx(1.0, abs=1e-12)
    assert abs(phi1) < 1e-12
    qs = np.linspace(-0.5, 3.0, 12)
    vals = [structure_function(m, q) for q in qs]
    mids = [structure_function(m, 0.5 * (a + b)) for a, b in zip(qs, qs[2:])]
    for lo, mid, hi in zip(vals, mids, vals[2:]):
        assert mid <= 0.5 * (lo + hi) + 1e-12


@given(loc=st.floats(-2.0, -0.05), mass=st.floats(0.05, 2.0))
@settings(max_examples=25, deadline=None)
def test_negative_atoms_keep_all_moments_finite(loc, mass):
    m = single_atom_model(loc, mass)
    lo, hi = m.moment_q_range
    assert hi == math.inf
    assert m.nu.total_mass() == pytest.approx(mass)
    # growth constant gamma = mass * (1 - e^loc) > 0
    assert jump_drift(m.nu) == pytest.approx(mass * (1 - math.exp(loc)),
                                             rel=1e-12)


@pytest.mark.parametrize("nu", [
    AtomicJumps((-0.7,), (1.0,)),
    AtomicJumps((-1.2, -0.9, -0.6, -0.3, -0.1, 0.1, 0.3, 0.5, 0.8),
                (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)),
    TabulatedJumps((-1.0, 0.0, 0.5), (1.0, 2.0, 0.4), 2.0, 3.0),
], ids=["one-atom", "nine-atoms", "tabulated"])
def test_jump_tables_pick_what_searchsorted_picks(nu):
    # a jump draw looks its atom or piece up by counting comparisons with
    # the small cumulative table; below the table's last entry, which is
    # 1 up to rounding, that is np.searchsorted's index, ties included
    cum = nu._cum
    u = np.concatenate([np.random.default_rng(3).random(20_000),
                        cum[:-1], np.nextafter(cum[:-1], 2.0), [0.0]])
    u = u[u < cum[-1]]
    np.testing.assert_array_equal(levy._table_index(cum, u),
                                  np.searchsorted(cum, u))
    # a uniform above a last entry that rounds below 1 picks the last
    # entry instead of running off the table
    short = np.array([0.25, 1.0 - 2.0 ** -52])
    assert levy._table_index(short, np.array([1.0 - 2.0 ** -53])) == [1]
    rows = nu.uniforms(np.random.default_rng(4), 50)
    assert rows.shape == (nu.uniform_rows, 50)
    if isinstance(nu, AtomicJumps):
        np.testing.assert_array_equal(
            nu.from_uniforms(rows), nu._x[np.searchsorted(cum, rows[0])])


def test_zero_jumps_have_no_uniforms():
    with pytest.raises(ValueError, match="no jumps to draw"):
        ZeroJumps().uniforms(np.random.default_rng(0), 3)


def test_tabulated_draws_are_uniform_on_a_flat_bin():
    # mass 1 on the flat bin [-1, 0] and 1/4 on the bin [0, 0.5] where
    # the density falls from 1 to 0: 4/5 of the draws land on the flat
    # bin, uniformly, so with mean -1/2 there
    nu = TabulatedJumps((-1.0, 0.0, 0.5), (1.0, 1.0, 0.0))
    n = 20_000
    x = nu.from_uniforms(nu.uniforms(np.random.default_rng(5), n))
    flat = x[x <= 0.0]
    assert x.min() >= -1.0 and x.max() <= 0.5
    assert abs(flat.size / n - 0.8) < 4 * math.sqrt(0.8 * 0.2 / n)
    assert abs(flat.mean() + 0.5) < 4 * math.sqrt(1 / 12 / flat.size)


def test_tabulated_support_sign_reads_the_ramp_into_x_above_0():
    # the bin [0, 1] falls from density 1 at x = 0 to 0 at x = 1: it
    # charges x > 0, so positive moments end at the tail index
    ramp = TabulatedJumps((-1.0, 0.0, 1.0), (1.0, 1.0, 0.0))
    assert not ramp.support_nonpositive()
    rep = diagnose(build_model(0.0, ramp))
    assert not rep.all_moments_finite
    assert rep.moment_region_sup == rep.tail_index == pytest.approx(
        4.4585, abs=1e-4)
    # density 0 at both ends of every bin ending above 0 charges none
    nonpositive = TabulatedJumps((-1.0, 0.0, 1.0), (1.0, 0.0, 0.0))
    assert nonpositive.support_nonpositive()
    rep = diagnose(build_model(0.0, nonpositive))
    assert rep.all_moments_finite and rep.moment_region_sup == math.inf
    # a declared right tail counts whatever its density
    assert not TabulatedJumps((-1.0, 0.0, 1.0), (1.0, 0.0, 0.0),
                              right_rate=2.0).support_nonpositive()
