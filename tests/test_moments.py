import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from idcascade import moments
from idcascade.levy import (MomentDomainError, diagnose, levy_exponent,
                            lognormal_model, single_atom_model)
from idcascade.moments import (covariance_report, estimate_moment,
                               exact_joint_moment, growth_ratio_probe,
                               hill_tail_report, implicit_renewal_constant,
                               juxtaposed_covariance_series,
                               juxtaposed_pair_moment, ks_two_sample, median,
                               moment_pair_exponent, scaling_exponent,
                               scaling_fit, selberg_moment)

LOGN = lognormal_model(0.5)
ATOM = single_atom_model(-math.log(2.0), 1.0)


_DRAWS = np.random.default_rng(11).standard_normal(9)


@pytest.mark.parametrize("values", [
    _DRAWS, _DRAWS[:8], [2.0, 1.0, 2.0, 1.0, 3.0], [3.0, 1.0, 3.0, 1.0],
    [1.0, math.inf, -2.0], [math.inf, -math.inf], [-math.inf, -math.inf],
    [math.inf, 5.0, -math.inf, 2.0], [1.0, math.nan, 2.0],
    [math.nan, math.inf], [1.7e308, 1.6e308], [4.5]],
    ids=["odd", "even", "odd-tied", "even-tied", "inf-odd", "inf-pair",
         "inf-tied", "inf-even", "nan", "nan-inf", "overflow", "one"])
def test_median_is_numpys_bit_for_bit(values):
    # the middle two of an even count are averaged as numpy's mean does
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.median(values)
    got = median(values)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_pair_exponent_lognormal_is_flat_sigma2():
    # second difference of (sigma2/2) q(q-1) is sigma2 at every distance
    for d in (1, 2, 5):
        assert moment_pair_exponent(LOGN, d, 0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        moment_pair_exponent(LOGN, 3, 3)


def moment_pair_exponent_jump_form(model, j, k):
    """The pair exponent along the jump route, for pure-jump models only:
    integral exp((d-1) x) (1 - exp(x))^2 nu(dx)."""
    if model.sigma2 != 0.0:
        raise ValueError("jump-form route is only valid when sigma2 = 0")
    d = abs(int(j) - int(k))
    if d == 0:
        raise ValueError("pair exponent needs two distinct ranks")
    return sum(m * math.exp((d - 1) * x) * (1.0 - math.exp(x)) ** 2
               for x, m in zip(model.nu.locations, model.nu.masses))


def test_pair_exponent_two_routes_agree_for_jumps():
    for d in (1, 2, 3, 4):
        a = moment_pair_exponent(ATOM, d, 0)
        b = moment_pair_exponent_jump_form(ATOM, d, 0)
        assert a == pytest.approx(b, rel=1e-13)
        assert a == pytest.approx(2.0 ** (-d - 1), rel=1e-13)
    with pytest.raises(ValueError):
        moment_pair_exponent_jump_form(LOGN, 1, 0)


def test_scaling_exponent_table():
    want = {0.5: 0.5625, 1.0: 1.0, 1.5: 1.3125, 2.0: 1.5}
    for q, v in want.items():
        assert scaling_exponent(LOGN, q) == pytest.approx(v, abs=1e-13)


def test_exact_joint_moment_first_and_second():
    assert exact_joint_moment(LOGN, [((0.0, 1.0), 1)]).value == 1.0
    # closed form 2 / ((1 - a)(2 - a)) with a the adjacent-gap exponent
    r = exact_joint_moment(LOGN, [((0.0, 1.0), 2)])
    assert r.value == pytest.approx(8.0 / 3.0, rel=1e-6)
    assert r.error < 1e-5
    r = exact_joint_moment(ATOM, [((0.0, 1.0), 2)])
    assert r.value == pytest.approx(32.0 / 21.0, rel=1e-6)


def test_exact_joint_moment_critical_halves():
    # E mass[0,1/2] mass[1/2,1] at the critical variance is exactly log 2
    r = exact_joint_moment(lognormal_model(1.0),
                           [((0.0, 0.5), 1), ((0.5, 1.0), 1)])
    assert r.value == pytest.approx(math.log(2.0), rel=2e-4)


def test_exact_joint_moment_domain_and_validation():
    with pytest.raises(MomentDomainError):
        exact_joint_moment(lognormal_model(1.0), [((0.0, 1.0), 2)])
    with pytest.raises(ValueError):
        exact_joint_moment(LOGN, [((0.0, 1.0), 5)])
    with pytest.raises(ValueError):
        exact_joint_moment(LOGN, [((0.0, 0.6), 1), ((0.4, 1.0), 1)])
    with pytest.raises(ValueError):
        exact_joint_moment(LOGN, [((0.0, 0.5), 1.5)])
    with pytest.raises(ValueError):
        exact_joint_moment(LOGN, [((0.0, 2.0), 1)])


@pytest.mark.parametrize("blocks", [[((0.0, 1.0), 3)],
                                    [((0.0, 0.5), 2), ((0.5, 1.0), 2)]],
                         ids=["degree-3", "degree-4"])
def test_exact_joint_moment_memory_is_bounded(blocks):
    tracemalloc.start()
    try:
        exact_joint_moment(LOGN, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a chunk's grid holds at most field.BLOCK_VALUES values, or one outer
    # node's 56^3 at degree 4, and a few temporaries of it: about 2.5 and
    # 8 MB, where the whole grid held 129 and 186 MB
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("n", [320, 220, 150, 104, 56, 40, 20, 8])
def test_gauss_legendre_rule_matches_leggauss(n):
    # every node count of exact_joint_moment and juxtaposed_pair_moment
    u, w = moments._unit_gauss(n)
    x, wx = leggauss(n)
    assert np.max(np.abs(u - 0.5 * (x + 1.0))) <= 1e-15
    # leggauss's own weights are off by up to 2e-10 at n = 320
    assert np.max(np.abs(w / (0.5 * wx) - 1.0)) <= 1e-9
    if n <= 56:
        for k in range(2 * n):
            assert w @ u ** k == pytest.approx(1.0 / (k + 1), rel=1e-13)
    assert moments._unit_gauss(n)[0] is u
    with pytest.raises(ValueError):
        u[0] = 0.5
    with pytest.raises(ValueError):
        w[0] = 0.5


def test_selberg_moment_closed_values():
    # sigma2 = 0.5: E Z^2 = 8/3 and E Z^3 = 8 pi; E Z^0 = E Z^1 = 1
    assert selberg_moment(0.5, 2) == pytest.approx(8.0 / 3.0, rel=1e-14)
    assert selberg_moment(0.5, 3) == pytest.approx(8.0 * math.pi, rel=1e-14)
    for sigma2 in (0.0, 0.3, 1.5):
        assert selberg_moment(sigma2, 0) == 1.0
        assert selberg_moment(sigma2, 1) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("sigma2,n", [(0.1, 2), (0.2, 2), (0.3, 2),
                                      (0.5, 2), (0.5, 3), (0.1, 4),
                                      (0.2, 4), (0.3, 4)])
def test_selberg_moment_matches_exact_joint_moment(sigma2, n):
    # within the quadrature's own two-resolution error estimate
    r = exact_joint_moment(lognormal_model(sigma2), [((0.0, 1.0), n)])
    assert abs(selberg_moment(sigma2, n) - r.value) <= r.error


def test_selberg_moment_domain():
    # the tail index is 2 / sigma2: 4 at sigma2 = 0.5, 2 at sigma2 = 1
    for sigma2, n in ((0.5, 4), (0.5, 5), (1.0, 2)):
        with pytest.raises(MomentDomainError):
            selberg_moment(sigma2, n)
    assert selberg_moment(1.0, 1) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        selberg_moment(0.5, -1)


@pytest.mark.parametrize("model", [ATOM, LOGN], ids=["atom", "lognormal"])
def test_juxtaposed_covariance_series_pins_the_pair_moment(model):
    # three terms in 1/gap leave a relative remainder of about 0.6 / gap^3
    for gap in (8, 16, 32, 64):
        cov = juxtaposed_pair_moment(model, gap)[0]
        assert juxtaposed_covariance_series(model, gap) == pytest.approx(
            cov, rel=gap ** -3.0)


def test_juxtaposed_pair_moment_frozen_oracle():
    # scipy.integrate.dblquad over the cross-overlap kernel, frozen:
    # gap * covariance for the -log 2 atom model at gaps 2, 4, 8
    frozen = {2: 0.0249819, 4: 0.0136116, 8: 0.0072416}
    for gap, want in frozen.items():
        cov, prod = juxtaposed_pair_moment(ATOM, gap)
        assert gap * cov == pytest.approx(want, rel=1e-4)
        assert prod == pytest.approx(1.0 + cov, rel=1e-12)


def _dblquad_pair_moment(model, gap):
    # reference rule: adaptive dblquad of the scalar cross-overlap area, cut
    # below at 1e-12, independent of cones.area_cross
    from scipy import integrate

    psi2 = levy_exponent(model, 2.0)
    I, J = (0.0, 1.0), (float(gap), float(gap) + 1.0)

    def f(r):
        c = max(1e-12, r)
        return math.log(c) + r / c

    def integrand(t, s):
        area = f(t - I[0]) + f(J[1] - s) - f(t - s) - f(J[1] - I[0])
        return math.expm1(psi2 * area)

    cov, _ = integrate.dblquad(integrand, I[0], I[1], J[0], J[1],
                               epsabs=1e-11, epsrel=1e-10)
    return cov


@pytest.mark.parametrize("model", [ATOM, LOGN, lognormal_model(1.0)],
                         ids=["atom", "lognormal-0.5", "lognormal-1"])
def test_juxtaposed_pair_moment_matches_dblquad(model):
    for gap in (1, 2, 3, 8):
        cov, prod = juxtaposed_pair_moment(model, gap)
        assert cov == pytest.approx(_dblquad_pair_moment(model, gap),
                                    rel=1e-10)
        assert prod == cov + 1.0


def test_juxtaposed_pair_moment_domain():
    # psi(2) = sigma2 = 2: the touching-corner integral diverges
    model = lognormal_model(2.0)
    with pytest.raises(MomentDomainError):
        juxtaposed_pair_moment(model, 1)
    assert juxtaposed_pair_moment(model, 2)[0] > 0.0
    with pytest.raises(ValueError):
        juxtaposed_pair_moment(LOGN, 0.5)


def test_estimate_moment_small_exact():
    e = estimate_moment([1.0, 2.0, 3.0, 4.0], 1.0, blocks=2)
    assert e.mean == pytest.approx(2.5)
    assert e.median_of_means == pytest.approx(2.5)  # median of 1.5, 3.5
    assert e.stderr == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2.0)
    assert e.heavy_tail is None
    e = estimate_moment([1.0, 2.0, 3.0, 4.0], 2.0, blocks=0, tail_index=2.5)
    assert e.median_of_means is None and e.blocks == 0
    assert e.heavy_tail is True
    assert estimate_moment([1.0] * 8, 1.0, tail_index=2.5).heavy_tail is False
    with pytest.raises(ValueError):
        estimate_moment([], 1.0)


def test_heavy_tail_flags_orders_without_a_finite_variance():
    # tail index 4 (lognormal sigma2 = 0.5): Z^2 has the tail index 2, so
    # E Z^4 is infinite and the plain mean of Z^2 has no finite variance
    z = [1.0, 2.0, 3.0, 4.0]
    assert estimate_moment(z, 2.0, tail_index=4.0).heavy_tail is True
    assert estimate_moment(z, 1.9, tail_index=4.0).heavy_tail is False


def test_hill_recovers_pareto_index():
    rng = np.random.default_rng(5)
    x = (1.0 - rng.uniform(size=200_000)) ** -0.5   # survival x^-2
    rep = hill_tail_report(x, tail_index_for_constant=2.0)
    assert rep.hill_selected == pytest.approx(2.0, abs=0.1)
    assert rep.hill_stderr < 0.1
    assert 0.8 < rep.tail_constant < 1.2
    assert all(rep.exceedances[f] == max(2, int(f * x.size))
               for f in rep.fractions)
    with pytest.raises(ValueError):
        hill_tail_report(x[:50])


def test_hill_rejects_a_fraction_without_an_order_statistic_below():
    x = np.random.default_rng(5).pareto(2.0, 200) + 1.0
    # 0.995 of 200 is a top count of 199, one below the sample size
    assert hill_tail_report(x, fractions=(0.5, 0.995)).exceedances == {
        0.5: 100, 0.995: 199}
    for bad in (1.0, 1.5, 0.0, -0.1):
        with pytest.raises(ValueError, match=f"fraction {bad!r} must lie"):
            hill_tail_report(x, fractions=(0.5, bad))


def test_ks_two_sample_floor_and_null():
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=6000), rng.normal(size=6000)
    stat, p = ks_two_sample(a, b)
    assert p > 0.01
    _, p_alt = ks_two_sample(a, b + 0.2)
    assert p_alt < 1e-6
    with pytest.raises(ValueError):
        ks_two_sample(a[:100], b)


def test_ks_two_sample_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(21)
    for shift in (0.0, 0.03, 0.06, 0.1, 0.2):
        a, b = rng.normal(size=5000), rng.normal(shift, size=5037)
        stat, p = ks_two_sample(a, b)
        ref = stats.ks_2samp(a, b, method="asymp")
        assert stat == ref.statistic
        # Stephens' corrected series against scipy's exact kstwo tail:
        # within 2% down to p = 1e-6, within 10% further out
        assert p == pytest.approx(ref.pvalue,
                                  rel=0.02 if ref.pvalue > 1e-6 else 0.1)
    # no gap at all: the series has not converged, and p is 1
    assert ks_two_sample(a, a) == (0.0, 1.0)


def test_covariance_report_independent_columns():
    rng = np.random.default_rng(3)
    m = np.exp(rng.normal(-0.125, 0.5, size=(4000, 4)))
    rep = covariance_report(LOGN, m)
    assert rep.gaps == (1, 2, 3)
    for est, err in zip(rep.estimate, rep.stderr):
        assert abs(est) < 4.0 * err
    for g, cl in zip(rep.gaps, rep.theory_claimed):
        assert cl == pytest.approx(2.0 * levy_exponent(LOGN, 2.0) / (3 * g))
    assert rep.theory_exact_quadrature == tuple(
        juxtaposed_pair_moment(LOGN, g)[0] for g in rep.gaps)
    assert rep.theory_series == tuple(
        juxtaposed_covariance_series(LOGN, g) for g in rep.gaps)
    assert [row[5] for row in rep.rows()] == list(rep.theory_series)
    with pytest.raises(ValueError):
        covariance_report(LOGN, m[:, :1])
    for gaps in ((0,), (1, 4), (5,)):
        with pytest.raises(ValueError, match=r"gaps must lie in 1\.\.3"):
            covariance_report(LOGN, m, gaps=gaps)


def test_covariance_report_exact_column_matches_quadrature():
    rng = np.random.default_rng(4)
    m = np.exp(rng.normal(-0.125, 0.5, size=(50, 3)))
    rep = covariance_report(ATOM, m, gaps=(2,))
    assert rep.theory_exact_quadrature[0] == pytest.approx(
        juxtaposed_pair_moment(ATOM, 2)[0], rel=1e-10)


@pytest.mark.parametrize("sigma2,value,error", [
    (1.0, 1.9999911, 9.9e-6), (2.0 / 3.0, 15.899426, 3.5e-4),
    (0.5, 109.97817, 0.023)], ids=["zeta-2", "zeta-3", "zeta-4"])
def test_implicit_renewal_constant_of_the_lognormal_cascade(sigma2, value,
                                                            error):
    model = lognormal_model(sigma2)
    d, err = implicit_renewal_constant(model)
    assert d == pytest.approx(value, abs=1e-6 * value)
    assert err == pytest.approx(error, rel=0.02)
    if sigma2 == 1.0:
        # at zeta = 2 the one mixed moment is E ab = log 2, and d is the
        # closed form 1 / s'(2)
        assert abs(d - diagnose(model).tail_constant_at_two) < 9e-6


def test_implicit_renewal_constant_needs_an_integer_tail_index():
    for model in (lognormal_model(0.6), lognormal_model(0.25),
                  lognormal_model(2.5), ATOM):
        with pytest.raises(ValueError, match="not within 1e-8 of 2, 3 or 4"):
            implicit_renewal_constant(model)


def test_scaling_fit_on_exact_power_law():
    lams = np.array([0.5, 0.25, 0.125])
    m = np.tile(lams, (64, 1))           # mass == lam exactly
    rep = scaling_fit(LOGN, lams, m, [0.5, 1.0, 2.0])
    assert rep.slopes == pytest.approx([0.5, 1.0, 2.0], abs=1e-12)
    assert rep.theory == pytest.approx([0.5625, 1.0, 1.5])
    assert rep.max_abs_error == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        scaling_fit(LOGN, lams, m[:, :2], [1.0])
    with pytest.raises(ValueError, match=r"\(replicas, len\(lams\)\)"):
        scaling_fit(LOGN, lams, m[0], [1.0])
    with pytest.raises(ValueError, match="at least two lams"):
        scaling_fit(LOGN, lams[:1], m[:, :1], [1.0])
    # two ratios but one distinct value: no slope to fit
    with pytest.raises(ValueError, match="at least two lams"):
        scaling_fit(LOGN, [0.5, 0.5], m[:, :2], [1.0])


def test_growth_probe_quadrature_orders():
    rep = growth_ratio_probe(ATOM, (2, 3, 4))
    assert rep.sources == ("quadrature",) * 3
    assert rep.ratios == pytest.approx((0.30384, 0.34458, 0.37183), abs=2e-5)
    assert rep.increasing
    assert rep.growth_constant == pytest.approx(0.5)
    assert rep.log_moments[0] == pytest.approx(math.log(32.0 / 21.0), rel=1e-6)


def test_growth_probe_mc_branch():
    rng = np.random.default_rng(11)
    z = np.exp(rng.normal(-0.02, 0.2, size=2000))
    rep = growth_ratio_probe(ATOM, (2, 5), mc_samples=z)
    assert rep.sources == ("quadrature", "monte-carlo")
    assert rep.log_moments[1] == pytest.approx(math.log(np.mean(z ** 5)))
    with pytest.raises(ValueError):
        growth_ratio_probe(ATOM, (2, 5))
    with pytest.raises(ValueError):
        growth_ratio_probe(ATOM, (1, 2), mc_samples=z)
