"""Characteristic equation: Hopf point, stability verdicts, rightmost roots.

Root-location oracles come from the Lambert-W representation of the
characteristic roots, evaluated independently before this suite was written
(see tests/_oracles.py).
"""
import cmath
import dataclasses
import math
import sys

import numpy as np
import pytest

from delaybif import (
    ComplexRoot,
    CubicBD,
    HopfPoint,
    InvalidSpec,
    NoConvergence,
    RootSearchRegion,
    TaylorCoefficients,
    char_value,
    critical_eta,
    is_locally_stable,
    lambert_roots,
    rightmost_roots,
    stability_verdict,
    sufficient_stable,
    tau_star,
    taylor_coefficients,
)

from delaybif.chareq import _lambert_w0, _lambert_wk, _lambert_wm1

from _oracles import (
    EX1_ALPHA_PRIME,
    EX1_ETA_C,
    EX1_OMEGA0,
    EX1_PERIOD,
    EX2_ALPHA_PRIME,
    EX2_ETA_C,
    EX2_OMEGA0,
    ROOT_A0_B1_TAU03,
    ROOT_EX1_ETA1,
    ROOT_EX2_ETA095,
    ROOT_UNSTABLE,
    ROOT_WRIGHT,
    lambertw_roots,
)


# --- Hopf point ------------------------------------------------------------

def test_hopf_point_first_set(ex1_coeffs):
    hopf = critical_eta(ex1_coeffs)
    assert hopf.eta_c == pytest.approx(EX1_ETA_C, rel=1e-12)
    assert hopf.omega0 == pytest.approx(EX1_OMEGA0, rel=1e-12)
    assert hopf.period == pytest.approx(EX1_PERIOD, rel=1e-12)
    assert hopf.alpha_prime == pytest.approx(EX1_ALPHA_PRIME, rel=1e-12)


def test_hopf_point_second_set(ex2_coeffs):
    hopf = critical_eta(ex2_coeffs)
    assert hopf.eta_c == pytest.approx(EX2_ETA_C, rel=1e-12)
    assert hopf.omega0 == pytest.approx(EX2_OMEGA0, rel=1e-12)
    assert hopf.alpha_prime == pytest.approx(EX2_ALPHA_PRIME, rel=1e-12)


def test_hopf_point_canonical_normalization():
    # a = 0, b = 1, tau = pi/2 puts the crossing exactly at eta_c = 1,
    # omega0 = 1, period 2*pi.
    c = TaylorCoefficients(xi_x=0.0, xi_y=-1.0, tau=0.5 * math.pi)
    hopf = critical_eta(c)
    assert hopf.eta_c == pytest.approx(1.0, abs=1e-14)
    assert hopf.omega0 == pytest.approx(1.0, abs=1e-14)
    assert hopf.period == pytest.approx(2.0 * math.pi, rel=1e-14)


def test_hopf_point_internal_consistency(ex1_coeffs, ex2_coeffs, wright_coeffs):
    for c in (ex1_coeffs, ex2_coeffs, wright_coeffs):
        hopf = critical_eta(c)
        s = math.sqrt(c.b ** 2 - c.a ** 2)
        assert hopf.omega0 == pytest.approx(hopf.eta_c * s, rel=1e-10)
        assert math.cos(hopf.omega0 * c.tau) == pytest.approx(
            -c.a / c.b, abs=1e-10)
        assert math.sin(hopf.omega0 * c.tau) > 0.0
        assert hopf.period * hopf.frequency == pytest.approx(1.0, rel=1e-12)
        assert hopf.alpha_prime > 0.0
        # i*omega0 is an exact characteristic root at eta = eta_c
        assert abs(char_value(c, hopf.eta_c, 1j * hopf.omega0)) < 1e-10


def test_hopf_point_rejects_degenerate_linearization():
    with pytest.raises(InvalidSpec):
        critical_eta(TaylorCoefficients(xi_x=0.0, xi_y=-1.0, tau=0.0))


def test_hopf_point_outside_float_range_is_invalid():
    # eta_c = (pi/2)/(tau*b) = 1.6e600 overflows
    with pytest.raises(InvalidSpec, match="float range"):
        critical_eta(TaylorCoefficients(xi_x=0.0, xi_y=-1e-300, tau=1e-300))


@pytest.mark.parametrize("coeffs, name", [
    # theta/(tau*s) is about 3.7e-324: eta_c came out as the one subnormal
    # step 5e-324, 33% off, where stability_verdict said "unstable"
    (TaylorCoefficients(xi_x=-2.3639950806725393e+227, xi_y=-3.724565895976643e+227,
                        tau=2.0272313340593294e+96), "eta_c = 5e-324"),
    # b - a = 2^-40 b: alpha' came out as 7.8087e-319
    (TaylorCoefficients(xi_x=-9.999999999990906e-301, xi_y=-1e-300, tau=10.0), "alpha_prime"),
    # theta/tau = 1.3e-308 is subnormal
    (TaylorCoefficients(xi_x=0.0, xi_y=-1.0, tau=1.2e308), "omega0"),
    # omega0 = 7.9e-308 is normal, the period 8e307 finite, but the
    # frequency came out as 1.25e-308
    (TaylorCoefficients(xi_x=0.0, xi_y=-1.0, tau=2e307), "frequency"),
], ids=["eta_c", "alpha_prime", "omega0", "frequency"])
def test_subnormal_hopf_point_is_invalid(coeffs, name):
    with pytest.raises(InvalidSpec, match=f"^{name}.* is outside the normal float range"):
        critical_eta(coeffs)


def test_stability_limit_where_b_squared_underflows():
    # b*b = 1e-340 underflows to 0; the limit is eta*tau*b = pi/2
    c = TaylorCoefficients(xi_x=0.0, xi_y=-1e-170, tau=1.0)
    hopf = critical_eta(c)
    assert hopf.eta_c == pytest.approx(0.5 * math.pi * 1e170, rel=1e-15)
    assert hopf.omega0 == pytest.approx(0.5 * math.pi, rel=1e-15)
    assert stability_verdict(c, 1.0) == "stable"
    assert stability_verdict(dataclasses.replace(c, tau=1e200), 1.0) == "unstable"


def test_stability_limit_where_b_squared_overflows():
    # b*b = 1e400 overflows; eta*b*tau = 1.5 sits below the limit
    # arccos(-0.2)/sqrt(0.96) = 1.8087
    c = TaylorCoefficients(xi_x=-2e199, xi_y=-1e200, tau=1.5e-200)
    assert stability_verdict(c, 1.0) == "stable"
    assert stability_verdict(c, 1.3) == "unstable"
    hopf = critical_eta(c)
    assert hopf.eta_c == pytest.approx(math.acos(-0.2) / math.sqrt(0.96) / 1.5,
                                       rel=1e-14)
    assert abs(char_value(c, hopf.eta_c, 1j * hopf.omega0)) < 1e-12 * hopf.eta_c * c.b


# --- verdicts --------------------------------------------------------------

def test_stability_verdict_brackets_hopf(ex1_coeffs):
    assert stability_verdict(ex1_coeffs, 0.95) == "stable"
    assert stability_verdict(ex1_coeffs, 1.05) == "unstable"
    assert is_locally_stable(ex1_coeffs, 0.95)
    assert not is_locally_stable(ex1_coeffs, 1.05)


def test_stability_verdict_critical_on_exact_boundary():
    c = TaylorCoefficients(xi_x=0.0, xi_y=-1.0, tau=0.5 * math.pi)
    assert stability_verdict(c, 1.0) == "critical"
    assert not is_locally_stable(c, 1.0)


def test_stability_verdict_rejects_bad_eta(ex1_coeffs):
    for eta in (0.0, -1.0):
        for check in (stability_verdict, sufficient_stable):
            with pytest.raises(InvalidSpec):
                check(ex1_coeffs, eta)
        with pytest.raises(InvalidSpec):
            char_value(ex1_coeffs, eta, 0j)
    # e^(-lambda*tau) = e^1870 overflows: a bare OverflowError before
    with pytest.raises(InvalidSpec, match="overflows"):
        char_value(ex1_coeffs, 1.0, -1e4)


@pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
def test_non_finite_gain_is_invalid(ex1_coeffs, eta):
    with pytest.raises(InvalidSpec, match="finite and positive"):
        stability_verdict(ex1_coeffs, eta)
    with pytest.raises(InvalidSpec, match="finite and positive"):
        rightmost_roots(ex1_coeffs, eta)
    with pytest.raises(InvalidSpec, match="finite and positive"):
        RootSearchRegion.default_for(ex1_coeffs, eta)
    with pytest.raises(InvalidSpec, match="finite and positive"):
        sufficient_stable(ex1_coeffs, eta)
    with pytest.raises(InvalidSpec, match="finite and positive"):
        char_value(ex1_coeffs, eta, 0j)


def test_sufficient_condition_first_set(ex1_coeffs):
    # eta*b*tau = 1.514 < pi/2 at eta = 0.9 but 1.683 > pi/2 at eta = 1.0
    assert sufficient_stable(ex1_coeffs, 0.9)
    assert not sufficient_stable(ex1_coeffs, 1.0)


def test_sufficient_condition_implies_stability(ex1_coeffs, ex2_coeffs,
                                                wright_coeffs):
    rng = np.random.default_rng(7)
    for c in (ex1_coeffs, ex2_coeffs, wright_coeffs):
        for eta in rng.uniform(0.05, 3.0, size=25):
            if sufficient_stable(c, float(eta)):
                assert is_locally_stable(c, float(eta))


# --- char_value ------------------------------------------------------------

def test_char_value_formula():
    c = TaylorCoefficients(xi_x=-0.5, xi_y=-2.0, tau=0.7)
    lam = complex(-0.3, 1.1)
    expect = lam + 1.3 * 0.5 + 1.3 * 2.0 * cmath.exp(-lam * 0.7)
    assert char_value(c, 1.3, lam) == pytest.approx(expect, rel=1e-14)


# --- rightmost roots -------------------------------------------------------

def _rightmost(coeffs, eta, **kw):
    roots = rightmost_roots(coeffs, eta, **kw)
    assert roots, "empty root list"
    return roots[0]


def test_rightmost_root_wright(wright_coeffs):
    r = _rightmost(wright_coeffs, 1.0)
    assert r.re == pytest.approx(ROOT_WRIGHT[0], rel=1e-9)
    assert r.im == pytest.approx(ROOT_WRIGHT[1], rel=1e-9)
    assert r.residual < 1e-9


def test_rightmost_root_real_regime():
    c = TaylorCoefficients(xi_x=0.0, xi_y=-1.0, tau=0.3)
    r = _rightmost(c, 1.0)
    assert r.re == pytest.approx(ROOT_A0_B1_TAU03[0], rel=1e-9)
    assert abs(r.im) < 1e-9


def test_rightmost_root_first_set(ex1_coeffs):
    r = _rightmost(ex1_coeffs, 1.0)
    assert r.re == pytest.approx(ROOT_EX1_ETA1[0], rel=1e-7)
    assert r.im == pytest.approx(ROOT_EX1_ETA1[1], rel=1e-9)


def test_rightmost_root_second_set(ex2_coeffs):
    r = _rightmost(ex2_coeffs, 0.95)
    assert r.re == pytest.approx(ROOT_EX2_ETA095[0], rel=1e-7)
    assert r.im == pytest.approx(ROOT_EX2_ETA095[1], rel=1e-9)


def test_rightmost_root_unstable_case():
    c = TaylorCoefficients(xi_x=-0.5, xi_y=-2.0, tau=2.0)
    r = _rightmost(c, 1.0)
    assert r.re == pytest.approx(ROOT_UNSTABLE[0], rel=1e-9)
    assert r.im == pytest.approx(ROOT_UNSTABLE[1], rel=1e-9)
    assert r.re > 0.0


def test_rightmost_root_sits_on_axis_at_hopf(ex1_coeffs):
    hopf = critical_eta(ex1_coeffs)
    r = _rightmost(ex1_coeffs, hopf.eta_c)
    assert abs(r.re) < 1e-6
    assert r.im == pytest.approx(hopf.omega0, abs=1e-6)


def test_rightmost_roots_zero_delay():
    c = TaylorCoefficients(xi_x=-0.5, xi_y=-2.0, tau=0.0)
    for find in (rightmost_roots, lambert_roots):
        assert find(c, 1.5) == [ComplexRoot(re=-1.5 * 2.5, im=0.0, residual=0.0)]


def test_all_reported_roots_are_roots(ex1_coeffs):
    for r in rightmost_roots(ex1_coeffs, 1.0):
        assert r.residual < 1e-9
        assert abs(char_value(ex1_coeffs, 1.0, complex(r.re, r.im))) < 1e-9


def test_roots_sorted_and_upper_half(wright_coeffs):
    # widen the box past the principal branch to pick up the next pair
    region = RootSearchRegion(re_min=-4.0, re_max=1.0, im_max=9.0)
    roots = rightmost_roots(wright_coeffs, 1.0, search=region)
    assert len(roots) >= 2
    assert all(r.im >= 0.0 for r in roots)
    assert all(roots[i].re >= roots[i + 1].re for i in range(len(roots) - 1))
    assert roots[0].re == pytest.approx(ROOT_WRIGHT[0], rel=1e-9)


def test_overflowing_newton_seed_fails_quietly(ex1_coeffs):
    # at tau = 50 some Newton steps overflow the delayed exponential; such a
    # seed counts as failed, so the search returns roots or NoConvergence
    coeffs = dataclasses.replace(ex1_coeffs, tau=50.0)
    try:
        roots = rightmost_roots(coeffs, 1.0)
    except NoConvergence:
        return
    for r in roots:
        assert abs(char_value(coeffs, 1.0, complex(r.re, r.im))) < 1e-9


def test_custom_search_region(wright_coeffs):
    # a narrow box around the known rightmost pair still finds it
    region = RootSearchRegion(re_min=-1.0, re_max=0.5, im_max=2.0)
    r = _rightmost(wright_coeffs, 1.0, search=region)
    assert r.re == pytest.approx(ROOT_WRIGHT[0], rel=1e-9)


def test_default_region_contains_rightmost_root(ex2_coeffs):
    region = RootSearchRegion.default_for(ex2_coeffs, 0.95)
    r = _rightmost(ex2_coeffs, 0.95)
    assert region.re_min < r.re < region.re_max
    assert r.im < region.im_max


def test_root_sign_matches_verdict_on_samples():
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 10:
        a = float(rng.uniform(0.0, 2.0))
        b = float(rng.uniform(a + 0.2, a + 2.5))
        tau = float(rng.uniform(0.05, 2.0))
        eta = float(rng.uniform(0.1, 2.5))
        c = TaylorCoefficients(xi_x=-a, xi_y=-b, tau=tau)
        eta_c = critical_eta(c).eta_c
        if abs(eta - eta_c) < 1e-3 * eta_c:
            continue
        r = _rightmost(c, eta)
        assert (r.re < 0.0) == is_locally_stable(c, eta)
        checked += 1


def _assert_complete(coeffs, eta, region, finders=(rightmost_roots, lambert_roots)):
    truth, _ = lambertw_roots(coeffs, eta, region)
    for find in finders:
        got = find(coeffs, eta, search=region)
        assert len(got) == len(truth), find.__name__
        for r, lam in zip(got, truth):
            assert abs(complex(r.re, r.im) - lam) < 1e-9, find.__name__


def test_root_search_is_complete_on_samples():
    # the default region and a wider one holding two more branches, against
    # the Lambert-W roots; draws with a root near the boundary are skipped,
    # since a winding count there is ill-conditioned
    rng = np.random.default_rng(2006)
    checked = 0
    while checked < 24:
        a = float(rng.uniform(0.0, 2.0))
        b = float(rng.uniform(a + 0.2, a + 2.5))
        tau = float(rng.uniform(0.05, 2.0))
        eta = float(rng.uniform(0.1, 2.5))
        c = TaylorCoefficients(xi_x=-a, xi_y=-b, tau=tau)
        region = RootSearchRegion.default_for(c, eta)
        if checked % 2:
            region = RootSearchRegion(re_min=region.re_min - 2.0, re_max=region.re_max,
                                      im_max=region.im_max + 4.0 * math.pi / tau)
        if lambertw_roots(c, eta, region)[1] < 0.05:
            continue
        _assert_complete(c, eta, region)
        checked += 1


@pytest.mark.parametrize("xi_x, xi_y, tau, eta", [
    # a Newton seed converging to a neighbouring cell's root once stood in
    # for this cell's own root: -0.045976 + 1.918495j went missing, and two
    # roots above im_max came back
    (-0.47722545790951687, -0.8260218526043872, 20.57454165143533, 0.9206622784649405),
    # a 2e-3 cell of winding 1 where no seed converged (NoConvergence)
    (-0.2305101921225743, -0.8499140395965452, 25.5469763066201, 0.615078700842453),
    (-0.30509183419712704, -0.6128423979865267, 14.020560210351876, 0.8526529011301285),
    (-0.47006765337610623, -0.9868774200758452, 23.233440542026823, 0.5942094330909666),
])
def test_root_search_is_complete_where_roots_are_dense(xi_x, xi_y, tau, eta):
    # long delays pack roots 2*pi/tau apart, so a root may sit 0.0057 to
    # 0.134 from the default region's boundary; these draws are kept although
    # the sampled test above skips clearances under 0.05, because each one
    # failed a specific cell rule of the subdivision, not the contour count
    c = TaylorCoefficients(xi_x=xi_x, xi_y=xi_y, tau=tau)
    _assert_complete(c, eta, RootSearchRegion.default_for(c, eta))


def test_single_root_cells_are_not_split(monkeypatch, ex1_coeffs):
    # a cell of winding 1 is settled by one Newton solve, so the README
    # model needs a handful of winding counts (once 51)
    from delaybif import chareq
    calls = []
    winding = chareq._phase_winding

    def counted_winding(*args):
        calls.append(args)
        return winding(*args)

    monkeypatch.setattr(chareq, "_phase_winding", counted_winding)
    assert len(rightmost_roots(ex1_coeffs, 1.0)) == 1
    assert len(calls) < 10


# tau*height = 6500: on the left edge, where the delayed exponential
# dominates G, the phase turns by tau*height/4096 > pi/2 between samples at
# the initial cap of 4096 per side, so the sampling must double
_TALL = (TaylorCoefficients(xi_x=0.0, xi_y=-1.0, tau=0.5),
         RootSearchRegion(re_min=-7.0, re_max=1.0, im_max=6500.0))


def test_root_search_is_complete_in_a_tall_region():
    c, region = _TALL
    truth, clearance = lambertw_roots(c, 1.0, region)
    assert len(truth) == 3 and clearance > 0.25
    _assert_complete(c, 1.0, region)


def test_tall_region_doubles_the_boundary_sampling(monkeypatch):
    # each pass of the sampling loop evaluates G once, by one np.exp
    from delaybif import chareq
    passes = []
    winding, exp = chareq._phase_winding, np.exp

    def counted_winding(*args):
        passes.append(0)
        return winding(*args)

    def counted_exp(x):
        passes[-1] += 1
        return exp(x)

    monkeypatch.setattr(chareq, "_phase_winding", counted_winding)
    monkeypatch.setattr(np, "exp", counted_exp)
    c, region = _TALL
    rightmost_roots(c, 1.0, search=region)
    assert passes[0] > 1


@pytest.mark.parametrize("bounds", [
    dict(re_min=-1.0, re_max=0.5, im_max=-1.0),
    dict(re_min=-1.0, re_max=0.5, im_max=0.0),
    dict(re_min=5.0, re_max=-5.0, im_max=2.0),
    dict(re_min=0.5, re_max=0.5, im_max=2.0),
    dict(re_min=-1.0, re_max=0.5, im_max=math.inf),
    dict(re_min=math.nan, re_max=0.5, im_max=2.0),
    dict(re_min=-1e308, re_max=1e308, im_max=2.0),
    dict(re_min=-1.0, re_max=0.5, im_max=1e308),
])
def test_search_region_validates_itself(wright_coeffs, bounds):
    with pytest.raises(InvalidSpec, match="root search region"):
        RootSearchRegion(**bounds)
    # the override path of the roots command goes through dataclasses.replace
    region = RootSearchRegion.default_for(wright_coeffs, 1.0)
    with pytest.raises(InvalidSpec, match="root search region"):
        dataclasses.replace(region, **bounds)


def test_overflowing_default_region_is_invalid(ex1_coeffs):
    # eta*(b - a) and 2*eta*b overflow: the region cannot be built
    for find in (rightmost_roots, lambert_roots):
        with pytest.raises(InvalidSpec, match="root search region"):
            find(ex1_coeffs, 1e308)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_sample_count_fails_cleanly():
    # tau times the region's height overflows where the first boundary
    # sample count is set; the search gives up with its documented error
    c = TaylorCoefficients(xi_x=0.0, xi_y=-1.0, tau=1e300)
    region = RootSearchRegion(re_min=-1.0, re_max=1.0, im_max=1e10)
    with pytest.raises(NoConvergence):
        rightmost_roots(c, 1.0, search=region)


# --- the closed form -------------------------------------------------------

def test_lambert_roots_where_roots_are_dense(ex1_coeffs):
    # the README model at tau = 50, where the winding search gives up: 151
    # roots, 2*pi/tau apart, fill the default region
    c = dataclasses.replace(ex1_coeffs, tau=50.0)
    region = RootSearchRegion.default_for(c, 1.0)
    assert len(lambertw_roots(c, 1.0, region)[0]) == 151
    _assert_complete(c, 1.0, region, finders=(lambert_roots,))


def test_both_real_roots_below_tau_star():
    # z = -0.3 > -1/e: W0 and W-1 give the real roots -1.631 and -5.937
    c = TaylorCoefficients(xi_x=0.0, xi_y=-1.0, tau=0.3)
    region = RootSearchRegion(re_min=-8.0, re_max=1.0, im_max=1.0)
    truth, _ = lambertw_roots(c, 1.0, region)
    assert [lam.imag for lam in truth] == [0.0, 0.0]
    _assert_complete(c, 1.0, region)


@pytest.mark.parametrize("coeffs", [
    taylor_coefficients(CubicBD(k=9.0, mu=1.0, lam=-7.0, tau=0.187)),
    TaylorCoefficients(xi_x=0.0, xi_y=-1.0),
], ids=["readme", "a=0"])
def test_lambert_roots_report_the_double_root_at_tau_star_once(coeffs):
    # W0 and W-1 meet at -1 and split by about sqrt(eps): one root, at
    # -(eta*a + 1/tau) to within the 1e-7 relative of the winding search
    c = dataclasses.replace(coeffs, tau=tau_star(coeffs))
    double = -(c.a + 1.0 / c.tau)
    near = [complex(r.re, r.im) for r in lambert_roots(c, 1.0)
            if abs(complex(r.re, r.im) - double) < 1e-3]
    assert len(near) == 1
    assert abs(near[0] - double) < 1e-7 * (1.0 + abs(double))


def test_lambert_roots_agree_with_the_winding_search():
    # same count and each root within 1e-9, wherever the winding search
    # answers, in the default region and one holding two more branches
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 40:
        a = float(rng.uniform(0.0, 2.0))
        b = float(rng.uniform(a + 0.2, a + 2.5))
        tau = float(rng.uniform(0.05, 20.0))
        eta = float(rng.uniform(0.1, 2.5))
        c = TaylorCoefficients(xi_x=-a, xi_y=-b, tau=tau)
        region = RootSearchRegion.default_for(c, eta)
        if checked % 2:
            region = RootSearchRegion(re_min=region.re_min - 2.0, re_max=region.re_max,
                                      im_max=region.im_max + 4.0 * math.pi / tau)
        try:
            oracle = rightmost_roots(c, eta, search=region)
        except NoConvergence:
            continue
        got = lambert_roots(c, eta, search=region)
        assert len(got) == len(oracle)
        for r, s in zip(got, oracle):
            assert abs(complex(r.re, r.im) - complex(s.re, s.im)) < 1e-9
        checked += 1


def test_lambert_roots_refuse_too_many_branches_before_computing_one(
        monkeypatch, wright_coeffs):
    # tau*im_max/(2 pi) = 2^15 asks for 2^15 + 1 branches; at tau = 1e300
    # the product overflows
    from delaybif import chareq

    def no_branch(*args):
        raise AssertionError("a branch was computed")

    for name in ("_lambert_w0", "_lambert_wm1", "_lambert_wk"):
        monkeypatch.setattr(chareq, name, no_branch)
    for tau, im_max in ((1.0, 2.0 * math.pi * 2 ** 15), (1e300, 1e10)):
        c = dataclasses.replace(wright_coeffs, tau=tau)
        region = RootSearchRegion(re_min=-1.0, re_max=1.0, im_max=im_max)
        with pytest.raises(InvalidSpec, match="Lambert-W branches"):
            lambert_roots(c, 1.0, search=region)


@pytest.mark.parametrize("tau", [1e-310, 1e-320, 5e-324])
def test_lambert_roots_at_a_subnormal_delay(tau):
    # b*tau*e^(a*tau) is subnormal and has lost digits; the root is -(a + b)
    c = TaylorCoefficients(xi_x=-0.5, xi_y=-1.3, tau=tau)
    # 1/tau overflows: the default region is clamped to the float range, and
    # every root but -(a + b) lies below it
    default = RootSearchRegion.default_for(c, 1.0)
    assert default == RootSearchRegion(re_min=-sys.float_info.max, re_max=1.3,
                                       im_max=0.5 * sys.float_info.max)
    for region in (RootSearchRegion(re_min=-3.0, re_max=1.0, im_max=1.0), None):
        assert (lambert_roots(c, 1.0, search=region)
                == [ComplexRoot(re=-1.8, im=0.0, residual=0.0)])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_winding_search_at_a_subnormal_delay_fails_cleanly():
    # the default region, clamped to the float range, is too wide for the
    # boundary sampling
    c = TaylorCoefficients(xi_x=-0.5, xi_y=-1.3, tau=1e-310)
    with pytest.raises(NoConvergence):
        rightmost_roots(c, 1.0)


def test_lambert_roots_outside_the_float_range_are_invalid():
    # eta*a*tau overflows, so log z does
    c = TaylorCoefficients(xi_x=-1e200, xi_y=-2e200, tau=1e200)
    with pytest.raises(InvalidSpec, match="eta\\*a\\*tau overflows"):
        lambert_roots(c, 1.0, search=RootSearchRegion(re_min=-1.0, re_max=1.0, im_max=1e-199))
    # b*tau = 1e-320: the W-1 root near -7.4e22 has e^(-lambda*tau) = e^742
    c = TaylorCoefficients(xi_x=0.0, xi_y=-1e-300, tau=1e-20)
    with pytest.raises(InvalidSpec, match="overflows"):
        lambert_roots(c, 1.0, search=RootSearchRegion(re_min=-1e23, re_max=1.0, im_max=1.0))


# --- the Lambert-W primitive -----------------------------------------------

_W0_BRANCH_CUT = list(-np.geomspace(math.exp(-1.0) + 1e-2, 1e300, 400))
_W0_NEAR_BRANCH_POINT = [-math.exp(-1.0) + s * d for d in (1e-2, 1e-3, 1e-4, 1e-5)
                         for s in (-1.0, 1.0)]
_W0_REAL_BRANCH = (list(np.linspace(0.0, math.exp(-1.0), 200, endpoint=False))
                   + [10.0 ** x for x in np.linspace(-300.0, -1.0, 100)])


@pytest.mark.parametrize("zs", [_W0_BRANCH_CUT, _W0_NEAR_BRANCH_POINT, _W0_REAL_BRANCH],
                         ids=["branch-cut", "near-branch-point", "real-branch"])
def test_lambert_w0_matches_scipy(zs):
    special = pytest.importorskip("scipy.special")
    for z in map(float, zs):
        w, ref = _lambert_w0(z), complex(special.lambertw(z, 0))
        assert abs(w - ref) <= 1e-13 * abs(ref), z


def test_lambert_w0_at_the_branch_point():
    # closer in than 1e-5, scipy's own value loses digits to e*z + 1; check
    # the branch (real above -1/e, Im w > 0 below) and the defining relation
    for d in 10.0 ** np.linspace(-16.0, -5.0, 23):
        for z in (-math.exp(-1.0) + d, -math.exp(-1.0) - d):
            w = _lambert_w0(z)
            assert abs(w + 1.0) < 2.0 * math.sqrt(2.0 * math.e * d) + 1e-15
            assert abs(w * cmath.exp(w) - z) < 1e-16
            assert (w.imag == 0.0) if z > -math.exp(-1.0) else (w.imag > 0.0)


@pytest.mark.parametrize("log_abs_z", [700.0, 1e5, 1e100, 1e300])
def test_lambert_w0_logarithmic_form(log_abs_z):
    # z itself overflows to -inf; w + log w = log z must hold, with the
    # value from above the cut (Im w rounds to pi once |w| passes 1e16)
    log_z = complex(log_abs_z, math.pi)
    w = _lambert_w0(-math.inf, log_z)
    assert abs(w + cmath.log(w) - log_z) <= 4e-16 * abs(log_z)
    assert 0.0 < w.imag <= math.pi


def test_lambert_w0_at_the_largest_floats():
    # an OverflowError here would leave a model unanswered; an overflowing
    # z passed by its logarithm must give the same value
    for z in (-1e308, -1.7e308):
        w = _lambert_w0(z)
        assert abs(w + cmath.log(w) - cmath.log(z)) <= 1e-15 * abs(cmath.log(z))
        assert _lambert_w0(-math.inf, cmath.log(z)) == w


@pytest.mark.parametrize("k", [1, 2, 5, 30])
def test_lambert_wk_matches_scipy(k):
    special = pytest.importorskip("scipy.special")
    for z in map(float, -np.geomspace(1e-8, 1e8, 400)):
        w, ref = _lambert_wk(k, math.log(-z)), complex(special.lambertw(z, k))
        assert abs(w - ref) <= 1e-15 * abs(ref), z


@pytest.mark.parametrize("log_abs_z", [700.0, 1e5, 1e100, 1e300])
def test_lambert_wk_logarithmic_form(log_abs_z):
    # z = -inf: only log(-z) enters, and w + log w = log(-z) + (2k + 1) pi i
    for k in (1, 2, 5, 30):
        target = complex(log_abs_z, (2 * k + 1) * math.pi)
        w = _lambert_wk(k, log_abs_z)
        assert abs(w + cmath.log(w) - target) <= 4e-16 * abs(target)
        assert 2 * k * math.pi < w.imag <= (2 * k + 1) * math.pi


_WM1_REAL = (list(-np.geomspace(1e-300, 0.3, 300))
             + [-math.exp(-1.0) + d for d in (1e-2, 1e-3, 1e-4, 1e-5)])


def test_lambert_wm1_matches_scipy():
    special = pytest.importorskip("scipy.special")
    for z in map(float, _WM1_REAL):
        w, ref = _lambert_wm1(z, math.log(-z)), complex(special.lambertw(z, -1))
        assert ref.imag == 0.0 and abs(w - ref.real) <= 1e-13 * abs(ref), z


def test_lambert_wm1_at_the_branch_point_and_below_the_smallest_float():
    # closer in than 1e-5, scipy's own value loses digits: check the branch
    # (w <= -1) and the defining relation, as for W0
    for d in 10.0 ** np.linspace(-16.0, -5.0, 23):
        z = -math.exp(-1.0) + d
        w = _lambert_wm1(z, math.log(-z))
        assert -1.0 - 2.0 * math.sqrt(2.0 * math.e * d) - 1e-15 < w <= -1.0
        assert abs(w * math.exp(w) - z) < 1e-16
    # z = -e^-800 underflows to -0.0; only its logarithm enters
    w = _lambert_wm1(-0.0, -800.0)
    assert abs(w + math.log(-w) + 800.0) <= 1e-15 * 800.0
