"""Characteristic equation: Hopf point, stability verdicts, rightmost roots.

Root-location oracles come from the Lambert-W representation of the
characteristic roots, evaluated independently before this suite was written
(see tests/_oracles.py).
"""
import cmath
import dataclasses
import math

import numpy as np
import pytest

from delaybif import (
    ComplexRoot,
    DegenerateLinearization,
    HopfPoint,
    InvalidSpec,
    NoConvergence,
    RootSearchRegion,
    TaylorCoefficients,
    char_value,
    critical_eta,
    is_locally_stable,
    rightmost_roots,
    stability_verdict,
    sufficient_stable,
)

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
    with pytest.raises(InvalidSpec):
        stability_verdict(ex1_coeffs, 0.0)
    with pytest.raises(InvalidSpec):
        stability_verdict(ex1_coeffs, -1.0)


@pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
def test_non_finite_gain_is_invalid(ex1_coeffs, eta):
    with pytest.raises(InvalidSpec, match="finite and positive"):
        stability_verdict(ex1_coeffs, eta)
    with pytest.raises(InvalidSpec, match="finite and positive"):
        rightmost_roots(ex1_coeffs, eta)
    with pytest.raises(InvalidSpec, match="finite and positive"):
        RootSearchRegion.default_for(ex1_coeffs, eta)


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
    roots = rightmost_roots(c, 1.5)
    assert roots == [ComplexRoot(re=-1.5 * 2.5, im=0.0, residual=0.0)]


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
    with pytest.raises(InvalidSpec, match="root search region"):
        rightmost_roots(ex1_coeffs, 1e308)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_sample_count_fails_cleanly():
    # tau times the region's height overflows where the first boundary
    # sample count is set; the search gives up with its documented error
    c = TaylorCoefficients(xi_x=0.0, xi_y=-1.0, tau=1e300)
    region = RootSearchRegion(re_min=-1.0, re_max=1.0, im_max=1e10)
    with pytest.raises(NoConvergence):
        rightmost_roots(c, 1.0, search=region)
