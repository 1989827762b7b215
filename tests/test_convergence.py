"""Decay rates, the non-oscillatory boundary tau*, and regime classification.

The strongest checks here tie the closed-form rate sigma back to the
numerically located rightmost characteristic root: -sigma must equal its
real part.
"""
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delaybif import (
    InvalidSpec,
    Regime,
    TaylorCoefficients,
    char_value,
    critical_eta,
    classify_regime,
    non_oscillatory,
    rate_of_convergence,
    rightmost_roots,
    stability_verdict,
    sweep_tau,
    tau_star,
)

from _oracles import (
    EX1_TAU_STAR,
    ROOT_A0_B1_TAU03,
    TAU_STAR_A0_B1,
    WRIGHT_SIGMA,
    WRIGHT_U2,
)


# --- tau* ------------------------------------------------------------------

def test_tau_star_unit_case(wright_coeffs):
    # a = 0, b = 1: b*tau*e^(a*tau) = tau, so tau* = 1/e exactly
    assert tau_star(wright_coeffs) == pytest.approx(TAU_STAR_A0_B1, rel=1e-12)


def test_tau_star_first_set(ex1_coeffs):
    assert tau_star(ex1_coeffs) == pytest.approx(EX1_TAU_STAR, rel=1e-12)


def test_tau_star_defining_relation(ex1_coeffs, ex2_coeffs, wright_coeffs):
    for c in (ex1_coeffs, ex2_coeffs, wright_coeffs):
        ts = tau_star(c)
        assert c.b * ts * math.exp(c.a * ts) == pytest.approx(
            math.exp(-1.0), rel=1e-13)


def test_tau_star_gain_scaling(ex1_coeffs):
    # folding eta into (a, b) must give the same boundary
    scaled = TaylorCoefficients(xi_x=1.7 * ex1_coeffs.xi_x,
                                xi_y=1.7 * ex1_coeffs.xi_y,
                                tau=ex1_coeffs.tau)
    assert tau_star(ex1_coeffs, eta=1.7) == pytest.approx(
        tau_star(scaled), rel=1e-12)


# --- rate of convergence ---------------------------------------------------

def test_rate_wright_oscillatory(wright_coeffs):
    rep = rate_of_convergence(wright_coeffs)
    assert rep.regime is Regime.OSCILLATORY_STABLE
    assert rep.sigma == pytest.approx(WRIGHT_SIGMA, rel=1e-9)
    assert rep.u2 == pytest.approx(WRIGHT_U2, rel=1e-9)
    assert rep.sigma3 == rep.sigma
    assert math.isinf(rep.sigma2)
    assert rep.sigma1 == pytest.approx(1.0, rel=1e-14)


def test_rate_real_regime():
    c = TaylorCoefficients(xi_x=0.0, xi_y=-1.0, tau=0.3)
    rep = rate_of_convergence(c)
    assert rep.regime is Regime.NON_OSCILLATORY_STABLE
    assert rep.sigma == pytest.approx(-ROOT_A0_B1_TAU03[0], rel=1e-9)
    assert math.isinf(rep.sigma3)
    assert rep.u2 is None
    assert rep.sigma == min(rep.sigma1, rep.sigma2)


def test_rate_small_delay_limit():
    # tau -> 0+ pushes the decay rate to the undelayed value a + b
    c = TaylorCoefficients(xi_x=0.0, xi_y=-1.0, tau=1e-5)
    rep = rate_of_convergence(c)
    assert rep.sigma == pytest.approx(1.0, abs=1e-3)


def test_rate_at_tau_star_hits_cap(ex1_coeffs, wright_coeffs):
    # a half-ulp error in tau* is amplified to sqrt-level (about 3e-8 for
    # the unit case) by the flat top of the sigma2 branch, so 1e-7 is as
    # tight as double precision allows here
    for c in (ex1_coeffs, wright_coeffs):
        ts = tau_star(c)
        rep = rate_of_convergence(replace(c, tau=ts))
        assert rep.sigma == pytest.approx(c.a + 1.0 / ts, abs=1e-7)


def test_rate_continuity_across_tau_star(wright_coeffs):
    # sigma has a square-root cusp at tau*, so straddle it very tightly
    ts = tau_star(wright_coeffs)
    cap = 1.0 / ts
    below = rate_of_convergence(replace(wright_coeffs, tau=ts * (1 - 1e-14)))
    above = rate_of_convergence(replace(wright_coeffs, tau=ts * (1 + 1e-14)))
    assert below.sigma == pytest.approx(cap, abs=1e-6)
    assert above.sigma == pytest.approx(cap, abs=1e-6)


def test_rate_unstable_regime(wright_coeffs):
    rep = rate_of_convergence(replace(wright_coeffs, tau=2.0))
    assert rep.regime is Regime.UNSTABLE
    assert rep.sigma == 0.0


def test_rate_gain_scaling(ex1_coeffs):
    scaled = TaylorCoefficients(xi_x=0.9 * ex1_coeffs.xi_x,
                                xi_y=0.9 * ex1_coeffs.xi_y,
                                tau=ex1_coeffs.tau)
    assert rate_of_convergence(ex1_coeffs, eta=0.9).sigma == pytest.approx(
        rate_of_convergence(scaled).sigma, rel=1e-10)


def test_rate_matches_rightmost_root():
    # -sigma*tau must agree with re(rightmost root)*tau across regimes
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 10:
        a = float(rng.uniform(0.0, 2.0))
        b = float(rng.uniform(a + 0.2, a + 2.5))
        tau = float(rng.uniform(0.05, 1.5))
        c = TaylorCoefficients(xi_x=-a, xi_y=-b, tau=tau)
        rep = rate_of_convergence(c)
        if rep.regime is Regime.UNSTABLE:
            continue
        ts = rep.tau_star
        if abs(tau - ts) < 1e-3 * ts:
            continue
        root = rightmost_roots(c, 1.0)[0]
        assert -rep.sigma * tau == pytest.approx(root.re * tau, abs=1e-6)
        checked += 1


# --- regime boundaries -----------------------------------------------------

def test_non_oscillatory_boundary(wright_coeffs):
    ts = tau_star(wright_coeffs)
    assert non_oscillatory(replace(wright_coeffs, tau=0.99 * ts))
    assert not non_oscillatory(replace(wright_coeffs, tau=1.01 * ts))


def test_classify_regime_canonical(wright_coeffs):
    # tau* = 1/e and tau_c = pi/2 for a = 0, b = 1
    assert classify_regime(replace(wright_coeffs, tau=0.2)) is \
        Regime.NON_OSCILLATORY_STABLE
    assert classify_regime(replace(wright_coeffs, tau=1.0)) is \
        Regime.OSCILLATORY_STABLE
    assert classify_regime(replace(wright_coeffs, tau=2.0)) is Regime.UNSTABLE


def test_classify_regime_matches_report(ex1_coeffs):
    for tau in (0.02, 0.1, 0.187):
        c = replace(ex1_coeffs, tau=tau)
        assert classify_regime(c) is rate_of_convergence(c).regime


def test_classify_regime_gain_dependence(ex1_coeffs):
    # the first parameter set is oscillatory stable at gain 1 and loses
    # stability just above eta_c
    assert classify_regime(ex1_coeffs, eta=1.0) is Regime.OSCILLATORY_STABLE
    assert classify_regime(ex1_coeffs, eta=1.05) is Regime.UNSTABLE


# --- sweep -----------------------------------------------------------------

def test_sweep_tau_structure(wright_coeffs):
    grid = [0.1, 0.3, 0.8, 1.2]
    rows = sweep_tau(wright_coeffs, grid)
    assert [t for t, _ in rows] == grid
    for tau, rep in rows:
        solo = rate_of_convergence(replace(wright_coeffs, tau=tau))
        assert rep.sigma == pytest.approx(solo.sigma, rel=1e-12)
        assert rep.regime is solo.regime


def test_sweep_tau_profile_shape(wright_coeffs):
    # increasing toward tau*, decreasing after, unstable past tau_c
    ts = tau_star(wright_coeffs)
    tau_c = math.acos(0.0)
    grid = list(np.linspace(0.05, ts, 12)) + list(np.linspace(ts, tau_c, 12)[1:-1])
    sig = [rep.sigma for _, rep in sweep_tau(wright_coeffs, grid)]
    head = sig[:12]
    tail = sig[11:]
    assert all(x < y for x, y in zip(head, head[1:]))
    assert all(x > y for x, y in zip(tail, tail[1:]))


# --- the gain's domain and overflowing exponentials ------------------------

_GAIN_FUNCTIONS = [rate_of_convergence, tau_star, non_oscillatory, classify_regime]


@pytest.mark.parametrize("fn", _GAIN_FUNCTIONS)
@pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf, 0.0])
def test_non_finite_gain_is_invalid(wright_coeffs, fn, eta):
    with pytest.raises(InvalidSpec, match="finite and positive"):
        fn(wright_coeffs, eta)


@pytest.mark.parametrize("fn", _GAIN_FUNCTIONS)
@pytest.mark.parametrize("b,eta", [(2.0, 1e308), (1e-10, 1e-315)],
                         ids=["overflow", "underflow"])
def test_gain_scaling_b_out_of_range_is_invalid(fn, b, eta):
    c = TaylorCoefficients(xi_x=0.0, xi_y=-b, tau=1.0)
    with pytest.raises(InvalidSpec, match="float range"):
        fn(c, eta)


def test_overflowing_exponential_unstable():
    # eta*a*tau = 1000: e^(eta*a*tau) overflows a float
    c = TaylorCoefficients(xi_x=-1.0, xi_y=-2.0, tau=1.0)
    assert not non_oscillatory(c, 1000.0)
    assert classify_regime(c, 1000.0) is Regime.UNSTABLE
    rep = rate_of_convergence(c, 1000.0)
    assert rep.regime is Regime.UNSTABLE and rep.sigma == 0.0
    for value in (rep.sigma1, rep.sigma3, rep.tau_star, rep.u2):
        assert math.isfinite(value)
    assert rep.sigma3 < 0.0 and 0.0 < rep.u2 < math.pi


@pytest.mark.parametrize("a", [700.0, 705.0, 800.0])
def test_decay_rate_across_the_overflow_threshold(a):
    # b*tau*e^(a*tau) is a float at a = 700 and overflows at 705 and 800;
    # either way -sigma + i*u2/tau must be a characteristic root
    c = TaylorCoefficients(xi_x=-a, xi_y=-a * (1.0 + 1e-7), tau=1.0)
    rep = rate_of_convergence(c)
    assert rep.regime is Regime.OSCILLATORY_STABLE
    assert rep.sigma > 0.0
    lam = complex(-rep.sigma, rep.u2 / c.tau)
    assert abs(char_value(c, 1.0, lam)) < 1e-6 * a


# --- scaled coefficients whose square underflows ---------------------------

@pytest.mark.parametrize("eps", [0.0, 0.5, 0.999])
def test_b_squared_underflow_gives_finite_results(eps):
    # eta*b = 9.4e-254, so (eta*b)^2 underflows to 0; the stability limit
    # (pi/2)/(eta*b) for eps = 0 is about 1.7e253, far below tau
    b = 4.1e-91
    c = TaylorCoefficients(xi_x=-eps * b, xi_y=-b, tau=2e272)
    eta = 2.3e-163
    assert classify_regime(c, eta) is Regime.UNSTABLE
    assert not non_oscillatory(c, eta)
    assert math.isfinite(tau_star(c, eta))
    rep = rate_of_convergence(c, eta)
    assert rep.regime is Regime.UNSTABLE and rep.sigma == 0.0
    assert math.isfinite(rep.tau_star) and math.isfinite(rep.sigma1)


@pytest.mark.parametrize("eps", [0.0, 0.2, 0.9])
def test_b_squared_overflow_keeps_the_stability_limit(eps):
    # eta*b = 1e200, so (eta*b)^2 overflows; eta*b*tau = 1.5 sits below the
    # stability limit arccos(-eps)/sqrt(1 - eps^2) >= pi/2 for every eps here
    c = TaylorCoefficients(xi_x=-eps, xi_y=-1.0, tau=1.5e-200)
    eta = 1e200
    assert stability_verdict(c, eta) == "stable"
    assert classify_regime(c, eta) is Regime.OSCILLATORY_STABLE
    rep = rate_of_convergence(c, eta)
    assert rep.regime is Regime.OSCILLATORY_STABLE and rep.sigma > 0.0
    lam = complex(-rep.sigma, rep.u2 / c.tau)
    assert abs(char_value(c, eta, lam)) < 1e-9 * eta * c.b


def test_subnormal_scaled_b_is_invalid():
    # eta*b = 1.3e-311 is subnormal: 1/(eta*b) overflows and tau* came out NaN
    c = TaylorCoefficients(xi_x=-1.12e-148, xi_y=-1.19e-148, tau=1.0)
    for fn in _GAIN_FUNCTIONS:
        with pytest.raises(InvalidSpec, match="float range"):
            fn(c, 1.07e-163)


@given(eps=st.floats(0.0, 0.99), log_eta=st.floats(-250.0, -150.0),
       ratio=st.floats(0.2, 5.0))
@settings(max_examples=100, deadline=None)
def test_regime_matches_stability_verdict_below_b_squared_underflow(eps, log_eta, ratio):
    # the unscaled verdict never underflows; the scaled regime must agree
    # with it wherever tau is not within rounding of the stability limit
    assume(abs(ratio - 1.0) > 1e-9)
    eta = 10.0 ** log_eta
    c0 = TaylorCoefficients(xi_x=-eps, xi_y=-1.0, tau=1.0)
    c = replace(c0, tau=ratio * critical_eta(c0).eta_c / eta)
    unstable = stability_verdict(c, eta) != "stable"
    assert (classify_regime(c, eta) is Regime.UNSTABLE) == unstable


# --- the cone edge and large a*tau -----------------------------------------

def test_cone_edge_decay_rate_is_resolved():
    # a*tau = 1e6 and b/a - 1 = 1e-13: a - Re W0(z)/tau carries a rounding
    # error of 2e-10, forty times sigma itself (60-digit Lambert W:
    # sigma = 4.8349031499000755e-12)
    c = TaylorCoefficients(xi_x=-1e6, xi_y=-1e6 * (1.0 + 1e-13), tau=1.0)
    rep = rate_of_convergence(c)
    assert stability_verdict(c, 1.0) == "stable"
    assert rep.regime is Regime.OSCILLATORY_STABLE
    assert rep.sigma == pytest.approx(4.8349031499000755e-12, rel=1e-9)


def test_near_cone_edge_root_solves_characteristic_equation():
    a = 5000.0
    c = TaylorCoefficients(xi_x=-a, xi_y=-a * (1.0 + 1e-9), tau=1.0)
    rep = rate_of_convergence(c)
    lam = complex(-rep.sigma, rep.u2 / c.tau)
    assert abs(char_value(c, 1.0, lam)) < 1e-9 * (1.0 + c.a + c.b)


@pytest.mark.parametrize("tau", [1e9, 1e10])
def test_growth_bound_at_large_delay(tau):
    # the rightmost roots of u' = -2u - 3u(t - tau) grow at ln(3/2)/tau
    # up to O(1/tau^2); at a*tau = 2e10, z overflows and W0 comes from log z
    c = TaylorCoefficients(xi_x=-2.0, xi_y=-3.0, tau=tau)
    rep = rate_of_convergence(c)
    assert rep.regime is Regime.UNSTABLE
    assert rep.sigma3 == pytest.approx(-math.log(1.5) / tau, rel=1e-6)


@pytest.mark.parametrize("coeffs, eta", [
    (TaylorCoefficients(xi_x=-1.0, xi_y=-2.0, tau=1e308), 10.0),
    (TaylorCoefficients(xi_x=-1e200, xi_y=-2e200, tau=1e200), 1.0),
], ids=["eta-tau", "a-tau"])
def test_overflowing_a_tau_is_unstable_without_w0(coeffs, eta):
    # eta*a*tau overflows, and log z with it: the report is the Unstable
    # one classify_regime gives, with sigma3 and u2 absent
    assert classify_regime(coeffs, eta) is Regime.UNSTABLE
    rep = rate_of_convergence(coeffs, eta)
    assert rep.regime is Regime.UNSTABLE and rep.sigma == 0.0
    assert rep.sigma2 == rep.sigma3 == math.inf and rep.u2 is None
    assert math.isfinite(rep.sigma1) and math.isfinite(rep.tau_star)


@pytest.mark.parametrize("a_over_b, b, eta, regime", [
    (0.0, 1e-310, 1e9, Regime.NON_OSCILLATORY_STABLE),
    (1.0 - 1e-15, 1e-305, 1e10, Regime.OSCILLATORY_STABLE),
])
def test_verdict_survives_an_overflowing_eta_tau(a_over_b, b, eta, regime):
    # eta*tau overflows while eta*tau*sqrt(b^2 - a^2) is 0.1 and 4.5e-3,
    # far below the limit arccos(-a/b) >= pi/2
    c = TaylorCoefficients(xi_x=-a_over_b * b, xi_y=-b, tau=1e300)
    assert stability_verdict(c, eta) == "stable"
    assert classify_regime(c, eta) is regime
    rep = rate_of_convergence(c, eta)
    assert rep.regime is regime and rep.sigma > 0.0


def test_verdict_keeps_its_digits_at_subnormal_b():
    # s = b*sqrt(1 - e^2) = 8.7e-320 is subnormal and rounds by 2e-5; the
    # 60-digit ratio eta*tau*s/arccos(-e) is 1.0000102, so the model is
    # unstable, as the decay rate says (sigma*tau = -4.8e-6)
    c = TaylorCoefficients(xi_x=-5e-320, xi_y=-1e-319, tau=2.4184507584282245e307)
    assert stability_verdict(c, 1e12) == "unstable"
    assert classify_regime(c, 1e12) is Regime.UNSTABLE
    assert rate_of_convergence(c, 1e12).regime is Regime.UNSTABLE



def test_underflowing_decay_rate_keeps_the_stable_regime():
    # 1 - 8.8e-9 of the stability limit: the 60-digit sigma is 4.4e-331,
    # below the smallest float, so sigma3 underflows to 0; the model is
    # still stable
    c = TaylorCoefficients(xi_x=-6.176759755488391e-160, xi_y=-6.176759755488411e-160,
                           tau=1.3063307984637236e308)
    eta = 4.812326532236943e-142
    assert stability_verdict(c, eta) == "stable"
    assert classify_regime(c, eta) is Regime.OSCILLATORY_STABLE
    rep = rate_of_convergence(c, eta)
    assert rep.regime is Regime.OSCILLATORY_STABLE
    assert rep.sigma == 0.0 and rep.sigma3 == 0.0

@given(log_b=st.floats(-320.0, 300.0) | st.floats(-320.0, -290.0),
       eps=st.floats(0.0, 1.0, exclude_max=True),
       log_eta=st.floats(-300.0, 300.0), ratio=st.floats(0.2, 5.0))
@settings(max_examples=300, deadline=None)
def test_regime_is_unstable_exactly_where_the_verdict_is_not_stable(
        log_b, eps, log_eta, ratio):
    # ratio places eta*tau*sqrt(b^2 - a^2) against the limit arccos(-a/b);
    # tau is built in logarithms, so eta*tau may exceed the float range,
    # which the second draw of tiny b makes common
    b, eta = 10.0 ** log_b, 10.0 ** log_eta
    assume(sys.float_info.min <= eta * b < math.inf and eps * b < b)
    c = TaylorCoefficients(xi_x=-eps * b, xi_y=-b)
    # a subnormal s = b*r has lost digits: take s at a and b scaled up by
    # 2^k, which is exact, and divide the scale out in the logarithm
    k = max(0, -math.frexp(c.b)[1])
    cone = TaylorCoefficients(xi_x=-math.ldexp(c.a, k), xi_y=-math.ldexp(c.b, k))
    theta, s = cone.theta, cone.b * cone.r
    assume(s > 0.0)
    log_tau = math.log(ratio * theta) - math.log(s) + k * math.log(2.0) - math.log(eta)
    assume(log_tau < math.log(sys.float_info.max))
    c = replace(c, tau=math.exp(log_tau))
    assume(c.tau > 0.0)
    regime = classify_regime(c, eta)
    assert (regime is Regime.UNSTABLE) == (stability_verdict(c, eta) != "stable")
    if abs(ratio - 1.0) > 1e-9:
        assert (regime is Regime.UNSTABLE) == (ratio > 1.0)
        assert rate_of_convergence(c, eta).regime is regime
