"""First Lyapunov coefficient: closed form, center-manifold recipe, shapes.

The two computational paths are genuinely independent implementations; the
tests pin each against frozen high-precision values and against each other.
The center-manifold value carries a factor eta_c relative to the closed
form (which is normalized to critical gain 1), so the two agree exactly
when the delay is chosen to put the Hopf point at eta_c = 1.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaybif import (
    CycleStability,
    DegenerateEpsilon,
    Direction,
    InvalidSpec,
    Nicholson,
    QuadraticBD,
    TaylorCoefficients,
    classify,
    critical_eta,
    g_tilde,
    h_tilde,
    mu2_center_manifold,
    mu2_closed_form,
    mu2_cubic_specialization,
    mu2_quadratic_specialization,
    nicholson_mu2,
    nicholson_mu2_shape,
    taylor_coefficients,
)

from _oracles import (
    EX1_BETA2,
    EX1_ETA_C,
    EX1_MU2_CLOSED,
    EX1_MU2_RECIPE,
    EX2_BETA2,
    EX2_ETA_C,
    EX2_MU2_CLOSED,
    EX2_MU2_RECIPE,
    G_TILDE_0,
    H_TILDE_0,
    NICHOLSON_MU2,
)


def _tau_for_unit_gain(a: float, b: float) -> float:
    # delay that puts the Hopf point exactly at eta_c = 1
    return math.acos(-a / b) / math.sqrt(b * b - a * a)


# --- closed form -----------------------------------------------------------

def test_closed_form_first_set(ex1_coeffs):
    assert mu2_closed_form(ex1_coeffs) == pytest.approx(EX1_MU2_CLOSED,
                                                        rel=1e-12)


def test_closed_form_second_set(ex2_coeffs):
    assert mu2_closed_form(ex2_coeffs) == pytest.approx(EX2_MU2_CLOSED,
                                                        rel=1e-12)


def test_closed_form_ignores_delay(ex1_coeffs):
    # the closed form depends only on the coefficient shape, not on tau
    assert mu2_closed_form(replace(ex1_coeffs, tau=0.4)) == pytest.approx(
        mu2_closed_form(ex1_coeffs), rel=1e-14)


# --- center-manifold recipe ------------------------------------------------

def test_recipe_first_set(ex1_coeffs):
    rep = mu2_center_manifold(ex1_coeffs, critical_eta(ex1_coeffs))
    assert rep.mu2 == pytest.approx(EX1_MU2_RECIPE, rel=1e-12)
    assert rep.beta2 == pytest.approx(EX1_BETA2, rel=1e-12)
    assert rep.direction is Direction.SUPERCRITICAL
    assert rep.cycle_stability is CycleStability.STABLE


def test_recipe_second_set(ex2_coeffs):
    rep = mu2_center_manifold(ex2_coeffs, critical_eta(ex2_coeffs))
    assert rep.mu2 == pytest.approx(EX2_MU2_RECIPE, rel=1e-12)
    assert rep.beta2 == pytest.approx(EX2_BETA2, rel=1e-12)
    assert rep.direction is Direction.SUBCRITICAL
    assert rep.cycle_stability is CycleStability.UNSTABLE


def test_recipe_internal_identities(ex1_coeffs, ex2_coeffs):
    for c in (ex1_coeffs, ex2_coeffs):
        hopf = critical_eta(c)
        rep = mu2_center_manifold(c, hopf)
        assert rep.alpha_prime == pytest.approx(hopf.alpha_prime, rel=1e-14)
        assert rep.beta2 == pytest.approx(2.0 * rep.c1_0.real, rel=1e-12)
        assert rep.mu2 == pytest.approx(-rep.c1_0.real / rep.alpha_prime,
                                        rel=1e-12)
        # beta2 = -2 mu2 alpha' ties the three quantities together
        assert rep.beta2 == pytest.approx(-2.0 * rep.mu2 * rep.alpha_prime,
                                          rel=1e-12)


def test_recipe_is_gain_scaled_closed_form(ex1_coeffs, ex2_coeffs):
    # the closed form is the recipe value divided by eta_c
    for c, eta_c in ((ex1_coeffs, EX1_ETA_C), (ex2_coeffs, EX2_ETA_C)):
        rep = mu2_center_manifold(c, critical_eta(c))
        assert rep.mu2 / mu2_closed_form(c) == pytest.approx(eta_c, rel=1e-10)


def test_paths_agree_at_unit_critical_gain():
    rng = np.random.default_rng(41)
    for _ in range(20):
        eps = float(rng.uniform(0.0, 0.95))
        b = float(rng.uniform(0.2, 2.0))
        a = eps * b
        nl = rng.uniform(-2.0, 2.0, size=6)
        c = TaylorCoefficients(xi_x=-a, xi_y=-b,
                               xi_xx=nl[0], xi_xy=nl[1], xi_yy=nl[2],
                               xi_xxx=nl[3], xi_xxy=nl[4], xi_xyy=nl[5],
                               tau=_tau_for_unit_gain(a, b))
        closed = mu2_closed_form(c)
        recipe = mu2_center_manifold(c, critical_eta(c)).mu2
        assert recipe == pytest.approx(closed, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9, 1e-12, 1e-14])
def test_paths_agree_at_the_cone_edge(gap):
    # a = b(1 - gap): the closed form takes 1 - e^2 and arccos(-e) from
    # (b - a)/b, not from the rounded e = a/b, which lost 5e-3 of mu2 at 1e-14
    rng = np.random.default_rng(round(-math.log10(gap)))
    for _ in range(20):
        b = float(rng.uniform(0.5, 5.0))
        nl = rng.uniform(-2.0, 2.0, size=7)
        c = TaylorCoefficients(xi_x=-b * (1.0 - gap), xi_y=-b,
                               xi_xx=nl[0], xi_xy=nl[1], xi_yy=nl[2], xi_xxx=nl[3],
                               xi_xxy=nl[4], xi_xyy=nl[5], xi_yyy=nl[6], tau=1.0)
        hopf = critical_eta(c)
        assert mu2_center_manifold(c, hopf).mu2 / hopf.eta_c == pytest.approx(
            mu2_closed_form(c), rel=1e-12)


# --- shape functions -------------------------------------------------------

def test_shape_values_at_zero():
    assert g_tilde(0.0) == pytest.approx(G_TILDE_0, rel=1e-13)
    assert h_tilde(0.0) == pytest.approx(H_TILDE_0, rel=1e-13)
    assert G_TILDE_0 == pytest.approx((4.0 * math.pi - 36.0) / (5.0 * math.pi))
    assert H_TILDE_0 == pytest.approx(-6.0 / math.pi)


def test_shapes_negative_on_grid():
    for eps in np.linspace(0.0, 0.95, 96):
        assert g_tilde(float(eps)) < 0.0
        assert h_tilde(float(eps)) < 0.0


def test_shape_domain_guard():
    for bad in (-0.1, 1.0, 1.3):
        with pytest.raises(DegenerateEpsilon):
            g_tilde(bad)
        with pytest.raises(DegenerateEpsilon):
            h_tilde(bad)
        with pytest.raises(DegenerateEpsilon):
            nicholson_mu2_shape(bad)


def test_cubic_specialization_matches_general(ex1_coeffs, ex2_coeffs):
    for c in (ex1_coeffs, ex2_coeffs):
        assert mu2_cubic_specialization(c) == pytest.approx(
            mu2_closed_form(c), rel=1e-12)


def test_quadratic_specialization_matches_general():
    spec = QuadraticBD(k=6.0, mu=1.0, lam=-7.0, tau=0.5)
    c = taylor_coefficients(spec)
    assert c.xi_xx == -1.0
    assert mu2_quadratic_specialization(c) == pytest.approx(
        mu2_closed_form(c), rel=1e-12)
    assert mu2_quadratic_specialization(c) == pytest.approx(
        g_tilde(c.epsilon) / c.b ** 2, rel=1e-14)


@given(eps=st.floats(0.0, 0.95), b=st.floats(0.1, 10.0))
@settings(max_examples=80, deadline=None)
def test_quadratic_self_coupling_always_subcritical(eps, b):
    c = TaylorCoefficients(xi_x=-eps * b, xi_y=-b, xi_xx=-1.0, tau=1.0)
    assert mu2_quadratic_specialization(c) < 0.0


@given(eps=st.floats(0.0, 0.95), b=st.floats(0.1, 10.0))
@settings(max_examples=80, deadline=None)
def test_pure_cubic_damping_always_supercritical(eps, b):
    # xi_xxx < 0 with no quadratic term flips the sign of h_tilde < 0
    c = TaylorCoefficients(xi_x=-eps * b, xi_y=-b, xi_xxx=-1.0, tau=1.0)
    assert mu2_cubic_specialization(c) > 0.0


# --- float range -----------------------------------------------------------

# b*b underflows to 0 at the first set and overflows at the second
_B_UNDERFLOW = TaylorCoefficients(xi_x=0.0, xi_y=-1e-170, xi_xx=1.0, tau=1.0)
_B_OVERFLOW = TaylorCoefficients(xi_x=-2e199, xi_y=-1e200, xi_xx=1.0, tau=1.5e-200)


@pytest.mark.parametrize("coeffs", [_B_UNDERFLOW, _B_OVERFLOW],
                         ids=["tiny-b", "huge-b"])
@pytest.mark.parametrize("route", [
    mu2_closed_form, mu2_cubic_specialization, mu2_quadratic_specialization,
    lambda c: mu2_center_manifold(c, critical_eta(c)),
], ids=["closed-form", "cubic", "quadratic", "center-manifold"])
def test_mu2_outside_the_float_range_is_invalid(route, coeffs):
    # neither a bare ZeroDivisionError or OverflowError, nor a 0 that
    # would read as Degenerate
    with pytest.raises(InvalidSpec):
        route(coeffs)


def test_linear_set_keeps_its_exact_zero_mu2():
    c = TaylorCoefficients(xi_x=-0.5, xi_y=-2.0, tau=1.0)
    assert mu2_closed_form(c) == 0.0
    assert mu2_cubic_specialization(c) == 0.0
    assert mu2_center_manifold(c, critical_eta(c)).mu2 == 0.0


# --- exponential birth-rate model ------------------------------------------

def test_nicholson_shape_frozen_values():
    for eps, want in NICHOLSON_MU2.items():
        assert nicholson_mu2_shape(eps) == pytest.approx(want, rel=1e-12)


def test_nicholson_positive_on_grid():
    for eps in np.linspace(0.05, 0.95, 19):
        assert nicholson_mu2_shape(float(eps)) > 0.0


def test_nicholson_consistent_with_general_form():
    # the concrete-model route and the shape function must coincide;
    # this leans on the unscaled derivative table (see test_models.py)
    for eps in (0.2, 0.35, 0.5, 0.65, 0.8):
        q = 1.0 + 1.0 / eps
        spec = Nicholson(gamma=1.0, p_rate=math.exp(q), x0_size=1.0, tau=1.0)
        direct = nicholson_mu2(spec)
        general = mu2_closed_form(taylor_coefficients(spec))
        assert direct == pytest.approx(general, rel=1e-12)
        assert direct == pytest.approx(nicholson_mu2_shape(eps), rel=1e-12)


def test_nicholson_population_scale():
    # mu2 scales as 1/x0^2, so doubling x0 divides it by 4 exactly
    base = nicholson_mu2_shape(0.4, x0_size=1.0)
    assert nicholson_mu2_shape(0.4, x0_size=2.0) == pytest.approx(
        base / 4.0, rel=1e-14)
    assert nicholson_mu2_shape(0.4, x0_size=0.1) > 0.0



@pytest.mark.parametrize("x0_size, name", [
    (1e200, "x0_size squared"), (1e-200, "x0_size squared"), (1.3e154, "mu2")])
def test_nicholson_shape_outside_the_float_range_is_invalid(x0_size, name):
    with pytest.raises(InvalidSpec, match=name):
        nicholson_mu2_shape(0.4, x0_size)

# --- classification --------------------------------------------------------

def test_classify_signs(ex1_coeffs, ex2_coeffs):
    sup = mu2_center_manifold(ex1_coeffs, critical_eta(ex1_coeffs))
    sub = mu2_center_manifold(ex2_coeffs, critical_eta(ex2_coeffs))
    assert classify(sup) == (Direction.SUPERCRITICAL, CycleStability.STABLE)
    assert classify(sub) == (Direction.SUBCRITICAL, CycleStability.UNSTABLE)


def test_classify_degenerate(ex1_coeffs):
    rep = mu2_center_manifold(ex1_coeffs, critical_eta(ex1_coeffs))
    flat = replace(rep, mu2=1e-9, beta2=0.0)
    assert classify(flat) == (Direction.DEGENERATE, CycleStability.DEGENERATE)
