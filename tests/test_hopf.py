"""First Lyapunov coefficient: closed form, center-manifold recipe, shapes.

The two computational paths are genuinely independent implementations; the
tests pin each against frozen high-precision values and against each other.
The center-manifold value carries a factor eta_c relative to the closed
form (which is normalized to critical gain 1), so the two agree exactly
when the delay is chosen to put the Hopf point at eta_c = 1.
"""
import math
import random
import typing
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaybif import (
    Analysis,
    ConvergenceReport,
    CubicBD,
    CycleStability,
    DegenerateEpsilon,
    Direction,
    Generic,
    HopfPoint,
    InvalidSpec,
    Nicholson,
    QuadraticBD,
    SimConfig,
    TaylorCoefficients,
    Verdict,
    analysis,
    classify,
    critical_eta,
    equilibrium,
    g_tilde,
    h_tilde,
    integrate,
    metrics,
    mu2_center_manifold,
    mu2_closed_form,
    mu2_cubic_specialization,
    mu2_quadratic_specialization,
    nicholson_mu2,
    nicholson_mu2_shape,
    rate_of_convergence,
    stability_verdict,
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


# abs(g11) overflows at the first set; at the second, eta_c = 5e-324 makes
# the divisor of F underflow to 0.  critical_eta rejects that subnormal
# eta_c, so the second set takes the Hopf point it gave before it did
_CM_OVERFLOW = TaylorCoefficients(
    xi_x=-4.7288987289506465e-42, xi_y=-1.6096531660931157e-41, xi_xx=-638567625346887.4,
    xi_xy=3.508645126459668e+132, xi_xxx=1.9832955350508813e-107,
    xi_xyy=-2.6620490097173463e+83, xi_yyy=-1.0097505718675005e-160,
    tau=4.4697963188892495e-136)
_CM_ZERO_DIVISOR = TaylorCoefficients(
    xi_x=-2.3639950806725393e+227, xi_y=-3.724565895976643e+227, xi_xx=-5.272349006302229e+86,
    xi_xy=1.566818513035908e-14, xi_yy=-7.846070331634474e-183, xi_xxx=9.332258616409857e-282,
    xi_xyy=4.865225882673995e+69, xi_yyy=8.279919337422847e+30, tau=2.0272313340593294e+96)
_CM_ZERO_DIVISOR_HOPF = HopfPoint(
    eta_c=5e-324, omega0=1.114042132815505e-96, period=5.639988939466921e+96,
    frequency=1.7730531225022543e-97, alpha_prime=4.90530865826069e+226)


@pytest.mark.parametrize("coeffs, hopf", [(_CM_OVERFLOW, None),
                                          (_CM_ZERO_DIVISOR, _CM_ZERO_DIVISOR_HOPF)],
                         ids=["overflow", "zero-divisor"])
def test_center_manifold_arithmetic_outside_the_float_range_is_invalid(coeffs, hopf):
    with pytest.raises(InvalidSpec, match="^mu2 is outside the float range"):
        mu2_center_manifold(coeffs, hopf or critical_eta(coeffs))


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
    # every eps = i/200 in (0, 1); the least, 0.2741, is at eps = 0.345
    for i in range(1, 200):
        assert nicholson_mu2_shape(i / 200) > 0.0


def test_nicholson_consistent_with_general_form():
    # the concrete-model route and the shape function must coincide; the
    # shape is derived from the factorial-normalized expansion the model's
    # expression gives (see test_models.py)
    for eps in (0.2, 0.35, 0.5, 0.65, 0.8):
        q = 1.0 + 1.0 / eps
        spec = Nicholson(gamma=1.0, p_rate=math.exp(q), x0_size=1.0, tau=1.0)
        direct = nicholson_mu2(spec)
        general = mu2_closed_form(taylor_coefficients(spec))
        assert direct == pytest.approx(general, rel=1e-12)
        assert direct == pytest.approx(nicholson_mu2_shape(eps), rel=1e-12)


def test_nicholson_mu2_shape_is_the_models_own_route():
    # seeded models with epsilon = 1/(q - 1) in (0.11, 1): the model's
    # shape is hopf's bit for bit on the 1/200 grid, and at its own epsilon
    # it is nicholson_mu2
    rng = random.Random(29)
    for _ in range(20):
        gamma, q = 10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(2.01, 10.0)
        spec = Nicholson(gamma=gamma, p_rate=gamma * math.exp(q),
                         x0_size=10.0 ** rng.uniform(-3.0, 3.0), tau=1.0)
        for i in range(1, 200):
            assert spec.mu2_shape(i / 200) == nicholson_mu2_shape(i / 200, spec.x0_size)
        eps = 1.0 / (math.log(spec.p_rate / spec.gamma) - 1.0)
        assert spec.mu2_shape() == nicholson_mu2(spec) == \
            nicholson_mu2_shape(eps, spec.x0_size)


@pytest.mark.parametrize("above", [1.01, 1.02])
def test_nicholson_cycle_has_the_normal_form_amplitude(nich_spec, above):
    # with f''/2 and f'''/6 in the expansion, the simulated half-range is
    # within 0.6% of 2 sqrt((eta - eta_c)/mu2); the unscaled f'' and f'''
    # made mu2 2.5 times too large, and the prediction 37% too small
    coeffs = taylor_coefficients(nich_spec)
    hopf = critical_eta(coeffs)
    mu2 = mu2_center_manifold(coeffs, hopf).mu2
    eta = above * hopf.eta_c
    predicted = 2.0 * math.sqrt((eta - hopf.eta_c) / mu2)
    m = metrics(integrate(nich_spec, SimConfig(
        eta=eta, x_init=equilibrium(nich_spec).x_e + predicted, t_end=600.0)))
    assert m.verdict is Verdict.LIMIT_CYCLE
    assert m.amplitude == pytest.approx(predicted, rel=0.02)


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


# --- the analysis record ---------------------------------------------------

_RECORD_SPECS = {
    "readme": CubicBD(k=9.0, mu=1.0, lam=-7.0, tau=0.187),
    "second-set": CubicBD(k=4.75, mu=1.0, lam=-7.0, tau=1.0),
    "nicholson": Nicholson(gamma=1.0, p_rate=50.0, x0_size=1.0, tau=1.0),
    "quadratic": QuadraticBD(k=3.0, mu=1.0, lam=-2.0, tau=1.0),
    "generic": Generic(TaylorCoefficients(xi_x=-0.5, xi_y=-2.0, xi_xx=0.3, xi_yy=0.1,
                                          xi_xxx=-1.0, xi_xyy=0.2, tau=1.0)),
}


# eta = 0.01 decays without oscillating, 0.9 oscillates or grows, 1.5 grows;
# nicholson_mu2 is Nicholson's own route, and None for every other model
@pytest.mark.parametrize("eta", [0.01, 0.9, 1.5])
@pytest.mark.parametrize("name", _RECORD_SPECS)
def test_analysis_is_the_layer_calls(name, eta):
    spec = _RECORD_SPECS[name]
    coeffs = taylor_coefficients(spec)
    hopf = critical_eta(coeffs)
    lyap = mu2_center_manifold(coeffs, hopf)
    assert analysis(spec, eta) == Analysis(
        model={"variant": spec.variant}, equilibrium=equilibrium(spec),
        taylor_coefficients=coeffs, hopf=hopf, convergence=rate_of_convergence(coeffs, eta),
        lyapunov=lyap, mu2_closed_form=mu2_closed_form(coeffs),
        nicholson_mu2=nicholson_mu2(spec) if name == "nicholson" else None,
        classification={"direction": lyap.direction, "cycle_stability": lyap.cycle_stability,
                        "eta": eta, "stability_at_eta": stability_verdict(coeffs, eta)})


def test_analysis_type_hints_resolve():
    # the convergence field is hinted through the package, so resolving it
    # loads convergence, which importing hopf does not
    assert typing.get_type_hints(Analysis)["convergence"] is ConvergenceReport


def test_analysis_raises_what_critical_eta_raises():
    # theta/(tau*s) is about 3.7e-324, a subnormal eta_c
    spec = Generic(TaylorCoefficients(xi_x=-2.3639950806725393e+227,
                                      xi_y=-3.724565895976643e+227,
                                      tau=2.0272313340593294e+96))
    with pytest.raises(InvalidSpec) as direct:
        critical_eta(taylor_coefficients(spec))
    with pytest.raises(InvalidSpec) as record:
        analysis(spec)
    assert str(record.value) == str(direct.value) == \
        "eta_c = 5e-324 is outside the normal float range"
