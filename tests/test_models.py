"""Model definitions: equilibria, Taylor tables, validation, rhs evaluation."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaybif import (
    CubicBD,
    Generic,
    InvalidSpec,
    InvariantViolation,
    Nicholson,
    NoEquilibrium,
    QuadraticBD,
    TaylorCoefficients,
    delay_of,
    equilibrium,
    quadratic_roots,
    rhs,
    taylor_coefficients,
)

from _oracles import EX1_A, EX1_EPS, EX1_XE, EX2_A, EX2_EPS, EX2_XE


# --- equilibria ------------------------------------------------------------

def test_cubic_equilibrium_first_set(ex1_spec):
    rep = equilibrium(ex1_spec)
    assert rep.x_e == pytest.approx(EX1_XE, abs=1e-12)
    assert rep.residual < 1e-10


def test_cubic_equilibrium_second_set(ex2_spec):
    rep = equilibrium(ex2_spec)
    assert rep.x_e == pytest.approx(EX2_XE, abs=1e-12)
    assert rep.residual < 1e-10


@given(k=st.floats(0.5, 20.0), mu=st.floats(-3.0, 3.0),
       lam=st.floats(-10.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_cubic_equilibrium_residual_property(k, mu, lam):
    if k <= mu:
        k = mu + 0.5
    spec = CubicBD(k=k, mu=mu, lam=lam, tau=0.3)
    rep = equilibrium(spec)
    assert rep.residual < 1e-8 * max(1.0, abs(rep.x_e) ** 3)


def test_equilibrium_is_rhs_zero(ex1_spec, ex2_spec, nich_spec):
    for spec in (ex1_spec, ex2_spec, nich_spec):
        x_e = equilibrium(spec).x_e
        assert rhs(spec, x_e, x_e) == pytest.approx(0.0, abs=1e-9)


def test_nicholson_equilibrium(nich_spec):
    q = math.log(nich_spec.p_rate / nich_spec.gamma)
    rep = equilibrium(nich_spec)
    assert rep.x_e == pytest.approx(nich_spec.x0_size * q, rel=1e-14)
    assert rep.residual < 1e-12


def test_generic_equilibrium_is_origin(wright_coeffs):
    rep = equilibrium(Generic(wright_coeffs))
    assert rep.x_e == 0.0
    assert rep.residual == 0.0


# --- quadratic root selection ---------------------------------------------

def test_quadratic_roots_order_and_residual():
    spec = QuadraticBD(k=6.0, mu=1.0, lam=-7.0, tau=0.5)
    hi, lo = quadratic_roots(spec)
    assert hi > lo
    for x in (hi, lo):
        assert x * x + (spec.k - spec.mu) * x + spec.lam == pytest.approx(
            0.0, abs=1e-10)


def test_quadratic_equilibrium_takes_larger_root():
    spec = QuadraticBD(k=6.0, mu=1.0, lam=-7.0, tau=0.5)
    hi, _ = quadratic_roots(spec)
    assert equilibrium(spec).x_e == pytest.approx(hi, rel=1e-14)


def test_quadratic_no_real_equilibrium():
    spec = QuadraticBD(k=2.0, mu=1.0, lam=10.0, tau=0.5)
    with pytest.raises(NoEquilibrium):
        quadratic_roots(spec)
    with pytest.raises(NoEquilibrium):
        equilibrium(spec)


def test_quadratic_no_analyzable_root():
    # both roots of x^2 + x + 0.24 sit at negative slope a = 2x - mu < 0
    spec = QuadraticBD(k=1.0, mu=0.0, lam=0.24, tau=0.5)
    with pytest.raises(InvariantViolation):
        equilibrium(spec)


# --- Taylor coefficient tables --------------------------------------------

def test_cubic_taylor_table_first_set(ex1_coeffs, ex1_spec):
    c = ex1_coeffs
    assert c.a == pytest.approx(EX1_A, rel=1e-13)
    assert c.b == ex1_spec.k
    assert c.epsilon == pytest.approx(EX1_EPS, rel=1e-13)
    assert c.xi_xx == pytest.approx(-3.0 * EX1_XE, rel=1e-13)
    assert c.xi_xxx == -1.0
    assert c.xi_xy == 0.0 and c.xi_yy == 0.0
    assert c.tau == ex1_spec.tau


def test_cubic_taylor_table_second_set(ex2_coeffs):
    assert ex2_coeffs.a == pytest.approx(EX2_A, rel=1e-13)
    assert ex2_coeffs.b == 4.75
    assert ex2_coeffs.epsilon == pytest.approx(EX2_EPS, rel=1e-13)


def _fd1(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _fd2(f, x, h):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def _fd3(f, x, h):
    return (f(x + 2*h) - 2.0 * f(x + h) + 2.0 * f(x - h) - f(x - 2*h)) / (2.0 * h ** 3)


def test_cubic_taylor_matches_finite_differences(ex1_spec):
    x_e = equilibrium(ex1_spec).x_e
    c = taylor_coefficients(ex1_spec)
    h = 1e-4 * max(1.0, abs(x_e))
    fx = _fd1(lambda x: rhs(ex1_spec, x, x_e), x_e, h)
    fy = _fd1(lambda y: rhs(ex1_spec, x_e, y), x_e, h)
    fxx = _fd2(lambda x: rhs(ex1_spec, x, x_e), x_e, h)
    assert c.xi_x == pytest.approx(fx, rel=1e-6)
    assert c.xi_y == pytest.approx(fy, rel=1e-6)
    # second and third instantaneous derivatives carry 1/2! and 1/3!
    assert c.xi_xx == pytest.approx(fxx / 2.0, rel=1e-6)
    fxxx = _fd3(lambda x: rhs(ex1_spec, x, x_e), x_e, 1e-2)
    assert c.xi_xxx == pytest.approx(fxxx / 6.0, rel=1e-3)


def test_quadratic_taylor_matches_finite_differences():
    spec = QuadraticBD(k=6.0, mu=1.0, lam=-7.0, tau=0.5)
    x_e = equilibrium(spec).x_e
    c = taylor_coefficients(spec)
    h = 1e-4 * max(1.0, abs(x_e))
    assert c.xi_x == pytest.approx(_fd1(lambda x: rhs(spec, x, x_e), x_e, h),
                                   rel=1e-6)
    assert c.xi_y == pytest.approx(-spec.k, rel=1e-14)
    assert c.xi_xx == pytest.approx(
        _fd2(lambda x: rhs(spec, x, x_e), x_e, h) / 2.0, rel=1e-6)
    assert c.xi_xx == -1.0


def test_nicholson_taylor_linear_part(nich_spec):
    x_e = equilibrium(nich_spec).x_e
    c = taylor_coefficients(nich_spec)
    h = 1e-4 * max(1.0, abs(x_e))
    assert c.xi_x == pytest.approx(_fd1(lambda x: rhs(nich_spec, x, x_e), x_e, h),
                                   rel=1e-6)
    assert c.xi_y == pytest.approx(_fd1(lambda y: rhs(nich_spec, x_e, y), x_e, h),
                                   rel=1e-6)
    q = math.log(nich_spec.p_rate / nich_spec.gamma)
    assert c.a == pytest.approx(nich_spec.gamma, rel=1e-14)
    assert c.b == pytest.approx(nich_spec.gamma * (q - 1.0), rel=1e-14)
    assert c.epsilon == pytest.approx(1.0 / (q - 1.0), rel=1e-13)


def test_nicholson_taylor_stores_plain_derivatives(nich_spec):
    # The birth-rate table keeps the unscaled second and third delayed
    # derivatives (no 1/2!, 1/6 factors).  The specialized Lyapunov shape
    # function is calibrated against exactly this table, and
    # test_hopf.py::test_nicholson_consistent_with_general_form holds only
    # because both sides use it.
    x_e = equilibrium(nich_spec).x_e
    c = taylor_coefficients(nich_spec)
    h = 1e-4 * max(1.0, abs(x_e))
    fyy = _fd2(lambda y: rhs(nich_spec, x_e, y), x_e, h)
    fyyy = _fd3(lambda y: rhs(nich_spec, x_e, y), x_e, 1e-2)
    assert c.xi_yy == pytest.approx(fyy, rel=1e-6)
    assert c.xi_yyy == pytest.approx(fyyy, rel=1e-3)


def test_generic_taylor_passthrough(wright_coeffs):
    assert taylor_coefficients(Generic(wright_coeffs)) is wright_coeffs


# --- validation ------------------------------------------------------------

def test_cubic_rejects_weak_delayed_feedback():
    with pytest.raises(InvalidSpec, match="k > mu required"):
        CubicBD(k=1.0, mu=2.0, lam=0.0, tau=0.1)
    with pytest.raises(InvalidSpec, match="k > 0 required"):
        CubicBD(k=-1.0, mu=-2.0, lam=0.0, tau=0.1)
    with pytest.raises(InvalidSpec, match="tau > 0 required"):
        CubicBD(k=2.0, mu=1.0, lam=0.0, tau=0.0)


def test_nicholson_rejects_subcritical_birth_rate():
    with pytest.raises(InvalidSpec):
        Nicholson(gamma=1.0, p_rate=2.0, x0_size=1.0, tau=1.0)
    with pytest.raises(InvalidSpec):
        Nicholson(gamma=1.0, p_rate=-3.0, x0_size=1.0, tau=1.0)


def test_taylor_cone_validation():
    with pytest.raises(InvariantViolation, match="need b > a"):
        TaylorCoefficients(xi_x=-1.0, xi_y=-1.0, tau=1.0)
    with pytest.raises(InvariantViolation):
        TaylorCoefficients(xi_x=0.0, xi_y=1.0, tau=1.0)   # b < 0
    with pytest.raises(InvariantViolation):
        TaylorCoefficients(xi_x=1.0, xi_y=-2.0, tau=1.0)  # a < 0
    with pytest.raises(InvariantViolation):
        TaylorCoefficients(xi_x=0.0, xi_y=-1.0, tau=-0.5)
    with pytest.raises(InvariantViolation):
        TaylorCoefficients(xi_x=0.0, xi_y=-math.inf, tau=1.0)


def test_taylor_zero_delay_is_tolerated():
    c = TaylorCoefficients(xi_x=0.0, xi_y=-1.0, tau=0.0)
    assert c.tau == 0.0


@given(eps=st.floats(0.0, 0.95), b=st.floats(0.1, 5.0),
       tau=st.floats(0.01, 3.0))
@settings(max_examples=60, deadline=None)
def test_taylor_cone_accepts_valid_sets(eps, b, tau):
    c = TaylorCoefficients(xi_x=-eps * b, xi_y=-b, tau=tau)
    assert c.a == pytest.approx(eps * b)
    assert c.epsilon == pytest.approx(eps, abs=1e-12)


# --- rhs and delay accessors ----------------------------------------------

def test_rhs_gain_scaling(ex1_spec):
    assert rhs(ex1_spec, 0.5, 0.7, eta=2.0) == pytest.approx(
        2.0 * rhs(ex1_spec, 0.5, 0.7), rel=1e-14)


def test_generic_rhs_is_taylor_polynomial():
    c = TaylorCoefficients(xi_x=-0.5, xi_y=-2.0, xi_xx=0.3, xi_xy=-0.2,
                           xi_yy=0.1, xi_xxx=-0.4, xi_xxy=0.05, xi_xyy=-0.06,
                           xi_yyy=0.07, tau=1.0)
    u, v = 0.3, -0.2
    expect = (c.xi_x * u + c.xi_y * v + c.xi_xx * u * u + c.xi_xy * u * v
              + c.xi_yy * v * v + c.xi_xxx * u ** 3 + c.xi_xxy * u * u * v
              + c.xi_xyy * u * v * v + c.xi_yyy * v ** 3)
    assert rhs(Generic(c), u, v) == pytest.approx(expect, rel=1e-14)


def test_delay_of_every_variant(ex1_spec, nich_spec, wright_coeffs):
    assert delay_of(ex1_spec) == ex1_spec.tau
    assert delay_of(nich_spec) == nich_spec.tau
    assert delay_of(Generic(wright_coeffs)) == wright_coeffs.tau
    assert delay_of(QuadraticBD(k=6.0, mu=1.0, lam=-7.0, tau=0.5)) == 0.5


@pytest.mark.parametrize("spec", [
    CubicBD(k=9.0, mu=1.0, lam=-7.0, tau=0.187),
    QuadraticBD(k=6.0, mu=1.0, lam=-7.0, tau=0.5),
    Nicholson(gamma=1.0, p_rate=50.0, x0_size=1.0, tau=1.0),
    Generic(TaylorCoefficients(xi_x=-0.5, xi_y=-2.0, xi_xx=0.3, xi_xy=-0.2,
                               xi_yy=0.1, xi_xxx=-0.4, xi_xxy=0.05,
                               xi_xyy=-0.06, xi_yyy=0.07, tau=2.0)),
], ids=lambda spec: spec.variant)
def test_public_functions_delegate_to_the_spec(spec):
    assert equilibrium(spec) == spec.equilibrium()
    assert taylor_coefficients(spec) == spec.taylor_coefficients()
    assert delay_of(spec) == spec.tau
    for eta in (0.5, 1.5):
        f = spec.field(eta)
        for x, xd in ((0.3, -0.2), (2.1, 1.7), (-1.5, 0.4)):
            assert f(x, xd) == rhs(spec, x, xd, eta) == spec.rhs(x, xd, eta)
    # a coefficient set is not a model, although it carries a delay
    for bad in (spec.taylor_coefficients(), "cubic"):
        for fn in (equilibrium, taylor_coefficients, delay_of):
            with pytest.raises(InvalidSpec):
                fn(bad)
        with pytest.raises(InvalidSpec):
            rhs(bad, 0.3, -0.2)


_COEFF = st.floats(-10.0, 10.0, allow_nan=False)


@given(c=st.tuples(*[_COEFF] * 7), u=_COEFF, v=_COEFF,
       eta=st.floats(0.01, 100.0))
@settings(max_examples=100, deadline=None)
def test_generic_horner_field_matches_term_by_term(c, u, v, eta):
    xi_xx, xi_xy, xi_yy, xi_xxx, xi_xxy, xi_xyy, xi_yyy = c
    coeffs = TaylorCoefficients(xi_x=-0.5, xi_y=-2.0, xi_xx=xi_xx, xi_xy=xi_xy,
                                xi_yy=xi_yy, xi_xxx=xi_xxx, xi_xxy=xi_xxy,
                                xi_xyy=xi_xyy, xi_yyy=xi_yyy, tau=1.0)
    # the oracle: the Taylor polynomial written out term by term
    terms = [-0.5 * u, -2.0 * v, xi_xx * u * u, xi_xy * u * v, xi_yy * v * v,
             xi_xxx * u * u * u, xi_xxy * u * u * v, xi_xyy * u * v * v,
             xi_yyy * v * v * v]
    expect = eta * math.fsum(terms)
    # relative to the terms' magnitude, the only scale a sum that may
    # cancel to 0 has
    scale = eta * math.fsum(map(abs, terms))
    assert abs(Generic(coeffs).field(eta)(u, v) - expect) <= 1e-13 * scale
