"""Model definitions: equilibria, Taylor tables, validation, rhs evaluation."""
import dataclasses
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
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

from _oracles import CUBIC_CANCELLING_XE, EX1_A, EX1_EPS, EX1_XE, EX2_A, EX2_EPS, EX2_XE


# --- equilibria ------------------------------------------------------------

def test_cubic_equilibrium_first_set(ex1_spec):
    rep = equilibrium(ex1_spec)
    assert rep.x_e == pytest.approx(EX1_XE, abs=1e-12)
    assert rep.residual < 1e-10


def test_cubic_equilibrium_second_set(ex2_spec):
    rep = equilibrium(ex2_spec)
    assert rep.x_e == pytest.approx(EX2_XE, abs=1e-12)
    assert rep.residual < 1e-10


def _within_ulps(spec, x, ulps=2):
    """True if the real root of x^3 + (k - mu) x + lam lies within ulps
    floats of x: the cubic, evaluated exactly, changes sign there."""
    c1, lam = Fraction(spec.k) - Fraction(spec.mu), Fraction(spec.lam)
    lo = hi = x
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    lo, hi = Fraction(lo), Fraction(hi)
    return lo ** 3 + c1 * lo + lam <= 0 <= hi ** 3 + c1 * hi + lam


@given(k=st.floats(0.5, 20.0), mu=st.floats(-3.0, 3.0),
       lam=st.floats(-1e300, 1e300))
@settings(max_examples=60, deadline=None)
def test_cubic_equilibrium_residual_property(k, mu, lam):
    if k <= mu:
        k = mu + 0.5
    spec = CubicBD(k=k, mu=mu, lam=lam, tau=0.3)
    rep = equilibrium(spec)
    assert rep.residual < 1e-8 * max(1.0, abs(rep.x_e) ** 3)
    assert _within_ulps(spec, rep.x_e)


@pytest.mark.parametrize("k, lam", [(2.0, -1e20), (2.0, -1e100), (2.0, -1e200),
                                    (2.0, 1e300), (2.0, -1.7e308), (1e308, 1e308)])
def test_cubic_equilibrium_at_large_lam(k, lam):
    # 200 halvings of a bracket 2(1 + |lam| + k) wide stopped far from the
    # root (lam = -1e100 gave 1.84e39 for a root at 2.15e33), and a product
    # of two cubic values overflowed to NaN; at k = lam = 1e308 the bracket
    # itself overflows
    spec = CubicBD(k=k, mu=1.0, lam=lam, tau=1.0)
    x_e = equilibrium(spec).x_e
    assert math.isfinite(x_e) and _within_ulps(spec, x_e)


@pytest.mark.parametrize("k, mu", [(5e-324, 0.0), (1e-300, 0.0), (1e-100, 0.0), (2.0, 1.0),
                                   (1e100, 1.0), (1e300, 0.0), (1e308, 0.0)])
@pytest.mark.parametrize("lam", [0.0, 1.0, 1e-300, -1e-300, 1e300, -1e300])
def test_cubic_equilibrium_over_the_float_range(k, mu, lam):
    # c1 = k - mu = 5e-324 underflows to 0 in c1/3, and at c1 = 1e-300,
    # |lam| = 1e300 lam/(2 s^3) overflows: both start Newton from -cbrt(lam);
    # at c1 = 1e308, lam = 1 w underflows to 0, and Newton from 0 needs the
    # split of c1, which overflows unless it is scaled
    spec = CubicBD(k=k, mu=mu, lam=lam, tau=1.0)
    x_e = equilibrium(spec).x_e
    assert math.isfinite(x_e) and _within_ulps(spec, x_e)


def test_cubic_equilibrium_where_c1_x_cancels_lam():
    # the float residual x^3 + c1 x + lam carried an error of about
    # ulp(lam), which moved Newton's fixed point 3 ulps, to 0.06209810673104961
    x_e = CubicBD(k=6.342023506695012, mu=-1.789468281761974, lam=-0.5051897061202594,
                  tau=1.0).equilibrium().x_e
    assert abs(Fraction(x_e) - Fraction(Decimal(CUBIC_CANCELLING_XE))) <= math.ulp(x_e)


def test_cubic_equilibrium_at_a_subnormal_lam():
    # lam/(2s) was subnormal and c1*x + lam quantized to 5e-324, which gave
    # -4.94068268e-314 for the root -4.9406564584e-314
    spec = CubicBD(k=1e-10, mu=0.0, lam=5e-324, tau=1.0)
    assert _within_ulps(spec, spec.equilibrium().x_e, ulps=1)


def test_cubic_equilibria_over_subnormal_lam():
    # c1 log-uniform over 1e-300..1e300 and lam a multiple of 5e-324 below
    # 2^40 times it: an unscaled solve put 456 of these 3,000 more than 2
    # ulps from the root
    rng = random.Random(1)
    specs = [CubicBD(k=math.exp(rng.uniform(math.log(1e-300), math.log(1e300))), mu=0.0,
                     lam=rng.choice((-1.0, 1.0)) * rng.randrange(1, 2 ** 40) * 5e-324, tau=1.0)
             for _ in range(3000)]
    assert [spec for spec in specs if not _within_ulps(spec, spec.equilibrium().x_e)] == []


def test_zero_equilibria_are_positive_zero():
    assert repr(equilibrium(CubicBD(k=2.0, mu=1.0, lam=0.0, tau=1.0)).x_e) == "0.0"
    assert repr(quadratic_roots(QuadraticBD(k=2.0, mu=1.0, lam=0.0, tau=1.0))[0]) == "0.0"


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


# --- the stability cone ---------------------------------------------------

_LOG_UNIFORM = st.floats(math.log(1e-300), math.log(1e300)).map(math.exp)


@st.composite
def _cone_points(draw):
    """0 <= a < b with b log-uniform over 1e-300..1e300 and a zero,
    log-uniform below b, or within 2^20 ulps of b."""
    lo, b = sorted((draw(_LOG_UNIFORM), draw(_LOG_UNIFORM)))
    a = draw(st.one_of(st.just(0.0), st.just(lo),
                       st.integers(1, 2 ** 20).map(lambda n: b - n * math.ulp(b))))
    assume(a < b)
    return a, b


def _removed_spellings(a, b):
    """The three spellings of the cone the accessors replace, as written:
    the stability limit (theta, s) of critical_eta, the r of
    stability_verdict, and the (1 - e^2, r, theta) of the closed-form mu2."""
    e = a / b
    r = math.sqrt((b - a) / b * (1.0 + e))
    limit = (math.atan2(r, -e), b * r)
    verdict_r = math.sqrt((b - a) / b * (1.0 + a / b))
    one_e2 = (b - a) / b * (1.0 + e)
    return limit, verdict_r, (one_e2, math.sqrt(one_e2), limit[0])


def _bits(*values):
    return [value.hex() for value in values]


@given(point=_cone_points())
@settings(max_examples=300, deadline=None)
def test_cone_accessors_equal_the_spellings_they_replace(point):
    a, b = point
    c = TaylorCoefficients(xi_x=-a, xi_y=-b)
    limit, verdict_r, eps_parts = _removed_spellings(a, b)
    assert _bits(c.theta, c.b * c.r) == _bits(*limit)
    assert _bits(c.r) == _bits(verdict_r)
    assert _bits(c.one_minus_e2, c.r, c.theta) == _bits(*eps_parts)


def test_cone_accessors_are_no_fields():
    c, fresh = TaylorCoefficients(xi_x=-0.5, xi_y=-2.0), TaylorCoefficients(xi_x=-0.5, xi_y=-2.0)
    assert c.theta == pytest.approx(math.acos(-0.25), rel=1e-15)
    assert c == fresh and hash(c) == hash(fresh)
    assert dataclasses.asdict(c) == dataclasses.asdict(fresh)
    # a generic model's constants are the coefficients alone
    assert Generic(c).constants() == Generic(fresh).constants()
    assert Generic(c).rhs(0.1, 0.2, 1.0) == Generic(fresh).rhs(0.1, 0.2, 1.0)


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


def test_quadratic_small_root_beside_a_large_one():
    # (-c1 + sqrt(disc))/2 cancelled to 9.999985195463523e-08 here, a
    # residual of 1.5e-9
    spec = QuadraticBD(k=1e4, mu=1e-7, lam=-1e-3, tau=1.0)
    assert equilibrium(spec).residual < 1e-18


def test_quadratic_tiny_root_is_analyzable():
    # the cancelled larger root gave a = 2x - mu < 0, and so InvariantViolation
    spec = QuadraticBD(k=1e6, mu=1e-13, lam=-1e-6, tau=1.0)
    assert equilibrium(spec).x_e == 1e-12
    assert taylor_coefficients(spec).a >= 0.0


def test_quadratic_root_where_the_discriminant_overflows():
    # c1*c1 - 4 lam overflowed to inf, which gave the roots (0.0, -inf)
    spec = QuadraticBD(k=1e200, mu=-1.0, lam=-1.0, tau=1.0)
    assert quadratic_roots(spec) == (1e-200, -1e200)
    report = equilibrium(spec)
    assert (report.x_e, report.residual) == (1e-200, 0.0)


def test_quadratic_outside_the_cone_where_the_discriminant_overflows():
    # both roots, -1e-200 and -1e200, sit at a = 2x < 0; the overflowed
    # discriminant had reported x_e = 0.0
    spec = QuadraticBD(k=1e200, mu=0.0, lam=1.0, tau=1.0)
    with pytest.raises(InvariantViolation):
        equilibrium(spec)


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


@pytest.mark.parametrize("cls, lam", [(CubicBD, 1.0), (QuadraticBD, -1.0)])
def test_overflowing_k_minus_mu_is_invalid(cls, lam):
    # k - mu = inf had given the cubic x_e = -1.0 with residual inf, and the
    # quadratic the roots (0.0, -inf)
    with pytest.raises(InvalidSpec, match="k - mu must be finite"):
        cls(k=1e308, mu=-1e308, lam=lam, tau=1.0)


def test_polynomial_oscillators_share_one_set_of_dataclass_methods():
    # CubicBD and QuadraticBD add no field: _DelayedPolynomial's generated
    # methods serve both, and equality still tells the classes apart
    cubic = CubicBD(k=9.0, mu=1.0, lam=-7.0, tau=0.187)
    quadratic = QuadraticBD(9.0, 1.0, -7.0, 0.187)
    assert repr(cubic) == "CubicBD(k=9.0, mu=1.0, lam=-7.0, tau=0.187)"
    assert repr(quadratic) == "QuadraticBD(k=9.0, mu=1.0, lam=-7.0, tau=0.187)"
    assert cubic == CubicBD(k=9.0, mu=1.0, lam=-7.0, tau=0.187) and cubic != quadratic
    assert hash(cubic) == hash(CubicBD(k=9.0, mu=1.0, lam=-7.0, tau=0.187))
    assert [f.name for f in dataclasses.fields(quadratic)] == ["k", "mu", "lam", "tau"]
    moved = dataclasses.replace(quadratic, tau=1.0)
    assert type(moved) is QuadraticBD and moved.tau == 1.0
    for spec in (cubic, quadratic):
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.tau = 1.0
    # the inherited guard covers the fields only, so an attribute of another
    # name may be set; nothing reads one from the instance: the compiled
    # field takes the class's expression, and equality the fields
    shadowed = CubicBD(k=9.0, mu=1.0, lam=-7.0, tau=0.187)
    shadowed.expression = "x"
    assert shadowed == cubic
    assert shadowed.field(1.0)(0.5, 0.25) == cubic.field(1.0)(0.5, 0.25) != 0.5


def test_nicholson_rejects_subcritical_birth_rate():
    with pytest.raises(InvalidSpec):
        Nicholson(gamma=1.0, p_rate=2.0, x0_size=1.0, tau=1.0)
    with pytest.raises(InvalidSpec):
        Nicholson(gamma=1.0, p_rate=-3.0, x0_size=1.0, tau=1.0)


_VALID_FIELDS = {
    CubicBD: dict(k=2.0, mu=1.0, lam=0.5, tau=1.0),
    QuadraticBD: dict(k=6.0, mu=1.0, lam=-7.0, tau=0.5),
    Nicholson: dict(gamma=1.0, p_rate=50.0, x0_size=1.0, tau=1.0),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls, field", [
    (cls, field) for cls, fields in _VALID_FIELDS.items() for field in fields])
def test_constructors_reject_non_finite_fields(cls, field, value):
    # every comparison with NaN is false, and an infinite lam or tau passed
    # the sign checks: CubicBD(lam=nan) had reported x_e = nan
    cls(**_VALID_FIELDS[cls])
    with pytest.raises(InvalidSpec, match=f"^{field} must be finite"):
        cls(**{**_VALID_FIELDS[cls], field: value})



@pytest.mark.parametrize("x0_size, name", [
    (1e200, "x0_size squared"),   # the square overflows
    (1e-200, "x0_size squared"),  # the square underflows to 0
    (1.3e154, "xi_yyy"),          # gamma / x0_size^2 is subnormal
])
def test_nicholson_coefficients_outside_the_float_range_are_invalid(x0_size, name):
    spec = Nicholson(gamma=1.0, p_rate=50.0, x0_size=x0_size, tau=1.0)
    with pytest.raises(InvalidSpec, match=name):
        spec.taylor_coefficients()


def test_nicholson_coefficient_may_be_exactly_zero():
    # q = ln(p_rate/gamma) = 3 exactly: xi_yyy = 0 is exact, not an underflow
    spec = Nicholson(gamma=1.0, p_rate=math.exp(3.0), x0_size=1.0, tau=1.0)
    assert math.log(spec.p_rate / spec.gamma) == 3.0
    assert spec.taylor_coefficients().xi_yyy == 0.0

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
