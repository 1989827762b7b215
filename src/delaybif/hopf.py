"""First Lyapunov coefficient and Hopf classification.

Two independent routes to the coefficient mu2 are provided: a closed-form
rational-trigonometric expression in (b, epsilon) and the quadratic/cubic
Taylor coefficients, and a step-by-step center-manifold reduction carried
out in complex double precision.  The closed form is per unit relative gain
and the reduction per unit absolute gain, so at any delay the closed form
equals the center-manifold mu2 divided by eta_c; the test suite pins this
down to 1e-12 relative over random coefficient sets.

Models with a single nonlinear argument are expressed through shape
functions of epsilon alone.  g_tilde and h_tilde (quadratic and cubic
self-coupling) and the two specializations built on them evaluate the
closed form on a restricted coefficient set.  nicholson_mu2_shape, the
exponential birth-rate model's shape, is derived by hand, independently of
the closed form.
"""
from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .chareq import HopfPoint
from .errors import DegenerateEpsilon, InvalidSpec
from .models import Nicholson, TaylorCoefficients, _normal

__all__ = [
    "DEGENERACY_THRESHOLD",
    "Direction",
    "CycleStability",
    "LyapunovReport",
    "mu2_closed_form",
    "mu2_center_manifold",
    "g_tilde",
    "h_tilde",
    "mu2_cubic_specialization",
    "mu2_quadratic_specialization",
    "nicholson_mu2",
    "nicholson_mu2_shape",
    "classify",
]

DEGENERACY_THRESHOLD = 1e-8


class Direction(enum.Enum):
    SUPERCRITICAL = "Supercritical"
    SUBCRITICAL = "Subcritical"
    DEGENERATE = "Degenerate"


class CycleStability(enum.Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class LyapunovReport:
    """Output of the center-manifold reduction at a Hopf point.

    mu2 decides the bifurcation direction (positive: supercritical) and
    beta2 the Floquet stability of the emerging cycle (negative: stable).
    Both derive from Re c1_0, so mu2 = -Re(c1_0)/alpha_prime and
    beta2 = 2 Re(c1_0) hold by construction, as does
    beta2 = -2 mu2 alpha_prime.  The complex intermediates g20, g11, g02,
    g21, the normalization D and the manifold correction constants E, F are
    retained for inspection.
    """

    mu2: float
    beta2: float
    c1_0: complex
    alpha_prime: float
    g20: complex
    g11: complex
    g02: complex
    g21: complex
    D: complex
    E: complex
    F: complex
    direction: Direction
    cycle_stability: CycleStability


def _checked_epsilon(e: float) -> float:
    if not 0.0 <= e < 1.0:
        raise DegenerateEpsilon(f"epsilon = a/b must lie in [0, 1), got {e!r}")
    return e


def mu2_closed_form(coeffs: TaylorCoefficients) -> float:
    """First Lyapunov coefficient from the closed-form expression.

    The value is a rational-trigonometric function of epsilon = a/b scaled
    by powers of b, with one brace collecting the six quadratic-coefficient
    products and one the four cubic coefficients.  1 - e^2, sqrt(1 - e^2)
    and arccos(-e) are the cone of TaylorCoefficients, taken from (b - a)/b,
    so the value keeps its digits at the cone edge a -> b.

    It is mu2_center_manifold's mu2 divided by eta_c: per unit relative
    gain, so the cycle just above onset has amplitude^2 close to
    4*(eta/eta_c - 1)/mu2_closed_form.

    Parameters
    ----------
    coeffs : TaylorCoefficients
        Expansion of the right-hand side about the equilibrium.

    Returns
    -------
    float
        mu2.  Positive means the Hopf bifurcation is supercritical.

    Raises
    ------
    InvalidSpec
        If mu2 leaves the normal float range, as it can at extreme b.
    """
    b, e = coeffs.b, coeffs.epsilon
    one_e2, ck, ht = coeffs.one_minus_e2, coeffs.r, coeffs.theta
    xx, xy, yy = coeffs.xi_xx, coeffs.xi_xy, coeffs.xi_yy
    xxx, xxy, xyy, yyy = coeffs.xi_xxx, coeffs.xi_xxy, coeffs.xi_xyy, coeffs.xi_yyy
    quad = (
        xx * xx * (ck * (12 * e - 18) + ht * (8 * e**2 - 18 * e + 4))
        + xy * xy * (ck * (4 * e**3 - 14 * e**2 + 11 * e - 1)
                     + ht * (-8 * e**3 + 12 * e**2 - 7 * e + 3))
        + yy * yy * (ck * (-8 * e**3 - 8 * e**2 + 26 * e - 4)
                     + ht * (-4 * e**2 - 12 * e + 22))
        + xy * xx * (ck * (-18 * e**2 + 33 * e - 9)
                     + ht * (-8 * e**3 + 26 * e**2 - 19 * e + 7))
        + xy * yy * (ck * (8 * e**4 + 8 * e**3 - 32 * e**2 + 19 * e - 9)
                     + ht * (4 * e**3 + 20 * e**2 - 37 * e + 7))
        + xx * yy * (ck * (-12 * e**2 + 30 * e - 18)
                     + ht * (16 * e**2 - 30 * e + 14))
    )
    cub = (
        xxx * (-3 * ck - 3 * ht * e)
        + xyy * (-ck * (1 + 2 * e * e) - 3 * ht * e)
        + xxy * (3 * ck * e + ht * (1 + 2 * e * e))
        + yyy * (3 * ck * e + 3 * ht)
    )
    return _normal(quad / b / (b * (1 + e) * one_e2 * ht * (5 - 4 * e))
                   + cub / (b * one_e2 * ht), not any(coeffs.as_tuple()[2:9]))


def mu2_center_manifold(coeffs: TaylorCoefficients,
                        hopf: HopfPoint) -> LyapunovReport:
    """Center-manifold reduction at the Hopf point.

    Carries the critical gain eta_c and frequency omega0 from `hopf`
    through the projection constant D, the quadratic coefficients g20, g11,
    g02, the manifold corrections w20/w11 via E and F, and the resonant
    cubic coefficient g21 (pure single-delay form), then assembles

        c1(0) = (i/(2 omega0)) (g20 g11 - 2|g11|^2 - |g02|^2/3) + g21/2
        mu2   = -Re c1(0) / alpha'(0)
        beta2 = 2 Re c1(0)

    mu2 is per unit absolute gain: the cycle just above onset has
    amplitude^2 close to 4*(eta - eta_c)/mu2.  It is mu2_closed_form times
    eta_c.

    Parameters
    ----------
    coeffs : TaylorCoefficients
        Expansion of the right-hand side about the equilibrium.
    hopf : HopfPoint
        Critical point of the same coefficient set, from critical_eta.

    Returns
    -------
    LyapunovReport

    Raises
    ------
    InvalidSpec
        If mu2 leaves the normal float range, or the complex arithmetic of
        the reduction overflows or divides by zero on the way to it.
    """
    xi_x, xi_y = coeffs.xi_x, coeffs.xi_y
    xi_xx, xi_xy, xi_yy = coeffs.xi_xx, coeffs.xi_xy, coeffs.xi_yy
    xi_xxx, xi_xxy = coeffs.xi_xxx, coeffs.xi_xxy
    xi_xyy, xi_yyy = coeffs.xi_xyy, coeffs.xi_yyy
    tau = coeffs.tau
    eta = hopf.eta_c
    w0 = hopf.omega0
    try:
        # the one trigonometric evaluation of omega0*tau everything shares
        B = cmath.exp(-1j * w0 * tau)
        Bc = B.conjugate()
        D = 1.0 / (1.0 + eta * tau * xi_y * Bc)
        Dc = D.conjugate()
        g20 = Dc * eta * (2 * xi_xx + 2 * xi_xy * B + 2 * xi_yy * B * B)
        g11 = Dc * eta * (2 * xi_xx + xi_xy * (B + Bc) + 2 * xi_yy)
        g02 = Dc * eta * (2 * xi_xx + 2 * xi_xy * Bc + 2 * xi_yy * Bc * Bc)
        E = -g20 / (Dc * (eta * xi_x + eta * xi_y * B * B - 2j * w0))
        F = -g11 / (Dc * eta * (xi_y + xi_x))
        # the manifold corrections w20(theta) = -p20 e - p02 / e + E e^2 and
        # w11(theta) = p11 e - p11c / e + F, e = e^(i omega0 theta), at
        # theta = 0, where e = 1, and at theta = -tau, where e = B
        p20, p02 = g20 / (1j * w0), g02.conjugate() / (3j * w0)
        p11, p11c = g11 / (1j * w0), g11.conjugate() / (1j * w0)
        w20_0, w20_t = -p20 - p02 + E, -p20 * B - p02 / B + E * B * B
        w11_0, w11_t = p11 - p11c + F, p11 * B - p11c / B + F
        g21 = Dc * eta * (
            2 * xi_xx * (2 * w11_0 + w20_0)
            + xi_xy * (2 * w11_0 * B + w20_0 * Bc + 2 * w11_t + w20_t)
            + xi_yy * (4 * w11_t * B + 2 * w20_t * Bc)
            + 6 * xi_xxx
            + xi_xyy * (2 * B * B + 4)
            + xi_xxy * (2 * Bc + 4 * B)
            + 6 * xi_yyy * B
        )
        c1 = ((1j / (2 * w0))
              * (g20 * g11 - 2 * abs(g11) * abs(g11) - abs(g02) * abs(g02) / 3.0)
              + g21 / 2.0)
    except (OverflowError, ZeroDivisionError) as exc:
        # abs() of an overflowing complex raises, as does a division by a
        # product that underflows to 0
        raise InvalidSpec(f"mu2 is outside the float range: the center-manifold "
                          f"reduction fails with {exc}") from None
    alpha_prime = hopf.alpha_prime
    mu2 = _normal(-c1.real / alpha_prime, not any(coeffs.as_tuple()[2:9]))
    beta2 = 2.0 * c1.real
    direction, cycle_stability = _classify_values(mu2, beta2)
    return LyapunovReport(mu2=mu2, beta2=beta2, c1_0=c1,
                          alpha_prime=alpha_prime, g20=g20, g11=g11,
                          g02=g02, g21=g21, D=D, E=E, F=F,
                          direction=direction,
                          cycle_stability=cycle_stability)


def g_tilde(epsilon: float) -> float:
    """Quadratic-coupling shape function of the Lyapunov coefficient.

    mu2_closed_form at b = 1, a = epsilon with xi_xx = 1 its one nonlinear
    coefficient.  Negative on all of [0, 1): quadratic self-coupling alone
    always makes the bifurcation subcritical.  The b^2 scale is left to the
    caller: mu2 = (xi_xx^2 / b^2) g_tilde(eps) for a purely quadratic model.
    """
    return mu2_closed_form(TaylorCoefficients(
        xi_x=-_checked_epsilon(epsilon), xi_y=-1.0, xi_xx=1.0))


def h_tilde(epsilon: float) -> float:
    """Cubic-coupling shape function, h_tilde(0) = -6/pi: mu2_closed_form at
    b = 1, a = epsilon with xi_xxx = 1 its one nonlinear coefficient."""
    return mu2_closed_form(TaylorCoefficients(
        xi_x=-_checked_epsilon(epsilon), xi_y=-1.0, xi_xxx=1.0))


def mu2_cubic_specialization(coeffs: TaylorCoefficients) -> float:
    """mu2 for coefficient sets with only xi_xx and xi_xxx nonzero.

    Equals (xi_xx^2 / b^2) g_tilde(eps) + (xi_xxx / b) h_tilde(eps):
    mu2_closed_form on coeffs with every other nonlinear coefficient zeroed.
    """
    return mu2_closed_form(TaylorCoefficients(
        xi_x=coeffs.xi_x, xi_y=coeffs.xi_y, xi_xx=coeffs.xi_xx, xi_xxx=coeffs.xi_xxx))


def mu2_quadratic_specialization(coeffs: TaylorCoefficients) -> float:
    """mu2 for unit quadratic self-coupling, g_tilde(eps)/b^2 < 0: mu2_closed_form
    at the a and b of coeffs with xi_xx = 1 the only nonlinear coefficient."""
    return mu2_closed_form(TaylorCoefficients(xi_x=coeffs.xi_x, xi_y=coeffs.xi_y, xi_xx=1.0))


def nicholson_mu2_shape(epsilon: float, x0_size: float = 1.0) -> float:
    """Lyapunov coefficient of the exponential birth-rate model at epsilon.

    The fully simplified form, a function of epsilon alone up to the
    1/x0^2 prefactor that carries the population scale (and therefore
    never changes the sign).

    Raises
    ------
    InvalidSpec
        If x0_size squared, or mu2, is outside the normal float range.
    """
    eps = epsilon
    cone = TaylorCoefficients(xi_x=-_checked_epsilon(eps), xi_y=-1.0)
    one_e2, ck, ht = cone.one_minus_e2, cone.r, cone.theta
    first = ((1 - eps) / ((1 + eps) ** 2 * ht * (5 - 4 * eps))
             * (ck * (-8 * eps**3 - 8 * eps**2 + 26 * eps - 4)
                + ht * (-4 * eps**2 - 12 * eps + 22)))
    second = ((2 * eps - 1) / (one_e2 * ht)
              * (3 * eps * ck + 3 * ht))
    return _normal((first + second) / _normal(x0_size * x0_size, name="x0_size squared"))


def nicholson_mu2(spec: Nicholson) -> float:
    """Lyapunov coefficient of a concrete exponential birth-rate model.

    Evaluates nicholson_mu2_shape at epsilon = 1/(ln(p_rate/gamma) - 1).
    Agrees with mu2_closed_form applied to taylor_coefficients(spec).

    Raises
    ------
    DegenerateEpsilon
        If epsilon falls outside (0, 1).
    """
    q = math.log(spec.p_rate / spec.gamma)
    return nicholson_mu2_shape(1.0 / (q - 1.0), spec.x0_size)


def _classify_values(mu2: float, beta2: float) -> tuple[Direction, CycleStability]:
    if abs(mu2) < DEGENERACY_THRESHOLD:
        return Direction.DEGENERATE, CycleStability.DEGENERATE
    direction = Direction.SUPERCRITICAL if mu2 > 0 else Direction.SUBCRITICAL
    stability = CycleStability.STABLE if beta2 < 0 else CycleStability.UNSTABLE
    return direction, stability


def classify(report: LyapunovReport) -> tuple[Direction, CycleStability]:
    """Direction and cycle stability from the signs of mu2 and beta2.

    Supercritical iff mu2 > 0, stable cycle iff beta2 < 0;
    |mu2| below DEGENERACY_THRESHOLD is flagged Degenerate instead of
    guessing a side.
    """
    return _classify_values(report.mu2, report.beta2)
