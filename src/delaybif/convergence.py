"""Rate of convergence and oscillation regimes of the linearized system.

The linear model u'(t) = -a u(t) - b u(t - tau) converges like e^(-sigma t)
whenever it is stable; sigma follows from the rightmost characteristic root
and is available in closed form through three candidate rates.  The delay
tau* solving b tau e^(a tau) = 1/e separates the non-oscillatory regime
(real rightmost root, sigma rising with tau) from the oscillatory one
(complex rightmost root, sigma falling with tau).
"""
from __future__ import annotations

import dataclasses
import enum
import math
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidSpec
from .models import TaylorCoefficients

__all__ = [
    "Regime",
    "ConvergenceReport",
    "tau_star",
    "rate_of_convergence",
    "non_oscillatory",
    "classify_regime",
    "sweep_tau",
]

_INV_E = 1.0 / math.e


class Regime(enum.Enum):
    NON_OSCILLATORY_STABLE = "NonOscillatoryStable"
    OSCILLATORY_STABLE = "OscillatoryStable"
    UNSTABLE = "Unstable"


@dataclass(frozen=True)
class ConvergenceReport:
    """Decay rate of the linearized system and how it decomposes.

    sigma is min of the finite candidates when the system is stable and 0
    (with regime UNSTABLE) otherwise.  sigma2 is finite only below tau*,
    sigma3 only above; u2 is the auxiliary angle behind sigma3.
    """

    sigma: float
    sigma1: float
    sigma2: float
    sigma3: float
    tau_star: float
    u2: Optional[float]
    regime: Regime


def _scaled(coeffs: TaylorCoefficients, eta: float) -> tuple[float, float, float]:
    """Fold the gain into the linear coefficients: (eta*a, eta*b, tau)."""
    if not (eta > 0.0 and math.isfinite(eta)):
        raise InvalidSpec(f"eta must be finite and positive, got {eta!r}")
    a, b = eta * coeffs.a, eta * coeffs.b
    # 0 <= a < b, so a is finite whenever b is; a subnormal b has lost
    # digits, and 1/b, the first bracket of tau*, overflows
    if not sys.float_info.min <= b < math.inf:
        raise InvalidSpec(f"eta = {eta!r} scales b = {coeffs.b!r} out of the "
                          "normal float range")
    return a, b, coeffs.tau


def _delay_product(a: float, b: float, tau: float) -> float:
    """b*tau*e^(a*tau), the quantity the regimes compare with 1/e.

    inf where it overflows, since its exact value then exceeds every float.
    """
    try:
        return b * tau * math.exp(a * tau)
    except OverflowError:
        return math.inf


def _tau_star_ab(a: float, b: float) -> float:
    # bisection on the strictly increasing map tau -> b tau e^(a tau),
    # then Newton to machine precision: downstream the defect 1/e - b tau
    # e^(a tau) enters decay rates under a square root, so tau* must be
    # much tighter than the rates themselves
    lo = 0.0
    hi = 1.0 / b
    while b * hi * math.exp(a * hi) < _INV_E:
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-12 * max(1.0, hi):
            break
        if b * mid * math.exp(a * mid) < _INV_E:
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    for _ in range(3):
        ea = math.exp(a * tau)
        tau -= (b * tau * ea - _INV_E) / (b * ea * (1.0 + a * tau))
    return tau


def tau_star(coeffs: TaylorCoefficients, eta: float = 1.0) -> float:
    """Delay of maximal decay rate, the root of b*tau*e^(a*tau) = 1/e."""
    a, b, _ = _scaled(coeffs, eta)
    return _tau_star_ab(a, b)


def _g(u: float) -> float:
    """Oscillatory-branch characteristic map (u/sin u) e^(-u/tan u).

    Strictly increasing on (0, pi), from 1/e to +infinity; g(pi/2) = pi/2.
    inf where it overflows, near pi.
    """
    try:
        return (u / math.sin(u)) * math.exp(-u / math.tan(u))
    except OverflowError:
        return math.inf


def _log_g(u: float) -> float:
    """log g(u), for targets g(u2) beyond the float range."""
    return math.log(u / math.sin(u)) - u / math.tan(u)


def _bisect_increasing(fn, lo: float, hi: float, target: float) -> float:
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-12 * max(1.0, abs(hi)):
            break
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rate_of_convergence(coeffs: TaylorCoefficients, eta: float = 1.0) -> ConvergenceReport:
    """Closed-form decay rate sigma of the linearized system.

    The three candidates:

        sigma1 = a + 1/tau                  (branch-point bound)
        sigma2 : (sigma-a) tau e^((a-sigma) tau) = b tau e^(a tau),
                 bisected on (a, a + 1/tau); finite only for tau <= tau*
        sigma3 = a + u2 / (tau tan u2) with g(u2) = b tau e^(a tau),
                 u2 in (0, pi); finite only for tau > tau*; solved in
                 logarithms where b tau e^(a tau) overflows

    and sigma = min over the finite ones.  For eta != 1 the gain is folded
    into the coefficients (a <- eta*a, b <- eta*b) first.  An unstable
    configuration is reported as regime UNSTABLE with sigma = 0; sigma3 is
    still filled in (it is then the negative growth-rate bound).

    Raises
    ------
    InvalidSpec
        If tau <= 0, eta is not finite and positive, or eta*b is not a
        finite normal float (it overflows, or underflows to a subnormal or
        to 0).
    """
    a, b, tau = _scaled(coeffs, eta)
    if tau <= 0.0:
        raise InvalidSpec("rate of convergence needs tau > 0")
    ts = _tau_star_ab(a, b)
    target = _delay_product(a, b, tau)
    sigma1 = a + 1.0 / tau
    u2 = None
    if tau <= ts:
        sigma3 = math.inf

        def real_branch(s: float) -> float:
            return (s - a) * tau * math.exp((a - s) * tau)

        sigma2 = _bisect_increasing(real_branch, a, sigma1, target)
    else:
        sigma2 = math.inf
        if math.isfinite(target):
            u2 = _bisect_increasing(_g, 1e-9, math.pi - 1e-9, target)
        else:
            log_target = math.log(b) + math.log(tau) + a * tau
            u2 = _bisect_increasing(_log_g, 1e-9, math.pi - 1e-9, log_target)
        sigma3 = a + u2 / (tau * math.tan(u2))
    sigma = min(sigma1, sigma2, sigma3)
    regime = classify_regime(coeffs, eta)
    if regime is Regime.UNSTABLE or sigma <= 0.0:
        return ConvergenceReport(sigma=0.0, sigma1=sigma1, sigma2=sigma2,
                                 sigma3=sigma3, tau_star=ts, u2=u2,
                                 regime=Regime.UNSTABLE)
    return ConvergenceReport(sigma=sigma, sigma1=sigma1, sigma2=sigma2,
                             sigma3=sigma3, tau_star=ts, u2=u2, regime=regime)


def non_oscillatory(coeffs: TaylorCoefficients, eta: float = 1.0) -> bool:
    """True iff convergence is monotone: b*tau*e^(a*tau) <= 1/e (tau <= tau*)."""
    a, b, tau = _scaled(coeffs, eta)
    if tau <= 0.0:
        raise InvalidSpec("non-oscillatory test needs tau > 0")
    return _delay_product(a, b, tau) <= _INV_E


def classify_regime(coeffs: TaylorCoefficients, eta: float = 1.0) -> Regime:
    """Place tau among the regime boundaries tau* and the stability limit.

    NonOscillatoryStable on (0, tau*], OscillatoryStable on
    (tau*, arccos(-a/b)/(eta*sqrt(b^2-a^2))), Unstable at and beyond the
    stability limit.
    """
    a, b, tau = _scaled(coeffs, eta)
    if tau <= 0.0:
        raise InvalidSpec("regime classification needs tau > 0")
    if _delay_product(a, b, tau) <= _INV_E:
        return Regime.NON_OSCILLATORY_STABLE
    if tau < _critical_delay(a, b):
        return Regime.OSCILLATORY_STABLE
    return Regime.UNSTABLE


def _critical_delay(a: float, b: float) -> float:
    """Stability limit arccos(-a/b)/sqrt(b^2 - a^2) of the scaled system.

    The scaled coefficients keep epsilon = a/b, so this is the eta-scaled
    stability limit.  The root is taken as b*sqrt((1 - e)(1 + e)) with
    e = a/b, so no b*b is formed: it cannot underflow for the normal b
    that _scaled admits.  The result is inf where it exceeds the float
    range.
    """
    e = a / b
    return math.acos(-e) / (b * math.sqrt((1.0 - e) * (1.0 + e)))


def sweep_tau(coeffs: TaylorCoefficients, tau_grid, eta: float = 1.0):
    """Evaluate rate_of_convergence over a grid of delays.

    Returns a list of (tau, ConvergenceReport) pairs; the coefficient set is
    reused with only the delay replaced.
    """
    out = []
    for tau in tau_grid:
        c = dataclasses.replace(coeffs, tau=float(tau))
        out.append((float(tau), rate_of_convergence(c, eta)))
    return out
