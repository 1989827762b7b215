"""Rate of convergence and oscillation regimes of the linearized system.

The linear model u'(t) = -a u(t) - b u(t - tau) converges like e^(-sigma t)
whenever it is stable.  Its characteristic roots are -a + W_k(z)/tau with
z = -b tau e^(a tau); the principal branch W0 alone gives the rightmost
one, the first root of `delaybif roots`, so sigma = a - Re W0(z)/tau, and
the oscillatory regime's auxiliary angle is u2 = |Im W0(z)|.  The delay
tau* = e^(-1 - W0(a/(b e)))/b, the root of b tau e^(a tau) = 1/e, separates
the non-oscillatory regime (real rightmost root, sigma rising with tau) from
the oscillatory one (complex rightmost root, sigma falling with tau).
"""
from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Optional

from .chareq import (_INV_E, _branch_root, _lambert_argument, _lambert_w, _require_gain,
                     stability_verdict)
from .errors import InvalidSpec
from .models import TaylorCoefficients, _normal

__all__ = [
    "Regime",
    "ConvergenceReport",
    "tau_star",
    "rate_of_convergence",
    "non_oscillatory",
    "classify_regime",
    "sweep_tau",
]


class Regime(enum.Enum):
    NON_OSCILLATORY_STABLE = "NonOscillatoryStable"
    OSCILLATORY_STABLE = "OscillatoryStable"
    UNSTABLE = "Unstable"


@dataclass(frozen=True)
class ConvergenceReport:
    """Decay rate of the linearized system and how it decomposes.

    sigma is min of the finite candidates when the system is stable (0
    where that underflows) and 0 (with regime UNSTABLE) otherwise.  sigma2
    is finite only below tau*, sigma3 only above, and not where a*tau
    overflows; u2 is the auxiliary angle behind sigma3, None where sigma3
    is not finite.
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
    _require_gain(eta)
    # 0 <= a < b, so a is finite whenever b is; a subnormal b has lost
    # digits, and tau* ~ 1/b overflows
    return eta * coeffs.a, _normal(eta * coeffs.b, name="eta*b"), coeffs.tau


def tau_star(coeffs: TaylorCoefficients, eta: float = 1.0) -> float:
    """Delay of maximal decay rate, the root of b*tau*e^(a*tau) = 1/e.

    Taken as e^(-1 - W0(a/(b e)))/b, which needs no limit at a = 0.
    """
    a, b, _ = _scaled(coeffs, eta)
    return math.exp(-1.0 - _lambert_w(0, a / b / math.e).real) / b


def rate_of_convergence(coeffs: TaylorCoefficients, eta: float = 1.0) -> ConvergenceReport:
    """Closed-form decay rate sigma of the linearized system.

    With z = -b tau e^(a tau), the rightmost characteristic root is
    lambda0 = -a + W0(z)/tau, and the three candidates are

        sigma1 = a + 1/tau                  (branch-point bound)
        sigma2 = a - W0(z)/tau, W0 real in [-1, 0); finite only for
                 tau <= tau* (z >= -1/e)
        sigma3 = a - Re W0(z)/tau = a + u2/(tau tan u2), u2 = Im W0(z)
                 in (0, pi); finite only for tau > tau*

    and sigma = min over the finite ones; -sigma2 or -sigma3 + i u2/tau is
    the first root of `lambert_roots`, bit for bit.  sigma3 and u2 are
    polished by Newton on the characteristic equation unless the root grows
    by more than 2 + |log(b tau)| per delay; where b tau e^(a tau)
    overflows W0 is found from its logarithm.  For eta != 1 the gain is
    folded into the coefficients (a <- eta*a, b <- eta*b) first.  The
    regime is classify_regime's.  An unstable configuration is reported as
    regime UNSTABLE with sigma = 0; sigma3 is still filled in (it is then
    the negative growth-rate bound), except where a*tau overflows: W0 is
    not evaluated there, and sigma3 is inf and u2 None, as below tau*.  A
    stable one whose decay rate is below the smallest float keeps its
    stable regime, with sigma = 0.

    Raises
    ------
    InvalidSpec
        If tau <= 0, eta is not finite and positive, or eta*b is not a
        finite normal float (it overflows, or underflows to a subnormal or
        to 0).
    """
    a, _, tau = _scaled(coeffs, eta)
    if tau <= 0.0:
        raise InvalidSpec("rate of convergence needs tau > 0")
    sigma1 = a + 1.0 / tau
    # log z overflows with a*tau; as floats b > a, so tau*sqrt(b^2 - a^2)
    # exceeds 1e-8*a*tau, far past the stability limit: the regime is
    # classify_regime's UNSTABLE without W0
    rate, u2 = ((math.inf, None) if a * tau == math.inf
                else _branch_root(coeffs, eta, 0, *_lambert_argument(coeffs, eta)))
    sigma2, sigma3 = (rate, math.inf) if u2 is None else (math.inf, rate)
    # the regime is decided exactly; a stable model's sigma may underflow to 0
    regime = classify_regime(coeffs, eta)
    sigma = 0.0 if regime is Regime.UNSTABLE else max(min(sigma1, sigma2, sigma3), 0.0)
    return ConvergenceReport(sigma=sigma, sigma1=sigma1, sigma2=sigma2, sigma3=sigma3,
                             tau_star=tau_star(coeffs, eta), u2=u2, regime=regime)


def non_oscillatory(coeffs: TaylorCoefficients, eta: float = 1.0) -> bool:
    """True iff convergence is monotone: b*tau*e^(a*tau) <= 1/e (tau <= tau*)."""
    _, _, tau = _scaled(coeffs, eta)
    if tau <= 0.0:
        raise InvalidSpec("non-oscillatory test needs tau > 0")
    return _lambert_argument(coeffs, eta)[0] <= _INV_E


def classify_regime(coeffs: TaylorCoefficients, eta: float = 1.0) -> Regime:
    """Place tau among the regime boundaries tau* and the stability limit.

    Unstable exactly where ``stability_verdict`` is not "stable", that is
    at and beyond eta*tau*sqrt(b^2-a^2) = arccos(-a/b); otherwise
    NonOscillatoryStable on (0, tau*] and OscillatoryStable above tau*.
    """
    _scaled(coeffs, eta)  # InvalidSpec where eta*b is not a normal float
    if stability_verdict(coeffs, eta) != "stable":
        return Regime.UNSTABLE
    if _lambert_argument(coeffs, eta)[0] <= _INV_E:
        return Regime.NON_OSCILLATORY_STABLE
    return Regime.OSCILLATORY_STABLE


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
