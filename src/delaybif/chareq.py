"""Analysis of the characteristic equation lambda + eta*a + eta*b*e^(-lambda*tau) = 0.

Hopf point location, closed-form stability verdicts, transversality, and a
numerical rightmost-root oracle based on argument-principle winding counts
with Newton polish.  Only the principal (n = 0) crossing branch is treated.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLinearization, InvalidSpec, NoConvergence
from .models import TaylorCoefficients

__all__ = [
    "HopfPoint",
    "ComplexRoot",
    "RootSearchRegion",
    "critical_eta",
    "is_locally_stable",
    "stability_verdict",
    "sufficient_stable",
    "char_value",
    "rightmost_roots",
]


@dataclass(frozen=True)
class HopfPoint:
    """Critical gain and frequency of the n = 0 Hopf crossing.

    Attributes
    ----------
    eta_c : float
        Critical bifurcation parameter.
    omega0 : float
        Hopf angular frequency (rad / time).
    period : float
        2*pi / omega0.
    frequency : float
        omega0 / (2*pi).
    alpha_prime : float
        Transversality value d(Re lambda)/d(eta) at the crossing; positive.
    """

    eta_c: float
    omega0: float
    period: float
    frequency: float
    alpha_prime: float


@dataclass(frozen=True)
class ComplexRoot:
    re: float
    im: float
    residual: float


@dataclass(frozen=True)
class RootSearchRegion:
    """Rectangle [re_min, re_max] x [-im_max, im_max] scanned for roots."""

    re_min: float
    re_max: float
    im_max: float

    @classmethod
    def default_for(cls, coeffs: TaylorCoefficients, eta: float) -> "RootSearchRegion":
        # The rightmost root always satisfies Re >= -(eta*a + 1/tau) and
        # Re <= eta*(b - a); its imaginary part sits on the principal branch,
        # |Im| < pi/tau.  Margins keep roots off the contour.
        a, b, tau = coeffs.a, coeffs.b, coeffs.tau
        re_min = -(eta * a + 1.0 / tau) - 0.5
        re_max = eta * (b - a) + 0.5
        im_max = max(2.0 * eta * b, 1.05 * math.pi / tau) + 1.0
        return cls(re_min=re_min, re_max=re_max, im_max=im_max)


def _require_cone(coeffs: TaylorCoefficients) -> tuple[float, float]:
    a, b = coeffs.a, coeffs.b
    if b <= a or b <= 0.0 or a < 0.0:
        raise DegenerateLinearization(f"need 0 <= a < b, got a = {a}, b = {b}")
    return a, b


def critical_eta(coeffs: TaylorCoefficients) -> HopfPoint:
    """Hopf point of the linearization.

    Solves eta_c * tau * sqrt(b^2 - a^2) = arccos(-a/b) for the critical
    gain, with omega0 = eta_c * sqrt(b^2 - a^2), and evaluates the real-part
    derivative

        alpha'(0) = eta_c * tau * (b^2 - a^2)
                    / (1 + 2*eta_c*a*tau + eta_c^2 * b^2 * tau^2)

    which is strictly positive, so the crossing is always transversal.
    """
    a, b = _require_cone(coeffs)
    tau = coeffs.tau
    if tau <= 0.0:
        raise InvalidSpec("critical_eta needs tau > 0")
    s = math.sqrt(b * b - a * a)
    eta_c = math.acos(-a / b) / (tau * s)
    omega0 = eta_c * s
    alpha_prime = (eta_c * tau * (b * b - a * a)
                   / (1.0 + 2.0 * eta_c * a * tau + eta_c ** 2 * b * b * tau ** 2))
    return HopfPoint(
        eta_c=eta_c,
        omega0=omega0,
        period=2.0 * math.pi / omega0,
        frequency=omega0 / (2.0 * math.pi),
        alpha_prime=alpha_prime,
    )


def stability_verdict(coeffs: TaylorCoefficients, eta: float) -> str:
    """Classify eta against the stability boundary.

    Returns ``"stable"`` when eta*tau*sqrt(b^2-a^2) < arccos(-a/b) holds
    strictly, ``"critical"`` on exact equality (the Hopf point itself), and
    ``"unstable"`` beyond it.
    """
    a, b = _require_cone(coeffs)
    if eta <= 0.0:
        raise InvalidSpec("eta must be positive")
    if coeffs.tau <= 0.0:
        raise InvalidSpec("stability verdict needs tau > 0")
    lhs = eta * coeffs.tau * math.sqrt(b * b - a * a)
    rhs = math.acos(-a / b)
    if lhs < rhs:
        return "stable"
    if lhs == rhs:
        return "critical"
    return "unstable"


def is_locally_stable(coeffs: TaylorCoefficients, eta: float) -> bool:
    """True iff the equilibrium is locally asymptotically stable (eta < eta_c)."""
    return stability_verdict(coeffs, eta) == "stable"


def sufficient_stable(coeffs: TaylorCoefficients, eta: float) -> bool:
    """Delay-margin sufficient condition eta*b*tau < pi/2.

    Conservative: whenever this holds, is_locally_stable holds too, but the
    converse can fail (the gap is largest for a close to b).
    """
    if coeffs.b <= 0.0:
        raise DegenerateLinearization("b must be positive")
    return eta * coeffs.b * coeffs.tau < 0.5 * math.pi


def char_value(coeffs: TaylorCoefficients, eta: float, lam: complex) -> complex:
    """Evaluate lambda + eta*a + eta*b*e^(-lambda*tau) at a complex lambda."""
    return lam + eta * coeffs.a + eta * coeffs.b * cmath.exp(-lam * coeffs.tau)


def _phase_winding(A: float, B: float, tau: float,
                   x0: float, x1: float, y0: float, y1: float) -> int:
    """Winding number of G(lambda) = lambda + A + B e^(-lambda tau) around the box.

    Samples the boundary counterclockwise and accumulates phase increments,
    doubling the sampling density until every step is below pi/2.
    """
    # enough initial samples that the delayed exponential's rotation along
    # the vertical edges (tau * height / 2pi turns) is resolved
    base = 16 + 8 * int(tau * (y1 - y0) / math.pi + (x1 - x0))
    n = min(max(base, 32), 1 << 12)
    while True:
        bottom = np.linspace(x0, x1, n, endpoint=False) + 1j * y0
        right = x1 + 1j * np.linspace(y0, y1, n, endpoint=False)
        top = np.linspace(x1, x0, n, endpoint=False) + 1j * y1
        left = x0 + 1j * np.linspace(y1, y0, n, endpoint=False)
        z = np.concatenate([bottom, right, top, left])
        g = z + A + B * np.exp(-z * tau)
        if np.min(np.abs(g)) < 1e-13 * (1.0 + abs(A) + abs(B)):
            raise _OnContour
        rot = g / np.roll(g, 1)
        steps = np.angle(rot)
        if np.max(np.abs(steps)) < 0.5 * math.pi:
            total = float(np.sum(steps))
            return int(round(total / (2.0 * math.pi)))
        if n >= 1 << 15:
            raise NoConvergence(
                "winding-number sampling did not resolve the boundary phase")
        n *= 2


class _OnContour(Exception):
    """Internal: a boundary sample fell on or near a root; jitter the box."""


def _winding(A, B, tau, x0, x1, y0, y1):
    # jitter the box a little if a root sits on the contour
    for bump in (0.0, 3.1e-7, -2.3e-7, 7.7e-7):
        try:
            return _phase_winding(A, B, tau, x0 + bump, x1 + bump,
                                  y0 + bump, y1 + bump), bump
        except _OnContour:
            continue
    raise NoConvergence("could not place a root-free contour")


def _newton(A: float, B: float, tau: float, seed: complex):
    """Polish a root from seed; None when the seed fails (an overflowing
    exponential included)."""
    lam = seed
    try:
        for _ in range(80):
            g = lam + A + B * cmath.exp(-lam * tau)
            if abs(g) < 1e-13:
                return lam, abs(g)
            dg = 1.0 - B * tau * cmath.exp(-lam * tau)
            if dg == 0.0:
                break
            step = g / dg
            lam = lam - step
            if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
                return None
        g = lam + A + B * cmath.exp(-lam * tau)
    except OverflowError:
        return None
    if abs(g) < 1e-12:
        return lam, abs(g)
    return None


def _collect_roots(A, B, tau, x0, x1, y0, y1, found, depth=0):
    n, _ = _winding(A, B, tau, x0, x1, y0, y1)
    if n <= 0:
        return
    size = max(x1 - x0, y1 - y0)
    if size < 0.35:
        seeds = [complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))]
        seeds += [complex(x0 + fx * (x1 - x0), y0 + fy * (y1 - y0))
                  for fx in (0.27, 0.73) for fy in (0.27, 0.73)]
        got = 0
        for seed in seeds:
            res = _newton(A, B, tau, seed)
            if res is None:
                continue
            lam, r = res
            if _register(found, lam, r):
                got += 1
            if got >= n:
                return
        if got >= n or size < 2e-3:
            # fewer distinct roots than the winding count in a tiny cell
            # means a multiple root (e.g. the double real root at tau*)
            if got == 0:
                raise NoConvergence(
                    f"Newton failed from all seeds in cell with winding {n} "
                    f"near {0.5 * (x0 + x1):.3f}{0.5 * (y0 + y1):+.3f}j")
            return
    # split the longer side, slightly off center so roots avoid the cut
    if (x1 - x0) >= (y1 - y0):
        xm = x0 + 0.5137 * (x1 - x0)
        _collect_roots(A, B, tau, x0, xm, y0, y1, found, depth + 1)
        _collect_roots(A, B, tau, xm, x1, y0, y1, found, depth + 1)
    else:
        ym = y0 + 0.5137 * (y1 - y0)
        _collect_roots(A, B, tau, x0, x1, y0, ym, found, depth + 1)
        _collect_roots(A, B, tau, x0, x1, ym, y1, found, depth + 1)


def _register(found: list, lam: complex, residual: float) -> bool:
    for k, (other, _) in enumerate(found):
        if abs(other - lam) < 1e-7 * (1.0 + abs(lam)):
            if residual < found[k][1]:
                found[k] = (lam, residual)
            return False
    found.append((lam, residual))
    return True


def rightmost_roots(coeffs: TaylorCoefficients, eta: float,
                    search: RootSearchRegion | None = None) -> list[ComplexRoot]:
    """All characteristic roots inside the search region, rightmost first.

    Roots are localized by argument-principle winding counts over a
    rectangular subdivision and polished by Newton iteration.  Conjugate
    pairs are implied: only roots with im >= 0 are reported.

    Parameters
    ----------
    coeffs : TaylorCoefficients
    eta : float
        Gain multiplying the whole right-hand side.
    search : RootSearchRegion, optional
        Defaults to a region guaranteed to contain the rightmost root.

    Raises
    ------
    NoConvergence
        If a subcell flagged by the winding count defeats Newton from every
        seed, or the boundary phase cannot be resolved.
    """
    if eta <= 0.0:
        raise InvalidSpec("eta must be positive")
    a, b, tau = coeffs.a, coeffs.b, coeffs.tau
    if tau == 0.0:
        # no delay: G is linear, single root
        lam = -eta * (a + b)
        return [ComplexRoot(re=lam, im=0.0, residual=0.0)]
    if search is None:
        search = RootSearchRegion.default_for(coeffs, eta)
    A, B = eta * a, eta * b
    found: list[tuple[complex, float]] = []
    _collect_roots(A, B, tau, search.re_min, search.re_max,
                   -search.im_max, search.im_max, found)
    roots = []
    for lam, res in found:
        if lam.imag < -1e-9:
            continue
        im = abs(lam.imag) if abs(lam.imag) < 1e-9 else lam.imag
        roots.append(ComplexRoot(re=lam.real, im=im, residual=res))
    roots.sort(key=lambda r: (-r.re, r.im))
    return roots
