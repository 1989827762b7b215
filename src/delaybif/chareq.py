"""Analysis of the characteristic equation lambda + eta*a + eta*b*e^(-lambda*tau) = 0.

Hopf point location, closed-form stability verdicts, transversality, the
principal Lambert-W branch behind the decay rates of `convergence`, and a
numerical rightmost-root oracle based on argument-principle winding counts
with Newton polish.  Only the principal (n = 0) crossing branch is treated.

The root search subdivides the region by two rules.  A cell of winding 1,
at any size, is settled by one Newton solve from its center when that solve
ends inside the cell; and a Newton result counts toward a cell only if it
lies inside that cell.  So every root returned lies inside the search region.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import InvalidSpec, NoConvergence
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


def _require_gain(eta: float) -> None:
    if not (eta > 0.0 and math.isfinite(eta)):
        raise InvalidSpec(f"eta must be finite and positive, got {eta!r}")


@dataclass(frozen=True)
class RootSearchRegion:
    """Rectangle [re_min, re_max] x [-im_max, im_max] scanned for roots.

    Construction requires finite bounds with re_min < re_max and
    im_max > 0, and sides that are finite floats too.
    """

    re_min: float
    re_max: float
    im_max: float

    def __post_init__(self):
        if not (math.isfinite(self.re_max - self.re_min)
                and math.isfinite(2.0 * self.im_max)):
            raise InvalidSpec(f"root search region needs finite bounds and sides, got {self}")
        if not self.re_min < self.re_max:
            raise InvalidSpec(f"root search region needs re_min < re_max, got {self}")
        if not self.im_max > 0.0:
            raise InvalidSpec(f"root search region needs im_max > 0, got {self}")

    @classmethod
    def default_for(cls, coeffs: TaylorCoefficients, eta: float) -> "RootSearchRegion":
        # The rightmost root always satisfies Re >= -(eta*a + 1/tau) and
        # Re <= eta*(b - a); its imaginary part sits on the principal branch,
        # |Im| < pi/tau.  Without a delay the one root is -eta*(a + b).
        # Margins keep roots off the contour.
        _require_gain(eta)
        a, b, tau = coeffs.a, coeffs.b, coeffs.tau
        if tau == 0.0:
            return cls(re_min=-eta * (a + b) - 0.5, re_max=eta * (b - a) + 0.5, im_max=1.0)
        re_min = -(eta * a + 1.0 / tau) - 0.5
        re_max = eta * (b - a) + 0.5
        im_max = max(2.0 * eta * b, 1.05 * math.pi / tau) + 1.0
        return cls(re_min=re_min, re_max=re_max, im_max=im_max)


def _stability_limit(a: float, b: float) -> tuple[float, float]:
    """(arccos(-e), sqrt(b^2 - a^2)), e = a/b: stable iff eta*tau*s < theta.

    With r = sqrt((1 - e)(1 + e)), 1 - e taken as (b - a)/b, the pair is
    (atan2(r, -e), b*r): no b*b is formed, and no digits are lost as a -> b.
    """
    e = a / b
    r = math.sqrt((b - a) / b * (1.0 + e))
    return math.atan2(r, -e), b * r


def critical_eta(coeffs: TaylorCoefficients) -> HopfPoint:
    """Hopf point of the linearization.

    With theta = arccos(-e), e = a/b, s = sqrt(b^2 - a^2) and r = s/b, the
    crossing is at omega0 = theta/tau and eta_c = theta/(tau*s), and

        alpha'(0) = theta*s / (1 + (2*theta*e + theta^2/r)/r)

    is strictly positive, so the crossing is always transversal.

    Raises
    ------
    InvalidSpec
        If tau <= 0, or a field is not a finite positive float (eta_c
        overflows where tau*b underflows, say).
    """
    a, b = coeffs.a, coeffs.b
    tau = coeffs.tau
    if tau <= 0.0:
        raise InvalidSpec("critical_eta needs tau > 0")
    theta, s = _stability_limit(a, b)
    if s > 0.0:
        omega0, r = theta / tau, s / b
        eta_c, period = omega0 / s, 2.0 * math.pi / omega0
        alpha_prime = theta * (s / (1.0 + (2.0 * theta * (a / b) + theta * theta / r) / r))
        if min(eta_c, alpha_prime) > 0.0 and max(eta_c, omega0, period, alpha_prime) < math.inf:
            return HopfPoint(eta_c=eta_c, omega0=omega0, period=period,
                             frequency=omega0 / (2.0 * math.pi),
                             alpha_prime=alpha_prime)
    raise InvalidSpec(f"the Hopf point of a = {a!r}, b = {b!r}, tau = {tau!r} "
                      "is outside the float range")


def stability_verdict(coeffs: TaylorCoefficients, eta: float) -> str:
    """Classify eta against the stability boundary.

    Returns ``"stable"`` when eta*tau*sqrt(b^2-a^2) < arccos(-a/b) holds
    strictly, ``"critical"`` on exact equality (the Hopf point itself), and
    ``"unstable"`` beyond it.
    """
    a, b = coeffs.a, coeffs.b
    _require_gain(eta)
    if coeffs.tau <= 0.0:
        raise InvalidSpec("stability verdict needs tau > 0")
    rhs, _ = _stability_limit(a, b)
    # b and r = s/b enter apart, since a subnormal s = b*r has lost digits;
    # smallest times largest first, eta*tau*b over- or underflows only where it does
    lo, mid, hi = sorted((eta, coeffs.tau, b))
    lhs = lo * hi * mid * math.sqrt((b - a) / b * (1.0 + a / b))
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
    return eta * coeffs.b * coeffs.tau < 0.5 * math.pi


def char_value(coeffs: TaylorCoefficients, eta: float, lam: complex) -> complex:
    """Evaluate lambda + eta*a + eta*b*e^(-lambda*tau) at a complex lambda."""
    return lam + eta * coeffs.a + eta * coeffs.b * cmath.exp(-lam * coeffs.tau)


# 1/e and its rounding error, so that z + 1/e keeps its digits near -1/e
_INV_E, _INV_E_LO = 0.36787944117144233, -1.2428753672788363e-17
# W0 in powers of p = sqrt(2(e z + 1)) (Corless et al. 1996, eq. 4.22); the
# error is below 1e-18 for |p| < 0.01
_BRANCH_SERIES = (-1.0, 1.0, -1 / 3, 11 / 72, -43 / 540, 769 / 17280,
                  -221 / 8505, 680863 / 43545600)


def _lambert_w0(z: float, log_z: complex | None = None) -> complex:
    """Principal branch W0 of w e^w = z for real z < 1/e; Im w > 0 below -1/e.

    Near -1/e and near 0, Halley iteration on w e^w - z from the starts of
    Corless et al. (1996): the series in p, returned as is for |p| < 0.01
    where Halley's division by w + 1 would only add noise, and log(1 + z).
    Elsewhere Newton on w + log w = L from L - log L, where L is log_z if
    given, else log z; so z may be -inf where only its logarithm is finite.
    """
    d = (z + _INV_E) + _INV_E_LO
    log_target = None
    if abs(d) < 0.3:
        p = cmath.sqrt(2.0 * math.e * d)
        w = 0j
        for c in reversed(_BRANCH_SERIES):
            w = w * p + c
        if abs(p) < 0.01:
            return w
    elif d > 0.0:
        w = complex(math.log1p(z))
    else:
        log_target = cmath.log(z) if log_z is None else log_z
        w = log_target - cmath.log(log_target)
    # cubic or quadratic convergence: the iterate after a step below 1e-8
    # is exact to rounding
    for _ in range(64):
        if log_target is None:
            ew = cmath.exp(w)
            f = w * ew - z
            step = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        else:
            step = (w + cmath.log(w) - log_target) * w / (w + 1.0)
        w, last = w - step, w
        if abs(w - last) <= 1e-8 * abs(w):
            return w
    raise NoConvergence(f"Lambert W iteration did not converge at z = {z!r}")


def _phase_winding(A: float, B: float, tau: float,
                   x0: float, x1: float, y0: float, y1: float) -> int:
    """Winding number of G(lambda) = lambda + A + B e^(-lambda tau) around the box.

    Samples the boundary counterclockwise and accumulates phase increments,
    doubling the sampling density until every step is below pi/2.
    """
    # the module's only array code: importing numpy here keeps the closed
    # forms, and so `delaybif analyze`, free of its start-up cost
    import numpy as np

    # enough initial samples that the delayed exponential's rotation along
    # the vertical edges (tau * height / 2pi turns) is resolved
    base = 16 + 8 * int(min(tau * (y1 - y0) / math.pi + (x1 - x0), 1 << 12))
    n = min(max(base, 32), 1 << 12)
    while True:
        # each edge is numpy.linspace(start, stop, n, endpoint=False) bit for
        # bit, which numpy computes as arange(n) * ((stop - start) / n) + start
        # (except where that step underflows to 0, on sides below about
        # 1e-321); one arange for all four edges saves most of a call's fixed
        # cost, and the same samples give the same counts, so the same roots
        k = np.arange(n, dtype=float)
        bottom = (k * ((x1 - x0) / n) + x0) + 1j * y0
        right = x1 + 1j * (k * ((y1 - y0) / n) + y0)
        top = (k * ((x0 - x1) / n) + x1) + 1j * y1
        left = x0 + 1j * (k * ((y0 - y1) / n) + y1)
        z = np.concatenate((bottom, right, top, left))
        g = z + A + B * np.exp(-z * tau)
        if np.abs(g).min() < 1e-13 * (1.0 + abs(A) + abs(B)):
            raise _OnContour
        # steps[i] is the phase turn from sample i - 1 to sample i
        rot = g / np.concatenate((g[-1:], g[:-1]))
        steps = np.arctan2(rot.imag, rot.real)
        if np.abs(steps).max() < 0.5 * math.pi:
            return int(round(float(steps.sum()) / (2.0 * math.pi)))
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
                                  y0 + bump, y1 + bump)
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


def _collect_roots(A, B, tau, x0, x1, y0, y1, found):
    n = _winding(A, B, tau, x0, x1, y0, y1)
    if n <= 0:
        return

    def inside(lam):
        return x0 <= lam.real <= x1 and y0 <= lam.imag <= y1

    if n == 1:
        # a cell of winding 1 holds one root: a Newton solve that ends
        # inside the cell has found it, at any cell size
        res = _newton(A, B, tau, complex(0.5 * (x0 + x1), 0.5 * (y0 + y1)))
        if res is not None and inside(res[0]):
            _register(found, *res)
            return
    size = max(x1 - x0, y1 - y0)
    if size < 0.35:
        seeds = [complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))]
        seeds += [complex(x0 + fx * (x1 - x0), y0 + fy * (y1 - y0))
                  for fx in (0.27, 0.73) for fy in (0.27, 0.73)]
        got = 0
        for seed in seeds:
            res = _newton(A, B, tau, seed)
            # a neighbour's root is that cell's to find
            if res is None or not inside(res[0]):
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
        _collect_roots(A, B, tau, x0, xm, y0, y1, found)
        _collect_roots(A, B, tau, xm, x1, y0, y1, found)
    else:
        ym = y0 + 0.5137 * (y1 - y0)
        _collect_roots(A, B, tau, x0, x1, y0, ym, found)
        _collect_roots(A, B, tau, x0, x1, ym, y1, found)


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
    rectangular subdivision and polished by Newton iteration.  A cell of
    winding 1 is settled by one Newton solve from its center if that lands
    inside the cell, and is split further otherwise; a cell's count takes
    only the roots found inside it, so every returned root lies inside the
    search region.  Conjugate pairs are implied: only roots with im >= 0 are
    reported.

    Parameters
    ----------
    coeffs : TaylorCoefficients
    eta : float
        Gain multiplying the whole right-hand side.
    search : RootSearchRegion, optional
        Defaults to a region guaranteed to contain the rightmost root.

    Raises
    ------
    InvalidSpec
        If eta is not finite and positive, or the default region's bounds
        overflow.
    NoConvergence
        If a subcell flagged by the winding count defeats Newton from every
        seed, or the boundary phase cannot be resolved.  Known cases: the
        double real root at the delay boundary tau* of `convergence`, and
        regions dense with roots, such as the README model at tau = 50.
    """
    _require_gain(eta)
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
