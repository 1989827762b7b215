"""Concrete DDE models, their equilibria, and Taylor coefficients.

All models are instances of the scalar delayed system

    x'(t) = eta * f(x(t), x(t - tau))

and every downstream analysis consumes only the Taylor coefficients of f
about the equilibrium, collected in :class:`TaylorCoefficients`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidSpec, InvariantViolation, NoEquilibrium

__all__ = [
    "CubicBD",
    "QuadraticBD",
    "Nicholson",
    "Generic",
    "ModelSpec",
    "TaylorCoefficients",
    "EquilibriumReport",
    "equilibrium",
    "quadratic_roots",
    "taylor_coefficients",
    "rhs",
    "delay_of",
]


@dataclass(frozen=True)
class TaylorCoefficients:
    """Partial-derivative coefficients of f at the equilibrium, plus the delay.

    The coefficients follow the factorial-normalized convention: the shifted
    deviation u = x - x_e evolves as

        u' = eta * (xi_x u + xi_y u_d + xi_xx u^2 + xi_xy u u_d + xi_yy u_d^2
                    + xi_xxx u^3 + xi_xxy u^2 u_d + xi_xyy u u_d^2 + xi_yyy u_d^3)

    with u_d = u(t - tau).  Accessors ``a = -xi_x``, ``b = -xi_y`` and
    ``epsilon = a/b`` name the linear part the way every stability formula
    consumes it.

    Construction enforces b > 0, a >= 0 and b > a, the cone on which the
    whole analysis is defined.  ``tau = 0`` is tolerated so the undelayed
    characteristic root can be queried; operations that genuinely need a
    positive delay check for it themselves.
    """

    xi_x: float
    xi_y: float
    xi_xx: float = 0.0
    xi_xy: float = 0.0
    xi_yy: float = 0.0
    xi_xxx: float = 0.0
    xi_xxy: float = 0.0
    xi_xyy: float = 0.0
    xi_yyy: float = 0.0
    tau: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, self.as_tuple())):
            raise InvariantViolation("non-finite Taylor coefficient")
        if self.b <= 0.0:
            raise InvariantViolation(f"b = -xi_y must be positive, got b = {self.b}")
        if self.a < 0.0:
            raise InvariantViolation(f"a = -xi_x must be nonnegative, got a = {self.a}")
        if self.b <= self.a:
            raise InvariantViolation(f"need b > a, got a = {self.a}, b = {self.b}")
        if self.tau < 0.0:
            raise InvariantViolation(f"delay must be nonnegative, got tau = {self.tau}")

    @property
    def a(self) -> float:
        return -self.xi_x

    @property
    def b(self) -> float:
        return -self.xi_y

    @property
    def epsilon(self) -> float:
        return self.a / self.b

    def as_tuple(self):
        return (self.xi_x, self.xi_y, self.xi_xx, self.xi_xy, self.xi_yy,
                self.xi_xxx, self.xi_xxy, self.xi_xyy, self.xi_yyy, self.tau)


@dataclass(frozen=True)
class EquilibriumReport:
    x_e: float
    residual: float


class ModelSpec:
    """Base of every model variant: the one place a model's maths lives.

    A variant supplies ``variant`` (its name in configs), ``tau``, and the
    methods ``equilibrium()``, ``taylor_coefficients()`` and ``field(eta)``.
    ``field(eta)`` returns a closure ``f(x, x_delayed)`` that evaluates eta
    times the model's right-hand side with the constants and eta bound as
    locals, so a simulation looks nothing up per step; ``rhs(x, x_delayed,
    eta)`` evaluates it once.  The module-level functions of the same names
    check for a ModelSpec once and delegate.
    """

    def rhs(self, x: float, x_delayed: float, eta: float) -> float:
        """eta * f(x, x_delayed), through a field bound for this one call."""
        return self.field(eta)(x, x_delayed)


@dataclass(frozen=True)
class _DelayedPolynomial(ModelSpec):
    """Shared fields and validation of the delayed polynomial oscillators."""

    k: float
    mu: float
    lam: float
    tau: float

    def __post_init__(self):
        if self.k <= 0.0:
            raise InvalidSpec(f"k > 0 required, got k = {self.k}")
        if self.k <= self.mu:
            raise InvalidSpec(f"k > mu required, got k = {self.k}, mu = {self.mu}")
        if self.tau <= 0.0:
            raise InvalidSpec(f"tau > 0 required, got tau = {self.tau}")


@dataclass(frozen=True)
class CubicBD(_DelayedPolynomial):
    """Delayed cubic oscillator x' = -(x^3 - mu*x + lam) - k*x(t-tau).

    Its equilibrium is the unique real root of x^3 + (k - mu) x + lam.
    """

    variant = "cubic"

    def equilibrium(self) -> EquilibriumReport:
        # x^3 + (k - mu) x + lam is strictly increasing because k > mu, so
        # plain bisection is safe; Newton polishes the bracketed root
        c1 = self.k - self.mu

        def poly(x: float) -> float:
            return x * x * x + c1 * x + self.lam

        lo = -1.0 - abs(self.lam) - self.k
        hi = 1.0 + abs(self.lam) + self.k
        flo = poly(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if hi - lo < 1e-12:
                break
            fm = poly(mid)
            if flo * fm <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fm
        x = 0.5 * (lo + hi)
        for _ in range(3):
            d = 3.0 * x * x + c1
            if d != 0.0:
                x -= poly(x) / d
        res = abs(x ** 3 + c1 * x + self.lam)
        return EquilibriumReport(x_e=x, residual=res)

    def taylor_coefficients(self) -> TaylorCoefficients:
        x_e = self.equilibrium().x_e
        return TaylorCoefficients(
            xi_x=-(3.0 * x_e * x_e - self.mu),
            xi_y=-self.k,
            xi_xx=-3.0 * x_e,
            xi_xxx=-1.0,
            tau=self.tau,
        )

    def field(self, eta: float):
        mu, lam, k = self.mu, self.lam, self.k

        def f(x: float, x_delayed: float) -> float:
            return eta * (-(x * x * x - mu * x + lam) - k * x_delayed)
        return f


@dataclass(frozen=True)
class QuadraticBD(_DelayedPolynomial):
    """Delayed quadratic oscillator x' = -(x^2 - mu*x + lam) - k*x(t-tau).

    Of its up to two equilibria the larger root is preferred, falling back
    to the smaller one if only that one yields an analyzable linearization
    (a >= 0 and b > a).
    """

    variant = "quadratic"

    def equilibrium(self) -> EquilibriumReport:
        for x in quadratic_roots(self):
            a = 2.0 * x - self.mu
            if a >= 0.0 and self.k > a:
                res = abs(x * x + (self.k - self.mu) * x + self.lam)
                return EquilibriumReport(x_e=x, residual=res)
        raise InvariantViolation(
            "neither quadratic equilibrium satisfies 0 <= a < b; "
            "the model is outside the analyzable cone")

    def taylor_coefficients(self) -> TaylorCoefficients:
        x_e = self.equilibrium().x_e
        return TaylorCoefficients(
            xi_x=-(2.0 * x_e - self.mu),
            xi_y=-self.k,
            xi_xx=-1.0,
            tau=self.tau,
        )

    def field(self, eta: float):
        mu, lam, k = self.mu, self.lam, self.k

        def f(x: float, x_delayed: float) -> float:
            return eta * (-(x * x - mu * x + lam) - k * x_delayed)
        return f


@dataclass(frozen=True)
class Nicholson(ModelSpec):
    """Nicholson blowflies equation N' = -gamma*N + p*N_d*exp(-N_d/x0).

    Its positive equilibrium is N* = x0 * ln(p/gamma).
    """

    gamma: float
    p_rate: float
    x0_size: float
    tau: float

    variant = "nicholson"

    def __post_init__(self):
        if self.gamma <= 0.0 or self.p_rate <= 0.0 or self.x0_size <= 0.0:
            raise InvalidSpec("gamma, p_rate, x0_size must all be positive")
        if self.p_rate <= math.e * self.gamma:
            raise InvalidSpec(
                f"p_rate > e*gamma required (got p_rate = {self.p_rate}, "
                f"e*gamma = {math.e * self.gamma:.6g})")
        if self.tau <= 0.0:
            raise InvalidSpec(f"tau > 0 required, got tau = {self.tau}")

    def equilibrium(self) -> EquilibriumReport:
        x = self.x0_size * math.log(self.p_rate / self.gamma)
        res = abs(-self.gamma * x + self.p_rate * x * math.exp(-x / self.x0_size))
        return EquilibriumReport(x_e=x, residual=res)

    def taylor_coefficients(self) -> TaylorCoefficients:
        q = math.log(self.p_rate / self.gamma)
        return TaylorCoefficients(
            xi_x=-self.gamma,
            xi_y=-self.gamma * (q - 1.0),
            xi_yy=-(self.gamma / self.x0_size) * (2.0 - q),
            xi_yyy=(self.gamma / self.x0_size ** 2) * (3.0 - q),
            tau=self.tau,
        )

    def field(self, eta: float):
        gamma, p_rate, x0_size, exp = self.gamma, self.p_rate, self.x0_size, math.exp

        def f(x: float, x_delayed: float) -> float:
            return eta * (-gamma * x + p_rate * x_delayed * exp(-x_delayed / x0_size))
        return f


@dataclass(frozen=True)
class Generic(ModelSpec):
    """A model given directly by its Taylor coefficients (deviation form).

    The right-hand side is the cubic Taylor polynomial itself, with
    equilibrium at u = 0.  Useful for linear decay benchmarks and for
    feeding arbitrary coefficient sets to the simulator.
    """

    coeffs: TaylorCoefficients

    variant = "generic"

    @property
    def tau(self) -> float:
        return self.coeffs.tau

    def equilibrium(self) -> EquilibriumReport:
        return EquilibriumReport(x_e=0.0, residual=0.0)

    def taylor_coefficients(self) -> TaylorCoefficients:
        return self.coeffs

    def field(self, eta: float):
        x1, y1, xx, xy, yy, xxx, xxy, xyy, yyy, _ = self.coeffs.as_tuple()

        def f(u: float, v: float) -> float:
            # the Taylor polynomial in Horner form: its u-only, v-only and
            # mixed terms
            return eta * (u * (x1 + u * (xx + xxx * u)) + v * (y1 + v * (yy + yyy * v))
                          + u * v * (xy + xxy * u + xyy * v))
        return f


def quadratic_roots(spec: QuadraticBD) -> tuple[float, float]:
    """Both real roots of x^2 + (k - mu)x + lam = 0, larger first.

    Raises
    ------
    NoEquilibrium
        If the discriminant is negative.
    """
    c1 = spec.k - spec.mu
    disc = c1 * c1 - 4.0 * spec.lam
    if disc < 0.0:
        raise NoEquilibrium(
            f"quadratic discriminant negative ({disc:.6g}): no real equilibrium")
    s = math.sqrt(disc)
    return (-c1 + s) / 2.0, (-c1 - s) / 2.0


def _checked(spec) -> ModelSpec:
    if not isinstance(spec, ModelSpec):
        raise InvalidSpec(f"unknown model spec {spec!r}")
    return spec


def equilibrium(spec: ModelSpec) -> EquilibriumReport:
    """Locate the equilibrium the analysis linearizes about.

    Returns
    -------
    EquilibriumReport
        Equilibrium location and the residual of the defining equation.
    """
    return _checked(spec).equilibrium()


def taylor_coefficients(spec: ModelSpec) -> TaylorCoefficients:
    """Expand the model about its equilibrium.

    Parameters
    ----------
    spec : ModelSpec

    Returns
    -------
    TaylorCoefficients
        Factorial-normalized coefficients; construction re-validates the
        0 <= a < b cone and raises InvariantViolation outside it.
    """
    return _checked(spec).taylor_coefficients()


def delay_of(spec: ModelSpec) -> float:
    """The delay tau of the model."""
    return _checked(spec).tau


def rhs(spec: ModelSpec, x: float, x_delayed: float, eta: float = 1.0) -> float:
    """Evaluate eta * f(x, x_delayed) for the model's defining equation."""
    return _checked(spec).rhs(x, x_delayed, eta)
