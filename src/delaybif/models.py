"""Concrete DDE models, their equilibria, and Taylor coefficients.

All models are instances of the scalar delayed system

    x'(t) = eta * f(x(t), x(t - tau))

and every downstream analysis consumes only the Taylor coefficients of f
about the equilibrium, collected in :class:`TaylorCoefficients`.
"""
from __future__ import annotations

import ast
import functools
import math
import sys
from dataclasses import dataclass, fields

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
    consumes it, and ``one_minus_e2``, ``r`` and ``theta`` the stability
    cone: the linearization at gain eta is stable iff eta*tau*b*r < theta.

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

    # the cone, computed once per coefficient set; a cached property is no
    # field, so equality, fields() and the artifacts do not see it
    @functools.cached_property
    def one_minus_e2(self) -> float:
        """1 - e^2 as (1 - e)(1 + e), 1 - e taken as (b - a)/b: no b*b is
        formed, and no digits of b - a are lost as a -> b."""
        return (self.b - self.a) / self.b * (1.0 + self.epsilon)

    @functools.cached_property
    def r(self) -> float:
        """sqrt(1 - e^2): b*r is sqrt(b^2 - a^2)."""
        return math.sqrt(self.one_minus_e2)

    @functools.cached_property
    def theta(self) -> float:
        """arccos(-e), taken as atan2(r, -e)."""
        return math.atan2(self.r, -self.epsilon)

    def as_tuple(self):
        return (self.xi_x, self.xi_y, self.xi_xx, self.xi_xy, self.xi_yy,
                self.xi_xxx, self.xi_xxy, self.xi_xyy, self.xi_yyy, self.tau)


@dataclass(frozen=True)
class EquilibriumReport:
    x_e: float
    residual: float


class ModelSpec:
    """Base of every model variant: the one place a model's maths lives.

    A variant supplies ``variant`` (its name in configs), ``tau``,
    ``equilibrium()``, ``taylor_coefficients()`` and the class attribute
    ``expression``: Python source for f(x, y) without the gain, in the state
    ``x``, the delayed state ``y``, ``exp`` and named constants, none named
    ``eta`` or starting with "_".  ``constants()`` gives their values, by
    default the model's attributes of those names.  Compiled once per class,
    the expression gives ``field(eta)``, the closure ``f(x, x_delayed)`` of
    eta times f, and the RK4 kernel run by ``rk4``, with f inlined at every
    stage, its delay-only terms evaluated once per delayed value, each
    Hermite midpoint of the history built once, when its right node lands
    (x_init throughout the first delay, where the history is constant),
    and a stop where the run's tail has become periodic, bit for bit, as
    ddesim.integrate states.  eta and the constants are arguments, never
    source.  Write f Horner in x and group its x-free part, as the
    built-in models do: the kernel then takes that part as one term per
    delayed value, and each stage costs two operations per degree in x.
    Module-level functions of the same names check for a ModelSpec once
    and delegate.
    """

    expression: str

    def constants(self) -> dict:
        return {name: getattr(self, name) for name in _compiled(type(self))[0]}

    def field(self, eta: float):
        return _compiled(type(self))[1](eta, **self.constants())

    def rk4(self, x0: float, n: int, m: int, dt: float, eta: float, limit: float):
        """(samples, last computed index, period; 0 unless the run stopped)
        of ddesim.integrate's n RK4 steps."""
        return _compiled(type(self))[2](x0, n, m, dt, eta, limit, **self.constants())

    def rhs(self, x: float, x_delayed: float, eta: float) -> float:
        """eta * f(x, x_delayed), through a field bound for this one call."""
        return self.field(eta)(x, x_delayed)


# the field and the integrator loop of ddesim.integrate, with eta * f
# inlined wherever {f} stands and its delay-only terms _d0, _d1, ... set by
# {d} wherever y changes; every kernel local but x and y starts with _.
# The loop returns the period p of a tail it stops on (integrate states the
# rule), 0 on every other exit
_TEMPLATE = """\
def field(eta, *, {params}exp=exp):
    return lambda x, y: eta * ({expression})

def kernel(_x0, _n, _m, _dt, eta, _limit, *, {params}exp=exp):
    # _ys[j]: the cubic Hermite midpoint of [t_j-1, t_j] (slot 0 unused),
    # built once when node j lands, from both nodes, _k1 and _fn, f at the
    # new node; step _i writes _xs[_i] and _ys[_i]
    _xs, _ys = [_x0] * (_n + 1), [0.0] * (_n + 1)
    _half, _sixth, _eighth, _floor = 0.5 * _dt, _dt / 6.0, 0.125 * _dt, -_limit
    x = y = _x = _x0
    _i = 1
    try:
        {d}
        _k1 = eta * ({f})
        for _start in range(0, _n, _m):
            _end = min(_start + _m, _n)
            if _start:
                _lag = slice(_start - _m + 1, _end - _m + 1)
                _mids, _nodes = _ys[_lag], _xs[_lag]
            else:  # the constant history: f' = 0, so its midpoints are _x0 too
                _mids = _nodes = [_x0] * _end
            for _i, y, _y_node in zip(range(_start + 1, _end + 1), _mids, _nodes):
                {d}
                x = _x + _half * _k1
                _k2 = eta * ({f})
                x = _x + _half * _k2
                _k3 = eta * ({f})
                x = _x + _dt * _k3
                y = _y_node
                {d}
                _k4 = eta * ({f})
                x = _x + _sixth * (_k1 + 2.0 * (_k2 + _k3) + _k4)
                if not _floor <= x <= _limit:
                    return _xs, _i - 1, 0
                _xs[_i] = x
                _fn = eta * ({f})
                _ys[_i] = 0.5 * (_x + x) + _eighth * (_k1 - _fn)
                _x, _k1 = x, _fn
            # step _i + 1 reads only samples _lo .. _i and values computed
            # from them; if those equal the samples p steps earlier, it reads
            # what step _i + 1 - p read and repeats its sample, and so does
            # every later step: the rest of the run repeats the last p
            # samples, a constant being p = 1.  The earlier window must start
            # at sample 0 or later, past the constant history, and hold no
            # zero: 0.0 == -0.0, but the two print differently.  Periods are
            # searched only where x is within 1e-13, relative, of the sample
            # before _lo (tails that toggle in their last bits span about
            # 2e-14), and only up to 8 delays: a run that fails either test
            # just takes its next steps
            _lo = _i - 2 * _m
            if _lo > 0 and abs(x - _xs[_lo - 1]) <= 1e-13 * abs(x):
                _w = _xs[_lo:_i + 1]
                try:
                    _j = _xs.index(_w[0], max(_lo - 8 * _m, 0), _lo)
                    while _xs[_j:_j + 2 * _m + 1] != _w:
                        _j = _xs.index(_w[0], _j + 1, _lo)
                except ValueError:  # no period yet
                    pass
                else:
                    if 0.0 not in _w:
                        return _xs, _i, _lo - _j
    except OverflowError:  # exp raises where a product gives inf, caught by the band
        return _xs, _i - 1, 0
    return _xs, _n, 0
"""


class _DelayTerms(ast.NodeTransformer):
    """Replaces each largest subexpression that reads y but not x, other
    than y itself, by a name _d0, _d1, ...; ``terms`` maps their source to
    the names."""

    def __init__(self):
        self.terms = {}

    def visit(self, node):
        if isinstance(node, ast.expr) and not isinstance(node, ast.Name):
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            if "y" in names and "x" not in names:
                source = ast.unparse(node)
                name = self.terms.setdefault(source, f"_d{len(self.terms)}")
                return ast.Name(name, ast.Load())
        return self.generic_visit(node)


@functools.cache
def _compiled(cls) -> tuple:
    """(constant names, field, kernel) of a model class."""
    names = compile(cls.expression, f"<{cls.__name__}.expression>", "eval").co_names
    params = tuple(name for name in dict.fromkeys(names) if name not in ("x", "y", "exp"))
    if any(name == "eta" or name.startswith("_") for name in params):
        raise InvalidSpec(f"{cls.__name__}.expression names a reserved constant: {params}")
    delay = _DelayTerms()
    f = ast.unparse(delay.visit(ast.parse(cls.expression, mode="eval")))
    d = "; ".join(f"{name} = {source}" for source, name in delay.terms.items())
    scope = {"exp": math.exp}
    exec(_TEMPLATE.format(expression=cls.expression, f=f, d=d,
                          params="".join(p + ", " for p in params)), scope)
    return params, scope["field"], scope["kernel"]


@dataclass(frozen=True)
class _DelayedPolynomial(ModelSpec):
    """Shared fields and validation of the delayed polynomial oscillators."""

    k: float
    mu: float
    lam: float
    tau: float

    def __post_init__(self):
        _require_finite(self)
        if self.k <= 0.0:
            raise InvalidSpec(f"k > 0 required, got k = {self.k}")
        if self.k <= self.mu:
            raise InvalidSpec(f"k > mu required, got k = {self.k}, mu = {self.mu}")
        if not math.isfinite(self.k - self.mu):
            # the equilibria's linear coefficient c1 = k - mu
            raise InvalidSpec(f"k - mu must be finite, got k = {self.k}, mu = {self.mu}")
        if self.tau <= 0.0:
            raise InvalidSpec(f"tau > 0 required, got tau = {self.tau}")


class CubicBD(_DelayedPolynomial):
    """Delayed cubic oscillator x' = -(x^3 - mu*x + lam) - k*x(t-tau).

    Its expression is that polynomial as x(mu - x^2) - (lam + k y).  Its
    equilibrium is the unique real root of x^3 + (k - mu) x + lam, taken
    from its hyperbolic closed form and polished by three Newton steps on
    a residual free of the rounding of c1*x + lam.
    """

    variant = "cubic"
    expression = "x * (mu - x * x) - (lam + k * y)"

    def equilibrium(self) -> EquilibriumReport:
        # it solves for y = 2^n x, the root of y^3 + c y + lam_n with
        # c = 4^n c1, c1 = k - mu > 0, and lam_n = 8^n lam: n = 36 where
        # |lam| < 2^-900 makes the error of c*y a normal float, and ldexp
        # scales back exactly, or rounds a subnormal x once.  The one real
        # root is -2s sinh(asinh(w)/3), s = sqrt(c/3), w = lam_n/(2s^3), s^3
        # never formed; where that is not finite (w overflows, or c/3
        # underflows to 0) it starts from -cbrt(lam_n).  Newton polishes,
        # skipping a step that overflows, on a residual that sums c*y, lam_n
        # and the rounding errors of c1 and c*y exactly: c*y nearly cancels
        # lam_n wherever y^3 is small.  + 0.0 turns a root of -0.0 into 0.0
        (c1, c1_err), lam = _two_sum(self.k, -self.mu), self.lam
        n = 36 if abs(lam) < 2.0 ** -900 and c1 < 2.0 ** 900 else 0
        c, c_err, lam_n = math.ldexp(c1, 2 * n), math.ldexp(c1_err, 2 * n), math.ldexp(lam, 3 * n)
        s = math.sqrt(c / 3.0)
        y = -2.0 * s * math.sinh(math.asinh(lam_n / (2.0 * s) / s / s) / 3.0) if s else math.nan
        if not math.isfinite(y):
            y = -math.copysign(abs(lam_n) ** (1.0 / 3.0), lam_n)
        for _ in range(3):
            (p, p_err), y3 = _two_product(c, y), y * y * y
            t, t_err = _two_sum(p, lam_n)
            step = (t + (p_err + t_err + c_err * y + y3)) / (3.0 * y * y + c)
            if abs(step) < math.inf:
                y -= step
        x = math.ldexp(y, -n)
        return EquilibriumReport(x_e=x + 0.0, residual=abs(x * x * x + c1 * x + lam))

    def taylor_coefficients(self) -> TaylorCoefficients:
        x_e = self.equilibrium().x_e
        return TaylorCoefficients(
            xi_x=-(3.0 * x_e * x_e - self.mu),
            xi_y=-self.k,
            xi_xx=-3.0 * x_e,
            xi_xxx=-1.0,
            tau=self.tau,
        )


class QuadraticBD(_DelayedPolynomial):
    """Delayed quadratic oscillator x' = -(x^2 - mu*x + lam) - k*x(t-tau).

    Its expression is that polynomial as x(mu - x) - (lam + k y).  Of its
    up to two equilibria the larger root is preferred, falling back to the
    smaller one if only that one yields an analyzable linearization
    (a >= 0 and b > a).
    """

    variant = "quadratic"
    expression = "x * (mu - x) - (lam + k * y)"

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


@dataclass(frozen=True)
class Nicholson(ModelSpec):
    """Nicholson blowflies equation N' = -gamma*N + p*N_d*exp(-N_d/x0).

    Its expression, p*N_d*exp(-N_d/x0) - gamma*N, rounds bit for bit as
    the equation is written: IEEE addition commutes, and (-g)*N is -(g*N).
    Its positive equilibrium is N* = x0 * ln(p/gamma).
    """

    gamma: float
    p_rate: float
    x0_size: float
    tau: float

    variant = "nicholson"
    expression = "p_rate * y * exp(-y / x0_size) - gamma * x"

    def __post_init__(self):
        _require_finite(self)
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
        """The expansion about N*; InvalidSpec where x0_size squared, or a
        coefficient that is not exactly zero, leaves the normal float range."""
        q = math.log(self.p_rate / self.gamma)
        size2 = _normal(self.x0_size * self.x0_size, name="x0_size squared")
        return TaylorCoefficients(
            xi_x=-self.gamma,
            xi_y=-self.gamma * (q - 1.0),
            xi_yy=_normal(-(self.gamma / self.x0_size) * (2.0 - q), q == 2.0, "xi_yy"),
            xi_yyy=_normal(self.gamma / size2 * (3.0 - q), q == 3.0, "xi_yyy"),
            tau=self.tau,
        )


@dataclass(frozen=True)
class Generic(ModelSpec):
    """A model given directly by its Taylor coefficients (deviation form).

    The right-hand side is the cubic Taylor polynomial itself, written
    Horner in x, with equilibrium at u = 0.  Useful for linear decay
    benchmarks and for feeding arbitrary coefficient sets to the simulator.
    """

    coeffs: TaylorCoefficients

    variant = "generic"
    # the Taylor polynomial Horner in x, each coefficient of a power of x
    # Horner in y: the kernel takes the y-only term and the two x-free
    # coefficients once per delayed value, leaving _d0 + x*(_d1 + x*(_d2 +
    # xi_xxx*x)) per stage
    expression = ("y * (xi_y + y * (xi_yy + xi_yyy * y)) + x * (xi_x + y * (xi_xy + xi_xyy * y)"
                  " + x * (xi_xx + xi_xxy * y + xi_xxx * x))")

    @property
    def tau(self) -> float:
        return self.coeffs.tau

    def equilibrium(self) -> EquilibriumReport:
        return EquilibriumReport(x_e=0.0, residual=0.0)

    def taylor_coefficients(self) -> TaylorCoefficients:
        return self.coeffs

    def constants(self) -> dict:
        # fields, not vars(): the cone accessors cache their values there
        return {f.name: getattr(self.coeffs, f.name)
                for f in fields(self.coeffs) if f.name != "tau"}


def quadratic_roots(spec: QuadraticBD) -> tuple[float, float]:
    """Both real roots of x^2 + (k - mu)x + lam = 0, larger first.

    With Q = -(c1 + sqrt(disc)), c1 = k - mu, they are 2 lam/Q and Q/2
    (Press et al., Numerical Recipes, 3rd ed., 2007, section 5.6): as
    c1 > 0, neither is a difference of nearly equal numbers.  Where
    disc = c1*c1 - 4 lam overflows, its square root is taken without forming
    it.  A root of -0.0 is returned as 0.0; a smaller root beyond the float
    range as -inf.

    Raises
    ------
    NoEquilibrium
        If the discriminant is negative.
    """
    c1, lam = spec.k - spec.mu, spec.lam
    disc = c1 * c1 - 4.0 * lam
    if disc < math.inf:
        if disc < 0.0:
            raise NoEquilibrium(
                f"quadratic discriminant negative ({disc:.6g}): no real equilibrium")
        q = -(c1 + math.sqrt(disc))
        return 2.0 * lam / q + 0.0, 0.5 * q + 0.0
    # c1*c1 or 4 lam overflowed: with s = 2 sqrt(|lam|), half of sqrt(disc)
    # is hypot(c1, s)/2 or sqrt((c1 - s)/2) sqrt((c1 + s)/2), and the roots
    # come from q/4, which cannot overflow
    s = 2.0 * math.sqrt(abs(lam))
    if lam >= 0.0 and c1 < s:
        raise NoEquilibrium("quadratic discriminant negative: no real equilibrium")
    half_root = (math.hypot(0.5 * c1, 0.5 * s) if lam < 0.0
                 else math.sqrt(0.5 * c1 - 0.5 * s) * math.sqrt(0.5 * c1 + 0.5 * s))
    q4 = -(0.25 * c1 + 0.5 * half_root)
    return 0.5 * lam / q4 + 0.0, 2.0 * q4 + 0.0


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """(s, e) with s = a + b rounded and s + e = a + b exactly (Knuth)."""
    s = a + b
    b_part = s - a
    return s, (a - (s - b_part)) + (b - b_part)


def _split(a: float) -> tuple[float, float]:
    """a as hi + lo, halves of at most 26 bits, by Veltkamp's 2^27 + 1;
    where that product would overflow, on a copy scaled by 2^-28."""
    if abs(a) > 2.0 ** 995:
        hi, lo = _split(a * 2.0 ** -28)
        return hi * 2.0 ** 28, lo * 2.0 ** 28
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a: float, b: float) -> tuple[float, float]:
    """(p, e) with p = a*b rounded and p + e = a*b exactly (Dekker 1971),
    wherever the partial products of the halves neither over- nor
    underflow."""
    p = a * b
    (a_hi, a_lo), (b_hi, b_lo) = _split(a), _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _normal(value: float, exact_zero: bool = False, name: str = "mu2") -> float:
    """value if finite and normal, or zero or subnormal with exact_zero."""
    if abs(value) < math.inf and (abs(value) >= sys.float_info.min or exact_zero):
        return value
    raise InvalidSpec(f"{name} = {value!r} is outside the normal float range")


def _require_finite(spec) -> None:
    """InvalidSpec naming the first field of spec that is NaN or infinite."""
    for field in fields(spec):
        value = getattr(spec, field.name)
        if not math.isfinite(value):
            raise InvalidSpec(f"{field.name} must be finite, got {value!r}")


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
