"""Concrete DDE models, their equilibria, and Taylor coefficients.

All models are instances of the scalar delayed system

    x'(t) = eta * f(x(t), x(t - tau))

and every downstream analysis consumes only the Taylor coefficients of f
about the equilibrium, collected in :class:`TaylorCoefficients`.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields

from .errors import DegenerateEpsilon, InvalidSpec, InvariantViolation, NoEquilibrium

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
    ``equilibrium()`` and the class attribute ``expression``: Python source
    for f(x, y) without the gain, in the state ``x``, the delayed state
    ``y``, ``exp`` and named constants, none named ``eta`` or starting with
    "_".  ``constants()`` gives their values, by default the model's
    attributes of those names.  Compiled once per class, the expression
    gives ``taylor_coefficients()``, from one run of it on truncated Taylor
    series (see _expansion), and ``field(eta)``, the closure
    ``f(x, x_delayed)`` of eta times f; ddesim compiles it into the RK4
    kernel that ``rk4`` runs (ddesim.integrate states the scheme).  eta and
    the constants are arguments, never source.  Write f Horner in x and
    group its x-free part, as the built-in models do: the kernel then takes
    that part as one term per delayed value, and each stage costs two
    operations per degree in x.
    A variant may also supply ``mu2_shape(epsilon=None)``, its own mu2
    derived by hand as a function of epsilon, at its own epsilon by
    default: a route to mu2 independent of the closed form.  It is None
    for a model without one.
    Module-level functions of the same names check for a ModelSpec once
    and delegate.
    """

    expression: str
    mu2_shape = None

    def constants(self) -> dict:
        return {name: getattr(self, name) for name in _compiled(type(self))[0]}

    def field(self, eta: float):
        return _compiled(type(self))[1](eta, **self.constants())

    def rk4(self, x0: float, n: int, m: int, dt: float, eta: float, limit: float):
        """(samples, last computed index, period; 0 unless the run stopped)
        of ddesim.integrate's n RK4 steps."""
        from .ddesim import _kernel
        return _kernel(type(self))(x0, n, m, dt, eta, limit, **self.constants())

    def rhs(self, x: float, x_delayed: float, eta: float) -> float:
        """eta * f(x, x_delayed), through a field bound for this one call."""
        return self.field(eta)(x, x_delayed)

    def taylor_coefficients(self) -> TaylorCoefficients:
        """The expansion of f about the equilibrium, from the expression (see
        _expansion); InvalidSpec names a term that leaves the normal float
        range."""
        return TaylorCoefficients(
            *_expansion(type(self))(self.equilibrium().x_e, **self.constants()), self.tau)


@functools.cache
def _compiled(cls) -> tuple:
    """(constant names, field, code object of the expression) of a model
    class."""
    code = compile(cls.expression, f"<{cls.__name__}.expression>", "eval")
    params = tuple(name for name in dict.fromkeys(code.co_names)
                   if name not in ("x", "y", "exp"))
    if any(name == "eta" or name.startswith("_") for name in params):
        raise InvalidSpec(f"{cls.__name__}.expression names a reserved constant: {params}")
    field = eval(f"lambda eta, *, {''.join(p + ', ' for p in params)}exp=exp: "
                 f"lambda x, y: eta * ({cls.expression})", {"exp": math.exp})
    return params, field, code


# the key 17i + 20j of the monomial u^i v^j of a jet, for each coefficient:
# keys add as monomials multiply, and every monomial of degree 4 or more has
# a key of 64 or more
_TERMS = {17: "xi_x", 20: "xi_y", 34: "xi_xx", 37: "xi_xy", 40: "xi_yy",
          51: "xi_xxx", 54: "xi_xxy", 57: "xi_xyy", 60: "xi_yyy"}


class _Jet(dict):
    """A polynomial of total degree at most 3 in u = x - x_e and v = y - x_e,
    products truncated to that degree: the name of each coefficient in
    straight-line source, by the key of its monomial (see _TERMS; 0 is the
    constant).  Every operation appends its lines to ``lines``, shared by
    the jets of one expression.  Each term but the constant of a product
    or quotient, and of the result, must come out finite and normal, or a
    zero no product of nonzero factors underflowed to, or the source raises
    InvalidSpec naming it.  A product that underflows into a normal sum
    has cost it less than its last bit, and a sum that lands below the
    normal range is exact, so no other term needs a check."""

    __slots__ = ("lines",)

    def _jet(self, terms) -> _Jet:
        jet = _Jet(terms)
        jet.lines = self.lines
        return jet

    def _let(self, source: str) -> str:
        name = f"_t{len(self.lines)}"
        self.lines.append(f"{name} = {source}")
        return name

    def _check(self, name: str, key: int, underflow: str) -> None:
        """InvalidSpec where the term is not finite and normal, unless it is
        a zero and the source underflow is false."""
        self.lines.append(f"if not _MIN <= abs({name}) < _INF and ({name} or {underflow}): "
                          f"_normal({name}, name={_TERMS[key]!r})")

    def _scalar(self, other) -> _Jet:
        return other if isinstance(other, _Jet) else self._jet({0: repr(other)})

    def __add__(self, other):
        terms = dict(self)
        for key, c in self._scalar(other).items():
            terms[key] = self._let(f"{terms[key]} + {c}") if key in terms else c
        return self._jet(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._jet({key: self._let(f"-{c}") for key, c in self.items()})

    # a - b rounds as a + (-b)
    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        terms, underflows = {}, {}
        for p, a in self.items():
            for q, b in self._scalar(other).items():
                if p + q < 64:
                    ab = self._let(f"{a} * {b}")
                    terms[p + q] = self._let(f"{terms[p + q]} + {ab}") if p + q in terms else ab
                    underflows.setdefault(p + q, []).append(f"{a} and {b} and abs({ab}) < _MIN")
        for key, name in terms.items():
            if key:
                self._check(name, key, " or ".join(underflows[key]))
        return self._jet(terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._scalar(other)
        if set(other) != {0}:
            return NotImplemented  # division by a constant only
        terms = {key: self._let(f"{c} / {other[0]}") for key, c in self.items()}
        for key, name in terms.items():
            if key:
                self._check(name, key, self[key])
        return self._jet(terms)


def _exp(z: _Jet) -> _Jet:
    """e^c (1 + n + n^2/2 + n^3/6) of the jet z = c + n, c its constant."""
    n = z._jet(z)
    c = n.pop(0, "0.0")
    e = z._jet({0: z._let(f"_normal_exp({c})")})
    n2 = n * n
    return e + n * e + n2 * (e * 0.5) + n2 * n * (e / 6.0)


def _normal_exp(c: float) -> float:
    try:
        e = math.exp(c)
    except OverflowError:
        e = math.inf
    return _normal(e, name=f"exp({c!r})")


@functools.cache
def _expansion(cls):
    """The function of x_e and the constants that gives the nine Taylor
    coefficients of a model class: its expression, evaluated once on the
    jets x_e + u and x_e + v, with each constant a jet of its own name."""
    params, _, code = _compiled(cls)
    root = _Jet()
    root.lines = lines = []
    f = eval(code, {**{name: root._jet({0: name}) for name in params}, "exp": _exp,
                    "x": root._jet({0: "_x_e", 17: "1.0"}), "y": root._jet({0: "_x_e", 20: "1.0"})})
    for key, c in f.items():
        if key:
            f._check(c, key, "False")
    lines.append(f"return ({', '.join(f.get(key, '0.0') for key in _TERMS)})")
    scope = {"_MIN": sys.float_info.min, "_INF": math.inf, "_normal": _normal,
             "_normal_exp": _normal_exp}
    exec(f"def expansion(_x_e, {', '.join(params)}):\n    " + "\n    ".join(lines), scope)
    return scope["expansion"]


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

    def mu2_shape(self, epsilon: float | None = None) -> float:
        """nicholson_mu2_shape at this model's x0_size, by default at its
        own epsilon = 1/(ln(p_rate/gamma) - 1)."""
        if epsilon is None:
            epsilon = 1.0 / (math.log(self.p_rate / self.gamma) - 1.0)
        return nicholson_mu2_shape(epsilon, self.x0_size)


def _checked_epsilon(e: float) -> float:
    if not 0.0 <= e < 1.0:
        raise DegenerateEpsilon(f"epsilon = a/b must lie in [0, 1), got {e!r}")
    return e


def nicholson_mu2_shape(epsilon: float, x0_size: float = 1.0) -> float:
    """Lyapunov coefficient of the exponential birth-rate model at epsilon.

    The fully simplified form, a function of epsilon alone up to the
    1/x0^2 prefactor that carries the population scale (and therefore
    never changes the sign).  It is derived by hand from the model's
    expansion about N* = x0 q, q = ln(p_rate/gamma): b = gamma(q - 1),
    a = gamma, so q = 1 + 1/e, xi_yy = gamma(q - 2)/(2 x0) =
    gamma(1 - e)/(2 e x0) and xi_yyy = gamma(3 - q)/(6 x0^2) =
    gamma(2e - 1)/(6 e x0^2); gamma cancels.  The first term is the
    quadratic coupling, the second the cubic one.

    Raises
    ------
    DegenerateEpsilon
        If epsilon falls outside [0, 1).
    InvalidSpec
        If x0_size squared, or mu2, is outside the normal float range.
    """
    eps = epsilon
    cone = TaylorCoefficients(xi_x=-_checked_epsilon(eps), xi_y=-1.0)
    one_e2, ck, ht = cone.one_minus_e2, cone.r, cone.theta
    quadratic = ((1 - eps) / ((1 + eps) ** 2 * (5 - 4 * eps))
                 * (ck * (-4 * eps**3 - 4 * eps**2 + 13 * eps - 2)
                    + ht * (-2 * eps**2 - 6 * eps + 11)))
    cubic = (2 * eps - 1) / one_e2 * (eps * ck + ht)
    return _normal((quadratic + cubic) / (2 * ht)
                   / _normal(x0_size * x0_size, name="x0_size squared"))


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
