"""The compiled RK4 kernel behind integrate, and the expression contract.

integrate runs one loop per model class, compiled from the model's
expression with eta * f inlined at every stage and its delay-only terms
evaluated once per delayed value.  The kernel stops where the run's tail
repeats bit for bit with a period p of up to 5 delays, a constant being
p = 1, and reports p; integrate fills the rest of the samples by
repeating the last p.  The kernel only searches where the newest sample
lies within 4e-14, relative, of the one 2m + 1 steps back; a run that
fails that filter or has a longer period takes every step, so neither
bound changes a sample.  The kernel is pinned bit for bit to the loop it
replaced, which called the closure spec.field(eta) at every stage and ran
every step; that loop is kept here as the oracle.  The kernel, its
template and its compile live in ddesim, beside integrate.
"""
import ast
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from delaybif import (
    CubicBD,
    Divergence,
    EquilibriumReport,
    Generic,
    InvalidSpec,
    ModelSpec,
    Nicholson,
    QuadraticBD,
    SimConfig,
    TaylorCoefficients,
    Verdict,
    critical_eta,
    integrate,
    metrics,
    quadratic_roots,
    rate_of_convergence,
)

from delaybif import ddesim
from delaybif.ddesim import DIVERGENCE_THRESHOLD


def _reference(spec, config):
    """The closure-based loop integrate ran before the compiled kernel: the
    samples up to the last good one."""
    tau = spec.tau
    dt = config.dt
    m = round(tau / dt)
    f = spec.field(config.eta)
    n = int(round(config.t_end / dt))
    x0 = float(config.x_init)
    xs = [x0] * (n + 1)
    fs = [0.0] * (n + 1)
    half = 0.5 * dt
    sixth = dt / 6.0
    eighth = 0.125 * dt
    i = 0
    try:
        fs[0] = f(x0, x0)
        for i in range(n):
            j = i - m
            if j < 0:
                x_mid = x_node = x0
            else:
                x_node = xs[j + 1]
                x_mid = 0.5 * (xs[j] + x_node) + eighth * (fs[j] - fs[j + 1])
            x = xs[i]
            k1 = fs[i]
            k2 = f(x + half * k1, x_mid)
            k3 = f(x + half * k2, x_mid)
            k4 = f(x + dt * k3, x_node)
            xn = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            if not (abs(xn) <= DIVERGENCE_THRESHOLD):
                break
            xs[i + 1] = xn
            fs[i + 1] = f(xn, x_node)
        else:
            return xs
    except OverflowError:
        pass
    return xs[:i + 1]


def _samples(spec, config):
    try:
        return integrate(spec, config).values
    except Divergence as exc:
        return exc.trajectory.values


def _assert_bit_identical(spec, config):
    """The samples of integrate, checked against the oracle's."""
    want = np.array(_reference(spec, config))
    got = _samples(spec, config)
    assert len(got) == len(want)
    assert got.tobytes() == want.tobytes()
    return got


def _seeded(variant, rng):
    """A random model of the variant, a gain and an initial value near its
    equilibrium or, now and then, far enough out to diverge."""
    tau = rng.uniform(0.2, 2.0)
    if variant == "cubic":
        k = rng.uniform(1.0, 10.0)
        spec = CubicBD(k=k, mu=rng.uniform(-1.0, 0.9 * k), lam=rng.uniform(-8.0, 8.0), tau=tau)
    elif variant == "quadratic":
        k = rng.uniform(1.0, 10.0)
        spec = QuadraticBD(k=k, mu=rng.uniform(-1.0, 0.9 * k), lam=rng.uniform(-8.0, 0.0), tau=tau)
    elif variant == "nicholson":
        gamma = rng.uniform(0.5, 2.0)
        spec = Nicholson(gamma=gamma, p_rate=gamma * rng.uniform(3.0, 60.0),
                         x0_size=rng.uniform(0.5, 2.0), tau=tau)
    else:
        b = rng.uniform(0.5, 3.0)
        spec = Generic(TaylorCoefficients(
            xi_x=-b * rng.uniform(0.0, 0.9), xi_y=-b,
            **{name: rng.uniform(-1.0, 1.0) for name in
               ("xi_xx", "xi_xy", "xi_yy", "xi_xxx", "xi_xxy", "xi_xyy", "xi_yyy")},
            tau=tau))
    x_e = quadratic_roots(spec)[0] if variant == "quadratic" else spec.equilibrium().x_e
    spread = rng.choice((0.1, 1.0, 10.0))
    return spec, rng.uniform(0.3, 2.0), x_e + rng.uniform(-spread, spread)


@pytest.mark.parametrize("m", [20, 50, 100])
@pytest.mark.parametrize("variant", ["cubic", "quadratic", "nicholson", "generic"])
def test_kernel_is_bit_identical_to_closure_loop(variant, m):
    rng = random.Random(f"{variant}-{m}")
    for _ in range(4):
        spec, eta, x_init = _seeded(variant, rng)
        _assert_bit_identical(spec, SimConfig(eta=eta, x_init=x_init,
                                              t_end=50.0 * spec.tau, dt=spec.tau / m))


@pytest.mark.parametrize("spec, x_init, delays", [
    (CubicBD(k=9.0, mu=1.0, lam=-7.0, tau=0.187), 5e5, None),
    (Nicholson(gamma=1.0, p_rate=50.0, x0_size=1.0, tau=1.0), -800.0, None),
    (Generic(TaylorCoefficients(xi_x=0.0, xi_y=-1.0, xi_xx=5.0, tau=1.0)), 1.0, None),
    # in the band through the first delay (down to -2346), then exp(-y/x0_size)
    # overflows on the first step of the second: the samples of one delay survive
    (Nicholson(gamma=1.0, p_rate=50.0, x0_size=0.1, tau=1.0), -0.5, 1),
], ids=["cubic-overflow", "nicholson-overflow", "generic-guard-band",
        "nicholson-overflow-second-delay"])
@pytest.mark.parametrize("m", [20, 50, 100])
def test_kernel_partial_trajectory_is_bit_identical(spec, x_init, delays, m):
    config = SimConfig(eta=1.0, x_init=x_init, t_end=50.0 * spec.tau, dt=spec.tau / m)
    with pytest.raises(Divergence):
        integrate(spec, config)
    values = _assert_bit_identical(spec, config)
    if delays is not None:
        assert len(values) == delays * m + 1


@pytest.mark.parametrize("m", [20, 50, 100])
@pytest.mark.parametrize("variant", ["cubic", "quadratic", "nicholson", "generic"])
def test_partial_last_delay_is_bit_identical(variant, m):
    # the last interval holds 0.37 of a delay: its midpoint and node slices
    # are shorter than m
    rng = random.Random(f"partial-{variant}-{m}")
    finished = 0
    for _ in range(4):
        spec, eta, x_init = _seeded(variant, rng)
        config = SimConfig(eta=eta, x_init=x_init, t_end=(50 + 0.37) * spec.tau,
                           dt=spec.tau / m)
        n = round(config.t_end / config.dt)
        assert n % m == round(0.37 * m)
        finished += len(_assert_bit_identical(spec, config)) == n + 1
    assert finished


@pytest.mark.parametrize("m", [20, 50, 100])
def test_guard_band_exit_in_a_later_delay_is_bit_identical(m):
    # a subcritical quadratic above onset blows up in finite time: |x| leaves
    # the band, with no stage overflowing, while its delayed values stream
    # from the fourth delay's slices
    spec = QuadraticBD(k=6.0, mu=1.0, lam=-7.0, tau=0.5)
    config = SimConfig(eta=1.0, x_init=quadratic_roots(spec)[0] - 1.0,
                       t_end=50.0 * spec.tau, dt=spec.tau / m)
    with pytest.raises(Divergence):
        integrate(spec, config)
    values = _assert_bit_identical(spec, config)
    assert (len(values) - 1) // m == 3
    assert np.all(np.abs(values) <= DIVERGENCE_THRESHOLD)


@pytest.mark.parametrize("m", [20, 50, 100])
def test_nan_stage_ends_as_divergence(m):
    # inf - inf: the cubic terms at 1e3 overflow with opposite signs, so k1
    # is NaN and the band test, which NaN fails, ends the run
    spec = Generic(TaylorCoefficients(xi_x=-0.5, xi_y=-1.0, xi_xxx=1e300,
                                      xi_yyy=-1e300, tau=1.0))
    assert math.isnan(spec.field(1.0)(1e3, 1e3))
    config = SimConfig(eta=1.0, x_init=1e3, t_end=50.0, dt=1.0 / m)
    with pytest.raises(Divergence):
        integrate(spec, config)
    assert _assert_bit_identical(spec, config).tolist() == [1e3]


@pytest.mark.parametrize("cls, degree", [
    (CubicBD, 3), (QuadraticBD, 2), (Generic, 3), (Nicholson, 1),
], ids=lambda p: getattr(p, "variant", p))
def test_per_stage_part_is_horner_in_x(cls, degree):
    # what the kernel evaluates at every stage, once the terms that read y
    # alone are taken per delayed value: Horner in x costs 2 operations a
    # degree
    stage = ddesim._DelayTerms().visit(ast.parse(cls.expression, mode="eval"))
    nodes = list(ast.walk(stage))
    assert "y" not in {node.id for node in nodes if isinstance(node, ast.Name)}
    assert sum(isinstance(node, (ast.BinOp, ast.UnaryOp)) for node in nodes) <= 2 * degree


def _documented_terms(spec, x, y):
    """The monomials of f as each class documents it, exact in the float
    inputs."""
    x, y = Fraction(x), Fraction(y)
    if isinstance(spec, Generic):
        c = {name: Fraction(value) for name, value in spec.constants().items()}
        return [c["xi_x"] * x, c["xi_y"] * y, c["xi_xx"] * x ** 2, c["xi_xy"] * x * y,
                c["xi_yy"] * y ** 2, c["xi_xxx"] * x ** 3, c["xi_xxy"] * x ** 2 * y,
                c["xi_xyy"] * x * y ** 2, c["xi_yyy"] * y ** 3]
    power = 3 if isinstance(spec, CubicBD) else 2
    # x' = -(x^p - mu*x + lam) - k*x(t - tau)
    return [-x ** power, Fraction(spec.mu) * x, -Fraction(spec.lam), -Fraction(spec.k) * y]


def _points(rng, x_e):
    """States and delayed states from 1e-6 to 1e6 in size, of either sign,
    and within 1e-9 relative of the equilibrium, where f cancels to 0."""
    for _ in range(25):
        yield tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0) for _ in "xy")
        yield tuple(x_e * (1.0 + rng.uniform(-1e-9, 1e-9)) + rng.uniform(-1e-12, 1e-12)
                    for _ in "xy")


@pytest.mark.parametrize("variant", ["cubic", "quadratic", "generic"])
def test_field_is_the_documented_polynomial(variant):
    # eta * f computed exactly from the same floats: at most 8 roundings
    # (generic's xi_xyy*x*y^2, through d1, x, d0 and eta) lie between an
    # input and the result, each of at most half an ulp of a partial sum
    # no larger than eta times the sum of |terms|
    rng = random.Random(f"algebra-{variant}")
    for _ in range(20):
        spec, eta, _ = _seeded(variant, rng)
        f = spec.field(eta)
        x_e = quadratic_roots(spec)[0] if variant == "quadratic" else spec.equilibrium().x_e
        for x, y in _points(rng, x_e):
            terms = _documented_terms(spec, x, y)
            scale = float(Fraction(eta) * sum(map(abs, terms)))
            error = abs(Fraction(f(x, y)) - Fraction(eta) * sum(terms))
            assert error <= 8 * math.ulp(scale), (spec, eta, x, y)


def test_nicholson_field_is_the_negated_form_bit_for_bit():
    # a - g*x and -g*x + a round alike: IEEE addition commutes and
    # (-g)*x == -(g*x)
    rng = random.Random("algebra-nicholson")
    for _ in range(20):
        spec, eta, _ = _seeded("nicholson", rng)
        f = spec.field(eta)
        scope = dict(spec.constants(), exp=math.exp, eta=eta)
        for x, y in _points(rng, spec.equilibrium().x_e):
            try:
                want = eval("eta * (-gamma * x + p_rate * y * exp(-y / x0_size))",
                            dict(scope, x=x, y=y))
            except OverflowError:
                with pytest.raises(OverflowError):
                    f(x, y)
                continue
            assert f(x, y) == want


@dataclass(frozen=True)
class _Linear(ModelSpec):
    """x' = eta * (-a x - b x(t - tau)), stated through the expression
    contract alone."""

    a: float
    b: float
    tau: float

    variant = "linear"
    expression = "-a * x - b * y"

    def constants(self):
        return {"a": self.a, "b": self.b}

    def equilibrium(self):
        return EquilibriumReport(x_e=0.0, residual=0.0)

    def taylor_coefficients(self):
        return TaylorCoefficients(xi_x=-self.a, xi_y=-self.b, tau=self.tau)


_SPECS = [
    CubicBD(k=9.0, mu=1.0, lam=-7.0, tau=0.187),
    QuadraticBD(k=6.0, mu=1.0, lam=-7.0, tau=0.5),
    Nicholson(gamma=1.0, p_rate=50.0, x0_size=1.0, tau=1.0),
    Generic(TaylorCoefficients(xi_x=-0.5, xi_y=-2.0, xi_xx=0.3, xi_xy=-0.2,
                               xi_yy=0.1, xi_xxx=-0.4, xi_xxy=0.05,
                               xi_xyy=-0.06, xi_yyy=0.07, tau=2.0)),
    _Linear(a=0.5, b=1.0, tau=1.0),
]


@pytest.mark.parametrize("spec", _SPECS, ids=lambda spec: spec.variant)
@pytest.mark.parametrize("m", [20, 50])
@pytest.mark.parametrize("offset", [-13, 0, 1], ids=["n<m", "n=m", "n=m+1"])
def test_first_delay_is_bit_identical(spec, m, offset):
    # runs that end inside the first delay, at its end and one step after
    # it: every delayed value the kernel reads is the constant history
    dt = spec.tau / m
    n = m + offset
    x_init = spec.equilibrium().x_e + 0.1
    want = np.array(_reference(spec, SimConfig(eta=0.5, x_init=x_init, t_end=n * dt, dt=dt)))
    xs, i, p = spec.rk4(x_init, n, m, dt, 0.5, DIVERGENCE_THRESHOLD)
    assert i == n == len(want) - 1 and p == 0
    assert np.array(xs[:i + 1]).tobytes() == want.tobytes()


def _python_calls(spec, t_end):
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    config = SimConfig(eta=0.5, x_init=spec.equilibrium().x_e + 0.1, t_end=t_end)
    sys.setprofile(count)
    try:
        integrate(spec, config)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("spec", _SPECS, ids=lambda spec: spec.variant)
def test_integrate_makes_no_python_call_per_step(spec):
    _python_calls(spec, 50.0 * spec.tau)  # compiles the kernel of the class
    calls = _python_calls(spec, 50.0 * spec.tau)
    assert calls > 0
    assert _python_calls(spec, 100.0 * spec.tau) == calls


def test_linear_spec_decays_at_the_closed_form_rate():
    spec = _Linear(a=0.5, b=1.0, tau=1.0)
    assert spec.field(2.0)(0.3, -0.7) == 2.0 * (-0.5 * 0.3 - 1.0 * -0.7)
    eta = 1.0
    m = metrics(integrate(spec, SimConfig(eta=eta, x_init=1.0, t_end=60.0)))
    assert m.verdict is Verdict.CONVERGED_TO_EQUILIBRIUM
    sigma = rate_of_convergence(spec.taylor_coefficients(), eta).sigma
    # the decay-rate gate of the sim-grid benchmark workload
    assert abs(m.decay_rate - sigma) <= 0.05 * sigma


@pytest.mark.parametrize("expression", ["-eta * x", "-_k1 * y"])
def test_expression_may_not_name_reserved_constants(expression):
    spec = type("Reserved", (_Linear,), {"expression": expression})(a=0.5, b=1.0, tau=1.0)
    with pytest.raises(InvalidSpec):
        spec.field(1.0)
    with pytest.raises(InvalidSpec):
        integrate(spec, SimConfig(eta=1.0, x_init=1.0, t_end=60.0))


def test_constants_are_arguments_not_source():
    # two models of one class share one compiled kernel
    a = CubicBD(k=9.0, mu=1.0, lam=-7.0, tau=0.187)
    b = CubicBD(k=4.75, mu=1.0, lam=-7.0, tau=1.0)
    assert a.field(1.0).__code__ is b.field(2.0).__code__
    assert a.field(1.0)(0.2, 0.1) == 1.0 * (-(0.2 * 0.2 * 0.2 - 1.0 * 0.2 + -7.0) - 9.0 * 0.1)


def _constant_tail(values) -> int:
    """How many samples before the last are bit-equal to it."""
    last = values[-1].tobytes()
    k = len(values) - 1
    while k > 0 and values[k - 1].tobytes() == last:
        k -= 1
    return len(values) - 1 - k


@pytest.mark.parametrize("spec", _SPECS[:4], ids=lambda spec: spec.variant)
@pytest.mark.parametrize("m", [20, 50])
def test_settling_run_is_bit_identical(spec, m):
    # below onset over 400 delays, as in the sim-grid benchmark workload
    eta = 0.5 * critical_eta(spec.taylor_coefficients()).eta_c
    x_e = spec.equilibrium().x_e
    config = SimConfig(eta=eta, x_init=x_e + 0.1, t_end=400.0 * spec.tau, dt=spec.tau / m)
    values = _assert_bit_identical(spec, config)
    if x_e != 0.0:
        # settled for three delays: the kernel met its stop at a delay boundary
        assert values[-1] != 0.0 and _constant_tail(values) >= 3 * m + 2


def _tail_period(values, span):
    """The smallest p for which the last span samples repeat, bit for bit,
    the span samples p steps before them; None if there is none."""
    tail = values[-span:].tobytes()
    return next((p for p in range(1, len(values) - span + 1)
                 if values[-span - p:-p].tobytes() == tail), None)


@pytest.mark.parametrize("spec, eta, x_init, delays", [
    (CubicBD(k=7.3, mu=1.0, lam=4.4, tau=0.24), 0.63, -0.6, 200),
    (QuadraticBD(k=5.4, mu=1.0, lam=-5.2, tau=0.49), 0.46, 1.02, 200),
    (Nicholson(gamma=0.6, p_rate=35.1, x0_size=1.0, tau=0.48), 1.78, 4.27, 300),
], ids=["cubic", "quadratic", "nicholson"])
def test_toggling_run_is_bit_identical(spec, eta, x_init, delays):
    # below onset, these runs converge but keep toggling in their last bits:
    # their tails repeat with a period of 3 to 4 delays, never a constant,
    # and the kernel stops on that period
    config = SimConfig(eta=eta, x_init=x_init, t_end=delays * spec.tau, dt=spec.tau / 20)
    values = _assert_bit_identical(spec, config)
    period = _tail_period(values, 5 * 20)
    assert period is not None and 60 <= period <= 80
    assert _constant_tail(values) == 0
    _, i, p = spec.rk4(x_init, len(values) - 1, 20, config.dt, eta, DIVERGENCE_THRESHOLD)
    assert p > 0 and p % period == 0


@pytest.mark.parametrize("spec", _SPECS[:3], ids=lambda spec: spec.variant)
def test_run_from_the_equilibrium_is_bit_identical(spec):
    x_e = spec.equilibrium().x_e
    config = SimConfig(eta=0.5, x_init=x_e, t_end=60.0 * spec.tau, dt=spec.tau / 20)
    assert set(_assert_bit_identical(spec, config).tolist()) == {x_e}


def test_decay_to_zero_through_the_subnormals_is_bit_identical():
    # x_e = 0: the run passes through subnormal samples and ends in 1,658
    # samples of exactly 0.0, more than the 2m + 2 a stop compares; zero is
    # never a stop, since 0.0 == -0.0
    spec = Generic(TaylorCoefficients(xi_x=-1.0, xi_y=-2.0, tau=0.5))
    config = SimConfig(eta=0.5, x_init=1.0, t_end=457.6, dt=0.02)
    values = _assert_bit_identical(spec, config)
    assert np.any((values != 0.0) & (np.abs(values) < sys.float_info.min))
    assert values[-1] == 0.0 and _constant_tail(values) >= 2 * 25 + 2


class _Counter:
    """A callable that counts its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x, y):
        self.calls += 1
        return self.f(x, y)


@dataclass(frozen=True)
class _Counted(ModelSpec):
    """x' = eta * g(x, x(t - tau)) for a Python callable g, its one constant:
    the kernel calls g once per evaluation of f."""

    g: _Counter
    tau: float

    variant = "counted"
    expression = "g(x, y)"


@pytest.mark.parametrize("f, eta, x_init, tau, m, t_end, stops", [
    (lambda x, y: 1.0 - 0.5 * x - y, 1.0, 0.0, 1.0, 20, 400.0, True),
    # a tail that repeats every 78 steps: the cubic model k = 7.3, mu = 1,
    # lam = 4.4 below onset
    (lambda x, y: x * (1.0 - x * x) - (4.4 + 7.3 * y), 0.63, -0.6, 0.24, 20, 96.0, True),
    (lambda x, y: -(x * x * x - x - 7.0) - 9.0 * y, 1.05, 0.9, 0.187, 20, 74.8, False),
    (lambda x, y: -x - 2.0 * y, 0.5, 1.0, 0.5, 25, 457.6, False),
], ids=["settles", "toggles", "limit-cycle", "decays-to-zero"])
def test_settled_run_stops_calling_f(f, eta, x_init, tau, m, t_end, stops):
    g = _Counter(f)
    spec = _Counted(g=g, tau=tau)
    config = SimConfig(eta=eta, x_init=x_init, t_end=t_end, dt=tau / m)
    n = round(t_end * m / tau)
    want = np.array(_reference(spec, config))
    g.calls = 0
    got = integrate(spec, config).values
    assert got.tobytes() == want.tobytes()
    # one call for the first derivative, then four per step taken
    assert g.calls % 4 == 1
    assert (g.calls < 4 * n + 1) == stops
    if stops:
        assert g.calls < 4 * n // 2


def test_negative_zero_history_is_bit_identical():
    # f reads the sign of the delayed state, so every delayed read of the
    # first delay must be the history -0.0 itself, not 0.0
    spec = _Counted(g=_Counter(lambda x, y: math.copysign(1.0, y) - x), tau=1.0)
    m = 20
    config = SimConfig(eta=0.5, x_init=-0.0, t_end=(m + 1) / m, dt=1.0 / m)
    want = np.array(_reference(spec, config))
    xs, i, p = spec.rk4(-0.0, m + 1, m, 1.0 / m, 0.5, DIVERGENCE_THRESHOLD)
    assert i == m + 1 == len(want) - 1 and want[1] < 0.0 and p == 0
    assert np.array(xs).tobytes() == want.tobytes()
