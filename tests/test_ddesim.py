"""Method-of-steps integrator and trajectory classification.

The integrator is pinned by an exact piecewise-polynomial solution of
x'(t) = -x(t - 1) with constant unit history, for which RK4 plus the
node-and-midpoint Hermite stencil commits no truncation error at all.
"""
import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from delaybif import (
    CubicBD,
    DelayBifError,
    Divergence,
    Generic,
    InvalidSpec,
    Nicholson,
    QuadraticBD,
    SimConfig,
    StepTooLarge,
    TaylorCoefficients,
    Verdict,
    equilibrium,
    integrate,
    metrics,
    rate_of_convergence,
    sweep_bifurcation,
)

from _oracles import EX1_PERIOD


def _wright_model():
    return Generic(TaylorCoefficients(xi_x=0.0, xi_y=-1.0, tau=1.0))


def _value_at(traj, t):
    i = int(round((t - traj.times[0]) / traj.dt))
    assert traj.times[i] == pytest.approx(t, abs=1e-9)
    return traj.values[i]


# --- configuration validation ----------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(InvalidSpec):
        SimConfig(eta=0.0, x_init=1.0, t_end=60.0)
    with pytest.raises(InvalidSpec):
        SimConfig(eta=1.0, x_init=1.0, t_end=-5.0)
    with pytest.raises(InvalidSpec):
        SimConfig(eta=1.0, x_init=1.0, t_end=60.0, dt=-0.01)
    with pytest.raises(InvalidSpec):
        SimConfig(eta=1.0, x_init=1.0, t_end=60.0, transient_fraction=1.0)


def test_integrate_rejects_coarse_step():
    cfg = SimConfig(eta=1.0, x_init=1.0, t_end=60.0, dt=0.06)
    with pytest.raises(StepTooLarge):
        integrate(_wright_model(), cfg)


def test_integrate_rejects_short_run():
    cfg = SimConfig(eta=1.0, x_init=1.0, t_end=40.0)
    with pytest.raises(InvalidSpec):
        integrate(_wright_model(), cfg)



def test_integrate_rejects_a_step_count_beyond_an_index():
    # 1e302 steps: refused before a sample list is allocated
    cfg = SimConfig(eta=1.0, x_init=1.0, t_end=1e300)
    with pytest.raises(InvalidSpec, match="more than a list can index"):
        integrate(_wright_model(), cfg)


def test_integrate_rejects_a_step_count_beyond_memory():
    # 1e18 steps index a list, but its 8e18 bytes exceed any 64-bit address
    # space, so allocating the first sample list fails at once
    cfg = SimConfig(eta=1.0, x_init=1.0, t_end=1e16)
    with pytest.raises(InvalidSpec, match=r"^t_end = 1e\+16 takes 1000000000000000000 steps"
                                          r" of dt = 0.01: more samples than memory holds$"):
        integrate(_wright_model(), cfg)


@pytest.mark.parametrize("dt", [None, 0.01])
def test_integrate_rejects_zero_delay(dt):
    # the coefficients allow tau = 0; the delay is checked before the step
    spec = Generic(TaylorCoefficients(xi_x=-0.5, xi_y=-1.0, tau=0.0))
    with pytest.raises(InvalidSpec, match="integrate needs tau > 0"):
        integrate(spec, SimConfig(eta=1.0, x_init=0.1, t_end=10.0, dt=dt))


def test_default_step_resolves_delay():
    traj = integrate(_wright_model(),
                     SimConfig(eta=1.0, x_init=1.0, t_end=50.0))
    assert traj.dt == pytest.approx(0.01, rel=1e-12)


def test_integrate_requires_step_dividing_delay():
    cfg = SimConfig(eta=1.0, x_init=1.0, t_end=50.0, dt=0.03)
    with pytest.raises(InvalidSpec, match="does not divide tau"):
        integrate(_wright_model(), cfg)
    for dt in (1.0 / 50.0, 0.01, None):
        traj = integrate(_wright_model(),
                         SimConfig(eta=1.0, x_init=1.0, t_end=50.0, dt=dt))
        assert len(traj.values) == int(round(50.0 / traj.dt)) + 1


# --- integrator accuracy ---------------------------------------------------

def test_exact_piecewise_polynomial_solution():
    # with history identically 1 the solution is 1 - t on [0, 1] and
    # 1 - t + (t-1)^2/2 on [1, 2]; both are cubic-or-lower pieces, so the
    # scheme reproduces them to roundoff
    traj = integrate(_wright_model(),
                     SimConfig(eta=1.0, x_init=1.0, t_end=50.0, dt=0.01))
    assert traj.values[0] == 1.0
    assert _value_at(traj, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert _value_at(traj, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert _value_at(traj, 2.0) == pytest.approx(-0.5, abs=1e-12)


def test_gain_rescales_time():
    # doubling eta is the same as doubling f; at matching times the
    # trajectories of eta=1 with 2f and eta=2 with f coincide
    c = TaylorCoefficients(xi_x=0.0, xi_y=-1.0, tau=1.0)
    c2 = TaylorCoefficients(xi_x=0.0, xi_y=-2.0, tau=1.0)
    t1 = integrate(Generic(c2), SimConfig(eta=1.0, x_init=0.5, t_end=50.0))
    t2 = integrate(Generic(c), SimConfig(eta=2.0, x_init=0.5, t_end=50.0))
    assert np.allclose(t1.values, t2.values, atol=1e-12)


def test_step_halving_converged():
    # compare mid-decay, where the state is still order one
    cfg1 = SimConfig(eta=1.0, x_init=1.0, t_end=50.0, dt=0.02)
    cfg2 = SimConfig(eta=1.0, x_init=1.0, t_end=50.0, dt=0.01)
    t1 = integrate(_wright_model(), cfg1)
    t2 = integrate(_wright_model(), cfg2)
    assert _value_at(t1, 5.0) == pytest.approx(_value_at(t2, 5.0), rel=1e-3)


def test_equilibrium_is_fixed_point(ex1_spec):
    x_e = equilibrium(ex1_spec).x_e
    traj = integrate(ex1_spec, SimConfig(eta=1.0, x_init=x_e, t_end=20.0))
    assert np.max(np.abs(np.asarray(traj.values) - x_e)) < 1e-12


# --- verdicts --------------------------------------------------------------

def test_converged_below_hopf(ex1_spec, ex1_coeffs):
    m = metrics(integrate(ex1_spec,
                          SimConfig(eta=0.95, x_init=0.9, t_end=130.0)))
    assert m.verdict is Verdict.CONVERGED_TO_EQUILIBRIUM
    assert math.isnan(m.period)
    sigma = rate_of_convergence(ex1_coeffs, eta=0.95).sigma
    assert m.decay_rate == pytest.approx(sigma, rel=5e-2)


@pytest.mark.parametrize("tau", [2.0 ** -1000, 2.0 ** -600, 2.0 ** 520],
                         ids=["2^-1000", "2^-600", "2^520"])
def test_decay_rate_is_fitted_in_units_of_the_delay(tau):
    # coefficients in units of 1/tau give the tau = 1 run, rescaled exactly in
    # time; the fit's t^2 under- or overflows at these delays, the rate not
    def rate(tau):
        spec = Generic(TaylorCoefficients(xi_x=-0.5 / tau, xi_y=-1.0 / tau, tau=tau))
        m = metrics(integrate(spec, SimConfig(eta=1.0, x_init=1.0, t_end=60.0 * tau)))
        assert m.verdict is Verdict.CONVERGED_TO_EQUILIBRIUM
        return m.decay_rate

    assert rate(tau) * tau == rate(1.0)


def test_limit_cycle_above_hopf(ex1_spec):
    m = metrics(integrate(ex1_spec,
                          SimConfig(eta=1.05, x_init=0.9, t_end=60.0)))
    assert m.verdict is Verdict.LIMIT_CYCLE
    assert m.amplitude == pytest.approx(1.133628, rel=1e-4)
    assert m.period == pytest.approx(0.682316, rel=1e-4)
    # the observed period stays near the linear prediction 2*pi/omega0
    assert m.period == pytest.approx(EX1_PERIOD, rel=0.1)
    assert math.isnan(m.decay_rate)


def test_undetermined_on_short_transient(ex2_spec):
    # the second parameter set escapes its unstable equilibrium so slowly
    # that 60 time units cannot settle the verdict
    m = metrics(integrate(ex2_spec,
                          SimConfig(eta=1.05, x_init=1.35, t_end=60.0)))
    assert m.verdict is Verdict.UNDETERMINED


def test_divergence_carries_partial_trajectory():
    model = Generic(TaylorCoefficients(xi_x=0.0, xi_y=-1.0, xi_xx=5.0,
                                       tau=1.0))
    with pytest.raises(Divergence) as exc:
        integrate(model, SimConfig(eta=1.0, x_init=1.0, t_end=50.0))
    traj = exc.value.trajectory
    assert traj is not None
    assert np.all(np.isfinite(traj.values))
    m = metrics(traj)
    assert m.verdict is Verdict.DIVERGED
    assert m.amplitude >= 0.0
    assert math.isnan(m.period)


@pytest.mark.parametrize("spec, x_init", [
    (CubicBD(k=9.0, mu=1.0, lam=-7.0, tau=0.187), 5e5),
    (Nicholson(gamma=1.0, p_rate=50.0, x0_size=1.0, tau=1.0), -800.0),
])
def test_overflowing_stage_is_divergence(spec, x_init):
    # the first step leaves the float range inside the RK4 stages: the
    # cubic's x*x*x becomes inf and the guard band test on the new state
    # stops the run, while exp(-x_d/x0) raises OverflowError
    for dt in (None, spec.tau / 40.0):
        cfg = SimConfig(eta=1.0, x_init=x_init, t_end=50.0 * spec.tau, dt=dt)
        with pytest.raises(Divergence) as exc:
            integrate(spec, cfg)
        traj = exc.value.trajectory
        assert traj.values[0] == x_init
        assert np.all(np.isfinite(traj.values))
        assert metrics(traj).verdict is Verdict.DIVERGED
        # the first step overflows: the initial sample alone remains, and
        # its step still comes from the run's configuration
        assert traj.times.tolist() == [0.0]
        assert traj.dt == (spec.tau / 100.0 if dt is None else dt)


_EVERY_VARIANT = [
    CubicBD(k=9.0, mu=1.0, lam=-7.0, tau=0.187),
    QuadraticBD(k=6.0, mu=1.0, lam=-7.0, tau=0.5),
    Nicholson(gamma=1.0, p_rate=50.0, x0_size=1.0, tau=1.0),
    Generic(TaylorCoefficients(xi_x=-0.5, xi_y=-2.0, xi_xx=0.3, xi_yy=0.1,
                               xi_xxx=-0.4, xi_yyy=0.07, tau=1.0)),
]


@given(spec=st.sampled_from(_EVERY_VARIANT),
       x_init=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_integrate_returns_or_raises_library_error(spec, x_init):
    cfg = SimConfig(eta=1.0, x_init=x_init, t_end=50.0 * spec.tau,
                    dt=spec.tau / 20.0)
    try:
        traj = integrate(spec, cfg)
    except DelayBifError:
        return
    assert np.all(np.isfinite(traj.values))


def test_amplitude_never_negative(ex1_spec):
    for eta in (0.95, 1.05):
        m = metrics(integrate(ex1_spec,
                              SimConfig(eta=eta, x_init=0.9, t_end=60.0)))
        assert m.amplitude >= 0.0 or math.isnan(m.amplitude)


# --- bifurcation sweep -----------------------------------------------------

def test_sweep_requires_ascending_grid(ex1_spec):
    cfg = SimConfig(eta=1.0, x_init=1.1, t_end=60.0)
    with pytest.raises(InvalidSpec):
        sweep_bifurcation(ex1_spec, [1.05, 1.02], cfg)


def test_sweep_amplitudes_grow_past_onset(ex1_spec):
    cfg = SimConfig(eta=1.0, x_init=1.1, t_end=120.0, dt=0.187 / 50.0)
    rows = sweep_bifurcation(ex1_spec, [1.02, 1.03, 1.04], cfg,
                             continue_history=True)
    assert [r[0] for r in rows] == [1.02, 1.03, 1.04]
    assert all(r[3] is Verdict.LIMIT_CYCLE for r in rows)
    amps = [r[1] for r in rows]
    assert amps[0] < amps[1] < amps[2]
