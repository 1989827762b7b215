"""Method-of-steps integration of the full nonlinear delay equation.

This is the brute-force companion to the closed-form analysis: a fixed-step
fourth-order integrator, plus verdict extraction (equilibrium, limit cycle,
divergence) from the resulting trajectory.  Fixed stepping keeps runs
bit-reproducible; there is no adaptive error control.  This module owns the
integration scheme, compiled once per model class into one loop;
integrate states it.
"""
from __future__ import annotations

import ast
import dataclasses
import enum
import functools
import math
import sys
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import Divergence, InvalidSpec, StepTooLarge
from .models import ModelSpec, _compiled, delay_of, equilibrium

__all__ = [
    "DIVERGENCE_THRESHOLD",
    "SimConfig",
    "Trajectory",
    "Verdict",
    "LimitCycleMetrics",
    "integrate",
    "metrics",
    "sweep_bifurcation",
]

DIVERGENCE_THRESHOLD = 1e6

# post-transient range below this (times max(1, |x_e|)) counts as settled
_EQUILIBRIUM_RANGE_TOL = 1e-6
# peak heights of the last ten cycles must agree to this relative spread
_CYCLE_AGREEMENT = 0.01


@dataclass(frozen=True)
class SimConfig:
    """Knobs of one integration run.

    The initial history on [-tau, 0] is the constant x_init.  dt = None
    picks the default tau/100 at integration time; whatever the value, the
    step must resolve the delay with dt <= tau/20, and dt must divide tau;
    delayed values come from nodes and interval midpoints.
    transient_fraction of the trajectory is dropped before any metric is
    computed.
    """

    eta: float
    x_init: float
    t_end: float
    dt: Optional[float] = None
    transient_fraction: float = 0.5

    def __post_init__(self):
        if not (self.eta > 0.0 and math.isfinite(self.eta)):
            raise InvalidSpec(f"eta > 0 required, got {self.eta!r}")
        if not math.isfinite(self.x_init):
            raise InvalidSpec("x_init must be finite")
        if not (self.t_end > 0.0 and math.isfinite(self.t_end)):
            raise InvalidSpec(f"t_end > 0 required, got {self.t_end!r}")
        if self.dt is not None and not self.dt > 0.0:
            raise InvalidSpec(f"dt > 0 required, got {self.dt!r}")
        if not 0.0 <= self.transient_fraction < 1.0:
            raise InvalidSpec("transient_fraction must lie in [0, 1)")


@dataclass(frozen=True)
class Trajectory:
    """Samples x(t_i) on the uniform grid t_i = i*dt, plus provenance."""

    times: np.ndarray
    values: np.ndarray
    model: ModelSpec
    config: SimConfig

    @property
    def dt(self) -> float:
        """The step of the run, also for a one-sample partial trajectory."""
        return _step(self.config, delay_of(self.model))


class Verdict(enum.Enum):
    CONVERGED_TO_EQUILIBRIUM = "ConvergedToEquilibrium"
    LIMIT_CYCLE = "LimitCycle"
    DIVERGED = "Diverged"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class LimitCycleMetrics:
    """Verdict plus the quantities that back it.

    amplitude is half the peak-to-peak range of the post-transient window
    (of the finite prefix if the run diverged) and is always >= 0.  period
    is the mean spacing of the last ten refined peaks and is set only for
    LimitCycle; decay_rate is the fitted exponential rate and is set only
    for ConvergedToEquilibrium.  Absent quantities are NaN.
    """

    verdict: Verdict
    amplitude: float
    period: float
    decay_rate: float


def _step(config: SimConfig, tau: float) -> float:
    """The step of a run: config.dt, or tau/100 when it is unset."""
    return config.dt if config.dt is not None else tau / 100.0


# integrate's loop, for one model class: eta * f inlined wherever {f}
# stands, its delay-only terms _d0, _d1, ... set by {d} wherever y changes,
# and every kernel local but x and y named with a leading _.  It returns
# the samples, the last index computed, and the period of a tail it stops
# on, 0 on every other exit
_TEMPLATE = """\
def kernel(_x0, _n, _m, _dt, eta, _limit, *, {params}exp=exp):
    # _new: this delay's Hermite midpoints, that of [t_j-1, t_j] built when
    # node j lands, from _k1 and _fn, f at both nodes; _mids: the previous
    # delay's, the ones this delay reads.  Step _i writes _xs[_i]
    _xs = _array("d", [_x0]) * (_n + 1)
    _half, _sixth, _eighth, _floor = 0.5 * _dt, _dt / 6.0, 0.125 * _dt, -_limit
    x = y = _x = _x0
    _i = 1
    try:
        {d}
        _k1 = eta * ({f})
        for _start in range(0, _n, _m):
            _end = min(_start + _m, _n)
            if _start:
                _mids, _nodes = _new, _xs[_start - _m + 1:_end - _m + 1]
            else:  # the constant history: f' = 0, so its midpoints are _x0 too
                _mids = _nodes = [_x0] * _end
            _new = []
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
                _new.append(0.5 * (_x + x) + _eighth * (_k1 - _fn))
                _x, _k1 = x, _fn
            # a periodic tail (see integrate): step _i + 1 reads only samples
            # _lo .. _i and values computed from them
            _lo = _i - 2 * _m
            if _lo > 0 and abs(x - _xs[_lo - 1]) <= 4e-14 * abs(x):
                _w = _xs[_lo:_i + 1]
                try:
                    _j = _xs.index(_w[0], max(_lo - 5 * _m, 0), _lo)
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
def _kernel(cls):
    """integrate's loop for a model class, compiled from its expression."""
    params = _compiled(cls)[0]
    delay = _DelayTerms()
    f = ast.unparse(delay.visit(ast.parse(cls.expression, mode="eval")))
    d = "; ".join(f"{name} = {source}" for source, name in delay.terms.items())
    scope = {"exp": math.exp, "_array": array}
    exec(_TEMPLATE.format(f=f, d=d, params="".join(p + ", " for p in params)), scope)
    return scope["kernel"]


def integrate(spec: ModelSpec, config: SimConfig) -> Trajectory:
    """Integrate x'(t) = eta*f(x(t), x(t-tau)) by the method of steps.

    Classic fourth-order Runge-Kutta with a fixed step dt = tau/m for a
    whole number m; history on [-tau, 0] is config.x_init.  dt must divide
    tau; delayed values come from nodes and interval midpoints: stage k4
    and the derivative at the new node read node i-m+1 of the stored
    history, stages k2 and k3 the midpoint of [i-m, i-m+1], where the cubic
    Hermite interpolant through the samples and their derivatives is
    0.5*(x_j + x_j+1) + dt/8*(f_j - f_j+1); the constant history has f' = 0,
    so its midpoints are x_init.  Each midpoint is built once, when node
    j+1 lands, into a buffer of the delay's m midpoints, and lives until
    the next delay has read it; each delay reads the previous delay's
    buffer, and its nodes from a slice taken before it starts.  So a run
    holds 8 bytes a sample: the kernel writes each sample into one float64
    buffer, which values wraps without a copy, and the times add 8 more, 16
    bytes a sample at the peak.  A diverged run keeps a copy of its finite
    prefix alone.
    The loop is one call per run of a kernel compiled once per model class
    from its expression: eta * f inlined at every stage, and the terms of f
    that read y alone evaluated once per delayed value.
    After each delay the kernel looks for a periodic tail.  Step i + 1
    reads only samples i + 1 - 2m to i + 1 and values computed from them;
    if those equal the 2m + 1 samples p steps earlier, it reads what step
    i + 1 - p read and returns the same sample, and so does every step
    after it, a constant tail being p = 1.  The kernel then returns p, and
    integrate fills the remaining samples in place by repeating the last
    p, which gives the samples of running every step.  The earlier samples
    must start at sample 0 or later, since the constant history before it
    has no Hermite midpoints, and hold no zero: 0.0 == -0.0, but the two
    are written differently.  The kernel searches only where the newest
    sample is within 4e-14, relative, of the one 2m + 1 steps back (tails
    that toggle in their last bits span about 2e-14), and only periods of
    up to 5m steps.  Neither bound can change a sample: a run that misses
    one takes its next steps, as if there were no stop.

    Raises
    ------
    InvalidSpec
        If tau = 0 (a Generic model's coefficients allow it), checked
        before the step; if dt does not divide tau or t_end < 50*tau; or
        if the run has more steps than a list can index (checked before
        anything is allocated) or than memory holds.
    StepTooLarge
        If dt > tau/20.
    Divergence
        If |x| exceeds 1e6, or a stage overflows; the partial trajectory
        (finite prefix) is attached to the exception as .trajectory.
    """
    tau = delay_of(spec)
    if not tau > 0.0:
        raise InvalidSpec("integrate needs tau > 0")
    dt = _step(config, tau)
    if dt > tau / 20.0 * (1.0 + 1e-12):
        raise StepTooLarge(
            f"dt = {dt:.6g} does not resolve the delay: dt <= tau/20 = "
            f"{tau / 20.0:.6g} required")
    m = round(tau / dt)
    if abs(m * dt - tau) > 1e-12 * tau:
        raise InvalidSpec(
            f"dt = {dt:.6g} does not divide tau = {tau:.6g}: dt = tau/m "
            "for a whole number m required")
    if config.t_end < 50.0 * tau * (1.0 - 1e-12):
        raise InvalidSpec(
            f"t_end = {config.t_end:.6g} too short: t_end >= 50*tau = "
            f"{50.0 * tau:.6g} required")
    steps = config.t_end / dt
    if not steps < sys.maxsize:
        raise InvalidSpec(
            f"t_end = {config.t_end:.6g} takes {steps:.6g} steps of dt = {dt:.6g}: "
            "more than a list can index")
    n = int(round(steps))
    try:
        xs, i, p = _kernel(type(spec))(float(config.x_init), n, m, dt, config.eta,
                                       DIVERGENCE_THRESHOLD, **spec.constants())
    except MemoryError:
        raise InvalidSpec(
            f"t_end = {config.t_end:.6g} takes {n} steps of dt = {dt:.6g}: "
            "more samples than memory holds") from None
    values = np.frombuffer(xs)  # the kernel's samples themselves, not a copy
    del xs  # values holds the buffer; a Divergence's traceback would hold xs
    if p:  # the run stopped on a tail of period p: lay copies of it end to end
        k = i + 1 - p
        rows = (n + 1 - k) // p
        values[k:k + rows * p].reshape(rows, p)[1:] = values[k:i + 1]
        values[k + rows * p:] = values[k:n + 1 - rows * p]
        i = n
    elif i < n:  # keep the finite prefix alone, not the whole buffer
        values = values[:i + 1].copy()
    times = np.arange(i + 1, dtype=float)
    times *= dt
    traj = Trajectory(times=times, values=values, model=spec, config=config)
    if i < n:
        raise Divergence(f"|x| exceeded {DIVERGENCE_THRESHOLD:.0e} at t = "
                         f"{(i + 1) * dt:.6g}", trajectory=traj)
    return traj


def _refined_peaks(t: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Local maxima by the three-point test, with parabolic refinement."""
    left = w[1:-1] > w[:-2]
    right = w[1:-1] >= w[2:]
    idx = np.nonzero(left & right)[0] + 1
    if idx.size == 0:
        return np.empty(0), np.empty(0)
    dt = t[1] - t[0]
    ym, y0, yp = w[idx - 1], w[idx], w[idx + 1]
    denom = ym - 2.0 * y0 + yp
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(np.abs(denom) > 0.0, 0.5 * (ym - yp) / denom, 0.0)
    delta = np.clip(delta, -0.5, 0.5)
    times = t[idx] + delta * dt
    heights = y0 - 0.25 * (ym - yp) * delta
    return times, heights


def _fit_decay_rate(traj: Trajectory, x_e: float) -> float:
    """Least-squares exponential rate of |x - x_e|, envelope-aware.

    Skips the initial layer (the first two delays), drops samples at the
    numerical noise floor, and fits on envelope peaks when the decay is
    oscillatory.  NaN when fewer than two usable samples remain.
    """
    tau = delay_of(traj.model)
    dev = traj.values - x_e
    np.abs(dev, out=dev)
    scale = max(1.0, abs(x_e))
    t_skip = min(2.0 * tau, 0.2 * float(traj.times[-1]))
    mask = traj.times >= t_skip
    mask &= dev > 1e-12 * scale
    if mask.sum() < 2:
        return math.nan
    d = dev[mask]
    del dev  # one full-length float temporary at a time
    t = traj.times[mask]
    pt, ph = _refined_peaks(t, d)
    keep = ph > 0.0
    if keep.sum() >= 5:
        t, d = pt[keep], ph[keep]
    # times in units of a power of two near the delay: an exact rescaling,
    # so the fit is the same to the bit wherever t^2 is a normal float, and
    # at any delay its t^2 now is
    unit = math.ldexp(1.0, math.frexp(tau)[1])
    slope = np.polyfit(t / unit, np.log(d), 1)[0]
    return float(-slope) / unit


def metrics(traj: Trajectory) -> LimitCycleMetrics:
    """Classify a trajectory and measure it.

    The transient_fraction of the run is discarded, then in order:
    Diverged if any sample is non-finite or beyond the divergence
    threshold, or if the trajectory was cut short of its configured span
    (the partial result integrate attaches to a Divergence error);
    ConvergedToEquilibrium if the remaining range is below
    1e-6 * max(1, |x_e|), with decay_rate fitted on log|x - x_e|;
    LimitCycle if at least ten peaks exist and the last ten peak heights
    (measured from the window midline) agree within 1%, with period the
    mean refined peak spacing; Undetermined otherwise.
    """
    vals = traj.values
    finite = vals >= -DIVERGENCE_THRESHOLD  # False for NaN and inf too
    finite &= vals <= DIVERGENCE_THRESHOLD
    stop = len(vals) if finite.all() else int(np.argmin(finite))
    if stop < len(vals) or len(vals) < int(round(traj.config.t_end / traj.dt)) + 1:
        prefix = vals[:stop]
        amp = 0.5 * float(prefix.max() - prefix.min()) if stop > 1 else 0.0
        return LimitCycleMetrics(Verdict.DIVERGED, amp, math.nan, math.nan)
    x_e = equilibrium(traj.model).x_e
    scale = max(1.0, abs(x_e))
    start = int(round(traj.config.transient_fraction * (len(vals) - 1)))
    w = vals[start:]
    t = traj.times[start:]
    hi, lo = w.max(), w.min()
    amp = 0.5 * float(hi - lo)
    if hi - lo < _EQUILIBRIUM_RANGE_TOL * scale:
        rate = _fit_decay_rate(traj, x_e)
        return LimitCycleMetrics(Verdict.CONVERGED_TO_EQUILIBRIUM, amp,
                                 math.nan, rate)
    peak_t, peak_h = _refined_peaks(t, w)
    if peak_t.size >= 10:
        midline = 0.5 * float(hi + lo)
        last_h = peak_h[-10:] - midline
        mean_h = float(np.mean(last_h))
        if mean_h > 0.0 and float(last_h.max() - last_h.min()) < _CYCLE_AGREEMENT * mean_h:
            period = float(np.mean(np.diff(peak_t[-10:])))
            return LimitCycleMetrics(Verdict.LIMIT_CYCLE, amp, period,
                                     math.nan)
    return LimitCycleMetrics(Verdict.UNDETERMINED, amp, math.nan, math.nan)


def sweep_bifurcation(spec: ModelSpec, eta_grid: Sequence[float],
                      config: SimConfig, continue_history: bool = False):
    """integrate + metrics across an ascending gain grid.

    Returns a list of (eta, amplitude, period, verdict) tuples, one per
    grid point.  With continue_history the final state of each run seeds
    the (constant) initial history of the next, which lets a subcritical
    branch keep its large cycle below the linear stability boundary.
    The sweep holds one run at a time: each trajectory goes before the
    next run starts, so a sweep peaks where one integrate does.
    Divergence propagates to the caller.
    """
    grid = [float(g) for g in eta_grid]
    if len(grid) == 0:
        raise InvalidSpec("eta grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidSpec("eta grid must be strictly ascending")
    out = []
    x_init = config.x_init
    for eta in grid:
        cfg = dataclasses.replace(config, eta=eta, x_init=x_init)
        traj = integrate(spec, cfg)
        m = metrics(traj)
        out.append((eta, m.amplitude, m.period, m.verdict))
        if continue_history:
            x_init = float(traj.values[-1])
        del traj  # one run at a time: this one goes before the next starts
    return out
