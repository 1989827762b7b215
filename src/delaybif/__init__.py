"""Stability and Hopf-bifurcation analysis of first-order scalar DDEs.

The package analyzes delayed systems x'(t) = eta * f(x(t), x(t - tau)):
equilibria and Taylor coefficients (models), characteristic roots and the
Hopf point (chareq), closed-form decay rates and oscillation regimes
(convergence), the first Lyapunov coefficient by two independent routes
(hopf), and a method-of-steps simulation oracle (ddesim).  The cli module
exposes all of it behind the ``delaybif`` command.

numpy is loaded only by the simulation oracle and by the root search, so
the oracle's names are loaded on first use: ``import delaybif`` and the
closed forms stay numpy-free.
"""
from .chareq import (
    ComplexRoot,
    HopfPoint,
    RootSearchRegion,
    char_value,
    critical_eta,
    is_locally_stable,
    rightmost_roots,
    stability_verdict,
    sufficient_stable,
)
from .convergence import (
    ConvergenceReport,
    Regime,
    classify_regime,
    non_oscillatory,
    rate_of_convergence,
    sweep_tau,
    tau_star,
)
from .errors import (
    DegenerateEpsilon,
    DegenerateLinearization,
    DelayBifError,
    Divergence,
    InvalidSpec,
    InvariantViolation,
    NoConvergence,
    NoEquilibrium,
    StepTooLarge,
    ZeroDenominator,
)
from .hopf import (
    CycleStability,
    Direction,
    LyapunovReport,
    classify,
    g_tilde,
    h_tilde,
    mu2_center_manifold,
    mu2_closed_form,
    mu2_cubic_specialization,
    mu2_quadratic_specialization,
    nicholson_mu2,
    nicholson_mu2_shape,
)
from .models import (
    CubicBD,
    EquilibriumReport,
    Generic,
    ModelSpec,
    Nicholson,
    QuadraticBD,
    TaylorCoefficients,
    delay_of,
    equilibrium,
    quadratic_roots,
    rhs,
    taylor_coefficients,
)

__version__ = "0.1.0"

# ddesim imports numpy at module level: its names load on first access
_DDESIM_NAMES = frozenset((
    "SimConfig", "Trajectory", "Verdict", "LimitCycleMetrics",
    "integrate", "metrics", "sweep_bifurcation"))


def __getattr__(name):
    if name in _DDESIM_NAMES:
        from . import ddesim
        return getattr(ddesim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "CubicBD", "QuadraticBD", "Nicholson", "Generic", "ModelSpec",
    "TaylorCoefficients", "EquilibriumReport",
    "equilibrium", "quadratic_roots", "taylor_coefficients", "rhs", "delay_of",
    "HopfPoint", "ComplexRoot", "RootSearchRegion",
    "critical_eta", "stability_verdict", "is_locally_stable",
    "sufficient_stable", "char_value", "rightmost_roots",
    "Regime", "ConvergenceReport",
    "tau_star", "rate_of_convergence", "non_oscillatory", "classify_regime",
    "sweep_tau",
    "Direction", "CycleStability", "LyapunovReport",
    "mu2_closed_form", "mu2_center_manifold", "g_tilde", "h_tilde",
    "mu2_cubic_specialization", "mu2_quadratic_specialization",
    "nicholson_mu2", "nicholson_mu2_shape", "classify",
    "SimConfig", "Trajectory", "Verdict", "LimitCycleMetrics",
    "integrate", "metrics", "sweep_bifurcation",
    "DelayBifError", "InvalidSpec", "NoEquilibrium", "InvariantViolation",
    "DegenerateLinearization", "DegenerateEpsilon", "ZeroDenominator",
    "NoConvergence", "Divergence", "StepTooLarge",
]
