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
from . import chareq, convergence, errors, hopf, models
from .chareq import *
from .convergence import *
from .errors import *
from .hopf import *
from .models import *

__version__ = "0.1.0"

# ddesim imports numpy at module level: its names load on first access
_DDESIM_NAMES = ("SimConfig", "Trajectory", "Verdict", "LimitCycleMetrics",
                 "integrate", "metrics", "sweep_bifurcation")


def __getattr__(name):
    if name in _DDESIM_NAMES:
        from . import ddesim
        return getattr(ddesim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["__version__",
           *(name for module in (chareq, convergence, errors, hopf, models)
             for name in module.__all__),
           *_DDESIM_NAMES]
