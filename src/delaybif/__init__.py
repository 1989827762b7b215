"""Stability and Hopf-bifurcation analysis of first-order scalar DDEs.

The package analyzes delayed systems x'(t) = eta * f(x(t), x(t - tau)):
equilibria and Taylor coefficients (models), characteristic roots and the
Hopf point (chareq), closed-form decay rates and oscillation regimes
(convergence), the first Lyapunov coefficient by two independent routes
(hopf), and a method-of-steps simulation oracle (ddesim).  The cli module
exposes all of it behind the ``delaybif`` command.

Every public name and submodule is loaded on first access, so a program
pays only for the layers it uses: ``import delaybif`` loads nothing else,
``delaybif.lambert_roots`` loads chareq and the modules it imports, and
only the simulation names (``SimConfig``, ``integrate``, ...) load ddesim,
and numpy with it.  numpy is also loaded by the winding root search
(`rightmost_roots`) when it runs.
"""
__version__ = "0.1.0"

# the numpy-free layers, in the order a name is searched for
_ANALYSIS = ("errors", "models", "chareq", "convergence", "hopf")
# ddesim imports numpy at module level: its names are listed here, so that
# no other lookup has to load it
_DDESIM_NAMES = ("SimConfig", "Trajectory", "Verdict", "LimitCycleMetrics",
                 "integrate", "metrics", "sweep_bifurcation")


def _submodule(name):
    # __import__, unlike importlib.import_module, shows in -X importtime
    return getattr(__import__(f"{__name__}.{name}"), name)


def __getattr__(name):
    if name == "__all__":
        return ["__version__",
                *(public for module in _ANALYSIS for public in _submodule(module).__all__),
                *_DDESIM_NAMES]
    if name in (*_ANALYSIS, "ddesim", "cli"):
        return _submodule(name)
    if not name.startswith("__"):
        for module in map(_submodule, _ANALYSIS):
            if name in module.__all__:
                return getattr(module, name)
        if name in _DDESIM_NAMES:
            return getattr(_submodule("ddesim"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "__all__", *__getattr__("__all__")})
