"""In-memory spans around calls into delaybif's public functions.

A traced run swaps each function in ``TRACED`` for a timing wrapper, in every
loaded ``delaybif`` module namespace that holds it, so calls made by the
benchmark and calls one layer makes into another are both recorded.  The
per-step helpers ``models.rhs`` and ``models.delay_of`` stay untraced: they
run inside the integrator loop, where a wrapper would dominate the cost.

A span is (name, start, end, parent, item, error, count).  ``parent`` is the
index of the enclosing span or -1, ``item`` the id of the workload item the
span belongs to, and ``count`` the work a call did where the layer reports it:
roots returned by ``rightmost_roots`` and steps taken by ``integrate``.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

TRACED = {
    "models": ("equilibrium", "taylor_coefficients"),
    "chareq": ("critical_eta", "stability_verdict", "rightmost_roots"),
    "convergence": ("rate_of_convergence", "tau_star", "sweep_tau"),
    "hopf": ("mu2_center_manifold", "mu2_closed_form", "classify"),
    "ddesim": ("integrate", "metrics", "sweep_bifurcation"),
}


def _steps(trajectory) -> int:
    return len(trajectory.values) - 1


COUNTERS = {"chareq.rightmost_roots": len, "ddesim.integrate": _steps}

NAME, START, END, PARENT, ITEM, ERROR, COUNT = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one item."""
        rec = self._open(name)
        try:
            yield rec
        except Exception as exc:
            rec[ERROR] = type(exc).__name__
            raise
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[ERROR] = type(exc).__name__
                partial = getattr(exc, "trajectory", None)
                if count is not None and partial is not None:
                    rec[COUNT] = count(partial)
                raise
            finally:
                self._close(rec)
            if count is not None:
                rec[COUNT] = count(result)
            return result

        return traced

    def install(self) -> None:
        """Swap every traced function for its wrapper in all delaybif modules."""
        wrappers = {}
        for module, names in TRACED.items():
            mod = sys.modules["delaybif." + module]
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = self._wrap(f"{module}.{name}", fn)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "delaybif" or modname.startswith("delaybif.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and callable(value):
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def write(self, path: str) -> None:
        """The spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "start": rec[START] - t0,
                    "end": rec[END] - t0, "parent": rec[PARENT], "item": rec[ITEM],
                    "error": rec[ERROR], "count": rec[COUNT]}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own
