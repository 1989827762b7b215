"""Command-line front end: analyze, sweep, simulate, roots.

Runs are driven by an INI-style config file (sections [model], [analysis],
[sweep], [sim], [roots], [output]; '#' and ';' comments allowed) and write
deterministic artifacts into the output directory: identical configs give
byte-identical files.  main runs every command the same way: it builds the
model, the command writes its artifacts, main writes a manifest.json echoing
the parsed config, the tool version and the artifact names, and only then
writes the command's stdout.

Exit codes: 0 success, 2 config or output problem (unreadable, unparsable,
missing keys, empty grid, an output directory or file that cannot be
written), 3 model or analysis invariant violation, 4 divergence during
simulation (the partial trajectory is still written).
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import enum
import itertools
import json
import math
import os
import sys
from typing import Optional

from . import __version__
from .errors import DelayBifError, Divergence
from .models import (
    CubicBD,
    Generic,
    Nicholson,
    QuadraticBD,
    TaylorCoefficients,
    equilibrium,
    taylor_coefficients,
)

__all__ = ["main"]


class _ConfigError(Exception):
    """Anything that should terminate with exit code 2."""


# ---------------------------------------------------------------------------
# config plumbing

def _read_config(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise _ConfigError(f"cannot read config file {path!r}: {exc}")
    except configparser.Error as exc:
        raise _ConfigError(f"cannot parse config file {path!r}: {exc}")
    return cp


def _get(cp, section: str, key: str, default=None, required: bool = False) -> Optional[str]:
    if required and not cp.has_section(section):
        raise _ConfigError(f"missing [{section}] section")
    if required and not cp.has_option(section, key):
        raise _ConfigError(f"missing key {key!r} in [{section}]")
    return cp.get(section, key, fallback=default)


def _get_number(cp, section, key, default=None, required=False, kind=float):
    raw = _get(cp, section, key, required=required)
    if raw is None or raw.strip() == "":
        if required:
            raise _ConfigError(f"missing value for {key!r} in [{section}]")
        return default
    try:
        return kind(raw)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise _ConfigError(f"[{section}] {key} = {raw!r} is not {noun}")


def _get_bool(cp, section, key, default=False) -> bool:
    raw = _get(cp, section, key)
    if raw is None or raw.strip() == "":
        return default
    try:
        return cp.getboolean(section, key)
    except ValueError:
        raise _ConfigError(f"[{section}] {key} = {raw!r} is not a boolean")


_VARIANTS = {cls.variant: cls for cls in (CubicBD, QuadraticBD, Nicholson, Generic)}


def _read_fields(cp, section: str, cls, required=()):
    """cls built from one number per dataclass field, keyed by its name in
    [section]; a field with a default may be left unset unless required."""
    values = {}
    for field in dataclasses.fields(cls):
        optional = field.default is not dataclasses.MISSING and field.name not in required
        values[field.name] = _get_number(cp, section, field.name, field.default,
                                         required=not optional)
    return cls(**values)


def _build_model(cp):
    variant = _get(cp, "model", "variant", required=True)
    cls = _VARIANTS.get(variant)
    if cls is None:
        raise _ConfigError(
            f"unknown model variant {variant!r} "
            "(expected cubic, quadratic, nicholson, or generic)")
    if cls is Generic:
        # read as its Taylor coefficients: the unset higher-order ones are 0
        return Generic(_read_fields(cp, "model", TaylorCoefficients, required=("tau",)))
    return _read_fields(cp, "model", cls)


def _sim_config(cp):
    from .ddesim import SimConfig
    return _read_fields(cp, "sim", SimConfig)


def _grid(cp) -> tuple[str, list[float]]:
    """The sweep axis and its grid of count evenly spaced points.

    The points are numpy.linspace(start, stop, count), bit for bit, for
    every grid whose step does not underflow: i*step + start, with stop
    itself as the last point.
    """
    axis = _get(cp, "sweep", "axis", required=True)
    if axis not in ("tau", "eta", "epsilon"):
        raise _ConfigError(f"unknown sweep axis {axis!r} "
                           "(expected tau, eta, or epsilon)")
    start = _get_number(cp, "sweep", "start", required=True)
    stop = _get_number(cp, "sweep", "stop", required=True)
    count = _get_number(cp, "sweep", "count", required=True, kind=int)
    if count < 1:
        raise _ConfigError(f"empty sweep grid: count = {count}")
    if not math.isfinite(stop - start):
        raise _ConfigError("sweep grid bounds and their span must be finite")
    if count > 1 and not stop > start:
        raise _ConfigError("sweep grid must be ascending: stop > start")
    step = (stop - start) / max(count - 1, 1)
    grid = [i * step + start for i in range(count)]
    if count > 1:
        grid[-1] = stop
    return axis, grid


# ---------------------------------------------------------------------------
# deterministic serialization

def _jsonable(obj):
    if isinstance(obj, float):
        # NaN and the infinities are not JSON: an absent or non-finite
        # quantity is written as null
        return obj if math.isfinite(obj) else None
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _json_text(data) -> str:
    return json.dumps(_jsonable(data), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def _write(outdir: str, name: str, text: str) -> str:
    """The one artifact writer: text into outdir/name, as is; a file that
    cannot be written is a config problem, exit code 2."""
    path = os.path.join(outdir, name)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _ConfigError(f"cannot write {path!r}: {exc}")
    return name


def _write_csv(outdir: str, name: str, header: list, rows) -> str:
    """Rows of plain Python values, floats by their repr, none needing
    quotes: the bytes csv.writer gives with a newline terminator, in one
    join."""
    line = ",".join(["{}"] * len(header)) + "\n"
    return _write(outdir, name, line.format(*header)
                  + "".join(itertools.starmap(line.format, rows)))


def _write_table(outdir, stem, header, rows, fmt) -> str:
    """One sweep table as CSV or as a JSON list of row objects."""
    if fmt == "csv":
        return _write_csv(outdir, stem + ".csv", header, rows)
    records = [dict(zip(header, row)) for row in rows]
    return _write(outdir, stem + ".json", _json_text(records))


def _write_manifest(outdir: str, command: str, cp, outputs: list) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config": {s: dict(cp.items(s)) for s in cp.sections()},
        "outputs": sorted(outputs),
    }
    _write(outdir, "manifest.json", _json_text(manifest))


# ---------------------------------------------------------------------------
# subcommands: each writes only its own artifacts and returns their names
# with its stdout text, or with the Divergence that ended its simulation.
# Each imports the layers it runs, and no other, when it runs: chareq,
# convergence and hopf where it evaluates their closed forms, ddesim (and
# with it numpy) only where it simulates

def _cmd_analyze(cp, model, outdir: str, fmt: str):
    from .chareq import critical_eta, stability_verdict
    from .convergence import rate_of_convergence
    from .hopf import mu2_center_manifold, mu2_closed_form, nicholson_mu2
    eq = equilibrium(model)
    coeffs = taylor_coefficients(model)
    eta = _get_number(cp, "analysis", "eta", 1.0)
    hopf_pt = critical_eta(coeffs)
    conv = rate_of_convergence(coeffs, eta)
    lyap = mu2_center_manifold(coeffs, hopf_pt)
    report = {
        "model": {"variant": model.variant},
        "equilibrium": eq,
        "taylor_coefficients": coeffs,
        "hopf": hopf_pt,
        "convergence": conv,
        "lyapunov": lyap,
        "mu2_closed_form": mu2_closed_form(coeffs),
        "classification": {
            "direction": lyap.direction,
            "cycle_stability": lyap.cycle_stability,
            "eta": eta,
            "stability_at_eta": stability_verdict(coeffs, eta),
        },
    }
    if isinstance(model, Nicholson):
        report["nicholson_mu2"] = nicholson_mu2(model)
    text = _json_text(report)
    return [_write(outdir, "analyze.json", text)], text


def _cmd_sweep(cp, model, outdir: str, fmt: str):
    axis, grid = _grid(cp)
    if axis == "tau":
        from .convergence import sweep_tau
        coeffs = taylor_coefficients(model)
        eta = _get_number(cp, "analysis", "eta", 1.0)
        rows = [[tau, rep.sigma, rep.sigma1, rep.sigma2, rep.sigma3, rep.regime.value]
                for tau, rep in sweep_tau(coeffs, grid, eta)]
        stem, header = "roc_sweep", ["tau", "sigma", "sigma1", "sigma2", "sigma3", "regime"]
    elif axis == "eta":
        from .ddesim import sweep_bifurcation
        config = _sim_config(cp)
        warm = _get_bool(cp, "sweep", "continue_history", False)
        points = sweep_bifurcation(model, grid, config, continue_history=warm)
        rows = [[eta, amp, period, verdict.value]
                for eta, amp, period, verdict in points]
        stem, header = "bifurcation", ["eta", "amplitude", "period", "verdict"]
    else:
        from .hopf import g_tilde, h_tilde, mu2_closed_form, nicholson_mu2_shape
        coeffs = taylor_coefficients(model)
        nicholson = isinstance(model, Nicholson)
        rows = [[eps, g_tilde(eps), h_tilde(eps),
                 nicholson_mu2_shape(eps, model.x0_size) if nicholson
                 else mu2_closed_form(dataclasses.replace(coeffs, xi_x=-eps * coeffs.b))]
                for eps in grid]
        stem = "nicholson_mu2" if nicholson else "gtilde"
        header = ["epsilon", "g_tilde", "h_tilde", "mu2"]
    name = _write_table(outdir, stem, header, rows, fmt)
    return [name], f"wrote {name} to {outdir}\n"


def _cmd_simulate(cp, model, outdir: str, fmt: str):
    from .ddesim import integrate, metrics
    config = _sim_config(cp)
    try:
        traj, result = integrate(model, config), None
    except Divergence as exc:
        traj, result = exc.trajectory, exc
    m = metrics(traj)
    names = [_write_csv(outdir, "trajectory.csv", ["t", "x"],
                        zip(traj.times.tolist(), traj.values.tolist())),
             _write(outdir, "metrics.json", _json_text(m))]
    return names, result or f"verdict: {m.verdict.value}\n"


def _cmd_roots(cp, model, outdir: str, fmt: str):
    from .chareq import RootSearchRegion, lambert_roots
    coeffs = taylor_coefficients(model)
    eta = _get_number(cp, "roots", "eta",
                       _get_number(cp, "analysis", "eta", 1.0))
    region = RootSearchRegion.default_for(coeffs, eta)
    overrides = {k: v for k in ("re_min", "re_max", "im_max")
                 if (v := _get_number(cp, "roots", k)) is not None}
    region = dataclasses.replace(region, **overrides)
    rows = [[r.re, r.im, r.residual] for r in lambert_roots(coeffs, eta, region)]
    name = _write_table(outdir, "roots", ["re", "im", "residual"], rows, fmt)
    return [name], "".join(f"{re!r},{im!r},{res!r}\n" for re, im, res in rows)


_COMMANDS = {
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "roots": _cmd_roots,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delaybif",
        description="Stability, convergence-rate, and Hopf-bifurcation "
                    "analysis of first-order scalar delay differential "
                    "equations.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="path to the INI run configuration")
    common.add_argument("--out", default=None,
                        help="output directory (default: [output] dir, "
                             "else 'out')")
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="table output format (default: [output] format, "
                             "else csv)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("analyze", parents=[common],
                   help="equilibrium, Hopf point, decay rate, Lyapunov "
                        "coefficient")
    sub.add_parser("sweep", parents=[common],
                   help="grid sweep over tau, eta, or epsilon")
    sub.add_parser("simulate", parents=[common],
                   help="method-of-steps integration plus verdict metrics")
    sub.add_parser("roots", parents=[common],
                   help="rightmost characteristic roots")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cp = _read_config(args.config)
        outdir = args.out or _get(cp, "output", "dir", "out")
        fmt = args.format or _get(cp, "output", "format", "csv")
        if fmt not in ("csv", "json"):
            raise _ConfigError(f"unknown output format {fmt!r}")
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise _ConfigError(f"cannot create output directory "
                               f"{outdir!r}: {exc}")
        model = _build_model(cp)
        names, result = _COMMANDS[args.command](cp, model, outdir, fmt)
        _write_manifest(outdir, args.command, cp, names)
        if isinstance(result, Divergence):
            raise result
        sys.stdout.write(result)
        return 0
    except _ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except Divergence as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except DelayBifError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
