"""Command-line front end: analyze, sweep, simulate, roots.

Runs are driven by an INI-style config file (sections [model], [analysis],
[sweep], [sim], [roots], [output]; '#' and ';' comments allowed) and write
deterministic artifacts into the output directory: identical configs give
byte-identical files.  Every command also writes a manifest.json echoing
the parsed config and the tool version.

Exit codes: 0 success, 2 config problem (unreadable, unparsable, missing
keys, empty grid), 3 model or analysis invariant violation, 4 divergence
during simulation (the partial trajectory is still written).
"""
from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import enum
import json
import math
import os
import sys
from typing import Optional

from . import __version__
from .chareq import RootSearchRegion, critical_eta, rightmost_roots, stability_verdict
from .convergence import rate_of_convergence, sweep_tau
from .errors import DelayBifError, Divergence
from .hopf import (
    classify,
    g_tilde,
    h_tilde,
    mu2_center_manifold,
    mu2_closed_form,
    mu2_cubic_specialization,
    nicholson_mu2,
    nicholson_mu2_shape,
)
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
    if not cp.has_section(section):
        if required:
            raise _ConfigError(f"missing [{section}] section")
        return default
    if not cp.has_option(section, key):
        if required:
            raise _ConfigError(f"missing key {key!r} in [{section}]")
        return default
    return cp.get(section, key)


def _get_float(cp, section, key, default=None, required=False) -> Optional[float]:
    raw = _get(cp, section, key, required=required)
    if raw is None or raw.strip() == "":
        return default
    try:
        return float(raw)
    except ValueError:
        raise _ConfigError(f"[{section}] {key} = {raw!r} is not a number")


def _get_int(cp, section, key, default=None, required=False) -> Optional[int]:
    raw = _get(cp, section, key, required=required)
    if raw is None or raw.strip() == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise _ConfigError(f"[{section}] {key} = {raw!r} is not an integer")


def _get_bool(cp, section, key, default=False) -> bool:
    raw = _get(cp, section, key)
    if raw is None or raw.strip() == "":
        return default
    try:
        return cp.getboolean(section, key)
    except ValueError:
        raise _ConfigError(f"[{section}] {key} = {raw!r} is not a boolean")


_VARIANTS = {cls.variant: cls for cls in (CubicBD, QuadraticBD, Nicholson, Generic)}


def _build_model(cp):
    variant = _get(cp, "model", "variant", required=True)
    cls = _VARIANTS.get(variant)
    if cls is None:
        raise _ConfigError(
            f"unknown model variant {variant!r} "
            "(expected cubic, quadratic, nicholson, or generic)")
    # a generic model is read as its Taylor coefficients: the delay stays
    # required and the unset higher-order coefficients default to 0
    target = TaylorCoefficients if cls is Generic else cls
    values = {}
    for field in dataclasses.fields(target):
        optional = field.default is not dataclasses.MISSING and field.name != "tau"
        values[field.name] = _get_float(cp, "model", field.name,
                                        field.default if optional else None,
                                        required=not optional)
    spec = target(**values)
    return Generic(spec) if cls is Generic else spec


def _sim_config(cp):
    # ddesim, and with it numpy, is imported only by the commands that simulate
    from .ddesim import SimConfig
    return SimConfig(
        eta=_get_float(cp, "sim", "eta", required=True),
        x_init=_get_float(cp, "sim", "x_init", required=True),
        t_end=_get_float(cp, "sim", "t_end", required=True),
        dt=_get_float(cp, "sim", "dt", None),
        transient_fraction=_get_float(cp, "sim", "transient_fraction", 0.5),
    )


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
    start = _get_float(cp, "sweep", "start", required=True)
    stop = _get_float(cp, "sweep", "stop", required=True)
    count = _get_int(cp, "sweep", "count", required=True)
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


def _write_json(outdir: str, name: str, data) -> str:
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_json_text(data))
    return name


def _write_csv(outdir: str, name: str, header: list, rows) -> str:
    """Rows of plain Python values; floats are written by their repr."""
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return name


def _write_table(outdir, stem, header, rows, fmt) -> str:
    """One sweep table as CSV or as a JSON list of row objects."""
    if fmt == "csv":
        return _write_csv(outdir, stem + ".csv", header, rows)
    records = [dict(zip(header, row)) for row in rows]
    return _write_json(outdir, stem + ".json", records)


def _write_manifest(outdir: str, command: str, cp, outputs: list) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config": {s: dict(cp.items(s)) for s in cp.sections()},
        "outputs": sorted(outputs),
    }
    _write_json(outdir, "manifest.json", manifest)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_analyze(cp, outdir: str, fmt: str) -> int:
    model = _build_model(cp)
    eq = equilibrium(model)
    coeffs = taylor_coefficients(model)
    eta = _get_float(cp, "analysis", "eta", 1.0)
    hopf_pt = critical_eta(coeffs)
    conv = rate_of_convergence(coeffs, eta)
    lyap = mu2_center_manifold(coeffs, hopf_pt)
    direction, cycle = classify(lyap)
    report = {
        "model": {"variant": model.variant},
        "equilibrium": eq,
        "taylor_coefficients": coeffs,
        "hopf": hopf_pt,
        "convergence": conv,
        "lyapunov": lyap,
        "mu2_closed_form": mu2_closed_form(coeffs),
        "classification": {
            "direction": direction,
            "cycle_stability": cycle,
            "eta": eta,
            "stability_at_eta": stability_verdict(coeffs, eta),
        },
    }
    if isinstance(model, Nicholson):
        report["nicholson_mu2"] = nicholson_mu2(model)
    text = _json_text(report)
    sys.stdout.write(text)
    name = _write_json(outdir, "analyze.json", report)
    _write_manifest(outdir, "analyze", cp, [name])
    return 0


def _cmd_sweep(cp, outdir: str, fmt: str) -> int:
    model = _build_model(cp)
    axis, grid = _grid(cp)
    outputs = []
    if axis == "tau":
        coeffs = taylor_coefficients(model)
        eta = _get_float(cp, "analysis", "eta", 1.0)
        rows = []
        for tau, rep in sweep_tau(coeffs, grid, eta):
            rows.append([tau, rep.sigma, rep.sigma1, rep.sigma2, rep.sigma3,
                         rep.regime.value])
        outputs.append(_write_table(
            outdir, "roc_sweep",
            ["tau", "sigma", "sigma1", "sigma2", "sigma3", "regime"],
            rows, fmt))
    elif axis == "eta":
        from .ddesim import sweep_bifurcation
        config = _sim_config(cp)
        warm = _get_bool(cp, "sweep", "continue_history", False)
        points = sweep_bifurcation(model, grid, config, continue_history=warm)
        rows = [[eta, amp, period, verdict.value]
                for eta, amp, period, verdict in points]
        outputs.append(_write_table(
            outdir, "bifurcation",
            ["eta", "amplitude", "period", "verdict"], rows, fmt))
    else:
        coeffs = taylor_coefficients(model)
        rows = []
        for eps in grid:
            gt, ht = g_tilde(eps), h_tilde(eps)
            if isinstance(model, Nicholson):
                mu2 = nicholson_mu2_shape(eps, model.x0_size)
            else:
                mu2 = mu2_cubic_specialization(
                    dataclasses.replace(coeffs, xi_x=-eps * coeffs.b))
            rows.append([eps, gt, ht, mu2])
        stem = "nicholson_mu2" if isinstance(model, Nicholson) else "gtilde"
        outputs.append(_write_table(
            outdir, stem, ["epsilon", "g_tilde", "h_tilde", "mu2"], rows, fmt))
    _write_manifest(outdir, "sweep", cp, outputs)
    sys.stdout.write(f"wrote {', '.join(sorted(outputs))} to {outdir}\n")
    return 0


def _cmd_simulate(cp, outdir: str, fmt: str) -> int:
    from .ddesim import integrate, metrics
    model = _build_model(cp)
    config = _sim_config(cp)
    failure = None
    try:
        traj = integrate(model, config)
    except Divergence as exc:
        traj, failure = exc.trajectory, exc
    m = metrics(traj)
    outputs = [
        _write_csv(outdir, "trajectory.csv", ["t", "x"],
                   zip(traj.times.tolist(), traj.values.tolist())),
        _write_json(outdir, "metrics.json", m),
    ]
    _write_manifest(outdir, "simulate", cp, outputs)
    if failure is not None:
        sys.stderr.write(f"error: {failure}\n")
        return 4
    sys.stdout.write(f"verdict: {m.verdict.value}\n")
    return 0


def _cmd_roots(cp, outdir: str, fmt: str) -> int:
    model = _build_model(cp)
    coeffs = taylor_coefficients(model)
    eta = _get_float(cp, "roots", "eta",
                     _get_float(cp, "analysis", "eta", 1.0))
    region = RootSearchRegion.default_for(coeffs, eta)
    overrides = {k: _get_float(cp, "roots", k)
                 for k in ("re_min", "re_max", "im_max")}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if overrides:
        region = dataclasses.replace(region, **overrides)
    roots = rightmost_roots(coeffs, eta, region)
    rows = [[r.re, r.im, r.residual] for r in roots]
    name = _write_table(outdir, "roots", ["re", "im", "residual"], rows, fmt)
    _write_manifest(outdir, "roots", cp, [name])
    for r in roots:
        sys.stdout.write(f"{r.re!r},{r.im!r},{r.residual!r}\n")
    return 0


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
        return _COMMANDS[args.command](cp, outdir, fmt)
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
