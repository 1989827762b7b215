"""End-to-end CLI tests: config parsing, outputs, exit codes, determinism."""
import configparser
import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import delaybif
from delaybif import (
    CubicBD,
    RootSearchRegion,
    TaylorCoefficients,
    __version__,
    mu2_closed_form,
    mu2_cubic_specialization,
    taylor_coefficients,
)
from delaybif import cli
from delaybif.cli import _grid, main

from _oracles import EX1_ETA_C, lambertw_roots

CUBIC_INI = textwrap.dedent("""\
    [model]
    variant = cubic
    k = 9.0
    mu = 1.0
    lam = -7.0
    tau = 0.187

    [analysis]
    eta = 1.0

    [sim]
    eta = 1.05
    x_init = 0.9
    t_end = 60.0
    """)

NICHOLSON_INI = textwrap.dedent("""\
    [model]
    variant = nicholson
    gamma = 1.0
    p_rate = 50.0
    x0_size = 1.0
    tau = 1.0
    """)


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run(tmp_path, capsys, command, ini=CUBIC_INI, extra=(), sub="out"):
    cfg = _write(tmp_path, ini)
    out = tmp_path / sub
    code = main([command, "--config", cfg, "--out", str(out), *extra])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out


# --- analyze ---------------------------------------------------------------

def test_analyze_report(tmp_path, capsys):
    code, stdout, stderr, out = _run(tmp_path, capsys, "analyze")
    assert code == 0
    assert stderr == ""
    report = json.loads(stdout)
    assert report["model"]["variant"] == "cubic"
    assert report["hopf"]["eta_c"] == pytest.approx(EX1_ETA_C, rel=1e-12)
    assert report["classification"]["direction"] == "Supercritical"
    assert report["classification"]["stability_at_eta"] == "stable"
    assert report["convergence"]["regime"] == "OscillatoryStable"
    assert report["nicholson_mu2"] is None
    assert (out / "analyze.json").read_text() == stdout
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["analyze.json"]
    assert manifest["version"] == __version__
    assert manifest["config"]["model"]["variant"] == "cubic"


def test_analyze_deterministic(tmp_path, capsys):
    _, out1, _, dir1 = _run(tmp_path, capsys, "analyze", sub="a")
    _, out2, _, dir2 = _run(tmp_path, capsys, "analyze", sub="b")
    assert out1 == out2
    assert (dir1 / "analyze.json").read_bytes() == \
        (dir2 / "analyze.json").read_bytes()


def test_analyze_nicholson_extra_field(tmp_path, capsys):
    code, stdout, _, _ = _run(tmp_path, capsys, "analyze", ini=NICHOLSON_INI)
    assert code == 0
    report = json.loads(stdout)
    assert report["nicholson_mu2"] > 0.0
    assert report["classification"]["direction"] == "Supercritical"


# --- sweep -----------------------------------------------------------------

def test_sweep_tau_csv(tmp_path, capsys):
    ini = CUBIC_INI + textwrap.dedent("""\
        [sweep]
        axis = tau
        start = 0.005
        stop = 0.18
        count = 10
        """)
    code, stdout, _, out = _run(tmp_path, capsys, "sweep", ini=ini)
    assert code == 0
    assert "roc_sweep.csv" in stdout
    data = (out / "roc_sweep.csv").read_bytes()
    assert b"\r" not in data
    lines = data.decode().splitlines()
    assert lines[0] == "tau,sigma,sigma1,sigma2,sigma3,regime"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.005)
    assert float(first[1]) > 0.0
    assert first[5] in ("NonOscillatoryStable", "OscillatoryStable",
                        "Unstable")


def test_sweep_epsilon_shape_table(tmp_path, capsys):
    ini = CUBIC_INI + textwrap.dedent("""\
        [sweep]
        axis = epsilon
        start = 0.0
        stop = 0.9
        count = 7
        """)
    code, _, _, out = _run(tmp_path, capsys, "sweep", ini=ini)
    assert code == 0
    lines = (out / "gtilde.csv").read_text().splitlines()
    assert lines[0] == "epsilon,g_tilde,h_tilde,mu2"
    coeffs = taylor_coefficients(CubicBD(k=9.0, mu=1.0, lam=-7.0, tau=0.187))
    for line in lines[1:]:
        eps, gt, ht, mu2 = map(float, line.split(","))
        assert gt < 0.0 and ht < 0.0
        expect = mu2_cubic_specialization(
            dataclasses.replace(coeffs, xi_x=-eps * coeffs.b))
        assert mu2 == pytest.approx(expect, rel=1e-12)


def test_sweep_epsilon_generic_keeps_every_coefficient(tmp_path, capsys):
    # the mu2 column is the closed form of the epsilon-shifted set, mixed and
    # delayed-only terms included, not the cubic specialization
    ini = textwrap.dedent("""\
        [model]
        variant = generic
        xi_x = -0.5
        xi_y = -2.0
        xi_xx = 0.3
        xi_xy = -0.2
        xi_yy = 0.1
        xi_xxx = -1.0
        xi_xyy = 0.05
        tau = 1.0

        [sweep]
        axis = epsilon
        start = 0.02
        stop = 0.5
        count = 3
        """)
    code, _, _, out = _run(tmp_path, capsys, "sweep", ini=ini)
    assert code == 0
    coeffs = TaylorCoefficients(xi_x=-0.5, xi_y=-2.0, xi_xx=0.3, xi_xy=-0.2,
                                xi_yy=0.1, xi_xxx=-1.0, xi_xyy=0.05, tau=1.0)
    rows = [line.split(",") for line in (out / "gtilde.csv").read_text().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [0.02, 0.26, 0.5]
    for eps, _, _, mu2 in rows:
        shifted = dataclasses.replace(coeffs, xi_x=-float(eps) * coeffs.b)
        assert float(mu2) == mu2_closed_form(shifted)
    # the cubic specialization gave 0.93940 here
    assert float(rows[0][3]) == pytest.approx(0.93536, abs=5e-6)


def test_sweep_epsilon_nicholson(tmp_path, capsys):
    ini = NICHOLSON_INI + textwrap.dedent("""\
        [sweep]
        axis = epsilon
        start = 0.05
        stop = 0.95
        count = 7
        """)
    code, _, _, out = _run(tmp_path, capsys, "sweep", ini=ini)
    assert code == 0
    lines = (out / "nicholson_mu2.csv").read_text().splitlines()
    for line in lines[1:]:
        assert float(line.split(",")[3]) > 0.0


def test_sweep_eta_bifurcation(tmp_path, capsys):
    ini = CUBIC_INI.replace("t_end = 60.0", "t_end = 12.0") + textwrap.dedent("""\
        [sweep]
        axis = eta
        start = 1.02
        stop = 1.04
        count = 2
        continue_history = true
        """)
    code, _, _, out = _run(tmp_path, capsys, "sweep", ini=ini)
    assert code == 0
    lines = (out / "bifurcation.csv").read_text().splitlines()
    assert lines[0] == "eta,amplitude,period,verdict"
    assert len(lines) == 3
    for line in lines[1:]:
        verdict = line.split(",")[3]
        assert verdict in ("ConvergedToEquilibrium", "LimitCycle",
                           "Diverged", "Undetermined")


def test_sweep_json_format(tmp_path, capsys):
    ini = CUBIC_INI + textwrap.dedent("""\
        [sweep]
        axis = epsilon
        start = 0.0
        stop = 0.9
        count = 4
        """)
    code, _, _, out = _run(tmp_path, capsys, "sweep", ini=ini,
                           extra=("--format", "json"))
    assert code == 0
    rows = json.loads((out / "gtilde.json").read_text())
    assert len(rows) == 4
    assert set(rows[0]) == {"epsilon", "g_tilde", "h_tilde", "mu2"}


# --- simulate --------------------------------------------------------------

def test_simulate_limit_cycle(tmp_path, capsys):
    code, stdout, _, out = _run(tmp_path, capsys, "simulate")
    assert code == 0
    assert stdout == "verdict: LimitCycle\n"
    m = json.loads((out / "metrics.json").read_text())
    assert m["verdict"] == "LimitCycle"
    assert m["amplitude"] == pytest.approx(1.133628, rel=1e-4)
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x"
    assert len(lines) == round(60.0 / (0.187 / 100.0)) + 2
    t0, x0 = lines[1].split(",")
    assert float(t0) == 0.0
    assert float(x0) == 0.9


def test_simulate_divergence_exit_code(tmp_path, capsys):
    ini = textwrap.dedent("""\
        [model]
        variant = generic
        xi_x = 0.0
        xi_y = -1.0
        xi_xx = 5.0
        tau = 1.0

        [sim]
        eta = 1.0
        x_init = 1.0
        t_end = 60.0
        """)
    code, _, stderr, out = _run(tmp_path, capsys, "simulate", ini=ini)
    assert code == 4
    assert stderr.startswith("error:")
    m = json.loads((out / "metrics.json").read_text())
    assert m["verdict"] == "Diverged"
    assert (out / "trajectory.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "metrics.json" in manifest["outputs"]


@pytest.mark.parametrize("ini", [
    CUBIC_INI.replace("x_init = 0.9", "x_init = 5e5"),
    NICHOLSON_INI + "[sim]\neta = 1.0\nx_init = -800\nt_end = 50.0\n",
], ids=["cubic", "nicholson"])
def test_simulate_overflow_exit_code(tmp_path, capsys, ini):
    code, _, stderr, out = _run(tmp_path, capsys, "simulate", ini=ini)
    assert code == 4
    assert stderr.startswith("error:")
    assert (out / "trajectory.csv").read_text().startswith("t,x\n")
    m = json.loads((out / "metrics.json").read_text())
    assert m["verdict"] == "Diverged"


# --- strict JSON -----------------------------------------------------------

def _no_constants(name):
    raise ValueError(f"{name} is not JSON")


_STRICT_RUNS = {
    "readme": CUBIC_INI,
    "nicholson": NICHOLSON_INI + "[sim]\neta = 0.3\nx_init = 3.0\nt_end = 100.0\n",
    "diverging": CUBIC_INI.replace("x_init = 0.9", "x_init = 5e5"),
}


@pytest.mark.parametrize("name", sorted(_STRICT_RUNS))
def test_every_json_artifact_is_strict_json(tmp_path, capsys, name):
    base = _STRICT_RUNS[name]
    runs = [("analyze", base), ("simulate", base), ("roots", base),
            ("sweep", base + _sweep_ini("tau", 0.05, 2.0, 5)),
            ("sweep", base + _sweep_ini("epsilon", 0.0, 0.9, 4))]
    if name != "diverging":
        runs.append(("sweep", base + _sweep_ini("eta", 0.9, 1.1, 2)))
    reports = {}
    for i, (command, ini) in enumerate(runs):
        code, stdout, _, out = _run(tmp_path, capsys, command, ini=ini,
                                    extra=("--format", "json"), sub=f"out{i}")
        assert code == (4 if name == "diverging" and command == "simulate" else 0)
        if command == "analyze":
            json.loads(stdout, parse_constant=_no_constants)
        for path in sorted(out.glob("*.json")):
            reports[path.name] = json.loads(path.read_text(),
                                            parse_constant=_no_constants)
    # absent and non-finite quantities are null
    m = reports["metrics.json"]
    assert (m["period"] is None) == (m["verdict"] != "LimitCycle")
    assert (m["decay_rate"] is None) == (m["verdict"] != "ConvergedToEquilibrium")
    conv = reports["analyze.json"]["convergence"]
    assert None in (conv["sigma2"], conv["sigma3"])


# --- roots -----------------------------------------------------------------

def test_roots_table(tmp_path, capsys):
    code, stdout, _, out = _run(tmp_path, capsys, "roots")
    assert code == 0
    lines = (out / "roots.csv").read_text().splitlines()
    assert lines[0] == "re,im,residual"
    assert len(lines) >= 2
    for line in lines[1:]:
        assert float(line.split(",")[2]) < 1e-9
    assert len(stdout.splitlines()) == len(lines) - 1


def test_roots_region_override(tmp_path, capsys):
    ini = CUBIC_INI + textwrap.dedent("""\
        [roots]
        eta = 1.0
        re_min = -12.0
        im_max = 45.0
        """)
    code, _, _, out = _run(tmp_path, capsys, "roots", ini=ini)
    assert code == 0
    lines = (out / "roots.csv").read_text().splitlines()
    # the widened box picks up the next branch pair beyond the principal one
    assert len(lines) >= 3


def test_roots_eta_leaves_the_analysis_eta_unread(tmp_path, capsys):
    # [analysis] eta is only the fallback of roots: set [roots] eta, and an
    # unparsable one is an error for analyze alone
    ini = (CUBIC_INI.replace("[analysis]\neta = 1.0", "[analysis]\neta = abc")
           + "[roots]\neta = 1.0\n")
    code, stdout, err, out = _run(tmp_path, capsys, "roots", ini=ini)
    assert (code, err) == (0, "")
    assert stdout and (out / "roots.csv").exists()
    code, _, err, _ = _run(tmp_path, capsys, "analyze", ini=ini, sub="analyze")
    assert code == 2
    assert err == "config error: [analysis] eta = 'abc' is not a number\n"


def test_roots_overflowing_search_exits_cleanly(tmp_path, capsys):
    # at tau = 50, 151 roots 2*pi/tau apart fill the default region
    ini = CUBIC_INI.replace("tau = 0.187", "tau = 50.0")
    code, stdout, stderr, out = _run(tmp_path, capsys, "roots", ini=ini)
    assert (code, stderr) == (0, "")
    rows = [list(map(float, line.split(",")))
            for line in (out / "roots.csv").read_text().splitlines()[1:]]
    coeffs = taylor_coefficients(CubicBD(k=9.0, mu=1.0, lam=-7.0, tau=50.0))
    truth, _ = lambertw_roots(coeffs, 1.0, RootSearchRegion.default_for(coeffs, 1.0))
    assert len(rows) == len(truth) == 151
    for (re, im, _), lam in zip(rows, truth):
        assert abs(complex(re, im) - lam) < 1e-9
    assert len(stdout.splitlines()) == 151


ZERO_DELAY_INI = textwrap.dedent("""\
    [model]
    variant = generic
    xi_x = -0.5
    xi_y = -1.0
    tau = 0.0

    [sim]
    eta = 1.0
    x_init = 0.1
    t_end = 10.0
    """)


def test_roots_without_delay_is_the_one_real_root(tmp_path, capsys):
    code, stdout, stderr, out = _run(tmp_path, capsys, "roots", ini=ZERO_DELAY_INI)
    assert (code, stderr) == (0, "")
    # -eta*(a + b) at eta = 1
    assert stdout == "-1.5,0.0,0.0\n"
    assert (out / "roots.csv").read_text() == "re,im,residual\n-1.5,0.0,0.0\n"


@pytest.mark.parametrize("tau", ["1e-310", "1e-320", "5e-324"])
def test_roots_at_a_subnormal_delay_is_the_one_finite_root(tmp_path, capsys, tau):
    # 1/tau overflows: every root but -eta*(a + b) lies below the float range
    ini = f"[model]\nvariant = generic\nxi_x = -0.5\nxi_y = -1.3\ntau = {tau}\n"
    code, stdout, stderr, out = _run(tmp_path, capsys, "roots", ini=ini)
    assert (code, stderr) == (0, "")
    assert stdout == "-1.8,0.0,0.0\n"
    assert (out / "roots.csv").read_text() == "re,im,residual\n-1.8,0.0,0.0\n"


@pytest.mark.parametrize("command, ini", [
    ("simulate", ZERO_DELAY_INI),
    ("sweep", ZERO_DELAY_INI + "[sweep]\naxis = eta\nstart = 0.5\nstop = 1.0\ncount = 2\n"),
], ids=["simulate", "sweep-eta"])
def test_simulating_without_delay_exits_3(tmp_path, capsys, command, ini):
    code, stdout, stderr, out = _run(tmp_path, capsys, command, ini=ini)
    assert code == 3
    assert stderr == "error: integrate needs tau > 0\n"
    assert stdout == ""


# --- failure modes ---------------------------------------------------------

def test_missing_config_file(tmp_path, capsys):
    code = main(["analyze", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:")


def test_missing_required_key(tmp_path, capsys):
    code, _, err, _ = _run(tmp_path, capsys, "analyze",
                           ini="[model]\nvariant = cubic\nk = 9.0\n")
    assert code == 2
    assert "[model]" in err and "mu" in err


def test_unknown_variant(tmp_path, capsys):
    code, _, err, _ = _run(tmp_path, capsys, "analyze",
                           ini="[model]\nvariant = vanderpol\n")
    assert code == 2
    assert "vanderpol" in err


def test_bad_float_value(tmp_path, capsys):
    ini = CUBIC_INI.replace("k = 9.0", "k = nine")
    code, _, err, _ = _run(tmp_path, capsys, "analyze", ini=ini)
    assert code == 2
    assert "nine" in err


def test_empty_sweep_grid(tmp_path, capsys):
    ini = CUBIC_INI + "[sweep]\naxis = tau\nstart = 0.01\nstop = 0.1\ncount = 0\n"
    code, _, err, _ = _run(tmp_path, capsys, "sweep", ini=ini)
    assert code == 2
    assert "empty sweep grid" in err


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("ini, field", [
    (CUBIC_INI.replace("tau = 0.187", "tau = inf"), "tau"),
    (CUBIC_INI.replace("lam = -7.0", "lam = nan"), "lam"),
    (NICHOLSON_INI.replace("tau = 1.0", "tau = nan") + "[sim]\neta = 1.0\nx_init = 3.0\nt_end = 10.0\n",
     "tau"),
    (NICHOLSON_INI.replace("p_rate = 50.0", "p_rate = -inf") + "[sim]\neta = 1.0\nx_init = 3.0\nt_end = 10.0\n",
     "p_rate"),
], ids=["cubic-tau-inf", "cubic-lam-nan", "nicholson-tau-nan", "nicholson-p_rate-neg-inf"])
def test_non_finite_model_field_exits_3(tmp_path, capsys, command, ini, field):
    # simulate had exited 1 with a traceback from round(tau / dt)
    code, stdout, err, out = _run(tmp_path, capsys, command, ini=ini)
    assert code == 3
    assert err.startswith(f"error: {field} must be finite")
    assert stdout == ""
    assert not (out / "trajectory.csv").exists()


def test_sim_step_from_config(tmp_path, capsys):
    # dt = tau/50 gives t_end/dt steps and so t_end/dt + 1 samples
    ini = CUBIC_INI.replace("tau = 0.187", "tau = 0.2") + "dt = 0.004\ntransient_fraction = 0.25\n"
    code, _, _, out = _run(tmp_path, capsys, "simulate", ini=ini)
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 1 + round(60.0 / 0.004) + 1
    assert lines[2].startswith("0.004,")


def test_sim_config_defaults_come_from_sim_config():
    from delaybif import SimConfig
    from delaybif.cli import _sim_config
    cp = configparser.ConfigParser()
    cp.read_string(CUBIC_INI)
    assert _sim_config(cp) == SimConfig(eta=1.05, x_init=0.9, t_end=60.0)
    cp.set("sim", "dt", "0.00187")
    cp.set("sim", "transient_fraction", "0.25")
    assert _sim_config(cp) == SimConfig(eta=1.05, x_init=0.9, t_end=60.0,
                                        dt=0.00187, transient_fraction=0.25)


@pytest.mark.parametrize("command, ini, message", [
    ("simulate", CUBIC_INI + "dt = abc\n", "[sim] dt = 'abc' is not a number"),
    ("sweep", CUBIC_INI + "[sweep]\naxis = tau\nstart = 0.01\nstop = 0.1\ncount = 2.5\n",
     "[sweep] count = '2.5' is not an integer"),
    ("analyze", CUBIC_INI.replace("k = 9.0", "k ="), "missing value for 'k' in [model]"),
    ("simulate", CUBIC_INI.replace("x_init = 0.9", "x_init = "),
     "missing value for 'x_init' in [sim]"),
    ("analyze", "[analysis]\neta = 1.0\n", "missing [model] section"),
    ("sweep", CUBIC_INI + "[sweep]\naxis = eta\nstart = 1\nstop = 1.1\ncount = 2\n"
     "continue_history = maybe\n", "[sweep] continue_history = 'maybe' is not a boolean"),
    ("sweep", CUBIC_INI + "[sweep]\naxis = k\nstart = 1\nstop = 2\ncount = 2\n",
     "unknown sweep axis 'k' (expected tau, eta, or epsilon)"),
    ("sweep", CUBIC_INI + "[sweep]\naxis = tau\nstart = 0.1\nstop = 0.01\ncount = 3\n",
     "sweep grid must be ascending: stop > start"),
    ("analyze", CUBIC_INI + "[output]\nformat = xml\n", "unknown output format 'xml'"),
], ids=["dt", "count", "blank-model-key", "blank-sim-key", "no-model-section",
        "not-boolean", "unknown-axis", "descending-grid", "unknown-format"])
def test_unparsable_number_is_a_config_error(tmp_path, capsys, command, ini, message):
    code, _, err, _ = _run(tmp_path, capsys, command, ini=ini)
    assert code == 2
    assert err == f"config error: {message}\n"


@pytest.mark.parametrize("command, sweep", [
    ("analyze", ""), ("roots", ""),
    ("sweep", "[sweep]\naxis = tau\nstart = 0.01\nstop = 0.1\ncount = 2\n"),
], ids=["analyze", "roots", "tau"])
def test_config_is_read_before_the_model_is_analyzed(tmp_path, capsys, command, sweep):
    # the model has no real equilibrium and eta is no number: the config
    # error comes first, for every command that reads eta
    ini = ("[model]\nvariant = quadratic\nk = 1\nmu = 0.5\nlam = 10\ntau = 1\n"
           "[analysis]\neta = abc\n" + sweep)
    code, stdout, err, _ = _run(tmp_path, capsys, command, ini=ini)
    assert (code, stdout) == (2, "")
    assert err == "config error: [analysis] eta = 'abc' is not a number\n"


def test_unparsable_config_file_exits_2(tmp_path, capsys):
    code, stdout, err, _ = _run(tmp_path, capsys, "analyze", ini="[model\nvariant = cubic\n")
    assert code == 2
    assert stdout == ""
    assert err.splitlines()[0] == (f"config error: cannot parse config file "
                                   f"{str(tmp_path / 'run.ini')!r}: "
                                   "File contains no section headers.")


def test_output_directory_under_a_file_exits_2(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    code, stdout, err, out = _run(tmp_path, capsys, "analyze", sub="afile/sub")
    assert code == 2
    assert stdout == ""
    assert err.splitlines()[0].startswith(
        f"config error: cannot create output directory {str(out)!r}: ")


def test_diverging_eta_sweep_exits_4(tmp_path, capsys):
    ini = ("[model]\nvariant = generic\nxi_x = -0.5\nxi_y = -2\nxi_xxx = 1\ntau = 1\n"
           "[sim]\neta = 1\nx_init = 2\nt_end = 60\n"
           "[sweep]\naxis = eta\nstart = 1\nstop = 2\ncount = 3\n")
    code, stdout, err, _ = _run(tmp_path, capsys, "sweep", ini=ini)
    assert code == 4
    assert stdout == ""
    assert err.splitlines()[0] == "error: |x| exceeded 1e+06 at t = 0.19"


def test_invalid_model_maps_to_exit_3(tmp_path, capsys):
    ini = CUBIC_INI.replace("k = 9.0", "k = 0.5")
    code, _, err, _ = _run(tmp_path, capsys, "analyze", ini=ini)
    assert code == 3
    assert "k > mu required" in err


# critical_eta's theta/(tau*s) is about 3.7e-324, a subnormal eta_c
_SUBNORMAL_ETA_C = ("xi_x = -2.3639950806725393e+227\nxi_y = -3.724565895976643e+227\n"
                    "tau = 2.0272313340593294e+96\n")
# abs(g11) overflows in the center-manifold reduction: a bare OverflowError
_CM_OVERFLOW = ("xi_x = -4.7288987289506465e-42\nxi_y = -1.6096531660931157e-41\n"
                "xi_xx = -638567625346887.4\nxi_xy = 3.508645126459668e+132\n"
                "xi_xxx = 1.9832955350508813e-107\nxi_xyy = -2.6620490097173463e+83\n"
                "xi_yyy = -1.0097505718675005e-160\ntau = 4.4697963188892495e-136\n")


@pytest.mark.parametrize("coeffs", [
    "xi_x = 0\nxi_y = -1e-170\nxi_xx = 1\ntau = 1\n",
    "xi_x = -2e199\nxi_y = -1e200\nxi_xx = 1\ntau = 1.5e-200\n",
    _CM_OVERFLOW,
], ids=["tiny-b", "huge-b", "center-manifold-overflow"])
def test_analyze_mu2_outside_the_float_range_exits_3(tmp_path, capsys, coeffs):
    ini = "[model]\nvariant = generic\n" + coeffs
    code, stdout, err, out = _run(tmp_path, capsys, "analyze", ini=ini)
    assert code == 3
    assert err.startswith("error: mu2")
    assert stdout == ""
    assert not (out / "analyze.json").exists()


def test_analyze_subnormal_hopf_point_exits_3(tmp_path, capsys):
    ini = "[model]\nvariant = generic\n" + _SUBNORMAL_ETA_C
    code, stdout, err, out = _run(tmp_path, capsys, "analyze", ini=ini)
    assert code == 3
    assert err == "error: eta_c = 5e-324 is outside the normal float range\n"
    assert stdout == ""
    assert not (out / "analyze.json").exists()


def test_analyze_at_extreme_lam_names_the_cone(tmp_path, capsys):
    # x_e = 5.5e102 is finite, so the linearization a = 3 x_e^2 - mu leaves
    # the cone b > a; a NaN equilibrium had reported a non-finite coefficient
    ini = CUBIC_INI.replace("k = 9.0", "k = 2.0").replace("lam = -7.0", "lam = -1.7e308")
    code, stdout, err, _ = _run(tmp_path, capsys, "analyze", ini=ini)
    assert code == 3
    assert err.startswith("error: need b > a") and "b = 2.0" in err
    assert stdout == ""


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_nicholson_size_outside_the_float_range_exits_3(tmp_path, capsys, command):
    # x0_size**2 overflows: float ** raised a bare OverflowError; the
    # expansion's (1/x0_size)^2 underflows
    ini = (NICHOLSON_INI.replace("x0_size = 1.0", "x0_size = 1e200")
           + _sweep_ini("epsilon", 0.1, 0.9, 3))
    code, stdout, err, out = _run(tmp_path, capsys, command, ini=ini)
    assert code == 3
    assert err.startswith("error: xi_yy = 0.0 is outside the normal float range")
    assert stdout == ""


def test_simulate_step_count_beyond_an_index_exits_3(tmp_path, capsys):
    # 5.3e302 steps: rejected before any list is allocated
    ini = CUBIC_INI.replace("t_end = 60.0", "t_end = 1e300")
    code, stdout, err, out = _run(tmp_path, capsys, "simulate", ini=ini)
    assert code == 3
    assert err.startswith("error: t_end")
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("command, sweep", [
    ("simulate", ""), ("sweep", "[sweep]\naxis = eta\nstart = 1.02\nstop = 1.04\ncount = 2\n"),
])
def test_step_count_beyond_memory_exits_3(tmp_path, capsys, command, sweep):
    # 1e18 steps of dt = 0.00187: their sample lists exceed any 64-bit
    # address space, so the first allocation fails at once
    ini = CUBIC_INI.replace("t_end = 60.0", "t_end = 1.87e15") + sweep
    code, stdout, err, out = _run(tmp_path, capsys, command, ini=ini)
    assert code == 3
    assert err == ("error: t_end = 1.87e+15 takes 1000000000000000000 steps of "
                   "dt = 0.00187: more samples than memory holds\n")
    assert stdout == ""
    assert list(out.iterdir()) == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"delaybif {__version__}"


_DESCRIPTIONS = {
    "analyze": "equilibrium, Hopf point, decay rate, Lyapunov coefficient",
    "sweep": "grid sweep over tau, eta, or epsilon",
    "simulate": "method-of-steps integration plus verdict metrics",
    "roots": "rightmost characteristic roots",
}


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_names_every_subcommand(capsys, argv):
    # one parser: a subcommand's --help is the global help
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for name, description in _DESCRIPTIONS.items():
        assert f"{name}: {description}" in text


@pytest.mark.parametrize("argv", [["bogus", "--config", "run.ini"], ["analyze"], []])
def test_unknown_command_or_missing_config_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: delaybif")


def test_output_dir_from_config(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ini = CUBIC_INI + "[output]\ndir = results\n"
    cfg = _write(tmp_path, ini)
    code = main(["analyze", "--config", cfg])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "results" / "analyze.json").exists()


# --- start-up: each command loads only the layers it runs -----------------

# Runs in a fresh interpreter: which modules a command loads is only visible
# before anything else has imported them.  Prints, after the import and
# after each command, whether numpy and array are loaded and which delaybif
# modules are, plus the exit codes.
_NUMPY_PROBE = textwrap.dedent("""\
    import json, sys
    def loaded():
        return {"numpy": "numpy" in sys.modules, "array": "array" in sys.modules,
                "delaybif": sorted(m for m in sys.modules if m.split(".")[0] == "delaybif")}
    steps = {"start": loaded()}
    from delaybif.cli import main
    steps["import"] = loaded()
    codes = {}
    for name, command in json.loads(sys.argv[2]):
        codes[name] = main([command, "--config", f"{sys.argv[1]}/{name}.ini",
                            "--out", f"{sys.argv[1]}/{name}"])
        steps[name] = loaded()
    print(json.dumps({"loaded": steps, "codes": codes}))
    """)


def _sweep_ini(axis, start, stop, count):
    return (f"[sweep]\naxis = {axis}\nstart = {start}\nstop = {stop}\n"
            f"count = {count}\n")


def _probe_commands(tmp_path, order):
    """The probe's record of the named runs, in this order, in one fresh
    interpreter; skips where the interpreter loads numpy or array at
    start-up."""
    short = CUBIC_INI.replace("t_end = 60.0", "t_end = 12.0")
    runs = {"analyze": ("analyze", CUBIC_INI),
            "tau": ("sweep", CUBIC_INI + _sweep_ini("tau", 0.005, 0.18, 8)),
            "epsilon": ("sweep", CUBIC_INI + _sweep_ini("epsilon", 0.0, 0.9, 4)),
            "roots": ("roots", CUBIC_INI),
            "simulate": ("simulate", short),
            "eta": ("sweep", short + _sweep_ini("eta", 1.02, 1.04, 2))}
    for name, (_, text) in runs.items():
        _write(tmp_path, text, name + ".ini")
    src = os.path.dirname(os.path.dirname(delaybif.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, str(tmp_path),
         json.dumps([(name, runs[name][0]) for name in order])],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["loaded"]["start"]["numpy"] or result["loaded"]["start"]["array"]:
        pytest.skip("this interpreter imports numpy or array at start-up")
    assert result["codes"] == {name: 0 for name in order}
    return result["loaded"]


def _added(loaded, order):
    """The delaybif modules each run of order loaded first."""
    return {step: sorted(set(loaded[step]["delaybif"]) - set(loaded[before]["delaybif"]))
            for before, step in zip(["import", *order], order)}


def test_analysis_commands_do_not_import_numpy(tmp_path):
    loaded = _probe_commands(
        tmp_path, ["analyze", "tau", "epsilon", "roots", "simulate", "eta"])
    for step in ("import", "analyze", "tau", "epsilon", "roots"):
        assert not loaded[step]["numpy"], step
        assert not loaded[step]["array"], step
    # simulating loads ddesim, and numpy with it, when the command runs, and
    # array when the kernel allocates its buffer
    assert loaded["simulate"]["numpy"]
    assert loaded["simulate"]["array"]
    assert (tmp_path / "eta" / "bifurcation.csv").exists()


def test_each_command_loads_only_its_layers(tmp_path):
    # ordered so that each step's new modules are its own
    order = ["simulate", "roots", "tau", "epsilon", "analyze", "eta"]
    loaded = _probe_commands(tmp_path, order)
    assert loaded["start"]["delaybif"] == []
    assert loaded["import"]["delaybif"] == [
        "delaybif", "delaybif.cli", "delaybif.errors", "delaybif.models"]
    assert _added(loaded, order) == {"simulate": ["delaybif.ddesim"],
                                     "roots": ["delaybif.chareq"],
                                     "tau": ["delaybif.convergence"],
                                     "epsilon": ["delaybif.hopf"],
                                     "analyze": [],
                                     "eta": []}


def test_analyze_loads_convergence_itself(tmp_path):
    # the epsilon sweep loads hopf without convergence, which analysis
    # imports when it runs: so analyze after it adds convergence alone
    order = ["epsilon", "analyze"]
    assert _added(_probe_commands(tmp_path, order), order) == {
        "epsilon": ["delaybif.chareq", "delaybif.hopf"], "analyze": ["delaybif.convergence"]}


_PACKAGE_PROBE = textwrap.dedent("""\
    import json, sys
    def loaded():
        return sorted(m for m in sys.modules if m == "numpy" or m.startswith("delaybif"))
    import delaybif
    names = [delaybif.CubicBD.__name__, delaybif.lambert_roots.__name__,
             delaybif.rate_of_convergence.__name__]
    after_names = loaded()
    found = [hasattr(delaybif, probe) for probe in ("no_such_name", "__wrapped__")]
    print(json.dumps({"names": names, "after_names": after_names, "found": found,
                      "dir": dir(delaybif), "after_dir": loaded()}))
    """)


def test_lazy_package_keeps_its_surface():
    src = os.path.dirname(os.path.dirname(delaybif.__file__))
    proc = subprocess.run([sys.executable, "-c", _PACKAGE_PROBE],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["names"] == ["CubicBD", "lambert_roots", "rate_of_convergence"]
    # each name loads its own module and what that imports, never numpy
    assert result["after_names"] == ["delaybif", "delaybif.chareq", "delaybif.convergence",
                                     "delaybif.errors", "delaybif.models"]
    # a miss searches the numpy-free layers only; a dunder is not searched
    assert result["found"] == [False, False]
    assert "__all__" in result["dir"]
    assert set(delaybif.__all__) <= set(result["dir"])
    assert "DIVERGENCE_THRESHOLD" not in result["dir"]
    assert result["after_dir"] == ["delaybif", "delaybif.chareq", "delaybif.convergence",
                                   "delaybif.errors", "delaybif.hopf", "delaybif.models"]


def test_package_resolves_simulation_names():
    from delaybif import chareq, convergence, ddesim, errors, hopf, models
    from delaybif import SimConfig, integrate
    assert delaybif.Trajectory is ddesim.Trajectory
    assert SimConfig is ddesim.SimConfig and integrate is ddesim.integrate
    namespace = {}
    exec("from delaybif import *", namespace)
    assert set(delaybif.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        delaybif.no_such_name
    # the package surface is each module's own __all__, each name once
    assert len(set(delaybif.__all__)) == len(delaybif.__all__)
    expected = ["__version__"]
    for module in (chareq, convergence, errors, hopf, models):
        expected += module.__all__
    expected += ["SimConfig", "Trajectory", "Verdict", "LimitCycleMetrics",
                 "integrate", "metrics", "sweep_bifurcation"]
    assert sorted(delaybif.__all__) == sorted(expected)
    for module in (chareq, convergence, errors, hopf, models):
        assert all(getattr(delaybif, name) is getattr(module, name)
                   for name in module.__all__)


def test_grid_matches_linspace():
    rng = random.Random(20)
    cases = [(0.005, 0.18, 36), (0.0, 0.9, 1), (0.0, 0.9, 2), (-1.5, 2.5, 2),
             (1.02, 1.04, 1), (-0.0, 1.0, 1), (3.0, -3.0, 1)]
    for _ in range(400):
        start = rng.uniform(-10.0, 10.0) * 10.0 ** rng.randint(-6, 6)
        stop = start + rng.uniform(1e-3, 10.0) * 10.0 ** rng.randint(-6, 6)
        cases.append((start, stop, rng.choice([1, 2, 3, rng.randint(4, 300)])))
    for start, stop, count in cases:
        cp = configparser.ConfigParser()
        cp.read_dict({"sweep": {"axis": "tau", "start": repr(start),
                                "stop": repr(stop), "count": str(count)}})
        _, grid = _grid(cp)
        expect = np.linspace(start, stop, count).tolist()
        assert [x.hex() for x in grid] == [x.hex() for x in expect], (start, stop, count)


@pytest.mark.parametrize("start,stop,count", [
    ("0.0", "inf", 3), ("nan", "1.0", 1), ("-1e308", "1e308", 4),
])
def test_non_finite_sweep_grid_is_a_config_error(tmp_path, capsys, start, stop, count):
    ini = CUBIC_INI + _sweep_ini("epsilon", start, stop, count)
    code, _, err, out = _run(tmp_path, capsys, "sweep", ini=ini)
    assert code == 2
    assert "must be finite" in err
    assert not (out / "gtilde.csv").exists()


# --- invalid gains and search regions --------------------------------------

@pytest.mark.parametrize("eta", ["nan", "inf", "-inf", "1e308"])
@pytest.mark.parametrize("command", ["analyze", "sweep", "roots"])
def test_non_finite_or_overflowing_gain_exits_3(tmp_path, capsys, command, eta):
    ini = (CUBIC_INI.replace("[analysis]\neta = 1.0", f"[analysis]\neta = {eta}")
           + _sweep_ini("tau", 0.005, 0.18, 4))
    code, stdout, err, out = _run(tmp_path, capsys, command, ini=ini)
    assert code == 3
    assert err.startswith("error:")
    assert stdout == ""
    assert not (out / "analyze.json").exists()


@pytest.mark.parametrize("override", [
    "im_max = -1", "re_min = 5\nre_max = -5", "im_max = inf", "re_min = nan",
    # tau*im_max/(2 pi) = 3e298 Lambert-W branches, past the 2^15 cap
    "im_max = 1e300",
])
def test_invalid_root_region_override_exits_3(tmp_path, capsys, override):
    ini = CUBIC_INI + "[roots]\n" + override + "\n"
    code, _, err, out = _run(tmp_path, capsys, "roots", ini=ini)
    assert code == 3
    assert err.startswith("error: root search region")
    assert not (out / "roots.csv").exists()


# --- artifacts -------------------------------------------------------------

_SHORT_INI = CUBIC_INI.replace("t_end = 60.0", "t_end = 12.0")


@pytest.mark.parametrize("command, ini, artifact", [
    ("analyze", CUBIC_INI, "analyze.json"),
    ("analyze", CUBIC_INI, "manifest.json"),
    ("sweep", CUBIC_INI + _sweep_ini("tau", 0.005, 0.18, 4), "roc_sweep.csv"),
    ("simulate", _SHORT_INI, "trajectory.csv"),
    ("roots", CUBIC_INI, "roots.csv"),
], ids=["analyze", "manifest", "sweep", "simulate", "roots"])
def test_unwritable_artifact_exits_2(tmp_path, capsys, command, ini, artifact):
    # a directory stands where the artifact goes, so opening it fails
    (tmp_path / "out" / artifact).mkdir(parents=True)
    code, stdout, err, _ = _run(tmp_path, capsys, command, ini=ini)
    assert code == 2
    assert stdout == ""
    assert err.startswith("config error: cannot write ")
    assert artifact in err


def _csv_writer_bytes(header, rows):
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode()


_CSV_TABLES = {
    "tau": ("sweep", CUBIC_INI + _sweep_ini("tau", 0.005, 0.18, 36), "roc_sweep.csv"),
    "eta": ("sweep", _SHORT_INI + _sweep_ini("eta", 0.9, 1.1, 3), "bifurcation.csv"),
    "epsilon": ("sweep", CUBIC_INI + _sweep_ini("epsilon", 0.0, 0.9, 10), "gtilde.csv"),
    "nicholson-epsilon": ("sweep", NICHOLSON_INI + _sweep_ini("epsilon", 0.05, 0.95, 7),
                          "nicholson_mu2.csv"),
    "roots": ("roots", CUBIC_INI, "roots.csv"),
    "trajectory": ("simulate", _SHORT_INI, "trajectory.csv"),
}


@pytest.mark.parametrize("name", sorted(_CSV_TABLES))
def test_csv_table_is_what_csv_writer_writes(tmp_path, capsys, monkeypatch, name):
    # the one CSV writer joins the values by str, which gives the bytes of
    # csv.writer as long as no value needs quoting
    command, ini, table = _CSV_TABLES[name]
    written = {}

    def spy(outdir, file, header, rows):
        rows = [list(row) for row in rows]
        written[file] = header, rows
        return write_csv(outdir, file, header, rows)

    write_csv = cli._write_csv
    monkeypatch.setattr(cli, "_write_csv", spy)
    code, _, _, out = _run(tmp_path, capsys, command, ini=ini)
    assert code == 0
    header, rows = written[table]
    assert (out / table).read_bytes() == _csv_writer_bytes(header, rows)
    values = [value for row in rows for value in row]
    if name == "tau":
        # sigma2 above tau*, sigma3 below it
        assert {math.isinf(row[3]) for row in rows} == {True, False}
        assert {math.isinf(row[4]) for row in rows} == {True, False}
    if name in ("tau", "eta"):
        assert any(isinstance(value, str) for value in values)
    if name == "eta":
        assert any(isinstance(value, float) and math.isnan(value) for value in values)


def test_trajectory_csv_is_written_in_blocks(tmp_path):
    # 100,001 rows: the text of all of them in one join, with the two
    # columns as lists, peaked at about 150 bytes a row
    times = np.linspace(0.0, 1000.0, 100_001)
    values = 1.1 * np.sin(times)
    text = "t,x\n" + "".join(itertools.starmap("{},{}\n".format,
                                               zip(times.tolist(), values.tolist())))
    tracemalloc.start()
    try:
        cli._write_csv(str(tmp_path), "trajectory.csv", ["t", "x"],
                       cli._array_rows(times, values))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(times) <= 16.0
    assert (tmp_path / "trajectory.csv").read_bytes() == text.encode()


# --- exit-code contract ----------------------------------------------------

_MAGNITUDE = st.floats(-690.0, 690.0).map(math.exp)  # log-uniform, 1e-300..1e300
_COEFFICIENT = st.one_of(st.just(0.0), _MAGNITUDE, _MAGNITUDE.map(lambda x: -x))
_HIGHER = ("xi_xx", "xi_xy", "xi_yy", "xi_xxx", "xi_xxy", "xi_xyy", "xi_yyy")


# every [model] field of each built-in variant but tau
_BUILT_IN_FIELDS = {"cubic": ("k", "mu", "lam"), "quadratic": ("k", "mu", "lam"),
                    "nicholson": ("gamma", "p_rate", "x0_size")}


@st.composite
def _runs(draw):
    """A subcommand and a config of any variant anywhere in the float range."""
    tau, eta = draw(_MAGNITUDE), draw(_MAGNITUDE)
    variant = draw(st.sampled_from(["generic", *_BUILT_IN_FIELDS]))
    if variant == "generic":
        lines = [f"xi_x = {-draw(_MAGNITUDE)!r}", f"xi_y = {-draw(_MAGNITUDE)!r}",
                 *(f"{name} = {draw(_COEFFICIENT)!r}" for name in _HIGHER)]
    else:
        lines = [f"{name} = {draw(_COEFFICIENT)!r}" for name in _BUILT_IN_FIELDS[variant]]
    ini = (f"[model]\nvariant = {variant}\n" + "\n".join(lines) + f"\ntau = {tau!r}"
           + f"\n[analysis]\neta = {eta!r}\n")
    command = draw(st.sampled_from(["analyze", "roots", "sweep tau", "sweep epsilon",
                                    "simulate", "sweep eta"]))
    if command in ("simulate", "sweep eta"):
        # 50 to 100 delays of 100 default steps: at most 10^4 steps a run
        t_end = tau * draw(st.floats(50.0, 100.0))
        ini += (f"[sim]\neta = {eta!r}\nx_init = {draw(_COEFFICIENT)!r}\n"
                f"t_end = {t_end!r}\n")
    if command == "sweep tau":
        ini += _sweep_ini("tau", tau, 2.0 * tau, 2)
    elif command == "sweep epsilon":
        ini += _sweep_ini("epsilon", 0.0, 0.9, 2)
    elif command == "sweep eta":
        ini += _sweep_ini("eta", eta, 2.0 * eta, 2)
        ini += f"continue_history = {draw(st.booleans())}\n"
    return command.split()[0], ini


@given(run=_runs())
@example(run=("analyze", "[model]\nvariant = generic\n" + _CM_OVERFLOW))
@example(run=("analyze", "[model]\nvariant = generic\n" + _SUBNORMAL_ETA_C))
# tau*im_max/(2 pi) = 8e5 Lambert-W branches: refused before the first one
@example(run=("roots", "[model]\nvariant = generic\nxi_x = -1.0\nxi_y = -2.0\ntau = 1e6\n"))
# 1/tau overflows: the default region is clamped to the float range
@example(run=("roots", "[model]\nvariant = generic\nxi_x = -0.5\nxi_y = -1.3\ntau = 1e-310\n"))
# t^2 underflows in the decay-rate fit, which raised LinAlgError
@example(run=("simulate", "[model]\nvariant = cubic\nk = 1.0\nmu = 0.0\nlam = 0.0\n"
              "tau = 1.8662951286209762e-164\n[sim]\neta = 1.0\nx_init = 1.0\n"
              "t_end = 9.331475643104881e-163\n"))
@settings(max_examples=60, deadline=None)
def test_every_run_exits_with_a_documented_code(tmp_path_factory, run):
    # no traceback over the float range: an escaping exception fails the test
    command, ini = run
    where = tmp_path_factory.mktemp("run")
    config = where / "run.ini"
    config.write_text(ini)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--config", str(config), "--out", str(where / "out")])
    assert code in (0, 2, 3, 4)
