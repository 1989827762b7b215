"""End-to-end CLI tests: config parsing, outputs, exit codes, determinism."""
import dataclasses
import json
import textwrap

import pytest

from delaybif import (
    CubicBD,
    __version__,
    mu2_cubic_specialization,
    taylor_coefficients,
)
from delaybif.cli import main

from _oracles import EX1_ETA_C

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


def test_roots_overflowing_search_exits_cleanly(tmp_path, capsys):
    ini = CUBIC_INI.replace("tau = 0.187", "tau = 50.0")
    code, _, stderr, _ = _run(tmp_path, capsys, "roots", ini=ini)
    assert code in (0, 3)
    assert code == 0 or stderr.startswith("error:")


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


def test_invalid_model_maps_to_exit_3(tmp_path, capsys):
    ini = CUBIC_INI.replace("k = 9.0", "k = 0.5")
    code, _, err, _ = _run(tmp_path, capsys, "analyze", ini=ini)
    assert code == 3
    assert "k > mu required" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"delaybif {__version__}"


def test_output_dir_from_config(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ini = CUBIC_INI + "[output]\ndir = results\n"
    cfg = _write(tmp_path, ini)
    code = main(["analyze", "--config", cfg])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "results" / "analyze.json").exists()
