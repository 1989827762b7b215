"""Seeded workloads of the delaybif benchmark.

Each workload turns a seed into a fixed item list (stdlib ``random`` only,
so the list does not depend on the numpy version), runs one item at a time
through the library, and checks every result against a route independent
of the code that produced it.  The library sees only the generated inputs.

``WORKLOADS[name](seed, n, workdir)`` builds a workload object with:

* ``items``: the first n items of the seeded list, generated in order, so a
  list of one item starts like the full list;
* ``run(item)``: the timed work of one item;
* ``check(item, result)``: a list of problems, empty when the result passes;
* ``perturb(item, result)``: a copy of a passing result with one value
  changed, which the gate must reject;
* ``verdicts(item, result)``: (expected, measured) verdict pairs of every
  simulation run in the item, for ``ddesim.verdict_agreement``;
* ``describe(item)`` and ``span_name(item)``: labels for the failure summary
  and the trace;
* ``runs_in_child`` and ``speed_task``: whether an item's work runs in a
  child process, and else which reference task it resembles, which decide
  how its time is scaled to the reference speed (see ``speed.py``);
* ``refused(exc)``: whether an exception an item raised is the library
  giving up on its input rather than a fault.  Such an item is unanswered:
  not wrong, and not counted as failed, but it lowers ``ok_ratio``.

Two known defects of the library fail on whole classes of input.  Those
inputs stay out of the seeded item lists and are run from fixed sets by
``known_defects``, so that their failures are counted the same way in every
run.
"""
from __future__ import annotations

import cmath
import dataclasses
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import traceback

from delaybif import chareq, cli, convergence, ddesim, hopf, models
from delaybif.errors import NoConvergence
from speed import run_child

INV_E = 1.0 / math.e


def lambert_w0(x: float) -> float:
    """Principal real branch of w*e^w = x for x >= 0 (Newton from log1p)."""
    w = math.log1p(x)
    for _ in range(60):
        ew = math.exp(w)
        step = (w * ew - x) / (ew * (w + 1.0))
        w -= step
        if abs(step) <= 1e-16 * (1.0 + abs(w)):
            break
    return w


def tau_star_of(a: float, b: float) -> float:
    """Delay solving b*tau*e^(a*tau) = 1/e: W0(a/(b e))/a, or 1/(b e) at a = 0."""
    if a == 0.0:
        return INV_E / b
    return lambert_w0(a * INV_E / b) / a


def cubic_root(p: float, q: float) -> float:
    """Real root of x^3 + p x + q = 0 for p > 0 (Cardano; one real root)."""
    def cbrt(v: float) -> float:
        return math.copysign(abs(v) ** (1.0 / 3.0), v)

    s = math.sqrt(q * q / 4.0 + p ** 3 / 27.0)
    return cbrt(-q / 2.0 + s) + cbrt(-q / 2.0 - s)


def _rel_close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol * max(abs(x), abs(y))


# ---------------------------------------------------------------------------
# analysis-scan

KINDS = ("cubic", "quadratic", "nicholson", "generic", "raw")
# eta*b*tau spans 2.5 decades; the root search cost grows with it
P_LO, P_HI = 0.05, 0.05 * 10 ** 2.5
STRATA = 16
# the known-defect probes draw from their own fixed seed
PROBE_SEED = 0
TAU_STAR_PROBE = 30
NICHOLSON_PROBE = 4


def _draw_model(rng: random.Random, kind: str, tame: bool = False):
    """A valid model of one kind with 0 <= epsilon <= 0.85: (build, a, b).

    ``build(tau)`` returns the model spec at delay tau; a and b come from the
    generator's own closed forms, not from the library.  A tame generic model
    has a dominant dissipative cubic term, so its small cycle above onset is
    not lost to a nearby large one within the simulated gains.
    """
    eps = rng.uniform(0.0, 0.85)
    if kind == "cubic":
        while True:
            k, mu, lam = rng.uniform(2.0, 12.0), rng.uniform(0.2, 2.0), rng.uniform(-8.0, 8.0)
            a = 3.0 * cubic_root(k - mu, lam) ** 2 - mu
            if 0.0 <= a <= 0.85 * k:
                return (lambda tau: models.CubicBD(k=k, mu=mu, lam=lam, tau=tau)), a, k
    if kind == "quadratic":
        # the larger root x has a = 2x - mu = sqrt(disc) - k, so pick a first
        k, mu = rng.uniform(2.0, 12.0), rng.uniform(0.2, 2.0)
        a = eps * k
        lam = ((k - mu) ** 2 - (k + a) ** 2) / 4.0
        return (lambda tau: models.QuadraticBD(k=k, mu=mu, lam=lam, tau=tau)), a, k
    if kind == "nicholson":
        gamma, x0 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 5.0)
        eps = max(eps, 0.1)
        p_rate = gamma * math.exp(1.0 + 1.0 / eps)
        return (lambda tau: models.Nicholson(gamma=gamma, p_rate=p_rate,
                                             x0_size=x0, tau=tau)), gamma, gamma / eps
    b = rng.uniform(0.5, 10.0)
    a = eps * b
    if kind == "raw":
        nonlinear = [0.0] * 7
    elif tame:
        nonlinear = ([rng.uniform(-0.5, 0.5) for _ in range(3)] + [-rng.uniform(0.5, 2.0)]
                     + [rng.uniform(-0.2, 0.2) for _ in range(3)])
    else:
        nonlinear = [rng.uniform(-2.0, 2.0) for _ in range(7)]
    return (lambda tau: models.Generic(models.TaylorCoefficients(
        -a, -b, *nonlinear, tau=tau))), a, b


def _analysis_item(rng: random.Random, i: int, at_tau_star: bool = False) -> dict:
    kind = KINDS[i % len(KINDS)]
    build, a, b = _draw_model(rng, kind)
    eta = rng.uniform(0.5, 1.5)
    if at_tau_star:
        tau = tau_star_of(eta * a, eta * b)
    else:
        u = ((i * 7) % STRATA + rng.random()) / STRATA
        tau = P_LO * (P_HI / P_LO) ** u / (eta * b)
    return {"id": i, "kind": kind, "spec": build(tau), "eta": eta,
            "a": a, "b": b, "tau": tau}


def analysis_items(seed: int, n: int = 6000) -> list[dict]:
    """Models of every kind, eta*b*tau stratified on a log scale.

    No item sits at tau = tau*, where the rightmost root is a double real
    root: there the root search raises or returns no root for most models,
    so those points are measured apart, by ``known_defects``.
    """
    rng = random.Random(seed)
    return [_analysis_item(rng, i) for i in range(n)]


def tau_star_items(n: int = TAU_STAR_PROBE) -> list[dict]:
    """A fixed set of models of every kind at tau = tau*, the same for every seed."""
    rng = random.Random(PROBE_SEED)
    return [_analysis_item(rng, i, at_tau_star=True) for i in range(n)]


def analyze(spec, eta: float) -> dict:
    """The full analysis of one model at gain eta, layer by layer."""
    eq = models.equilibrium(spec)
    c = models.taylor_coefficients(spec)
    hp = chareq.critical_eta(c)
    verdict = chareq.stability_verdict(c, eta)
    roc = convergence.rate_of_convergence(c, eta)
    ts = convergence.tau_star(c, eta)
    lyap = hopf.mu2_center_manifold(c, hp)
    closed = hopf.mu2_closed_form(c)
    cls = hopf.classify(lyap)
    roots = chareq.rightmost_roots(c, eta)
    return {"eq": eq, "coeffs": c, "hopf": hp, "verdict": verdict, "roc": roc,
            "tau_star": ts, "lyap": lyap, "mu2_closed": closed, "classify": cls,
            "roots": roots}


def check_analysis(item: dict, out: dict) -> list[str]:
    """Gate of one analysis item; a, b and tau are the generator's own."""
    eta, tau = item["eta"], item["tau"]
    A, B = eta * item["a"], eta * item["b"]
    problems = []
    roots = out["roots"]
    if not roots:
        return ["no root returned"]
    for r in roots:
        lam = complex(r.re, r.im)
        res = abs(lam + A + B * cmath.exp(-lam * tau))
        if not res <= 1e-9 * (1.0 + abs(lam) + A + B):
            problems.append(f"root {lam} residual {res:.3g}")
    top = roots[0]
    if (top.re < 0.0) != (out["verdict"] == "stable"):
        problems.append(f"Re lambda_max = {top.re:.6g} but verdict {out['verdict']}")
    scale = 1.0 / tau + A + B
    gap = B * tau * math.exp(A * tau) - INV_E
    if abs(gap) <= 1e-9:
        # a double real root: rounding of z picks the side, and a root found
        # to residual r moves by about sqrt(r), so only bound Im
        im_ok = abs(top.im) <= 1e-4 * scale
    else:
        im_ok = (gap <= 0.0) == (abs(top.im) <= 1e-6 * scale)
    if not im_ok:
        problems.append(f"Im lambda_max = {top.im:.3g} but z - 1/e = {gap:.3g}")
    if out["verdict"] == "stable":
        sigma = out["roc"].sigma
        if not abs(top.re + sigma) <= 1e-6 * scale:
            problems.append(f"Re lambda_max = {top.re:.9g} vs sigma {sigma:.9g}")
    cm = out["lyap"].mu2 / out["hopf"].eta_c
    if not (cm == out["mu2_closed"] or _rel_close(cm, out["mu2_closed"], 1e-9)):
        problems.append(f"mu2 routes differ: {cm!r} vs {out['mu2_closed']!r}")
    return problems


# ---------------------------------------------------------------------------
# sim-grid and sim-continuation

SIM_KINDS = ("cubic", "quadratic", "nicholson", "generic")
ABOVE_KINDS = ("cubic", "generic")
AMPLITUDE_TOL = 0.15   # the normal form is exact only as eta -> eta_c
PERIOD_TOL = 0.10
DECAY_TOL = 0.05
MAX_AMPLITUDE = 0.3
SIM_SPAN = 400   # delays per sim-grid run: every run takes 40,000 steps
# (eta - eta_c)/eta_c above onset.  Nearer onset the cycle settles too slowly
# for SIM_SPAN delays: at offsets of 0.2-0.5% the half-range amplitude of a
# cold run came out up to 15% above the normal form, from 0.5% within 10%
MIN_OFFSET, MAX_OFFSET = 0.005, 0.04


def _references(spec, eta: float) -> dict:
    """Closed-form values a simulation of spec at gain eta must reproduce.

    sigma is set below onset, the normal-form amplitude above a
    supercritical onset; eta = 0 gives the model's values alone.
    """
    c = models.taylor_coefficients(spec)
    hp = chareq.critical_eta(c)
    ref = {"x_e": models.equilibrium(spec).x_e, "eta_c": hp.eta_c,
           "period": hp.period, "mu2": hopf.mu2_center_manifold(c, hp).mu2}
    if 0.0 < eta < hp.eta_c:
        ref["sigma"] = convergence.rate_of_convergence(c, eta).sigma
    elif eta > hp.eta_c and ref["mu2"] > 0.0:
        ref["amplitude"] = 2.0 * math.sqrt((eta - hp.eta_c) / ref["mu2"])
    return ref


def _grid_item(rng: random.Random, i: int, kind: str, above: bool) -> dict:
    while True:
        build, a, b = _draw_model(rng, kind, tame=True)
        tau = rng.uniform(0.5, 2.0) / b
        spec = build(tau)
        base = _references(spec, 0.0)
        if above:
            # the normal form holds near onset only: aim at a small cycle
            eta = base["eta_c"] + base["mu2"] * rng.uniform(0.1, MAX_AMPLITUDE) ** 2 / 4.0
            in_range = MIN_OFFSET <= eta / base["eta_c"] - 1.0 <= MAX_OFFSET
        else:
            eta = base["eta_c"] * rng.uniform(0.4, 0.8)
            in_range = True
        ref = _references(spec, eta)
        # below onset, decay over enough e-folds that the fitted rate is clean
        if in_range and ref.get("sigma", math.inf) * tau * SIM_SPAN >= 30.0:
            break
    if above:
        x_init = ref["x_e"] + ref["amplitude"]
    else:
        x_init = ref["x_e"] + rng.choice((-0.05, 0.05)) * max(1.0, abs(ref["x_e"]))
    return {"id": i, "kind": kind, "spec": spec, "ref": ref,
            "config": ddesim.SimConfig(eta=eta, x_init=x_init, t_end=SIM_SPAN * tau)}


def sim_grid_items(seed: int, n: int = 800) -> list[dict]:
    """Cold runs below onset for every variant, above it for cubic and
    generic models.

    Quadratic models are always subcritical: they have no small stable cycle
    to measure.  Nicholson models run below onset only because their
    library mu2 is wrong, so every run above onset misses the normal-form
    amplitude; those runs are measured apart, by ``known_defects``.
    """
    rng = random.Random(seed)
    items = []
    for i in range(n):
        kind = SIM_KINDS[i % len(SIM_KINDS)]
        above = (i // len(SIM_KINDS)) % 2 == 1 and kind in ABOVE_KINDS
        items.append(_grid_item(rng, i, kind, above))
    return items


def nicholson_above_items(n: int = NICHOLSON_PROBE) -> list[dict]:
    """A fixed set of Nicholson runs above onset, the same for every seed."""
    rng = random.Random(PROBE_SEED)
    return [_grid_item(rng, i, "nicholson", True) for i in range(n)]


def simulate(spec, config):
    return ddesim.metrics(ddesim.integrate(spec, config))


def check_run(ref: dict, m) -> list[str]:
    """Gate of one simulation run against the closed forms in ref."""
    if "sigma" in ref:
        if m.verdict is not ddesim.Verdict.CONVERGED_TO_EQUILIBRIUM:
            return [f"below onset: verdict {m.verdict.value}"]
        if not abs(m.decay_rate - ref["sigma"]) <= DECAY_TOL * ref["sigma"]:
            return [f"decay rate {m.decay_rate:.6g} vs sigma {ref['sigma']:.6g}"]
        return []
    if m.verdict is not ddesim.Verdict.LIMIT_CYCLE:
        return [f"above onset: verdict {m.verdict.value}"]
    problems = []
    if not abs(m.period - ref["period"]) <= PERIOD_TOL * ref["period"]:
        problems.append(f"period {m.period:.6g} vs Hopf period {ref['period']:.6g}")
    if not abs(m.amplitude - ref["amplitude"]) <= AMPLITUDE_TOL * ref["amplitude"]:
        problems.append(f"amplitude {m.amplitude:.6g} vs normal form {ref['amplitude']:.6g}")
    return problems


# the two worked examples of the README and the acceptance suite
SUPERCRITICAL = models.CubicBD(k=9.0, mu=1.0, lam=-7.0, tau=0.187)
SUBCRITICAL = models.CubicBD(k=4.75, mu=1.0, lam=-7.0, tau=1.0)


def continuation_items(seed: int, n: int = 400) -> list[dict]:
    """Warm-started three-point sweeps: two of the supercritical example for
    each of the subcritical one.

    The supercritical sweep climbs the small cycle above onset; the
    subcritical one starts on the large cycle below onset and must stay on it.
    A subcritical sweep costs far less than a supercritical one, so the 2:1 mix
    keeps the median item inside one cost mode.
    """
    rng = random.Random(seed)
    items = []
    super_c = _references(SUPERCRITICAL, 0.0)["eta_c"]
    sub_c = _references(SUBCRITICAL, 0.0)["eta_c"]
    for i in range(n):
        if i % 3 != 2:
            spec = SUPERCRITICAL
            grid = [super_c * (1.0 + rng.uniform(lo, lo + 0.005)) for lo in (0.02, 0.03, 0.04)]
            # a warm start is a constant history off the cycle; by t = 90 the
            # last ten peaks still differed by over 1% (Undetermined) in about
            # one point in 700, by t = 120 by at most 3e-6 in 240 points
            config = ddesim.SimConfig(eta=grid[0], x_init=rng.uniform(1.2, 1.4),
                                      t_end=120.0, dt=spec.tau / 50.0)
            refs = [_references(spec, eta) for eta in grid]
        else:
            spec = SUBCRITICAL
            grid = [sub_c * (1.0 - rng.uniform(lo, lo + 0.01)) for lo in (0.05, 0.03, 0.01)]
            config = ddesim.SimConfig(eta=grid[0], x_init=rng.uniform(2.5, 3.5), t_end=50.0)
            refs = [{"branch": "large"}] * len(grid)
        items.append({"id": i, "spec": spec, "grid": grid, "config": config, "refs": refs})
    return items


def check_point(ref: dict, point) -> list[str]:
    """Gate of one sweep point (eta, amplitude, period, verdict)."""
    eta, amplitude, period, verdict = point
    if ref.get("branch") == "large":
        if verdict is not ddesim.Verdict.LIMIT_CYCLE:
            return [f"subcritical branch at eta = {eta:.6g}: verdict {verdict.value}"]
        return []
    return check_run(ref, ddesim.LimitCycleMetrics(verdict, amplitude, period, math.nan))


def known_defects() -> dict:
    """Failing items, of fixed seed-independent sets, of the two known
    defects kept out of the timed items: the root search at tau = tau*
    (NoConvergence or no root), and Nicholson runs above onset (the
    library's Taylor coefficients make mu2 about 2.4 times too large)."""
    def failures(run, check, items) -> int:
        n = 0
        for item in items:
            try:
                n += bool(check(item, run(item)))
            except Exception:
                n += 1
        return n

    return {
        "known_defects.tau_star_failures": failures(
            lambda it: analyze(it["spec"], it["eta"]), check_analysis, tau_star_items()),
        "known_defects.nicholson_above_onset_failures": failures(
            lambda it: simulate(it["spec"], it["config"]),
            lambda it, m: check_run(it["ref"], m), nicholson_above_items()),
    }


# ---------------------------------------------------------------------------
# cli-readme

README_CONFIG = """\
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

[sweep]
axis = tau
start = 0.005
stop = 0.18
count = 36
"""
COMMANDS = ("analyze", "sweep", "simulate", "roots")
# what the installed ``delaybif`` console script runs
ENTRY = "import sys; from delaybif.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 60.0


def cli_items(seed: int, n: int = 400) -> list[dict]:
    """Every block of four items runs each subcommand once, in seeded order."""
    rng = random.Random(seed)
    items = []
    while len(items) < n:
        block = list(COMMANDS)
        if items:   # the first item, timed in setup_s, is always analyze
            rng.shuffle(block)
        items.extend({"id": len(items) + j, "command": c} for j, c in enumerate(block))
    return items[:n]


def artifacts(outdir: str) -> tuple[str, int]:
    """sha256 over the sorted artifact names and contents, and their total size."""
    h = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + data + b"\0")
        size += len(data)
    return h.hexdigest(), size


def cli_outcome(command: str, code: int, outdir: str) -> dict:
    """Exit code, artifact digest and size, and the JSON report of one run."""
    out = {"command": command, "code": code, "digest": None, "bytes": 0, "report": None}
    if code == 0:
        out["digest"], out["bytes"] = artifacts(outdir)
        name = {"analyze": "analyze.json", "simulate": "metrics.json"}.get(command)
        if name:
            with open(os.path.join(outdir, name), encoding="utf-8") as fh:
                out["report"] = json.load(fh)
    return out


def library_analysis() -> dict:
    """Values analyze.json and metrics.json must carry, computed in-process."""
    c = models.taylor_coefficients(SUPERCRITICAL)
    hp = chareq.critical_eta(c)
    lyap = hopf.mu2_center_manifold(c, hp)
    return {"x_e": models.equilibrium(SUPERCRITICAL).x_e, "eta_c": hp.eta_c,
            "omega0": hp.omega0, "sigma": convergence.rate_of_convergence(c, 1.0).sigma,
            "mu2": lyap.mu2, "mu2_closed": hopf.mu2_closed_form(c),
            "direction": hopf.classify(lyap)[0].value,
            "verdict": simulate(SUPERCRITICAL, ddesim.SimConfig(
                eta=1.05, x_init=0.9, t_end=60.0)).verdict.value}


def check_cli(expected: dict, first_digest: dict, out: dict) -> list[str]:
    if out["code"] != 0:
        return [f"{out['command']} exited with {out['code']}"]
    problems = []
    if first_digest.setdefault(out["command"], out["digest"]) != out["digest"]:
        problems.append(f"{out['command']} artifacts differ from the first run")
    rep = out["report"]
    if out["command"] == "analyze":
        got = {"x_e": rep["equilibrium"]["x_e"], "eta_c": rep["hopf"]["eta_c"],
               "omega0": rep["hopf"]["omega0"], "sigma": rep["convergence"]["sigma"],
               "mu2": rep["lyapunov"]["mu2"], "mu2_closed": rep["mu2_closed_form"]}
        for key, value in got.items():
            if not _rel_close(value, expected[key], 1e-12):
                problems.append(f"analyze.json {key} = {value!r}, library {expected[key]!r}")
        if rep["classification"]["direction"] != expected["direction"]:
            problems.append("analyze.json direction differs from the library")
    elif out["command"] == "simulate" and rep["verdict"] != expected["verdict"]:
        problems.append(f"metrics.json verdict {rep['verdict']} vs library {expected['verdict']}")
    return problems


# ---------------------------------------------------------------------------
# workload objects


class Workload:
    name = ""
    runs_in_child = False
    speed_task = "rk4"

    def span_name(self, item) -> str:
        return "item"

    def verdicts(self, item, result) -> list:
        return []

    def refused(self, exc: Exception) -> bool:
        return False


class AnalysisScan(Workload):
    name = "analysis-scan"
    speed_task = "array"

    def __init__(self, seed: int, n: int = 6000, workdir: str = ""):
        self.items = analysis_items(seed, n)

    def run(self, item):
        return analyze(item["spec"], item["eta"])

    def check(self, item, result):
        return check_analysis(item, result)

    def describe(self, item):
        return item["kind"]

    def refused(self, exc):
        """The root search gives up on a model with NoConvergence, its
        documented error.  Its Newton step can also overflow on the way, a
        known defect that raises a bare OverflowError from chareq instead."""
        if isinstance(exc, NoConvergence):
            return True
        frames = traceback.extract_tb(exc.__traceback__)
        return isinstance(exc, OverflowError) and frames[-1].filename == chareq.__file__

    def perturb(self, item, result):
        bad = dict(result)
        top = result["roots"][0]
        bad["roots"] = [chareq.ComplexRoot(top.re + 1e-3, top.im, top.residual)] + result["roots"][1:]
        return bad


class SimGrid(Workload):
    name = "sim-grid"

    def __init__(self, seed: int, n: int = 800, workdir: str = ""):
        self.items = sim_grid_items(seed, n)

    def run(self, item):
        return simulate(item["spec"], item["config"])

    def check(self, item, result):
        return check_run(item["ref"], result)

    def describe(self, item):
        return item["kind"] + (" below onset" if "sigma" in item["ref"] else " above onset")

    def verdicts(self, item, result):
        expected = (ddesim.Verdict.CONVERGED_TO_EQUILIBRIUM if "sigma" in item["ref"]
                    else ddesim.Verdict.LIMIT_CYCLE)
        return [(expected, result.verdict)]

    def perturb(self, item, result):
        if result.verdict is ddesim.Verdict.LIMIT_CYCLE:
            return dataclasses.replace(result, amplitude=result.amplitude * 1.3)
        return dataclasses.replace(result, decay_rate=result.decay_rate * 1.1)


class SimContinuation(Workload):
    name = "sim-continuation"

    def __init__(self, seed: int, n: int = 400, workdir: str = ""):
        self.items = continuation_items(seed, n)

    def run(self, item):
        return ddesim.sweep_bifurcation(item["spec"], item["grid"], item["config"],
                                        continue_history=True)

    def describe(self, item):
        return "supercritical" if item["spec"] is SUPERCRITICAL else "subcritical"

    def check(self, item, result):
        if len(result) != len(item["grid"]):
            return [f"{len(result)} sweep points for a grid of {len(item['grid'])}"]
        return [p for ref, point in zip(item["refs"], result) for p in check_point(ref, point)]

    def verdicts(self, item, result):
        return [(ddesim.Verdict.LIMIT_CYCLE, point[3]) for point in result]

    def perturb(self, item, result):
        eta, amplitude, period, _ = result[0]
        return [(eta, amplitude, period, ddesim.Verdict.UNDETERMINED)] + result[1:]


class CliReadme(Workload):
    name = "cli-readme"
    runs_in_child = True

    def __init__(self, seed: int, n: int = 400, workdir: str = "."):
        self.items = cli_items(seed, n)
        self.workdir = os.path.join(workdir, "cli")
        os.makedirs(self.workdir, exist_ok=True)
        self.config = os.path.join(self.workdir, "run.ini")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(README_CONFIG)
        self.env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        self.expected = None
        self.first_digest: dict = {}

    def argv(self, command: str) -> tuple[list, str]:
        outdir = os.path.join(self.workdir, command)
        shutil.rmtree(outdir, ignore_errors=True)
        return [command, "--config", self.config, "--out", outdir], outdir

    def span_name(self, item) -> str:
        return f"cli.{item['command']}"

    def describe(self, item):
        return item["command"]

    def run(self, item):
        args, outdir = self.argv(item["command"])
        code, _ = run_child([sys.executable, "-c", ENTRY, *args], CLI_TIMEOUT_S, env=self.env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return cli_outcome(item["command"], code, outdir)

    def check(self, item, result):
        if self.expected is None:
            self.expected = library_analysis()
        return check_cli(self.expected, self.first_digest, result)

    def verdicts(self, item, result):
        if result["command"] != "simulate" or result["report"] is None:
            return []
        return [(ddesim.Verdict.LIMIT_CYCLE, ddesim.Verdict(result["report"]["verdict"]))]

    def perturb(self, item, result):
        return dict(result, digest="0" * 64)


WORKLOADS = {w.name: w for w in (AnalysisScan, SimGrid, SimContinuation, CliReadme)}
