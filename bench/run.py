#!/usr/bin/env python3
"""The delaybif benchmark.

Run from the repository root; the library is imported from ``src/``:

    python3 bench/run.py --workload analysis-scan --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1        # every workload in turn
    python3 bench/run.py --self-test

One invocation runs one seeded workload (see ``workloads.py``) as a single
closed-loop client: the next item starts only when the previous one has
finished, and at most one child process runs at a time.  Every item passes
through a correctness gate; an item fails if it misses its gate or raises
anything but the library giving up on its input (see ``refused`` in
``workloads.py``), which leaves the item unanswered.

``--trace 0`` measures the end-to-end metrics for ``--seconds``:

* ``setup_s``: median over five fresh interpreters of the wall time from
  process start until ``import delaybif`` has returned and the first item has
  finished (for ``cli-readme``, the first item is itself that process);
* ``throughput_per_s``, ``item_p50_ms``, ``item_p90_ms``: items per second of
  item time, and the latency percentiles of the items;
* ``ok_ratio``: items that were answered and passed their gate over items
  attempted;
* ``peak_rss_mb``: peak resident memory of the fresh processes timed in
  ``setup_s``, which all repeat the same work.  The measuring process's own
  peak is not used: on ``analysis-scan`` it is set by the rare model whose
  root search samples 2^15 boundary points, and it jumped between about 55
  and 70 MB from seed to seed.

Each of these times is scaled to a reference machine speed (see ``speed.py``):
work in this process by a reference task timed before and after it, a child
process by an interpreter importing numpy, started just before it.

``--trace 1`` gives the per-layer metrics instead, as raw wall times.  It
first times each layer on the README configuration (the probes), so that
layers the workload's items do not reach are measured too, then runs every
item twice for the rest of ``--seconds``, once untraced and once traced;
``trace.overhead_ratio`` is the ratio of their summed item times.  A metric
named after a function comes from the spans of the traced items when there
are any, else from the probes.  ``busy`` metrics are self time per traced
item.  The spans are written as JSON lines to
``.bench_work/trace-<workload>-<seed>.jsonl``.  The ``known_defects`` metrics
count the failing items of two fixed, seed-independent sets of inputs on
which the library is known to fail (see ``workloads.known_defects``); they
are run untraced, outside the measured items.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is true
when every attempted item went through its gate and a deliberately perturbed
copy of a passing result tripped that gate in the same run; items that fail
are counted in ``failed`` and ``ok_ratio``, never dropped, and unanswered
items in ``ok_ratio``.  The lines before it name the environment and the
quartiles of the raw item latencies.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time

from spans import COUNT, END, ERROR, ITEM, NAME, START, Tracer, self_times
from speed import Speed, run_child, startup_scale

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 5
SELF_CHECK_ITEMS = 20


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg": list(os.getloadavg()),
            "commit": git_commit(), "platform": platform.platform()}


def quantile(values: list, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class Phase:
    """Outcome of running items back to back."""

    def __init__(self):
        self.latencies: list[float] = []
        self.intervals: list[tuple[float, float]] = []
        self.child_scales: list = []
        self.failed = 0
        self.unanswered = 0
        self.problems: list = []
        self.refused: list = []
        self.verdicts: list = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_item(w, item, phase: Phase, tracer=None, speed=None) -> None:
    """Run one item, time it, gate it and record the outcome in phase."""
    error = result = None
    if speed is not None:
        if w.runs_in_child:
            phase.child_scales.append(startup_scale())
        else:
            speed.mark()
            phase.child_scales.append(None)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = w.run(item)
        else:
            tracer.item = item["id"]
            with tracer.span(w.span_name(item)):
                result = w.run(item)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        if w.refused(exc):
            phase.unanswered += 1
            phase.refused.append((w.describe(item), [error]))
            return
    finally:
        t1 = time.perf_counter()
        phase.latencies.append(t1 - t0)
        phase.intervals.append((t0, t1))
        if tracer is not None:
            tracer.item = None
    problems = [error] if error else gate(w, item, result)
    if error is None:
        phase.verdicts += w.verdicts(item, result)
    if problems:
        phase.failed += 1
        phase.problems.append((w.describe(item), problems))


def run_phase(w, deadline: float, speed: Speed) -> Phase:
    """Run items from the start of the list until the deadline."""
    phase = Phase()
    k = 0
    while time.perf_counter() < deadline:
        run_item(w, w.items[k % len(w.items)], phase, speed=speed)
        k += 1
    speed.mark(force=True)
    return phase


def run_paired(w, deadline: float, tracer) -> tuple[Phase, Phase]:
    """Run every item once untraced and once traced, alternating which goes
    first, so that drift in machine speed cancels out of the overhead ratio."""
    plain, traced = Phase(), Phase()
    k = 0
    while time.perf_counter() < deadline:
        item = w.items[k % len(w.items)]
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                try:
                    run_item(w, item, traced, tracer)
                finally:
                    tracer.uninstall()
            else:
                run_item(w, item, plain)
        k += 1
    return plain, traced


def gate(w, item, result) -> list:
    try:
        return w.check(item, result)
    except Exception as exc:
        return [f"gate could not read the result: {type(exc).__name__}: {exc}"]


def self_check(w) -> str:
    """Perturb one passing result and confirm its gate trips; '' when it does."""
    for item in w.items[:SELF_CHECK_ITEMS]:
        try:
            result = w.run(item)
        except Exception:
            continue
        if gate(w, item, result):
            continue
        if gate(w, item, w.perturb(item, result)):
            return ""
        return f"perturbed result of item {item['id']} passed the gate"
    return f"no passing item among the first {SELF_CHECK_ITEMS}"


def setup_seconds(name: str, seed: int, w) -> float:
    """Median wall time of fresh interpreters up to the end of the first item,
    at reference speed.

    Process start and imports are scaled like a child process; the first
    item, which the child times itself, like an item of the measured phase.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        scale = startup_scale()
        t0 = time.perf_counter()
        if w.runs_in_child:
            w.run(w.items[0])
            item_s = item_scale = 0.0
        else:
            code, out = run_child([sys.executable, os.path.abspath(__file__), "--setup-child",
                                   "--workload", name, "--seed", str(seed)],
                                  120, cwd=ROOT, stdout=subprocess.PIPE)
            if code:
                raise RuntimeError(f"set-up child exited with {code}")
            item_s, item_scale = json.loads(out)
        wall = time.perf_counter() - t0
        times.append((wall - item_s) * scale + item_s * item_scale)
    return statistics.median(times)


def end_to_end(setup_s: float, peak_mb: float, phase: Phase, speed: Speed) -> dict:
    scaled = [lat * (child or speed.scale(t0, t1)) for lat, (t0, t1), child
              in zip(phase.latencies, phase.intervals, phase.child_scales)]
    ms = sorted(x * 1e3 for x in scaled)
    return {"setup_s": setup_s,
            "throughput_per_s": len(scaled) / sum(scaled),
            "item_p50_ms": statistics.median(ms),
            "item_p90_ms": quantile(ms, 0.90),
            "ok_ratio": (phase.attempted - phase.failed - phase.unanswered) / phase.attempted,
            "peak_rss_mb": peak_mb}


def import_ms() -> float:
    code = ("import time; t = time.perf_counter(); import delaybif.cli; "
            "print((time.perf_counter() - t) * 1e3)")
    env = dict(os.environ, PYTHONPATH=SRC)
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                             capture_output=True, text=True).stdout)
        for _ in range(SETUP_REPEATS))


def probes(tracer, workloads) -> tuple[list, int]:
    """One traced pass of every layer on the README configuration.

    Returns the (expected, measured) verdicts of the simulation probe and the
    total artifact bytes of the four subcommands.
    """
    from delaybif import cli, ddesim
    tracer.item = "probe"
    try:
        workloads.analyze(workloads.SUPERCRITICAL, 1.0)
        m = workloads.simulate(workloads.SUPERCRITICAL, ddesim.SimConfig(
            eta=1.05, x_init=0.9, t_end=60.0))
        cfg = ddesim.SimConfig(eta=1.0, x_init=1.1, t_end=60.0,
                               dt=workloads.SUPERCRITICAL.tau / 50.0)
        ddesim.sweep_bifurcation(workloads.SUPERCRITICAL, [1.02, 1.03], cfg,
                                 continue_history=True)
        runner = workloads.CliReadme(0, 4, os.path.join(WORK, "probe"))
        size = 0
        for command in workloads.COMMANDS:
            with tracer.span(f"cli.{command}"):
                out = runner.run({"command": command})
            size += out["bytes"]
            argv, _ = runner.argv(command)
            with contextlib.redirect_stdout(io.StringIO()), tracer.span(f"cli.{command}.main"):
                cli.main(argv)
    finally:
        tracer.item = None
    return [(ddesim.Verdict.LIMIT_CYCLE, m.verdict)], size


def layer_metrics(tracer, n_items: int, verdicts: list, cli_import_ms: float,
                  artifact_bytes: int, overhead: float, defects: dict) -> dict:
    spans = tracer.spans
    own = self_times(spans)
    traced = {}   # name -> (item span indices, probe span indices)
    for i, rec in enumerate(spans):
        if rec[ITEM] is not None:
            traced.setdefault(rec[NAME], ([], []))[rec[ITEM] == "probe"].append(i)

    def pick(name):
        found = traced.get(name, ([], []))
        return found[0] or found[1]

    def durations(name, scale):
        return sorted((spans[i][END] - spans[i][START]) * scale for i in pick(name))

    def p50(name, scale):
        return statistics.median(durations(name, scale))

    def busy(prefix, scale):
        names = [n for n in traced if n == prefix or n.startswith(prefix + ".")]
        from_items = [i for n in names for i in traced[n][0]]
        if from_items:
            return sum(own[i] for i in from_items) * scale / n_items
        return sum(own[i] for n in names for i in traced[n][1]) * scale

    roots = pick("chareq.rightmost_roots")
    root_counts = [spans[i][COUNT] for i in roots if spans[i][COUNT] is not None]
    integ = pick("ddesim.integrate")
    steps = sum(spans[i][COUNT] or 0 for i in integ)
    integ_s = sum(spans[i][END] - spans[i][START] for i in integ)
    roots_ms = durations("chareq.rightmost_roots", 1e3)
    out = {
        "chareq.rightmost_roots.calls": len(roots),
        "chareq.rightmost_roots.p50_ms": statistics.median(roots_ms),
        "chareq.rightmost_roots.p90_ms": quantile(roots_ms, 0.90),
        "chareq.rightmost_roots.busy_s": busy("chareq.rightmost_roots", 1.0),
        "chareq.rightmost_roots.failures": sum(spans[i][ERROR] is not None for i in roots),
        "chareq.rightmost_roots.roots_returned": statistics.fmean(root_counts),
        "chareq.critical_eta.p50_us": p50("chareq.critical_eta", 1e6),
        "convergence.rate_of_convergence.p50_us": p50("convergence.rate_of_convergence", 1e6),
        "convergence.tau_star.p50_us": p50("convergence.tau_star", 1e6),
        "convergence.busy_ms": busy("convergence", 1e3),
        "hopf.mu2_center_manifold.p50_us": p50("hopf.mu2_center_manifold", 1e6),
        "hopf.mu2_closed_form.p50_us": p50("hopf.mu2_closed_form", 1e6),
        "hopf.busy_ms": busy("hopf", 1e3),
        "models.equilibrium.p50_us": p50("models.equilibrium", 1e6),
        "models.taylor_coefficients.p50_us": p50("models.taylor_coefficients", 1e6),
        "models.busy_ms": busy("models", 1e3),
        "ddesim.integrate.calls": len(integ),
        "ddesim.integrate.steps": steps,
        "ddesim.integrate.us_per_step": integ_s * 1e6 / steps,
        "ddesim.integrate.busy_s": busy("ddesim.integrate", 1.0),
        "ddesim.integrate.divergences": sum(spans[i][ERROR] == "Divergence"
                                            for i in integ),
        "ddesim.metrics.p50_ms": p50("ddesim.metrics", 1e3),
        "ddesim.sweep_bifurcation.p50_s": p50("ddesim.sweep_bifurcation", 1.0),
        "ddesim.verdict_agreement": (sum(e is g for e, g in verdicts) / len(verdicts)),
        "cli.import_ms": cli_import_ms,
    }
    for command in ("analyze", "sweep", "simulate", "roots"):
        out[f"cli.{command}.p50_ms"] = p50(f"cli.{command}", 1e3)
    for command in ("analyze", "sweep", "simulate", "roots"):
        out[f"cli.{command}.main_ms"] = p50(f"cli.{command}.main", 1e3)
    out["cli.artifact_bytes"] = artifact_bytes
    out["trace.overhead_ratio"] = overhead
    out.update(defects)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that a perturbed result trips every workload's gate")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "delaybif", "__init__.py")):
        sys.stderr.write(f"error: no delaybif package under {SRC}; "
                         "run from a full checkout of the repository\n")
        return 2
    # one CPU for this process and its children: the CPUs of a shared host
    # drift apart in speed, so a reference task timed on one did not scale
    # work that ran on another
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    import workloads

    os.makedirs(WORK, exist_ok=True)
    if args.self_test:
        bad = 0
        for name, cls in workloads.WORKLOADS.items():
            why = self_check(cls(0, SELF_CHECK_ITEMS, WORK))
            print(f"{name}: {'perturbed result tripped the gate' if not why else 'FAILED: ' + why}")
            bad += bool(why)
        return 1 if bad else 0
    if args.workload is None:
        # every workload in turn, each in a fresh process so that its peak
        # memory and imports are its own
        for name in workloads.WORKLOADS:
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], cwd=ROOT, check=True)
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_child:
        w = cls(args.seed, 1, WORK)
        speed = Speed(w.speed_task)
        speed.mark()
        t0 = time.perf_counter()
        w.run(w.items[0])
        t1 = time.perf_counter()
        speed.mark(force=True)
        print(json.dumps([t1 - t0, speed.scale(t0, t1)]))
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = environment()
    w = cls(args.seed, workdir=WORK)
    why_unsound = self_check(w)
    if args.trace == 0:
        setup_s = setup_seconds(args.workload, args.seed, w)
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        speed = Speed(w.speed_task)
        phase = run_phase(w, time.perf_counter() + args.seconds, speed)
        metrics = end_to_end(setup_s, peak_mb, phase, speed)
    else:
        tracer = Tracer()
        t0 = time.perf_counter()
        tracer.install()
        try:
            probe_verdicts, artifact_bytes = probes(tracer, workloads)
        finally:
            tracer.uninstall()
        cli_import = import_ms()
        defects = workloads.known_defects()
        deadline = t0 + max(args.seconds, time.perf_counter() - t0 + 2.0)
        phase, traced = run_paired(w, deadline, tracer)
        tracer.write(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.jsonl"))
        metrics = layer_metrics(tracer, traced.attempted, traced.verdicts or probe_verdicts,
                                cli_import, artifact_bytes, sum(traced.latencies) / sum(phase.latencies),
                                defects)
        phase.failed += traced.failed
        phase.unanswered += traced.unanswered
        phase.problems += traced.problems
        phase.refused += traced.refused
        phase.latencies += traced.latencies

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    ms = sorted(x * 1e3 for x in phase.latencies)
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{phase.attempted} items, {phase.failed} failed, {phase.unanswered} "
          "unanswered; item latency "
          f"p25 {quantile(ms, 0.25):.3f} ms, p50 {statistics.median(ms):.3f} ms, "
          f"p75 {quantile(ms, 0.75):.3f} ms, {sum(x > quantile(ms, 0.9) for x in ms)} "
          "items beyond p90")
    for label, found in (("failed", phase.problems), ("unanswered", phase.refused)):
        kinds: dict = {}
        for where, problems in found:
            key = f"{where}: {re.sub(r'[-+]?[0-9][-+0-9.e]*', '#', problems[0])[:80]}"
            kinds[key] = kinds.get(key, 0) + 1
        for key, n in sorted(kinds.items(), key=lambda kv: -kv[1]):
            print(f"{label}: {n} x {key}")
    if why_unsound:
        print(f"gate self-check: {why_unsound}")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": not why_unsound, "attempted": phase.attempted, "failed": phase.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
