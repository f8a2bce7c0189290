"""The traced run: per-layer metrics of one workload, measured from outside.

Phases, each timed by the benchmark:

1. untraced -- the workload's operation with no wrappers installed, once
   to warm up and then OVERHEAD_PAIRS times, alternating with
2. traced   -- the same operation with the tracer's wrappers installed
   (the registry sweep calls ``verify(claim, n, n)`` per (claim, n) so that
   each span carries one (claim, n) id); ``trace.overhead_s`` is the median
   of 2 minus the median of 1, in reference seconds (see ``calibration``),
   and the spans are those of the last traced operation;
3. counted  -- for cli-jobs2 only, the CLI again at ``--jobs 1``: worker
   processes hide their calls, so counts and orbit walks come from here;
4. driver   -- sweeps only: ``verify_all(n, n)`` at jobs=1 and jobs=2 for
   each n, unwrapped, for ``enumerator.driver.speedup.n<k>``;
5. probes   -- batches of calls into perms and engine on the workload's own
   inputs (all of S_8 for the sweeps, the long permutations otherwise), and
   a no-op ``pss count`` for ``cli.startup_s``.

A metric of a layer the workload never enters reads 0.  A traced function
the program no longer has stops the run with a SetupError that names it:
its metrics would otherwise read 0, which looks like a gain.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import statistics
import subprocess
import sys
import time

import workloads
from calibration import scaled
from tracing import Tracer
from workloads import CLI_ARGV, N_MAX, VERIFY_ARGV, SetupError, check_report, report_bytes

BRUTE = ("brute_t_sortable", "brute_machine_sortable", "brute_fixed_points",
         "brute_image", "brute_ord", "sort_histogram", "exact_sortable_counts",
         "insertion_positions_property", "random_agreement_failures")
PASSES = ("west_pass", "s12_closed_form", "s12_simulated", "s21_closed_form",
          "s21_simulated", "run_pass")
TIMED_PASSES = ("s12_closed_form", "s21_closed_form", "s12_simulated", "west_pass")
REPEATS = 5  # each probe batch is timed this many times; the median is kept
WALK = 100   # successor / iter_range steps from each long input
OVERHEAD_PAIRS = 2  # untraced and traced operations timed for trace.overhead_s


def _modules():
    names = ("pss", "pss.perms", "pss.engine", "pss.enumerator", "pss.formulas", "pss.cli")
    return [importlib.import_module(n) for n in names]


def instrument(tracer: Tracer) -> None:
    mods = _modules()
    _, _, engine, enumerator, formulas, cli = mods

    def wrap(mod, name, make):
        fn = getattr(mod, name, None)
        if fn is None:
            raise SetupError(f"{mod.__name__}.{name} is gone; its per-layer metrics "
                             "cannot be measured")
        tracer.install(mods, fn, make(f"{mod.__name__[4:]}.{name}", fn))

    def sweep_size(r):
        return {"enumerator.perms": r.hi - r.lo,
                "enumerator.traversals": (r.hi - r.lo) / math.factorial(r.n)}

    wrap(cli, "main", tracer.span)
    wrap(enumerator, "verify_all", tracer.span)
    wrap(enumerator, "verify", lambda label, fn: tracer.span(
        label, fn, request=lambda claim, n_min, n_max, *a, **k: (claim, n_min, n_max),
        note=lambda report: len({row.n for row in report.rows})))
    for name in BRUTE:
        wrap(enumerator, name, tracer.span)
    wrap(engine, "orbit", lambda label, fn: tracer.span(
        label, fn, note=lambda r: r.tail_length + r.cycle_length))
    wrap(engine, "sorts_in", tracer.span)
    wrap(engine, "apply", tracer.leaf)
    for name, fn in vars(formulas).items():
        if callable(fn) and not name.startswith("_") and getattr(fn, "__module__", None) == formulas.__name__:
            wrap(formulas, name, tracer.leaf)
    for name in PASSES:
        wrap(engine, name, lambda label, fn: tracer.count("engine.passes", fn))
    wrap(enumerator, "iter_range", lambda label, fn: tracer.count(label, fn, sweep_size))


def timed(fn, *args, **kwargs) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def traced(body, ticks: bool) -> tuple[Tracer, float]:
    """Time ``body(tracer)``, in reference seconds, with the tracer's
    wrappers installed."""
    tracer = Tracer()
    try:
        instrument(tracer)
        _, _, wall = scaled(body, tracer, ticks=ticks)
    finally:
        tracer.uninstall()
    return tracer, wall


def trace_overhead(untraced_op, traced_op, ticks: bool) -> tuple[Tracer, float]:
    """After one warm-up, alternate ``untraced_op()`` and ``traced_op(tracer)``;
    return the last tracer and the median traced minus median untraced time."""
    untraced_op()
    plain, wrapped = [], []
    for _ in range(OVERHEAD_PAIRS):
        plain.append(scaled(untraced_op, ticks=ticks)[2])
        tracer, wall = traced(traced_op, ticks)
        wrapped.append(wall)
    return tracer, statistics.median(wrapped) - statistics.median(plain)


def cli_in_process(argv: list[str]) -> tuple[int, int, int]:
    cli = importlib.import_module("pss.cli")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        return 1, 1, 0
    return check_report(out.getvalue().encode())


def verify_per_n() -> tuple[int, int, int]:
    """verify(claim, n, n) for every claim and n, merged back into the
    report of all claims over 1..N_MAX, whose bytes must not change."""
    enumerator = importlib.import_module("pss.enumerator")
    reports = []
    for claim in enumerator.CLAIM_IDS:
        rows = []
        for n in range(1, N_MAX + 1):
            rows += enumerator.verify(claim, n, n, jobs=1).rows
        reports.append(enumerator.VerificationReport(claim, 1, N_MAX, rows))
    return check_report(report_bytes(reports))


def driver_speedup(tracer: Tracer, tally) -> dict:
    """jobs=1 over jobs=2 time of verify_all(n, n) for each n."""
    enumerator = importlib.import_module("pss.enumerator")

    def sweep(n, jobs):
        reports = enumerator.verify_all(n, n, jobs=jobs)
        return len(reports), sum(not r.overall_pass for r in reports), 0

    out = {}
    for n in range(1, N_MAX + 1):
        spans = {}
        for jobs in (1, 2):
            spans[jobs], _ = timed(tracer.region, "enumerator.driver", (n, jobs),
                                   lambda: tally.run(sweep, n, jobs))
        out[f"enumerator.driver.speedup.n{n}"] = spans[1] / spans[2]
    return out


def _median_ns(fn, calls: int) -> float:
    return statistics.median(timed(fn)[0] for _ in range(REPEATS)) / calls * 1e9


def probe_layers(inputs, sweep: bool) -> dict:
    """Per-call cost of perms and engine functions on the workload's inputs."""
    perms = importlib.import_module("pss.perms")
    engine = importlib.import_module("pss.engine")
    enumerator = importlib.import_module("pss.enumerator")
    out = {}
    if sweep:  # walk all of S_8 from the identity
        def walk():
            p = perms.identity(N_MAX)
            while p is not None:
                p = perms.successor(p)

        ranges = [enumerator.RankRange(N_MAX, 0, math.factorial(N_MAX))]
        walked = math.factorial(N_MAX)
    else:  # WALK steps onwards from each input
        def walk():
            for p in inputs:
                for _ in range(WALK):
                    p = perms.successor(p)

        ranges = []
        for p in inputs:
            lo = perms.rank(p)
            ranges.append(enumerator.RankRange(len(p), lo, min(lo + WALK, math.factorial(len(p)))))
        walked = len(inputs) * WALK

    def enumerate_ranges():
        for r in ranges:
            for _ in enumerator.iter_range(r):
                pass

    out["perms.successor.ns_per_perm"] = _median_ns(walk, walked)
    out["enumerator.iter_range.ns_per_perm"] = _median_ns(
        enumerate_ranges, sum(r.hi - r.lo for r in ranges))

    loops = 1 if sweep else 50  # long inputs: enough calls per timed batch

    def batch(fn):
        def run():
            for _ in range(loops):
                for p in inputs:
                    fn(p)
        return run

    calls = loops * len(inputs)
    for name in TIMED_PASSES:
        out[f"engine.{name}.ns_per_call"] = _median_ns(batch(getattr(engine, name)), calls)
    out["engine.apply.ns_per_call"] = _median_ns(
        batch(lambda p: engine.apply(engine.MapId.S12, p)), calls)
    out["engine.apply.dispatch_ns"] = (out["engine.apply.ns_per_call"]
                                       - out["engine.s12_closed_form.ns_per_call"])
    return out


def cli_startup(tally) -> float:
    """Median wall time of a no-op `pss count`; a failing one is a failed check."""
    argv = [sys.executable, "-m", "pss.cli", "count", "--claim", "T4_2", "--n", "3"]
    env = workloads.pss_env()
    times = []
    for _ in range(REPEATS):
        t, proc = timed(subprocess.run, argv, stdout=subprocess.DEVNULL, env=env)
        tally.check(proc.returncode == 0)
        times.append(t)
    return statistics.median(times)


def traced_run(w, tally, seed: int) -> dict:
    sweep = w.name != "long-perms"
    if w.name == "cli-jobs2":
        tracer, overhead_s = trace_overhead(lambda: tally.run(cli_in_process, CLI_ARGV),
                                            lambda t: tally.run(cli_in_process, CLI_ARGV),
                                            ticks=False)
        inner, _ = traced(lambda t: tally.run(cli_in_process, VERIFY_ARGV + ["--jobs", "1"]),
                          ticks=True)
    elif sweep:
        tracer, overhead_s = trace_overhead(lambda: tally.run(w.op),
                                            lambda t: tally.run(verify_per_n), ticks=True)
        inner = tracer
    else:
        tracer, overhead_s = trace_overhead(lambda: tally.run(w.op, 0),
                                            lambda t: tally.run(w.op, 0, t.region),
                                            ticks=True)
        inner = tracer

    values = {"trace.overhead_s": overhead_s,
              "cli.main.self_s": tracer.self_s["cli.main"]}
    claims = importlib.import_module("pss.enumerator").CLAIM_IDS
    for claim in claims:
        values[f"enumerator.verify.{claim}.s"] = sum(
            s.end - s.start for s in tracer.named("enumerator.verify") if s.request[0] == claim)
    for name in BRUTE:
        values[f"enumerator.{name}.s"] = tracer.total_s[f"enumerator.{name}"]
        values[f"enumerator.{name}.calls"] = tracer.calls[f"enumerator.{name}"]

    # counts and walks from the phase that sees every call (jobs=1)
    steps = [s.note for s in inner.named("engine.orbit")]
    groups = sum(s.note for s in inner.named("enumerator.verify"))
    values.update({
        "enumerator.perms_enumerated": inner.calls["enumerator.perms"],
        "enumerator.sweeps": inner.calls["enumerator.iter_range"],
        "enumerator.sweeps_per_claim_n":
            inner.calls["enumerator.traversals"] / groups if groups else 0.0,
        "engine.passes": inner.calls["engine.passes"],
        "engine.orbit.calls": inner.calls["engine.orbit"],
        "engine.orbit.self_s": inner.self_s["engine.orbit"],
        "engine.orbit.ns_per_step":
            inner.total_s["engine.orbit"] / sum(steps) * 1e9 if steps else 0.0,
        "engine.orbit.states_peak": max(steps, default=0),
        "formulas.busy_s": sum(v for k, v in inner.self_s.items() if k.startswith("formulas.")),
    })

    if sweep:
        values.update(driver_speedup(tracer, tally))
    else:
        values.update({f"enumerator.driver.speedup.n{n}": 0.0 for n in range(1, N_MAX + 1)})
    values.update(probe_layers(w.inputs(), sweep))
    values["cli.startup_s"] = cli_startup(tally)

    out = workloads.ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"trace-{w.name}-seed{seed}.jsonl")
    if inner is not tracer:
        inner.write(out / f"trace-{w.name}-seed{seed}-jobs1.jsonl")
    return values
