"""pss benchmark: one workload, one run, every metric by name with its unit.

    python3 perfbench/run.py --workload registry-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it repeats the workload's operation until ``--seconds``
have passed and reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it makes one traced run and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is the
JSON result.  Exit code 2 means the run could not start or measure what
BENCHMARK.json names (for example, no pss sources in the checkout, or a
traced function the program no longer has), and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibration import scaled  # noqa: E402

SETUP_PROBES = 9  # set-up is timed this many times per run, after one warm-up


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def time_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall and reference times of fresh interpreters that do the workload's
    set-up (import pss, build the inputs or parse the CLI arguments) and exit."""
    argv = [sys.executable, str(HERE / "workloads.py"), workload, str(seed)]
    raw, ref = [], []
    for i in range(SETUP_PROBES + 1):
        proc, wall, seconds = scaled(
            subprocess.run, argv, ticks=False, env=workloads.pss_env(), cwd=workloads.ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        if proc.returncode != 0:
            raise workloads.SetupError(proc.stderr.decode().strip() or "set-up probe failed")
        if i:  # the first run fills the bytecode cache
            raw.append(wall)
            ref.append(seconds)
    return raw, ref


def peak_rss_mb() -> float:
    """Peak resident set of the largest process in the run: this one, or
    the largest child or grandchild it waited for (kilobytes on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


class Tally:
    """Checks attempted and failed across the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, op, *args, **kwargs):
        """Call ``op``, count its checks; an exception is one failed check.
        Returns the permutations it checked (0 when it raised)."""
        try:
            attempted, failed, perms = op(*args, **kwargs)
        except Exception:  # a crash is a failed operation, reported, never fatal
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return 0
        self.attempted += attempted
        self.failed += failed
        return perms

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def end_to_end(w, seconds: float, tally: Tally, setup: tuple[list, list]) -> dict:
    raw, ref, perms = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        # a single-worker operation does its work in this process
        checked, wall, seconds_ref = scaled(tally.run, w.op, ticks=w.workers == 1)
        raw.append(wall)
        ref.append(seconds_ref)
        perms.append(checked)
        if time.perf_counter() >= deadline:
            break
    base = statistics.median(perms)
    values = {}
    for name, (raw_times, ref_times), count in (("wall_s", (raw, ref), "operations"),
                                                ("setup_s", setup, "set-ups")):
        q1, med, q3 = quartiles(ref_times)
        values[name] = med
        print(f"{name:12s} {med:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}; {len(ref_times)} {count}; "
              f"raw wall median {statistics.median(raw_times):.4f} s)")
    values["perms_per_s"] = base / values["wall_s"]
    print(f"perms_per_s  {values['perms_per_s']:.1f} 1/s  "
          f"(base: {base:g} permutations checked per operation)")
    values["peak_rss_mb"] = peak_rss_mb()
    return values


def pin_to_one_cpu() -> None:
    """Keep a single-threaded run, its calibration and its set-up probes on
    one core: the two cores of a shared host drift at different times."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
        w = workloads.WORKLOADS[args.workload]()
        if not args.trace:
            if w.workers == 1:
                pin_to_one_cpu()
            setup = time_setup(args.workload, args.seed)
        w.setup(args.seed)
    except (OSError, ValueError, subprocess.SubprocessError, workloads.SetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"# pss perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()}")
    tally = Tally()
    if args.trace:
        import layers
        try:
            values = layers.traced_run(w, tally, args.seed)
        except workloads.SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        wanted = spec["per_layer"]
    else:
        values = end_to_end(w, args.seconds, tally, setup)
        wanted = spec["end_to_end"]
    ratio = tally.failed / tally.attempted
    print(f"peak_rss_mb  {peak_rss_mb():.2f} MB")
    print(f"fail_ratio   {ratio:g} ratio  ({tally.failed} failed / {tally.attempted} attempted)")

    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        print(f"error: metrics do not match BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 2
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
