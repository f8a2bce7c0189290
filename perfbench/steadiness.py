"""Steadiness check: do repeated runs of the same code stay within the bounds?

    python3 perfbench/steadiness.py [--out FILE]

Runs ``run.py`` RUNS times per workload in each of SETS sets, each run with
another seed and ``run_seconds`` from BENCHMARK.json, one run at a time.  For
each end-to-end metric it prints the median, the spread -- the distance
between the first and third quartiles (``statistics.quantiles(values, n=4)``)
as a share of the median, the larger of the two sets' -- and the drift, how
far the second set's median moved from the first's in the metric's worse
direction.  A metric passes when both its spread and its drift are within its
bound in BENCHMARK.json; ``bound/3`` is shown too, as the steadiness to aim
for.  The check fails (exit code 1) when any metric of any workload fails or
any run reports a failed check.  cli-jobs2 is reported in a section of its
own: two workers on a shared two-core machine make it the noisiest workload.
The results, with the Python version and core count, are written as JSON to
``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NOISY = "cli-jobs2"
RUNS = 10
SETS = 2
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, cwd=ROOT, timeout=600, check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if better == "lower" else -change


def report(workload: str, sets: list[list[dict]], metrics: list[dict]) -> tuple[dict, bool]:
    """Print and return one workload's figures, and whether it passes."""
    out = {}
    passed = True
    print(f"\n{workload}  ({len(sets)} sets of {len(sets[0])} runs)")
    print(f"  {'metric':12s} {'median':>12s} {'spread':>8s} {'drift':>8s} {'bound':>6s} "
          f"{'<bound/3':>8s} {'pass':>5s}  unit")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
        medians = [statistics.median(v) for v in per_set]
        spreads = [spread(v) for v in per_set]
        drift = worse_by(medians[0], medians[1], m["better"])
        ok = max(spreads) <= bound and drift <= bound
        passed &= ok
        print(f"  {name:12s} {medians[0]:12.4f} {max(spreads):8.3f} {drift:8.3f} {bound:6.2f} "
              f"{'yes' if max(spreads) < bound / 3 else 'no':>8s} {'yes' if ok else 'NO':>5s}  "
              f"{m['unit']}")
        out[name] = {"unit": m["unit"], "medians": medians, "spreads": spreads,
                     "drift": drift, "bound": bound, "pass": ok, "values": per_set}
    failed = sum(r["failed"] for runs in sets for r in runs)
    attempted = sum(r["attempted"] for runs in sets for r in runs)
    correct = all(r["correct"] for runs in sets for r in runs)
    passed &= correct and failed == 0
    print(f"  correct={correct} failed={failed} attempted={attempted}")
    out["checks"] = {"correct": correct, "failed": failed, "attempted": attempted}
    out["pass"] = passed
    return out, passed


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / ".perfbench" / "steadiness.json"))
    args = ap.parse_args()

    results = {w: [] for w in names}
    seed = FIRST_SEED
    for _ in range(SETS):
        for w in names:
            runs = []
            for _ in range(RUNS):
                runs.append(run_once(w, seed, seconds))
                seed += 1
            results[w].append(runs)

    doc = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "runs": RUNS, "sets": SETS, "seconds": seconds, "workloads": {}}
    passed = True
    # the noisy workload last, in its own section
    for w in sorted(names, key=lambda name: name == NOISY):
        if w == NOISY:
            print("\n-- jobs=2 on a shared 2-core machine: the noisiest workload --")
        doc["workloads"][w], ok = report(w, results[w], spec["end_to_end"])
        passed &= ok
    doc["pass"] = passed
    Path(args.out).parent.mkdir(exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"\npython={doc['python']} nproc={doc['nproc']}; written to {args.out}")
    print("steady: every metric within its bound" if passed
          else "NOT steady: a metric is outside its bound, or a check failed")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
