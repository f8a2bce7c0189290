"""The three benchmark workloads: inputs, one operation, and its checks.

Every workload is a closed loop: one caller makes an operation, waits for its
verified answer, then makes the next.  An operation returns
``(attempted, failed, perms)``: checks made, checks failed, and permutations
checked.  A failed check is counted, never dropped; an exception counts as a
failed operation in the caller.

Run as a script (``python3 perfbench/workloads.py <workload> <seed>``) this
module does a workload's set-up and exits; the benchmark times such runs as
``setup_s``.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

N_MAX = 8
CLI_JOBS = 2
VERIFY_ARGV = ["verify", "--claim", "all", "--n-min", "1", "--n-max", str(N_MAX),
               "--format", "json"]
CLI_ARGV = VERIFY_ARGV + ["--jobs", str(CLI_JOBS)]

# sha256 of the JSON report of every claim over n = 1..8, as `pss verify
# --claim all --format json` prints it.  Recorded at the seed commit; the
# report bytes are a project invariant (identical for every worker count).
REPORT_SHA256 = "39916f082924bceb884f31b23372ff7b45dc3ea14ca58c89c1c4fa824084d95f"

# long-perms: one permutation per rung of a log-uniform ladder of lengths,
# 16 .. 1000, so every batch carries the same mix of short and long inputs
# and only the permutations themselves depend on the seed.  Orbit cost grows
# as n * tail ~ n^2, so the top rungs dominate; twelve rungs keep any one
# input's tail from setting the time of a batch.
LADDER = tuple(round(16 * (1000 / 16) ** (i / 11)) for i in range(12))
BATCHES = 16
AGREEMENT_COUNT = 500


class SetupError(Exception):
    """The checkout does not hold a pss source tree to benchmark."""


def pss_env() -> dict:
    """Environment for pss subprocesses: this checkout's sources, and the
    default brute-force guard whatever the caller's environment says."""
    env = dict(os.environ)
    env.pop("PSS_BRUTE_GUARD", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_pss():
    """Import pss from this checkout's ``src`` and nowhere else."""
    if not (SRC / "pss" / "__init__.py").is_file():
        raise SetupError(f"no pss sources under {SRC}")
    os.environ.pop("PSS_BRUTE_GUARD", None)
    sys.path.insert(0, str(SRC))
    pss = importlib.import_module("pss")
    if Path(pss.__file__).resolve().parent != SRC / "pss":
        raise SetupError(f"imported pss from {pss.__file__}, not from {SRC}")
    return pss


def report_bytes(reports) -> bytes:
    """The bytes `pss verify --claim all --format json` prints for these
    reports."""
    doc = {
        "reports": [r.to_dict() for r in reports],
        "overall_pass": all(r.overall_pass for r in reports),
    }
    return (json.dumps(doc, indent=2) + "\n").encode()


def check_report(text: bytes) -> tuple[int, int, int]:
    """Checks on a JSON report of all claims: each report passes, and the
    bytes match the recorded digest.  Also returns the sweep size, the sum
    of n! over the (claim, n) groups of the report."""
    doc = json.loads(text)
    reports = doc["reports"]
    failed = sum(1 for r in reports if not r["overall_pass"])
    failed += hashlib.sha256(text).hexdigest() != REPORT_SHA256
    groups = {(r["claim"], row["n"]) for r in reports for row in r["rows"]}
    return len(reports) + 1, failed, sum(math.factorial(n) for _, n in groups)


class RegistrySweep:
    """verify_all(1, 8, jobs=1) in-process: every claim, single-threaded."""

    name = "registry-sweep"
    workers = 1

    def setup(self, seed: int) -> None:
        import_pss()
        self.enumerator = importlib.import_module("pss.enumerator")

    def op(self) -> tuple[int, int, int]:
        reports = self.enumerator.verify_all(1, N_MAX, jobs=1)
        return check_report(report_bytes(reports))

    def inputs(self):
        """S_8, the largest input the sweep enumerates."""
        return list(itertools.permutations(range(1, N_MAX + 1)))


class CliJobs2(RegistrySweep):
    """The same problem through `pss verify ... --jobs 2` as a subprocess."""

    name = "cli-jobs2"
    workers = CLI_JOBS

    def setup(self, seed: int) -> None:
        super().setup(seed)
        self.cli = importlib.import_module("pss.cli")
        self.cli.build_parser().parse_args(CLI_ARGV)
        self.env = pss_env()

    def op(self) -> tuple[int, int, int]:
        proc = subprocess.run(
            [sys.executable, "-m", "pss.cli", *CLI_ARGV],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=self.env,
            cwd=ROOT, timeout=150,
        )
        if proc.returncode != 0:
            return 1, 1, 0
        return check_report(proc.stdout)


class LongPerms:
    """Few long random permutations: deep orbits, no enumeration, no pool."""

    name = "long-perms"
    workers = 1

    def setup(self, seed: int) -> None:
        import_pss()
        self.engine = importlib.import_module("pss.engine")
        self.formulas = importlib.import_module("pss.formulas")
        self.enumerator = importlib.import_module("pss.enumerator")
        rng = random.Random(seed)
        self.batches = []
        for _ in range(BATCHES):
            batch = []
            for n in LADDER:
                values = list(range(1, n + 1))
                rng.shuffle(values)
                batch.append(tuple(values))
            self.batches.append((batch, rng.randrange(2**31)))
        self.done = 0

    def inputs(self):
        return self.batches[0][0]

    def op(self, batch_index=None, region=None) -> tuple[int, int, int]:
        """Check one batch.  ``region(name, request, body)`` wraps each
        input's checks in a span of the traced run."""
        if batch_index is None:
            batch_index = self.done % BATCHES
            self.done += 1
        batch, agreement_seed = self.batches[batch_index]
        attempted = failed = 0
        for i, p in enumerate(batch):
            if region is None:
                results = self.check(p)
            else:
                results = region("long-perms.input", i, lambda p=p: self.check(p))
            attempted += len(results)
            failed += results.count(False)
        bad = self.enumerator.random_agreement_failures(
            AGREEMENT_COUNT, LADDER[-1], seed=agreement_seed, jobs=1)
        attempted += 2 * AGREEMENT_COUNT
        failed += bad
        return attempted, failed, 2 * len(batch) + AGREEMENT_COUNT

    def check(self, p) -> list[bool]:
        """Oracles that share no code path with the function they check."""
        e, n = self.engine, len(p)
        M = e.MapId
        checks = []
        # closed form vs simulated stack vs the generic pass with the dotted
        # push predicate, and the west pass vs the generic classical stack
        s12 = e.s12_closed_form(p)
        s21 = e.s21_closed_form(p)
        checks.append(
            s12 == e.s12_simulated(p)
            == e.run_pass(p, e.dotted_policy(e.DottedPattern(12, 1)))[0])
        checks.append(
            s21 == e.s21_simulated(p)
            == e.run_pass(p, e.dotted_policy(e.DottedPattern(21, 2)))[0])
        checks.append(e.west_pass(p) == e.run_pass(p, e.west_policy())[0])
        # complement identity s21 = c o s12 o c, with c(v) = n + 1 - v
        comp = lambda q: tuple(n + 1 - v for v in q)  # noqa: E731
        checks.append(s21 == comp(e.s12_closed_form(comp(p))))
        # s12 sorts within n-1 passes, and its orbit ends on the identity;
        # s21 never sorts a permutation of length >= 2; the 12 machine sorts
        # within floor(n/2) passes and west within n-1
        rep = e.orbit(M.S12, p)
        checks.append(rep.reaches_identity_at == rep.tail_length <= n - 1
                      and rep.cycle_length == 1)
        checks.append(e.orbit(M.S21, p).reaches_identity_at is None)
        checks.append(e.sorts_in(M.MACHINE12, p, self.formulas.machine12_bound(n)) is not None)
        checks.append(e.sorts_in(M.WEST, p, n - 1) is not None)
        # the rotation 2 3 ... n 1 needs exactly n-1 passes of s12
        rotation = tuple(range(2, n + 1)) + (1,)
        checks.append(e.sorts_in(M.S12, rotation, n - 1) == n - 1)
        return checks


WORKLOADS = {w.name: w for w in (RegistrySweep, CliJobs2, LongPerms)}


if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    try:
        WORKLOADS[workload]().setup(seed)
    except SetupError as exc:
        print(exc, file=sys.stderr)
        sys.exit(2)
