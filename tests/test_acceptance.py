"""Acceptance suite: every enumeration and image claim, checked exactly.

Each criterion prints one PASS/FAIL line (visible with pytest -s).  All
comparisons are exact equality; there are no tolerances to tune.
"""

import json
import math

import pytest

from pss import formulas
from pss.engine import MapId, west_pass, west_recursive
from pss.enumerator import (
    brute_fixed_points,
    brute_image,
    brute_machine_sortable,
    brute_ord,
    exact_sortable_counts,
    insertion_positions_property,
    random_agreement_failures,
    sort_histogram,
    verify,
    verify_all,
)
from pss.perms import all_perms, identity

JOBS = 1  # reference mode; worker-count independence is criterion 10


def report(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_01_t_sortable_counts_s12():
    """1 <= n <= 9, 1 <= t <= n: sortable counts match n! / t!(t+1)^(n-t)."""
    ok = True
    for n in range(1, 10):
        buckets, stuck = sort_histogram(MapId.S12, n, n, jobs=JOBS)
        ok &= stuck == 0
        for t in range(1, n + 1):
            ok &= sum(buckets[: t + 1]) == formulas.count_t_sortable_s12(n, t)
    report("1 (t-sortable counts, base-12 map)", ok)


def test_criterion_02_t_sortable_counts_s21():
    """Base-21 map: only the singleton is ever t-sortable, t up to 2n."""
    ok = True
    for n in range(1, 10):
        counts = exact_sortable_counts(MapId.S21, n, 2 * n, jobs=JOBS)
        expected = 1 if n == 1 else 0
        ok &= all(counts[t] == expected for t in range(1, 2 * n + 1))
    report("2 (base-21 map never sorts)", ok)


def test_criterion_03_machine21_sortable():
    """Machine-sortable set equals the valley-run characterization and has
    size 2^(n-1)."""
    ok = True
    for n in range(1, 10):
        ok &= verify("L4_1", n, n, jobs=JOBS).overall_pass
        ok &= brute_machine_sortable(MapId.MACHINE21, n, jobs=JOBS) == 2 ** (n - 1)
    report("3 (21-machine sortable = 2^(n-1))", ok)


def test_criterion_04_machine21_fixed_points():
    """Fixed points match the structural shape predicate and the binomial
    recurrence (anchors a2=1, a3=2, a5=9)."""
    assert [formulas.count_machine21_fixed_points(k) for k in (2, 3, 5)] == [1, 2, 9]
    ok = True
    for n in range(1, 10):
        ok &= verify("L4_3", n, n, jobs=JOBS).overall_pass
        count, _ = brute_fixed_points(MapId.MACHINE21, n, jobs=JOBS)
        ok &= count == formulas.count_machine21_fixed_points(n)
    report("4 (21-machine fixed points)", ok)


def test_criterion_05_highly_minimally_sorted():
    """Exactly-(n-1)-sort permutations number (n-1)!, within-(n-2) number
    (n-1)(n-1)!, and the brute order of S_n is n-1."""
    ok = True
    for n in range(2, 10):
        buckets, _ = sort_histogram(MapId.S12, n, n, jobs=JOBS)
        ok &= buckets[n - 1] == formulas.count_min_sorted_s12(n)
        ok &= sum(buckets[: n - 1]) == formulas.count_highly_sorted_s12(n)
        ok &= brute_ord(MapId.S12, n, jobs=JOBS) == n - 1
    report("5 (highly/minimally sorted + ord)", ok)


def test_criterion_06_s12_terminal_image():
    """(n-2)-fold base-12 image of S_n is {identity, first-two-swapped}."""
    ok = True
    for n in range(4, 10):
        ok &= brute_image(MapId.S12, n, n - 2, jobs=JOBS) == formulas.image_s12_power(n)
    report("6 (base-12 terminal image)", ok)


def test_criterion_07_machine12_bound_image_witnesses():
    """Everything sorts within floor(n/2) 12-machine passes; the image one
    step earlier is the 2-set (even) or 5-set (odd); witness families land on
    their claimed images for all valid n <= 13."""
    ok = True
    for n in range(4, 10):
        ok &= verify("L5_3", n, n, jobs=JOBS).overall_pass
        image = brute_image(MapId.MACHINE12, n, n // 2 - 1, jobs=JOBS)
        ok &= image == formulas.image_machine12(n)
    for n in range(4, 14):
        families = ["even"] if n % 2 == 0 else ["cycle", "pi213", "pi132", "pi312"]
        for fam in families:
            _, target, actual = formulas.machine12_witness_check(fam, n)
            ok &= target == actual
    report("7 (12-machine bound, image, witnesses)", ok)


def test_criterion_08_oracle_agreement():
    """Dot variants, closed vs simulated, and the two west oracles agree
    pointwise for n <= 8; closed vs simulated also agrees on 1e5 random
    permutations of length up to 1000."""
    ok = True
    for claim in ("RED", "P3_1", "P3_5"):
        ok &= verify(claim, 1, 8, jobs=JOBS).overall_pass
    for n in range(1, 9):
        ok &= all(west_pass(p) == west_recursive(p) for p in all_perms(n))
    ok &= random_agreement_failures(100_000, 1000, seed=2024, jobs=JOBS) == 0
    report("8 (oracle agreement, exhaustive + random)", ok)


def test_criterion_09_insertion_structure():
    """Deleting the inserted 1 commutes with the base-12 pass, and every
    t-sortable parent has exactly t+1 t-sortable insertions."""
    ok = verify("L3_3", 2, 8, jobs=JOBS).overall_pass
    for n in range(2, 9):
        for t in range(1, n):
            ok &= insertion_positions_property(n, t)
    report("9 (insertion commutation + positions)", ok)


def test_criterion_10_worker_determinism():
    """Full-registry verification output is byte-identical across worker
    counts; S_7 and S_8 are more than 4096 permutations, so at 4 jobs pools
    sweep them, S_7 for the claims at 7 that compare two things on each
    permutation and for the orbit and image claims at 8."""
    docs = {}
    for jobs in (1, 4):
        reports = verify_all(1, 8, jobs=jobs)
        docs[jobs] = json.dumps([r.to_dict() for r in reports], sort_keys=True)
    ok = docs[1] == docs[4] and all(r.overall_pass for r in reports)
    report("10 (determinism across worker counts)", ok)
