import itertools
import json
import math
import multiprocessing
import operator
import os
import random
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

from pss import engine, enumerator, formulas
from pss.engine import (
    DottedPattern,
    MapId,
    apply,
    dotted_policy,
    iterate,
    orbit,
    run_pass,
    s12_simulated,
    s21_simulated,
    west_recursive,
)
from pss.enumerator import (
    CLAIM_IDS,
    RankRange,
    brute_fixed_points,
    brute_image,
    brute_machine_sortable,
    brute_ord,
    brute_t_sortable,
    exact_sortable_counts,
    insertion_positions_property,
    iter_range,
    random_agreement_failures,
    sort_histogram,
    split_ranges,
    verify,
    verify_all,
)
from pss import GuardExceeded
from pss.perms import (
    PermutationError, all_perms, format_perm, identity, inc, ins, peak_runs, rank, successor,
    unrank, valley_runs,
)
from walk_oracle import dict_walk, state_at, synthetic_map


def successor_walk(n, lo, hi):
    """Ranks lo..hi-1 of S_n by unranking lo and stepping ``successor``:
    the oracle for ``iter_range``."""
    out, p = [], unrank(n, lo) if lo < hi else None
    for _ in range(hi - lo):
        out.append(p)
        p = successor(p)
    return out


CLAIMS = (
    "RED", "P3_1", "P3_5", "L3_3", "T3_4", "T3_6", "L4_1", "T4_2",
    "L4_3", "T4_4", "C5_1_min", "C5_1_high", "T5_2", "L5_3", "T5_4",
)


class TestRangeIteration:
    def test_full_range_is_S3(self):
        assert list(iter_range(RankRange(3, 0, 6))) == list(all_perms(3))

    def test_single_rank(self):
        assert list(iter_range(RankRange(3, 2, 3))) == [(2, 1, 3)]
        assert split_ranges(0, 4) == [RankRange(0, 0, 1)]
        assert list(iter_range(RankRange(0, 0, 1))) == [()]

    def test_partial_range(self):
        assert list(iter_range(RankRange(3, 1, 4))) == [(1, 3, 2), (2, 1, 3), (2, 3, 1)]

    @pytest.mark.parametrize("parts", [1, 2, 3, 7, 24, 100])
    def test_partition_covers_once(self, parts):
        ranges = split_ranges(4, parts)
        assert ranges[0].lo == 0 and ranges[-1].hi == 24
        visited = [p for r in ranges for p in iter_range(r)]
        assert visited == list(all_perms(4))

    @pytest.mark.parametrize("n", range(0, 9))
    def test_ranges_equal_the_successor_walk(self, n):
        """Seeded random ranges, with edges on and beside each block size
        k!, single ranks and empty ranges, against the successor walk."""
        total = math.factorial(n)
        rng = random.Random(n)
        bounds = [(0, total), (0, 0), (total, total)]
        for k in range(1, n + 1):
            f = math.factorial(k)
            for edge in (f - 1, f, f + 1, total - f):
                if 0 <= edge <= total:
                    bounds += [(edge, min(total, edge + rng.randint(0, 2 * f))),
                               (max(0, edge - rng.randint(0, 2 * f)), edge)]
        for _ in range(40):
            lo = rng.randrange(total + 1)
            hi = min(total, lo + int(total ** rng.random()))
            bounds += [(lo, lo), (lo, min(lo + 1, total)), (lo, hi)]
        for lo, hi in bounds:
            assert list(iter_range(RankRange(n, lo, hi))) == successor_walk(n, lo, hi), (lo, hi)

    def test_long_range_equals_the_successor_walk(self):
        """100 ranks of S_1000 from a random permutation."""
        rng = random.Random(1000)
        p = list(range(1, 1001))
        rng.shuffle(p)
        lo = rank(tuple(p))
        assert list(iter_range(RankRange(1000, lo, lo + 100))) == successor_walk(1000, lo, lo + 100)

    @pytest.mark.parametrize("n", [2, 5, 8, 12])
    def test_one_successor_per_block(self, n, monkeypatch):
        """All of S_n is one block.  A range takes blocks of k! ranks with
        k rising up to an aligned rank and then falling, at most k blocks
        of each size, so fewer than n^2 blocks."""
        calls = []

        def counting(p):
            calls.append(p)
            return successor(p)

        monkeypatch.setattr(enumerator, "successor", counting)
        if n <= 8:
            assert sum(1 for _ in iter_range(RankRange(n, 0, math.factorial(n)))) == math.factorial(n)
            assert calls == []
        rng = random.Random(n)
        span = min(5000, math.factorial(n) // 2)
        for _ in range(10):
            lo = rng.randrange(math.factorial(n) - span)
            calls.clear()
            assert sum(1 for _ in iter_range(RankRange(n, lo, lo + span))) == span
            assert len(calls) < n * n, lo

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            RankRange(3, 4, 2)
        with pytest.raises(ValueError):
            RankRange(3, 0, 7)
        with pytest.raises(PermutationError):
            split_ranges(-1, 1)


def deleted(q):
    """q with its 1 removed and the rest shifted down, by hand."""
    return tuple(v - 1 for v in q if v != 1)


class TestInsertionSweep:
    """A sweep of S_n takes the insertions of 1 into rank ranges of
    S_{n-1}, in chunks of whole groups, each chunk with its parents."""

    @pytest.mark.parametrize("chunk", [enumerator.CHUNK, 11, 256])
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    @pytest.mark.parametrize("n", range(0, 8))
    def test_each_permutation_once_with_its_parent(self, monkeypatch, n, jobs, chunk):
        """The chunks that the facts load from every range of a split hold
        S_n exactly once, at most ``CHUNK`` parents each, and the parents
        repeated n times line up with them.  11 parents divide no range of
        a split evenly; 256 are more than any range holds up to n = 6, so
        there each range is one chunk."""
        monkeypatch.setattr(enumerator, "CHUNK", chunk)
        seen, facts = [], enumerator._Facts(n)
        for r in enumerator._split(n, jobs):
            for group in enumerator._insertions(n, r.lo, r.hi):
                facts.load(group)
                perms, parents = facts[0], facts.parents[0] if n else group
                assert len(perms) == len(parents) * n if n else (perms, parents) == ([()], [])
                assert 0 < len(parents) <= chunk or not n
                for q, p in zip(perms, parents * n):
                    assert deleted(q) == p, (q, p)
                seen += perms
        assert sorted(seen) == list(all_perms(n))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_inserted_is_ins_position_major(self, n):
        """``_inserted`` gives ins(u, i) for i = 1..n and each parent u, by
        position, for no parents, one, a few and a whole S_{n-1}.  At n = 1
        there is no gather: a one-index ``itemgetter`` would give a bare
        int, not a tuple."""
        gathers = enumerator._gathers(n)
        assert len(gathers) == n - 1
        every = list(all_perms(n - 1))
        for parents in ([], every[:1], every[-3:], every):
            want = [ins(u, i) for i in range(1, n + 1) for u in parents]
            assert enumerator._inserted(parents, gathers) == want


class TestBruteCounts:
    def test_t_sortable_anchors(self):
        assert brute_t_sortable(MapId.S12, 3, 1) == 4
        assert brute_t_sortable(MapId.S21, 4, 8) == 0
        assert brute_t_sortable(MapId.S21, 1, 3) == 1
        buckets, never = sort_histogram(MapId.S12, 6, 6)
        assert never == 0
        assert exact_sortable_counts(MapId.S12, 6, 6) == list(itertools.accumulate(buckets))

    def test_negative_pass_count_sweeps_nothing(self, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("a sweep was started")

        monkeypatch.setattr(enumerator, "_tally", no_sweep)
        for negative_pass_count in (
            lambda: sort_histogram(MapId.S12, 3, -1),
            lambda: exact_sortable_counts(MapId.S12, 3, -2),
            lambda: brute_t_sortable(MapId.S12, 3, -1),
        ):
            with pytest.raises(ValueError, match="nonnegative"):
                negative_pass_count()

    @pytest.mark.parametrize("n", range(2, 8))
    def test_everything_s12_sorts_in_n_minus_1(self, n):
        assert brute_t_sortable(MapId.S12, n, n - 1) == math.factorial(n)

    def test_machine_sortable_anchors(self):
        assert brute_machine_sortable(MapId.MACHINE21, 1) == 1
        assert brute_machine_sortable(MapId.MACHINE21, 3) == 4
        assert brute_machine_sortable(MapId.MACHINE21, 6) == 32

    def test_fixed_points_anchors(self):
        count, found = brute_fixed_points(MapId.MACHINE21, 3, collect=True)
        assert count == 2
        assert found == [(1, 2, 3), (2, 1, 3)]
        assert brute_fixed_points(MapId.MACHINE21, 2)[0] == 1
        assert brute_fixed_points(MapId.MACHINE21, 5)[0] == 9

    def test_image_anchors(self):
        assert brute_image(MapId.S12, 5, 3) == {
            (1, 2, 3, 4, 5), (2, 1, 3, 4, 5),
        }
        assert brute_image(MapId.MACHINE12, 5, 1) == formulas.image_machine12(5)
        assert brute_image(MapId.S12, 4, 0) == set(all_perms(4))
        with pytest.raises(ValueError, match="power must be nonnegative"):
            brute_image(MapId.S12, 3, -1)

    @pytest.mark.parametrize("map_id", list(MapId))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_image_is_iterate(self, map_id, n):
        perms = list(all_perms(n))
        for k in range(3 * n + 1):
            assert brute_image(map_id, n, k) == {iterate(map_id, p, k) for p in perms}

    @pytest.mark.parametrize("map_id", list(MapId))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_image_of_a_huge_power(self, map_id, n):
        """Past every tail, the 10**6-fold image equals the image at any
        power congruent to 10**6 modulo every cycle length."""
        reports = [orbit(map_id, p) for p in all_perms(n)]
        k0 = max(r.tail_length for r in reports)
        period = math.lcm(*(r.cycle_length for r in reports))
        k = k0 + (10**6 - k0) % period
        assert brute_image(map_id, n, 10**6) == {iterate(map_id, p, k) for p in all_perms(n)}

    def test_ord_anchors(self):
        assert brute_ord(MapId.S12, 6) == 5
        assert brute_ord(MapId.S12, 1) == 0
        assert brute_ord(MapId.MACHINE12, 6) == 3
        assert brute_ord(MapId.MACHINE12, 5, jobs=2) == 2

    @pytest.mark.parametrize("n,t", [(4, 2), (5, 1), (6, 4), (5, 3)])
    def test_insertion_positions_property(self, n, t):
        assert insertion_positions_property(n, t)

    @pytest.mark.parametrize("t", [0, 5])
    def test_insertion_positions_t_out_of_range(self, t):
        with pytest.raises(ValueError):
            insertion_positions_property(5, t)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            brute_ord(MapId.S12, 13)
        with pytest.raises(GuardExceeded):
            verify("T4_2", 1, 13)

    def test_guard_ignores_the_environment(self, monkeypatch):
        """The ceiling is a constant and force the only override: the
        PSS_BRUTE_GUARD variable of earlier versions moves nothing."""
        monkeypatch.setenv("PSS_BRUTE_GUARD", "3")
        assert brute_ord(MapId.S12, 4) == 3
        with pytest.raises(GuardExceeded) as exc:
            brute_ord(MapId.S12, 13)
        assert "PSS_BRUTE_GUARD" not in str(exc.value)

    def test_random_agreement(self):
        assert random_agreement_failures(2000, 200, seed=7) == 0

    @pytest.mark.parametrize("n", range(1, 10))
    def test_west_literature_anchors(self, n):
        """West's sort counts from outside the paper: 1-sortable is Catalan
        (Knuth), 2-sortable is 2(3n)!/((n+1)!(2n+1)!) (West 1990, Zeilberger
        1992), (n-2)-sortable misses only the (n-2)! permutations ending in
        n 1 (West 1990), and n-1 passes sort everything."""
        buckets, never = sort_histogram(MapId.WEST, n, n)
        assert never == 0

        def within(t):
            return sum(buckets[: t + 1])

        f = math.factorial
        assert within(1) == math.comb(2 * n, n) // (n + 1)
        assert within(2) == 2 * f(3 * n) // (f(n + 1) * f(2 * n + 1))
        if n >= 2:
            assert within(n - 2) == f(n) - f(n - 2)
        assert within(n - 1) == f(n)


# the one dot placement a mutant of ``dotted_policy`` changes: (base, 2)'s
# predicate, which then parts from (base, 1)'s on some stacks
RED_MUTANTS = {
    "base 12": (12, lambda stack, v: not stack or max(stack) >= v - 1),
    "base 21": (21, lambda stack, v: not stack or min(stack) <= v + 1),
    # west's test on stacks of three or more, so the passes part late, after
    # a resumed prefix
    "deep stacks": (12, lambda stack, v: not stack or (
        stack[-1] if len(stack) >= 3 else max(stack)) > v),
}


def mutated(name):
    """``dotted_policy`` with RED_MUTANTS[name] as one dot placement."""
    base, allows = RED_MUTANTS[name]

    def policy(pattern):
        return allows if pattern == DottedPattern(base, 2) else dotted_policy(pattern)

    return policy


def dot_variants_differ(policy, p):
    """RED's question asked of ``run_pass`` directly."""
    return any(
        run_pass(p, policy(DottedPattern(base, 1)))[0]
        != run_pass(p, policy(DottedPattern(base, 2)))[0]
        for base in (12, 21)
    )


class TestDotVariants:
    @pytest.mark.parametrize("name", RED_MUTANTS)
    def test_red_counts_every_mismatch_of_a_mutant(self, monkeypatch, name):
        policy = mutated(name)
        monkeypatch.setattr(enumerator, "dotted_policy", policy)
        report = verify("RED", 1, 6)
        assert [row.n for row in report.rows] == list(range(1, 7))
        for row in report.rows:
            bad = sum(dot_variants_differ(policy, p) for p in all_perms(row.n))
            assert row.observed == str(bad)
            assert row.passed == (bad == 0)
        assert not report.overall_pass, "the mutant never made the passes part"

    @pytest.mark.parametrize("name", [None, *RED_MUTANTS])
    def test_any_order_of_permutations(self, monkeypatch, name):
        """The kernel keys True each p whose placements differ, and gives no
        other key, whatever order the permutations come in."""
        policy = dotted_policy if name is None else mutated(name)
        monkeypatch.setattr(enumerator, "dotted_policy", policy)
        kernel = enumerator._dot_variants_differ(enumerator._Facts(6))
        lex = list(all_perms(6))
        shuffled = lex[:]
        random.Random(8).shuffle(shuffled)
        perms = lex + lex[::-1] + shuffled
        # fact column 0 holds the chunk itself
        assert list(kernel([perms])) == [True] * sum(dot_variants_differ(policy, p) for p in perms)
        for p in shuffled:
            assert list(kernel([[p]])) == [True] * dot_variants_differ(policy, p), p


def counted_run_pass(monkeypatch) -> list:
    """Calls of ``enumerator.run_pass`` from here on, one entry each."""
    calls = []

    def counting(p, policy, want_trace=False):
        calls.append(p)
        return run_pass(p, policy, want_trace)

    monkeypatch.setattr(enumerator, "run_pass", counting)
    return calls


class TestOnePredicatePerBase:
    """``engine.dotted_policy`` gives both dot placements of a base one
    predicate object, and RED's kernel runs passes only for a base whose
    placements are two objects."""

    def test_red_runs_no_pass(self, monkeypatch):
        calls = counted_run_pass(monkeypatch)
        report = verify("RED", 1, 8)
        assert [row.observed for row in report.rows] == ["0"] * 8 and report.overall_pass
        assert calls == []
        # and no Python call per permutation: it gives no key at all
        keys = enumerator._dot_variants_differ(enumerator._Facts(3))([list(all_perms(3))])
        assert keys == ()

    def test_fresh_wrappers_take_the_per_permutation_path(self, monkeypatch):
        """Two wrappers of one predicate are two objects, so each p runs the
        two passes of each base, and still no placements differ."""
        def wrapping(pattern):
            allows = dotted_policy(pattern)
            return lambda stack, v: allows(stack, v)

        monkeypatch.setattr(enumerator, "dotted_policy", wrapping)
        calls = counted_run_pass(monkeypatch)
        report = verify("RED", 1, 6)
        assert [row.observed for row in report.rows] == ["0"] * 6 and report.overall_pass
        assert len(calls) == 4 * sum(math.factorial(n) for n in range(1, 7))


def pairs_unreversed(runs):
    """A dotted closed form that reverses each run of ``runs(p)`` but the
    two-entry ones: the closed forms' one-entry guard moved off by one."""
    def closed(p):
        return tuple(v for run in runs(p) for v in (run if len(run) == 2 else run[::-1]))

    return closed


def swapped(p):
    """A mutant s12 pass that only swaps the first two entries."""
    return p[1::-1] + p[2:]


def inserted(p, i):
    """p's entries shifted up, and a 1 before position i."""
    return tuple(v + 1 for v in p[:i - 1]) + (1,) + tuple(v + 1 for v in p[i - 1:])


class TestClosedFormMutant:
    def test_p3_1_and_p3_5_catch_unreversed_pairs(self, monkeypatch):
        """The sweep reads each pass through ``engine.pass_fn``, so a closed
        form rebound in ``engine`` is the one P3_1 and P3_5 check."""
        mutants = {"P3_1": (pairs_unreversed(peak_runs), s12_simulated),
                   "P3_5": (pairs_unreversed(valley_runs), s21_simulated)}
        monkeypatch.setattr(engine, "s12_closed_form", mutants["P3_1"][0])
        monkeypatch.setattr(engine, "s21_closed_form", mutants["P3_5"][0])
        for claim, (mutant, simulated) in mutants.items():
            report = verify(claim, 2, 5)
            assert [row.n for row in report.rows] == [2, 3, 4, 5]
            for row in report.rows:
                bad = sum(mutant(p) != simulated(p) for p in all_perms(row.n))
                assert bad and row.observed == str(bad) and not row.passed, (claim, row)
            assert not report.overall_pass

    def test_random_agreement_reads_the_engine_passes(self, monkeypatch):
        """``random_agreement_failures`` takes both passes from
        ``engine.pass_fn``, as the sweep does."""
        assert random_agreement_failures(200, 50, seed=1) == 0
        for name in ("s12_closed_form", "s21_closed_form"):
            monkeypatch.setattr(engine, name, lambda p: p[::-1])
        assert random_agreement_failures(200, 50, seed=1) > 0

    def test_random_agreement_sample_does_not_depend_on_jobs(self, monkeypatch):
        """With ``BLOCK`` at 64 the 200 draws are four tasks, task i seeded
        ``seed + i``, which two jobs share between two workers."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the mutant passes reach only forked workers")
        monkeypatch.setattr(enumerator, "BLOCK", 64)
        for name in ("s12_closed_form", "s21_closed_form"):
            monkeypatch.setattr(engine, name, lambda p: p[::-1])
        counts = {jobs: random_agreement_failures(200, 50, seed=1, jobs=jobs) for jobs in (1, 2)}
        assert counts[1] > 0 and counts[1] == counts[2], counts

    def test_l3_3_counts_each_failing_insertion(self, monkeypatch):
        """L3_3 reads each q in S_n as the insertion q = ins(p, i).  With an
        s12 pass that only swaps the first two entries, the pairs with i = 1
        or 2 fail, and its row counts them, as a direct count does that
        inserts and deletes the 1 by hand over S_{n-1}."""

        def deleted(q):  # the 1 removed, the rest shifted down
            return tuple(v - 1 for v in q if v != 1)

        monkeypatch.setattr(engine, "s12_closed_form", swapped)
        report = verify("L3_3", 2, 6)
        assert [row.observed for row in report.rows] == ["0", "4", "12", "48", "240"]
        for row in report.rows:
            n = row.n
            bad = sum(deleted(swapped(inserted(p, i))) != swapped(p)
                      for p in all_perms(n - 1) for i in range(1, n + 1))
            assert row.observed == str(bad) and row.passed == (bad == 0), row
        assert not report.overall_pass

    def test_insertion_property_reads_the_engine_pass(self, monkeypatch):
        """With the swapping s12 pass, the property equals a direct check
        that iterates the mutant and inserts the 1 by hand over S_{n-1}."""

        def sorts_within(q, t):
            ident = tuple(sorted(q))
            for _ in range(t):
                if q == ident:
                    return True
                q = swapped(q)
            return q == ident

        monkeypatch.setattr(engine, "s12_closed_form", swapped)
        got = {}
        for n in range(2, 7):
            for t in range(1, n):
                want = all(sum(sorts_within(inserted(p, i), t) for i in range(1, n + 1)) == t + 1
                           for p in all_perms(n - 1) if sorts_within(p, t))
                got[n, t] = insertion_positions_property(n, t)
                assert got[n, t] == want, (n, t)
        assert got == {key: key == (2, 1) for key in got}

    def test_terminal_powers_are_read_by_t5_2_and_t5_4(self, monkeypatch):
        """One pass past either terminal power leaves the identity alone, so
        every image and witness row fails."""
        mutants = {"T5_2": ("s12_terminal_power", lambda n: n - 1),
                   "T5_4": ("machine12_terminal_power", lambda n: n // 2)}
        for claim, (name, power) in mutants.items():
            monkeypatch.setattr(formulas, name, power)
            report = verify(claim, 4, 7)
            assert sorted({row.n for row in report.rows}) == [4, 5, 6, 7]
            for row in report.rows:
                assert not row.passed, (claim, row)
                if not row.param.startswith("witness"):
                    assert row.param == f"power={power(row.n)}"
                    assert row.observed == format_perm(identity(row.n))

    def test_l5_3_reads_the_machine12_bound(self, monkeypatch):
        """A bound one pass too low fails every row from n = 2 on."""
        monkeypatch.setattr(formulas, "machine12_bound", lambda n: n // 2 - 1)
        report = verify("L5_3", 2, 7)
        assert [row.observed for row in report.rows] == ["1", "5", "4", "50", "72", "1380"]
        for row in report.rows:
            assert row.param == f"not sorted within {row.n // 2 - 1} machine passes"
            assert not row.passed, row


def blocks_unreversed(refuses):
    """A simulated dotted stack that pops its whole stack as one block when
    ``refuses(bottom, v)``, as the engine's do, but emits each block bottom
    to top, unreversed."""
    def simulated(p):
        stack, out = [], []
        for v in p:
            if stack and refuses(stack[0], v):
                out += stack
                stack = [v]
            else:
                stack.append(v)
        return tuple(out + stack)

    return simulated


# oracle name -> its mutant
UNREVERSED = {"s12_simulated": blocks_unreversed(operator.lt),
              "s21_simulated": blocks_unreversed(operator.gt)}


class TestSimulatedMutant:
    """The mirror of ``TestClosedFormMutant``: the oracles are read from
    ``enumerator`` by name, so a rebound stack is the one that P3_1, P3_5
    and ``random_agreement_failures`` compare the closed forms with."""

    def test_p3_1_and_p3_5_catch_unreversed_blocks(self, monkeypatch):
        for name, mutant in UNREVERSED.items():
            monkeypatch.setattr(enumerator, name, mutant)
        for claim, name, closed in (("P3_1", "s12_simulated", engine.s12_closed_form),
                                    ("P3_5", "s21_simulated", engine.s21_closed_form)):
            report = verify(claim, 2, 5)
            assert [row.n for row in report.rows] == [2, 3, 4, 5]
            for row in report.rows:
                bad = sum(closed(p) != UNREVERSED[name](p) for p in all_perms(row.n))
                assert bad and row.observed == str(bad) and not row.passed, (claim, row)
            assert not report.overall_pass

    def test_random_agreement_reads_the_oracles(self, monkeypatch):
        assert random_agreement_failures(200, 50, seed=1) == 0
        for name, mutant in UNREVERSED.items():
            monkeypatch.setattr(enumerator, name, mutant)
        assert random_agreement_failures(200, 50, seed=1) > 0


def plus_one(count):
    """A closed-form count that is off by one."""
    return lambda *args: count(*args) + 1


def negated_on_identity(test):
    """A structural predicate negated on the identity alone."""
    return lambda p: not test(p) if p == identity(len(p)) else test(p)


# claim -> (module, attribute, function from the attribute to its mutant);
# each mutant turns its claim's report FAIL at some n <= 6
CLAIM_MUTANTS = {
    "RED": (enumerator, "dotted_policy", lambda _: mutated("base 12")),
    "P3_1": (engine, "s12_closed_form", lambda _: pairs_unreversed(peak_runs)),
    "P3_5": (engine, "s21_closed_form", lambda _: pairs_unreversed(valley_runs)),
    "L3_3": (engine, "s12_closed_form", lambda _: swapped),
    "T3_4": (formulas, "count_t_sortable_s12", plus_one),
    "T3_6": (formulas, "count_t_sortable_s21", lambda _: lambda n: 1),
    "L4_1": (formulas, "is_machine21_sortable", negated_on_identity),
    "T4_2": (formulas, "count_machine21_sortable", plus_one),
    "L4_3": (formulas, "is_machine21_fixed_shape", negated_on_identity),
    "T4_4": (formulas, "count_machine21_fixed_points", plus_one),
    "C5_1_min": (formulas, "count_min_sorted_s12", plus_one),
    "C5_1_high": (formulas, "count_highly_sorted_s12", plus_one),
    "T5_2": (formulas, "s12_terminal_power", lambda _: lambda n: n - 1),
    "L5_3": (formulas, "machine12_bound", lambda _: lambda n: n // 2 - 1),
    "T5_4": (formulas, "machine12_terminal_power", lambda _: lambda n: n // 2),
}


def test_every_claim_has_a_mutant():
    assert set(CLAIM_MUTANTS) == set(CLAIM_IDS)


@pytest.mark.parametrize("claim", CLAIM_IDS)
def test_each_claim_fails_under_its_mutant(monkeypatch, claim):
    """``verify`` clamps n = 1 up to the claim's least n."""
    assert verify(claim, 1, 6).overall_pass
    module, name, mutant = CLAIM_MUTANTS[claim]
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    assert not verify(claim, 1, 6).overall_pass


# each map's pass built from the oracles alone, sharing no code with the sweep
ORACLE = {
    MapId.WEST: west_recursive,
    MapId.S12: s12_simulated,
    MapId.S21: s21_simulated,
    MapId.MACHINE12: lambda p: west_recursive(s12_simulated(p)),
    MapId.MACHINE21: lambda p: west_recursive(s21_simulated(p)),
}
ORACLE_N = 6


@lru_cache(maxsize=None)
def oracle_orbits(map_id):
    """The first 2n + 1 states of each orbit in S_n, by plain iteration."""
    orbits = []
    for p in all_perms(ORACLE_N):
        states = [p]
        for _ in range(2 * ORACLE_N):
            states.append(ORACLE[map_id](states[-1]))
        orbits.append(states)
    return orbits


class TestOracles:
    @pytest.mark.parametrize("map_id", list(ORACLE))
    def test_histogram_is_oracle(self, map_id):
        ident = identity(ORACLE_N)
        for t_cap in range(ORACLE_N + 1):
            first = Counter(
                next((t for t, q in enumerate(states[: t_cap + 1]) if q == ident), None)
                for states in oracle_orbits(map_id)
            )
            want = [first[t] for t in range(t_cap + 1)], first[None]
            assert sort_histogram(map_id, ORACLE_N, t_cap) == want, t_cap

    @pytest.mark.parametrize("map_id", list(ORACLE))
    def test_exact_counts_is_oracle(self, map_id):
        ident, orbits = identity(ORACLE_N), oracle_orbits(map_id)
        for t_cap in (0, 1, 2 * ORACLE_N):
            want = [sum(states[t] == ident for states in orbits) for t in range(t_cap + 1)]
            assert exact_sortable_counts(map_id, ORACLE_N, t_cap) == want

    @pytest.mark.parametrize("map_id", list(ORACLE))
    def test_image_is_oracle(self, map_id):
        for k in (1, 2, ORACLE_N, 2 * ORACLE_N):
            want = {states[k] for states in oracle_orbits(map_id)}
            assert brute_image(map_id, ORACLE_N, k) == want

    @pytest.mark.parametrize("machine", [MapId.MACHINE12, MapId.MACHINE21])
    def test_machine_sortable_is_oracle(self, machine):
        ident = identity(ORACLE_N)
        want = sum(states[1] == ident for states in oracle_orbits(machine))
        assert brute_machine_sortable(machine, ORACLE_N) == want

    @pytest.mark.parametrize("machine", [MapId.MACHINE12, MapId.MACHINE21])
    def test_fixed_points_is_oracle(self, machine):
        want = sorted(states[0] for states in oracle_orbits(machine) if states[1] == states[0])
        assert brute_fixed_points(machine, ORACLE_N, collect=True) == (len(want), want)


def counted_passes(monkeypatch) -> Counter:
    """Calls of each engine pass from here on, by name."""
    calls: Counter = Counter()
    for name in ("west_pass", "s12_closed_form", "s21_closed_form"):
        def counting(p, _name=name, _pass=getattr(engine, name)):
            calls[_name] += 1
            return _pass(p)

        monkeypatch.setattr(engine, name, counting)
    return calls


class TestFacts:
    """A sweep makes only the facts its kernels read, each once per
    permutation however many kernels read it."""

    def test_a_machine_image_makes_its_two_stages(self, monkeypatch):
        calls = counted_passes(monkeypatch)
        (images,) = enumerator._tally(6, 1, [(enumerator._image, (MapId.MACHINE21, 1))])
        assert calls == {"s21_closed_form": 720, "west_pass": 720}
        assert sum(images.values()) == 720

    def test_kernels_share_the_first_state(self, monkeypatch):
        """P3_1's and L3_3's kernels both read s12(q) for the 720 q of S_6;
        L3_3 adds one s12 pass of each of the 120 parents p in S_5, whose
        six insertions of 1 the q are.  The lifted s12 claims at 6 read that
        parents' column too (see
        ``test_the_parents_s12_column_is_made_once``)."""
        calls = counted_passes(monkeypatch)
        mismatches = enumerator._tally(6, 1, [(enumerator._closed_vs_simulated, (MapId.S12,)),
                                              (enumerator._deletion_differs, ())])
        assert calls == {"s12_closed_form": 840}
        assert [c[True] for c in mismatches] == [0, 0]

    def test_the_m21_twins_share_one_column(self, monkeypatch):
        """L4_1 and T4_2 share one kernel, L4_3 and T4_4 another, and both
        read one column of S_6: west(y) for the lift y = inc(w).1 of each of
        the 120 parents w in S_5, 120 west passes.  L4_3's kernel passes
        each x = west(y) by s21 once, 120 s21 passes.  An m21 pass, an s21
        and a west pass, is made only for the p of B: the 2^5 = 32 that
        ``is_machine21_sortable`` accepts and the a_6 = 23 that
        ``is_machine21_fixed_shape`` does.  So 120 + 32 + 23 = 175 passes
        of each, against 720 of each for a column of m21(p) over S_6."""
        specs = []
        for claim in ("L4_1", "L4_3", "T4_2", "T4_4"):
            _, build, *args = enumerator._CLAIMS[claim]
            spec, _ = build(6, *args)
            specs.append(spec)
        assert len(set(specs)) == 2
        calls = counted_passes(monkeypatch)
        enumerator._tally(6, 1, specs)
        assert calls == {"s21_closed_form": 175, "west_pass": 175}

    def test_parents_build_no_facts_of_their_own(self, monkeypatch):
        """Only a chunk's facts have parents: the sweep of each S_n at one
        job builds the chunk's facts and its parents' facts, 16 for
        n = 1..8, and the parents' facts stop there."""
        assert enumerator._Facts(5).parents.parents is None
        built = []
        init = enumerator._Facts.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(enumerator._Facts, "__init__", counting)
        verify_all(1, 8)
        assert len(built) == 16

    def test_verify_all_to_8_makes_its_passes(self, monkeypatch):
        """verify_all(1, 8) makes 218,409 passes, the simulated stacks of
        P3_1 and P3_5 included, one of each on every p of S_1..S_8
        (46,233).  A change to how facts are made or walked must keep
        these counts, function by function."""
        calls = counted_passes(monkeypatch)
        for name in ("s12_simulated", "s21_simulated"):
            def counting(p, _name=name, _pass=getattr(enumerator, name)):
                calls[_name] += 1
                return _pass(p)

            monkeypatch.setattr(enumerator, name, counting)
        assert all(r.overall_pass for r in verify_all(1, 8))
        assert calls == {"s12_closed_form": 59724, "s12_simulated": 46233,
                         "s21_closed_form": 52714, "s21_simulated": 46233,
                         "west_pass": 13505}
        assert sum(calls.values()) == 218409

    def test_a_column_is_made_on_first_read_only(self, monkeypatch):
        """``load`` makes no column, not even the chunk: it holds the
        parents alone, as column 0 of the parents' facts."""
        parents, = enumerator._insertions(3, 0, 2)
        chunk = enumerator._inserted(parents, enumerator._gathers(3))
        want = [iterate(MapId.MACHINE12, p, 1) for p in chunk]
        calls = counted_passes(monkeypatch)
        facts = enumerator._Facts(3)
        key = facts.state(MapId.MACHINE12, 1)
        facts.load(parents)
        assert not calls and not facts and facts.parents == {0: parents}
        assert facts[key] == want and facts[key] is facts[key]
        assert facts[0] == chunk
        assert calls == {"s12_closed_form": 6, "west_pass": 6}
        facts.load([(1, 2)])
        assert not facts and facts.parents == {0: [(1, 2)]}
        inserted = [(1, 2, 3), (2, 1, 3), (2, 3, 1)]
        assert facts[key] == [iterate(MapId.MACHINE12, q, 1) for q in inserted]


def built_memos(monkeypatch) -> list:
    """The (length, stored k) of each walk memo built from here on."""
    built = []

    class Counted(enumerator._Memo):
        def __init__(self, f, ident, ks):
            built.append((len(ident), list(ks)))
            super().__init__(f, ident, ks)

    monkeypatch.setattr(enumerator, "_Memo", Counted)
    return built


def assert_records_are_walks(monkeypatch, seed, ident_at, ks, depth):
    """Every p of S_5, in a seeded order and loaded into column 0 of
    ``_Facts(5, depth)`` in chunks of 24, has the walk record and the k-th
    states under ``synthetic_map(seed, ident_at)`` that the dict walk reads.
    The facts' one memo lasts for all five chunks."""
    f, ident = synthetic_map(seed, ident_at), identity(5)
    monkeypatch.setattr(enumerator, "pass_fn", lambda map_id: f)
    facts = enumerator._Facts(5, depth)
    walk, states = facts.walk(MapId.S12), [facts.state(MapId.S12, k) for k in ks]
    perms = list(all_perms(5))
    random.Random(seed).shuffle(perms)
    for lo in range(0, 120, 24):
        facts.clear()
        facts[0] = perms[lo:lo + 24]
        for p, record, *got in zip(facts[0], facts[walk], *(facts[state] for state in states)):
            want = dict_walk(f, ident, p)
            assert record[:3] == want[:3], p
            assert got == [state_at(want, k) for k in ks], p


class TestMemoisedWalk:
    """``_Facts`` walks column 0 as the ``_Memo`` of the column of its
    first or second states, shifted back to column 0; the five maps have no
    cycle longer than 1 at small n, so these tests drive it with synthetic
    maps that do."""

    @pytest.mark.parametrize("k_max", [None, 0, 1, 3])
    @pytest.mark.parametrize("ident_at", [0, 4, 12, 119])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_walk_record_is_the_walk(self, monkeypatch, seed, ident_at, k_max):
        """The record of a walk that stores no later state, the first, the
        first three or all of 1, 2, 3, 7 and 100 (k_max None)."""
        ks = [k for k in (1, 2, 3, 7, 100) if k_max is None or k <= k_max]
        assert_records_are_walks(monkeypatch, seed, ident_at, ks, 1)

    @pytest.mark.parametrize("k_max", [None, 2, 3])
    @pytest.mark.parametrize("ident_at", [0, 4, 12, 39, 119])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_walk_record_from_the_second_state_is_the_walk(self, monkeypatch, seed, ident_at, k_max):
        """The same records, composed from the memoised walk of each p's
        second state, which stores the states past the second: p and its
        first state may each be the identity or on a cycle.  At 39 the
        identity is in a tree, off the cycles by two steps or more, and has
        preimages, for both seeds."""
        ks = [k for k in (2, 3, 7, 100) if k_max is None or k <= k_max]
        assert_records_are_walks(monkeypatch, seed, ident_at, ks, 2)

    def test_one_walk_per_map_per_sweep(self, monkeypatch):
        """An orbit shape and a k-fold image of one map read one walk: the
        memo of the chunk's first states, which stores their second."""
        built = built_memos(monkeypatch)
        shapes, images = enumerator._tally(5, 1, [(enumerator._orbit_shape, (MapId.S12,)),
                                                  (enumerator._image, (MapId.S12, 3))])
        assert built == [(5, [2])]
        assert sum(shapes.values()) == 120
        assert set(images) == {iterate(MapId.S12, p, 3) for p in all_perms(5)}

    def test_a_walk_passes_on_the_identity_as_on_any_state(self, monkeypatch):
        """The walker has no shortcut at the identity: a memoised walk
        closes there, as at any fixed point, on the pass that maps it to
        itself."""
        calls = counted_passes(monkeypatch)
        sort_histogram(MapId.S12, 6, 6)
        sort_histogram(MapId.S21, 6, 6)
        assert calls == {"s12_closed_form": 1153, "s21_closed_form": 1153}

    def test_synthetic_maps_have_long_cycles(self):
        f = synthetic_map(1, 119)
        cycles = Counter(dict_walk(f, identity(5), p)[2] for p in all_perms(5))
        assert set(cycles) == {1, 2, 3, 4, 5}

    def test_a_cleared_memo_gives_the_same_walks(self, monkeypatch):
        want = [r.to_dict() for r in verify_all(1, 6)]
        monkeypatch.setattr(enumerator, "MEMO_CAP", 2)
        assert [r.to_dict() for r in verify_all(1, 6)] == want
        for depth in (1, 2):
            assert_records_are_walks(monkeypatch, 3, 4, [2, 3], depth)


# claim -> the observed values of its rows at n, reduced from the plain
# public sweeps of S_n (T5_4's witness rows come from no sweep)
@lru_cache(maxsize=None)
def s12_histogram(n):
    return sort_histogram(MapId.S12, n, n)[0]


PLAIN_OBSERVED = {
    "T3_4": lambda n: [sum(s12_histogram(n)[: t + 1]) for t in range(1, n + 1)],
    "T3_6": lambda n: exact_sortable_counts(MapId.S21, n, 2 * n)[1:],
    "T4_2": lambda n: [brute_machine_sortable(MapId.MACHINE21, n)],
    "T4_4": lambda n: [brute_fixed_points(MapId.MACHINE21, n)[0]],
    "C5_1_min": lambda n: [s12_histogram(n)[n - 1], brute_ord(MapId.S12, n)],
    "C5_1_high": lambda n: [sum(s12_histogram(n)[: n - 1])],
    "T5_2": lambda n: [brute_image(MapId.S12, n, formulas.s12_terminal_power(n))],
    "L5_3": lambda n: [sort_histogram(MapId.MACHINE12, n, formulas.machine12_bound(n))[1]],
    "T5_4": lambda n: [brute_image(MapId.MACHINE12, n, formulas.machine12_terminal_power(n))],
}


def observed(value):
    """A value as a report row prints it."""
    if isinstance(value, set):
        return " | ".join(format_perm(p) for p in sorted(value))
    return str(value)


def assert_lifted_is_plain(n, jobs, *map_ids):
    """On one sweep of S_n, for each map, the Counters of its orbit shapes
    and of its images at power n // 2 and at its claim's own (T5_2's or
    T5_4's), where these are >= 1, tallied by the plain kernels
    ``_orbit_shape`` and ``_image``, equal the reductions of those of the
    lifted kernels, which read the sweep's parents in S_{n-1}.  For m21
    the plain kernels are ``_sorted_by`` and ``_fixed_point``, against
    T4_2's count and T4_4's fixed points, each once, from the kernels that
    read the parents' lifts."""
    pairs = []  # (plain spec, lifted spec, reduction of the lifted Counter)
    for map_id in map_ids:
        if map_id is MapId.MACHINE21:
            pairs += [((enumerator._sorted_by, (map_id,)), (enumerator._machine21_sorts, ()),
                       lambda lifted: {True: enumerator._sorts_from_lift(lifted)}),
                      ((enumerator._fixed_point, (map_id,)), (enumerator._machine21_fixes, ()),
                       lambda lifted: {x: c for x, c in lifted.items() if type(x) is tuple})]
            continue
        own = formulas.s12_terminal_power if map_id is MapId.S12 else formulas.machine12_terminal_power
        pairs.append(((enumerator._orbit_shape, (map_id,)), (enumerator._lifted_shape, (map_id,)),
                      lambda lifted, map_id=map_id: enumerator._shapes_from_lift(lifted, n, map_id)))
        for k in sorted({k for k in (n // 2, own(n)) if k >= 1}):
            pairs.append(((enumerator._image, (map_id, k)), (enumerator._lifted_image, (map_id, k)),
                          enumerator._images_from_lift))
    counts = enumerator._tally(n, jobs, [spec for plain, lifted, _ in pairs for spec in (plain, lifted)])
    for (plain, _, reduce), want, got in zip(pairs, counts[::2], counts[1::2]):
        if plain[0] is enumerator._image:
            want = set(want)
        assert reduce(got) == want, (n, jobs, plain)


class TestLiftedRoute:
    """The six s12 and m12 orbit and image claims at n read the parents in
    S_{n-1} of the sweep of S_n: each w there stands for the 2^r preimages
    of its lift w.n under an s12 pass, with r its number of peak runs."""

    @pytest.mark.parametrize("claim", PLAIN_OBSERVED)
    def test_rows_equal_the_plain_sweeps(self, claim):
        """The rows of verify(claim, n, n) read what the public operations
        read from S_n, for every n from the claim's least to 8: from the
        lift of the parents in S_{n-1}, for T4_2 and T4_4 by the m21 route
        (see ``TestMachine21Lift``), or for T3_6 from the chunks of S_n
        itself."""
        for n in range(enumerator._CLAIMS[claim][0], 9):
            want = [observed(v) for v in PLAIN_OBSERVED[claim](n)]
            rows = verify(claim, n, n).rows
            assert [row.observed for row in rows[:len(want)]] == want, (claim, n)
            assert all(row.passed for row in rows), (claim, n)

    @pytest.mark.parametrize("map_id", [MapId.S12, MapId.MACHINE12, MapId.MACHINE21])
    def test_lifted_counters_are_the_plain_counters(self, monkeypatch, map_id):
        """The reductions give the Counters of a plain sweep of S_n exactly,
        including the identity and the periodic points, which the shift by
        one step would misplace, for n <= 8, at jobs 1 and 2, and with a
        ``MEMO_CAP`` of 2, so that every walk memo clears.  The images are
        compared at power n // 2 and at the claim's own (T5_2's or
        T5_4's) where they are >= 1: at n = 1 the parents are S_0, which
        has none.  For m21 the Counters are T4_2's and T4_4's."""
        for memo_cap in (enumerator.MEMO_CAP, 2):
            monkeypatch.setattr(enumerator, "MEMO_CAP", memo_cap)
            for jobs in (1, 2):
                for n in range(1, 9):
                    assert_lifted_is_plain(n, jobs, map_id)

    def test_walkers_are_built_only_in_the_parents_facts(self, monkeypatch):
        """verify_all(6, 6) sweeps S_6 once.  The orbit and image claims walk
        its parents in S_5, with one memo per map, s12 and m12; the four
        per-permutation claims, T3_6 and the four m21 claims read its chunks
        and the lifts of its parents with no walk."""
        built = built_memos(monkeypatch)
        assert all(r.overall_pass for r in verify_all(6, 6))
        assert [n for n, _ in built] == [5, 5]

    def test_no_s21_pass_on_s_n_minus_1(self, monkeypatch):
        """P3_5 and T3_6 share one s21 column of S_6, 720 passes, and T3_6's
        rows add one pass on the identity.  The m21 claims add 175 (see
        ``test_the_m21_twins_share_one_column``): one for each x = west(y)
        of the 120 lifts y of the parents, and one for each of the 32 + 23
        p of B.  All are of length 6: 720 + 1 + 175 = 896."""
        lengths, s21 = Counter(), engine.s21_closed_form

        def counting(p):
            lengths[len(p)] += 1
            return s21(p)

        monkeypatch.setattr(engine, "s21_closed_form", counting)
        assert all(r.overall_pass for r in verify_all(6, 6))
        assert lengths == {6: 896}

    def test_the_parents_s12_column_is_made_once(self, monkeypatch):
        """verify_all(6, 6) makes 2,245 passes, 289 of them s12 passes on
        S_5: one column of the 120 parents, read by L3_3 and as the first
        states of the lifted s12 walk, 120 more for their second states, on
        which that walk is memoised, 13 in the walks of the 6 second states
        and 36 in those of the 17 x = west(w) of the lifted m12 walk.  The
        m21 claims make 175 west and 175 s21 passes (see
        ``test_the_m21_twins_share_one_column``) where a column of m21(p)
        over S_6 made 720 west passes on the s21 column of S_6 that P3_5
        makes anyway: 2,615 - 720 + 350 = 2,245."""
        calls, lengths = counted_passes(monkeypatch), Counter()
        s12 = engine.s12_closed_form

        def by_length(p):
            lengths[len(p)] += 1
            return s12(p)

        monkeypatch.setattr(engine, "s12_closed_form", by_length)
        assert all(r.overall_pass for r in verify_all(6, 6))
        assert sum(calls.values()) == 2245
        assert lengths[5] == 289

    def test_the_lifted_m12_walk_is_keyed_on_x(self, monkeypatch):
        """verify_all(9, 9) walks the 40,320 parents w in S_8.  The lifted
        m12 walk of x = west(w) is memoised on x itself, so each of the
        1,780 x in west(S_8) is walked once, and the lifted s12 walk on the
        720 second states s12(s12(w)).  Outside these walks the sweep makes
        three passes per parent: the columns s12(w) and x, and the key
        s12(s12(w)) of the s12 walk.  No parent makes an s12 or west pass
        on its x."""
        where, outside, walked = ["claims"], Counter(), Counter()
        for name in ("s12_closed_form", "west_pass"):
            def counting(p, _name=name, _pass=getattr(engine, name)):
                if where[0] == "sweep" and len(p) == 8:
                    outside[_name] += 1
                return _pass(p)

            monkeypatch.setattr(engine, name, counting)
        walk, tally_range = enumerator._walk, enumerator._tally_range

        def walking(f, *args):
            if where[0] == "sweep":
                walked[f] += 1
            where[0], was = "walk", where[0]
            try:
                return walk(f, *args)
            finally:
                where[0] = was

        def sweeping(task):
            where[0] = "sweep"
            try:
                return tally_range(task)
            finally:
                where[0] = "claims"

        monkeypatch.setattr(enumerator, "_walk", walking)
        monkeypatch.setattr(enumerator, "_tally_range", sweeping)
        assert all(r.overall_pass for r in verify_all(9, 9))
        assert outside == {"s12_closed_form": 2 * 40320, "west_pass": 40320}
        assert sorted(walked.values()) == [720, 1780]

    @pytest.mark.parametrize("claim, n", [("T3_4", 6), ("T5_4", 9)])
    def test_a_lifted_claim_alone_builds_no_insertion(self, monkeypatch, claim, n):
        """A lifted claim verified alone reads only the parents of the
        sweep of S_n, so no chunk of S_n is made."""
        made, inserted = [], enumerator._inserted

        def counting(parents, gathers):
            made.append(len(gathers) + 1)
            return inserted(parents, gathers)

        monkeypatch.setattr(enumerator, "_inserted", counting)
        assert verify(claim, n, n).overall_pass
        assert made == []


M21_CLAIMS = ("L4_1", "T4_2", "L4_3", "T4_4")


def m21_oracle(n):
    """The observed value of each m21 claim's row at n, from one
    ``apply(MACHINE21, p)`` for each p of S_n and the two structural
    predicates of ``formulas``, read when called."""
    ident, got = identity(n), Counter()
    for p in all_perms(n):
        q = apply(MapId.MACHINE21, p)
        got["T4_2"] += q == ident
        got["T4_4"] += q == p
        got["L4_1"] += (q == ident) != formulas.is_machine21_sortable(p)
        got["L4_3"] += (q == p) != formulas.is_machine21_fixed_shape(p)
    return {claim: str(got[claim]) for claim in M21_CLAIMS}


def assert_m21_rows_are_the_oracle(n_max, jobs):
    """The rows of the four m21 claims for n = 1..n_max, verified together,
    read what ``m21_oracle`` reads; returns the reports."""
    reports = enumerator._verify(M21_CLAIMS, 1, n_max, jobs, False)
    for n in range(1, n_max + 1):
        want = m21_oracle(n)
        for report in reports:
            (row,) = [row for row in report.rows if row.n == n]
            assert row.observed == want[report.claim], (report.claim, n, jobs)
    return reports


def west_swapping(n):
    """A west pass that swaps the first two outputs of each input of length
    n that ends in 1.  Those inputs are the s21 images in S_n, the lifts
    among them, so at n the mutant changes m21 alone: a route that did not
    pass the lifts, or other s21 images, through west would survive it."""
    west = engine.west_pass

    def mutant(p):
        q = west(p)
        return (q[1], q[0]) + q[2:] if len(p) == n and p[-1] == 1 else q

    return mutant


def in_process(monkeypatch):
    """Sweep the rank ranges of every job in this process, so that a
    mutant reaches them whatever a pool's start method."""
    monkeypatch.setattr(enumerator, "_run", lambda worker, tasks, jobs: list(map(worker, tasks)))


class TestMachine21Lift:
    """L4_1, T4_2, L4_3 and T4_4 make their m21 passes on the lifts
    y = inc(w).1 of the parents w of the sweep of S_n, and on the p that
    L4_1's or L4_3's structural test accepts, set B."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_are_a_per_permutation_oracle(self, monkeypatch, jobs):
        """For n <= 8, at 1 and 2 jobs and with chunks of 11 parents."""
        monkeypatch.setattr(enumerator, "CHUNK", 11)
        assert all(r.overall_pass for r in assert_m21_rows_are_the_oracle(8, jobs))

    @pytest.mark.parametrize("claim", ["L4_1", "L4_3"])
    def test_rows_are_the_oracle_under_the_predicate_mutant(self, monkeypatch, claim):
        """Under the claim's ``CLAIM_MUTANTS`` entry its rows fail and read
        the oracle's counts, which a failing comparison on each p reads."""
        module, name, mutant = CLAIM_MUTANTS[claim]
        monkeypatch.setattr(module, name, mutant(getattr(module, name)))
        monkeypatch.setattr(enumerator, "CHUNK", 11)
        in_process(monkeypatch)
        for jobs in (1, 2):
            reports = {r.claim: r for r in assert_m21_rows_are_the_oracle(8, jobs)}
            assert not reports[claim].overall_pass

    @pytest.mark.parametrize("n", range(3, 9))
    def test_a_west_pass_broken_on_the_lifts_fails_t4_2_and_t4_4(self, monkeypatch, n):
        """Under ``west_swapping(n)`` the four rows at n read the oracle's
        counts, and T4_2's and T4_4's fail (at n = 2 T4_4's still reads 1:
        the mutant fixes (2, 1) and unfixes (1, 2))."""
        monkeypatch.setattr(engine, "west_pass", west_swapping(n))
        in_process(monkeypatch)
        want = m21_oracle(n)
        for jobs in (1, 2):
            reports = {r.claim: r for r in enumerator._verify(M21_CLAIMS, n, n, jobs, False)}
            assert {c: r.rows[0].observed for c, r in reports.items()} == want
            assert not reports["T4_2"].overall_pass and not reports["T4_4"].overall_pass

    def test_m21_passes_only_on_the_lifts_and_b(self, monkeypatch):
        """An m21 pass is a west pass of an s21 image, which ends in 1.
        verify_all(6, 6) makes its west passes of length 6 that end in 1 on
        the 120 lifts of the parents in S_5 and on s21(p) for the p of B,
        the 32 that ``is_machine21_sortable`` accepts and the 23 that
        ``is_machine21_fixed_shape`` does: no other p of S_6 makes an m21
        pass."""
        inputs, west = Counter(), engine.west_pass

        def counting(p):
            if len(p) == 6 and p[-1] == 1:
                inputs[p] += 1
            return west(p)

        monkeypatch.setattr(engine, "west_pass", counting)
        assert all(r.overall_pass for r in verify_all(6, 6))
        b = [p for test in (formulas.is_machine21_sortable, formulas.is_machine21_fixed_shape)
             for p in all_perms(6) if test(p)]
        assert len(b) == 32 + 23
        lifts = Counter(inc(w) + (1,) for w in all_perms(5))
        assert inputs == lifts + Counter(map(engine.s21_closed_form, b))


class TestT36Mutants:
    """T3_6's rows are exact t-fold counts: under an s21 pass that sends some
    permutations elsewhere (``sends``) they fail and read what a plain
    sweep of S_5's orbits reads."""

    @pytest.mark.parametrize("sends, want", [
        ({(2, 1, 3, 4, 5): (1, 2, 3, 4, 5)}, [1] + [0] * 9),
        ({(1, 2, 3, 4, 5): (1, 2, 3, 4, 5)}, [1] * 10),
        ({(3, 1, 2, 4, 5): (2, 1, 3, 4, 5), (2, 1, 3, 4, 5): (1, 2, 3, 4, 5)}, [1, 1] + [0] * 8),
    ], ids=["sorts-21345", "fixes-identity", "sorts-31245-in-two"])
    def test_a_broken_pass_fails_with_exact_counts(self, monkeypatch, sends, want):
        s21 = engine.s21_closed_form
        monkeypatch.setattr(engine, "s21_closed_form", lambda p: sends.get(p) or s21(p))
        report = verify("T3_6", 5, 5)
        assert not report.overall_pass
        assert exact_sortable_counts(MapId.S21, 5, 10)[1:] == want
        assert [row.observed for row in report.rows] == [str(c) for c in want]


class TestVerify:
    def test_registry_matches_declared_claims(self):
        from pss.enumerator import CLAIM_IDS

        assert CLAIM_IDS == CLAIMS

    def test_unknown_claim(self):
        with pytest.raises(ValueError):
            verify("T9_9", 1, 5)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            verify("T4_2", 5, 3)

    @pytest.mark.parametrize("claim", CLAIMS)
    def test_each_claim_passes_small(self, claim):
        report = verify(claim, 1, 6)
        assert report.overall_pass
        assert report.rows, claim

    def test_rows_sorted_by_n(self):
        report = verify("T3_4", 1, 5)
        assert [r.n for r in report.rows] == sorted(r.n for r in report.rows)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_worker_count_does_not_change_results(self, jobs):
        """S_7 and S_8 are more than ``BLOCK`` permutations, so they are cut
        into ``jobs`` rank ranges swept by a pool."""
        for claim in ("T3_4", "T5_4", "L4_1"):
            assert (
                verify(claim, 1, 8, jobs=jobs).to_dict()
                == verify(claim, 1, 8, jobs=1).to_dict()
            )

    def test_spawned_workers_give_the_same_report(self):
        script = (
            "import json, multiprocessing\n"
            "from pss.enumerator import verify\n"
            "multiprocessing.set_start_method('spawn')\n"
            "print(json.dumps(verify('T5_4', 1, 8, jobs=2).to_dict()))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == verify("T5_4", 1, 8, jobs=1).to_dict()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_all_claims_report_as_each_alone(self, jobs):
        for report in verify_all(1, 7, jobs=jobs):
            assert report.to_dict() == verify(report.claim, 1, 7, jobs=jobs).to_dict()

    def test_chunk_length_does_not_change_reports(self, monkeypatch):
        """Chunk boundaries, and with ``MEMO_CAP`` = 2 memo clears, fall
        mid-range: 11 divides none of 3!..7!."""
        want = {jobs: [r.to_dict() for r in verify_all(1, 7, jobs=jobs)] for jobs in (1, 2)}
        monkeypatch.setattr(enumerator, "CHUNK", 11)
        assert all(math.factorial(n) % 11 for n in range(3, 8))
        for memo_cap in (enumerator.MEMO_CAP, 2):
            monkeypatch.setattr(enumerator, "MEMO_CAP", memo_cap)
            for jobs in (1, 2):
                assert [r.to_dict() for r in verify_all(1, 7, jobs=jobs)] == want[jobs], (memo_cap, jobs)

    def test_each_length_is_swept_once(self, monkeypatch):
        walked, insertions = [], enumerator._insertions

        def counting(n, lo, hi):
            walked.append(n)
            return insertions(n, lo, hi)

        monkeypatch.setattr(enumerator, "_insertions", counting)
        verify_all(1, 6)
        assert walked == [1, 2, 3, 4, 5, 6]  # the orbit and image claims at 1 read S_0 as parents
        walked.clear()
        verify_all(6, 6)
        assert walked == [6]  # the orbit and image claims at 6 read S_5 as parents

    def test_small_sweeps_start_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        assert all(r.overall_pass for r in verify_all(1, 6, jobs=2))

    def test_a_pool_starts_no_more_processes_than_tasks(self, monkeypatch):
        """Many jobs and few tasks: at 64 jobs S_7 is 2 tasks, S_8 is 10
        (one per ``BLOCK``), and the random sample 2.  At 2 jobs each is 2
        tasks: one rank range per job.  The tasks follow the jobs, but a
        pool has no more processes than cores, and one core starts none.
        The pool is a fake that maps in this process."""
        asked = []

        class SerialPool:
            def __init__(self, processes):
                self.processes = processes

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, worker, tasks):
                asked.append((self.processes, len(tasks)))
                return [worker(t) for t in tasks]

        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        for cores, jobs, want in ((64, 64, [(2, 2), (10, 10), (2, 2)]),
                                  (64, 2, [(2, 2), (2, 2), (2, 2)]),
                                  (4, 64, [(2, 2), (4, 10), (2, 2)]),
                                  (1, 2, [])):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            asked.clear()
            assert all(r.overall_pass for r in verify_all(7, 8, jobs=jobs))
            assert random_agreement_failures(5000, 20, jobs=jobs) == 0
            assert asked == want, (cores, jobs)

    def test_verify_all_covers_registry(self):
        reports = verify_all(1, 4)
        assert len(reports) == 15
        assert all(r.overall_pass for r in reports)

    def test_report_dict_shape(self):
        doc = verify("T4_2", 1, 5).to_dict()
        assert set(doc) == {"claim", "params", "rows", "overall_pass"}
        assert all(isinstance(r["expected"], str) for r in doc["rows"])

    def test_an_empty_report_does_not_pass(self):
        # T5_2 has rows from n = 4 on, so below that it checks nothing
        report = verify("T5_2", 1, 3)
        assert not report.rows
        assert not report.overall_pass
        assert report.to_dict()["overall_pass"] is False

    def test_verify_all_reports_only_claims_with_rows(self):
        least = {claim: enumerator._CLAIMS[claim][0] for claim in CLAIM_IDS}
        for n in range(1, 5):
            reports = verify_all(n, n)
            assert [r.claim for r in reports] == [c for c in CLAIM_IDS if least[c] <= n]
            assert all(r.overall_pass for r in reports)
