import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pss import perms
from pss.perms import (
    PermutationError,
    all_perms,
    delete_one,
    format_perm,
    identity,
    inc,
    ins,
    parse,
    peak_runs,
    peaks,
    perm,
    rank,
    reverse_identity,
    successor,
    unrank,
    valley_runs,
    valleys,
)

perm_st = st.permutations(range(1, 9)).map(tuple) | st.integers(1, 8).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)
)


class TestParse:
    def test_comma_form(self):
        assert parse("2,4,3,1,5") == (2, 4, 3, 1, 5)
        assert parse("2, 1") == parse(" 2 ,1 ") == (2, 1)
        assert parse("2,01,003") == (2, 1, 3)

    def test_compact_form(self):
        assert parse("24315") == (2, 4, 3, 1, 5)

    def test_duplicate_rejected(self):
        with pytest.raises(PermutationError):
            parse("2,2,1")

    @pytest.mark.parametrize("bad", ["", "  ", "1,x,3", "0", "1,3", "2,4,5,1", "²", "1²",
                                     "١,٢", "2,1_0,3,4,5,6,7,8,9,1", "+2,1",
                                     pytest.param("2," + "1" * 5000, id="5000-digit-token")])
    def test_malformed_rejected(self, bad):
        with pytest.raises(PermutationError):
            parse(bad)

    @given(perm_st)
    def test_round_trip(self, p):
        assert parse(format_perm(p)) == p


class TestElementary:
    def test_inc(self):
        assert inc((2, 1, 4, 5, 3)) == (3, 2, 5, 6, 4)
        assert inc((1,)) == (2,)
        assert inc((1, 2, 3)) == (2, 3, 4)

    def test_ins(self):
        assert ins((2, 1, 4, 5, 3), 3) == (3, 2, 1, 5, 6, 4)
        assert ins((1,), 1) == (1, 2)
        assert ins((1, 2), 3) == (2, 3, 1)

    def test_ins_out_of_range(self):
        with pytest.raises(PermutationError):
            ins((1, 2), 4)
        with pytest.raises(PermutationError):
            ins((1, 2), 0)

    def test_delete_one(self):
        assert delete_one((3, 2, 1, 5, 6, 4)) == (2, 1, 4, 5, 3)
        assert delete_one((1, 2)) == (1,)
        assert delete_one((2, 1)) == (1,)
        with pytest.raises(PermutationError):
            delete_one((1,))

    @given(perm_st, st.data())
    def test_delete_one_inverts_ins(self, p, data):
        i = data.draw(st.integers(1, len(p) + 1))
        assert delete_one(ins(p, i)) == p


class TestPeaksValleys:
    def test_paper_anchor(self):
        p = (2, 4, 3, 1, 5)
        assert peaks(p) == (1, 2, 5)
        assert valleys(p) == (1, 4)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_identity_cases(self, n):
        assert peaks(identity(n)) == tuple(range(1, n + 1))
        assert valleys(identity(n)) == (1,)
        assert peaks(reverse_identity(n)) == (1,)
        assert valleys(reverse_identity(n)) == tuple(range(1, n + 1))

    def test_runs_anchor(self):
        """The paper's example: 24315 has peak runs 2, 431, 5 and valley
        runs 243, 15."""
        p = (2, 4, 3, 1, 5)
        assert peak_runs(p) == ((2,), (4, 3, 1), (5,))
        assert valley_runs(p) == ((2, 4, 3), (1, 5))

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_runs_degenerate(self, n):
        singletons = tuple((v,) for v in range(1, n + 1))
        assert peak_runs(identity(n)) == singletons
        assert peak_runs(reverse_identity(n)) == (reverse_identity(n),)
        assert valley_runs(identity(n)) == (identity(n),)
        assert valley_runs(reverse_identity(n)) == singletons[::-1]

    @given(perm_st)
    def test_runs_partition_positions(self, p):
        """The runs concatenate to p, and each run's first entry is a peak
        (a valley) and no later entry of it is."""
        for runs, beats in [(peak_runs(p), int.__gt__), (valley_runs(p), int.__lt__)]:
            assert tuple(v for run in runs for v in run) == p
            record = None
            for first, *rest in runs:
                assert record is None or beats(first, record)
                record = first
                assert not any(beats(v, record) for v in rest)

    @given(perm_st)
    def test_position_one_is_peak_and_valley(self, p):
        assert 1 in peaks(p)
        assert 1 in valleys(p)


class TestRanking:
    def test_examples(self):
        assert unrank(3, 0) == (1, 2, 3)
        assert unrank(3, 5) == (3, 2, 1)
        assert unrank(0, 0) == ()
        assert rank((2, 1, 3)) == 2

    def test_unrank_range_error(self):
        with pytest.raises(ValueError):
            unrank(3, 6)
        with pytest.raises(ValueError):
            unrank(0, 1)
        with pytest.raises(PermutationError):
            unrank(-1, 0)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_bijective_over_Sn(self, n):
        seen = set()
        for r in range(math.factorial(n)):
            p = unrank(n, r)
            assert rank(p) == r
            seen.add(p)
        assert len(seen) == math.factorial(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_successor_is_lexicographic(self, n):
        chain = [identity(n)]
        while (nxt := successor(chain[-1])) is not None:
            chain.append(nxt)
        assert chain == list(all_perms(n)) == sorted(chain)
        assert len(chain) == math.factorial(n)

    def test_long_permutations(self):
        """At n = 1000 a rank has 2,568 digits: round trips, the successor
        one rank on, and the last rank the decreasing permutation."""
        rng = random.Random(1000)
        for _ in range(5):
            p = tuple(rng.sample(range(1, 1001), 1000))
            r = rank(p)
            assert unrank(1000, r) == p
            assert rank(successor(p)) == r + 1
        assert unrank(1000, math.factorial(1000) - 1) == reverse_identity(1000)


def test_perm_validation():
    with pytest.raises(PermutationError):
        perm([])
    with pytest.raises(PermutationError):
        perm([1, 3])
    with pytest.raises(PermutationError):
        perm([2, 2, 1])
    # a value must be an integer: 2.5 is not truncated to 2, nor "2" parsed
    for values in ([2.5, 1.5], [2.0, 1.0], ["2", "1"], [2, None]):
        with pytest.raises(PermutationError):
            perm(values)
    assert perm([2, 1]) == (2, 1)
