import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pss import engine
from pss.engine import (
    SETTLED,
    DottedPattern,
    MapId,
    _PASSES,
    _settled_walk,
    _walk,
    apply,
    dotted_policy,
    iterate,
    orbit,
    pass_fn,
    run_pass,
    s12_closed_form,
    s12_simulated,
    s21_closed_form,
    s21_simulated,
    sorts_in,
    west_pass,
    west_policy,
    west_recursive,
)
from pss.enumerator import brute_ord
from pss.perms import all_perms, delete_one, identity, ins, reverse_identity, unrank
from walk_oracle import dict_walk, state_at, synthetic_map

perm_st = st.integers(1, 9).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)
)


def near_sorted(n, swaps):
    """The identity of length n with entries i and i + 1 (from 0) swapped
    for each i in ``swaps``, in turn."""
    p = list(range(1, n + 1))
    for i in swaps:
        p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def rotation(n):
    return tuple(range(2, n + 1)) + (1,)


def shuffled(n, seed):
    p = list(range(1, n + 1))
    random.Random(seed).shuffle(p)
    return tuple(p)


near_sorted_st = st.integers(2, 300).flatmap(
    lambda n: st.lists(st.integers(0, n - 2), max_size=6).map(lambda swaps: near_sorted(n, swaps))
)

# (base, map, closed form, simulated stack)
DOTTED = [
    (12, MapId.S12, s12_closed_form, s12_simulated),
    (21, MapId.S21, s21_closed_form, s21_simulated),
]


def assert_passes_agree(p, bases=DOTTED):
    """Closed form == simulated stack == ``run_pass`` with the dotted policy."""
    for base, _, closed, simulated in bases:
        allows = dotted_policy(DottedPattern(base, 1))
        assert closed(p) == simulated(p) == run_pass(p, allows)[0], (base, p)


def complement(p):
    """c(p) with c(v) = n+1-v; s21 = c o s12 o c is an oracle for s21 that
    shares no code with it."""
    return tuple(len(p) + 1 - v for v in p)


class TestPolicies:
    def test_dotted_12_policy(self):
        allows = dotted_policy(DottedPattern(12, 1))
        assert allows((1, 5), 4)  # 5 on the stack exceeds 4
        assert not allows((3,), 5)
        assert allows((6,), 5)
        assert allows((6, 9, 7), 5)  # all above
        assert not allows((2, 1, 3), 5)  # all below
        assert allows((), 7)
        assert allows([], 7)

    def test_dotted_21_policy(self):
        allows = dotted_policy(DottedPattern(21, 1))
        assert not allows((3,), 1)
        assert allows((3,), 4)
        assert allows((4, 1), 3)  # 1 on the stack is below 3
        assert not allows((6, 9, 7), 5)  # all above
        assert allows((2, 1, 3), 5)  # all below
        assert allows((), 1)
        assert allows([], 1)

    def test_west_policy(self):
        allows = west_policy()
        assert not allows((2,), 3)
        assert allows((4,), 2)
        assert allows((), 9)
        # the stack comes bottom to top: only the top, its last entry, counts
        assert not allows((5, 2), 3)
        assert allows((2, 5), 3)

    def test_one_west_predicate(self):
        assert west_policy() is west_policy()

    def test_one_predicate_per_base(self):
        for base in (12, 21):
            assert dotted_policy(DottedPattern(base, 1)) is dotted_policy(DottedPattern(base, 2))
        assert dotted_policy(DottedPattern(12, 1)) is not dotted_policy(DottedPattern(21, 1))

    def test_dotted_pattern_validation(self):
        with pytest.raises(ValueError):
            DottedPattern(13, 1)
        with pytest.raises(ValueError):
            DottedPattern(12, 3)


class TestRunPass:
    def test_west_anchor(self):
        assert run_pass((2, 3, 1, 4), west_policy())[0] == (2, 1, 3, 4)

    def test_s12_anchors(self):
        allows = dotted_policy(DottedPattern(12, 1))
        assert run_pass((2, 4, 1, 3), allows)[0] == (2, 3, 1, 4)
        assert run_pass((2, 3, 4, 5, 1), allows)[0] == (2, 3, 4, 1, 5)

    @given(perm_st)
    def test_trace_is_balanced_and_matches_output(self, p):
        out, events = run_pass(p, dotted_policy(DottedPattern(12, 1)), want_trace=True)
        pushes = [e.value for e in events if e.op == "push"]
        assert len(pushes) == len(p) == sum(e.op == "pop" for e in events)
        assert tuple(e.value for e in events if e.op == "pop") == out

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dot_position_is_immaterial(self, n):
        """Either dot placement of a base runs that base's map: its pass is
        the run-reversing closed form."""
        closed = {12: s12_closed_form, 21: s21_closed_form}
        for base in (12, 21):
            for dot in (1, 2):
                allows = dotted_policy(DottedPattern(base, dot))
                for p in all_perms(n):
                    assert run_pass(p, allows)[0] == closed[base](p), (base, dot, p)


class TestClosedForms:
    def test_s12_anchor(self):
        assert s12_closed_form((2, 4, 3, 1, 5)) == (2, 1, 3, 4, 5)
        assert s12_closed_form((3, 5, 1, 4, 2)) == (3, 2, 4, 1, 5)

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_s12_fixes_identity(self, n):
        assert s12_closed_form(identity(n)) == identity(n)

    def test_s21_anchor(self):
        assert s21_closed_form((2, 4, 3, 1, 5)) == (3, 4, 2, 5, 1)

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_s21_degenerate(self, n):
        assert s21_closed_form(reverse_identity(n)) == reverse_identity(n)
        assert s21_closed_form(identity(n)) == reverse_identity(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_closed_equals_simulated_exhaustive(self, n):
        allows12 = dotted_policy(DottedPattern(12, 1))
        allows21 = dotted_policy(DottedPattern(21, 1))
        for p in all_perms(n):
            s12 = s12_closed_form(p)
            s21 = s21_closed_form(p)
            assert s12 == s12_simulated(p) == run_pass(p, allows12)[0]
            assert s21 == s21_simulated(p) == run_pass(p, allows21)[0]
            assert s21 == complement(s12_closed_form(complement(p)))

    @given(st.integers(1, 300).flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(tuple)))
    @settings(max_examples=200)
    def test_closed_equals_simulated_random(self, p):
        assert s12_closed_form(p) == s12_simulated(p)
        assert s21_closed_form(p) == s21_simulated(p)
        assert s21_closed_form(p) == complement(s12_closed_form(complement(p)))

    @pytest.mark.parametrize("shape", [
        identity,
        reverse_identity,
        lambda n: rotation(n) if n else (),  # 2..n,1
        lambda n: (n, *range(1, n)) if n else (),  # n,1..n-1, its inverse
        lambda n: near_sorted(n, range(0, n - 1, 2)),  # 2,1,4,3,...
    ], ids=["increasing", "decreasing", "rotation", "rotation-inverse", "zigzag"])
    def test_simulated_stacks_pop_blocks(self, shape):
        """The simulated stacks pop their whole stack as one block; the
        shapes of every length 0..300, () among them, empty a stack at every
        entry, at every other entry, once, never, or only in the final
        flush, each against ``run_pass``, which pops one entry at a time."""
        allows12 = dotted_policy(DottedPattern(12, 1))
        allows21 = dotted_policy(DottedPattern(21, 1))
        for n in range(301):
            p = shape(n)
            assert sorted(p) == list(identity(n)), p
            assert s12_simulated(p) == run_pass(p, allows12)[0], p
            assert s21_simulated(p) == run_pass(p, allows21)[0], p

    @pytest.mark.parametrize("start", [
        shuffled(50, 1), shuffled(300, 2), shuffled(1000, 3), rotation(300),
    ], ids=["random50", "random300", "random1000", "rotation300"])
    @pytest.mark.parametrize("dotted", DOTTED, ids=["s12", "s21"])
    def test_every_orbit_state(self, start, dotted):
        """Along an orbit the runs shrink to one entry, which the closed
        forms leave in place and a random permutation seldom shows."""
        _, map_id, closed, _ = dotted
        rep = orbit(map_id, start)
        p = start
        for _ in range(rep.tail_length + rep.cycle_length):
            assert_passes_agree(p, [dotted])
            p = closed(p)

    @pytest.mark.parametrize("p", [
        *(rotation(n) for n in (2, 3, 4, 10, 1000)),
        *(near_sorted(n, random.Random(n + k).choices(range(n - 1), k=k))
          for n in (2, 3, 10, 1000) for k in (1, 3, 8)),
    ])
    def test_mostly_one_entry_runs(self, p):
        assert_passes_agree(p)

    @given(near_sorted_st)
    def test_near_sorted(self, p):
        assert_passes_agree(p)

    @given(perm_st)
    def test_largest_entry_lands_last(self, p):
        n = len(p)
        assert s12_closed_form(p)[-1] == n
        assert west_pass(p)[-1] == n


class TestWest:
    def test_anchor(self):
        assert west_recursive((2, 3, 1, 4, 5)) == (2, 1, 3, 4, 5)
        assert west_recursive((2, 3, 4, 1, 5)) == (2, 3, 1, 4, 5)

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_reverse_identity_sorts(self, n):
        assert west_recursive(reverse_identity(n)) == identity(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_oracles_agree_exhaustive(self, n):
        """Both oracles on S_n, then the increasing and decreasing
        permutations of every eighth length from n + 1 up to 300, so the
        eight cases cover every length 2..300.  ``west_pass`` keeps its top
        in a local; those two take only its emitting branch or only its
        pushing one, then flush a stack of one entry or of all of them."""
        for p in all_perms(n):
            assert west_pass(p) == west_recursive(p) == run_pass(p, west_policy())[0]
        for m in range(n + 1, 301, 8):
            up, down = identity(m), reverse_identity(m)
            assert west_pass(up) == run_pass(up, west_policy())[0] == up
            assert west_pass(down) == run_pass(down, west_policy())[0] == up

    @given(st.integers(0, 300).flatmap(lambda n: st.permutations(range(1, n + 1)).map(tuple)))
    @settings(max_examples=200)
    def test_oracles_agree_random(self, p):
        assert west_pass(p) == west_recursive(p) == run_pass(p, west_policy())[0]

    @given(near_sorted_st)
    def test_oracles_agree_near_sorted(self, p):
        assert west_pass(p) == west_recursive(p) == run_pass(p, west_policy())[0]

    @pytest.mark.parametrize("p", [(), (1,)])
    def test_shortest(self, p):
        assert west_pass(p) == west_recursive(p) == run_pass(p, west_policy())[0] == p


class TestApply:
    def test_machine12_anchor(self):
        assert apply(MapId.MACHINE12, (2, 4, 1, 3)) == (2, 1, 3, 4)
        assert apply(MapId.MACHINE12, (1, 2)) == (1, 2)
        assert apply(MapId.MACHINE12, (2, 1)) == (1, 2)

    def test_machine21_anchor(self):
        assert apply(MapId.MACHINE21, (1, 2, 3)) == (1, 2, 3)

    @given(perm_st, st.sampled_from(list(MapId)))
    def test_apply_is_its_oracle(self, p, map_id):
        oracle = {
            MapId.WEST: west_recursive,
            MapId.S12: s12_simulated,
            MapId.S21: s21_simulated,
            MapId.MACHINE12: lambda q: west_recursive(s12_simulated(q)),
            MapId.MACHINE21: lambda q: west_recursive(s21_simulated(q)),
        }[map_id]
        assert apply(map_id, p) == oracle(p)


class TestIteration:
    def test_iterate_anchor(self):
        assert iterate(MapId.S12, (2, 3, 1), 2) == (1, 2, 3)
        assert iterate(MapId.S12, identity(5), 7) == identity(5)
        with pytest.raises(ValueError):
            iterate(MapId.S12, (2, 1), -1)

    @pytest.mark.parametrize("map_id", list(MapId))
    def test_iterate_is_repeated_apply(self, map_id):
        for p in all_perms(5):
            q = p
            for t in range(16):
                assert iterate(map_id, p, t) == q
                q = apply(map_id, q)

    def test_machine12_sorts_S5_in_two(self):
        ident = identity(5)
        for p in all_perms(5):
            assert iterate(MapId.MACHINE12, p, 2) == ident

    def test_sorts_in(self):
        assert sorts_in(MapId.S12, (2, 3, 1), 5) == 2
        assert sorts_in(MapId.S12, (2, 3, 1), 1) is None  # the cap binds
        assert sorts_in(MapId.S21, (2, 1), 4) is None
        with pytest.raises(ValueError):
            sorts_in(MapId.S12, (2, 1), -1)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_everything_sorts_within_n_minus_1(self, n):
        for p in all_perms(n):
            t = sorts_in(MapId.S12, p, n - 1)
            assert t is not None and t <= n - 1

    @pytest.mark.parametrize("n", range(2, 8))
    def test_s21_never_sorts(self, n):
        for p in all_perms(n):
            assert sorts_in(MapId.S21, p, 2 * n) in (None, 0)

    @given(perm_st)
    def test_position_of_one_never_decreases_under_s21(self, p):
        assert s21_closed_form(p).index(1) >= p.index(1)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_insertion_commutes_with_s12(self, n):
        for p in all_perms(n - 1):
            want = s12_closed_form(p)
            for i in range(1, n + 1):
                assert delete_one(s12_closed_form(ins(p, i))) == want


class TestOrbits:
    def test_identity_is_fixed(self):
        rep = orbit(MapId.S12, identity(4))
        assert rep.tail_length == 0
        assert rep.cycle_length == 1
        assert rep.is_periodic_point
        assert rep.reaches_identity_at == 0

    def test_orbit_anchor(self):
        rep = orbit(MapId.S12, (2, 3, 1))
        assert (rep.tail_length, rep.cycle_length, rep.reaches_identity_at) == (2, 1, 2)
        # s21 does not fix the identity: 123 -> 321 -> 321
        rep = orbit(MapId.S21, identity(3))
        assert (rep.tail_length, rep.cycle_length, rep.reaches_identity_at) == (1, 1, 0)
        assert not rep.is_periodic_point

    def test_machine21_fixed_point(self):
        rep = orbit(MapId.MACHINE21, (2, 1, 3))
        assert rep.tail_length == 0 and rep.cycle_length == 1

    @pytest.mark.parametrize("n", range(2, 8))
    def test_ord_s12(self, n):
        assert brute_ord(MapId.S12, n) == n - 1

    def test_ord_machine12(self):
        assert brute_ord(MapId.MACHINE12, 5) == 2


class TestEmptyPermutation:
    @pytest.mark.parametrize("map_id", list(MapId))
    def test_every_map_fixes_the_empty_permutation(self, map_id):
        assert apply(map_id, ()) == ()
        for t in (0, 1, 5):
            assert iterate(map_id, (), t) == ()
        assert sorts_in(map_id, (), 0) == sorts_in(map_id, (), 3) == 0
        rep = orbit(map_id, ())
        assert (rep.tail_length, rep.cycle_length, rep.reaches_identity_at) == (0, 1, 0)
        assert rep.is_periodic_point


# steps whose states a walk is asked for: past the tail of every orbit
# here, they reduce modulo the cycle
KS = (*range(13), 100, 10**6)


def counting(f):
    """f and a list whose length is the number of calls made to f."""
    calls = []

    def counted(p):
        calls.append(None)
        return f(p)

    return counted, calls


def check_walk(f, ident, p, cap):
    """engine._walk against the dict walk: the same identity hit and k-th
    states for every k <= cap; a closed walk has the uncapped orbit's tail,
    cycle and k-th states, and an open one stopped at step cap.
    Returns the pass counts of the two walks and whether each closed."""
    g, calls = counting(f)
    want = dict_walk(g, ident, p, cap)
    oracle_passes = len(calls)
    whole = dict_walk(f, ident, p)
    ks = [k for k in KS if cap is None or k <= cap]
    del calls[:]
    hit, tail, cycle, states = _walk(g, ident, p, cap, ks)
    passes = len(calls)
    assert hit == want[0], (p, cap)
    assert states == tuple(state_at(whole, k) for k in ks), (p, cap)
    if tail is None:
        assert cap is not None and cycle is None, (p, cap)
    else:
        assert (tail, cycle) == whole[1:3], (p, cap)
        states = _walk(f, ident, p, cap, KS)[3]
        assert states == tuple(state_at(whole, k) for k in KS), (p, cap)
    return passes, oracle_passes, tail is not None, want[1] is not None


class Unhashable:
    """A state that a walk may compare but not hash."""

    __slots__ = ("p",)

    def __init__(self, p):
        self.p = p

    def __eq__(self, other):
        return self.p == other.p

    def __hash__(self):
        raise TypeError("a walk hashed a state")


class TestWalk:
    """``engine._walk`` holds O(1) states; the dict walk of the tests, which
    keeps them all, is its oracle."""

    @pytest.mark.parametrize("cap", [None, 0, 1, 3, 7])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_synthetic_maps_are_the_dict_walk(self, seed, cap):
        """One cycle of each length 1..5, the identity at every position."""
        ident = identity(5)
        for ident_at in range(120):
            f = synthetic_map(seed, ident_at)
            for p in all_perms(5):
                check_walk(f, ident, p, cap)

    @pytest.mark.parametrize("cap", [0, 1, 3, 7])
    def test_a_capped_walk_hashes_no_state(self, cap):
        """It compares states only, and gives what it gives on plain ones,
        with the identity in a tree and as the fixed point."""
        ident, ks = identity(5), range(cap + 1)
        for f in (synthetic_map(1, 119), synthetic_map(1, 0)):
            for p in all_perms(5):
                want = _walk(f, ident, p, cap, ks)
                got = _walk(lambda s: Unhashable(f(s.p)), Unhashable(ident), Unhashable(p), cap, ks)
                assert got[:3] == want[:3], (p, cap)
                assert tuple(s.p for s in got[3]) == want[3], (p, cap)

    @pytest.mark.parametrize("map_id", list(MapId))
    def test_maps_are_the_dict_walk(self, map_id):
        """Over S_6, with caps None, 0, 1, n//2 and 2n.  Every orbit here ends
        on a fixed point, so each walk, open or closed, takes the passes of
        the dict walk and closes where it does."""
        n, f = 6, pass_fn(map_id)
        ident = identity(n)
        for cap in (None, 0, 1, n // 2, 2 * n):
            for p in all_perms(n):
                passes, oracle_passes, closed, oracle_closed = check_walk(f, ident, p, cap)
                assert (passes, closed) == (oracle_passes, oracle_closed), (p, cap)


class TestSettledSuffix:
    """``SETTLED``: a state that ends in its map's settled permutation's
    tail past k is mapped to the pass of its first k entries, followed by
    that tail.  The walks drop that tail from every state."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("map_id", sorted(SETTLED))
    def test_no_pass_moves_the_settled_tail(self, map_id, n):
        f, tau = pass_fn(map_id), SETTLED[map_id](n)
        for x in all_perms(n):
            fx, k = f(x), n
            while k and x[k - 1] == tau[k - 1]:
                k -= 1
            for j in range(k, n):
                assert fx == f(x[:j]) + tau[j:], (map_id, x, j)

    def test_the_table(self):
        assert SETTLED[MapId.S21](4) == reverse_identity(4)
        for map_id in (MapId.WEST, MapId.S12, MapId.MACHINE12):
            assert SETTLED[map_id](4) == identity(4)
        assert MapId.MACHINE21 not in SETTLED

    @pytest.mark.parametrize("map_id, x, k, image, tail", [
        (MapId.MACHINE21, (2, 1, 3), 2, (2, 1, 3), identity),
        (MapId.MACHINE21, (2, 1), 0, (1, 2), reverse_identity),
        (MapId.S21, (1, 2), 1, (2, 1), identity),
        (MapId.WEST, (2, 1), 0, (1, 2), reverse_identity),
        (MapId.S12, (2, 1), 0, (1, 2), reverse_identity),
        (MapId.MACHINE12, (2, 1), 0, (1, 2), reverse_identity),
    ])
    def test_witnesses_that_a_tail_moves(self, map_id, x, k, image, tail):
        """No other tail could stand in the table: each state ends in the
        tail past k, but its image is not the pass of x[:k] followed by
        that tail."""
        f = pass_fn(map_id)
        assert x[k:] == tail(len(x))[k:]
        assert f(x) == image != f(x[:k]) + x[k:]


def counted_passes(monkeypatch):
    """Count the calls to each pass by name, and the entries passed."""
    calls = {"passes": 0, "entries": 0}
    for name in set(_PASSES.values()):
        def counted(p, f=getattr(engine, name)):
            calls["passes"] += 1
            calls["entries"] += len(p)
            return f(p)
        monkeypatch.setattr(engine, name, counted)
    return calls


class TestSettledWalk:
    """``_settled_walk`` is the plain walk, field for field, with the same
    passes on shorter states."""

    LENGTHS = (1, 2, 3, 4, 7, 16, 41, 100, 333, 1000)

    @pytest.mark.parametrize("map_id", list(MapId))
    def test_it_is_the_plain_walk(self, map_id, monkeypatch):
        calls = counted_passes(monkeypatch)
        rng = random.Random(20)
        for n in self.LENGTHS:
            p = shuffled(n, rng.randrange(2**31))
            ident = identity(n)
            for cap in (None, 0, 1, n // 2, 2 * n):
                # k-th states up to and past the tail, and past the cap
                ks = [k for k in (0, 1, 2, n // 2, n - 1, n, n + 5, 2 * n, 10**6)
                      if cap is None or k <= cap]
                calls["passes"] = 0
                want = _walk(pass_fn(map_id), ident, p, cap, ks)
                passes = calls["passes"]
                calls["passes"] = 0
                got = _settled_walk(map_id, p, cap, ks)
                assert got == want, (map_id, n, cap)
                assert calls["passes"] == passes, (map_id, n, cap)

    @pytest.mark.parametrize("map_id", sorted(SETTLED))
    def test_a_settled_map_passes_fewer_entries(self, map_id, monkeypatch):
        """The rotation 2..n,1 (its complement for s21) settles one more
        entry with each pass: the walk passes about half the entries of
        the plain one."""
        calls, n = counted_passes(monkeypatch), 300
        p = rotation(n) if SETTLED[map_id] is identity else complement(rotation(n))
        _walk(pass_fn(map_id), identity(n), p)
        plain, calls["entries"] = calls["entries"], 0
        _settled_walk(map_id, p)
        assert calls["entries"] < 0.6 * plain, (map_id, calls["entries"], plain)

    def test_an_unsettled_map_passes_whole_states(self, monkeypatch):
        calls, p = counted_passes(monkeypatch), shuffled(300, 3)
        _walk(pass_fn(MapId.MACHINE21), identity(300), p)
        plain, calls["entries"] = calls["entries"], 0
        _settled_walk(MapId.MACHINE21, p)
        assert calls["entries"] == plain


class TestBoundedMemory:
    """A walk holds O(1) states however long the orbit: at n = 600 the dict
    walk held 1.4 to 2.8 MiB."""

    N = 600
    LIMIT = 200 * 1024  # bytes

    @staticmethod
    def peak_bytes(fn):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("name", [
        "orbit-s12", "orbit-s21", "orbit-m12", "sorts_in-west", "sorts_in-m21", "iterate-s12",
    ])
    def test_long_orbit_peak(self, name):
        n = self.N
        p = list(range(1, n + 1))
        random.Random(600).shuffle(p)
        p = tuple(p)
        walk = {
            "orbit-s12": lambda: orbit(MapId.S12, p),
            "orbit-s21": lambda: orbit(MapId.S21, p),
            "orbit-m12": lambda: orbit(MapId.MACHINE12, p),
            "sorts_in-west": lambda: sorts_in(MapId.WEST, p, n - 1),
            "sorts_in-m21": lambda: sorts_in(MapId.MACHINE21, p, 2 * n),
            "iterate-s12": lambda: iterate(MapId.S12, p, 10**6),
        }[name]
        assert self.peak_bytes(walk) < self.LIMIT

    def test_a_capped_walk_holds_what_an_uncapped_one_does(self):
        """A capped walk keeps nothing per state it walks, so it peaks no
        higher than the uncapped walk of the same orbit."""
        n = self.N
        p = shuffled(n, 600)
        capped = self.peak_bytes(lambda: sorts_in(MapId.WEST, p, n - 1))
        assert capped <= self.peak_bytes(lambda: orbit(MapId.WEST, p)) + 8 * 1024
