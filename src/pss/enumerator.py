"""Exhaustive sweeps over S_n and claim verification.

Every brute-force statistic is one query on one map's functional graph, and
every sweep is made by one primitive, ``_tally``: it walks S_n once and
evaluates several kernels on each permutation, keeping one ``Counter`` of
keys per kernel.  The sweep is columnar.  It visits S_n as the insertions
of 1 into S_{n-1}: each p in S_n is ins(u, i) for exactly one *parent* u
in S_{n-1} and position i (Knuth, TAOCP 4A, 7.2.1.2), so it visits every
parent once too.  It takes each rank range of S_{n-1} in groups of
``CHUNK`` parents and loads each group into its facts (a ``_Facts``):
a dict from a fact's key to its *column*, the list of that fact for each p
of the chunk.  The parents are facts of their own length, ``parents``,
whose column 0 is the group; the chunk's column 0 is the n insertions of
each parent, one ``itemgetter`` gather per position of each parent's
insertion at the front (see ``_inserted``).  A top-level *kernel factory*
``make_kernel(facts, *params)`` asks ``facts``, or ``facts.parents``, for
the keys its kernel reads: orbit walks (the first step at the identity,
tail and cycle of the engine's one walker) and k-th states of orbits, of p
or of the entries of another column.  The kernel maps the facts of a chunk
to an iterable of hashable keys of its permutations, mostly C-level
``map`` calls over ``operator`` functions.  A kernel that asks a yes or
no question gives only its True keys, by ``filter(None, ...)``, and a
fixed-point kernel only the fixed points, by ``compress``, so a Counter
counts only the keys that rows read.  Each Counter is advanced by
``Counter.update(kernel(facts))`` and its size checked against
``KEY_CAP`` after every chunk.  A column, the chunk's included, is made,
with ``map`` over the columns it reads, the first time a kernel reads it,
so each fact is made once per permutation however many kernels read it,
and a sweep whose kernels read only the parents builds no insertion.  A
first state of a permutation is one pass, and so is a parent's second
state, shared by every kernel and walk of that map.  Every walk runs to
the end of the orbit, so a sweep holds at most one walk per map and
walked column, and that walk stores every later k-th state of its map:
k-fold images cost no passes of their own, and past the tail the state at
step k is the one at tail + (k - tail) mod cycle.

A kernel is built once per rank range and may keep state for that range,
provided its key for p depends on p alone, whatever order it sees
permutations in.

A walk is dynamic programming on the map's functional graph: each state
is walked once and memoised on its bytes, as an interned summary (hit,
tail, cycle, the states the kernels read, its cycle's states if it is
periodic).  Every walk is one such memo, a ``_Memo``, of one column,
keyed on each entry, so an entry seen before costs one lookup and no
pass.  A column of distinct permutations, a chunk or its parents, gets
no memo of its own: its walk is the walk of the column of its first
states (the chunk's, walked by the public sweeps) or its second states
(the parents', the lifted s12 walk), shifted back one step per earlier
column, so that memo holds the one-pass or two-pass image of the S_m
walked: (m-1)! or (m-2)! states for s12.  The lifted m12 walk of
x = west(w) holds |west(S_{n-1})| states and makes no pass before its
lookup.  Each walk has its own memo per length and rank range (a worker's
whole share of S_n), dropped with the range, and a memo that reaches
``MEMO_CAP`` states is cleared; no walk of a verification run clears up
to n = 12 (9! and 578,290 states there).  Permutations and their columns
are dropped once their chunk is counted, so no memory grows with n!.

The public brute-force operations are one-kernel calls of ``_tally``, each
reducing its Counter, and a cap on passes applies only in the reduction:
the sort histogram buckets the first identity step up to its cap, exact-t
counts repeat it along the cycle up to theirs, the order is the largest
tail.

``verify`` and ``verify_all`` are one path: a verification run gathers,
for each n, the kernels of every claim at n, and sweeps each S_n once for
all of them.  The five one-pass claims read the chunk: RED, P3_1, P3_5 and
L3_3 compare two things on each p, and T3_6 reads P3_5's s21 column, as
every t-fold s21 image is a one-pass image.  The four m21 claims make
their m21 passes on the parents' lifts and on the p that L4_1's or L4_3's
structural test accepts (see the 21 machine's section).  The six s12 and
m12 orbit and image claims read the parents, by the lifted route (see its
section): each w in S_{n-1} stands for the 2^r preimages of its lift under
an s12 pass, a weight that only the orbit shapes read, as the image claims
compare sets.  So the walks of a sweep are of S_{n-1}, and L3_3's s12
column of the parents is the first state of the lifted s12 walk.  Both
routes rest on facts about the passes, which the tests check exhaustively
up to n = 9 and CI on S_10; the public brute-force operations stay plain
sweeps of S_n, their oracle.
Each claim's rows, its closed forms (from :mod:`pss.formulas`) against
brute force, are then reduced from its Counter into a
:class:`VerificationReport`.

The parents come from half-open rank ranges of S_{n-1}, each a chain of
blocks (see ``iter_range``): one head followed by each arrangement of an
increasing tail, made by ``itertools.permutations``, so unranking happens
only at range starts and ``successor`` only at block starts.  S_{n-1} is
cut into one range per job, but into no more than ceil(n! / ``BLOCK``)
ranges, and the ranges go to worker processes, at most one per core, so a
worker's walk memos last for its whole share of S_n; an S_n of at most
``BLOCK`` permutations is one range and starts no pool.  S_0 = {()} is one
chunk with no parents.  The per-range Counters are
summed, so the outcome is identical for any worker count.  Pool tasks
carry only ints, ``MapId`` values and module-level functions, so they
pickle under any start method.  The pool's module, ``multiprocessing``, is
imported when the first pool starts, so importing pss, and every run that
starts no pool, goes without it.
"""

from __future__ import annotations

import math
import os
import random
from collections import Counter
from itertools import chain, compress, islice, permutations, repeat
from operator import eq, getitem, itemgetter, ne, not_
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import formulas
from .engine import (
    DOTTED_STAGE,
    DottedPattern,
    MapId,
    dotted_policy,
    pass_fn,
    run_pass,
    s12_simulated,
    s21_simulated,
    _walk,
)
from .perms import (
    Perm,
    PermutationError,
    format_perm,
    identity,
    peaks,
    successor,
    unrank,
    valleys,
)


class RankRange(NamedTuple("RankRange", [("n", int), ("lo", int), ("hi", int)])):
    """Half-open slice [lo, hi) of S_n in lexicographic order."""

    __slots__ = ()

    def __new__(cls, n: int, lo: int, hi: int) -> RankRange:
        if not 0 <= lo <= hi <= math.factorial(n):
            raise ValueError(f"invalid rank range [{lo}, {hi}) for S_{n}")
        return super().__new__(cls, n, lo, hi)


def split_ranges(n: int, parts: int) -> list[RankRange]:
    """Partition [0, n!) into at most ``parts`` contiguous ranges."""
    if n < 0:
        raise PermutationError("length must be >= 0")
    total = math.factorial(n)
    parts = max(1, min(parts, total))
    step, extra = divmod(total, parts)  # the first ``extra`` ranges hold one more
    bounds = [i * step + min(i, extra) for i in range(parts + 1)]
    return [RankRange(n, lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def iter_range(r: RankRange) -> Iterator[Perm]:
    """The permutations of ranks lo..hi-1 of S_n, in lexicographic order.

    The range is a chain of blocks.  A permutation p whose last k entries
    increase starts the block of the k! permutations that share its first
    n - k entries: those entries followed by each permutation of its last
    k, which ``itertools.permutations`` of the increasing tail yields in
    lexicographic order.  Each block takes the largest such k with k! no
    more than the ranks left, and the next block starts at the successor
    of the block's last permutation, its head followed by its tail
    reversed.  So a range costs one ``unrank`` and one ``successor`` per
    block, a block costs one C-level ``map`` over ``permutations``, and
    the iterator holds O(n) entries."""
    return chain.from_iterable(_blocks(r.n, r.lo, r.hi - r.lo))


def _blocks(n: int, lo: int, left: int) -> Iterator[Iterator[Perm]]:
    p = unrank(n, lo) if left else ()
    while left:
        k, size = min(n, 1), 1  # S_0's one block is the empty tuple
        while k < n and p[n - k - 1] < p[n - k] and size * (k + 1) <= left:
            k += 1
            size *= k
        head, tail = p[:n - k], p[n - k:]
        yield map(head.__add__, permutations(tail))
        left -= size
        if left:
            p = successor(head + tail[::-1])  # type: ignore[assignment]


# -- the sweep primitive -----------------------------------------------------

GUARD = 12  # largest n swept unless forced: 12! is about 4.8e8 permutations
KEY_CAP = 10**6  # most distinct keys one sweep may hold
MEMO_CAP = 10**6  # most states one walk memo may hold; a full memo is cleared
BLOCK = 4096  # fewest permutations per rank range worth a worker process
CHUNK = 64  # parents per chunk, which holds their n insertions each; the key cap is checked per chunk


class GuardExceeded(ValueError):
    """An exhaustive sweep was requested above ``GUARD`` or holds more than
    ``KEY_CAP`` distinct keys."""


def check_guard(n: int, force: bool = False) -> None:
    if n > GUARD and not force:
        raise GuardExceeded(
            f"exhaustive sweep over S_{n} exceeds the guard (n <= {GUARD}); "
            "pass force (--force on the command line) to override"
        )


class _Memo(dict):
    """The walks of one map from the states it is asked for, keyed on
    ``bytes(x)`` for each state x: x's *summary*, (identity hit, tail,
    cycle, x's k-th state for each k in ``ks``, x's *loop* if x is periodic
    (tail 0), else None), from ``engine._walk``.  The loop is the tuple of
    the states of x's cycle from x on.  A miss walks x to the end of its
    orbit, and a periodic x around its cycle once more, and interns the
    summary; a memo of ``MEMO_CAP`` summaries is cleared first.  A hit is
    one C-level lookup."""

    def __init__(self, f: Callable[[Perm], Perm], ident: Perm, ks: Sequence[int]) -> None:
        super().__init__()
        self.f, self.ident, self.ks = f, ident, ks
        self.interned: dict[tuple, tuple] = {}

    def __missing__(self, key: bytes) -> tuple:
        if len(self) >= MEMO_CAP:
            self.clear()
            self.interned.clear()
        x = tuple(key)
        hit, tail, cycle, states = _walk(self.f, self.ident, x, None, self.ks)
        loop = None
        if tail == 0:
            loop = [x]
            while len(loop) < cycle:
                loop.append(self.f(loop[-1]))
            loop = tuple(loop)
        s = (hit, tail, cycle, *states, loop)
        s = self[key] = self.interned.setdefault(s, s)
        return s


def _shift(p: Perm, ident: Perm, s: tuple) -> tuple:
    """p's summary from ``s``, that of its first state q: p's hit and tail
    are q's one step later and its cycle is q's, unless p is the last state
    of q's loop: p is then periodic, and its loop starts at p."""
    hit, tail, cycle, loop = s[0], s[1], s[2], s[-1]
    hit = 0 if p == ident else None if hit is None else hit + 1
    if loop is not None and p == loop[-1]:
        return (hit, 0, cycle) + s[3:-1] + ((p,) + loop[:-1],)
    return (hit, tail + 1, cycle) + s[3:-1] + (None,)


LIFT = "lift"  # the chunk's column of the insertions of 1 at the end: its parents' lifts


class _Facts(dict):
    """What the kernels of one sweep of S_n share about each permutation p
    of the current chunk: a dict from a fact's key to its column, that fact
    of every p of the chunk in the chunk's order.  The chunk's parents in
    S_{n-1} are facts of their own length, ``parents`` (none at n = 0),
    with their own identity and walks but no parents of their own;
    ``load`` starts a chunk with them alone.  Key 0 holds the chunk, the n
    insertions of each parent (see ``_inserted``), so that its j-th p has
    parent ``(parents[0] * n)[j]``; at n = 0 it is S_0 = [()].  Key
    ``LIFT`` holds its last insertions, the parents' lifts inc(w).1.  A
    fact is a walk or a state of a map, and may be asked of the entries of
    another column, ``of`` (the chunk by default), rather than of p
    itself.

    * ``walk(map_id, of)``, key ``(map_id, None, of)``: the walk record, a
      ``_Memo`` summary: ``engine._walk``'s (identity hit, tail, cycle) of
      the whole orbit, the later states the walk stores, then the loop.
    * ``state(map_id, k, of)``, key ``(map_id, k, of)``: the k-th state of
      the orbit.  The 0-th is the entry itself, key ``of``.  A state of the
      entries of column 0 or ``LIFT`` is one pass of the state before it,
      and a machine's first state is the west pass of its dotted stage's
      first state (so m12(p) and m21(p) reuse s12(p) and s21(p)).  Column
      0's k-th states past the ``depth``-th are the (k - depth)-th states
      of the column of its ``depth``-th states.  Every state of the entries
      of another column is stored by their walk.

    A column, the chunk's included, is made, by ``map`` over the columns it
    reads, the first time a kernel reads it, so each fact is made once per
    p, however many kernels read it, and only if one does: a sweep whose
    kernels read only the parents builds no insertion.  A walk is made on
    its first read, once every kernel is built and has asked for the states
    it stores, and lives as long as these facts, which a sweep makes once
    per rank range.  Every walk but column 0's is a ``_Memo`` of a column,
    one per map and walked column, keyed on each entry: an entry seen
    before costs one lookup and no pass.  Column 0 holds distinct
    permutations, so its walk is that of the column of its ``depth``-th
    states, shifted back one step per earlier column (see ``_shift``): the
    first states for the chunk, whose walks are those of the public sweeps,
    and the second for the parents, whose s12 walk is the lifted one, so
    that its memo holds (n-3)! states, not (n-2)!.
    """

    def __init__(self, n: int, depth: int = 1) -> None:
        super().__init__()
        self.n, self.ident, self.depth = n, identity(n), depth
        # only the chunk's facts have parents, and gathers to insert into them
        chunk = n and depth == 1
        self.parents = _Facts(n - 1, 2) if chunk else None
        self._gathers = _gathers(n) if chunk else None
        # (map, walked column) -> the k of the states its walk stores
        self._stored: dict[tuple, list[int]] = {}
        self._walks: dict[tuple, _Memo] = {}

    def walk(self, map_id: MapId, of: Hashable = 0) -> tuple:
        return (map_id, None, of)

    def state(self, map_id: MapId, k: int, of: Hashable = 0) -> Hashable:
        if of == 0 and k > self.depth:
            return self.state(map_id, k - self.depth, self.state(map_id, self.depth))
        if k and of not in (0, LIFT):
            stored = self._stored.setdefault((map_id, of), [])
            if k not in stored:
                stored.append(k)
        return of if k == 0 else (map_id, k, of)

    def load(self, parents: list[Perm]) -> None:
        """Start the chunk of the insertions of ``parents``: every column
        is made as read."""
        self.clear()
        if self.n:
            self.parents.clear()
            self.parents[0] = parents

    def __missing__(self, fact: Hashable) -> list:
        if fact == 0:
            self[0] = column = _inserted(self.parents[0], self._gathers) if self.n else [()]
            return column
        if fact == LIFT:
            return self.setdefault(LIFT, self[0][(self.n - 1) * len(self.parents[0]):])
        map_id, k, of = fact
        if k is None:
            column = self._walked(map_id, of)
        elif of not in (0, LIFT):
            at = itemgetter(3 + self._stored[map_id, of].index(k))
            column = list(map(at, self[(map_id, None, of)]))
        elif k == 1 and map_id in DOTTED_STAGE:
            column = list(map(pass_fn(MapId.WEST), self[(DOTTED_STAGE[map_id], 1, of)]))
        else:
            column = list(map(pass_fn(map_id), self[self.state(map_id, k - 1, of)]))
        self[fact] = column
        return column

    def _walked(self, map_id: MapId, of: Hashable) -> list[tuple]:
        if of == 0:
            walks = self[self.walk(map_id, self.state(map_id, self.depth))]
            for k in reversed(range(self.depth)):
                walks = list(map(_shift, self[self.state(map_id, k)], repeat(self.ident), walks))
            return walks
        memo = self._walks.get((map_id, of))
        if memo is None:
            memo = self._walks[map_id, of] = _Memo(
                pass_fn(map_id), self.ident, self._stored.get((map_id, of), ()))
        return list(map(memo.__getitem__, map(bytes, self[of])))


def _check_cap(counts: Counter) -> None:
    if len(counts) > KEY_CAP:
        raise GuardExceeded(
            f"sweep has more than {KEY_CAP} distinct results; use a smaller n "
            "or a larger power"
        )


def _run(worker: Callable, tasks: list, jobs: int) -> list:
    """``worker`` over ``tasks``, in a pool of one process per job, but of no
    more than one per task or per core; with one or none, in this process.
    The tasks do not depend on the pool, so neither does the outcome."""
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(t) for t in tasks]
    import multiprocessing  # by the first pool only (see the module docstring)

    with multiprocessing.Pool(workers) as pool:
        return pool.map(worker, tasks)


def _gathers(n: int) -> list[itemgetter]:
    """For each position i = 2..n, the ``itemgetter`` that makes ins(u, i)
    from (1, *inc(u)), the insertion of 1 at position 1: it takes the
    shifted entries before position i, then the 1, then the rest.  Each
    takes n >= 2 indices, so it gives a tuple."""
    return [itemgetter(*range(1, i), 0, *range(i, n)) for i in range(2, n + 1)]


def _inserted(parents: list[Perm], gathers: list[itemgetter]) -> list[Perm]:
    """ins(u, i) for each position i = 1..n and each u of ``parents`` in
    S_{n-1}, position-major, so ``parents * n`` lines up with them.  Each
    parent is built once as (1, *inc(u)), its insertion at position 1, and
    each later position's insertions are one gather of those (``gathers``
    is ``_gathers(n)``)."""
    ones = [(1, *map((1).__add__, u)) for u in parents]
    out = ones.copy()
    for at in gathers:
        out += map(at, ones)
    return out


def _insertions(n: int, lo: int, hi: int) -> Iterator[list[Perm]]:
    """The parents of each chunk of S_n: the ranks lo..hi-1 of S_{n-1},
    ``CHUNK`` at a time.  S_0 = {()} is one chunk of no parents."""
    if not n:
        yield []
        return
    parents = iter_range(RankRange(n - 1, lo, hi))
    for _ in range(lo, hi, CHUNK):
        yield list(islice(parents, CHUNK))


def _tally_range(task: tuple) -> list[Counter]:
    n, lo, hi, specs = task
    facts = _Facts(n)
    tallies = [(Counter(), make_kernel(facts, *params)) for make_kernel, params in specs]
    for parents in _insertions(n, lo, hi):
        facts.load(parents)
        for c, kernel in tallies:
            c.update(kernel(facts))
            _check_cap(c)
    return [c for c, _ in tallies]


def _split(n: int, jobs: int) -> list[RankRange]:
    """The rank ranges of S_{n-1} (of S_0 at n = 0) whose parents and their
    insertions a sweep of S_n takes, one per task.  There is one per job,
    so a worker's memos last for its whole share, but no more than
    ceil(n! / ``BLOCK``): an S_n of at most ``BLOCK`` permutations is one
    range, so it starts no pool."""
    return split_ranges(max(n - 1, 0), min(jobs, -(-math.factorial(n) // BLOCK)))


def _tally(n: int, jobs: int, specs: list[tuple]) -> list[Counter]:
    """For each kernel spec ``(make_kernel, params)``, the Counter of the
    keys that ``make_kernel(facts, *params)`` gives the permutations of S_n,
    or their parents in S_{n-1}, all from one sweep.  Equal specs are one
    kernel and share one Counter."""
    totals = {spec: Counter() for spec in specs}
    tasks = [(n, r.lo, r.hi, list(totals)) for r in _split(n, jobs)]
    for counts in _run(_tally_range, tasks, jobs):
        for total, c in zip(totals.values(), counts):
            total.update(c)
    for total in totals.values():
        _check_cap(total)
    return [totals[spec] for spec in specs]


# -- kernel factories (top level so they pickle) ------------------------------
#
# A factory asks ``facts`` for the keys its kernel reads; the kernel reads
# their columns from one chunk's facts and gives the keys of the chunk's
# permutations.  A yes-or-no kernel gives only its True keys, read at
# ``[True]``.

Kernel = Callable[[_Facts], Iterable[Hashable]]


def _orbit_shape(facts: _Facts, map_id: MapId) -> Kernel:
    """The orbit's (identity hit, tail, cycle) (see ``engine._walk``)."""
    walk, shape = facts.walk(map_id), itemgetter(slice(3))
    return lambda cols: map(shape, cols[walk])


def _image(facts: _Facts, map_id: MapId, k: int) -> Kernel:
    """The k-fold image: its fact column itself."""
    return itemgetter(facts.state(map_id, k))


def _sorted_by(facts: _Facts, map_id: MapId) -> Kernel:
    """Whether one pass sorts the permutation."""
    image, ident = facts.state(map_id, 1), facts.ident
    return lambda cols: filter(None, map(eq, cols[image], repeat(ident)))


def _fixed_point(facts: _Facts, map_id: MapId) -> Kernel:
    """The permutations that one pass fixes."""
    image = facts.state(map_id, 1)
    return lambda cols: compress(cols[0], map(eq, cols[0], cols[image]))


def _closed_vs_simulated(facts: _Facts, map_id: MapId) -> Kernel:
    """Whether the dotted map's pass (its closed form) differs from its
    simulated stack."""
    closed = facts.state(map_id, 1)
    simulated = s12_simulated if map_id is MapId.S12 else s21_simulated
    return lambda cols: filter(None, map(ne, cols[closed], map(simulated, cols[0])))


def _dot_variants_differ(facts: _Facts) -> Kernel:
    """Whether the two dot placements of either base pattern give different
    pass outputs, i.e. ``run_pass(p, one)[0] != run_pass(p, two)[0]`` for
    ``one, two = dotted_policy(DottedPattern(base, 1))``, ``(base, 2)``.

    A base whose two placements are one predicate object makes one pass of
    every p, so it cannot differ and runs no pass; any other base runs its
    two passes on each p.  ``engine.dotted_policy`` gives each base one
    object, so this kernel keys every p False with no pass and no Python
    call per p: it gives no key at all."""
    pairs = [(dotted_policy(DottedPattern(base, 1)), dotted_policy(DottedPattern(base, 2)))
             for base in (12, 21)]
    pairs = [(one, two) for one, two in pairs if one is not two]
    if not pairs:
        return lambda cols: ()

    def differ(p: Perm) -> bool:
        return any(run_pass(p, one)[0] != run_pass(p, two)[0] for one, two in pairs)

    return lambda cols: filter(None, map(differ, cols[0]))


_UP = bytes(range(1, 256)) + b"\0"  # bytes.translate table: each entry below 255 up by one


def _deletion_differs(facts: _Facts) -> Kernel:
    """Whether q in S_n, sorted by one s12 pass and with its 1 deleted,
    differs from q's parent p, sorted.  q is ins(p, i) for exactly one p in
    S_{n-1} and position i, so this is L3_3's
    ``delete_one(s12(ins(p, i))) != s12(p)`` for that pair, read shifted up
    by one: s12(q) without its 1 against s12(p) with every entry plus one.
    Both are bytes, so that the 1 is removed and the entries shifted by
    C-level calls, and s12(p) is shifted once per parent, not once per
    insertion.  It reads the s12 column of the chunk, which P3_1 reads too,
    and that of the parents, one pass per n insertions, repeated to line up
    with the chunk.  The lifted s12 walk starts from that column of the
    parents too."""
    sorted_q, n = facts.state(MapId.S12, 1), facts.n
    sorted_p = facts.parents.state(MapId.S12, 1)

    def kernel(cols: _Facts) -> Iterable[Hashable]:
        shifted = list(map(bytes.translate, map(bytes, cols.parents[sorted_p]), repeat(_UP)))
        deleted = map(bytes.replace, map(bytes, cols[sorted_q]), repeat(b"\x01"), repeat(b""))
        return filter(None, map(ne, deleted, shifted * n))

    return kernel


def _insertion_miss(facts: _Facts, t: int) -> Kernel:
    """Whether p in S_m is t-sortable under s12 yet does not have exactly
    t+1 of its m+1 insertions t-sortable.  p is loaded as the one parent of
    a chunk of the kernel's own facts over S_{m+1}, kept for its rank range,
    so the walks of all insertions share one memo.  Only the t-sortable p
    have their insertions made and walked."""
    parent, m = facts.walk(MapId.S12), facts.n
    children = _Facts(m + 1)
    child = children.walk(MapId.S12)

    def miss(p: Perm, walk: tuple) -> bool:
        hit = walk[0]
        if hit is None or hit > t:
            return False
        children.load([p])
        return sum(c[0] is not None and c[0] <= t for c in children[child]) != t + 1

    return lambda cols: filter(None, map(miss, cols[0], cols[parent]))


# -- the lifted route: orbit and image facts of S_n from its sweep's parents --
#
# One s12 pass reverses each peak run, so its image of S_n is the lift w.n
# of S_{n-1}, and the lift of w has 2^r preimages, r = len(peaks(w)) the
# number of w's peak runs: one for each choice of cuts after the lift's
# left-to-right maxima, the last cut forced.  The lift commutes with s12
# and west, so with m12.  So the orbit of each preimage p continues as the
# lift of the orbit of x = w (s12) or x = west(w) (m12), and p's k-th state
# is the lift of x's (k-1)-th.  Each w in S_{n-1} is a parent of the sweep
# of S_n, once, so these kernels read only the parents' facts, where x's
# walk compares its states with S_{n-1}'s identity.  The s12 walk of w is
# memoised on w's second state, the m12 walk of west(w) on west(w) itself,
# which also stores every m12 state of it that the image kernel reads, the
# first included (see ``_Facts``).  The shape kernel keys
# each w by what its preimages share and by r, and its reduction
# multiplies each count by 2^r, so ``Counter.update`` stays C-level.  An
# image claim compares sets, so the image kernel keys w by the state alone.


def _lifted_source(parents: _Facts, map_id: MapId) -> Hashable:
    """The column of x in the parents' facts: w itself for s12, west(w) for
    m12, which repeats its entries, so that x's walk is memoised on x."""
    return 0 if map_id is MapId.S12 else parents.state(MapId.WEST, 1)


def _lifted_shape(facts: _Facts, map_id: MapId) -> Kernel:
    """Orbit shapes of s12 or m12 over S_n, keyed by each parent w: x's
    orbit shape, r, and x if it is periodic (tail 0), else None."""
    x = _lifted_source(facts.parents, map_id)
    walk = facts.parents.walk(map_id, x)
    shape, tail = itemgetter(slice(3)), itemgetter(1)

    def keys(cols: _Facts) -> Iterable[Hashable]:
        cols = cols.parents
        # (None, x)[tail == 0]
        return zip(map(shape, cols[walk]), map(len, map(peaks, cols[0])),
                   map(getitem, zip(repeat(None), cols[x]), map(not_, map(tail, cols[walk]))))

    return keys


def _lifted_image(facts: _Facts, map_id: MapId, k: int) -> Kernel:
    """k-fold images of s12 or m12 over S_n, k >= 1: the (k-1)-th state of
    the orbit of each parent's x."""
    state = facts.parents.state(map_id, k - 1, _lifted_source(facts.parents, map_id))
    return lambda cols: cols.parents[state]


def _shapes_from_lift(lifted: Counter, n: int, map_id: MapId) -> Counter:
    """The Counter of map_id's orbit shapes over S_n from ``_lifted_shape``'s,
    keyed by the parents in S_{n-1}.

    A preimage p of x's lift has x's walk shifted by one step, since the
    lift of S_{n-1}'s identity is S_n's: its hit is x's plus one, its tail
    x's plus one, its cycle x's.  Two kinds of p differ.
    One preimage of a periodic x's lift is on its cycle, so its tail is 0;
    the periodic x are counted once each, whatever number of w share them.
    And the identity's hit is 0: it is walked here, in S_n, and its first
    state reaches it again iff it is periodic, after cycle - 1 passes."""
    ident = identity(n)
    shapes: Counter = Counter()
    periodic = set()
    for ((hit, tail, cycle), runs, x), count in lifted.items():
        hit = None if hit is None else hit + 1
        shapes[hit, tail + 1, cycle] += count << runs
        if x is not None:
            periodic.add((x, hit, cycle))
    for _, hit, cycle in periodic:
        shapes[hit, 1, cycle] -= 1
        shapes[hit, 0, cycle] += 1
    _, tail, cycle = _walk(pass_fn(map_id), ident, ident)[:3]
    shapes[cycle if tail == 0 else None, tail, cycle] -= 1
    shapes[0, tail, cycle] += 1
    return Counter({shape: c for shape, c in shapes.items() if c})


def _images_from_lift(lifted: Counter) -> set[Perm]:
    """The set of k-fold images over S_n from ``_lifted_image``'s Counter,
    keyed by the parents in S_{n-1}: each state lifted."""
    return {s + (len(s) + 1,) for s in lifted}


# -- the 21 machine: its four claims from the lifts of the sweep's parents --
#
# An s21 pass reverses each valley run, so its image of S_n is the lifts
# y = inc(w).1 of the parents w, each with 2^r preimages, r the number of
# w's left-to-right minima.  So m21(p) = west(y) for every preimage p of y:
# one west pass per parent, on ``LIFT``.  The p that m21 sorts, set A of
# L4_1 and T4_2, are the preimages of the y with west(y) = id, keyed by y.
# The p that m21 fixes, set A of L4_3 and T4_4, are the x = west(y) with
# s21(x) = y, each keyed by the one parent of its s21 image.  Set B, the p
# that the claim's structural test accepts, is tested on every p, and only
# its members make an m21 pass, keyed True if p is in A, else False: so
# |A ^ B| = |A| + #False - #True, what a comparison on each p counts.


def _machine21_sorts(facts: _Facts) -> Kernel:
    """The lifts y with west(y) = id, and whether m21 sorts each p that
    ``is_machine21_sortable`` accepts."""
    west, m21, ident = facts.state(MapId.WEST, 1, LIFT), pass_fn(MapId.MACHINE21), facts.ident
    sorts, sortable = (lambda p: m21(p) == ident), formulas.is_machine21_sortable
    return lambda cols: chain(compress(cols[LIFT], map(eq, cols[west], repeat(ident))),
                              map(sorts, compress(cols[0], map(sortable, cols[0]))))


def _machine21_fixes(facts: _Facts) -> Kernel:
    """The x = west(y) with s21(x) = y over the lifts y, and whether m21
    fixes each p that ``is_machine21_fixed_shape`` accepts."""
    west, s21, m21 = facts.state(MapId.WEST, 1, LIFT), pass_fn(MapId.S21), pass_fn(MapId.MACHINE21)
    fixes, shaped = (lambda p: m21(p) == p), formulas.is_machine21_fixed_shape
    return lambda cols: chain(compress(cols[west], map(eq, map(s21, cols[west]), cols[LIFT])),
                              map(fixes, compress(cols[0], map(shaped, cols[0]))))


def _sorts_from_lift(counts: Counter) -> int:
    """|A| from ``_machine21_sorts``'s keys: 2^r for each y, r = LRmin(y) - 1."""
    return sum(c << len(valleys(y)) - 1 for y, c in counts.items() if type(y) is tuple)


def _fixed_from_lift(counts: Counter) -> int:
    """|A| from ``_machine21_fixes``'s keys: one for each x."""
    return sum(type(x) is tuple for x in counts)


# -- public brute-force operations -------------------------------------------


def _shapes(map_id, n, jobs, force) -> Counter:
    """Counter of orbit shapes (identity hit, tail, cycle) over S_n."""
    check_guard(n, force)
    return _tally(n, jobs, [(_orbit_shape, (MapId(map_id),))])[0]


def _check_pass_count(t_cap: int) -> None:
    if t_cap < 0:
        raise ValueError("pass count must be nonnegative")


def _histogram(shapes: Counter, t_cap: int) -> tuple[list[int], int]:
    """(buckets[0..t_cap], never) of the identity hits in orbit shapes; a
    hit past ``t_cap`` counts as never."""
    hits: Counter = Counter()
    for (hit, _, _), c in shapes.items():
        hits[hit] += c
    buckets = [hits[t] for t in range(t_cap + 1)]
    return buckets, sum(shapes.values()) - sum(buckets)


def _exact_counts(shapes: Counter, t_cap: int) -> list[int]:
    """counts[t] = how many orbits are at the identity at step t."""
    counts = [0] * (t_cap + 1)
    for (hit, tail, cycle), c in shapes.items():
        if hit is not None and hit <= t_cap:  # the identity recurs only if it is on the cycle
            for t in range(hit, t_cap + 1, cycle) if hit >= tail else (hit,):
                counts[t] += c
    return counts


def sort_histogram(
    map_id: MapId, n: int, t_cap: int, jobs: int = 1, force: bool = False
) -> tuple[list[int], int]:
    """Minimal-sort-count histogram over S_n: (buckets[0..t_cap], never)."""
    _check_pass_count(t_cap)
    return _histogram(_shapes(map_id, n, jobs, force), t_cap)


def exact_sortable_counts(
    map_id: MapId, n: int, t_cap: int, jobs: int = 1, force: bool = False
) -> list[int]:
    """counts[t] = #{p in S_n : t-fold image of p is the identity}."""
    _check_pass_count(t_cap)
    return _exact_counts(_shapes(map_id, n, jobs, force), t_cap)


def brute_t_sortable(
    map_id: MapId, n: int, t: int, jobs: int = 1, force: bool = False
) -> int:
    """Count permutations of length n whose t-fold image is the identity.

    For maps that fix the identity this is the usual "sorted within t
    passes"."""
    return exact_sortable_counts(map_id, n, t, jobs, force)[t]


def brute_machine_sortable(
    machine: MapId, n: int, jobs: int = 1, force: bool = False
) -> int:
    """Count permutations of length n that one pass of ``machine`` sorts."""
    check_guard(n, force)
    return _tally(n, jobs, [(_sorted_by, (MapId(machine),))])[0][True]


def brute_fixed_points(
    machine: MapId, n: int, collect: bool = False, jobs: int = 1, force: bool = False
) -> tuple[int, Optional[list[Perm]]]:
    """Fixed points of ``machine`` in S_n: their count and, with ``collect``,
    the list in lexicographic order."""
    check_guard(n, force)
    points = _tally(n, jobs, [(_fixed_point, (MapId(machine),))])[0]
    found = sorted(points)
    return len(found), (found if collect else None)


def brute_image(
    map_id: MapId, n: int, k: int, jobs: int = 1, force: bool = False
) -> set[Perm]:
    """{k-fold image of p : p in S_n} as a set."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    check_guard(n, force)
    return set(_tally(n, jobs, [(_image, (MapId(map_id), k))])[0])


def brute_ord(map_id: MapId, n: int, jobs: int = 1, force: bool = False) -> int:
    """Largest orbit tail over S_n, computed exhaustively: the least k after
    which every permutation has landed on a periodic point."""
    return max(tail for _, tail, _ in _shapes(map_id, n, jobs, force))


def insertion_positions_property(n: int, t: int, force: bool = False) -> bool:
    """True iff every t-sortable p in S_{n-1} has exactly t+1 of its n
    insertions t-sortable under the base-12 map."""
    if not 1 <= t < n:
        raise ValueError("need 1 <= t < n")
    check_guard(n, force)
    return not _tally(n - 1, 1, [(_insertion_miss, (t,))])[0][True]


def _w_random_agreement(args) -> int:
    """Failures of closed-form vs simulated agreement on random permutations;
    lengths are drawn log-uniformly in [1, n_max].  Both passes come from
    ``engine.pass_fn``, as the sweep's do."""
    count, n_max, seed = args
    s12, s21 = pass_fn(MapId.S12), pass_fn(MapId.S21)
    rng = random.Random(seed)
    log_max = math.log(n_max)
    bad = 0
    for _ in range(count):
        n = min(n_max, max(1, int(round(math.exp(rng.uniform(0.0, log_max))))))
        vals = list(range(1, n + 1))
        rng.shuffle(vals)
        p = tuple(vals)
        if s12(p) != s12_simulated(p):
            bad += 1
        if s21(p) != s21_simulated(p):
            bad += 1
    return bad


def random_agreement_failures(
    count: int, n_max: int, seed: int = 0, jobs: int = 1
) -> int:
    """Closed-form vs simulated disagreements over ``count`` random
    permutations of log-uniform length up to ``n_max``.  The permutations
    are drawn in tasks of at most ``BLOCK``, task i seeded ``seed + i``, so
    the sample does not depend on ``jobs``."""
    tasks = [(min(BLOCK, count - lo), n_max, seed + i)
             for i, lo in enumerate(range(0, count, BLOCK))]
    return sum(_run(_w_random_agreement, tasks, jobs))


# -- claim verification ------------------------------------------------------


class Row(NamedTuple):
    """One check of a claim at n: the expected and observed values, each
    formatted injectively (an int's digits, a permutation, or a set's
    sorted permutations), so the row passes iff they are equal."""

    n: int
    param: str
    expected: str
    observed: str

    @property
    def passed(self) -> bool:
        return self.expected == self.observed


class VerificationReport(NamedTuple):
    """A claim's rows over n_min..n_max."""

    claim: str
    n_min: int
    n_max: int
    rows: tuple[Row, ...] = ()

    @property
    def overall_pass(self) -> bool:
        """Whether every row passes; a report without rows checked nothing,
        so it does not pass."""
        return bool(self.rows) and all(r.passed for r in self.rows)

    def to_dict(self) -> dict:
        """JSON document of the claim, its range and its rows, the same
        bytes for any worker count."""
        return {
            "claim": self.claim,
            "params": {"n_min": self.n_min, "n_max": self.n_max},
            "rows": [{**r._asdict(), "pass": r.passed} for r in self.rows],
            "overall_pass": self.overall_pass,
        }


def _perm_set_str(ps: set[Perm]) -> str:
    return " | ".join(format_perm(p) for p in sorted(ps))


def _count_row(n: int, param: str, expected: int, observed: int) -> Row:
    return Row(n, param, str(expected), str(observed))


def _set_row(n: int, param: str, expected: set[Perm], observed: set[Perm]) -> Row:
    return Row(n, param, _perm_set_str(expected), _perm_set_str(observed))


def _zero_rows(n, label, make_kernel, *params):
    """One row: the permutations of S_n that the kernel keys True, its
    mismatches, expected to number zero.  For L3_3 each q in S_n is one
    insertion q = ins(p, i) into its parent p, so a failing L3_3 row counts
    failing pairs (p, i)."""
    return (make_kernel, params), lambda bad: [_count_row(n, label, 0, bad[True])]


def _shapes_at(n, map_id, rows):
    """(kernel spec, rows of its Counter) for ``rows`` of the Counter of
    map_id's orbit shapes over S_n, lifted from the sweep's parents."""
    return (_lifted_shape, (map_id,)), lambda lifted: rows(_shapes_from_lift(lifted, n, map_id))


def _rows_t34(n):
    def rows(shapes):
        buckets, _ = _histogram(shapes, n)
        return [
            _count_row(n, f"t={t}", formulas.count_t_sortable_s12(n, t), sum(buckets[: t + 1]))
            for t in range(1, n + 1)
        ]

    return _shapes_at(n, MapId.S12, rows)


def _rows_m21(n, label, make_kernel, size, count=None):
    """An m21 claim's row: |A| against the closed form named ``count``, or
    else |A ^ B| against zero."""
    if count:
        return (make_kernel, ()), lambda c: [_count_row(n, label, getattr(formulas, count)(n), size(c))]
    return (make_kernel, ()), lambda c: [_count_row(n, label, 0, size(c) + c[False] - c[True])]


def _rows_t36(n):
    """T3_6's rows from whether one s21 pass sorts p.  A t-fold image is a
    one-pass image, and an identity that one pass fixes is its own only
    preimage.  So if one pass sorts as many p as [s21(id) == id], found by
    one pass on the identity, t passes sort as many for every t >= 1.
    Otherwise the claim fails already at t = 1, and the rows read the exact
    counts of a plain sweep of S_n's s21 orbits, so a failing row is still
    a brute-force count."""
    def rows(sorts):
        ident = identity(n)
        fixed = int(pass_fn(MapId.S21)(ident) == ident)
        if sorts[True] == fixed:
            counts = [fixed] * (2 * n + 1)
        else:
            counts = _exact_counts(_shapes(MapId.S21, n, 1, True), 2 * n)
        expected = formulas.count_t_sortable_s21(n)
        return [_count_row(n, f"t={t}", expected, counts[t]) for t in range(1, 2 * n + 1)]

    return (_sorted_by, (MapId.S21,)), rows


def _rows_c51_min(n):
    def rows(shapes):
        slowest = sum(c for (hit, _, _), c in shapes.items() if hit == n - 1)
        return [_count_row(n, "exactly n-1 sorts", formulas.count_min_sorted_s12(n), slowest),
                _count_row(n, "ord", n - 1, max(tail for _, tail, _ in shapes))]

    return _shapes_at(n, MapId.S12, rows)


def _rows_c51_high(n):
    def rows(shapes):
        buckets, _ = _histogram(shapes, n)
        observed = sum(buckets[: n - 1])
        return [_count_row(n, "within n-2 sorts", formulas.count_highly_sorted_s12(n), observed)]

    return _shapes_at(n, MapId.S12, rows)


def _rows_t52(n):
    k = formulas.s12_terminal_power(n)

    def rows(images):
        return [_set_row(n, f"power={k}", formulas.image_s12_power(n), images)]

    return (_lifted_image, (MapId.S12, k)), lambda lifted: rows(_images_from_lift(lifted))


def _rows_l53(n):
    bound = formulas.machine12_bound(n)

    def rows(shapes):
        _, never = _histogram(shapes, bound)
        return [_count_row(n, f"not sorted within {bound} machine passes", 0, never)]

    return _shapes_at(n, MapId.MACHINE12, rows)


def _rows_t54(n):
    k = formulas.machine12_terminal_power(n)

    def rows(images):
        out = [_set_row(n, f"power={k}", formulas.image_machine12(n), images)]
        families = ["even"] if n % 2 == 0 else ["cycle", "pi213", "pi132", "pi312"]
        for fam in families:
            _, target, actual = formulas.machine12_witness_check(fam, n)
            out.append(Row(n, f"witness {fam}", format_perm(target), format_perm(actual)))
        return out

    return (_lifted_image, (MapId.MACHINE12, k)), lambda lifted: rows(_images_from_lift(lifted))


# claim -> (least n, builder, *builder arguments).  For one n, a builder
# gives the spec of the claim's kernel on the sweep of S_n and the function
# from the kernel's Counter to the rows.  Every claim at n rides on that one
# sweep.  The five one-pass claims read its chunk: the four that compare two
# things on each p, whose zero-mismatch rows share one builder and differ by
# its arguments, and T3_6.  The four m21 claims share one builder too: T4_2
# reads L4_1's kernel, T4_4 L4_3's.  The six s12 and m12 orbit and image
# claims read its parents in S_{n-1}, by the lifted route.
_CLAIMS: dict[str, tuple] = {
    "RED": (1, _zero_rows, "dot-variant mismatches", _dot_variants_differ),
    "P3_1": (1, _zero_rows, "closed vs simulated mismatches", _closed_vs_simulated, MapId.S12),
    "P3_5": (1, _zero_rows, "closed vs simulated mismatches", _closed_vs_simulated, MapId.S21),
    "L3_3": (2, _zero_rows, "insertion commutation failures", _deletion_differs),
    "T3_4": (1, _rows_t34),
    "T3_6": (1, _rows_t36),
    "L4_1": (1, _rows_m21, "characterization mismatches", _machine21_sorts, _sorts_from_lift),
    "T4_2": (1, _rows_m21, "machine-sortable", _machine21_sorts, _sorts_from_lift,
             "count_machine21_sortable"),
    "L4_3": (1, _rows_m21, "shape-predicate mismatches", _machine21_fixes, _fixed_from_lift),
    "T4_4": (1, _rows_m21, "fixed points", _machine21_fixes, _fixed_from_lift,
             "count_machine21_fixed_points"),
    "C5_1_min": (2, _rows_c51_min),
    "C5_1_high": (2, _rows_c51_high),
    "T5_2": (4, _rows_t52),
    "L5_3": (2, _rows_l53),
    "T5_4": (4, _rows_t54),
}

CLAIM_IDS = tuple(_CLAIMS)


def _verify(
    claims: Sequence[str], n_min: int, n_max: int, jobs: int, force: bool
) -> list[VerificationReport]:
    """Reports of ``claims`` over n_min..n_max, from one sweep of each S_n
    that some claim has rows at.  Each report is built once, from all its
    rows."""
    for claim in claims:
        if claim not in _CLAIMS:
            raise ValueError(f"unknown claim {claim!r}; known: {', '.join(_CLAIMS)}")
    if n_min > n_max:
        raise ValueError("n_min must not exceed n_max")
    check_guard(n_max, force)
    rows_of: dict[str, list[Row]] = {claim: [] for claim in claims}
    riders: dict[int, list] = {}  # n -> [(claim, kernel spec, rows)] riding on S_n
    for claim in claims:
        lo, build, *args = _CLAIMS[claim]
        for n in range(max(n_min, lo), n_max + 1):
            riders.setdefault(n, []).append((claim, *build(n, *args)))
    for n in sorted(riders):
        counts = _tally(n, jobs, [spec for _, spec, _ in riders[n]])
        for (claim, _, rows), c in zip(riders[n], counts):
            rows_of[claim] += rows(c)
    return [VerificationReport(claim, n_min, n_max, tuple(found)) for claim, found in rows_of.items()]


def verify(
    claim: str, n_min: int, n_max: int, jobs: int = 1, force: bool = False
) -> VerificationReport:
    """Compare the closed form of one claim against brute force over a range
    of lengths.  The range is clamped below to the claim's valid domain."""
    return _verify([claim], n_min, n_max, jobs, force)[0]


def verify_all(
    n_min: int, n_max: int, jobs: int = 1, force: bool = False
) -> list[VerificationReport]:
    """The reports of every claim with rows in n_min..n_max: a claim whose
    least n exceeds n_max checks nothing there, so it has no report."""
    return [r for r in _verify(CLAIM_IDS, n_min, n_max, jobs, force) if r.rows]
