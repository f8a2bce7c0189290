"""Deterministic single-pass stack maps and their iteration.

Five maps are exposed:

* ``west``  -- the classical stack sort: push unless the next entry exceeds
  the stack top, then pop.
* ``s12``   -- the length-2 dotted map with base pattern 12: the next entry is
  pushed iff, prepended to the stack read top-to-bottom, it takes part in an
  occurrence of 12 (i.e. some stack element exceeds it).  One pass reverses
  each peak run in place.
* ``s21``   -- dual map with base pattern 21: push iff some stack element is
  smaller.  One pass reverses each valley run.
* ``m12`` / ``m21`` -- the two-stage machines: a dotted pass followed by a
  west pass.

A dotted map's pass is its closed form (run reversal).  The explicit
stacks (``s12_simulated``, ``s21_simulated``), ``west_recursive`` and the
generic ``run_pass`` are oracles: public, called by name, and checked
against the default passes by the test suite and claims P3_1/P3_5.  A
simulated stack pops its whole stack as one block: its bottom entry is
its extreme entry and no pop from the top moves it, so a refused push
pops until the stack is empty, and the block is what ``run_pass`` pops
one entry at a time.  The dot position of a dotted pattern never changes
the push predicate: ``dotted_policy`` gives both dot placements of a base
one predicate object.

``orbit``, ``sorts_in`` and ``iterate`` pass each state of a walk without
its settled suffix, the longest one it shares with the map's settled
permutation (``SETTLED``): the identity for west, s12 and m12, whose tail
k+1..n is a run of left-to-right maxima that no pass moves, and the
decreasing permutation for s21, whose tail is a run of left-to-right
minima.  m21 has none: its s21 stage reverses a valley run that the
identity's tail ends, and its west stage sorts the decreasing tail.  Nor
do they pass the untouched part of a state's longest prefix that runs as
the settled permutation runs: all of it but its last entry (last two for
m12) is a chain of one-entry runs that the pass leaves in place.  The
rotation 2..n,1, which s12 sorts in n - 1 passes, then costs 2 entries a
pass, not n: 13.5 ms at n = 1000 (2-core Linux machine, Python 3.11.7).
"""

from __future__ import annotations

from enum import Enum
from operator import gt, lt
from typing import Callable, NamedTuple, Optional, Sequence

from .perms import Perm, identity, reverse_identity


class MapId(str, Enum):
    WEST = "west"
    S12 = "s12"
    S21 = "s21"
    MACHINE12 = "m12"
    MACHINE21 = "m21"


class DottedPattern(NamedTuple("DottedPattern", [("base", int), ("dot_position", int)])):
    """A length-2 base pattern (12 or 21) with a marked letter position."""

    __slots__ = ()

    def __new__(cls, base: int, dot_position: int) -> DottedPattern:
        if base not in (12, 21):
            raise ValueError(f"base pattern must be 12 or 21, got {base}")
        if dot_position not in (1, 2):
            raise ValueError(f"dot position must be 1 or 2, got {dot_position}")
        return super().__new__(cls, base, dot_position)


class TraceEvent(NamedTuple):
    op: str  # "push" | "pop"
    value: int


# (stack as stored, bottom to top; candidate entry) -> whether to push it
PushPredicate = Callable[[Sequence[int], int], bool]


def _allows12(stack: Sequence[int], v: int) -> bool:
    return not stack or max(stack) > v


def _allows21(stack: Sequence[int], v: int) -> bool:
    return not stack or min(stack) < v


def dotted_policy(pattern: DottedPattern) -> PushPredicate:
    """Push predicate of a dotted pattern: one module-level function per
    base, so both dot placements of a base return the same object.

    The predicate receives the stack bottom to top and the candidate entry.
    It answers whether the candidate, prepended to the stack read
    top-to-bottom, takes part in an occurrence of the base pattern, that is
    whether some stack entry exceeds it (12) or is below it (21), whatever
    their order.  An empty stack always admits a push.  Prepended, the
    candidate can only be the first letter of an occurrence, so the dot
    position drops out and both placements define one map.  A reading in
    which the dot fixes the candidate's role (the dotted letter of the
    occurrence) would change claim RED's row and the report digest; this
    module keeps the first reading.
    """
    return _allows12 if pattern.base == 12 else _allows21


def _allows_west(stack: Sequence[int], v: int) -> bool:
    return not stack or v < stack[-1]


def west_policy() -> PushPredicate:
    """Classical push predicate: push iff the stack is empty or the candidate
    is smaller than the top; one module-level function, as in ``dotted_policy``."""
    return _allows_west


def run_pass(
    p: Perm, policy: PushPredicate, want_trace: bool = False
) -> tuple[Perm, Optional[tuple[TraceEvent, ...]]]:
    """One greedy deterministic pass of ``p`` through a stack with ``policy``.

    Repeatedly: if input remains and the policy permits, push the next input
    value; otherwise pop the top to the output.  Once the input is exhausted
    the stack is flushed top-to-bottom.  The policy sees the stack as
    stored, bottom to top, with the top last.  The second item is None, or
    with ``want_trace`` the tuple of the pushes and pops in order; an
    event's step is its index, and the popped values are the result.
    """
    stack: list[int] = []
    out: list[int] = []
    events: list[TraceEvent] = []
    for v in p:
        while stack and not policy(stack, v):
            out.append(stack.pop())
            if want_trace:
                events.append(TraceEvent("pop", out[-1]))
        stack.append(v)
        if want_trace:
            events.append(TraceEvent("push", v))
    while stack:
        out.append(stack.pop())
        if want_trace:
            events.append(TraceEvent("pop", out[-1]))
    return tuple(out), (tuple(events) if want_trace else None)


# -- fast single passes ------------------------------------------------------


def s12_simulated(p: Perm) -> Perm:
    """Simulated base-12 dotted pass with an O(1) predicate.

    An entry is pushed only onto an empty stack or below a larger entry,
    so the bottom of the stack is always its largest entry, and "some
    stack entry exceeds v" reads ``stack[0] > v``.  When it fails, the
    stack pops until the predicate holds or the stack is empty; a pop from
    the top leaves ``stack[0]`` in place until the last pop takes it, so
    every refusal empties the whole stack.  The stack therefore pops as one
    block, top to bottom, as does the final flush: the output is the one
    ``run_pass`` with the base-12 predicate makes popping one entry at a
    time."""
    stack: list[int] = []
    out: list[int] = []
    for v in p:
        if stack and stack[0] < v:
            stack.reverse()
            out += stack
            stack = [v]
        else:
            stack.append(v)
    stack.reverse()
    out += stack
    return tuple(out)


def s21_simulated(p: Perm) -> Perm:
    """Simulated base-21 dotted pass: as ``s12_simulated``, an entry is
    pushed only onto an empty stack or below a smaller entry, so the bottom
    of the stack is its smallest entry, the predicate reads
    ``stack[0] < v``, and a refusal pops the whole stack as one block."""
    stack: list[int] = []
    out: list[int] = []
    for v in p:
        if stack and stack[0] > v:
            stack.reverse()
            out += stack
            stack = [v]
        else:
            stack.append(v)
    stack.reverse()
    out += stack
    return tuple(out)


# above every entry that ``west_pass`` is given, and a one-digit int, which
# CPython compares on its fast path: per pass over S_8 (2-core Linux
# machine, Python 3.11.7) 2**30 - 1 costs what n + 1 did, and
# ``sys.maxsize`` or ``math.inf`` 5 to 12% more
_ABOVE = 2**30 - 1


def west_pass(p: Perm) -> Perm:
    """The classical stack sort of a permutation of 1..n, or of any sequence
    of distinct entries below 2**30 - 1 (a suffix of a permutation, say):
    pop while the top is below the next entry, then push it.  The top is
    kept in a local, outside the list of the entries under it.  An entry
    above the top emits it and pops the list while its last entry is below;
    an entry below pushes the old top.  The top starts as the sentinel
    ``_ABOVE`` that no entry exceeds, which the first entry pushes to the
    bottom of the list, so the loop never tests for an empty stack, and an
    increasing stretch pushes and pops nothing."""
    if not p:
        return ()
    stack: list[int] = []
    top = _ABOVE
    out: list[int] = []
    for v in p:
        if top < v:
            out.append(top)
            while stack[-1] < v:
                out.append(stack.pop())
        else:
            stack.append(top)
        top = v
    out.append(top)
    out.extend(stack[:0:-1])
    return tuple(out)


def s12_closed_form(p: Perm) -> Perm:
    """Reverse each peak run in place; equals one simulated base-12 pass.

    The pass starts from a copy of p and makes one comparison per entry,
    against the current run's first entry, to find where each run ends.  A
    one-entry run is already in place, so only runs longer than one entry
    are written back reversed; near the end of an orbit most runs hold one
    entry."""
    if not p:
        return ()
    out = list(p)
    start = i = 0
    cur = p[0]
    for v in p:  # v = p[i]
        if v > cur:
            if i - start > 1:  # p[start:i] reversed, in one copy
                out[start:i] = p[i - 1:start - 1 if start else None:-1]
            start, cur = i, v
        i += 1
    if i - start > 1:
        out[start:] = p[:start - 1 if start else None:-1]
    return tuple(out)


def s21_closed_form(p: Perm) -> Perm:
    """Reverse each valley run in place; equals one simulated base-21 pass.

    As ``s12_closed_form``: one comparison per entry, and only runs longer
    than one entry are written back reversed."""
    if not p:
        return ()
    out = list(p)
    start = i = 0
    cur = p[0]
    for v in p:  # v = p[i]
        if v < cur:
            if i - start > 1:  # p[start:i] reversed, in one copy
                out[start:i] = p[i - 1:start - 1 if start else None:-1]
            start, cur = i, v
        i += 1
    if i - start > 1:
        out[start:] = p[:start - 1 if start else None:-1]
    return tuple(out)


def west_recursive(p: Perm) -> Perm:
    """Oracle for the west pass via the decomposition around the largest
    entry: sort left block, sort right block, append the maximum."""
    if len(p) <= 1:
        return p
    i = p.index(max(p))
    return west_recursive(p[:i]) + west_recursive(p[i + 1 :]) + (p[i],)


# -- dispatch, iteration, orbits ---------------------------------------------

# map -> name of its pass, for the single-pass maps; a machine is its
# dotted stage's pass, then the west pass.  Passes are looked up by name
# when ``pass_fn`` is called, so a rebound module attribute (a profiler's
# counting wrapper, say) is the one that runs.
_PASSES: dict[MapId, str] = {
    MapId.WEST: "west_pass",
    MapId.S12: "s12_closed_form",
    MapId.S21: "s21_closed_form",
}


# each machine's first stage: its dotted map
DOTTED_STAGE = {MapId.MACHINE12: MapId.S12, MapId.MACHINE21: MapId.S21}


# map -> its settled permutation tau of length n: a state x with
# x[k:] == tau[k:] has the image f(x[:k]) + tau[k:].  Each entry of the
# identity's tail is a left-to-right maximum, which pops the whole west
# stack and is a one-entry peak run of s12; each entry of the decreasing
# tail is a left-to-right minimum, a one-entry valley run of s21.  m21 has
# none: m21(2,1,3) = (2,1,3) where m21(2,1) + (3,) = (1,2,3), and it
# sorts the decreasing (2,1).
SETTLED: dict[MapId, Callable[[int], Perm]] = {
    MapId.WEST: identity,
    MapId.S12: identity,
    MapId.MACHINE12: identity,
    MapId.S21: reverse_identity,
}


def pass_fn(map_id: MapId) -> Callable[[Perm], Perm]:
    """The function computing one pass of the map."""
    map_id = MapId(map_id)
    if map_id not in DOTTED_STAGE:
        return globals()[_PASSES[map_id]]
    dotted, west = pass_fn(DOTTED_STAGE[map_id]), pass_fn(MapId.WEST)
    return lambda p: west(dotted(p))


def apply(map_id: MapId, p: Perm) -> Perm:
    """Apply one pass of the map."""
    return pass_fn(map_id)(p)


def iterate(map_id: MapId, p: Perm, t: int) -> Perm:
    """t-fold application.  The orbit is walked with a cap of t passes (see
    ``_walk``), so t = 0 is a walk that makes no pass and returns p, a t
    past the tail of an orbit that closes by step t reduces modulo the
    cycle, and the walk holds O(1) states whatever t is.  Each pass acts on
    the state's unsettled prefix only: a suffix k+1..n for west, s12 and
    m12, or n-k..1 for s21, is never moved again, and m21 moves both (see
    ``SETTLED``).  The result has length n."""
    if t < 0:
        raise ValueError("iteration count must be nonnegative")
    return _settled_walk(map_id, p, t, (t,))[3][0]


def sorts_in(map_id: MapId, p: Perm, t_max: int) -> Optional[int]:
    """Least t <= t_max with the t-fold image equal to the identity, else None.

    The orbit is walked for at most t_max passes, and stops early when it
    closes (see ``_walk``).  Each pass acts on the state's unsettled
    prefix only: a suffix k+1..n for west, s12 and m12, or n-k..1 for s21,
    is never moved again, and m21 moves both (see ``SETTLED``).
    """
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    return _settled_walk(map_id, p, t_max)[0]


# (identity hit, tail, cycle, the k-th states asked for); tail and cycle
# are None if the walk stopped at its cap still open
Walk = tuple[Optional[int], Optional[int], Optional[int], tuple[Perm, ...]]


def _walk(
    f: Callable[[Perm], Perm], ident: Perm, p: Perm, cap: Optional[int] = None,
    ks: Sequence[int] = (),
) -> Walk:
    """The rho shape of p's orbit under f, walked for at most ``cap`` passes
    while holding O(1) states: (first step at ``ident`` or None, tail
    length, cycle length, the k-th state for each k in ``ks``).

    Each state is compared with the one before it, so an orbit that ends on
    a fixed point, the identity among them, closes at the pass that maps it
    to itself.  A longer cycle is found by Brent's power-of-two tortoise
    (Brent, BIT 20, 1980), which may take it past step tail + cycle, and its
    tail by a second walk from p.  A closed walk has the orbit's tail and
    cycle; its k-th state is the one at step k or, past the tail, at
    tail + (k - tail) mod cycle.

    A walk stops at step ``cap`` if it has not closed by then: it is open,
    with tail and cycle None, and it has the k-th states for k <= cap
    only.  So an orbit whose cycle is longer than 1 may read open at a cap
    of tail + cycle or more, if the tortoise has not met it by then; one
    that ends on a fixed point is closed iff its tail is below the cap.
    """
    got: dict[int, Perm] = {}
    hit: Optional[int] = None
    x, step, tortoise, at = p, 0, p, 0  # the tortoise is the state at step ``at``
    while True:
        if step in ks:
            got[step] = x
        if hit is None and x == ident:
            hit = step
        if step > at and x == tortoise:
            cycle = step - at
            break
        if step == 2 * at + 1:  # the tortoise moves to steps 1, 3, 7, 15, ...
            tortoise, at = x, step
        if step == cap:
            return hit, None, None, tuple(got[k] for k in ks)
        y = f(x)
        if y == x:
            return hit, step, 1, _states(f, got, ks, x, step, 1)
        x, step = y, step + 1
    return hit, _tail(f, p, cycle), cycle, _states(f, got, ks, x, step, cycle)


def _tail(f: Callable[[Perm], Perm], p: Perm, cycle: int) -> int:
    """The tail length of p's orbit with this cycle length: a walk
    ``cycle`` steps ahead of one from p meets it first at step tail."""
    ahead = p
    for _ in range(cycle):
        ahead = f(ahead)
    tail = 0
    while p != ahead:
        p, ahead, tail = f(p), f(ahead), tail + 1
    return tail


def _states(
    f: Callable[[Perm], Perm], got: dict[int, Perm], ks: Sequence[int], x: Perm,
    step: int, cycle: int,
) -> tuple[Perm, ...]:
    """The k-th states of a closed walk that got those up to ``step``, where
    it holds x, a periodic state: a later one is (k - step) mod cycle passes
    past x."""
    def ahead(k: int) -> Perm:
        y = x
        for _ in range((k - step) % cycle):
            y = f(y)
        return y

    return tuple(got[k] if k <= step else ahead(k) for k in ks)


def _settled_walk(
    map_id: MapId, p: Perm, cap: Optional[int] = None, ks: Sequence[int] = (),
) -> Walk:
    """``_walk(pass_fn(map_id), identity(n), p, cap, ks)``, walked on
    canonical states: a state with its longest suffix in common with the
    map's settled permutation tau dropped (see ``SETTLED``).  The pass of
    a canonical state is the pass of the whole state with tau's tail cut
    off, and for a fixed n a state is its canonical state followed by
    tau's tail, so the walk makes the same passes, compares the same
    states and returns the same fields; its k-th states are extended back
    to length n.  A map with no settled permutation is walked whole.

    Each pass also skips the untouched part of the state's longest prefix
    x[:m] that runs as tau runs (increasing for west, s12 and m12,
    decreasing for s21).  Each entry of that prefix is a one-entry peak run
    of s12 (valley run of s21) and a left-to-right maximum that empties the
    west stack, except the last, which may start a longer run; so the pass
    is x[:j] + f(x[j:]) with j = m - 1, and j = m - 2 for m12, whose west
    stage leaves in place one entry fewer than the s12 stage does.  The
    image keeps x[:j], so m is scanned from j on the state the step made
    last, and from 1 on any other state (``_tail`` and ``_states`` pass
    states made earlier): the scans cost O(1) per pass, amortised.  A pass
    of the rotation 2..n,1 then reads 2 entries (3 for m12) where it read
    all of them."""
    map_id = MapId(map_id)
    f, ident = pass_fn(map_id), identity(len(p))
    if map_id not in SETTLED:
        return _walk(f, ident, p, cap, ks)
    tau = SETTLED[map_id](len(p))
    runs_as_tau = lt if SETTLED[map_id] is identity else gt
    moved = 2 if map_id in DOTTED_STAGE else 1  # m12's west stage moves one more

    def strip(x: Perm) -> Perm:
        k = len(x)
        while k and x[k - 1] == tau[k - 1]:
            k -= 1
        return x[:k]

    last, known = None, 1  # the state made last, and its prefix known to run as tau

    def step(x: Perm) -> Perm:
        nonlocal last, known
        m, k = known if x is last else 1, len(x)
        while m < k and runs_as_tau(x[m - 1], x[m]):
            m += 1
        j = max(m - moved, 0)
        last, known = strip(x[:j] + f(x[j:])), max(j, 1)
        return last

    hit, tail, cycle, states = _walk(step, strip(ident), strip(p), cap, ks)
    return hit, tail, cycle, tuple(x + tau[len(x):] for x in states)


class OrbitReport(NamedTuple):
    tail_length: int
    cycle_length: int
    reaches_identity_at: Optional[int]
    is_periodic_point: bool


def orbit(map_id: MapId, p: Perm) -> OrbitReport:
    """Iterate until a state recurs; report the tail length, cycle length,
    and the first step at which the identity appears (if it does).  Each
    pass acts on the state's unsettled prefix only: a suffix k+1..n for
    west, s12 and m12, or n-k..1 for s21, is never moved again, and m21
    moves both (see ``SETTLED``)."""
    hit, tail, cycle = _settled_walk(map_id, p)[:3]
    return OrbitReport(tail, cycle, hit, tail == 0)
