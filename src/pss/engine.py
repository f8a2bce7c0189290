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
against the default passes by the test suite and claims P3_1/P3_5.  The dot
position of a dotted pattern never changes the push predicate, so both dot
placements of a base produce the same map.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Callable, Optional, Sequence

from .perms import Perm, identity


class MapId(str, Enum):
    WEST = "west"
    S12 = "s12"
    S21 = "s21"
    MACHINE12 = "m12"
    MACHINE21 = "m21"


@dataclass(frozen=True)
class DottedPattern:
    """A length-2 base pattern (12 or 21) with a marked letter position."""

    base: int  # 12 or 21
    dot_position: int  # 1 or 2

    def __post_init__(self) -> None:
        if self.base not in (12, 21):
            raise ValueError(f"base pattern must be 12 or 21, got {self.base}")
        if self.dot_position not in (1, 2):
            raise ValueError(f"dot position must be 1 or 2, got {self.dot_position}")


@dataclass(frozen=True)
class TraceEvent:
    op: str  # "push" | "pop"
    value: int
    step: int


@dataclass(frozen=True)
class StackTrace:
    events: tuple[TraceEvent, ...]

    def output(self) -> tuple[int, ...]:
        return tuple(e.value for e in self.events if e.op == "pop")


# (stack as stored, bottom to top; candidate entry) -> whether to push it
PushPredicate = Callable[[Sequence[int], int], bool]


def dotted_policy(pattern: DottedPattern) -> PushPredicate:
    """Push predicate of a dotted pattern.

    The predicate receives the stack bottom to top and the candidate entry;
    it answers whether the candidate, prepended to the stack read
    top-to-bottom, takes part in an occurrence of the base pattern, that is
    whether some stack entry exceeds it (12) or is below it (21), whatever
    their order.  An empty stack always admits a push.  The dot position
    drops out of this condition, which is why both placements of the dot
    define the same map.
    """
    if pattern.base == 12:

        def allows12(stack: Sequence[int], v: int) -> bool:
            return not stack or max(stack) > v

        return allows12

    def allows21(stack: Sequence[int], v: int) -> bool:
        return not stack or min(stack) < v

    return allows21


def west_policy() -> PushPredicate:
    """Classical push predicate: push iff the stack is empty or the candidate
    is smaller than the top."""

    def allows(stack: Sequence[int], v: int) -> bool:
        return not stack or v < stack[-1]

    return allows


def run_pass(
    p: Perm, policy: PushPredicate, want_trace: bool = False
) -> tuple[Perm, Optional[StackTrace]]:
    """One greedy deterministic pass of ``p`` through a stack with ``policy``.

    Repeatedly: if input remains and the policy permits, push the next input
    value; otherwise pop the top to the output.  Once the input is exhausted
    the stack is flushed top-to-bottom.  The policy sees the stack as
    stored, bottom to top, with the top last.
    """
    stack: list[int] = []
    out: list[int] = []
    events: list[TraceEvent] = []
    step = 0
    for v in p:
        while stack and not policy(stack, v):
            out.append(stack.pop())
            if want_trace:
                events.append(TraceEvent("pop", out[-1], step))
                step += 1
        stack.append(v)
        if want_trace:
            events.append(TraceEvent("push", v, step))
            step += 1
    while stack:
        out.append(stack.pop())
        if want_trace:
            events.append(TraceEvent("pop", out[-1], step))
            step += 1
    result = tuple(out)
    return result, (StackTrace(tuple(events)) if want_trace else None)


# -- fast single passes ------------------------------------------------------


def s12_simulated(p: Perm) -> Perm:
    """Simulated base-12 dotted pass with an O(1) predicate: a parallel stack
    of prefix maxima stands in for the existence scan."""
    stack: list[int] = []
    maxes: list[int] = []
    out: list[int] = []
    for v in p:
        while stack and maxes[-1] <= v:
            out.append(stack.pop())
            maxes.pop()
        stack.append(v)
        maxes.append(v if not maxes or v > maxes[-1] else maxes[-1])
    out.extend(reversed(stack))
    return tuple(out)


def s21_simulated(p: Perm) -> Perm:
    """Simulated base-21 dotted pass; prefix minima replace the scan."""
    stack: list[int] = []
    mins: list[int] = []
    out: list[int] = []
    for v in p:
        while stack and mins[-1] >= v:
            out.append(stack.pop())
            mins.pop()
        stack.append(v)
        mins.append(v if not mins or v < mins[-1] else mins[-1])
    out.extend(reversed(stack))
    return tuple(out)


def west_pass(p: Perm) -> Perm:
    stack: list[int] = []
    out: list[int] = []
    for v in p:
        while stack and stack[-1] < v:
            out.append(stack.pop())
        stack.append(v)
    out.extend(reversed(stack))
    return tuple(out)


def s12_closed_form(p: Perm) -> Perm:
    """Reverse each peak run in place; equals one simulated base-12 pass."""
    out: list[int] = []
    start = 0
    cur = p[0]
    for i in range(1, len(p)):
        if p[i] > cur:
            out.extend(p[start:i][::-1])
            start = i
            cur = p[i]
    out.extend(p[start:][::-1])
    return tuple(out)


def s21_closed_form(p: Perm) -> Perm:
    """Reverse each valley run in place; equals one simulated base-21 pass."""
    out: list[int] = []
    start = 0
    cur = p[0]
    for i in range(1, len(p)):
        if p[i] < cur:
            out.extend(p[start:i][::-1])
            start = i
            cur = p[i]
    out.extend(p[start:][::-1])
    return tuple(out)


def west_recursive(p: Perm) -> Perm:
    """Oracle for the west pass via the decomposition around the largest
    entry: sort left block, sort right block, append the maximum."""
    if len(p) <= 1:
        return p
    i = p.index(max(p))
    return west_recursive(p[:i]) + west_recursive(p[i + 1 :]) + (p[i],)


# -- dispatch, iteration, orbits ---------------------------------------------

# map -> names of the passes applied in order: a machine is its dotted map's
# closed form, then the west pass.  Passes are looked up by name when
# ``pass_fn`` is called, so a rebound module attribute (a profiler's counting
# wrapper, say) is the one that runs.
_PASSES: dict[MapId, tuple[str, ...]] = {
    MapId.WEST: ("west_pass",),
    MapId.S12: ("s12_closed_form",),
    MapId.S21: ("s21_closed_form",),
    MapId.MACHINE12: ("s12_closed_form", "west_pass"),
    MapId.MACHINE21: ("s21_closed_form", "west_pass"),
}


# each machine's first stage: its dotted map
DOTTED_STAGE = {MapId.MACHINE12: MapId.S12, MapId.MACHINE21: MapId.S21}


def pass_fn(map_id: MapId) -> Callable[[Perm], Perm]:
    """The function computing one pass of the map."""
    stages = [globals()[name] for name in _PASSES[MapId(map_id)]]
    if len(stages) == 1:
        return stages[0]
    dotted, west = stages
    return lambda p: west(dotted(p))


def apply(map_id: MapId, p: Perm) -> Perm:
    """Apply one pass of the map."""
    return pass_fn(map_id)(p)


def iterate(map_id: MapId, p: Perm, t: int) -> Perm:
    """t-fold application; t = 0 returns ``p`` unchanged, without a pass.
    The orbit is walked for at most t passes, so a t past the orbit's tail
    costs no more than the tail and one cycle."""
    if t < 0:
        raise ValueError("iteration count must be nonnegative")
    if t == 0:
        return p
    f, ident = pass_fn(map_id), identity(len(p))
    return _state_at(_walk(f, ident, f(ident) == ident, p, t), t)


def sorts_in(map_id: MapId, p: Perm, t_max: int) -> Optional[int]:
    """Least t <= t_max with the t-fold image equal to the identity, else None.

    Stops early when the orbit revisits a state without having reached the
    identity.
    """
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    f, ident = pass_fn(map_id), identity(len(p))
    return _walk(f, ident, f(ident) == ident, p, t_max)[0]


Walk = tuple[Optional[int], Optional[int], Optional[int], dict[Perm, int]]


def _walk(
    f: Callable[[Perm], Perm], ident: Perm, fixes_ident: bool, p: Perm,
    cap: Optional[int] = None,
) -> Walk:
    """The rho shape of p's orbit under f: (first step at ``ident`` or None,
    tail length, cycle length, the states walked in order, each mapped to its
    step).  The walk stops at the first repeated state, at ``ident`` if f
    fixes it (the orbit then ends in that one-cycle), or after ``cap`` passes,
    leaving tail and cycle None if still open."""
    seen: dict[Perm, int] = {}
    hit: Optional[int] = None
    while p not in seen:
        step = seen[p] = len(seen)
        if p == ident:
            if fixes_ident:
                return step, step, 1, seen
            hit = step
        if step == cap:
            return hit, None, None, seen
        p = f(p)
    tail = seen[p]
    return hit, tail, len(seen) - tail, seen


def _state_at(walk: Walk, k: int) -> Perm:
    """The k-th state of a walked orbit: the state reached at step k or, past
    the tail, the one at tail + (k - tail) mod cycle.  A walk capped below k
    that is still open has no k-th state."""
    _, tail, cycle, seen = walk
    if k >= len(seen):
        k = tail + (k - tail) % cycle
    return next(islice(seen, k, None))


@dataclass(frozen=True)
class OrbitReport:
    tail_length: int
    cycle_length: int
    reaches_identity_at: Optional[int]
    is_periodic_point: bool


def orbit(map_id: MapId, p: Perm) -> OrbitReport:
    """Iterate until a state recurs; report the tail length, cycle length,
    and the first step at which the identity appears (if it does)."""
    f, ident = pass_fn(map_id), identity(len(p))
    hit, tail, cycle, _ = _walk(f, ident, f(ident) == ident, p)
    return OrbitReport(tail, cycle, hit, tail == 0)
