"""Test oracles for orbit walks: a walk that keeps every state it visits in
a dict, and synthetic maps on S_5 whose orbits have cycles longer than 1
(the five stack maps have none at small n).

``dict_walk`` is the plain reading of the rho shape that ``engine._walk``
computes in O(1) states: it stops at the first repeated state (a fixed
identity among them) or after ``cap`` passes.  On an orbit that ends on
a fixed point ``engine._walk`` stops where it does; on one with a longer
cycle it may stop open at its cap where the dict walk has closed.
"""

from __future__ import annotations

import random
from itertools import islice

from pss.perms import all_perms, identity


def dict_walk(f, ident, p, cap=None):
    """(first step at ``ident`` or None, tail length, cycle length, the
    states walked in order, each mapped to its step); tail and cycle are
    None if the walk is still open after ``cap`` passes."""
    seen = {}
    hit = None
    while p not in seen:
        step = seen[p] = len(seen)
        if p == ident:
            hit = step
        if step == cap:
            return hit, None, None, seen
        p = f(p)
    tail = seen[p]
    return hit, tail, len(seen) - tail, seen


def state_at(walk, k):
    """The k-th state of a dict walk: the state reached at step k or, past
    the tail, the one at tail + (k - tail) mod cycle."""
    _, tail, cycle, seen = walk
    if k >= len(seen):
        k = tail + (k - tail) % cycle
    return next(islice(seen, k, None))


def synthetic_map(seed: int, ident_at: int):
    """A function on S_5 whose graph has one cycle of each length 1..5 and
    trees of random depth hanging off them, with the identity at position
    ``ident_at`` of the order it is built in: 0 is the fixed point, 1..14
    lie on the longer cycles, and later positions are in the trees."""
    rng = random.Random(seed)
    perms = list(all_perms(5))
    rng.shuffle(perms)
    ident = perms.index(identity(5))
    perms[ident], perms[ident_at] = perms[ident_at], perms[ident]
    image, at = {}, 0
    for length in range(1, 6):
        cycle = perms[at : at + length]
        image.update(zip(cycle, cycle[1:] + cycle[:1]))
        at += length
    for i in range(at, len(perms)):
        image[perms[i]] = perms[rng.randrange(i)]
    return image.__getitem__
