"""Closed-form counts, characterizations, image sets, and witness families.

Every function here has a brute-force counterpart in :mod:`pss.enumerator`;
the verification registry pairs them up.  Counts are exact Python ints, so
they stay correct far beyond the brute-force ceiling.
"""

from __future__ import annotations

from math import factorial
from operator import add, mul

from .engine import MapId, iterate
from .perms import Perm, identity

# -- one-pass sortability under the dotted maps ------------------------------


def count_t_sortable_s12(n: int, t: int) -> int:
    """Number of length-n permutations reaching the identity within t passes
    of the base-12 dotted map: n! when n <= t, else t! * (t+1)^(n-t)."""
    if n < 1 or t < 1:
        raise ValueError("n and t must be >= 1")
    if n <= t:
        return factorial(n)
    return factorial(t) * (t + 1) ** (n - t)


def count_t_sortable_s21(n: int) -> int:
    """Under the base-21 dotted map only the singleton ever sorts, for any
    number of passes."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1 if n == 1 else 0


# -- the 21 machine: sortable permutations and fixed points ------------------


def is_machine21_sortable(p: Perm) -> bool:
    """A permutation sorts in one pass of the 21 machine iff its valley-run
    reversal is the decreasing permutation: every valley run increases, and
    each run's first entry exceeds the next run's last entry.

    One scan over p, the entry before b held in ``a``: an entry below the
    current run's first entry starts a new valley run; any other entry must
    exceed the one before it and stay below the previous run's first entry.
    Both bounds start at n + 1, so the first entry starts the first run."""
    # the current run's first entry, the previous run's, the entry before b
    low = bound = a = len(p) + 1
    for b in p:
        if b < low:
            low, bound = b, low
        elif not a < b < bound:
            return False
        a = b
    return True


def count_machine21_sortable(n: int) -> int:
    """2^(n-1): one sortable permutation per composition of n into valley
    runs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2 ** (n - 1)


def is_machine21_fixed_shape(p: Perm) -> bool:
    """Structural test for fixed points of the 21 machine: every valley run
    increases, and each run's last entry exceeds everything in the previous
    run.

    One scan over p, the entry before b held in ``a``: a descent must start
    a new valley run (at a left-to-right minimum), and then each run
    increases, so its largest entry is its last one, which must exceed the
    previous run's last entry.  The first entry starts the first run after
    an empty one: ``a`` = 0 ends it, above its last entry ``end`` = -1."""
    # the current run's first entry, the previous run's last, the entry before b
    low, end, a = len(p) + 1, -1, 0
    for b in p:
        if b < low:  # b starts a new valley run and a ends the current one
            if a <= end:
                return False
            low, end = b, a
        elif b < a:
            return False
        a = b
    return a > end


def count_machine21_fixed_points(n: int) -> int:
    """Fixed points of the 21 machine, by the binomial recurrence
    a_n = sum_{k=0}^{n-2} C(n-2, k) a_k with a_0 = a_1 = 1.  The terms are
    made in order, each from row n-2 of Pascal's triangle, and that row
    from the one before it."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a, row = [1, 1], [1]
    while len(a) <= n:
        a.append(sum(map(mul, row, a)))
        row = [1, *map(add, row, row[1:]), 1]
    return a[n]


# -- highly / minimally sorted under the base-12 map -------------------------


def count_min_sorted_s12(n: int) -> int:
    """Permutations needing the full n-1 passes: (n-1)!."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return factorial(n - 1)


def count_highly_sorted_s12(n: int) -> int:
    """Permutations sorted within n-2 passes: (n-1) * (n-1)!."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return (n - 1) * factorial(n - 1)


def image_s12_power(n: int) -> set[Perm]:
    """Image of S_n after n-2 passes of the base-12 map: the identity and the
    identity with its first two entries swapped."""
    if n < 2:
        raise ValueError("n must be >= 2")
    ident = identity(n)
    return {ident, (2, 1) + ident[2:]}


def s12_terminal_power(n: int) -> int:
    """The pass count n - 2 after which the base-12 image of S_n is
    ``image_s12_power(n)``."""
    return n - 2


def machine12_terminal_power(n: int) -> int:
    """The pass count floor(n/2) - 1 after which the 12-machine image of S_n
    is ``image_machine12(n)``: one pass short of ``machine12_bound(n)``."""
    return n // 2 - 1


def machine12_bound(n: int) -> int:
    """Every length-n permutation sorts within floor(n/2) passes of the 12
    machine."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return n // 2


def image_machine12(n: int) -> set[Perm]:
    """Image of S_n after floor(n/2) - 1 passes of the 12 machine: a 2-set
    for even n, a 5-set for odd n."""
    if n < 4:
        raise ValueError("n must be >= 4")
    tail = tuple(range(6, n + 1))
    if n % 2 == 0:
        ident = identity(n)
        return {ident, (2, 1) + ident[2:]}
    heads = [
        (1, 2, 3, 4, 5),
        (1, 3, 2, 4, 5),
        (2, 1, 3, 4, 5),
        (2, 3, 1, 4, 5),
        (3, 1, 2, 4, 5),
    ]
    return {head + tail for head in heads}


# -- witness families for the 12-machine image -------------------------------


def witness_even(n: int) -> Perm:
    """2 4 ... n 1 3 ... (n-1); lands on 2 1 3 ... n after n/2 - 1 machine
    passes."""
    if n < 4 or n % 2:
        raise ValueError("n must be even and >= 4")
    return tuple(range(2, n + 1, 2)) + tuple(range(1, n, 2))


def witness_cycle(n: int) -> Perm:
    """2 3 ... n 1; lands on 2 3 1 4 ... n after floor(n/2) - 1 machine
    passes."""
    if n < 5 or n % 2 == 0:
        raise ValueError("n must be odd and >= 5")
    return tuple(range(2, n + 1)) + (1,)


_PI_SEEDS = {
    (2, 1, 3): ((2,), (1, 3)),
    (1, 3, 2): ((1, 3), (2,)),
    (3, 1, 2): ((3,), (1, 2)),
}


def witness_pi(n: int, seed: Perm) -> Perm:
    """Interleaved witness for the odd-image heads 213, 132, 312.

    Starting from the seed's split (tau, sigma), each step appends the last
    entry plus 2 to both halves; the witness is their concatenation and
    reaches seed followed by 4 5 ... n after floor(n/2) - 1 machine passes.
    """
    seed = tuple(seed)
    if seed not in _PI_SEEDS:
        raise ValueError("seed must be one of 213, 132, 312")
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    tau, sigma = _PI_SEEDS[seed]
    for _ in range((n - 3) // 2):
        tau = tau + (tau[-1] + 2,)
        sigma = sigma + (sigma[-1] + 2,)
    return tau + sigma


def witness_pi_target(n: int, seed: Perm) -> Perm:
    """The image the interleaved witness is claimed to reach."""
    return tuple(seed) + tuple(range(4, n + 1))


def machine12_witness(family: str, n: int) -> tuple[Perm, Perm]:
    """Return (witness, claimed image) for one witness family, with no
    machine pass."""
    if family == "even":
        w = witness_even(n)
        target = (2, 1) + identity(n)[2:]
    elif family == "cycle":
        w = witness_cycle(n)
        target = (2, 3, 1) + tuple(range(4, n + 1))
    elif family in ("pi213", "pi132", "pi312"):
        seed = tuple(int(c) for c in family[2:])
        w = witness_pi(n, seed)
        target = witness_pi_target(n, seed)
    else:
        raise ValueError(f"unknown witness family {family!r}")
    return w, target


def machine12_witness_check(family: str, n: int) -> tuple[Perm, Perm, Perm]:
    """Return (witness, claimed image, actual image after the claimed number
    of machine passes) for one witness family."""
    w, target = machine12_witness(family, n)
    return w, target, iterate(MapId.MACHINE12, w, machine12_terminal_power(n))
