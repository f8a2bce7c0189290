"""Permutations of {1, ..., n} and their structural statistics.

A permutation is a plain tuple of ints holding each value 1..n exactly once.
All positions in the public API are 1-based; the canonical text form is
comma-separated values ("2,4,3,1,5"), with a compact digit form ("24315")
accepted on input when every value is a single digit.

Peaks and valleys here are left-to-right maxima and minima (position 1 is
always both), and peak/valley runs are the maximal blocks starting at them.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterator, Optional, Sequence

Perm = tuple[int, ...]
Word = tuple[int, ...]


class PermutationError(ValueError):
    """Raised for malformed permutation input."""


def perm(values: Sequence[int]) -> Perm:
    """Validate ``values`` as a permutation of 1..n and return it as a tuple.
    Each value must be an integer: a float or a string is refused, not
    rounded or parsed."""
    try:
        p = tuple(map(operator.index, values))
    except TypeError as e:  # "'float' object cannot be interpreted as an integer"
        raise PermutationError(f"values must be integers: {e}") from None
    n = len(p)
    if n == 0:
        raise PermutationError("empty permutation (length must be >= 1)")
    seen = [False] * (n + 1)
    for v in p:
        if not 1 <= v <= n:
            raise PermutationError(f"value {v} out of range 1..{n}")
        if seen[v]:
            raise PermutationError(f"duplicate value {v}")
        seen[v] = True
    return p


def parse(text: str) -> Perm:
    """Parse the canonical comma form, or compact digits when all values <= 9.
    Both forms take ASCII digits only; a comma-separated token may carry
    surrounding spaces.

    >>> parse("2,4,3,1,5")
    (2, 4, 3, 1, 5)
    >>> parse("24315")
    (2, 4, 3, 1, 5)
    """
    text = text.strip()
    if not text:
        raise PermutationError("empty input")
    if "," in text:
        tokens = [tok.strip() for tok in text.split(",")]
        if not all(tok.isascii() and tok.isdigit() for tok in tokens):
            raise PermutationError(f"malformed token in {text!r}")
        # a value <= n has no more digits than n; checked before int(), which
        # refuses a token past the int-to-str digit limit
        n, longest = len(tokens), max(len(tok.lstrip("0")) for tok in tokens)
        if longest > len(str(n)):
            raise PermutationError(f"a value of {longest} digits is out of range 1..{n}")
        values = [int(tok) for tok in tokens]
    else:
        if not (text.isascii() and text.isdigit()):
            raise PermutationError(f"malformed input {text!r}")
        values = [int(ch) for ch in text]
        if 0 in values:
            raise PermutationError("compact digit form admits values 1..9 only")
    return perm(values)


def format_perm(p: Sequence[int]) -> str:
    """Canonical comma-separated form."""
    return ",".join(str(v) for v in p)


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def reverse_identity(n: int) -> Perm:
    return tuple(range(n, 0, -1))


def inc(p: Perm) -> Word:
    """Increment every entry by 1. The result is a word on 2..n+1, not a
    permutation."""
    return tuple(v + 1 for v in p)


def ins(p: Perm, i: int) -> Perm:
    """Increment every entry of ``p`` and insert a 1 before position ``i``.

    ``i`` may be n+1, which appends the 1.

    >>> ins((2, 1, 4, 5, 3), 3)
    (3, 2, 1, 5, 6, 4)
    """
    n = len(p)
    if not 1 <= i <= n + 1:
        raise PermutationError(f"insertion position {i} out of range 1..{n + 1}")
    w = inc(p)
    return w[: i - 1] + (1,) + w[i - 1 :]


def delete_one(p: Perm) -> Perm:
    """Remove the entry 1 and decrement the rest; inverse of every ins(p, i)."""
    if len(p) < 2:
        raise PermutationError("cannot delete from a singleton permutation")
    return tuple([v - 1 for v in p if v != 1])


def peaks(p: Perm) -> tuple[int, ...]:
    """Positions of the left-to-right maxima (1-based, position 1 included)."""
    out = []
    cur = 0
    for i, v in enumerate(p, start=1):
        if v > cur:
            out.append(i)
            cur = v
    return tuple(out)


def valleys(p: Perm) -> tuple[int, ...]:
    """Positions of the left-to-right minima (1-based, position 1 included)."""
    out = []
    cur = len(p) + 1
    for i, v in enumerate(p, start=1):
        if v < cur:
            out.append(i)
            cur = v
    return tuple(out)


def _blocks(p: Perm, starts: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """``p`` cut before each of the 1-based positions ``starts``."""
    bounds = (*starts, len(p) + 1)
    return tuple(p[a - 1 : b - 1] for a, b in zip(bounds, bounds[1:]))


def peak_runs(p: Perm) -> tuple[tuple[int, ...], ...]:
    """The runs of p that start at its peaks, as blocks of entries: p is
    their concatenation P_1 ... P_k.

    >>> peak_runs((2, 4, 3, 1, 5))
    ((2,), (4, 3, 1), (5,))
    """
    return _blocks(p, peaks(p))


def valley_runs(p: Perm) -> tuple[tuple[int, ...], ...]:
    """The runs of p that start at its valleys, as blocks of entries: p is
    their concatenation V_1 ... V_k.

    >>> valley_runs((2, 4, 3, 1, 5))
    ((2, 4, 3), (1, 5))
    """
    return _blocks(p, valleys(p))


# -- lexicographic rank / unrank / successor ---------------------------------


def rank(p: Perm) -> int:
    """Lexicographic position of ``p`` within S_n, counting from 0: its
    digits in the factorial number system, the i-th (from 0) the number of
    later entries smaller than p[i], read by Horner's rule."""
    n = len(p)
    r = 0
    remaining = sorted(p)
    for i, v in enumerate(p):
        j = remaining.index(v)
        r = r * (n - i) + j
        remaining.pop(j)
    return r


def unrank(n: int, r: int) -> Perm:
    """Permutation at lexicographic position ``r`` (0-based) in S_n."""
    if n < 0:
        raise PermutationError("length must be >= 0")
    if not 0 <= r < math.factorial(n):
        raise ValueError(f"rank {r} out of range for S_{n}")
    digits = []  # r in the factorial number system, least significant first
    for i in range(1, n + 1):
        r, j = divmod(r, i)
        digits.append(j)
    remaining = list(range(1, n + 1))
    return tuple(remaining.pop(j) for j in reversed(digits))


def successor(p: Perm) -> Optional[Perm]:
    """Next permutation in lexicographic order, or None at the last."""
    a = list(p)
    n = len(a)
    i = n - 2
    while i >= 0 and a[i] >= a[i + 1]:
        i -= 1
    if i < 0:
        return None
    j = n - 1
    while a[j] <= a[i]:
        j -= 1
    a[i], a[j] = a[j], a[i]
    a[i + 1 :] = reversed(a[i + 1 :])
    return tuple(a)


def all_perms(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic order (``itertools.permutations`` of a
    sorted input), independent of ``successor``.  The sweeps' rank ranges
    are blocks of ``itertools.permutations`` too, so their tests compare
    them with a walk of ``successor``."""
    return itertools.permutations(identity(n))
