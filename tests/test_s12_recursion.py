"""T3_4 and C5_1 past the enumeration ceiling: a recursion for the joint
count J_n(s, b) = #{p in S_n : s12 sort count s, b left-to-right maxima}.

Every p in S_n but the identity sorts one pass after q' in S_{n-1}, where
s12(p) = q'.n, and p is the reversal of the blocks of one cut of q'.n after
its left-to-right maxima, the last cut forced (``test_lift_facts``).  With
L the left-to-right maxima of q', q'.n has L + 1 of them, and p has b of
them iff its cut has b blocks: C(L, b - 1) ways.  So

* J_1 = {(0, 1): 1};
* J_n(s + 1, b) = sum over L of J_{n-1}(s, L) * C(L, b - 1), 1 <= b <= L + 1;
* then one count moves from (1, n) to (0, n): the identity, which the
  recursion sorts one pass after the identity of S_{n-1}.

The recursion is checked against a brute-force count over S_n for n <= 8,
then against the closed forms of ``pss.formulas`` up to n = 60.  It is a
derived route, not brute force, and shares no code with those forms.
"""

from collections import Counter
from functools import lru_cache
from math import comb

import pytest

from pss import formulas
from pss.engine import MapId, sorts_in
from pss.perms import all_perms, peaks

N_BRUTE = 8
N_MAX = 60


@lru_cache(maxsize=None)
def joint(n: int) -> dict:
    """J_n as a dict from (sort count, left-to-right maxima) to a count."""
    if n == 1:
        return {(0, 1): 1}
    out: Counter = Counter()
    for (s, maxima), count in joint(n - 1).items():
        for b in range(1, maxima + 2):
            out[s + 1, b] += count * comb(maxima, b - 1)
    out[1, n] -= 1
    out[0, n] += 1
    return {key: c for key, c in out.items() if c}


def sorted_within(n: int, t: int) -> int:
    return sum(c for (s, _), c in joint(n).items() if s <= t)


@pytest.mark.parametrize("n", range(1, N_BRUTE + 1))
def test_recursion_is_the_brute_force_count(n):
    brute = Counter((sorts_in(MapId.S12, p, n), len(peaks(p))) for p in all_perms(n))
    assert joint(n) == brute


def test_recursion_gives_the_closed_forms():
    for n in range(1, N_MAX + 1):
        assert sum(joint(n).values()) == formulas.count_t_sortable_s12(n, n)
        for t in range(1, n + 1):
            assert sorted_within(n, t) == formulas.count_t_sortable_s12(n, t), (n, t)
        if n >= 2:
            slowest = sum(c for (s, _), c in joint(n).items() if s == n - 1)
            assert slowest == formulas.count_min_sorted_s12(n), n
            assert sorted_within(n, n - 2) == formulas.count_highly_sorted_s12(n), n
