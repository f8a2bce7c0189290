"""The three facts that let the six s12 and m12 orbit and image claims at n
(T3_4, C5_1_min, C5_1_high, T5_2, L5_3, T5_4) read only the parents in
S_{n-1} of the sweep of S_n, S_0 = {()} at n = 1, checked exhaustively for
n <= 9 on the engine's own passes, and on S_10 by CI (the one-pass claims,
T3_6 among them, read the permutations of S_n themselves):

1. s12(S_n) is exactly the permutations that end in n.
2. Each of them has 2^(LRmax - 1) preimages, LRmax its number of
   left-to-right maxima: cutting it after its left-to-right maxima (the
   last cut forced) and reversing each block gives them.
3. Appending n commutes with s12 and west, so with m12.

Their s21 mirror is checked too: s21(S_n) is the permutations that end in
1, each with 2^(LRmin - 1) preimages, by cuts after its left-to-right
minima, and appending 1 to a word on 2..n commutes with s21.  So for
n >= 2 the identity, which does not end in 1, is no s21 image at all: T3_6
needs one pass only.  And the four m21 claims (L4_1, T4_2, L4_3, T4_4)
rest on the first two: an m21 pass is a west pass of an s21 image, so each
parent w of the sweep stands for the 2^LRmin(w) preimages of its lift
inc(w).1 and makes one west pass on it.  CI checks them on S_10 too.

Facts 1 and 2 and their mirror are one check per map: the cuts of the
permutations ending in n (or 1) give distinct preimages, n! of them in all,
so they are all of S_n.

T5_2, whose rows past n = 10 are read from the lifted route alone, is fact
1 iterated: the k-fold s12 image of S_n is S_{n-k} followed by
n-k+1, ..., n.  That is checked here too, for every k <= n - 1 and n <= 9,
on image sets made by the simulated stack, which shares no code with the
sweep's pass.
"""

import itertools
import math

import pytest

from pss.engine import MapId, pass_fn, s12_simulated
from pss.perms import inc

N_MAX = 9


def records(q, better):
    """0-based positions of q's left-to-right maxima (``better`` is ``max``)
    or minima (``min``)."""
    out, best = [], q[0]
    for i, v in enumerate(q):
        if better(v, best) == v:
            out.append(i)
            best = v
    return out


def cut_preimages(q, better):
    """Each choice of cuts after q's records but the last, with q's last
    position always cut, and each block reversed."""
    cuts = records(q, better)
    assert cuts[-1] == len(q) - 1, q
    out = []
    for chosen in itertools.product((False, True), repeat=len(cuts) - 1):
        ends = [c for c, take in zip(cuts, chosen) if take] + [len(q) - 1]
        p, start = (), 0
        for end in ends:
            p += q[start:end + 1][::-1]
            start = end + 1
        out.append(p)
    return out


def check_image(n, map_id, lift, better):
    f = pass_fn(map_id)
    total = 0
    for w in itertools.permutations(range(1, n)):
        q = lift(w)
        preimages = cut_preimages(q, better)
        assert len(set(preimages)) == len(preimages) == 2 ** (len(records(q, better)) - 1), q
        assert all(f(p) == q for p in preimages), q
        total += len(preimages)
    assert total == math.factorial(n)


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_s12_image_is_the_permutations_ending_in_n(n):
    check_image(n, MapId.S12, lambda w: w + (n,), max)


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_s21_image_is_the_permutations_ending_in_1(n):
    check_image(n, MapId.S21, lambda w: inc(w) + (1,), min)


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_appending_commutes_with_the_passes(n):
    s12, s21, west, m12 = (pass_fn(m) for m in (MapId.S12, MapId.S21, MapId.WEST, MapId.MACHINE12))
    for w in itertools.permutations(range(1, n)):
        top = w + (n,)
        for f in (s12, west, m12):
            assert f(top) == f(w) + (n,), (f, w)
        assert s21(inc(w) + (1,)) == inc(s21(w)) + (1,), w


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_k_fold_s12_image_is_s_n_minus_k_then_the_top(n):
    """Each image set is the simulated stack's image of the one before, so
    S_n is passed once and each k-fold image once."""
    image = set(itertools.permutations(range(1, n + 1)))
    for k in range(1, n):
        image = set(map(s12_simulated, image))
        top = tuple(range(n - k + 1, n + 1))
        assert image == {v + top for v in itertools.permutations(range(1, n - k + 1))}, (n, k)
