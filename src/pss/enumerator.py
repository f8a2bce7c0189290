"""Exhaustive sweeps over S_n and claim verification.

Every brute-force statistic is one query on one map's functional graph, and
every sweep is made by one primitive, ``_tally``: a top-level *kernel
factory* ``make_kernel(n, *params)`` returns a kernel from a permutation of
length n to a hashable key, and ``_tally`` counts the keys over S_n into a
``Counter`` that each public operation reduces.  Most reduce the orbit-shape
kernel, whose key is an orbit's (first step at the identity, tail, cycle)
from the engine's one walker: the sort histogram buckets the first step,
exact-t counts repeat it along the cycle, and the order is the largest tail.

The sweep walks half-open rank ranges with the lexicographic successor
(unranking happens only at range starts).  With more than one job the
ranges go to worker processes; the per-range Counters are summed, so the
outcome is identical for any worker count.  Pool tasks carry only ints,
``MapId``/``Strategy`` values and module-level functions, so they pickle
under any start method.

``verify`` pairs each registered claim's closed form (from
:mod:`pss.formulas`) with its brute-force counterpart and emits a
:class:`VerificationReport`.
"""

from __future__ import annotations

import math
import multiprocessing
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Hashable, Iterator, Optional

from . import formulas
from .engine import (
    DottedPattern,
    MapId,
    Strategy,
    dotted_policy,
    pass_fn,
    run_pass,
    s12_closed_form,
    s12_simulated,
    s21_closed_form,
    s21_simulated,
    _walk,
)
from .guard import GuardExceeded, check_guard
from .perms import (
    Perm,
    PermutationError,
    delete_one,
    format_perm,
    identity,
    ins,
    reverse_identity,
    successor,
    unrank,
)


@dataclass(frozen=True)
class RankRange:
    """Half-open slice [lo, hi) of S_n in lexicographic order."""

    n: int
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= self.hi <= math.factorial(self.n):
            raise ValueError(f"invalid rank range [{self.lo}, {self.hi}) for S_{self.n}")


def split_ranges(n: int, parts: int) -> list[RankRange]:
    """Partition [0, n!) into at most ``parts`` contiguous ranges."""
    if n < 1:
        raise PermutationError("length must be >= 1")
    total = math.factorial(n)
    parts = max(1, min(parts, total))
    step, extra = divmod(total, parts)
    ranges = []
    lo = 0
    for i in range(parts):
        hi = lo + step + (1 if i < extra else 0)
        ranges.append(RankRange(n, lo, hi))
        lo = hi
    return ranges


def iter_range(r: RankRange) -> Iterator[Perm]:
    p = unrank(r.n, r.lo) if r.lo < r.hi else None
    for _ in range(r.hi - r.lo):
        yield p  # type: ignore[misc]
        p = successor(p)  # type: ignore[arg-type]


# -- the sweep primitive -----------------------------------------------------

KEY_CAP = 10**6  # most distinct keys one sweep may hold
BLOCK = 4096  # permutations counted between two checks of the cap


def _check_cap(counts: Counter) -> None:
    if len(counts) > KEY_CAP:
        raise GuardExceeded(
            f"sweep has more than {KEY_CAP} distinct results; use a smaller n "
            "or a larger power"
        )


def _run(worker: Callable, tasks: list, jobs: int) -> list:
    """``worker`` over ``tasks``, in a pool of ``jobs`` processes when there
    is more than one of each."""
    if jobs <= 1 or len(tasks) == 1:
        return [worker(t) for t in tasks]
    with multiprocessing.Pool(jobs) as pool:
        return pool.map(worker, tasks)


def _tally_range(task: tuple) -> Counter:
    n, lo, hi, make_kernel, params = task
    kernel = make_kernel(n, *params)
    perms = iter_range(RankRange(n, lo, hi))
    counts: Counter = Counter()
    for _ in range(lo, hi, BLOCK):
        counts.update(map(kernel, islice(perms, BLOCK)))
        _check_cap(counts)
    return counts


def _tally(n: int, jobs: int, make_kernel: Callable, *params) -> Counter:
    """Counter of ``make_kernel(n, *params)(p)`` over p in S_n."""
    ranges = split_ranges(n, jobs * 4 if jobs > 1 else 1)
    tasks = [(r.n, r.lo, r.hi, make_kernel, params) for r in ranges]
    total: Counter = Counter()
    for counts in _run(_tally_range, tasks, jobs):
        total.update(counts)
    _check_cap(total)
    return total


# -- kernel factories (top level so they pickle) ------------------------------

Kernel = Callable[[Perm], Hashable]


def _orbit_shape(
    n: int, map_id: MapId, cap: Optional[int], strategy: Optional[Strategy]
) -> Kernel:
    """The orbit's (identity hit, tail, cycle), walked for at most ``cap``
    passes (see ``engine._walk``)."""
    f, ident = pass_fn(map_id, strategy), identity(n)
    fixes_ident = f(ident) == ident
    return lambda p: _walk(f, ident, fixes_ident, p, cap)


def _image(n: int, map_id: MapId, k: int, strategy: Optional[Strategy]) -> Kernel:
    """The k-fold image."""
    f = pass_fn(map_id, strategy)

    def kernel(p: Perm) -> Perm:
        for _ in range(k):
            p = f(p)
        return p

    return kernel


def _fixed_point(n: int, map_id: MapId) -> Kernel:
    """The permutation if one pass fixes it, else None."""
    f = pass_fn(map_id)
    return lambda p: p if f(p) == p else None


def _strategies_differ(n: int, map_id: MapId) -> Kernel:
    closed = pass_fn(map_id, Strategy.CLOSED_FORM)
    simulated = pass_fn(map_id, Strategy.SIMULATED)
    return lambda p: closed(p) != simulated(p)


def _dot_variants_differ(n: int) -> Kernel:
    """Whether the two dot placements of either base pattern give different
    pass outputs."""
    pairs = [
        (dotted_policy(DottedPattern(base, 1)), dotted_policy(DottedPattern(base, 2)))
        for base in (12, 21)
    ]
    return lambda p: any(run_pass(p, one)[0] != run_pass(p, two)[0] for one, two in pairs)


def _machine21_sortable_mismatch(n: int) -> Kernel:
    """One m21 pass sorts p, against: the valley-run reversal of p is the
    decreasing permutation."""
    m21, s21 = pass_fn(MapId.MACHINE21), pass_fn(MapId.S21)
    ident, rev = identity(n), reverse_identity(n)
    return lambda p: (m21(p) == ident) != (s21(p) == rev)


def _machine21_fixed_mismatch(n: int) -> Kernel:
    m21 = pass_fn(MapId.MACHINE21)
    return lambda p: (m21(p) == p) != formulas.is_machine21_fixed_shape(p)


def _deletion_differs(m: int) -> Kernel:
    """Whether some insertion i of p in S_m, sorted by one s12 pass and with
    the 1 deleted again, differs from the sorted p."""
    s12 = pass_fn(MapId.S12)

    def kernel(p: Perm) -> bool:
        want = s12(p)
        return any(delete_one(s12(ins(p, i))) != want for i in range(1, m + 2))

    return kernel


def _insertion_miss(m: int, t: int) -> Kernel:
    """Whether p in S_m is t-sortable under s12 yet does not have exactly
    t+1 of its m+1 insertions t-sortable."""
    parent = _orbit_shape(m, MapId.S12, t, None)
    child = _orbit_shape(m + 1, MapId.S12, t, None)

    def kernel(p: Perm) -> bool:
        if parent(p)[0] is None:
            return False
        return sum(child(ins(p, i))[0] is not None for i in range(1, m + 2)) != t + 1

    return kernel


# -- public brute-force operations -------------------------------------------


def _shapes(map_id, n, cap, jobs, force, strategy=None) -> Counter:
    """Counter of orbit shapes (identity hit, tail, cycle) over S_n."""
    check_guard(n, force)
    return _tally(n, jobs, _orbit_shape, MapId(map_id), cap, strategy)


def sort_histogram(
    map_id: MapId,
    n: int,
    t_cap: int,
    jobs: int = 1,
    force: bool = False,
    strategy: Optional[Strategy] = None,
) -> tuple[list[int], int]:
    """Minimal-sort-count histogram over S_n: (buckets[0..t_cap], never)."""
    hits: Counter = Counter()
    for (hit, _, _), c in _shapes(map_id, n, t_cap, jobs, force, strategy).items():
        hits[hit] += c
    return [hits[t] for t in range(t_cap + 1)], hits[None]


def exact_sortable_counts(
    map_id: MapId,
    n: int,
    t_cap: int,
    jobs: int = 1,
    force: bool = False,
    strategy: Optional[Strategy] = None,
) -> list[int]:
    """counts[t] = #{p in S_n : t-fold image of p is the identity}."""
    counts = [0] * (t_cap + 1)
    for (hit, tail, cycle), c in _shapes(map_id, n, t_cap, jobs, force, strategy).items():
        if hit is not None:  # the identity recurs only if it is on the cycle
            on_cycle = tail is not None and hit >= tail
            for t in range(hit, t_cap + 1, cycle) if on_cycle else (hit,):
                counts[t] += c
    return counts


def brute_t_sortable(
    map_id: MapId,
    n: int,
    t: int,
    jobs: int = 1,
    force: bool = False,
    strategy: Optional[Strategy] = None,
) -> int:
    """Count permutations of length n whose t-fold image is the identity.

    For maps that fix the identity this is the usual "sorted within t
    passes"."""
    return exact_sortable_counts(map_id, n, t, jobs, force, strategy)[t]


def brute_machine_sortable(
    machine: MapId, n: int, jobs: int = 1, force: bool = False
) -> int:
    """Count permutations of length n that one pass of ``machine`` sorts."""
    check_guard(n, force)
    return _tally(n, jobs, _image, MapId(machine), 1, None)[identity(n)]


def brute_fixed_points(
    machine: MapId, n: int, collect: bool = False, jobs: int = 1, force: bool = False
) -> tuple[int, Optional[list[Perm]]]:
    """Fixed points of ``machine`` in S_n: their count and, with ``collect``,
    the list in lexicographic order."""
    check_guard(n, force)
    found = sorted(p for p in _tally(n, jobs, _fixed_point, MapId(machine)) if p is not None)
    return len(found), (found if collect else None)


def brute_image(
    map_id: MapId,
    n: int,
    k: int,
    jobs: int = 1,
    force: bool = False,
    strategy: Optional[Strategy] = None,
) -> set[Perm]:
    """{k-fold image of p : p in S_n} as a set."""
    check_guard(n, force)
    return set(_tally(n, jobs, _image, MapId(map_id), k, strategy))


def brute_ord(map_id: MapId, n: int, jobs: int = 1, force: bool = False) -> int:
    """Largest orbit tail over S_n, computed exhaustively: the least k after
    which every permutation has landed on a periodic point."""
    return max(tail for _, tail, _ in _shapes(map_id, n, None, jobs, force))


def insertion_positions_property(n: int, t: int, force: bool = False) -> bool:
    """True iff every t-sortable p in S_{n-1} has exactly t+1 of its n
    insertions t-sortable under the base-12 map."""
    if not 1 <= t < n:
        raise ValueError("need 1 <= t < n")
    check_guard(n, force)
    return not _tally(n - 1, 1, _insertion_miss, t)[True]


def _w_random_agreement(args) -> int:
    """Failures of closed-form vs simulated agreement on random permutations;
    lengths are drawn log-uniformly in [1, n_max]."""
    count, n_max, seed = args
    rng = random.Random(seed)
    log_max = math.log(n_max)
    bad = 0
    for _ in range(count):
        n = min(n_max, max(1, int(round(math.exp(rng.uniform(0.0, log_max))))))
        vals = list(range(1, n + 1))
        rng.shuffle(vals)
        p = tuple(vals)
        if s12_closed_form(p) != s12_simulated(p):
            bad += 1
        if s21_closed_form(p) != s21_simulated(p):
            bad += 1
    return bad


def random_agreement_failures(
    count: int, n_max: int, seed: int = 0, jobs: int = 1
) -> int:
    """Closed-form vs simulated disagreements over ``count`` random
    permutations of log-uniform length up to ``n_max``."""
    chunks = max(1, jobs)
    per = [count // chunks + (1 if i < count % chunks else 0) for i in range(chunks)]
    tasks = [(c, n_max, seed + i) for i, c in enumerate(per) if c]
    return sum(_run(_w_random_agreement, tasks, jobs))


# -- claim verification ------------------------------------------------------


@dataclass(frozen=True)
class Row:
    n: int
    param: str
    expected: str
    observed: str
    passed: bool


@dataclass
class VerificationReport:
    claim: str
    n_min: int
    n_max: int
    rows: list[Row] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_dict(self) -> dict:
        """JSON document; deliberately excludes elapsed so output is
        byte-identical across worker counts."""
        return {
            "claim": self.claim,
            "params": {"n_min": self.n_min, "n_max": self.n_max},
            "rows": [
                {
                    "n": r.n,
                    "param": r.param,
                    "expected": r.expected,
                    "observed": r.observed,
                    "pass": r.passed,
                }
                for r in self.rows
            ],
            "overall_pass": self.overall_pass,
        }


def _perm_set_str(ps: set[Perm]) -> str:
    return " | ".join(format_perm(p) for p in sorted(ps))


def _count_row(n: int, param: str, expected: int, observed: int) -> Row:
    return Row(n, param, str(expected), str(observed), expected == observed)


def _set_row(n: int, param: str, expected: set[Perm], observed: set[Perm]) -> Row:
    return Row(n, param, _perm_set_str(expected), _perm_set_str(observed), expected == observed)


def _zero_rows(n, jobs, force, label, shift, make_kernel, *params):
    """One row: the permutations of S_{n-shift} whose kernel reports a
    mismatch, expected to number zero."""
    bad = _tally(n - shift, jobs, make_kernel, *params)[True]
    return [_count_row(n, label, 0, bad)]


def _rows_t34(n, jobs, force):
    buckets, _ = sort_histogram(MapId.S12, n, n, jobs, force)
    return [
        _count_row(n, f"t={t}", formulas.count_t_sortable_s12(n, t), sum(buckets[: t + 1]))
        for t in range(1, n + 1)
    ]


def _rows_t36(n, jobs, force):
    counts = exact_sortable_counts(MapId.S21, n, 2 * n, jobs, force)
    expected = formulas.count_t_sortable_s21(n)
    return [
        _count_row(n, f"t={t}", expected, counts[t]) for t in range(1, 2 * n + 1)
    ]


def _rows_t42(n, jobs, force):
    observed = brute_machine_sortable(MapId.MACHINE21, n, jobs, force)
    return [_count_row(n, "machine-sortable", formulas.count_machine21_sortable(n), observed)]


def _rows_t44(n, jobs, force):
    observed, _ = brute_fixed_points(MapId.MACHINE21, n, False, jobs, force)
    return [_count_row(n, "fixed points", formulas.count_machine21_fixed_points(n), observed)]


def _rows_c51_min(n, jobs, force):
    shapes = _shapes(MapId.S12, n, None, jobs, force)
    slowest = sum(c for (hit, _, _), c in shapes.items() if hit == n - 1)
    return [_count_row(n, "exactly n-1 sorts", formulas.count_min_sorted_s12(n), slowest),
            _count_row(n, "ord", n - 1, max(tail for _, tail, _ in shapes))]


def _rows_c51_high(n, jobs, force):
    buckets, _ = sort_histogram(MapId.S12, n, n, jobs, force)
    observed = sum(buckets[: n - 1])
    return [_count_row(n, "within n-2 sorts", formulas.count_highly_sorted_s12(n), observed)]


def _rows_t52(n, jobs, force):
    observed = brute_image(MapId.S12, n, n - 2, jobs, force)
    return [_set_row(n, f"power={n - 2}", formulas.image_s12_power(n), observed)]


def _rows_l53(n, jobs, force):
    _, never = sort_histogram(MapId.MACHINE12, n, n // 2, jobs, force)
    return [_count_row(n, f"not sorted within {n // 2} machine passes", 0, never)]


def _rows_t54(n, jobs, force):
    k = n // 2 - 1
    rows = [_set_row(n, f"power={k}", formulas.image_machine12(n),
                     brute_image(MapId.MACHINE12, n, k, jobs, force))]
    families = ["even"] if n % 2 == 0 else ["cycle", "pi213", "pi132", "pi312"]
    for fam in families:
        _, target, actual = formulas.machine12_witness_check(fam, n)
        rows.append(Row(n, f"witness {fam}", format_perm(target), format_perm(actual),
                        target == actual))
    return rows


# claim -> (least n, row builder over one n, *builder arguments); the
# zero-mismatch claims share one builder and differ by its arguments
_CLAIMS: dict[str, tuple] = {
    "RED": (1, _zero_rows, "dot-variant mismatches", 0, _dot_variants_differ),
    "P3_1": (1, _zero_rows, "closed vs simulated mismatches", 0, _strategies_differ, MapId.S12),
    "P3_5": (1, _zero_rows, "closed vs simulated mismatches", 0, _strategies_differ, MapId.S21),
    "L3_3": (2, _zero_rows, "insertion commutation failures", 1, _deletion_differs),
    "T3_4": (1, _rows_t34),
    "T3_6": (1, _rows_t36),
    "L4_1": (1, _zero_rows, "characterization mismatches", 0, _machine21_sortable_mismatch),
    "T4_2": (1, _rows_t42),
    "L4_3": (1, _zero_rows, "shape-predicate mismatches", 0, _machine21_fixed_mismatch),
    "T4_4": (1, _rows_t44),
    "C5_1_min": (2, _rows_c51_min),
    "C5_1_high": (2, _rows_c51_high),
    "T5_2": (4, _rows_t52),
    "L5_3": (2, _rows_l53),
    "T5_4": (4, _rows_t54),
}

CLAIM_IDS = tuple(_CLAIMS)


def verify(
    claim: str, n_min: int, n_max: int, jobs: int = 1, force: bool = False
) -> VerificationReport:
    """Compare the closed form of one claim against brute force over a range
    of lengths.  The range is clamped below to the claim's valid domain."""
    if claim not in _CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; known: {', '.join(_CLAIMS)}")
    if n_min > n_max:
        raise ValueError("n_min must not exceed n_max")
    check_guard(n_max, force)
    lo, build, *args = _CLAIMS[claim]
    start = time.monotonic()
    report = VerificationReport(claim, n_min, n_max)
    for n in range(max(n_min, lo), n_max + 1):
        report.rows.extend(build(n, jobs, force, *args))
    report.elapsed = time.monotonic() - start
    return report


def verify_all(
    n_min: int, n_max: int, jobs: int = 1, force: bool = False
) -> list[VerificationReport]:
    return [verify(c, n_min, n_max, jobs, force) for c in CLAIM_IDS]
