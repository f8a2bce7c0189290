"""Permutation stack-sorting laboratory.

Single-pass stack maps on permutations (the classical west sort and the two
length-2 dotted maps), their composed machines, orbit analysis, closed-form
enumeration, and an exhaustive brute-force verification engine.
"""

from .engine import (
    DottedPattern,
    MapId,
    OrbitReport,
    apply,
    dotted_policy,
    iterate,
    orbit,
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
from .enumerator import (
    GuardExceeded,
    RankRange,
    Row,
    VerificationReport,
    brute_fixed_points,
    brute_image,
    brute_machine_sortable,
    brute_ord,
    brute_t_sortable,
    insertion_positions_property,
    iter_range,
    split_ranges,
    verify,
    verify_all,
)
from .perms import (
    Perm,
    PermutationError,
    Word,
    all_perms,
    delete_one,
    format_perm,
    identity,
    inc,
    ins,
    parse,
    peak_runs,
    peaks,
    perm,
    rank,
    reverse_identity,
    successor,
    unrank,
    valley_runs,
    valleys,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
