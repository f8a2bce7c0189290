"""Command-line surface.

Exit codes: 0 on success (and every verification row passing), 1 when a
verification or witness check fails, 2 on usage, parse, or guard errors.
Counts serialize as decimal strings in JSON so arbitrary precision survives
consumers without big integers.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Optional, Sequence

from . import enumerator, formulas
from .engine import (
    DottedPattern,
    MapId,
    dotted_policy,
    iterate,
    orbit,
    run_pass,
    west_policy,
)
from .enumerator import GuardExceeded
from .perms import PermutationError, format_perm, parse, peak_runs, valley_runs

MAP_CHOICES = [m.value for m in MapId]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser, its subcommands' included, whose parse errors are
    usage errors, each printed by ``main`` as one line."""

    def error(self, message):
        raise UsageError(message)


def _jobs(text: str) -> int:
    """argparse type of ``--jobs``: a worker count of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return jobs


# -- subcommand handlers -----------------------------------------------------


def cmd_sort(args) -> int:
    p = parse(args.perm)
    m = MapId(args.map)
    if args.times < 0:
        raise UsageError("--times must be nonnegative")
    if args.trace:
        if args.times != 1:
            raise UsageError("--trace requires --times 1")
        if m not in (MapId.WEST, MapId.S12, MapId.S21):
            raise UsageError("--trace is only available for single-pass maps")
        policy = west_policy() if m is MapId.WEST else dotted_policy(
            DottedPattern(12 if m is MapId.S12 else 21, 1)
        )
        result, events = run_pass(p, policy, want_trace=True)
        for step, e in enumerate(events):
            print(f"{step:4d} {e.op:4s} {e.value}")
    else:
        result = iterate(m, p, args.times)
    print(format_perm(result))
    return 0


def cmd_runs(args) -> int:
    p = parse(args.perm)
    runs = peak_runs(p) if args.kind == "peak" else valley_runs(p)
    print("".join(f"[{format_perm(run)}]" for run in runs))
    return 0


def _emit_reports(reports, fmt: str) -> None:
    if fmt == "json":
        if len(reports) == 1:
            doc = reports[0].to_dict()
        else:
            doc = {
                "reports": [r.to_dict() for r in reports],
                "overall_pass": all(r.overall_pass for r in reports),
            }
        print(json.dumps(doc, indent=2))
    elif fmt == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(["claim", "n", "param", "expected", "observed", "pass"])
        for r in reports:
            for row in r.rows:
                w.writerow([r.claim, *row, str(row.passed).lower()])
    else:
        for r in reports:
            for row in r.rows:
                mark = "PASS" if row.passed else "FAIL"
                print(f"{r.claim:10s} n={row.n:<3d} {row.param:40s} "
                      f"expected={row.expected} observed={row.observed} {mark}")
            print(f"{r.claim}: {'PASS' if r.overall_pass else 'FAIL'}")


def cmd_verify(args) -> int:
    if args.n_min > args.n_max:
        raise UsageError("--n-min must not exceed --n-max")
    if args.claim == "all":
        reports = enumerator.verify_all(args.n_min, args.n_max, args.jobs, args.force)
    else:
        reports = [enumerator.verify(args.claim, args.n_min, args.n_max, args.jobs, args.force)]
    # a report without rows checked nothing: a usage error, not a failed check
    reports = [r for r in reports if r.rows]
    if not reports:
        raise UsageError(f"no rows to check for n in {args.n_min}..{args.n_max}")
    _emit_reports(reports, args.format)
    return 0 if all(r.overall_pass for r in reports) else 1


def _check_n(n: int) -> None:
    if n < 1:
        raise UsageError(f"--n must be >= 1, got {n}")


def cmd_image(args) -> int:
    m = MapId(args.map)
    _check_n(args.n)
    if args.power == "auto":
        if m is MapId.S12:
            power = formulas.s12_terminal_power(args.n)
        elif m is MapId.MACHINE12:
            power = formulas.machine12_terminal_power(args.n)
        else:
            raise UsageError(f"--power auto is not defined for map {m.value}")
        if power < 0:
            raise UsageError(f"--power auto gives a negative power ({power}) at --n {args.n}")
    else:
        try:
            power = int(args.power)
        except ValueError:
            raise UsageError(f"--power must be an integer or 'auto', got {args.power!r}")
        if power < 0:
            raise UsageError(f"--power must be nonnegative, got {power}")
    image = enumerator.brute_image(m, args.n, power, jobs=args.jobs, force=args.force)
    if args.format == "json":
        print(json.dumps({
            "map": m.value, "n": args.n, "power": power,
            "size": str(len(image)),
            "image": [format_perm(p) for p in sorted(image)],
        }, indent=2))
    else:
        for p in sorted(image):
            print(format_perm(p))
    return 0


def cmd_fixed_points(args) -> int:
    m = MapId(args.machine)
    _check_n(args.n)
    count, found = enumerator.brute_fixed_points(m, args.n, jobs=args.jobs, force=args.force)
    if args.format == "json":
        doc = {"machine": m.value, "n": args.n, "count": str(count)}
        if args.list:
            doc["fixed_points"] = [format_perm(p) for p in found]
        print(json.dumps(doc, indent=2))
    elif args.list:
        print(f"{count}: " + " | ".join(format_perm(p) for p in found))
    else:
        print(count)
    return 0


def cmd_orbit(args) -> int:
    p = parse(args.perm)
    rep = orbit(MapId(args.map), p)
    if args.format == "json":
        print(json.dumps({"map": args.map, "perm": format_perm(p), **rep._asdict()}, indent=2))
    else:
        reach = rep.reaches_identity_at
        print(f"tail={rep.tail_length} cycle={rep.cycle_length} "
              f"reaches_identity_at={'none' if reach is None else reach} "
              f"periodic={'yes' if rep.is_periodic_point else 'no'}")
    return 0


# largest --n of ``pss witness``: a witness of 10^6 entries takes about
# 0.4 s and 170 MB to build and print
WITNESS_N_MAX = 10**6
# largest --n of ``pss witness --check``, whose floor(n/2) - 1 machine passes
# take time quadratic in n: at 10^4 the slowest family (even) takes about
# 2.2 s on one core, and at 16,001 the pi families about 5 s
WITNESS_CHECK_N_MAX = 10**4


def cmd_witness(args) -> int:
    if args.n > WITNESS_N_MAX:
        raise UsageError(f"--n must be at most {WITNESS_N_MAX}, got {args.n}")
    if args.check and args.n > WITNESS_CHECK_N_MAX:
        raise UsageError(f"--n must be at most {WITNESS_CHECK_N_MAX} with --check, got {args.n}")
    try:
        w, target = formulas.machine12_witness(args.family, args.n)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.check:
        actual = iterate(MapId.MACHINE12, w, formulas.machine12_terminal_power(args.n))
        ok = target == actual
        print(f"{format_perm(w)} → {format_perm(actual)} {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    print(format_perm(w))
    return 0


# largest --n of ``pss count``: every count is then at most 1000!, 2,568
# digits, and T4_4's recurrence, about n^2 big-int operations, takes
# about 0.3 s
COUNT_N_MAX = 1000

# claim -> closed-form count, called with (n, t) for T3_4 and with (n) otherwise
_COUNTS = {
    "T3_4": formulas.count_t_sortable_s12,
    "T3_6": formulas.count_t_sortable_s21,
    "T4_2": formulas.count_machine21_sortable,
    "T4_4": formulas.count_machine21_fixed_points,
    "C5_1_min": formulas.count_min_sorted_s12,
    "C5_1_high": formulas.count_highly_sorted_s12,
    "L5_3": formulas.machine12_bound,
}


def cmd_count(args) -> int:
    if args.claim not in _COUNTS:
        raise UsageError(
            f"no closed-form count for claim {args.claim!r}; "
            f"available: {', '.join(_COUNTS)}"
        )
    takes_t = args.claim == "T3_4"
    if takes_t and args.t is None:
        raise UsageError("claim T3_4 requires --t")
    if not takes_t and args.t is not None:
        raise UsageError(f"--t applies only to claim T3_4, not {args.claim}")
    if not 1 <= args.n <= COUNT_N_MAX:
        raise UsageError(f"--n must be in 1..{COUNT_N_MAX}, got {args.n}")
    try:
        value = _COUNTS[args.claim](*((args.n, args.t) if takes_t else (args.n,)))
    except ValueError as exc:
        raise UsageError(str(exc))
    digits = _decimal(value)
    if args.format == "json":
        print(json.dumps({"claim": args.claim, "n": args.n, "t": args.t,
                          "count": digits}, indent=2))
    else:
        print(digits)
    return 0


def _decimal(value: int) -> str:
    """``str(value)`` however many digits it has: the int-to-str limit
    (4300 digits by default since Python 3.11, and 3.10.7) is lifted for
    this one conversion."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="pss",
        description="Stack-sorting maps on permutations: sorting, orbits, "
                    "run decompositions, and exhaustive claim verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, jobs=False, force=False, formats=("table", "json")):
        if jobs:
            p.add_argument("--jobs", type=_jobs, default=os.cpu_count() or 1,
                           help="worker processes (default: all cores)")
        if force:
            p.add_argument("--force", action="store_true",
                           help="override the brute-force size guard")
        p.add_argument("--format", choices=formats, default="table")

    p = sub.add_parser("sort", help="apply a map to a permutation")
    p.add_argument("--map", choices=MAP_CHOICES, required=True)
    p.add_argument("--times", type=int, default=1)
    p.add_argument("--trace", action="store_true",
                   help="print the push/pop event log (single pass only)")
    p.add_argument("perm")
    p.set_defaults(func=cmd_sort)

    p = sub.add_parser("runs", help="peak or valley run decomposition")
    p.add_argument("--kind", choices=["peak", "valley"], required=True)
    p.add_argument("perm")
    p.set_defaults(func=cmd_runs)

    p = sub.add_parser("verify", help="check a claim against brute force")
    p.add_argument("--claim", choices=list(enumerator.CLAIM_IDS) + ["all"],
                   required=True)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=8)
    add_common(p, jobs=True, force=True, formats=("table", "json", "csv"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("image", help="k-fold image of S_n under a map")
    p.add_argument("--map", choices=MAP_CHOICES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--power", default="auto",
                   help="iteration count, or 'auto' for the map's terminal power")
    add_common(p, jobs=True, force=True)
    p.set_defaults(func=cmd_image)

    p = sub.add_parser("fixed-points", help="fixed points of a machine over S_n")
    p.add_argument("--machine", choices=["m12", "m21"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--list", action="store_true")
    add_common(p, jobs=True, force=True)
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("orbit", help="orbit structure of one permutation")
    p.add_argument("--map", choices=MAP_CHOICES, required=True)
    p.add_argument("perm")
    add_common(p)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("witness", help="witness-family constructions")
    p.add_argument("--family",
                   choices=["even", "cycle", "pi213", "pi132", "pi312"],
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check", action="store_true",
                   help="also run the claimed iteration property")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("count", help="closed-form counts")
    p.add_argument("--claim", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=None)
    add_common(p)
    p.set_defaults(func=cmd_count)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, GuardExceeded, PermutationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help, which prints and exits 0
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
