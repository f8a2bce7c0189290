"""The two-stage machines: dotted pass, then a west pass.

The 21 machine sorts exactly 2^(n-1) permutations of length n (one per way
of carving the positions into valley runs), and its fixed points obey the
binomial recurrence a_n = sum C(n-2, k) a_k.  Both are compared with
exhaustive sweeps, and the fixed points themselves are printed for small n.
"""

from pss import MapId, brute_fixed_points, brute_machine_sortable, format_perm
from pss.formulas import count_machine21_fixed_points, count_machine21_sortable

print("21-machine sortable permutations")
for n in range(1, 8):
    print(f"  n={n}: formula {count_machine21_sortable(n):>3}, "
          f"brute {brute_machine_sortable(MapId.MACHINE21, n):>3}")

print("\n21-machine fixed points (recurrence vs brute)")
for n in range(1, 8):
    count, _ = brute_fixed_points(MapId.MACHINE21, n)
    print(f"  n={n}: recurrence {count_machine21_fixed_points(n):>3}, brute {count:>3}")

print("\nthe fixed points of length 4:")
_, found = brute_fixed_points(MapId.MACHINE21, 4)
for p in found:
    print("  ", format_perm(p))
