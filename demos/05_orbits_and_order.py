"""Orbit structure: tails, cycles, and the order of S_n.

Every permutation eventually falls onto a periodic point of a map.  Under
the base-12 map the only periodic point reached is the identity and the
longest tail in S_n is n-1, so S_n has order n-1.  The 21 machine instead
has many fixed points; this script samples a few orbits of each kind.
"""

from pss import MapId, all_perms, brute_ord, format_perm, orbit

print("orbits of a few length-5 permutations under the base-12 map:")
for p in [(2, 3, 1, 4, 5), (5, 4, 3, 2, 1), (3, 1, 4, 5, 2)]:
    rep = orbit(MapId.S12, p)
    print(f"  {format_perm(p)}: tail {rep.tail_length}, cycle {rep.cycle_length}, "
          f"identity at {rep.reaches_identity_at}")

print("\norder of S_n (longest tail), base-12 map vs the 12 machine:")
for n in range(2, 8):
    print(f"  n={n}: s12 order {brute_ord(MapId.S12, n)} (= n-1), "
          f"m12 order {brute_ord(MapId.MACHINE12, n)}")

print("\nperiodic points of the 21 machine in S_4:")
for p in all_perms(4):
    rep = orbit(MapId.MACHINE21, p)
    if rep.is_periodic_point:
        print(f"  {format_perm(p)} (cycle length {rep.cycle_length})")
