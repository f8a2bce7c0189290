"""Terminal images and the witnesses that reach them.

After n-2 passes of the base-12 map, all of S_n collapses onto just two
permutations.  The 12 machine is faster: floor(n/2) passes sort everything,
and one pass short of that the image is a 2-set (even n) or a 5-set (odd n).
Explicit witness families reach each non-identity image point; this script
iterates them step by step.
"""

from pss import MapId, apply, brute_image, format_perm
from pss.formulas import (
    image_machine12,
    machine12_terminal_power,
    machine12_witness_check,
    witness_cycle,
    witness_even,
)

for n in (6, 7):
    k = machine12_terminal_power(n)
    image = brute_image(MapId.MACHINE12, n, k)
    print(f"12-machine image of S_{n} after {k} passes "
          f"({len(image)} permutations, formula agrees: "
          f"{image == image_machine12(n)}):")
    for p in sorted(image):
        print("  ", format_perm(p))

print("\niterating the even witness for n=8:")
p = witness_even(8)
for step in range(machine12_terminal_power(8) + 1):
    print(f"  after {step} machine passes: {format_perm(p)}")
    p = apply(MapId.MACHINE12, p)

print("\niterating the cycle witness for n=9:")
p = witness_cycle(9)
for step in range(machine12_terminal_power(9) + 1):
    print(f"  after {step} machine passes: {format_perm(p)}")
    p = apply(MapId.MACHINE12, p)

print("\nall witness families at a glance (n=9 and n=10):")
for n in (9, 10):
    fams = ["even"] if n % 2 == 0 else ["cycle", "pi213", "pi132", "pi312"]
    for fam in fams:
        w, target, actual = machine12_witness_check(fam, n)
        ok = "ok" if target == actual else "MISMATCH"
        print(f"  n={n} {fam:6s} {format_perm(w)} -> {format_perm(actual)}  [{ok}]")
