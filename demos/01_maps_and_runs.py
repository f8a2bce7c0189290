"""A first walk through the stack maps.

The base-12 dotted stack pushes an entry only while something larger sits on
the stack, so a single pass reverses each peak run (the blocks starting at
left-to-right maxima).  The base-21 stack is the mirror image and reverses
valley runs.  This script traces both on one example and shows the push/pop
log of a pass.
"""

from pss import (
    DottedPattern,
    dotted_policy,
    format_perm,
    parse,
    peak_runs,
    run_pass,
    s12_closed_form,
    s21_closed_form,
    valley_runs,
    west_pass,
)

p = parse("2,4,3,1,5")
print("permutation:     ", format_perm(p))
print("peak runs:       ", " | ".join(map(format_perm, peak_runs(p))))
print("valley runs:     ", " | ".join(map(format_perm, valley_runs(p))))
print("base-12 pass:    ", format_perm(s12_closed_form(p)), " (each peak run reversed)")
print("base-21 pass:    ", format_perm(s21_closed_form(p)), " (each valley run reversed)")
print("west pass:       ", format_perm(west_pass(p)))

print("\npush/pop log of the base-12 pass:")
out, events = run_pass(p, dotted_policy(DottedPattern(12, 1)), want_trace=True)
for step, e in enumerate(events):
    print(f"  step {step:2d}  {e.op:4s} {e.value}")
print("output:", format_perm(out))
