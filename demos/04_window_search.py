"""Cross-verifying k-very ampleness with the numeric obstruction window.

With M = L - K nef and M.M >= 4k + 5, a failure of k-very ampleness
forces an effective divisor D with

    M.D - k - 1 <= D.D < M.D/2 < k + 1.

The searcher enumerates every effective class in that window over a
provably sufficient box and the consistency sweep checks the verdicts
agree with the inequality criterion on thousands of classes.
"""

from delpezzo import (
    PicardClass,
    canonical_class,
    consistency_sweep,
    search_obstructions,
    window_applicable,
)

# a failing class: (3;2,2) pairs with l - e_1 - e_2 only 3 - 4 = -1 < 1
L = PicardClass(3, (2, 2))
outcome = search_obstructions(L, 1)
print(f"L = {L}, k = 1: M = {outcome.M}, M.M = {outcome.M_squared}")
for w in outcome.witnesses:
    checks = ", ".join(f"{a} {op} {b}" for a, op, b in w.window)
    print(f"  witness D = {w.D}: M.D = {w.MD}, D.D = {w.D_squared}  [{checks}]")
print()

# a passing class: the anticanonical class of the cubic surface is very
# ample and its window is empty
outcome = search_obstructions(-canonical_class(6), 1)
print(f"-K on the cubic surface, k = 1: applicable={outcome.applicable}, "
      f"witnesses={len(outcome.witnesses)}")
print()

# small anticanonical classes do not even clear the M.M threshold
ok, M, m2 = window_applicable(-canonical_class(7), 1)
print(f"-K at rank 7, k = 1: M.M = {m2} < 9, applicable={ok}")
print()

# the sweep: every nef class in the box, both directions checked
summary = consistency_sweep(2, 1, 10)
print(summary.render())
print()
summary = consistency_sweep(8, 1, 12, sample=500, seed=7)
print(summary.render())
