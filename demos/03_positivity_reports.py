"""Positivity verdicts: effective, nef, spanned, big, k-very ample.

Everything reduces to intersecting against the exceptional classes.  A
class is nef iff all pairings are >= 0 (and iff it is spanned); it is
k-very ample iff all pairings are >= k, except for three explicitly
named classes on the degree-1 and degree-2 surfaces.
"""

import json

from delpezzo import (
    PicardClass,
    canonical_class,
    generate_inequality_families,
    is_effective,
    is_k_very_ample,
    surface_context,
)

ctx = surface_context(2)

# a class that is effective but not nef: the line through both points
# is forced as a component and pairs negatively
L = PicardClass(3, (2, 2))
report = is_k_very_ample(L, 1, ctx)
print(f"report for {L} at k = 1:")
print(json.dumps(report.as_dict(), indent=2))
print()

# the effectivity certificate says which exceptional classes were peeled off
ok, cert = is_effective(L, ctx)
print(f"effective: {ok}")
print(f"  subtracted: {[(str(c), m) for c, m in cert.subtracted]}")
print(f"  nef remainder: {cert.terminal}")
print()

# per-type inequality families: the pairing test folded over orbits
print("k-very-ampleness inequalities at rank 8:")
for fam in generate_inequality_families(8):
    print(f"  {fam.label()}    (from type {fam.source_type})")
print()

# the three exception classes satisfy every inequality yet fail
ctx8 = surface_context(8)
for k in (1, 2):
    L = -k * canonical_class(8)
    rep = is_k_very_ample(L, k, ctx8)
    print(f"-{k}K at rank 8, k = {k}: k_very_ample={rep.k_very_ample}, "
          f"flag={rep.exception_flag}")
