"""Enumerating the distinguished curve classes.

Two exhaustive searches: classes with xi.xi = -1 and K.xi = -1 (the
exceptional curves: 27 lines on the cubic surface, 240 classes at
rank 8), and classes with D.D = 0 and K.D = -2 together with all their
splittings into pairs of exceptional classes.
"""

from delpezzo import (
    decompose_null_class,
    enumerate_exceptional,
    enumerate_null_classes,
    type_pattern,
)
from delpezzo.tables import (
    render_decomposition_table,
    render_exceptional_census,
    render_null_class_table,
)

print("the 27 lines on the cubic surface, by type:")
for xi in enumerate_exceptional(6)[:5]:
    print(f"  {xi}   pattern {type_pattern(xi)}")
print(f"  ... {len(enumerate_exceptional(6))} classes in total")
print()

print(render_exceptional_census())

records = enumerate_null_classes(8)
print(render_null_class_table(records))
print(render_decomposition_table(records))

# splittings of one specific class
D = records[1].representative  # (2; 0,0,0,0,1,1,1,1)
print(f"all splittings of {D} into two exceptional classes:")
for xi1, xi2 in decompose_null_class(D):
    print(f"  {xi1}  +  {xi2}")
