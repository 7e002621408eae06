"""
Bivariate chromatic polynomials of graphs
=========================================

"""

from bivorder import (
    acyclic_orientations,
    check_reciprocity_graph,
    chrom_count,
    chrom_poly,
    classical_chrom_poly,
    complete_graph,
    cycle_graph,
    flats,
)
from bivorder.ratpoly import X

K3 = complete_graph(3)
poly = chrom_poly(K3)
print("triangle:", poly.text())

# colorings with x colors of which the top x - y are "proper-exempt":
# each edge is either properly colored or monochromatic above y
for x0, y0 in [(2, 1), (3, 1), (3, 3)]:
    print(f"  count({x0},{y0}) =", chrom_count(K3, x0, y0), "=", poly.evaluate(x0, y0))

# y = x recovers the classical chromatic polynomial
print("at y=x:", poly.subs_y_for_x().text())
print("classical:", classical_chrom_poly(K3).text())
assert poly.subs_y_for_x() == classical_chrom_poly(K3)

# y = 0 makes every edge constraint vacuous
assert poly.subs_y(0) == X**K3.n

# the polynomial is assembled from flats and acyclic orientations
C4 = cycle_graph(4)
print("C4 flats:", len(flats(C4)), " orientations:", len(acyclic_orientations(C4)))
for F in flats(C4):
    print("  blocks", F.blocks, "contracted", sorted(F.contracted))
print("C4:", chrom_poly(C4).text())

# reciprocity: the value at (-x,-y) counts colorings compatible with
# (flat, orientation) pairs, with signs; the check reads that count from
# acyclic orientation counts of vertex subsets, not from the pairs
report = check_reciprocity_graph(C4, 3, 2)
print(report.name, "at (3,2) ->", "PASS" if report.passed else "FAIL")
print("chi(-3,-2) =", chrom_poly(C4).evaluate(-3, -2))
