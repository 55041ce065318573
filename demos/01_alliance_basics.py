"""
Alliance predicates on small graphs
===================================

A non-empty vertex set S is a defensive k-alliance when every member has
at least k more neighbours inside S than outside, an offensive k-alliance
when every vertex of the boundary of S does, and a powerful k-alliance
when both hold (the offensive side at k+2).
"""

from alliancekit import (
    VertexSet,
    canonical_k_range,
    complete_graph,
    cycle_graph,
    degree_view,
    is_alliance,
    path_graph,
    star_graph,
)

# A path on three vertices: 0 - 1 - 2
p3 = path_graph(3)
ends = VertexSet.of([0, 2], 3)

view = degree_view(p3, ends)
print("split degrees of {0,2} in the 3-path:")
for v in range(3):
    print(f"  vertex {v}: inside={view.in_degree[v]} outside={view.out_degree[v]}")
print("boundary:", view.boundary.to_sorted_list())

# The centre sees both ends, so {0,2} attacks it with surplus 2:
print("{0,2} offensive 2-alliance:", is_alliance(p3, ends, 2, "offensive"))
# A lone centre cannot defend itself against both ends:
print("{1} defensive 1-alliance:", is_alliance(p3, VertexSet.of([1], 3), 1, "defensive"))

# The whole vertex set has an empty boundary, so it is an offensive
# k-alliance for every k; powerful then reduces to defensive.
c5 = cycle_graph(5)
print("\n5-cycle, S = V:")
print("  offensive 2-alliance:", is_alliance(c5, c5.vertices, 2, "offensive"))
print("  defensive 2-alliance:", is_alliance(c5, c5.vertices, 2, "defensive"))
print("  powerful  0-alliance:", is_alliance(c5, c5.vertices, 0, "powerful"))

# Complete graphs defend well: in K4 every vertex of V keeps all three
# neighbours inside, so V is a defensive 3-alliance but not a 4-alliance.
k4 = complete_graph(4)
print("\nK4, S = V: defensive 3:", is_alliance(k4, k4.vertices, 3, "defensive"))

# Canonical k ranges scale with the maximum degree.
s3 = star_graph(3)
for kind in ("defensive", "offensive", "powerful"):
    print(f"canonical {kind} k for the 3-star: {list(canonical_k_range(s3, kind))}")
