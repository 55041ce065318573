"""
Free-set constructions inside products
======================================

Free sets of the factors lift to free sets of the product:

  column             S x V2 at k + max_degree(G2) (defensive/powerful)
                     or k - min_degree(G2) (offensive)
  box                S1 x S2 at k1 + k2 - 1
  box plus diagonal  the box plus a matching of leftover vertices
  union of columns   (S1 x V2) u (V1 x S2) for the offensive kind

`build_witness` builds all four by name.  Each construction checks its
inputs are really free and re-verifies the output exhaustively, so
`verified` is a computed fact, not a promise.
"""

from alliancekit import (
    build_witness,
    cartesian_product,
    cycle_graph,
    degree_view,
    path_graph,
    phi,
    star_graph,
)

star, p4 = star_graph(3), path_graph(4)
leaves = phi(star, 0, "defensive").witness          # {1,2,3}
prefix = phi(p4, 1, "defensive").witness            # {0,1,2}
print("factor witnesses:", leaves.to_sorted_list(), prefix.to_sorted_list())

box = build_witness("box_plus_diagonal", star, p4, s1=leaves, s2=prefix, k1=0, k2=1,
                    kind="defensive")
print(f"box+diagonal: size {len(box.result)}, free at k={box.k_claim}: {box.verified}")

prod = cartesian_product(star, p4)
view = degree_view(prod, box.result)
isolated = [v for v in box.result if view.in_degree[v] == 0]
print("diagonal vertices are isolated inside the witness:", isolated)

exact = phi(prod, 0, "defensive").value
print(f"construction gives {len(box.result)}, exact maximum is {exact}")

# Offensive column: a maximum 2-free set of the path spans all four cycle
# columns and attains the exact product value.
c4, p3 = cycle_graph(4), path_graph(3)
col = build_witness("column", c4, p3, s=phi(p3, 2, "offensive").witness, axis=2,
                    k=2, kind="offensive")
print(f"\ncolumn: size {len(col.result)}, free at k={col.k_claim}: {col.verified}")
print("exact phi_off(0) of cycle(4) x path(3):",
      phi(cartesian_product(c4, p3), 0, "offensive").value)

# Union of columns on cycle(3) x path(3): 1*3 + 2*3 - 1*2 = 7 vertices.
c3 = cycle_graph(3)
uni = build_witness("union", c3, p3, s1=phi(c3, 1, "offensive").witness,
                    s2=phi(p3, 2, "offensive").witness, k1=1, k2=2)
print(f"\nunion: size {len(uni.result)}, free at k={uni.k_claim}: {uni.verified}")
print("exact phi_off(3) of cycle(3) x path(3):",
      phi(cartesian_product(c3, p3), 3, "offensive").value)
