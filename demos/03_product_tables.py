"""
Cartesian products and their phi tables
=======================================

The Cartesian product of G1 and G2 joins (a,b) to (c,d) when the vertices
agree in one coordinate and are adjacent in the other; degrees add.  This
demo builds the products used throughout the package and prints exact phi
tables next to the factor-derived lower bounds.
"""

from alliancekit import (
    cartesian_product,
    cycle_graph,
    independence_number,
    path_graph,
    phi,
    phi_table,
    star_graph,
    vizing_alpha_bound,
)

star, p4 = star_graph(3), path_graph(4)
prod = cartesian_product(star, p4)
print(f"star(3) x path(4): {prod.n} vertices, {prod.edge_count} edges, "
      f"degrees {sorted(set(prod.degrees))}")

# Independence-based lower bound for the defensive table; it applies for
# every k from 1 - min_degree(G1) - min_degree(G2) upward.
bound = vizing_alpha_bound(independence_number(star), independence_number(p4), star, p4)
bound_low = 1 - star.delta_min - p4.delta_min
print(f"independence bound on phi_def: {bound} (valid for k >= {bound_low})")

print("\ndefensive table for star(3) x path(4):")
for k in range(-2, 6):
    value = phi(prod, k, "defensive").value
    marker = " >= bound" if k >= bound_low else ""
    print(f"  k={k:+d}  phi={value:2d}{marker}")

# Offensive tables for two products with known exact values; phi_table
# answers every canonical k from one 2^n sweep.
for g1, g2, label in (
    (cycle_graph(4), path_graph(3), "cycle(4) x path(3)"),
    (cycle_graph(3), path_graph(3), "cycle(3) x path(3)"),
):
    prod = cartesian_product(g1, g2)
    print(f"\noffensive table for {label}:")
    for k, value, _ in phi_table(prod, "offensive"):
        print(f"  k={k:+d}  phi={value:2d}")
