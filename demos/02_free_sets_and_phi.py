"""
Alliance-free sets and the exact maximum
========================================

A set X is k-alliance free when no subset of X is a k-alliance.  The
inclusion-minimal alliances certify this: X is free exactly when it
contains none of them, so the maximum free-set size is

    phi = n - (minimum transversal of the minimal-alliance family).

phi itself is read off the 2^n alliance table once it is closed upward:
it is the largest subset containing no alliance.  This demo enumerates a
family, computes phi with a witness, and replays the value through the
independent brute-force oracle.
"""

from alliancekit import (
    enumerate_minimal_alliances,
    is_cover_set,
    is_free_set,
    path_graph,
    phi,
    phi_bruteforce,
    wheel_graph,
)

p5 = path_graph(5)

# Trees have no defensive 2-alliances at all, so everything is free.
fam = enumerate_minimal_alliances(p5, 2, "defensive")
print("minimal defensive 2-alliances of the 5-path:", len(fam))
print("V is 2-free:", is_free_set(p5, p5.vertices, 2, "defensive"))

# At k = 1 the picture changes: the whole path defends itself.
fam = enumerate_minimal_alliances(p5, 1, "defensive")
print("\nminimal defensive 1-alliances of the 5-path:")
for s in fam:
    print("  ", s.to_sorted_list())

result = phi(p5, 1, "defensive")
print(f"phi_def(1) = {result.value}, witness {result.witness.to_sorted_list()}")
print("oracle agrees:", phi_bruteforce(p5, 1, "defensive") == result.value)

# Cover sets are complements of free sets.
y = result.witness.complement()
print(f"complement {y.to_sorted_list()} covers every alliance:",
      is_cover_set(p5, y, 1, "defensive"))

# A denser example: the wheel with 7 rim vertices.
w7 = wheel_graph(7)
print("\nwheel(7) defensive table:")
for k in range(-2, 8):
    r = phi(w7, k, "defensive")
    print(f"  k={k:+d}  phi={r.value:2d}  minimal alliances={len(r.certificate)}")
