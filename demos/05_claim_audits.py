"""
Auditing the transfer claims
============================

Every factor-to-product (and product-to-factor) claim the constructions
rely on is audited: seeded random factors are drawn, hypotheses are
checked exactly, and conclusions are asserted with the exact solvers.
Reports are deterministic in the seed; a failure would mean a bug in the
solvers, never in the mathematics.
"""

import time

from alliancekit import AuditConfig, audit_all, find_strict_gap_instance, phi

config = AuditConfig(seed=20260810, trials_per_theorem=15)
start = time.time()
reports = audit_all(config)
print(f"{len(reports)} audits in {time.time() - start:.1f}s\n")
for report in reports:
    print(report.to_lines()[0])

assert all(r.ok for r in reports)

# The powerful maximum dominates both one-sided bounds, and the gap can be
# strict: this seeded search finds a 9-vertex graph whose whole vertex set
# is powerful-2-free even though defensive 2-alliances and offensive
# 4-alliances both exist.
inst = find_strict_gap_instance()
g = inst.graph
print(f"\nstrict gap on n={g.n}: phi_pow(2)={inst.phi_powerful} "
      f"> max(phi_def(2)={inst.phi_defensive}, phi_off(4)={inst.phi_offensive})")
print("edges:", list(g.edges()))
print("re-solved:", phi(g, 2, "powerful").value, phi(g, 2, "defensive").value,
      phi(g, 4, "offensive").value)
