"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import pathlib
import random
import time

import pytest

from alliancekit import (
    AllianceKind,
    Graph,
    VertexSet,
    audit_all,
    build_witness,
    canonical_k_range,
    cartesian_product,
    cycle_graph,
    find_strict_gap_instance,
    grid_graph,
    is_cover_set,
    is_free_set,
    path_graph,
    phi,
    phi_bruteforce,
    random_graph,
    random_tree,
    star_graph,
    wheel_graph,
)

DATA = pathlib.Path(__file__).parent / "data"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_star_path_product_value():
    start = time.time()
    prod = cartesian_product(star_graph(3), path_graph(4))
    result = phi(prod, 0, "defensive")
    elapsed = time.time() - start
    ok = result.value == 10 and elapsed < 60
    _report(1, ok, f"phi_def(0) on the star(3) x path(4) product = {result.value} "
                   f"(required 10), {elapsed:.2f}s")
    assert elapsed < 60
    assert result.value == 10, (
        f"solver returns {result.value}: an 11-vertex defensive 0-alliance free set "
        "exists in this product (independently re-verified by direct subset "
        "enumeration), so the required value 10 is not mathematically attainable"
    )


def test_criterion_2_star_path3_values():
    t = 3
    prod = cartesian_product(star_graph(t), path_graph(3))
    values = {k: phi(prod, k, "defensive").value for k in (-1, 0)}
    ok = values == {-1: 2 * t + 1, 0: 2 * t + 1}
    _report(2, ok, f"phi_def(k) on star(3) x path(3) = {values} (required {2*t+1} for both)")
    assert values[-1] == 7
    assert values[0] == 7


def test_criterion_3_c4_p3_offensive_with_column_witness():
    c4, p3 = cycle_graph(4), path_graph(3)
    factor = phi(p3, 2, "offensive")
    assert factor.value == 2
    witness = build_witness("column", c4, p3, s=factor.witness, axis=2, k=2, kind="offensive")
    value = phi(cartesian_product(c4, p3), 0, "offensive").value
    ok = value == 8 and witness.k_claim == 0 and len(witness.result) == 8 and witness.verified
    _report(3, ok, f"phi_off(0) on cycle(4) x path(3) = {value} (required 8); "
                   f"column witness size {len(witness.result)}, verified {witness.verified}")
    assert value == 8
    assert witness.verified and len(witness.result) == 8 and witness.k_claim == 0


def test_criterion_4_c3_p3_offensive_with_union_witness():
    c3, p3 = cycle_graph(3), path_graph(3)
    f1 = phi(c3, 1, "offensive")
    f2 = phi(p3, 2, "offensive")
    assert f1.value == 1 and f2.value == 2
    witness = build_witness("union", c3, p3, s1=f1.witness, s2=f2.witness, k1=1, k2=2)
    value = phi(cartesian_product(c3, p3), 3, "offensive").value
    expected_size = 3 * 2 + 3 * 1 - 1 * 2
    ok = (value == 7 and witness.k_claim == 3 and len(witness.result) == expected_size
          and witness.verified)
    _report(4, ok, f"phi_off(3) on cycle(3) x path(3) = {value} (required 7); "
                   f"union witness size {len(witness.result)}, verified {witness.verified}")
    assert value == 7
    assert witness.verified and len(witness.result) == 7 and witness.k_claim == 3


def test_criterion_5_trees_wheel_grid():
    start = time.time()
    rng = random.Random(20260810)
    trees = [path_graph(n) for n in range(3, 9)]
    trees += [star_graph(n - 1) for n in range(3, 9)]
    for n in range(3, 9):
        trees += [random_tree(n, seed=rng.randrange(10**9)) for _ in range(3)]
    bad = []
    for tree in trees:
        for k in range(2, tree.delta_max + 1):
            value = phi(tree, k, "defensive").value
            if value != tree.n:
                bad.append((tree, k, value))
    wheel_value = phi(wheel_graph(7), 6, "defensive").value
    grid_value = phi(grid_graph(3, 4), 4, "defensive").value
    elapsed = time.time() - start
    ok = not bad and wheel_value == 8 and grid_value == 12 and elapsed < 300
    _report(5, ok, f"{len(trees)} trees all phi=n: {not bad}; wheel(7) phi_def(6)={wheel_value} "
                   f"(required 8); grid(3,4) phi_def(4)={grid_value} (required 12); {elapsed:.1f}s")
    assert not bad
    assert wheel_value == 8
    assert grid_value == 12
    assert elapsed < 300


@pytest.mark.slow
def test_criterion_6_oracle_equivalence():
    start = time.time()
    rng = random.Random(20260811)
    checks = 0
    mismatches = []
    for n in range(2, 11):
        for _ in range(50):
            g = random_graph(n, rng.choice((0.3, 0.5, 0.7)), seed=rng.randrange(10**9))
            for kind in AllianceKind:
                for k in canonical_k_range(g, kind):
                    solver = phi(g, k, kind).value
                    oracle = phi_bruteforce(g, k, kind)
                    checks += 1
                    if solver != oracle:
                        mismatches.append((n, kind.value, k, solver, oracle))
    elapsed = time.time() - start
    _report(6, not mismatches,
            f"{checks} solver-vs-oracle checks on 450 seeded graphs, "
            f"{len(mismatches)} discrepancies; {elapsed:.1f}s")
    assert not mismatches, mismatches[:5]


def test_criterion_7_duality_and_monotonicity_samples():
    rng = random.Random(20260812)
    kinds = list(AllianceKind)

    def sample():
        n = rng.randint(2, 8)
        g = random_graph(n, rng.choice((0.3, 0.5, 0.7)), seed=rng.randrange(10**9))
        kind = rng.choice(kinds)
        ks = list(canonical_k_range(g, kind)) or [0]
        return g, VertexSet(rng.getrandbits(n), n), rng.choice(ks), kind

    duality_violations = 0
    for _ in range(500):
        g, y, k, kind = sample()
        if is_cover_set(g, y, k, kind) != is_free_set(g, y.complement(), k, kind):
            duality_violations += 1

    monotonicity_violations = 0
    for _ in range(500):
        g, x, k, kind = sample()
        ks = list(canonical_k_range(g, kind)) or [0]
        k_hi = max(ks)
        if k < k_hi and is_free_set(g, x, k, kind):
            if not is_free_set(g, x, rng.randint(k + 1, k_hi), kind):
                monotonicity_violations += 1
    ok = duality_violations == 0 and monotonicity_violations == 0
    _report(7, ok, f"500 duality samples: {duality_violations} violations; "
                   f"500 monotonicity samples: {monotonicity_violations} violations")
    assert duality_violations == 0
    assert monotonicity_violations == 0


def test_criterion_8_full_audit():
    start = time.time()
    reports = audit_all()
    elapsed = time.time() - start
    failing = [r.theorem_id for r in reports if r.failures]
    inconclusive = [r.theorem_id for r in reports if r.inconclusive]
    ok = len(reports) == 19 and not failing and not inconclusive and elapsed < 1800
    _report(8, ok, f"{len(reports)} audits, failures in {failing or 'none'}, "
                   f"inconclusive {inconclusive or 'none'}; {elapsed:.1f}s")
    assert len(reports) == 19
    assert not failing
    assert not inconclusive
    assert elapsed < 1800


def test_criterion_9_strict_gap_fixture():
    fixture = json.loads((DATA / "strict_gap.json").read_text())
    g = Graph(fixture["n"], [tuple(e) for e in fixture["edges"]])
    k = fixture["k"]
    pp = phi(g, k, "powerful").value
    pd = phi(g, k, "defensive").value
    po = phi(g, k + 2, "offensive").value
    found = find_strict_gap_instance()
    ok = (
        g.n <= 9
        and pp == fixture["phi_powerful"]
        and pd == fixture["phi_defensive"]
        and po == fixture["phi_offensive"]
        and pp > max(pd, po)
        and found is not None
        and found.graph == g
    )
    _report(9, ok, f"fixture graph n={g.n}: phi_pow({k})={pp} > "
                   f"max(phi_def({k})={pd}, phi_off({k+2})={po}); search reproduces it")
    assert pp == fixture["phi_powerful"] == 9
    assert pd == fixture["phi_defensive"]
    assert po == fixture["phi_offensive"]
    assert pp > max(pd, po)
    assert found is not None and found.graph == g
