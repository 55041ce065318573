import random

import pytest

from alliancekit import (
    AllianceKind,
    VertexSet,
    build_witness,
    canonical_k_range,
    cartesian_product,
    complete_graph,
    cycle_graph,
    degree_view,
    factor_box,
    is_free_set,
    path_graph,
    phi,
    star_graph,
)
from alliancekit.audit import _AUDITS
from alliancekit.freesets import _closed_slack_table, _threshold

from conftest import seeded_graph, seeded_subset


def test_column_witness_defensive():
    s3, p3 = star_graph(3), path_graph(3)
    leaves = VertexSet.of([1, 2, 3], 4)
    w = build_witness("column", s3, p3, s=leaves, axis=1, k=0, kind="defensive")
    assert w.k_claim == 0 + p3.delta_max
    assert len(w.result) == 3 * 3
    assert w.verified
    # 24 members: the closure of the product confirms that V(P4) x V(P6) is
    # free at k_claim, and the witness says so
    p4, p6 = path_graph(4), path_graph(6)
    w = build_witness("column", p4, p6, s=p4.vertices, axis=1, k=2, kind="defensive")
    assert len(w.result) == 24 and w.k_claim == 4
    closed = _closed_slack_table(cartesian_product(p4, p6), AllianceKind.DEFENSIVE)
    assert closed[w.result.mask] < _threshold(w.k_claim)
    assert w.verified


def test_column_witness_offensive_golden():
    c4, p3 = cycle_graph(4), path_graph(3)
    s2 = VertexSet.of([0, 1], 3)
    w = build_witness("column", c4, p3, s=s2, axis=2, k=2, kind="offensive")
    assert w.k_claim == 2 - c4.delta_min == 0
    assert len(w.result) == 8
    assert w.verified
    assert phi(cartesian_product(c4, p3), 0, "offensive").value == len(w.result)


def test_column_witness_empty_set():
    w = build_witness("column", path_graph(3), path_graph(3), s=VertexSet(0, 3), axis=1, k=2,
                      kind="defensive")
    assert len(w.result) == 0 and w.verified


def test_column_witness_rejects_non_free():
    p3 = path_graph(3)
    with pytest.raises(ValueError):
        # {0,2} contains the offensive 2-alliance {0,2}
        build_witness("column", p3, p3, s=VertexSet.of([0, 2], 3), axis=1, k=2, kind="offensive")


def test_column_witness_refuses_an_unknown_axis():
    p3 = path_graph(3)
    with pytest.raises(ValueError, match="axis must be 1 or 2"):
        build_witness("column", p3, p3, s=VertexSet(0, 3), axis=3, k=2, kind="defensive")


def test_box_witness():
    s3, p4 = star_graph(3), path_graph(4)
    leaves = VertexSet.of([1, 2, 3], 4)
    left = VertexSet.of([0, 1, 2], 4)
    w = build_witness("box", s3, p4, s1=leaves, s2=left, k1=0, k2=1, kind="defensive")
    assert w.k_claim == 0
    assert len(w.result) == 9
    assert w.verified
    with pytest.raises(ValueError):
        build_witness("box", s3, p4, s1=leaves, s2=left, k1=0, k2=1, kind="offensive")


def test_box_plus_diagonal_witness():
    s3, p4 = star_graph(3), path_graph(4)
    leaves = VertexSet.of([1, 2, 3], 4)
    left = VertexSet.of([0, 1, 2], 4)
    w = build_witness("box_plus_diagonal", s3, p4, s1=leaves, s2=left, k1=0, k2=1,
                      kind="defensive")
    assert w.k_claim == 0
    assert len(w.result) == 3 * 3 + 1
    assert w.verified
    # the paired-off vertices are isolated inside the witness
    prod = cartesian_product(s3, p4)
    view = degree_view(prod, w.result)
    box = factor_box(leaves, left)
    diagonal = [v for v in w.result if v not in box]
    assert len(diagonal) == 1
    assert all(view.in_degree[v] == 0 for v in diagonal)


def test_box_with_empty_factor_set():
    p3 = path_graph(3)
    w = build_witness("box", p3, p3, s1=VertexSet(0, 3), s2=VertexSet.of([0, 1], 3), k1=2, k2=2,
                      kind="defensive")
    assert len(w.result) == 0 and w.verified


def test_box_plus_diagonal_degenerates_to_box():
    p3 = path_graph(3)
    full = p3.vertices  # no leftover vertices in factor 2
    s1 = VertexSet.of([0], 3)
    w = build_witness("box_plus_diagonal", p3, p3, s1=s1, s2=full, k1=2, k2=2, kind="defensive")
    assert len(w.result) == 3  # plain box, t = 0


def test_box_plus_diagonal_precondition():
    p3 = path_graph(3)
    with pytest.raises(ValueError):
        build_witness("box_plus_diagonal", p3, p3, s1=VertexSet(0, 3), s2=VertexSet(0, 3),
                      k1=-1, k2=2, kind="defensive")
    with pytest.raises(ValueError, match="defensive and powerful kinds"):
        build_witness("box_plus_diagonal", p3, p3, s1=VertexSet(0, 3), s2=VertexSet(0, 3),
                      k1=2, k2=2, kind="offensive")


def test_union_witness_golden():
    c3, p3 = cycle_graph(3), path_graph(3)
    s1 = VertexSet.of([0], 3)
    s2 = VertexSet.of([0, 1], 3)
    w = build_witness("union", c3, p3, s1=s1, s2=s2, k1=1, k2=2)
    assert w.k_claim == 3
    assert len(w.result) == 1 * 3 + 2 * 3 - 1 * 2 == 7
    assert w.verified
    assert phi(cartesian_product(c3, p3), 3, "offensive").value == 7


def test_union_witness_empty():
    p3 = path_graph(3)
    w = build_witness("union", p3, p3, s1=VertexSet(0, 3), s2=VertexSet(0, 3), k1=2, k2=2)
    assert len(w.result) == 0 and w.verified


def test_union_size_identity():
    rng = random.Random(41)
    for _ in range(15):
        g1 = seeded_graph(rng, rng.randint(2, 4))
        g2 = seeded_graph(rng, rng.randint(2, 4))
        k1 = g1.delta_max
        k2 = g2.delta_max
        s1 = seeded_subset(rng, g1.n)
        s2 = seeded_subset(rng, g2.n)
        if not (is_free_set(g1, s1, k1, "offensive") and is_free_set(g2, s2, k2, "offensive")):
            continue
        w = build_witness("union", g1, g2, s1=s1, s2=s2, k1=k1, k2=k2)
        assert len(w.result) == len(s1) * g2.n + len(s2) * g1.n - len(s1) * len(s2)


def test_witness_constructions_hold_on_random_factors():
    rng = random.Random(42)
    for _ in range(20):
        g1 = seeded_graph(rng, rng.randint(2, 4))
        g2 = seeded_graph(rng, rng.randint(2, 4))
        kind = rng.choice(list(AllianceKind))
        ks1 = list(canonical_k_range(g1, kind))
        ks2 = list(canonical_k_range(g2, kind))
        if not ks1 or not ks2:
            continue
        k1, k2 = rng.choice(ks1), rng.choice(ks2)
        s1, s2 = seeded_subset(rng, g1.n), seeded_subset(rng, g2.n)
        if is_free_set(g1, s1, k1, kind):
            w = build_witness("column", g1, g2, s=s1, axis=1, k=k1, kind=kind)
            assert w.verified
        if kind is not AllianceKind.OFFENSIVE:
            if is_free_set(g1, s1, k1, kind) and is_free_set(g2, s2, k2, kind):
                assert build_witness("box", g1, g2, s1=s1, s2=s2, k1=k1, k2=k2, kind=kind).verified
                if k1 >= 1 - g1.delta_min and k2 >= 1 - g2.delta_min:
                    w = build_witness("box_plus_diagonal", g1, g2, s1=s1, s2=s2, k1=k1, k2=k2,
                                      kind=kind)
                    assert w.verified
        else:
            if is_free_set(g1, s1, k1, kind) and is_free_set(g2, s2, k2, kind):
                assert build_witness("union", g1, g2, s1=s1, s2=s2, k1=k1, k2=k2).verified


def test_phi_dominates_witness_sizes():
    # each verified construction is a free set, so phi at k_claim is >= its size
    s3, p4 = star_graph(3), path_graph(4)
    leaves = VertexSet.of([1, 2, 3], 4)
    left = VertexSet.of([0, 1, 2], 4)
    w = build_witness("box_plus_diagonal", s3, p4, s1=leaves, s2=left, k1=0, k2=1,
                      kind="defensive")
    prod = cartesian_product(s3, p4)
    assert phi(prod, w.k_claim, "defensive").value >= len(w.result)


def test_factor_recovery():
    verdict = _AUDITS["th_factor_recovery"].verdict
    s3, p3 = star_graph(3), path_graph(3)
    # s2 = V2 with k' = d2 recovers the column special case
    leaves = VertexSet.of([1, 2], 4)
    assert verdict(s3, p3, {"s1": leaves, "s2": p3.vertices}, k=2, k_prime=1) == (True,) * 3
    # empty s1: the recovered set is trivially free
    empty = VertexSet(0, 4)
    assert verdict(s3, p3, {"s1": empty, "s2": p3.vertices}, k=2, k_prime=1) == (True,) * 3
    # V2 is not a defensive 3-alliance of P3, so the claim does not apply
    assert verdict(s3, p3, {"s1": leaves, "s2": p3.vertices}, k=2, k_prime=3) is None


def test_factor_recovery_random():
    verdict = _AUDITS["th_factor_recovery"].verdict
    rng = random.Random(43)
    hits = 0
    while hits < 10:
        g1 = seeded_graph(rng, rng.randint(2, 4))
        g2 = seeded_graph(rng, rng.randint(2, 4))
        s1 = seeded_subset(rng, g1.n)
        s2 = seeded_subset(rng, g2.n)
        if s2.mask == 0:
            continue
        k = rng.randint(-2, 4)
        kp = rng.randint(-g2.delta_max, g2.delta_max) if g2.delta_max else 0
        # None: s2 is no defensive k'-alliance, or s1 x s2 is not k-free
        outcome = verdict(g1, g2, {"s1": s1, "s2": s2}, k=k, k_prime=kp)
        if outcome is None:
            continue
        assert outcome == (True,) * 3, (g1, g2, s1, s2, k, kp)
        hits += 1


def test_prop_iff_regular():
    verdict = _AUDITS["prop_iff_regular"].verdict
    outcome = verdict(complete_graph(2), cycle_graph(3), {"s1": VertexSet.of([0], 2)}, k=2)
    assert outcome == (True, [True, True], "equal")
    outcome = verdict(path_graph(3), cycle_graph(4), {"s1": VertexSet(0, 3)}, k=0)
    assert outcome == (True, [True, True], "equal")
    # a non-regular G2 is outside the claim
    assert verdict(path_graph(3), path_graph(3), {"s1": VertexSet(0, 3)}, k=0) is None


def test_prop_iff_regular_sweep():
    verdict = _AUDITS["prop_iff_regular"].verdict
    rng = random.Random(44)
    pool = [cycle_graph(3), cycle_graph(4), complete_graph(2), complete_graph(3)]
    for _ in range(12):
        g2 = rng.choice(pool)
        g1 = seeded_graph(rng, rng.randint(2, 4))
        s1 = seeded_subset(rng, g1.n)
        d2 = g2.delta_min
        for k in range(d2 - g1.delta_max, g1.delta_max + d2 + 1):
            outcome = verdict(g1, g2, {"s1": s1}, k=k)
            assert outcome is not None and outcome[0], (g1, g2, s1, k)


def test_build_witness_dispatch_and_record():
    c4, p3 = cycle_graph(4), path_graph(3)
    w = build_witness("column", c4, p3, s=VertexSet.of([0, 1], 3), axis=2, k=2, kind="offensive")
    rec = w.to_record()
    assert rec["construction"] == "column"
    assert rec["k_claim"] == 0
    assert rec["kind"] == "offensive"
    assert rec["verified"] is True
    assert len(rec["result"]) == 8
    with pytest.raises(ValueError):
        build_witness("column", c4, p3, kind="offensive")
    # the name is checked before the sets, so a misspelt one is named
    with pytest.raises(ValueError, match="unknown construction 'colum'"):
        build_witness("colum", c4, p3, kind="offensive")
    with pytest.raises(ValueError):
        build_witness("box", c4, p3, kind="defensive")


def test_build_witness_union_has_the_offensive_kind_only():
    c3, p3 = cycle_graph(3), path_graph(3)
    sets = {"s1": VertexSet.of([0], 3), "s2": VertexSet.of([0, 1], 3), "k1": 1, "k2": 2}
    assert build_witness("union", c3, p3, **sets).kind is AllianceKind.OFFENSIVE
    assert build_witness("union", c3, p3, kind="offensive", **sets).verified
    for kind in ("defensive", "powerful"):
        with pytest.raises(ValueError, match="offensive kind only"):
            build_witness("union", c3, p3, kind=kind, **sets)


def test_build_witness_refuses_arguments_its_construction_does_not_read():
    s3, p4 = star_graph(3), path_graph(4)
    leaves, left = VertexSet.of([1, 2, 3], 4), VertexSet.of([0, 1, 2], 4)
    sets = {"s1": leaves, "s2": left, "k1": 0, "k2": 1}
    with pytest.raises(ValueError, match=r"^box does not read s, k$"):
        build_witness("box", s3, p4, s=leaves, k=3, **sets)
    for construction in ("box_plus_diagonal", "union"):
        with pytest.raises(ValueError, match=f"^{construction} does not read k$"):
            build_witness(construction, s3, p4, k=0, **sets)
    with pytest.raises(ValueError, match=r"^column does not read s1, s2, k1, k2$"):
        build_witness("column", s3, p4, s=leaves, k=0, **sets)
    # the refusal comes before the missing arguments are named
    with pytest.raises(ValueError, match=r"^column does not read k2$"):
        build_witness("column", s3, p4, k2=1)
    # axis is read by column alone and keeps its default of 1 elsewhere
    assert build_witness("box", s3, p4, axis=2, **sets) == build_witness("box", s3, p4, **sets)
