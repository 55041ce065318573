import importlib
import itertools
import random
import warnings

import numpy as np
import pytest

from alliancekit import (
    AllianceKind,
    CanonicalRangeWarning,
    CapacityError,
    Graph,
    VertexSet,
    canonical_k_range,
    cartesian_product,
    complete_graph,
    cycle_graph,
    enumerate_minimal_alliances,
    grid_graph,
    is_alliance,
    is_free_set,
    path_graph,
    phi,
    phi_bruteforce,
    phi_powerful_lower,
    phi_table,
    phi_value,
    random_graph,
    random_tree,
    star_graph,
    wheel_graph,
)

from alliancekit.freesets import _free_mask

from conftest import refusal_peak, seeded_graph, traced_peak

phi_mod = importlib.import_module("alliancekit.phi")
freesets_mod = importlib.import_module("alliancekit.freesets")


def test_phi_p3_offensive():
    r = phi(path_graph(3), 2, "offensive")
    assert r.value == 2
    assert r.witness.to_sorted_list() == [0, 1]  # lex-smallest maximum witness
    assert [s.to_sorted_list() for s in r.certificate] == [[0, 2]]
    assert phi_bruteforce(path_graph(3), 2, "offensive") == 2


def test_phi_edgeless():
    e5 = Graph(5)
    r = phi(e5, 1, "defensive")
    assert r.value == 5 and len(r.certificate) == 0
    assert r.witness.mask == e5.full_mask
    r0 = phi(Graph(3), 0, "defensive")
    assert r0.value == 0 and len(r0.witness) == 0  # every singleton is an alliance


def test_phi_k2_defensive_minus_one():
    # both singletons are alliances, so only the empty set is free
    k2 = complete_graph(2)
    r = phi(k2, -1, "defensive")
    assert r.value == 0
    assert phi_bruteforce(k2, -1, "defensive") == 0


def test_phi_star_and_path_components():
    assert phi(star_graph(3), 0, "defensive").value == 3
    assert phi(path_graph(4), 1, "defensive").value == 3
    assert phi(path_graph(3), 2, "offensive").value == 2
    assert phi(cycle_graph(3), 1, "offensive").value == 1


def test_star_path_product_value():
    # S3 x P4: the leaves-times-three-columns pattern plus two centre
    # vertices is 0-alliance free, giving 11 (one above the box-plus-diagonal
    # bound of 10); confirmed by the independent oracle on the witness below
    prod = cartesian_product(star_graph(3), path_graph(4))
    r = phi(prod, 0, "defensive")
    assert r.value == 11
    explicit = VertexSet.of([0, 2, 4, 5, 7, 9, 10, 11, 13, 14, 15], 16)
    assert is_free_set(prod, explicit, 0, "defensive")
    assert is_free_set(prod, r.witness, 0, "defensive")


def test_tree_theorem():
    rng = random.Random(31)
    trees = [path_graph(n) for n in range(3, 9)]
    trees += [star_graph(t) for t in range(2, 8)]
    trees += [random_tree(rng.randint(3, 8), seed=rng.randrange(10**9)) for _ in range(6)]
    for t in trees:
        assert t.delta_max >= 2
        for k in range(2, t.delta_max + 1):
            assert phi(t, k, "defensive").value == t.n


def test_wheel_and_grid_theorems():
    wheel = wheel_graph(7)
    assert phi(wheel, 6, "defensive").value == 8
    assert phi(wheel, 7, "defensive").value == 8
    grid = grid_graph(3, 4)
    assert phi(grid, 4, "defensive").value == 12


def test_phi_matches_oracle_small():
    rng = random.Random(32)
    for _ in range(15):
        g = seeded_graph(rng, rng.randint(2, 7))
        for kind in AllianceKind:
            for k in canonical_k_range(g, kind):
                assert phi(g, k, kind).value == phi_bruteforce(g, k, kind)


def test_witness_is_free_and_maximal():
    rng = random.Random(33)
    for _ in range(10):
        g = seeded_graph(rng, rng.randint(2, 6))
        kind = rng.choice(list(AllianceKind))
        ks = list(canonical_k_range(g, kind))
        if not ks:
            continue
        k = rng.choice(ks)
        r = phi(g, k, kind)
        assert len(r.witness) == r.value
        assert is_free_set(g, r.witness, k, kind)
        # nothing larger is free
        for combo in itertools.combinations(range(g.n), r.value + 1):
            assert not is_free_set(g, VertexSet.of(combo, g.n), k, kind)
        # certificate blocks every larger subset
        for combo in itertools.combinations(range(g.n), r.value + 1):
            assert not r.certificate.certifies_free(VertexSet.of(combo, g.n))


def test_phi_monotone_in_k():
    rng = random.Random(34)
    for _ in range(15):
        g = seeded_graph(rng, rng.randint(2, 7))
        kind = rng.choice(list(AllianceKind))
        ks = list(canonical_k_range(g, kind))
        for k, k_next in zip(ks, ks[1:]):
            assert phi(g, k, kind).value <= phi(g, k_next, kind).value


def test_phi_powerful_lower():
    rng = random.Random(35)
    e4 = Graph(4)
    assert phi_powerful_lower(e4, 1) == 4
    p3 = path_graph(3)
    assert phi(p3, 2, "offensive").value == 2
    assert phi_powerful_lower(p3, 0) == max(phi(p3, 0, "defensive").value, 2) == 2
    for _ in range(12):
        g = seeded_graph(rng, rng.randint(2, 7))
        for k in canonical_k_range(g, "powerful"):
            assert phi(g, k, "powerful").value >= phi_powerful_lower(g, k)


def test_phi_value_matches_phi():
    rng = random.Random(36)
    for _ in range(10):
        g = seeded_graph(rng, rng.randint(2, 6))
        kind = rng.choice(list(AllianceKind))
        k = rng.randint(-3, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CanonicalRangeWarning)
            assert phi_value(g, k, kind) == phi(g, k, kind).value


def test_extreme_k_matches_the_oracle():
    """phi takes any int k.  Far below the canonical range every non-empty
    set is an alliance; above it only the vacuous offensive sets (unions of
    whole components, empty boundary) are, at every k however large."""
    p3_k2 = Graph(5, [(0, 1), (1, 2), (3, 4)])
    graphs = [p3_k2, Graph(3), path_graph(4), star_graph(3), cycle_graph(5),
              complete_graph(4), wheel_graph(5), Graph(6, [(0, 1), (2, 3), (3, 4)])]
    for g in graphs:
        d = g.delta_max
        for kind in AllianceKind:
            for k in (-1000, -d - 3, d + 1, d + 2, 150, 1000):
                expected = phi_bruteforce(g, k, kind)
                assert phi(g, k, kind).value == expected, (g.n, kind, k)
                assert phi_value(g, k, kind) == expected, (g.n, kind, k)
            for k, value, witness in phi_table(g, kind):
                assert value == len(witness) == phi_bruteforce(g, k, kind), (g.n, kind, k)
    assert phi(p3_k2, 150, "offensive").value == 3
    assert phi_value(p3_k2, 150, "offensive") == 3


def test_phi_value_builds_one_table_per_graph_and_kind():
    phi_mod._level_minima.cache_clear()
    g = random_graph(9, 0.4, 3)
    for kind in AllianceKind:
        for k in range(-12, 13):
            phi_value(g, k, kind)
    phi_powerful_lower(g, 0)
    assert phi_mod._level_minima.cache_info().misses == 3


def test_package_attributes_phi_and_audit_are_the_functions():
    """``alliancekit.phi`` and ``alliancekit.audit`` name the functions, not
    the modules; the modules are reached through importlib."""
    import alliancekit

    audit_mod = importlib.import_module("alliancekit.audit")
    assert alliancekit.phi is phi_mod.phi is phi
    assert alliancekit.audit is audit_mod.audit
    assert phi_mod.__name__ == "alliancekit.phi" and audit_mod.__name__ == "alliancekit.audit"


def test_phi_deterministic():
    g = seeded_graph(random.Random(37), 7)
    a = phi(g, 0, "defensive")
    b = phi(g, 0, "defensive")
    assert a.witness == b.witness and a.value == b.value
    assert [s.mask for s in a.certificate] == [s.mask for s in b.certificate]


def test_phi_record():
    r = phi(path_graph(3), 2, "offensive")
    rec = r.to_record()
    assert rec == {
        "kind": "offensive",
        "k": 2,
        "value": 2,
        "witness": [0, 1],
        "certificate_size": 1,
    }


def test_capacity_errors():
    # refused before the 2^25-mask table (32 MiB) is built
    assert refusal_peak(lambda: phi(Graph(25), 0, "defensive")) < 1 << 20
    with pytest.raises(CapacityError):
        phi_bruteforce(Graph(15), 0, "defensive")
    with pytest.raises(CapacityError):
        phi_value(Graph(25), 0, "defensive")
    with pytest.raises(CapacityError):
        phi_powerful_lower(Graph(25), 0)
    with pytest.raises(CapacityError):
        phi_table(Graph(25), "defensive")
    # limit= cannot lift the order past 32, where masks leave uint32 and
    # degrees leave the biased slack range: refused before the 8 GiB table
    g33 = Graph(33)
    assert refusal_peak(lambda: phi(g33, 0, "defensive", limit=40)) < 1 << 20
    assert refusal_peak(lambda: phi_table(g33, "defensive", limit=40)) < 1 << 20
    assert refusal_peak(lambda: enumerate_minimal_alliances(g33, 0, "defensive", limit=40)) < 1 << 20


def test_one_k_paths_never_build_the_slack_table(monkeypatch):
    """phi and the minimal family build packed alliance bits directly; the
    byte slack table serves only the every-k closure of phi_table and
    phi_value."""
    def spy(*args, **kwargs):
        raise AssertionError("a one-k path built the slack table")

    graphs = [path_graph(4), grid_graph(3, 3), random_graph(17, 0.3, seed=5)]
    with monkeypatch.context() as patched:
        patched.setattr(freesets_mod, "_slack_table", spy)
        for g in graphs:
            for kind in AllianceKind:
                assert phi(g, 0, kind).certificate == enumerate_minimal_alliances(g, 0, kind)
    closures = []
    closed_slack_table = phi_mod._closed_slack_table

    def counting(*args):
        closures.append(args[:2])
        return closed_slack_table(*args)

    monkeypatch.setattr(phi_mod, "_closed_slack_table", counting)
    phi_mod._level_minima.cache_clear()
    for kind in AllianceKind:
        phi_table(graphs[1], kind)
        phi_value(graphs[1], 0, kind)
    assert closures == [(graphs[1], kind) for kind in AllianceKind for _ in range(2)]


def test_phi_memory_at_order_24():
    """phi holds about one byte per mask at its peak: the popcounts while
    the witness is chosen, next to the packed covered words.  No byte
    slack table is built on its path.  A byte-per-mask covered set and a
    copy of it for the minimal pass, next to the closed table, would take
    three."""
    assert traced_peak(lambda: phi(grid_graph(4, 6), 0, "defensive")) < 2.5 * (1 << 24)


def _min_transversal(family, n: int) -> int:
    """Minimum hitting set size of the family, by scipy's HiGHS MILP."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    rows = np.array([[(m >> v) & 1 for v in range(n)] for m in family.masks])
    res = milp(np.ones(n), constraints=LinearConstraint(rows, lb=1),
               integrality=np.ones(n), bounds=Bounds(0, 1))
    assert res.success
    return round(res.fun)


@pytest.mark.parametrize("n", range(16, 25))
def test_closure_beyond_the_oracle(n):
    """Orders the brute-force oracle cannot reach: the family agrees with the
    scalar free-set check on sampled small masks, every member is an
    alliance, and phi = n - tau(certificate) by an independent MILP."""
    pytest.importorskip("scipy")
    rng = random.Random(50 + n)
    g = random_graph(n, rng.choice((0.2, 0.3)), seed=n)
    for kind in AllianceKind:
        k = rng.randint(-1, 1)
        r = phi(g, k, kind)
        fam = r.certificate
        assert fam == enumerate_minimal_alliances(g, k, kind)
        for _ in range(200):
            mask = VertexSet.of(rng.sample(range(n), rng.randint(1, 10)), n)
            assert fam.certifies_free(mask) == _free_mask(g, mask.mask, k, kind)
        assert all(is_alliance(g, s, k, kind) for s in fam)
        assert len(r.witness) == r.value and fam.certifies_free(r.witness)
        assert r.value == n - _min_transversal(fam, n)
