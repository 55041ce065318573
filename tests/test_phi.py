import importlib
import itertools
import math
import random
import warnings
from functools import partial

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
graph_mod = importlib.import_module("alliancekit.graph")
audit_mod = importlib.import_module("alliancekit.audit")


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


def _labelled_graphs(n: int):
    """Every graph on vertices 0..n-1, one per edge subset."""
    pairs = list(itertools.combinations(range(n), 2))
    for chosen in range(1 << len(pairs)):
        yield Graph(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])


def _oracle_first_largest(g: Graph, k: int, kind: AllianceKind) -> tuple[int, int]:
    """phi_bruteforce's value, with the free mask of that size whose sorted
    vertex list is lexicographically smallest, by the scalar check."""
    value = phi_bruteforce(g, k, kind)
    for combo in itertools.combinations(range(g.n), value):
        mask = VertexSet.of(combo, g.n).mask
        if _free_mask(g, mask, k, kind):
            return value, mask
    raise AssertionError("phi_bruteforce's size has no free set")


def test_padded_single_word_orders_match_the_oracle():
    """Orders 1-5 fit in one padded word: phi and every phi_table row give
    the oracle's value and its lexicographically first free set, on every
    labelled graph of order <= 4 and on seeded order-5 graphs, at every
    canonical k and at k values beyond the range on both sides."""
    rng = random.Random(37)
    graphs = [g for n in range(1, 5) for g in _labelled_graphs(n)]
    graphs += [seeded_graph(rng, 5) for _ in range(24)]
    for g in graphs:
        d = g.delta_max
        for kind in AllianceKind:
            for k, value, witness in phi_table(g, kind):
                assert (value, witness.mask) == _oracle_first_largest(g, k, kind), (g, kind, k)
            for k in sorted(set(canonical_k_range(g, kind)) | {-1000, -d - 3, d + 1, d + 2, 1000}):
                r = phi(g, k, kind)
                assert (r.value, r.witness.mask) == _oracle_first_largest(g, k, kind), (g, kind, k)


def _first_largest_free(free: np.ndarray, n: int) -> tuple[int, int]:
    """The largest popcount among the free masks of the words, and the
    first free mask of that popcount in sorted-vertex-list order, read
    mask by mask off the unpacked words."""
    masks = np.flatnonzero(np.unpackbits(free.view(np.uint8), bitorder="little"))
    sizes = np.bitwise_count(masks)
    largest = masks[sizes == sizes.max()]
    # sorted vertex lists of one size order as the bit-reversed masks, descending
    reversed_masks = sum(((largest >> v) & 1) << (n - 1 - v) for v in range(n))
    return int(sizes.max()), int(largest[np.argmax(reversed_masks)])


@pytest.mark.parametrize("n", range(7, 23))
def test_select_matches_a_direct_read_of_the_free_words(n):
    """_select reads only the words within reach of phi; a direct read of
    every free mask gives the same value and witness, on random graphs at
    every kind, at canonical k and far outside the range on both sides."""
    rng = random.Random(70 + n)
    g = random_graph(n, rng.choice((0.15, 0.3, 0.5)), seed=n)
    d = g.delta_max
    for kind in AllianceKind:
        ks = list(canonical_k_range(g, kind))
        for k in rng.sample(ks, min(2, len(ks))) + [-1000, -d - 3, d + 2, 1000]:
            covered, _ = freesets_mod._covered_words(g, k, kind)
            free = np.invert(covered)
            expected = _first_largest_free(free, n)
            assert phi_mod._select(free, n) == expected, (n, kind, k)


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


def _phi_powerful_lower(g, k):
    """The phi_p_lower audit's verdict on g at k: None off the powerful
    range, else (ok, phi_pow(k), max(phi_def(k), phi_off(k+2)))."""
    return audit_mod._AUDITS["phi_p_lower"].verdict(g, None, {}, k=k)


def test_phi_powerful_lower():
    rng = random.Random(35)
    e4 = Graph(4)
    # the powerful range of an edgeless graph is empty; the bound still reads n
    assert _phi_powerful_lower(e4, 1) is None
    assert max(phi_value(e4, 1, "defensive"), phi_value(e4, 3, "offensive")) == 4
    p3 = path_graph(3)
    assert phi(p3, 2, "offensive").value == 2
    assert _phi_powerful_lower(p3, 0)[2] == max(phi(p3, 0, "defensive").value, 2) == 2
    for _ in range(12):
        g = seeded_graph(rng, rng.randint(2, 7))
        for k in canonical_k_range(g, "powerful"):
            ok, lhs, rhs = _phi_powerful_lower(g, k)
            assert ok and lhs == phi(g, k, "powerful").value >= rhs


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
    phi_value(g, 0, "defensive")
    phi_value(g, 2, "offensive")
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
    # order 33 leaves uint32 masks and the biased slack range: refused
    # before the 8 GiB table, however much memory there is
    g33 = Graph(33)
    assert refusal_peak(lambda: phi(g33, 0, "defensive")) < 1 << 20
    assert refusal_peak(lambda: phi_table(g33, "defensive")) < 1 << 20
    assert refusal_peak(lambda: phi_value(g33, 0, "defensive")) < 1 << 20
    assert refusal_peak(lambda: enumerate_minimal_alliances(g33, 0, "defensive")) < 1 << 20
    # the oracle keeps its fixed cap
    with pytest.raises(CapacityError):
        phi_bruteforce(Graph(15), 0, "defensive")


_PATHS = {
    "phi": lambda g, kind: phi(g, 0, kind),
    "minimal": lambda g, kind: enumerate_minimal_alliances(g, 0, kind),
    "table": phi_table,
    "value": lambda g, kind: phi_value(g, 0, kind),
}


def _recorded_estimates(monkeypatch) -> list[int]:
    """The byte estimates that freesets passes to the memory rule, in the
    order it checks them, while the rule still decides as before."""
    estimates = []
    refuse_bytes = freesets_mod._refuse_bytes

    def recording(what, nbytes):
        estimates.append(nbytes)
        refuse_bytes(what, nbytes)

    monkeypatch.setattr(freesets_mod, "_refuse_bytes", recording)
    return estimates


@pytest.mark.parametrize("kind", list(AllianceKind))
@pytest.mark.parametrize("path", sorted(_PATHS))
@pytest.mark.parametrize("n", [16, 20, 24])
def test_estimate_covers_the_peak(monkeypatch, n, path, kind):
    """The byte estimates a 2^n path checks before it allocates cover the
    path's traced peak: the low tables set the peak at the smaller orders,
    the per-mask arrays from order 22 on."""
    estimates = _recorded_estimates(monkeypatch)
    phi_mod._level_minima.cache_clear()
    g = grid_graph(4, n // 4)
    peak = traced_peak(lambda: _PATHS[path](g, kind))
    # the word paths check the sweep, then the family before decoding it
    assert len(estimates) == (2 if path in ("phi", "minimal") else 1)
    assert max(estimates) >= peak


#: The k at which K_n, for even n, has the most minimal alliances: every
#: set of n/2 vertices, and no other.
_DENSEST_K = {AllianceKind.DEFENSIVE: -1, AllianceKind.OFFENSIVE: 0, AllianceKind.POWERFUL: -1}


@pytest.mark.parametrize("kind", list(AllianceKind))
@pytest.mark.parametrize("path", ["phi", "minimal"])
@pytest.mark.parametrize("n", [20, pytest.param(22, marks=pytest.mark.slow)])
def test_family_estimate_covers_the_decoding_peak(monkeypatch, n, path, kind):
    """On a complete graph, decoding C(n, n/2) minimal alliances, not the
    sweep, sets the peak, and the family's estimate covers it.  (At order
    18 the masks are too few: their 4.2 MB peak stays below the sweep's
    4.9 MB estimate, set by its low rows.)"""
    estimates = _recorded_estimates(monkeypatch)
    g, k = complete_graph(n), _DENSEST_K[kind]
    family = []
    peak = traced_peak(
        lambda: family.append(
            phi(g, k, kind).certificate if path == "phi" else enumerate_minimal_alliances(g, k, kind)
        )
    )
    assert len(family[0]) == math.comb(n, n // 2)
    sweep, decode = estimates
    assert sweep < peak <= decode


def test_family_is_refused_before_decoding(monkeypatch):
    """With the sweep of K_20 admitted but not its 184,756 minimal
    alliances, phi and the minimal family refuse after the sweep, naming
    the family's bytes, and allocate no more than the sweep did."""
    estimates = _recorded_estimates(monkeypatch)
    g = complete_graph(20)
    enumerate_minimal_alliances(g, 0, "defensive")  # 2 minimal alliances
    sweep = estimates[0]
    monkeypatch.setattr(graph_mod, "_MEMORY", 2 * sweep)
    for call in (lambda: phi(g, -1, "defensive"), lambda: enumerate_minimal_alliances(g, -1, "defensive")):
        assert refusal_peak(call) <= sweep
        with pytest.raises(CapacityError, match=r"family of 184756 minimal alliances needs about \d+ bytes"):
            call()


def test_memory_rule_refuses_before_allocation(monkeypatch):
    """With the memory limit read as 1 MiB, every 2^n path refuses an
    order-24 graph before it allocates, and says how many bytes it needs."""
    monkeypatch.setattr(graph_mod, "_MEMORY", 1 << 20)
    phi_mod._level_minima.cache_clear()
    g = grid_graph(4, 6)
    calls = [lambda: _phi_powerful_lower(g, 0)]
    calls += [partial(call, g, kind) for call in _PATHS.values() for kind in AllianceKind]
    for call in calls:
        assert refusal_peak(call) < 1 << 20
        with pytest.raises(CapacityError, match=r"needs about \d+ bytes"):
            call()


def test_order_25_is_solved_and_the_paths_agree():
    """Past order 24 every path answers while its estimate fits in memory,
    and the one-k words and the every-k table agree."""
    g = grid_graph(5, 5)
    result = phi(g, 0, "defensive")
    rows = {k: (value, witness) for k, value, witness in phi_table(g, "defensive")}
    assert result.value == 18
    assert phi_value(g, 0, "defensive") == 18
    assert rows[0] == (18, result.witness)
    assert result.certificate == enumerate_minimal_alliances(g, 0, "defensive")


@pytest.mark.parametrize("n, values", [
    (4, (11, 10, 14)), (5, (14, 14, 18)), (6, (17, 18, 22)), (7, (21, 22, 26)),
])
def test_star_path_products_up_to_order_28(n, values):
    """phi at k = 0 of star(3) x path(n), defensive, offensive and powerful,
    as tabled in the README; order 28 needs no option."""
    g = cartesian_product(star_graph(3), path_graph(n))
    assert tuple(phi(g, 0, kind).value for kind in AllianceKind) == values


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
    """No byte-per-mask array lies on phi's path: the covered and minimal
    words take an eighth of a byte per mask each, and the witness is chosen
    on the covered words, inverted in place.  A byte-per-mask covered set and a copy of it for
    the minimal pass, next to the closed table, would take three."""
    assert traced_peak(lambda: phi(grid_graph(4, 6), 0, "defensive")) < 2.5 * (1 << 24)


@pytest.mark.parametrize("kind", list(AllianceKind))
def test_phi_memory_at_order_24_by_kind(kind):
    """The words-only peak, for every kind, stays within the bytes per mask
    that the refusal rule assumes: about 0.36-0.43, against 1.26-1.29 when
    the witness was chosen on a popcount byte per mask."""
    assert traced_peak(lambda: phi(grid_graph(4, 6), 0, kind)) < freesets_mod._WORD_BYTES * (1 << 24)


def test_phi_memory_at_order_16_is_set_by_the_low_rows():
    """At order 16 one block holds every mask, so every term is shared and
    its packed test is folded once and dropped: the powerful peak is the
    3n low rows, 48 bytes per mask, and about 1.4 more.  Keeping every
    shared term's test read 53.3."""
    assert traced_peak(lambda: phi(grid_graph(4, 4), 0, "powerful")) < 50 * (1 << 16)


def test_phi_table_memory_at_order_20():
    """phi_table holds the closed byte table and, per k, one reused bool
    per mask, packed to words before the witness is chosen: about 2.3
    bytes per mask, against 4.0 when every k built its own popcount
    array.  (The offensive and powerful peaks are set earlier, by the low
    rows of the slack build.)"""
    assert traced_peak(lambda: phi_table(grid_graph(4, 5), "defensive")) < 2.5 * (1 << 20)


@pytest.mark.parametrize("kind, bound", [("offensive", 3.75), ("powerful", 5.0)])
def test_phi_table_memory_at_order_20_with_a_boundary_scope(kind, bound):
    """Here the slack build sets the peak: its 2n or 3n low rows of 2^16
    bytes, one scratch row and the byte table, about 3.57 and 4.83 bytes
    per mask."""
    assert traced_peak(lambda: phi_table(grid_graph(4, 5), kind)) < bound * (1 << 20)


def test_small_popcounts_are_a_read_only_shared_table():
    sizes = phi_mod._popcounts(12)
    assert sizes.tolist() == [m.bit_count() for m in range(1 << 12)]
    with pytest.raises(ValueError):
        sizes[0] = 1


def _min_transversal(family, n: int) -> int:
    """Minimum hitting set size of the family, by scipy's HiGHS MILP."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    rows = np.array([[(m >> v) & 1 for v in range(n)] for m in family.masks])
    res = milp(np.ones(n), constraints=LinearConstraint(rows, lb=1),
               integrality=np.ones(n), bounds=Bounds(0, 1))
    assert res.success
    return round(res.fun)


@pytest.mark.parametrize(
    "n", [*range(16, 21), *(pytest.param(n, marks=pytest.mark.slow) for n in range(21, 25))]
)
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
