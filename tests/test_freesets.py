import importlib
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from alliancekit import (
    AllianceKind,
    CanonicalRangeWarning,
    Graph,
    VertexSet,
    canonical_k_range,
    enumerate_minimal_alliances,
    free_set_monotone_witness,
    grid_graph,
    independence_number,
    is_alliance,
    is_cover_set,
    is_free_set,
    path_graph,
    phi,
    phi_bruteforce,
    random_graph,
    star_graph,
)
from alliancekit.alliances import _alliance_ok
from alliancekit.freesets import (
    _BIAS,
    _VACUOUS,
    _closed_slack_table,
    _covered_words,
    _free_mask,
    _slack_table,
    _threshold,
)
from alliancekit.graph import DEFAULT_EXACT_LIMIT

from conftest import graph_and_set, kinds, refusal_peak, seeded_graph, seeded_subset, traced_peak

freesets_mod = importlib.import_module("alliancekit.freesets")


def test_free_set_examples():
    p3 = path_graph(3)
    assert is_free_set(p3, VertexSet(0, 3), 2, "offensive")
    assert is_free_set(p3, VertexSet.of([0, 1], 3), 2, "offensive")
    assert not is_free_set(p3, VertexSet.of([0, 2], 3), 2, "offensive")
    p5 = path_graph(5)
    assert is_free_set(p5, p5.vertices, 2, "defensive")  # tree, k >= 2


def test_cover_set_examples():
    p3 = path_graph(3)
    assert is_cover_set(p3, p3.vertices, 2, "offensive")
    assert is_cover_set(p3, VertexSet.of([2], 3), 2, "offensive")
    p2 = path_graph(2)
    assert not is_cover_set(p2, VertexSet(0, 2), -1, "defensive")


def test_minimal_families():
    p3 = path_graph(3)
    fam = enumerate_minimal_alliances(p3, 2, "offensive")
    assert [s.to_sorted_list() for s in fam] == [[0, 2]]
    edgeless = Graph(3)
    fam = enumerate_minimal_alliances(edgeless, 0, "defensive")
    assert [s.to_sorted_list() for s in fam] == [[0], [1], [2]]
    p2 = path_graph(2)
    assert len(enumerate_minimal_alliances(p2, 2, "defensive")) == 0


def test_family_order_is_cardinality_then_lex():
    rng = random.Random(5)
    families = []
    for _ in range(20):
        g = seeded_graph(rng, rng.randint(2, 7))
        for kind in AllianceKind:
            families += [enumerate_minimal_alliances(g, k, kind) for k in canonical_k_range(g, kind)]
    families.append(enumerate_minimal_alliances(random_graph(20, 0.3, 4), 0, "defensive"))
    assert len(families[-1]) > 3000
    for fam in families:
        keys = [(len(s), s.to_sorted_list()) for s in fam]
        assert keys == sorted(keys)


def test_family_antichain():
    rng = random.Random(6)
    for _ in range(30):
        g = seeded_graph(rng, rng.randint(2, 7))
        kind = rng.choice(list(AllianceKind))
        ks = list(canonical_k_range(g, kind))
        if not ks:
            continue
        fam = enumerate_minimal_alliances(g, rng.choice(ks), kind)
        masks = fam.masks
        for i, a in enumerate(masks):
            for j, b in enumerate(masks):
                if i != j:
                    assert a & b != a, "family contains comparable sets"


def test_certificate_equivalence_exhaustive():
    rng = random.Random(7)
    for _ in range(25):
        g = seeded_graph(rng, rng.randint(2, 6))
        kind = rng.choice(list(AllianceKind))
        k = rng.randint(-g.n, g.n)
        fam = enumerate_minimal_alliances(g, k, kind)
        for mask in range(1 << g.n):
            x = VertexSet(mask, g.n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CanonicalRangeWarning)
                assert is_free_set(g, x, k, kind) == fam.certifies_free(x)


@given(graph_and_set(), kinds, st.integers(-4, 4))
def test_duality(gs, kind, k):
    g, y = gs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CanonicalRangeWarning)
        assert is_cover_set(g, y, k, kind) == is_free_set(g, y.complement(), k, kind)


@given(graph_and_set(), kinds, st.integers(-4, 3), st.integers(1, 3))
def test_free_monotone_in_k(gs, kind, k, step):
    g, x = gs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CanonicalRangeWarning)
        if is_free_set(g, x, k, kind):
            assert is_free_set(g, x, k + step, kind)


def test_monotone_witness():
    p3 = path_graph(3)
    assert free_set_monotone_witness(p3, VertexSet.of([0, 1], 3), 2, 3, "offensive")
    p5 = path_graph(5)
    assert free_set_monotone_witness(p5, p5.vertices, 2, 3, "defensive")
    assert free_set_monotone_witness(p3, VertexSet(0, 3), -1, 4, "powerful")
    with pytest.raises(ValueError):
        free_set_monotone_witness(p3, VertexSet(0, 3), 3, 2, "defensive")
    with pytest.raises(ValueError):
        # {0,2} is not offensive 2-free, so the precondition fails
        free_set_monotone_witness(p3, VertexSet.of([0, 2], 3), 2, 3, "offensive")


def test_independent_sets_are_free():
    rng = random.Random(8)
    for _ in range(30):
        g = seeded_graph(rng, rng.randint(2, 7))
        # greedy independent set
        mask = 0
        blocked = 0
        for v in range(g.n):
            if not (blocked >> v) & 1:
                mask |= 1 << v
                blocked |= g.adj_bits[v] | (1 << v)
        ind = VertexSet(mask, g.n)
        for k in range(1 - g.delta_min, g.delta_max + 1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CanonicalRangeWarning)
                assert is_free_set(g, ind, k, "defensive")


def test_every_member_is_a_minimal_alliance():
    rng = random.Random(9)
    for _ in range(20):
        g = seeded_graph(rng, rng.randint(2, 6))
        kind = rng.choice(list(AllianceKind))
        k = rng.randint(-3, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CanonicalRangeWarning)
            fam = enumerate_minimal_alliances(g, k, kind)
            for s in fam:
                assert is_alliance(g, s, k, kind)
                sub = (0 - s.mask) & s.mask
                while sub:
                    if sub != s.mask:
                        assert not is_alliance(g, VertexSet(sub, g.n), k, kind)
                    sub = (sub - s.mask) & s.mask


def test_capacity_errors():
    big = Graph(25)
    # refused before the 2^25-mask table (32 MiB) is built
    assert refusal_peak(lambda: enumerate_minimal_alliances(big, 0, "defensive")) < 1 << 20
    # one set needs no table: every singleton of the edgeless graph is a
    # defensive 0-alliance and none is a 1-alliance
    assert not is_free_set(big, big.vertices, 0, "defensive")
    assert is_free_set(big, big.vertices, 1, "defensive")


def _rule_family(covered: np.ndarray, n: int) -> list[int]:
    """Masks that are covered while no one-bit-smaller mask is, ascending."""
    masks = np.arange(1 << n)
    minimal = covered.copy()
    for b in range(n):
        has_b = masks[masks >> b & 1 == 1]
        minimal[has_b] &= ~covered[has_b ^ (1 << b)]
    return np.flatnonzero(minimal).tolist()


#: Largest order at which the closure test also checks the family and phi.
_FAMILY_CHECK_ORDER = 18


@pytest.mark.parametrize("n", [*range(1, 8), *range(17, 25)])
def test_covered_words_and_family_match_the_closure(n):
    """The packed covered set equals the thresholded max-closure, bit for
    bit, with clear padding below order 6; the family read off the words
    equals the rule computed here on the unpacked closure, and phi picks
    the largest uncovered mask, lexicographically first on ties.  Orders
    18-24 span 4 to 256 blocks of the alliance bits; the family and phi
    checks stop at _FAMILY_CHECK_ORDER."""
    rng = random.Random(110 + n)
    graphs = [seeded_graph(rng, n) for _ in range(4)] if n < 8 else [random_graph(n, 0.3, seed=n)]
    for g in graphs:
        d = g.delta_max
        extreme = {-1000, -d - 3, d + 1, d + 2, 150, 1000} if n <= 17 else {-1000, d + 2, 150}
        for kind in AllianceKind:
            closed = _closed_slack_table(g, kind, DEFAULT_EXACT_LIMIT)
            for k in sorted(set(canonical_k_range(g, kind)) | extreme):
                expected = closed >= _threshold(k)
                words = _covered_words(g, k, kind, DEFAULT_EXACT_LIMIT)
                assert words.dtype == np.dtype("<u8") and words.size == max(1, (1 << n) >> 6)
                bits = np.unpackbits(words.view(np.uint8), bitorder="little").view(np.bool_)
                assert not bits[1 << n :].any(), (n, kind, k)
                assert (bits[: 1 << n] == expected).all(), (n, kind, k)
                if n > _FAMILY_CHECK_ORDER:
                    continue
                family = enumerate_minimal_alliances(g, k, kind)
                assert sorted(family.masks) == _rule_family(expected, n), (n, kind, k)
                free = np.flatnonzero(~expected)
                sizes = np.bitwise_count(free)
                largest = free[sizes == sizes.max()].tolist()
                first = min(largest, key=lambda m: VertexSet(m, n).to_sorted_list())
                r = phi(g, k, kind)
                assert (r.value, r.witness.mask) == (sizes.max(), first), (n, kind, k)


@pytest.mark.parametrize("n", range(15, 25))
def test_slack_table_matches_the_scalar_predicate(n):
    """Orders the oracle cannot reach: on sampled masks of every size, for
    every canonical k, the raw slack entry passes k + bias exactly when
    the scalar predicate holds.  Orders above 16 span several blocks of
    the table."""
    rng = random.Random(70 + n)
    g = random_graph(n, rng.choice((0.15, 0.25, 0.35)), seed=n)
    masks = [g.full_mask, 1 << (n - 1)]
    for _ in range(120):
        masks.append(VertexSet.of(rng.sample(range(n), rng.randint(1, n)), n).mask)
    for kind in AllianceKind:
        slack = _slack_table(g, kind)
        assert slack[0] == 0
        for m in masks:
            for k in canonical_k_range(g, kind):
                assert (slack[m] >= k + _BIAS) == _alliance_ok(g, m, k, kind), (kind, m, k)


@pytest.mark.parametrize("kind", list(AllianceKind))
def test_minimal_family_memory_at_order_24(kind):
    """The family is read off packed bits, about 0.125 bytes per mask
    each for the covered words and their minimal copy; the byte slack
    table alone would take one byte per mask."""
    assert traced_peak(lambda: enumerate_minimal_alliances(grid_graph(4, 6), 0, kind)) < 0.75 * (1 << 24)


def _free_at(g, x, kind, ks, check):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CanonicalRangeWarning)
        return [check(g, x, k, kind) for k in ks]


@pytest.mark.parametrize("n", range(15, 25))
def test_free_set_kernel_beyond_the_oracle(n):
    """Orders the oracle cannot reach, for every kind at every canonical k
    and at extreme k.  From order 21 on, x has 17 to 20 members.  An
    alliance at k is one at every smaller k, so freeness only grows with k:
    once the answers of ``is_free_set`` do too, the scalar twin need only
    confirm the last k at which x is not free and the first at which it
    is."""
    rng = random.Random(90 + n)
    g = random_graph(n, 0.15, seed=n)  # sparse: the twin's 2^20 sweeps stay near 1 s
    d = g.delta_max
    for size in (rng.randint(1, 12), n - 4 if n > 20 else min(n, 16)):
        x = VertexSet.of(rng.sample(range(n), size), n)
        for kind in AllianceKind:
            ks = sorted(set(canonical_k_range(g, kind)) | {-1000, -d - 3, d + 1, d + 2, 150, 1000})
            got = _free_at(g, x, kind, ks, is_free_set)
            assert got == sorted(got), (n, size, kind)
            first_free = got.index(True) if True in got else len(ks)
            if first_free:
                assert not _free_mask(g, x.mask, ks[first_free - 1], kind), (n, size, kind)
            if first_free < len(ks):
                assert _free_mask(g, x.mask, ks[first_free], kind), (n, size, kind)


def test_free_set_kernel_exhaustive_on_small_graphs():
    """Every set of 40 random graphs of order <= 6, every kind, every k from
    -n-3 to n+3; the graphs include isolated vertices and components."""
    rng = random.Random(91)
    for _ in range(40):
        g = seeded_graph(rng, rng.randint(1, 6))
        ks = range(-g.n - 3, g.n + 4)
        for kind in AllianceKind:
            for mask in range(1 << g.n):
                x = VertexSet(mask, g.n)
                expected = _free_at(g, x, kind, ks, lambda g, x, k, kind: _free_mask(g, x.mask, k, kind))
                assert _free_at(g, x, kind, ks, is_free_set) == expected, (g, mask, kind)


def test_free_set_at_the_edge_of_the_kernel_range():
    """Graphs far beyond any 2^n table, with centres of degree 62 and 63 and
    an order-100 random graph: the peel agrees with the scalar enumeration
    on sets of up to 10 members."""
    rng = random.Random(93)
    for g in (star_graph(62), star_graph(63), grid_graph(8, 8), random_graph(100, 0.08, seed=93)):
        sets = [VertexSet.of(s, g.n) for s in ([0], [0, 1], [1, 2, 3], range(6), range(1, 9))]
        sets += [VertexSet.of(rng.sample(range(g.n), 10), g.n) for _ in range(3)]
        for x in sets:
            for kind in AllianceKind:
                for k in range(-g.n - 3, g.n + 4, 5):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", CanonicalRangeWarning)
                        assert is_free_set(g, x, k, kind) == _free_mask(g, x.mask, k, kind), (
                            g, x.to_sorted_list(), kind, k)


def _assert_peel_matches_the_closure(g, x, kind, closed):
    """The peel's largest slack over the non-empty subsets of mask x is the
    closure's entry at x, unbiased, and infinite where that entry marks a
    subset with an empty scope."""
    got = freesets_mod._max_slack(g, x, kind)
    if closed[x] >= _VACUOUS:
        assert got == math.inf, (g, x, kind)
    else:
        assert got + _BIAS == closed[x], (g, x, kind, got, int(closed[x]))


@pytest.mark.parametrize("n", range(1, 13))
def test_max_slack_matches_the_closure(n):
    """Every mask of random graphs, isolated vertices included, every kind;
    the empty mask has no non-empty subset, so its largest slack is -inf."""
    rng = random.Random(120 + n)
    for g in [seeded_graph(rng, n) for _ in range(2 if n > 9 else 4)]:
        for kind in AllianceKind:
            closed = _closed_slack_table(g, kind, DEFAULT_EXACT_LIMIT)
            assert freesets_mod._max_slack(g, 0, kind) == -math.inf
            for x in range(1, 1 << n):
                _assert_peel_matches_the_closure(g, x, kind, closed)


@pytest.mark.parametrize("n", range(21, 25))
def test_max_slack_matches_the_closure_beyond_the_oracle(n):
    """Orders 21-24: the whole vertex set and sets of 17 to n members."""
    rng = random.Random(130 + n)
    g = random_graph(n, rng.choice((0.1, 0.2, 0.3)), seed=130 + n)
    sets = [g.full_mask]
    sets += [VertexSet.of(rng.sample(range(n), rng.randint(17, n)), n).mask for _ in range(12)]
    for kind in AllianceKind:
        closed = _closed_slack_table(g, kind, DEFAULT_EXACT_LIMIT)
        for x in sets:
            _assert_peel_matches_the_closure(g, x, kind, closed)


def test_free_set_memo_is_k_independent():
    freesets_mod._max_slack.cache_clear()
    g = random_graph(10, 0.4, 4)
    x = VertexSet.of([0, 2, 3, 7, 8], 10)
    for kind in AllianceKind:
        for k in range(-14, 15):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CanonicalRangeWarning)
                is_free_set(g, x, k, kind)
    assert freesets_mod._max_slack.cache_info().misses == 3


def test_empty_set_is_free_at_every_k():
    for g in (Graph(1), path_graph(3), Graph(4, [(0, 1), (2, 3)]), random_graph(12, 0.5, 1)):
        for kind in AllianceKind:
            for k in (-1000, -g.n - 3, -1, 0, 1, g.n + 3, 150, 1000):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", CanonicalRangeWarning)
                    assert is_free_set(g, VertexSet(0, g.n), k, kind), (g.n, kind, k)


def test_free_set_refusals():
    g = random_graph(24, 0.3, 2)
    x = VertexSet.of(range(21), 24)
    freesets_mod._max_slack.cache_clear()
    # answered without a table over the 2^21 subsets of x
    assert traced_peak(lambda: is_free_set(g, x, 0, "offensive")) < 1 << 20
    closed = _closed_slack_table(g, AllianceKind.OFFENSIVE, DEFAULT_EXACT_LIMIT)
    assert is_free_set(g, x, 0, "offensive") == (closed[x.mask] < _threshold(0))
    p6 = path_graph(6)
    assert not is_free_set(p6, p6.vertices, 0, "defensive")
    with pytest.raises(ValueError, match="universe"):
        is_free_set(path_graph(3), VertexSet(1, 4), 0, "defensive")
    with pytest.raises(ValueError, match="universe"):
        is_free_set(path_graph(3), VertexSet(0, 2), 0, "defensive")


def test_oracle_never_reaches_the_kernel(monkeypatch):
    def kernel_spy(*args, **kwargs):
        raise AssertionError("the oracle reached the slack kernel")

    monkeypatch.setattr(freesets_mod, "_slack_table", kernel_spy)
    monkeypatch.setattr(freesets_mod, "_max_slack", kernel_spy)
    assert phi_bruteforce(path_graph(4), 0, "defensive") == 2
    rng = random.Random(92)
    for _ in range(10):
        g = seeded_graph(rng, rng.randint(1, 7))
        for kind in AllianceKind:
            phi_bruteforce(g, 0, kind)
    with pytest.raises(AssertionError, match="slack kernel"):
        is_free_set(path_graph(4), VertexSet(1, 4), 0, "defensive")
