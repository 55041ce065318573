import hashlib
import importlib
import math
import random
import warnings
from typing import Iterator

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
    grid_graph,
    is_alliance,
    is_cover_set,
    is_free_set,
    path_graph,
    phi,
    phi_bruteforce,
    phi_table,
    random_graph,
    star_graph,
)
from alliancekit.alliances import _alliance_ok
from alliancekit.freesets import (
    _BIAS,
    _LOW_BITS,
    _VACUOUS,
    _alliance_words,
    _closed_slack_table,
    _covered_words,
    _free_mask,
    _pack_words,
    _slack_table,
    _threshold,
)

from conftest import graph_and_set, kinds, refusal_peak, seeded_graph, traced_peak

freesets_mod = importlib.import_module("alliancekit.freesets")
phi_mod = importlib.import_module("alliancekit.phi")


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


def test_family_refuses_a_set_of_another_universe():
    """Like is_free_set, a family refuses a set whose universe is not its
    graph's order, even one whose vertices it would clear."""
    fam = enumerate_minimal_alliances(path_graph(3), 2, "offensive")
    for x in (VertexSet(0b1000000, 40), VertexSet(0, 2), VertexSet.of([0, 2], 4)):
        with pytest.raises(ValueError, match="does not match graph order 3"):
            fam.certifies_free(x)
    assert fam.certifies_free(VertexSet.of([0, 1], 3))


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
    """A k-free set stays free at every k' > k, on every set of seeded
    small graphs: is_free_set compares one k-independent largest slack
    with k, so the k at which a set is free form an up-set."""
    rng = random.Random(9)
    p3 = path_graph(3)
    assert not is_free_set(p3, VertexSet.of([0, 2], 3), 2, "offensive")
    assert is_free_set(p3, VertexSet.of([0, 2], 3), 3, "offensive")
    for _ in range(12):
        g = seeded_graph(rng, rng.randint(1, 5))
        ks = range(-g.delta_max - 3, g.delta_max + 4)
        for kind in AllianceKind:
            for mask in range(1 << g.n):
                x = VertexSet(mask, g.n)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", CanonicalRangeWarning)
                    free = [is_free_set(g, x, k, kind) for k in ks]
                assert free == sorted(free), (g, kind, mask)


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
    # order 33 leaves uint32 masks: refused before its 2^33-mask sweep
    assert refusal_peak(lambda: enumerate_minimal_alliances(Graph(33), 0, "defensive")) < 1 << 20
    big = Graph(25)
    # one set needs no table: every singleton of the edgeless graph is a
    # defensive 0-alliance and none is a 1-alliance
    assert not is_free_set(big, big.vertices, 0, "defensive")
    assert is_free_set(big, big.vertices, 1, "defensive")


def _rule_family(covered: np.ndarray, n: int) -> np.ndarray:
    """Masks that are covered while no one-bit-smaller mask is, as bools."""
    masks = np.arange(1 << n)
    minimal = covered.copy()
    for b in range(n):
        has_b = masks[masks >> b & 1 == 1]
        minimal[has_b] &= ~covered[has_b ^ (1 << b)]
    return minimal


def _first_largest(free: np.ndarray, n: int) -> tuple[int, int]:
    """Largest popcount among the masks marked free, and the marked mask of
    that popcount with the lexicographically smallest sorted vertex list;
    read 2^16 masks at a time."""
    best, found = -1, []
    for start in range(0, free.size, 1 << 16):
        masks = start + np.flatnonzero(free[start : start + (1 << 16)])
        sizes = np.bitwise_count(masks)
        if masks.size and sizes.max() >= best:
            if sizes.max() > best:
                best, found = int(sizes.max()), []
            found += masks[sizes == best].tolist()
    return best, min(found, key=lambda m: VertexSet(m, n).to_sorted_list())


def _unpacked(words: np.ndarray, n: int) -> np.ndarray:
    """Bits of the packed words as bools; the padding below order 6 must
    be clear."""
    bits = np.unpackbits(words.view(np.uint8), bitorder="little").view(np.bool_)
    assert words.dtype == np.dtype("<u8") and words.size == max(1, (1 << n) >> 6)
    assert not bits[1 << n :].any()
    return bits[: 1 << n]


#: Largest order at which the closure test also checks the minimal words,
#: the family, and phi at every k.
_FAMILY_CHECK_ORDER = 18


@pytest.mark.parametrize("n", [*range(1, 8), *range(17, 25)])
def test_covered_words_and_family_match_the_closure(n):
    """The packed covered and minimal words equal the thresholded
    max-closure and the minimal rule computed here on it, bit for bit,
    with clear padding below order 6; the family is read off the minimal
    words; phi, and the phi_table row of each canonical k, pick the
    largest uncovered mask, lexicographically first on ties.  Orders 18-24
    span 4 to 256 blocks of the alliance bits; above _FAMILY_CHECK_ORDER,
    phi is checked at k = 0 and one extreme k per kind, and phi_table at
    k = 0."""
    rng = random.Random(110 + n)
    graphs = [seeded_graph(rng, n) for _ in range(4)] if n < 8 else [random_graph(n, 0.3, seed=n)]
    for g in graphs:
        d = g.delta_max
        extreme = {-1000, -d - 3, d + 1, d + 2, 150, 1000} if n <= 17 else {-1000, d + 2, 150}
        beyond = {AllianceKind.DEFENSIVE: -1000, AllianceKind.OFFENSIVE: d + 2, AllianceKind.POWERFUL: 150}
        for kind in AllianceKind:
            closed = _closed_slack_table(g, kind)
            table = {k: (value, witness.mask) for k, value, witness in phi_table(g, kind)}
            for k in sorted(set(canonical_k_range(g, kind)) | extreme):
                expected = closed >= _threshold(k)
                words, minimal = _covered_words(g, k, kind)
                assert (_unpacked(words, n) == expected).all(), (n, kind, k)
                if n > _FAMILY_CHECK_ORDER:
                    if k in (0, beyond[kind]):
                        best = _first_largest(~expected, n)
                        r = phi(g, k, kind)
                        assert (r.value, r.witness.mask) == best, (n, kind, k)
                        assert k not in table or table[k] == best, (n, kind, k)
                    continue
                rule = _rule_family(expected, n)
                assert (_unpacked(minimal, n) == rule).all(), (n, kind, k)
                family = enumerate_minimal_alliances(g, k, kind)
                assert sorted(family.masks) == np.flatnonzero(rule).tolist(), (n, kind, k)
                best = _first_largest(~expected, n)
                r = phi(g, k, kind)
                assert (r.value, r.witness.mask) == best, (n, kind, k)
                assert r.certificate == family
                assert k not in table or table[k] == best, (n, kind, k)


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


def _reference_slack(g: Graph, kind: AllianceKind) -> np.ndarray:
    """The biased slack of every mask, vertex by vertex: vertex v gives
    2*|N(v) & S| - deg(v) + _BIAS, less 2 as a powerful boundary term, plus
    _VACUOUS where v is outside the scope, and the entry is the least term.
    As in the builder, a vertex above the low bits gives no term where the
    block fixes it outside the scope: absent from S for the defensive
    scope, in S for the boundary scope.  The empty mask is 0."""
    masks = np.arange(1 << g.n, dtype=np.int64)
    out = np.full(1 << g.n, 255, dtype=np.int64)
    for v, (adj, degree) in enumerate(zip(g.adj_bits, g.degrees)):
        count = np.bitwise_count(masks & adj).astype(np.int64)
        present = (masks >> v & 1) == 1
        value = 2 * count - degree + _BIAS
        low = v < _LOW_BITS
        if kind is not AllianceKind.OFFENSIVE:
            np.minimum(out, value + _VACUOUS * ~present, out=out, where=present | low)
        if kind is not AllianceKind.DEFENSIVE:
            outside = present | (count == 0)
            offset = 2 if kind is AllianceKind.POWERFUL else 0
            np.minimum(out, value - offset + _VACUOUS * outside, out=out, where=~present | low)
    out[0] = 0
    return out.astype(np.uint8)


@pytest.mark.parametrize("n", range(1, 19))
def test_slack_table_matches_a_per_vertex_reference(n):
    """Every mask, byte for byte, for every kind: orders 1-16 fill one
    block, 17 and 18 two and four.  Each graph has isolated vertices, the
    highest one among them, so empty scopes and the vertices above the
    low bits are both reached."""
    rng = random.Random(140 + n)
    for _ in range(2):
        isolated = {n - 1, rng.randrange(n)}
        edges = [e for e in seeded_graph(rng, n).edges() if not isolated & set(e)]
        g = Graph(n, edges)
        for kind in AllianceKind:
            assert (_slack_table(g, kind) == _reference_slack(g, kind)).all(), (n, kind)


@pytest.mark.parametrize("low", range(1, _LOW_BITS + 1))
def test_reached_rows_match_their_definition(low):
    """Row v at low part l is 2*|N(v) & l| + _VACUOUS*[v in l], for every
    l < 2^low: lows 1-8 come from the byte table alone, 9-16 double it from
    bit 8 on, so the seam between them (bits 7 and 8) is checked directly.
    A graph of order low, and one of order low + 5 with edges to the five
    high vertices, whose neighbours there count nowhere."""
    rng = random.Random(700 + low)
    for n in (low, low + 5):
        g = seeded_graph(rng, n)
        assert n == low or any(adj >> low for adj in g.adj_bits[:low])
        out = np.empty((n, 1 << low), dtype=np.uint8)
        freesets_mod._reached_rows(g, low, out)
        masks = np.arange(1 << low)
        for v, adj in enumerate(g.adj_bits):
            expected = 2 * np.bitwise_count(masks & adj) + _VACUOUS * (masks >> v & 1)
            assert (out[v] == expected).all(), (low, n, v)


@pytest.mark.parametrize("g", [random_graph(17, 0.3, seed=1), random_graph(20, 0.3, seed=2),
                               grid_graph(4, 6)], ids=["random17", "random20", "grid4x6"])
def test_powerful_builds_are_defensive_and_shifted_offensive(g):
    """Orders above the low bits, on every mask: a powerful k-alliance is a
    defensive k-alliance that is also an offensive (k+2)-alliance, and the
    powerful slack is min(defensive, offensive - 2), with 0 for the empty
    mask; so the row offsets of a three-scope build, block by block, agree
    with the one-scope builds."""
    P, D, O = AllianceKind.POWERFUL, AllianceKind.DEFENSIVE, AllianceKind.OFFENSIVE
    for k in (-1, 0, 2):
        expected = _alliance_words(g, k, D) & _alliance_words(g, k + 2, O)
        assert (_alliance_words(g, k, P) == expected).all(), k
    expected = np.minimum(_slack_table(g, D).astype(np.int16), _slack_table(g, O).astype(np.int16) - 2)
    expected[0] = 0
    assert (_slack_table(g, P) == expected).all()


#: ``_kernel_digest()`` as recorded from a kernel that passed the per-vertex
#: reference (orders 1-18) and the scalar predicate (orders 15-24).
KERNEL_DIGEST = "e6185ddad6548ccdf5c137a4d769ad6170723e8a733880c33c519636070ebaf1"


def _digest_graphs() -> Iterator[Graph]:
    """One seeded graph of each order 1-24; odd orders leave their top
    vertex isolated."""
    for n in range(1, 25):
        rng = random.Random(300 + n)
        p = (0.2, 0.35, 0.5)[n % 3]
        top = n - 1 if n % 2 else n
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p and v != top]
        yield Graph(n, edges)


def _kernel_digest() -> str:
    """One sha256 over the slack table, its closure, the level minima and
    the alliance words at k = -1, 0 and 2, for every kind, on the graphs
    of ``_digest_graphs``."""
    digest = hashlib.sha256()
    for g in _digest_graphs():
        for kind in AllianceKind:
            digest.update(_slack_table(g, kind).tobytes())
            digest.update(_closed_slack_table(g, kind).tobytes())
            digest.update(bytes(phi_mod._level_minima(g, kind)))
            for k in (-1, 0, 2):
                digest.update(_alliance_words(g, k, kind).tobytes())
    return digest.hexdigest()


def test_kernel_outputs_are_pinned():
    """Every byte the slack kernel builds on the seeded graphs of orders
    1-24: a kernel change that alters any output fails here, also above
    the orders the per-vertex reference reaches."""
    assert _kernel_digest() == KERNEL_DIGEST


#: ``_covered_words_digest()`` as recorded from the unchunked closure, whose
#: words ``test_covered_words_and_family_match_the_closure`` checks against
#: the thresholded max-closure.
COVERED_WORDS_DIGEST = "b4b14604d04c572c7f16928b0980798d410d0bf00cbbf0da08a0920fa9bc761d"


def _covered_words_digest() -> str:
    """One sha256 over the covered and the minimal words at k = -1, 0 and
    2, for every kind, on the graphs of ``_digest_graphs``."""
    digest = hashlib.sha256()
    for g in _digest_graphs():
        for kind in AllianceKind:
            for k in (-1, 0, 2):
                for words in _covered_words(g, k, kind):
                    digest.update(words.tobytes())
    return digest.hexdigest()


def test_covered_words_are_pinned():
    """Both word arrays of the closure sweep on the seeded graphs of orders
    1-24: orders above _CHUNK_BITS close their low bits chunk by chunk,
    and a change to the pass order that alters any word fails here."""
    assert _covered_words_digest() == COVERED_WORDS_DIGEST


@pytest.mark.parametrize("n", range(8, 19, 2))
def test_small_closure_chunks_give_the_same_words(monkeypatch, n):
    """Chunks of 2^7..2^12 masks, 2 to 64 words: each splits the word-pair
    passes between the per-chunk and the whole-array loops at a different
    bit, and where a chunk holds every mask of the order there is one
    chunk.  Each gives the words of the default chunk size, for every kind
    at k = -1, 0 and 2."""
    rng = random.Random(500 + n)
    g = seeded_graph(rng, n)
    cases = [(k, kind) for kind in AllianceKind for k in (-1, 0, 2)]
    expected = {case: _covered_words(g, *case) for case in cases}
    for bits in range(7, 13):
        monkeypatch.setattr(freesets_mod, "_CHUNK_BITS", bits)
        for case in cases:
            got = _covered_words(g, *case)
            assert all((a == b).all() for a, b in zip(got, expected[case])), (n, case, bits)


@pytest.mark.parametrize("n", range(17, 23))
def test_shared_terms_are_those_of_every_block(n):
    """The shared terms, handed over in one call with the shared flag, into
    the last block before any earlier block copies it, are exactly the
    terms every block has, and no block folds one of them again; each
    block's own terms come in one call.  Orders 17-22 span 2 to 64
    blocks; each graph has low vertices with and without a high neighbour."""
    g = random_graph(n, 0.3 if n % 2 else 0.15, seed=n)
    for kind in AllianceKind:
        members, boundary, _ = freesets_mod._SCOPES[kind]
        out = np.zeros(1 << (n - _LOW_BITS), dtype=np.uint8)  # one entry per block
        shared, own = [], {}

        def record(block, rows, terms, is_shared):
            b = block.ctypes.data - out.ctypes.data
            # block 0 has not copied the last block yet
            assert is_shared == (b == out.size - 1 and not out[0]), (n, kind, terms)
            if is_shared:
                shared.extend(terms)
            else:
                assert b not in own, (n, kind, b)  # one call per block
                own[b] = set(terms)

        freesets_mod._fold_slack(g, kind, out, 1, record)
        assert (out == 1).all() and len(own) == out.size, (n, kind)
        assert set.intersection(*(set(shared) | terms for terms in own.values())) == set(shared), (n, kind)
        assert all(not terms & set(shared) for terms in own.values()), (n, kind)
        assert len(set(shared)) == len(shared)
        assert 0 < len(shared) < (members + boundary) * _LOW_BITS, (n, kind)


@pytest.mark.parametrize("n", [*range(1, 8), *range(15, 19)])
def test_term_ranges_are_those_of_their_rows(n):
    """``_row_bounds`` gives the least and the largest entry of each term's
    row, shared and own terms alike, for every kind: orders 1-16 fill one
    block, 17 and 18 two and four.  Each graph has isolated vertices, the
    highest one among them, so rows with no low neighbour are reached."""
    rng = random.Random(170 + n)
    isolated = {n - 1, rng.randrange(n)}
    g = Graph(n, [e for e in seeded_graph(rng, n).edges() if not isolated & set(e)])
    for kind in AllianceKind:
        bounds = freesets_mod._row_bounds(g, kind)

        def check(block, rows, terms, is_shared):
            assert len(bounds) == len(rows), (n, kind)
            for r, _ in terms:
                assert bounds[r] == (rows[r].min(), rows[r].max()), (n, kind, r)

        freesets_mod._fold_slack(g, kind, np.zeros(max(1, (1 << n) >> 6), dtype="<u8"), 0, check)


@pytest.mark.parametrize("n", [*range(1, 8), *range(17, 25)])
def test_words_match_the_thresholded_tables(n):
    """The fold's cleared and skipped terms and the closure's gathered
    blocks leave every word exact: the alliance words equal the packed
    threshold test of the slack table, and the covered words that of its
    max-closure, with clear padding below order 6.  Every kind, at every
    canonical k and at k = -40, where every term passes, and 40, where
    whole blocks clear; odd orders draw dense graphs, even ones sparse."""
    rng = random.Random(600 + n)
    g = seeded_graph(rng, n) if n % 2 else random_graph(n, 0.15, seed=n)
    for kind in AllianceKind:
        slack, closed = _slack_table(g, kind), _closed_slack_table(g, kind)
        for k in [-40, *canonical_k_range(g, kind), 40]:
            t = _threshold(k)
            assert (_alliance_words(g, k, kind) == _pack_words(slack >= t)).all(), (n, kind, k)
            covered, _ = _covered_words(g, k, kind)
            assert (covered == _pack_words(closed >= t)).all(), (n, kind, k)


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
            closed = _closed_slack_table(g, kind)
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
        closed = _closed_slack_table(g, kind)
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
    closed = _closed_slack_table(g, AllianceKind.OFFENSIVE)
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
