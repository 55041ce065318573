"""k-alliance free sets, cover sets, and minimal-alliance enumeration.

A set X is kind/k alliance free when no non-empty subset of X is a kind/k
alliance.  Free sets are downward closed, so the inclusion-minimal
alliances of a graph certify freeness: X is free iff it contains no
minimal alliance.

Every exact 2^n computation rests on the slack of a set S, the minimum
of 2*d_S(v) - deg(v) over the vertices the kind constrains: S is a
kind/k alliance exactly when its slack is at least k.  For callers that
need every k, one k-independent table per (graph, kind) holds the slack
of every mask, and a max subset-sum (zeta) transform closes it upward:
each mask then holds the largest k at which it contains a k-alliance,
and thresholding at k marks the masks that contain one.  For one k no
byte table is built.  The slack is a minimum of per-vertex terms, and a
minimum is at least the threshold iff every term is, so the alliance
bits come packed 64 masks to a word as an AND of per-term threshold
tests (``_alliance_words``).  Thresholding commutes with the
max-closure, so OR passes over the words then mark the masks that
contain an alliance (``_covered_words``).  A mask is a minimal alliance
when it is marked and no mask one bit smaller is; the same word passes,
with AND-NOT, find them.

A single set X needs no table.  The union of two kind/k alliances is again
one, so X holds one largest kind/k alliance, and greedy peeling finds it,
as in the k-core decomposition: start from s = X, and each round take the
constraint of s of least value (2*d_s(v) - deg(v) for a member or a
boundary vertex, less 2 for a powerful boundary vertex), then drop that
member, or the neighbours of that boundary vertex, from s.  An alliance A inside s loses a vertex only
to a constraint that binds A, whose value is then at least A's slack, and
each value taken is the slack of the current s; so the largest value taken
is the largest slack over the non-empty subsets of X.  It does not depend
on k, so it is kept per (graph, X, kind), and X is free at k exactly when
it is below k.  ``_free_mask`` is the scalar twin, which enumerates the
subsets of X one by one; the ``phi_bruteforce`` oracle and the tests use
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .alliances import AllianceKind, _alliance_ok
from .graph import DEFAULT_EXACT_LIMIT, CapacityError, Graph, VertexSet, _bits, _check_universe


def is_free_set(g: Graph, x: VertexSet, k: int, kind: AllianceKind | str) -> bool:
    """True iff no non-empty subset of x is a kind/k alliance.

    Peels x down to the largest slack over its non-empty subsets and
    compares that with k; the value does not depend on k and is memoised
    per (graph, x, kind).  Polynomial in the order, for sets of any size.
    """
    kind = AllianceKind(kind)
    _check_universe(g, x)
    return _max_slack(g, x.mask, kind) < k


def _free_mask(g: Graph, xmask: int, k: int, kind: AllianceKind) -> bool:
    """Scalar twin of ``is_free_set``: tests each non-empty subset of xmask
    with the predicate, stopping at the first alliance."""
    sub = (0 - xmask) & xmask
    while sub:
        if _alliance_ok(g, sub, k, kind):
            return False
        sub = (sub - xmask) & xmask
    return True


def is_cover_set(g: Graph, y: VertexSet, k: int, kind: AllianceKind | str) -> bool:
    """True iff y meets every kind/k alliance; by duality, iff the
    complement of y is kind/k alliance free."""
    return is_free_set(g, y.complement(), k, kind)


def free_set_monotone_witness(
    g: Graph, x: VertexSet, k: int, k_prime: int, kind: AllianceKind | str
) -> bool:
    """Self-checking assertion: a k-free x must stay free for k' > k."""
    kind = AllianceKind(kind)
    if k >= k_prime:
        raise ValueError(f"need k < k', got k={k}, k'={k_prime}")
    if not is_free_set(g, x, k, kind):
        raise ValueError("x is not k-alliance free")
    return is_free_set(g, x, k_prime, kind)


@dataclass(frozen=True)
class MinimalAllianceFamily:
    """All inclusion-minimal kind/k alliances of a graph.

    A set is kind/k free iff it contains no member: any alliance contains
    a minimal one.  Members are pairwise incomparable and ordered by
    cardinality, then lexicographically on the sorted vertex lists.
    """

    kind: AllianceKind
    k: int
    sets: tuple[VertexSet, ...]

    @property
    def masks(self) -> tuple[int, ...]:
        return tuple(s.mask for s in self.sets)

    def certifies_free(self, x: VertexSet) -> bool:
        xm = x.mask
        return all(s.mask & xm != s.mask for s in self.sets)

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[VertexSet]:
        return iter(self.sets)


def enumerate_minimal_alliances(
    g: Graph, k: int, kind: AllianceKind | str, *, limit: int = DEFAULT_EXACT_LIMIT
) -> MinimalAllianceFamily:
    """Exact inclusion-minimal kind/k alliances via a full 2^n sweep."""
    kind = AllianceKind(kind)
    return _minimal_family(_covered_words(g, k, kind, limit), g.n, k, kind)


# ---------------------------------------------------------------------------
# The slack: as a table, its max-closure, or packed alliance bits for one k
#
# Condition (1) for v against a set S reads 2*d_S(v) - deg(v) >= k.  The
# slack of S is the minimum of that left side over the scope (S for the
# defensive kind, the boundary of S for the offensive kind, and
# min(defensive, offensive - 2) for the powerful kind), so S is a kind/k
# alliance exactly when slack(S) >= k, for every k at once.

#: A block holds 2^_LOW_BITS consecutive masks; of 2^12..2^18, 2^16
#: built an order-24 slack table fastest.
_LOW_BITS = 16
#: Added to every finite slack; |slack| <= 31 up to _MAX_ORDER, so biased
#: values lie in [33, 95] and never reach the high bit.
_BIAS = 64
#: The high bit.  A vertex outside the scope contributes its entry with
#: this bit set, so it never wins the minimum; a set with an empty scope
#: (a vacuous offensive alliance) keeps a value at or above it.
_VACUOUS = 128
#: Masks fit in uint32, and every degree stays below 32.
_MAX_ORDER = 32


def _threshold(k: int) -> int:
    """Closure entries at or above this contain a kind/k alliance.  Every
    non-empty mask has a biased slack >= 1 and every finite one lies below
    _VACUOUS, so clamping keeps any int k exact: very small k covers every
    non-empty mask, very large k covers only the vacuous sets."""
    return min(max(k + _BIAS, 1), _VACUOUS)


def _check_order(g: Graph, limit: int) -> None:
    """Refuse a 2^n table before any of it is allocated: above the caller's
    limit, and above _MAX_ORDER whatever the limit."""
    if g.n > limit:
        raise CapacityError(f"order {g.n} exceeds enumeration limit {limit}")
    if g.n > _MAX_ORDER:
        raise CapacityError(
            f"order {g.n} exceeds {_MAX_ORDER}, the largest order a 2^n table "
            f"supports; its byte table would take {1 << g.n} bytes"
        )


def _closed_slack_table(g: Graph, kind: AllianceKind, limit: int) -> np.ndarray:
    """Max-closure of the slack table over all 2^n masks: entry m is the
    largest biased k at which m contains a kind/k alliance (0 for the empty
    mask), so m contains a kind/k alliance iff entry >= _threshold(k)."""
    _check_order(g, limit)
    closed = _slack_table(g, kind)
    for b in range(g.n):
        for without, with_b in _bit_pairs(closed, b):
            np.maximum(with_b, without, out=with_b)
    return closed


def _bit_pairs(table: np.ndarray, b: int):
    """Matching views (masks without bit b, the same masks with bit b).
    Narrow blocks (b <= 3) come as 1-D strided columns, which numpy sweeps
    several times faster than a reshaped view with a short inner axis."""
    view = table.reshape(-1, 2, 1 << b)
    if b > 3:
        yield view[:, 0], view[:, 1]
    else:
        for j in range(1 << b):
            yield view[:, 0, j], view[:, 1, j]


#: In-word halves for bits 0..5 of a mask: word bit p stands for mask
#: 64*w + p, and _LOW_HALVES[b] has the positions p whose bit b is clear.
_LOW_HALVES = tuple(np.uint64(sum(1 << p for p in range(64) if not p >> b & 1)) for b in range(6))
#: A word with every mask's bit set.
_ALL_BITS = np.uint64(2**64 - 1)


def _covered_words(g: Graph, k: int, kind: AllianceKind, limit: int) -> np.ndarray:
    """The masks that contain a kind/k alliance, one bit each: bit p of word
    w stands for mask 64*w + p (orders below 6 pad the one word with zeros).
    The alliance bits of ``_alliance_words`` are closed upward by OR passes:
    thresholding commutes with the max-closure, since a mask contains a set
    of slack >= t iff its closed entry is >= t, so this equals
    ``_closed_slack_table(g, kind, limit) >= _threshold(k)``."""
    _check_order(g, limit)
    words = _alliance_words(g, k, kind)
    for b in range(g.n):
        for with_b, without in _word_pairs(words, words, b):
            with_b |= without
    return words


def _word_pairs(target: np.ndarray, source: np.ndarray, b: int):
    """Aligned (target's masks with bit b, source's same masks without it)
    over covered words.  Bits 0..5 lie inside a word: the whole target comes
    with source's bit-b-clear positions shifted onto the bit-b-set ones, and
    zeros elsewhere.  From bit 6 on, bit b selects whole words, matched by
    the word-pair views of ``_bit_pairs``."""
    if b < 6:
        yield target, (source & _LOW_HALVES[b]) << np.uint64(1 << b)
    else:
        for (_, with_b), (without, _) in zip(_bit_pairs(target, b - 6), _bit_pairs(source, b - 6)):
            yield with_b, without


def _minimal_family(
    covered: np.ndarray, n: int, k: int, kind: AllianceKind
) -> MinimalAllianceFamily:
    """Covered masks none of whose one-bit-smaller subsets is covered: such a
    mask contains an alliance but no proper subset does, so it is one.
    ``covered`` holds the words of ``_covered_words``.  Members come in
    order of size, then of sorted vertex list; for sets of one size, that
    list order is the descending order of the bit-reversed masks."""
    minimal = covered.copy()
    for b in range(n):
        for with_b, without in _word_pairs(minimal, covered, b):
            with_b &= ~without
    nonzero = np.flatnonzero(minimal)
    bits = np.unpackbits(minimal[nonzero].view(np.uint8), bitorder="little")
    rows, cols = np.nonzero(bits.reshape(-1, 64))
    masks = nonzero[rows] << 6 | cols
    reversed_masks = np.zeros_like(masks)
    for v in range(n):
        reversed_masks |= (masks >> v & 1) << (n - 1 - v)
    masks = masks[np.lexsort((-reversed_masks, np.bitwise_count(masks)))]
    return MinimalAllianceFamily(kind, k, tuple(VertexSet(m, n) for m in masks.tolist()))


def _slack_terms(
    g: Graph, kind: AllianceKind
) -> tuple[list[np.ndarray], Iterator[list[tuple[int, int]]]]:
    """The kind slack of every mask as a minimum of per-vertex terms; the
    scope rules of both builders live here.

    Each mask splits into a high part h, fixed within a block of
    2^_LOW_BITS consecutive masks, and a low part l.  Everything a vertex
    contributes that depends on l is tabulated once (``_low_tables``).
    Returns (rows, blocks): rows holds those tables, for each scope the
    kind reads the reached row of every vertex and then the unreached one,
    and blocks yields, block by block, the terms (r, shift) whose minimum
    of rows[r][l] + shift is the block's biased slack at l.  The shift is
    2*|N(v) & h| + _BIAS - deg(v), less 2 for the offensive terms of the
    powerful kind, and no entry reaches 256."""
    low = min(g.n, _LOW_BITS)
    highmask = g.full_mask >> low << low
    rows: list[np.ndarray] = []
    scopes = []
    for boundary in (False, True):
        if kind is (AllianceKind.DEFENSIVE if boundary else AllianceKind.OFFENSIVE):
            continue
        bias = _BIAS - 2 if boundary and kind is AllianceKind.POWERFUL else _BIAS
        scopes.append((boundary, len(rows), bias))
        for table in _low_tables(g, low, boundary):  # rows of reached, then unreached
            rows.extend(table)
    vertices = list(zip(range(g.n), g.adj_bits, g.degrees))

    def blocks() -> Iterator[list[tuple[int, int]]]:
        for b in range(1 << (g.n - low)):
            hmask = b << low
            terms = []
            for boundary, first, bias in scopes:
                # a high vertex is in every set of the block or in none: off
                # the boundary when present, out of a defensive scope when absent
                skip = hmask if boundary else highmask & ~hmask
                for v, adj, degree in vertices:
                    if skip >> v & 1:
                        continue
                    c = (hmask & adj).bit_count()
                    terms.append((first + v if c else first + g.n + v, 2 * c + bias - degree))
            yield terms

    return rows, blocks()


def _slack_table(g: Graph, kind: AllianceKind) -> np.ndarray:
    """Biased kind slack of every mask as uint8; index 0 (the empty set,
    never an alliance) is 0.  A block costs one add and one minimum per
    term.  At least _VACUOUS where the scope is empty."""
    rows, blocks = _slack_terms(g, kind)
    width = rows[0].size
    out = np.empty(1 << g.n, dtype=np.uint8)
    for b, terms in enumerate(blocks):
        block = out[b * width : (b + 1) * width]
        block.fill(255)
        for r, shift in terms:
            np.minimum(block, rows[r] + np.uint8(shift), out=block)
    out[0] = 0
    return out


def _alliance_words(g: Graph, k: int, kind: AllianceKind) -> np.ndarray:
    """The kind/k alliances, one bit per mask in the word layout of
    ``_covered_words``, without the byte table: a minimum is at least the
    threshold iff every term is, so each block's words are the AND of its
    terms' packed threshold tests, and each distinct term is packed once.
    Equals ``_slack_table(g, kind) >= _threshold(k)`` bit for bit."""
    # allocated before the low tables, so that the space they free lies
    # above it in the heap, where phi's popcounts can reuse it
    words = np.empty(max(1, (1 << g.n) >> 6), dtype="<u8")
    rows, blocks = _slack_terms(g, kind)
    t = _threshold(k)
    width = max(1, rows[0].size >> 6)
    patterns: dict[tuple[int, int], np.ndarray] = {}
    for b, terms in enumerate(blocks):
        block = words[b * width : (b + 1) * width]
        block.fill(_ALL_BITS)
        for term in terms:
            pattern = patterns.get(term)
            if pattern is None:
                r, shift = term
                # rows[r] + shift >= t, as one comparison on the uint8 row
                packed = np.packbits(rows[r] >= max(t - shift, 0), bitorder="little")
                pattern = patterns[term] = np.zeros(width, dtype="<u8")
                pattern.view(np.uint8)[: packed.size] = packed
            block &= pattern
    words[0] &= ~np.uint64(1)  # the empty mask is never an alliance
    return words


@lru_cache(maxsize=65536)
def _max_slack(g: Graph, xmask: int, kind: AllianceKind) -> float:
    """Largest kind slack over the non-empty subsets of xmask, unbiased:
    ``math.inf`` when one of them has an empty scope (a vacuous offensive
    alliance), ``-math.inf`` when xmask is empty.  The subsets hold a
    kind/k alliance iff this is at least k, for every k at once.

    Greedy peel of s = xmask: each round takes the least constraint of s,
    a member or a boundary vertex, keeps the largest value taken, and
    drops the member, or the boundary vertex's neighbours, from s."""
    adj, degrees = g.adj_bits, g.degrees
    members = kind is not AllianceKind.OFFENSIVE
    boundary = kind is not AllianceKind.DEFENSIVE
    offset = 2 if kind is AllianceKind.POWERFUL else 0
    best = -math.inf
    s = xmask
    while s:
        least, drop = math.inf, 0
        reach = 0
        for v in _bits(s):
            reach |= adj[v]
            if members:
                value = 2 * (adj[v] & s).bit_count() - degrees[v]
                if value < least:
                    least, drop = value, 1 << v
        if boundary:
            for v in _bits(reach & ~s):
                value = 2 * (adj[v] & s).bit_count() - degrees[v] - offset
                if value < least:
                    least, drop = value, adj[v]
        if not drop:
            return math.inf
        best = max(best, least)
        s &= ~drop
    return best


def _low_tables(g: Graph, low: int, boundary: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex tables over the low parts l < 2^low: the table of vertex v
    holds 2*|N(v) & l|, with _VACUOUS set where v is outside the scope.
    Returns (reached, unreached): the tables for blocks whose high part has
    a neighbour of v and for those whose high part has none.  Defensive:
    one table for both, flagged where v is a low vertex absent from l.
    Offensive: flagged where v is in l (reached), and where v is in l or
    has no neighbour in l (unreached)."""
    # adding vertex j < low to l adds 2 to row v when j is a neighbour of
    # v, and toggles the high bit (adds 128 mod 256) when j is v
    cols = np.arange(low, dtype=np.int64)
    adj = np.array(g.adj_bits, dtype=np.int64)
    step = ((adj[:, None] >> cols) & 1).astype(np.uint8) << 1
    is_v = np.arange(g.n, dtype=np.int64)[:, None] == cols
    step[is_v] = _VACUOUS
    table = np.empty((g.n, 1 << low), dtype=np.uint8)
    # a defensive low row starts flagged (v is absent from l = 0), so its
    # toggle clears the flag where v joins l
    table[:, 0] = 0 if boundary else is_v.any(axis=1) * np.uint8(_VACUOUS)
    for j in range(low):
        np.add(table[:, : 1 << j], step[:, j : j + 1], out=table[:, 1 << j : 2 << j])
    if not boundary:
        return table, table
    # no neighbour of v in l: the count is 0, and (count - 1) wraps to 255,
    # whose high bit is the flag; counts 2..126 leave it clear
    unreached = table & ~np.uint8(_VACUOUS)
    unreached -= 1
    unreached &= _VACUOUS
    unreached |= table
    return table, unreached
