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
contain an alliance (``_covered_words``).  The passes of bits 0..21 run
one chunk of 2^22 masks at a time, while the chunk's words stay in
cache, and those of the higher bits over the whole arrays; a low bit's
pass pairs masks within one chunk, so the chunks are independent, and
each runs its bits in the same order, which gives the same words as
whole-array passes.  A mask is a minimal alliance
when it contains an alliance and no proper subset of it does; the same
passes, with one OR more per step, mark the masks that strictly contain
an alliance, so the minimal ones come out of one sweep with the covered
ones.  Both refuse up front (``_check_order``): above order 32, and
wherever their estimated peak, measured bytes per mask plus the low
rows, exceeds the memory budget (``graph._refuse_bytes``).  A minimal
family can hold close to 2^n/sqrt(n) members, so its size, known only
after the sweep, is checked the same way before it is decoded.

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
from .graph import CapacityError, Graph, VertexSet, _bits, _check_universe, _refuse_bytes


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


def enumerate_minimal_alliances(g: Graph, k: int, kind: AllianceKind | str) -> MinimalAllianceFamily:
    """Exact inclusion-minimal kind/k alliances via a full 2^n sweep."""
    kind = AllianceKind(kind)
    _, minimal = _covered_words(g, k, kind)
    return _minimal_family(minimal, g.n, k, kind)


# ---------------------------------------------------------------------------
# The slack: as a table, its max-closure, or packed alliance bits for one k
#
# Condition (1) for v against a set S reads 2*d_S(v) - deg(v) >= k.  The
# slack of S is the minimum of that left side over the vertices the kind
# constrains, its scope, so S is a kind/k alliance exactly when
# slack(S) >= k, for every k at once.

#: The scope of each kind: (the members of S, the boundary of S, the amount
#: taken off a boundary vertex's value).  A powerful k-alliance is a
#: defensive k-alliance that is also an offensive (k+2)-alliance.
_SCOPES = {
    AllianceKind.DEFENSIVE: (True, False, 0),
    AllianceKind.OFFENSIVE: (False, True, 0),
    AllianceKind.POWERFUL: (True, True, 2),
}

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
#: Peak bytes per mask of the packed-word paths (``phi``, the minimal
#: family); tracemalloc read 0.41-0.45 for ``phi`` and 0.27-0.45 for the
#: family at orders 24 and 25, with the closure's scratch one chunk long.
_WORD_BYTES = 0.5
#: Peak bytes per mask of the closed byte table (``phi_table``,
#: ``phi_value``); tracemalloc read 2.00-2.28 at orders 24 and 25.
_TABLE_BYTES = 2.5
#: Peak bytes per member of decoding a minimal family; tracemalloc read
#: 169-176 on complete graphs and 247 with one member per word.
_MEMBER_BYTES = 256


def _threshold(k: int) -> int:
    """Closure entries at or above this contain a kind/k alliance.  Every
    non-empty mask has a biased slack >= 1 and every finite one lies below
    _VACUOUS, so clamping keeps any int k exact: very small k covers every
    non-empty mask, very large k covers only the vacuous sets."""
    return min(max(k + _BIAS, 1), _VACUOUS)


def _check_order(g: Graph, bytes_per_mask: float) -> None:
    """Refuse a 2^n table before any of it is allocated: above _MAX_ORDER,
    and where its estimated peak exceeds the memory budget."""
    if g.n > _MAX_ORDER:
        raise CapacityError(
            f"order {g.n} exceeds {_MAX_ORDER}, the largest order a 2^n table "
            f"supports; its byte table would take {1 << g.n} bytes"
        )
    # the low rows of _slack_terms come on top, 2^_LOW_BITS bytes each: n
    # defensive, 2n offensive or 3n powerful, and one scratch row; four per
    # vertex bound them all, and they set the peak below order 22.  The
    # shared terms' base row is the last block of the output, not a new row
    low_tables = 4 * g.n << min(g.n, _LOW_BITS)
    _refuse_bytes(f"an order-{g.n} table", int(bytes_per_mask * (1 << g.n)) + low_tables)


def _closed_slack_table(g: Graph, kind: AllianceKind) -> np.ndarray:
    """Max-closure of the slack table over all 2^n masks: entry m is the
    largest biased k at which m contains a kind/k alliance (0 for the empty
    mask), so m contains a kind/k alliance iff entry >= _threshold(k)."""
    _check_order(g, _TABLE_BYTES)
    closed = _slack_table(g, kind)
    for b in range(g.n):
        for without, with_b in _bit_pairs(closed, b):
            np.maximum(with_b, without, out=with_b)
    return closed


def _bit_pairs(table: np.ndarray, b: int):
    """Matching views (masks without bit b, the same masks with bit b).
    On tables above 2^10 entries, narrow blocks (b <= 3) come as 1-D
    strided columns, which numpy sweeps several times faster than a
    reshaped view with a short inner axis; on smaller ones the fixed cost
    of each call outweighs that, so every bit comes as one pair."""
    view = table.reshape(-1, 2, 1 << b)
    if b > 3 or table.size <= 1 << 10:
        yield view[:, 0], view[:, 1]
    else:
        for j in range(1 << b):
            yield view[:, 0, j], view[:, 1, j]


#: In-word halves for bits 0..5 of a mask: word bit p stands for mask
#: 64*w + p, and _LOW_HALVES[b] has the positions p whose bit b is clear.
_LOW_HALVES = tuple(np.uint64(sum(1 << p for p in range(64) if not p >> b & 1)) for b in range(6))
#: A word with every mask's bit set.
_ALL_BITS = np.uint64(2**64 - 1)


#: The closure runs bits 0.._CHUNK_BITS-1 one chunk of 2^_CHUNK_BITS masks at
#: a time, then the higher bits over the whole arrays.  A chunk is 65,536
#: words, 512 KiB for each of covered, above and the scratch, so its passes
#: stay in a 2 MiB L2, which the whole order-24 arrays, 2 MiB each, overrun.
#: Closing grid 4x6 (order 24) on a 2-core Xeon VM with 2 MiB of L2 per
#: core took 10-11 ms with 2^22-mask chunks, 12-15 with 2^20, 16-20 with
#: 2^18, 12-14 with 2^23 and 16-17 unchunked; grid 4x7 (order 28) took
#: 216, 237, 394 and 469 ms with 2^22, 2^20, 2^18 and none.  Smaller
#: chunks lose to the fixed cost of more numpy calls.
_CHUNK_BITS = 22


def _covered_words(g: Graph, k: int, kind: AllianceKind) -> tuple[np.ndarray, np.ndarray]:
    """(covered, minimal): the masks that contain a kind/k alliance, and the
    inclusion-minimal kind/k alliances, one bit each: bit p of word w stands
    for mask 64*w + p (orders below 6 pad the one word with zeros).

    The alliance bits of ``_alliance_words`` are closed upward by OR passes:
    thresholding commutes with the max-closure, since a mask contains a set
    of slack >= t iff its closed entry is >= t, so covered equals
    ``_closed_slack_table(g, kind) >= _threshold(k)``.  The same
    passes mark the masks that strictly contain an alliance: after the pass
    of bit b, a mask holds an alliance below it that differs from it only
    in bits 0..b, either with bit b (already marked) or without it (covered
    before the pass).  A covered mask with no such mark is minimal.

    Bits 0.._CHUNK_BITS-1 are closed one chunk of 2^_CHUNK_BITS masks at a
    time, bits _CHUNK_BITS and up over the whole arrays.  The words are the
    same as with every pass over the whole arrays: a pass of a bit below
    the chunk size pairs masks within one chunk, so the chunks are
    independent, and each runs those bits in the order of a whole-array
    sweep; orders up to _CHUNK_BITS have one chunk."""
    _check_order(g, _WORD_BYTES)
    covered = _alliance_words(g, k, kind)
    above = np.zeros_like(covered)
    chunk = 1 << (_CHUNK_BITS - 6)
    shifted = np.empty(min(covered.size, chunk), dtype=covered.dtype)
    for start in range(0, covered.size, chunk):
        part = slice(start, start + chunk)
        _close(covered[part], above[part], range(min(g.n, _CHUNK_BITS)), shifted)
    _close(covered, above, range(_CHUNK_BITS, g.n), shifted)
    minimal = np.invert(above, out=above)
    minimal &= covered
    return covered, minimal


def _close(covered: np.ndarray, above: np.ndarray, bits: range, shifted: np.ndarray) -> None:
    """The OR passes of ``_covered_words`` for the given mask bits, in place
    on matching word arrays; bits below 6 use ``shifted``, of the same size."""
    for b in bits:
        if b < 6:
            # bits 0..5 lie inside a word: move the bit-b-clear positions
            # onto the bit-b-set ones, zeros elsewhere
            np.bitwise_and(covered, _LOW_HALVES[b], out=shifted)
            shifted <<= np.uint64(1 << b)
            above |= shifted
            covered |= shifted
        else:
            # from bit 6 on, bit b selects whole words
            pairs = zip(_bit_pairs(covered, b - 6), _bit_pairs(above, b - 6))
            for (without, with_b), (_, above_with_b) in pairs:
                above_with_b |= without
                with_b |= without


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """A bool array packed one bit per entry, 64 to a <u8 word in the layout
    of ``_covered_words``; a short array fills one word, padded with zeros."""
    packed = np.packbits(bits, bitorder="little")
    words = np.zeros(max(1, packed.size >> 3), dtype="<u8")
    words.view(np.uint8)[: packed.size] = packed
    return words


def _minimal_family(
    minimal: np.ndarray, n: int, k: int, kind: AllianceKind
) -> MinimalAllianceFamily:
    """The family whose members are the set bits of ``minimal``, the minimal
    words of ``_covered_words``.  Members come in order of size, then of
    sorted vertex list; for sets of one size, that list order is the
    descending order of the bit-reversed masks.  Refused before decoding
    when the members, with both word arrays still held, would not fit."""
    members = int(np.bitwise_count(minimal).sum())
    _refuse_bytes(
        f"a family of {members} minimal alliances",
        2 * minimal.nbytes + _MEMBER_BYTES * members,
    )
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
) -> tuple[np.ndarray, list[tuple[int, int]], Iterator[list[tuple[int, int]]]]:
    """The kind slack of every mask as a minimum of per-vertex terms, for
    both builders.

    Each mask splits into a high part h, fixed within a block of
    2^_LOW_BITS consecutive masks, and a low part l.  What a vertex
    contributes that depends on l is tabulated once, in one uint8 array of
    n rows per table: member rows, then reached rows, then unreached rows,
    as the kind's scope needs them.  One count doubling builds the reached
    rows (``_reached_rows``); a member row toggles their flag on the low
    vertices, so it is flagged where v is low and absent from l, and an
    unreached row is flagged also where v has no neighbour in l.

    Returns (rows, shared, blocks).  A block's biased slack at l is the
    minimum of rows[r][l] + shift over its terms (r, shift): the shared
    terms, which every block has, and the terms that blocks yields for
    it, block by block.  A vertex gives a member term when it is low or in
    h, and a boundary term when it is outside h, on its reached row when h
    reaches it.  The shift is 2*|N(v) & h| + _BIAS - deg(v), less the
    kind's offset for a boundary term, and no entry reaches 256.  The
    shared terms are those of the low vertices with no high neighbour:
    every other vertex is in h, or has a neighbour in h, in some blocks
    and not in others.  So a one-block build (orders up to _LOW_BITS) has
    only shared terms.
    One allocation holds all rows: as separate 1 MiB tables, an order-16
    offensive or powerful build took about 480 fresh page faults, most of
    an audit round's 22,000; with one array the round takes under 100."""
    members, boundary, offset = _SCOPES[kind]
    n, low = g.n, min(g.n, _LOW_BITS)
    # a defensive build turns its reached rows into member rows in place
    reached = n if members and boundary else 0
    unreached = reached + n
    rows = np.empty(((members + 2 * boundary) * n, 1 << low), dtype=np.uint8)
    table = rows[reached:unreached]
    _reached_rows(g, low, table)
    if boundary:
        # no neighbour of v in l: the count is 0, and (count - 1) wraps to
        # 255, whose high bit is the flag; counts 2..126 leave it clear
        flags = np.bitwise_and(table, ~np.uint8(_VACUOUS), out=rows[unreached:])
        flags -= 1
        flags &= _VACUOUS
        flags |= table
    if members:
        np.bitwise_xor(table[:low], np.uint8(_VACUOUS), out=rows[:low])
        rows[low:n] = table[low:]  # a high vertex is never in l
    shared, vertices = [], []
    for v, adj, degree in zip(range(n), g.adj_bits, g.degrees):
        if v < low and not adj >> low:
            if members:
                shared.append((v, _BIAS - degree))
            if boundary:
                shared.append((unreached + v, _BIAS - degree - offset))
        else:
            vertices.append((v, adj, degree))

    def blocks() -> Iterator[list[tuple[int, int]]]:
        for b in range(1 << (n - low)):
            hmask = b << low
            terms = []
            for v, adj, degree in vertices:
                # a high vertex is in every set of the block or in none
                inside = hmask >> v & 1
                c = (hmask & adj).bit_count()
                shift = 2 * c + _BIAS - degree
                if members and (v < low or inside):
                    terms.append((v, shift))
                if boundary and not inside:
                    terms.append((reached + v if c else unreached + v, shift - offset))
            yield terms

    return rows, shared, blocks()


def _slack_table(g: Graph, kind: AllianceKind) -> np.ndarray:
    """Biased kind slack of every mask as uint8; index 0 (the empty set,
    never an alliance) is 0.  The last block's slot holds the minimum of
    the shared terms until its turn, and each earlier block starts from a
    copy of it; so a one-block build makes no call more than its terms
    need.  A term costs one add into a scratch row and one minimum, with
    no temporary array.  At least _VACUOUS where the scope is empty."""
    rows, shared, blocks = _slack_terms(g, kind)
    width = rows.shape[1]
    out = np.empty(1 << g.n, dtype=np.uint8)
    scratch = np.empty(width, dtype=np.uint8)
    last = out.size - width
    base = out[last:]
    base.fill(255)
    for r, shift in shared:
        np.add(rows[r], np.uint8(shift), out=scratch)
        np.minimum(base, scratch, out=base)
    for start, terms in zip(range(0, out.size, width), blocks):
        block = out[start : start + width]
        if start < last:
            np.copyto(block, base)
        for r, shift in terms:
            np.add(rows[r], np.uint8(shift), out=scratch)
            np.minimum(block, scratch, out=block)
    out[0] = 0
    return out


def _alliance_words(g: Graph, k: int, kind: AllianceKind) -> np.ndarray:
    """The kind/k alliances, one bit per mask in the word layout of
    ``_covered_words``, without the byte table: a minimum is at least the
    threshold iff every term is, so each block's words are the AND of its
    terms' packed threshold tests.  The shared terms are ANDed once, into
    the last block's slot, where each earlier block copies its start from,
    and each other distinct term is packed once.  Equals
    ``_slack_table(g, kind) >= _threshold(k)`` bit for bit."""
    # allocated before the low rows, so that the space they free lies
    # above it in the heap, where the closure's second array can reuse it
    words = np.empty(max(1, (1 << g.n) >> 6), dtype="<u8")
    rows, shared, blocks = _slack_terms(g, kind)
    t = _threshold(k)

    def pack(r: int, shift: int) -> np.ndarray:
        # rows[r] + shift >= t, as one comparison on the uint8 row
        return _pack_words(rows[r] >= max(t - shift, 0))

    width = max(1, rows.shape[1] >> 6)
    last = words.size - width
    base = words[last:]
    base.fill(_ALL_BITS)
    for term in shared:
        base &= pack(*term)
    patterns: dict[tuple[int, int], np.ndarray] = {}
    for start, terms in zip(range(0, words.size, width), blocks):
        block = words[start : start + width]
        if start < last:
            np.copyto(block, base)
        for term in terms:
            pattern = patterns.get(term)
            if pattern is None:
                pattern = patterns[term] = pack(*term)
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
    members, boundary, offset = _SCOPES[kind]
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


def _reached_rows(g: Graph, low: int, out: np.ndarray) -> None:
    """The reached rows over the low parts l < 2^low, written into the n
    rows of ``out``: the row of vertex v holds 2*|N(v) & l|, with _VACUOUS
    set where v is in l, off the boundary.  Adding vertex j < low to l adds
    2 to row v when j is a neighbour of v, and toggles the high bit (adds
    128 mod 256) when j is v, so each low bit doubles the filled columns."""
    cols = np.arange(low, dtype=np.int64)
    adj = np.array(g.adj_bits, dtype=np.int64)
    step = ((adj[:, None] >> cols) & 1).astype(np.uint8) << 1
    step[np.arange(g.n)[:, None] == cols] = _VACUOUS
    out[:, 0] = 0
    for j in range(low):
        np.add(out[:, : 1 << j], step[:, j : j + 1], out=out[:, 1 << j : 2 << j])
