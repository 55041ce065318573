"""Exact maximum alliance-free set sizes with witnesses and certificates.

``phi`` reads the covered and minimal words of one k (see ``freesets``):
one bit per mask, set where the mask contains a kind/k alliance, and where
it is one of the inclusion-minimal ones.  Free sets are closed under
taking subsets, so the uncovered masks are exactly the free ones; phi is
the largest popcount among them, and the witness is the lexicographically
smallest free mask of that size.  Both are chosen on the words
themselves: mask 64*w + p has popcount pc(w) + pc(p), and a word holds a
free mask iff it is non-zero, so only the non-zero words whose popcount
comes within 6 of a lower bound on phi have their in-word levels read
(``_select``).
``phi_table`` and ``phi_value`` answer every k, so they read the
k-independent max-closure of the slack table instead, whose entry for a
mask is the largest k at which the mask contains a kind/k alliance;
``phi_table`` packs each k's free masks into words for ``_select``, and
``phi_value`` keeps only the smallest entry of each popcount level.  The
certificate is the inclusion-minimal alliance family: X is free iff its
complement meets every member, so

    phi = n - (minimum transversal of the minimal-alliance family).

``phi_bruteforce`` is an independent oracle that never touches the table:
it walks subsets of V in decreasing cardinality and returns the size of
the first free one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .alliances import AllianceKind, _as_kind
from .freesets import (
    _LOW_HALVES,
    MinimalAllianceFamily,
    _closed_slack_table,
    _covered_words,
    _free_mask,
    _minimal_family,
    _pack_words,
    _threshold,
)
from .graph import CapacityError, Graph, VertexSet

#: phi_bruteforce walks up to 3^n subset pairs; keep it on small graphs.
DEFAULT_ORACLE_LIMIT = 14


@dataclass(frozen=True)
class PhiResult:
    """Maximum free-set size with a witness set and the minimal-alliance
    family proving maximality (every larger set contains a member)."""

    kind: AllianceKind
    k: int
    value: int
    witness: VertexSet
    certificate: MinimalAllianceFamily

    def to_record(self) -> dict:
        return {
            "kind": self.kind.value,
            "k": self.k,
            "value": self.value,
            "witness": self.witness.to_sorted_list(),
            "certificate_size": len(self.certificate),
        }


def phi(g: Graph, k: int, kind: AllianceKind | str) -> PhiResult:
    """Exact phi for the given kind and k, with witness and certificate.

    Ties between maximum witnesses are broken toward the lexicographically
    smallest sorted vertex list.
    """
    kind = _as_kind(kind)
    covered, minimal = _covered_words(g, k, kind)
    value, witness = _select(np.invert(covered, out=covered), g.n)
    family = _minimal_family(minimal, g.n, k, kind)
    return PhiResult(kind, k, value, VertexSet(witness, g.n), family)


def phi_table(g: Graph, kind: AllianceKind | str) -> list[tuple[int, int, VertexSet]]:
    """(k, phi value, witness) for every canonical k, from one closed table;
    each row equals the value and witness of ``phi(g, k, kind)``."""
    kind = _as_kind(kind)
    closed = _closed_slack_table(g, kind)
    free = np.empty(closed.size, dtype=np.bool_)
    rows = []
    for k in kind.canonical_k_range(g):
        value, witness = _select(_pack_words(np.less(closed, _threshold(k), out=free)), g.n)
        rows.append((k, value, VertexSet(witness, g.n)))
    return rows


@lru_cache(maxsize=65536)
def _level_minima(g: Graph, kind: AllianceKind) -> tuple[int, ...]:
    """Smallest closure entry among the masks of each popcount 0..n.  The
    closure grows along inclusion, so the tuple is non-decreasing."""
    closed = _closed_slack_table(g, kind)
    minima = np.full(g.n + 1, 255, dtype=np.uint8)
    np.minimum.at(minima, _popcounts(g.n), closed)
    return tuple(minima.tolist())


def phi_value(g: Graph, k: int, kind: AllianceKind | str) -> int:
    """phi without witness extraction; memoised per (graph, kind), for audit
    sweeps."""
    # the levels whose smallest entry is below the threshold are 0..phi:
    # the minima are non-decreasing and level 0 (the empty mask) holds 0
    return bisect_left(_level_minima(g, _as_kind(kind)), _threshold(k)) - 1


def phi_bruteforce(g: Graph, k: int, kind: AllianceKind | str) -> int:
    """Independent oracle: first free subset in decreasing cardinality.

    Freeness of each candidate X is decided by enumerating the subsets of
    X directly; the minimal-alliance family is never consulted.
    """
    kind = _as_kind(kind)
    if g.n > DEFAULT_ORACLE_LIMIT:
        raise CapacityError(f"order {g.n} exceeds oracle limit {DEFAULT_ORACLE_LIMIT}")
    for size in range(g.n, 0, -1):
        for combo in combinations(range(g.n), size):
            xmask = 0
            for v in combo:
                xmask |= 1 << v
            if _free_mask(g, xmask, k, kind):
                return size
    return 0


# ---------------------------------------------------------------------------
# Selection over the free words


#: Popcount of every mask below 2^16, read-only.
_POPCOUNTS = np.bitwise_count(np.arange(1 << 16, dtype=np.uint16))
_POPCOUNTS.flags.writeable = False


def _popcounts(n: int) -> np.ndarray:
    """Popcount of every mask below 2^n, as uint8, for n up to 32;
    read-only up to order 16.  Not memoised, since an order-24 copy would
    keep 16 MiB alive."""
    if n <= 16:
        return _POPCOUNTS[: 1 << n]
    return np.add.outer(_POPCOUNTS[: 1 << (n - 16)], _POPCOUNTS).ravel()


#: In-word positions by popcount: bit p of _LEVELS[c] is set iff p has c
#: bits, for c = 0..6.
_LEVELS = np.array(
    [sum(1 << p for p in range(64) if p.bit_count() == c) for c in range(7)], dtype=np.uint64
)
#: In-word positions whose mask holds vertex v, for v = 0..5.
_HOLDS = tuple(~half for half in _LOW_HALVES)


def _select(free: np.ndarray, n: int) -> tuple[int, int]:
    """(phi, witness mask) from the free words: bit p of word w is set where
    mask 64*w + p contains no alliance (padding below order 6 is ignored).
    Free sets are downward closed and the empty mask is free, so phi is the
    largest popcount of a free mask, and the witness is the free mask of
    that popcount with the lexicographically smallest sorted vertex list.

    Mask 64*w + p has popcount pc(w) + pc(p), so a word reaches pc(w) plus
    its level, the highest in-word popcount at which it has a free
    position.  Only the words with a free position can reach phi, and a
    word has one iff its bare high part, mask 64*w, is free, so iff it is
    non-zero.  The largest pc(w) among them, plus the best level of the
    words of that pc(w), is a lower bound on phi; a word reaches at most
    pc(w) + 6, so only the words with pc(w) at least that bound less 6 are
    read further.  Those that reach phi hold the candidates at level
    phi - pc(w).  The tie-break keeps, from vertex 0 upward, the candidates
    containing the vertex whenever any do: for v < 6 by an in-word mask,
    and from vertex 6 on by bit v - 6 of the word index.  ``free`` is
    overwritten where the padding lies."""
    if n < 6:
        free[0] &= np.uint64((1 << (1 << n)) - 1)
    words = np.flatnonzero(free)
    sizes = np.bitwise_count(words)
    top = sizes.max()
    bound = int(top) + int(_word_levels(free[words[sizes == top]]).max())
    near = sizes >= bound - 6
    words, sizes = words[near], sizes[near]
    bits = free[words]
    level = _word_levels(bits)
    reached = level + sizes
    value = int(reached.max())
    best = reached == value
    words, bits = words[best], bits[best] & _LEVELS[level[best]]
    for v in range(min(n, 6)):
        has = bits & _HOLDS[v]
        if has.any():
            keep = has != 0
            words, bits = words[keep], has[keep]
    for v in range(6, n):
        has = (words >> (v - 6)) & 1 == 1
        if has.any():
            words, bits = words[has], bits[has]
    return value, int(words[0]) << 6 | int(bits[0]).bit_length() - 1


def _word_levels(bits: np.ndarray) -> np.ndarray:
    """The level of each non-zero word, as int8: its free positions are
    downward closed, so the level counts the levels 1..6 that hold one."""
    level = np.zeros(bits.size, dtype=np.int8)
    for positions in _LEVELS[1:]:
        level += (bits & positions) != 0
    return level
