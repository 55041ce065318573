"""Exact maximum alliance-free set sizes with witnesses and certificates.

``phi`` reads the covered set of one k (see ``freesets``): one bit per
mask, set where the mask contains a kind/k alliance.  Free sets are
closed under taking subsets, so the uncovered masks are exactly the free
ones; phi is the largest popcount among them, and the witness is the
lexicographically smallest free mask of that size.  ``phi_table`` and
``phi_value`` answer every k, so they read the k-independent max-closure
of the slack table instead, whose entry for a mask is the largest k at
which the mask contains a kind/k alliance; ``phi_value`` keeps only the
smallest entry of each popcount level.  The certificate is the
inclusion-minimal alliance family: X is free iff its complement meets
every member, so

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

from .alliances import AllianceKind
from .freesets import (
    MinimalAllianceFamily,
    _closed_slack_table,
    _covered_words,
    _free_mask,
    _minimal_family,
    _threshold,
)
from .graph import DEFAULT_EXACT_LIMIT, CapacityError, Graph, VertexSet

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


def phi(g: Graph, k: int, kind: AllianceKind | str, *, limit: int = DEFAULT_EXACT_LIMIT) -> PhiResult:
    """Exact phi for the given kind and k, with witness and certificate.

    Ties between maximum witnesses are broken toward the lexicographically
    smallest sorted vertex list.
    """
    kind = AllianceKind(kind)
    covered = _covered_words(g, k, kind, limit)
    family = _minimal_family(covered, g.n, k, kind)
    value, witness = _select(_free_sizes(covered, g.n), g.n)
    return PhiResult(kind, k, value, VertexSet(witness, g.n), family)


def phi_table(
    g: Graph, kind: AllianceKind | str, *, limit: int = DEFAULT_EXACT_LIMIT
) -> list[tuple[int, int, VertexSet]]:
    """(k, phi value, witness) for every canonical k, from one closed table;
    each row equals the value and witness of ``phi(g, k, kind)``."""
    kind = AllianceKind(kind)
    closed = _closed_slack_table(g, kind, limit)
    sizes = _popcounts(g.n)
    rows = []
    for k in kind.canonical_k_range(g):
        value, witness = _select(np.where(closed >= _threshold(k), np.uint8(0), sizes), g.n)
        rows.append((k, value, VertexSet(witness, g.n)))
    return rows


@lru_cache(maxsize=65536)
def _level_minima(g: Graph, kind: AllianceKind, limit: int) -> tuple[int, ...]:
    """Smallest closure entry among the masks of each popcount 0..n.  The
    closure grows along inclusion, so the tuple is non-decreasing."""
    closed = _closed_slack_table(g, kind, limit)
    minima = np.full(g.n + 1, 255, dtype=np.uint8)
    np.minimum.at(minima, _popcounts(g.n), closed)
    return tuple(minima.tolist())


def _value(g: Graph, k: int, kind: AllianceKind, limit: int) -> int:
    # the levels whose smallest entry is below the threshold are 0..phi:
    # the minima are non-decreasing and level 0 (the empty mask) holds 0
    return bisect_left(_level_minima(g, kind, limit), _threshold(k)) - 1


def phi_value(g: Graph, k: int, kind: AllianceKind | str) -> int:
    """phi without witness extraction; memoised per (graph, kind), for audit
    sweeps."""
    return _value(g, k, AllianceKind(kind), DEFAULT_EXACT_LIMIT)


def phi_powerful_lower(g: Graph, k: int, *, limit: int = DEFAULT_EXACT_LIMIT) -> int:
    """max(phi_defensive(k), phi_offensive(k+2)): every defensive-k-free or
    offensive-(k+2)-free set is powerful-k free, so phi_powerful dominates."""
    d = _value(g, k, AllianceKind.DEFENSIVE, limit)
    o = _value(g, k + 2, AllianceKind.OFFENSIVE, limit)
    return max(d, o)


def phi_bruteforce(
    g: Graph, k: int, kind: AllianceKind | str, *, limit: int = DEFAULT_ORACLE_LIMIT
) -> int:
    """Independent oracle: first free subset in decreasing cardinality.

    Freeness of each candidate X is decided by enumerating the subsets of
    X directly; the minimal-alliance family is never consulted.
    """
    kind = AllianceKind(kind)
    if g.n > limit:
        raise CapacityError(f"order {g.n} exceeds oracle limit {limit}")
    for size in range(g.n, 0, -1):
        for combo in combinations(range(g.n), size):
            xmask = 0
            for v in combo:
                xmask |= 1 << v
            if _free_mask(g, xmask, k, kind):
                return size
    return 0


# ---------------------------------------------------------------------------
# Selection over the free masks


def _popcounts(n: int) -> np.ndarray:
    """Popcount of every mask below 2^n, as uint8."""
    sizes = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        np.add(sizes[: 1 << b], 1, out=sizes[1 << b : 2 << b])
    return sizes


#: Masks unpacked at a time by ``_free_sizes``.
_UNPACK_BLOCK = 1 << 16


def _free_sizes(covered: np.ndarray, n: int) -> np.ndarray:
    """Popcounts zeroed where the mask is covered, from the covered words.
    Unpacking one block at a time keeps a single byte per mask alive."""
    sizes = _popcounts(n)
    free = ~covered.view(np.uint8)
    for start in range(0, sizes.size, _UNPACK_BLOCK):
        block = sizes[start : start + _UNPACK_BLOCK]
        free_bits = free[start >> 3 : (start + _UNPACK_BLOCK) >> 3]
        block *= np.unpackbits(free_bits, count=block.size, bitorder="little")
    return sizes


def _select(free_sizes: np.ndarray, n: int) -> tuple[int, int]:
    """(phi, witness mask) from popcounts zeroed where the mask contains an
    alliance; the empty mask never does, so the maximum is phi.  The
    comparison with phi overwrites free_sizes, which no caller reads again."""
    value = int(free_sizes.max())
    if not value:
        return 0, 0
    at_value = np.equal(free_sizes, value, out=free_sizes.view(np.bool_))
    return value, _lex_smallest(np.flatnonzero(at_value), n)


def _lex_smallest(masks: np.ndarray, n: int) -> int:
    """The mask, among equal-size candidates, with the lexicographically
    smallest sorted vertex list: from vertex 0 upward, keep the candidates
    containing the vertex whenever any do."""
    for v in range(n):
        has = masks[(masks >> v) & 1 == 1]
        if has.size:
            masks = has
    return int(masks[0])
