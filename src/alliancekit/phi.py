"""Exact maximum alliance-free set sizes with witnesses and certificates.

Free sets are closed under taking subsets, so once the 2^n alliance table
is closed upward (True where a mask contains an alliance), phi is the
largest popcount among the uncovered masks, and the witness is the
lexicographically smallest uncovered mask of that size.  The certificate
is the inclusion-minimal alliance family: X is free iff its complement
meets every member, so

    phi = n - (minimum transversal of the minimal-alliance family).

``phi_bruteforce`` is an independent oracle that never touches the table:
it walks subsets of V in decreasing cardinality and returns the size of
the first free one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .alliances import AllianceKind
from .freesets import MinimalAllianceFamily, _closed_alliance_table, _free_mask, _minimal_family
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
    table, covered = _closed_alliance_table(g, k, kind, limit)
    family = _minimal_family(table, covered, g.n, k, kind)
    sizes = _free_sizes(covered, g.n)
    value = int(sizes.max())
    witness = _lex_smallest(np.flatnonzero(sizes == value), g.n) if value else 0
    return PhiResult(kind, k, value, VertexSet(witness, g.n), family)


@lru_cache(maxsize=65536)
def _phi_value_cached(g: Graph, k: int, kind: AllianceKind, limit: int) -> int:
    _, covered = _closed_alliance_table(g, k, kind, limit)
    return int(_free_sizes(covered, g.n).max())


def phi_value(g: Graph, k: int, kind: AllianceKind | str) -> int:
    """phi without witness extraction; memoised, for audit sweeps."""
    return _phi_value_cached(g, k, AllianceKind(kind), DEFAULT_EXACT_LIMIT)


def phi_powerful_lower(g: Graph, k: int, *, limit: int = DEFAULT_EXACT_LIMIT) -> int:
    """max(phi_defensive(k), phi_offensive(k+2)): every defensive-k-free or
    offensive-(k+2)-free set is powerful-k free, so phi_powerful dominates."""
    d = _phi_value_cached(g, k, AllianceKind.DEFENSIVE, limit)
    o = _phi_value_cached(g, k + 2, AllianceKind.OFFENSIVE, limit)
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
# Selection over the up-closed table


def _free_sizes(covered: np.ndarray, n: int) -> np.ndarray:
    """Popcount of every mask, zeroed where the mask contains an alliance.
    The empty mask is never covered, so the maximum is phi."""
    sizes = np.zeros(covered.size, dtype=np.uint8)
    for b in range(n):
        sizes.reshape(-1, 2, 1 << b)[:, 1] += 1
    sizes[covered] = 0
    return sizes


def _lex_smallest(masks: np.ndarray, n: int) -> int:
    """The mask, among equal-size candidates, with the lexicographically
    smallest sorted vertex list: from vertex 0 upward, keep the candidates
    containing the vertex whenever any do."""
    for v in range(n):
        has = masks[(masks >> v) & 1 == 1]
        if has.size:
            masks = has
    return int(masks[0])
