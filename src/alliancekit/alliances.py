"""The alliance predicate, one condition for all three kinds.

For non-empty S and vertex v, write d_S(v) for the number of neighbours of
v inside S.  The governing condition is

    d_S(v) >= d_notS(v) + k,     equivalently     2*d_S(v) >= deg(v) + k.

S is a defensive k-alliance when every v in S satisfies it, an offensive
k-alliance when every vertex of the boundary of S does (vacuously true for
an empty boundary), and a powerful k-alliance when it is both a defensive
k-alliance and an offensive (k+2)-alliance.
"""

from __future__ import annotations

import warnings
from enum import Enum

from .graph import Graph, VertexSet, _check_universe


class AllianceKind(Enum):
    DEFENSIVE = "defensive"
    OFFENSIVE = "offensive"
    POWERFUL = "powerful"

    # members compare by identity, so they hash by it too: a memo lookup
    # keyed by a kind then runs no Python-level Enum.__hash__
    __hash__ = object.__hash__

    def canonical_k_range(self, g: Graph) -> range:
        """Canonical k values: {-D..D} defensive, {2-D..D} offensive,
        {-D..D-2} powerful, where D is the maximum degree."""
        d = g.delta_max
        if self is AllianceKind.DEFENSIVE:
            return range(-d, d + 1)
        if self is AllianceKind.OFFENSIVE:
            return range(2 - d, d + 1)
        return range(-d, d - 1)


class CanonicalRangeWarning(UserWarning):
    """k lies outside the canonical range; the predicate is still total."""


def _as_kind(kind: AllianceKind | str) -> AllianceKind:
    """The one kind normaliser of every entry that takes a kind: a member
    as is, anything else through ``AllianceKind(kind)``, which raises the
    ValueError of an unknown kind."""
    return kind if type(kind) is AllianceKind else AllianceKind(kind)


def canonical_k_range(g: Graph, kind: AllianceKind | str) -> range:
    return _as_kind(kind).canonical_k_range(g)


# Raw bitmask predicates.  These are the hot path for every enumeration in
# the package; they take adjacency masks and degree tuples directly.

def _holds(adj: tuple[int, ...], degrees: tuple[int, ...], mask: int, vertices: int, k: int) -> bool:
    """Condition (1) at k against the set ``mask``, for every vertex of the
    mask ``vertices``."""
    m = vertices
    while m:
        low = m & -m
        v = low.bit_length() - 1
        if 2 * (adj[v] & mask).bit_count() < degrees[v] + k:
            return False
        m ^= low
    return True


def _alliance_ok(g: Graph, mask: int, k: int, kind: AllianceKind) -> bool:
    """kind/k alliance predicate on a raw non-empty vertex mask: the members
    at k, then the boundary at k (offensive) or k + 2 (powerful)."""
    adj, degrees = g.adj_bits, g.degrees
    if kind is not AllianceKind.OFFENSIVE and not _holds(adj, degrees, mask, mask, k):
        return False
    if kind is AllianceKind.DEFENSIVE:
        return True
    nbr = 0
    m = mask
    while m:
        low = m & -m
        nbr |= adj[low.bit_length() - 1]
        m ^= low
    return _holds(adj, degrees, mask, nbr & ~mask, k + 2 if kind is AllianceKind.POWERFUL else k)


def _validated_mask(g: Graph, s: VertexSet, k: int, kind: AllianceKind) -> int:
    _check_universe(g, s)
    if s.mask == 0:
        raise ValueError("alliances are non-empty; got the empty set")
    if k not in kind.canonical_k_range(g):
        warnings.warn(
            f"k={k} outside the canonical {kind.value} range "
            f"{kind.canonical_k_range(g)} for this graph",
            CanonicalRangeWarning,
            stacklevel=3,
        )
    return s.mask


def is_alliance(g: Graph, s: VertexSet, k: int, kind: AllianceKind | str) -> bool:
    """True iff the non-empty set s is a kind/k alliance of g; a k outside
    the canonical range is evaluated and warned about."""
    kind = _as_kind(kind)
    return _alliance_ok(g, _validated_mask(g, s, k, kind), k, kind)
