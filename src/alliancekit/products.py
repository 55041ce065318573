"""Witness-set constructions inside Cartesian products.

``build_witness`` is the one entry.  Each construction takes alliance-free
sets of the factors and produces a set of the product that is provably
alliance free at a shifted k:

  column            S x V2 (or V1 x S): k -> k + max_degree(other) for the
                    defensive and powerful kinds, k - min_degree(other)
                    for the offensive kind
  box               S1 x S2: k1, k2 -> k1 + k2 - 1 (defensive), or
                    max(k1+k2-1, min(k2-d1, k1-d2)) (powerful)
  box_plus_diagonal S1 x S2 plus a matching of leftover vertices, one per
                    factor, paired off in ascending id order, at
                    k1 + k2 - 1; the diagonal vertices are isolated inside
                    the witness
  union             (S1 x V2) u (V1 x S2): offensive only, with
                    k' = max(k1-d2, k2-d1, min(k2+D1, k1+D2))

Preconditions (each s_i actually free at its k_i) are verified eagerly so
the claims are never vacuous, and the resulting set is re-verified with the
free-set check in the product.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alliances import AllianceKind, _as_kind
from .freesets import is_free_set
from .graph import Graph, VertexSet, cartesian_product, factor_box, product_vertex, _check_universe

CONSTRUCTIONS = ("column", "box", "box_plus_diagonal", "union")


@dataclass(frozen=True)
class ProductWitness:
    construction: str
    k_claim: int
    kind: AllianceKind
    result: VertexSet
    verified: bool

    def to_record(self) -> dict:
        return {
            "construction": self.construction,
            "k_claim": self.k_claim,
            "kind": self.kind.value,
            "result": self.result.to_sorted_list(),
            "verified": self.verified,
        }


def column_k(k: int, other: Graph, kind: AllianceKind) -> int:
    """k claimed for the column over a k-free set of one factor; ``other``
    is the factor the column spans."""
    if kind is AllianceKind.OFFENSIVE:
        return k - other.delta_min
    return k + other.delta_max


def box_k(k1: int, k2: int, g1: Graph, g2: Graph, kind: AllianceKind) -> int:
    """k claimed for S1 x S2 (defensive or powerful kind)."""
    if kind is AllianceKind.DEFENSIVE:
        return k1 + k2 - 1
    return max(k1 + k2 - 1, min(k2 - g1.delta_min, k1 - g2.delta_min))


def union_k(k1: int, k2: int, g1: Graph, g2: Graph) -> int:
    """k claimed for (S1 x V2) u (V1 x S2) (offensive kind)."""
    return max(k1 - g2.delta_min, k2 - g1.delta_min, min(k2 + g1.delta_max, k1 + g2.delta_max))


def _require_free(g: Graph, s: VertexSet, k: int, kind: AllianceKind, label: str) -> None:
    if not is_free_set(g, s, k, kind):
        raise ValueError(f"{label} is not {kind.value} {k}-alliance free")


def build_witness(
    construction: str,
    g1: Graph,
    g2: Graph,
    *,
    s: VertexSet | None = None,
    axis: int = 1,
    s1: VertexSet | None = None,
    s2: VertexSet | None = None,
    k: int | None = None,
    k1: int | None = None,
    k2: int | None = None,
    kind: AllianceKind | str | None = None,
) -> ProductWitness:
    """The ``construction`` witness in G1 x G2, the one entry for all four.

    column reads ``s``, ``k`` and ``axis`` (S x V2 on axis 1, V1 x S on
    axis 2); for the powerful kind its claim covers every k from the stored
    lower endpoint up to D1+D2-2, monotonicity in k supplying the rest.
    box, box_plus_diagonal and union read ``s1``, ``s2``, ``k1`` and ``k2``.
    box_plus_diagonal adds t = min(n1-|s1|, n2-|s2|) diagonal vertices,
    isolated inside the witness; k_i >= 1 - min_degree(G_i) keeps them out
    of every alliance.
    union has |s1|*n2 + |s2|*n1 - |s1|*|s2| vertices by inclusion-exclusion.

    A ``kind`` of ``None`` is the construction's own: offensive for union,
    which refuses any other, defensive for the rest; the box constructions
    refuse the offensive kind.  A set or k the construction does not read
    is refused; ``axis`` is read by column alone.
    """
    if construction not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction {construction!r}; choose from {CONSTRUCTIONS}")
    column = construction == "column"
    reads = ("s", "k") if column else ("s1", "s2", "k1", "k2")
    given = {"s": s, "s1": s1, "s2": s2, "k": k, "k1": k1, "k2": k2}
    unread = [name for name, value in given.items() if value is not None and name not in reads]
    if unread:
        raise ValueError(f"{construction} does not read {', '.join(unread)}")
    default = AllianceKind.OFFENSIVE if construction == "union" else AllianceKind.DEFENSIVE
    kind = default if kind is None else _as_kind(kind)
    if construction == "union" and kind is not default:
        raise ValueError("union construction covers the offensive kind only")
    if any(given[name] is None for name in reads):
        raise ValueError(f"{construction} needs {'s and k' if column else ', '.join(reads)}")
    if column:
        if axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        own, other = (g1, g2) if axis == 1 else (g2, g1)
        _require_free(own, s, k, kind, "s")
        k_claim = column_k(k, other, kind)
        result = factor_box(s, g2.vertices) if axis == 1 else factor_box(g1.vertices, s)
    else:
        if construction != "union" and kind is AllianceKind.OFFENSIVE:
            label = "box" if construction == "box" else "diagonal"
            raise ValueError(f"{label} construction covers the defensive and powerful kinds")
        if construction == "box_plus_diagonal":
            _check_universe(g1, s1)
            _check_universe(g2, s2)
            if k1 < 1 - g1.delta_min or k2 < 1 - g2.delta_min:
                raise ValueError("diagonal construction needs k_i >= 1 - min_degree(G_i)")
        _require_free(g1, s1, k1, kind, "s1")
        _require_free(g2, s2, k2, kind, "s2")
        if construction == "union":
            k_claim = union_k(k1, k2, g1, g2)
            mask = factor_box(s1, g2.vertices).mask | factor_box(g1.vertices, s2).mask
        else:
            # under the diagonal's k_i rule, box_k is k1 + k2 - 1 for both kinds
            k_claim = box_k(k1, k2, g1, g2, kind)
            mask = factor_box(s1, s2).mask
            if construction == "box_plus_diagonal":
                # pair off the leftover vertices of the factors in ascending id order
                for a, b in zip(sorted(s1.complement()), sorted(s2.complement())):
                    mask |= 1 << product_vertex(a, b, g2.n)
        result = VertexSet(mask, g1.n * g2.n)
    verified = is_free_set(cartesian_product(g1, g2), result, k_claim, kind)
    return ProductWitness(construction, k_claim, kind, result, verified)
