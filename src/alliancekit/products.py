"""Witness-set constructions inside Cartesian products.

Each construction takes alliance-free sets of the factors and produces a
set of the product that is provably alliance free at a shifted k:

  column            S x V2 (or V1 x S): k -> k + max_degree(other) for the
                    defensive and powerful kinds, k - min_degree(other)
                    for the offensive kind
  box               S1 x S2: k1, k2 -> k1 + k2 - 1 (defensive), or
                    max(k1+k2-1, min(k2-d1, k1-d2)) (powerful)
  box_plus_diagonal S1 x S2 plus a matching of leftover vertices, one per
                    factor, paired off in ascending id order; the diagonal
                    vertices are isolated inside the witness
  union             (S1 x V2) u (V1 x S2): offensive only, with
                    k' = max(k1-d2, k2-d1, min(k2+D1, k1+D2))

Preconditions (each s_i actually free at its k_i) are verified eagerly so
the claims are never vacuous, and the resulting set is re-verified with the
free-set check in the product.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alliances import AllianceKind
from .freesets import is_free_set
from .graph import Graph, VertexSet, cartesian_product, factor_box, product_vertex, _check_universe

CONSTRUCTIONS = ("column", "box", "box_plus_diagonal", "union")


@dataclass(frozen=True)
class ProductWitness:
    construction: str
    source_sets: tuple[VertexSet, ...]
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


def _finish(
    construction: str,
    sources: tuple[VertexSet, ...],
    k_claim: int,
    kind: AllianceKind,
    g1: Graph,
    g2: Graph,
    result: VertexSet,
) -> ProductWitness:
    verified = is_free_set(cartesian_product(g1, g2), result, k_claim, kind)
    return ProductWitness(construction, sources, k_claim, kind, result, verified)


def column_witness(
    g1: Graph,
    g2: Graph,
    s: VertexSet,
    axis: int,
    k_factor: int,
    kind: AllianceKind | str,
) -> ProductWitness:
    """S x V2 (axis 1) or V1 x S (axis 2) from a free set of one factor.

    For the powerful kind the claim actually covers every k from the
    stored lower endpoint up to D1+D2-2; monotonicity in k supplies the
    rest of the interval.
    """
    kind = AllianceKind(kind)
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    own, other = (g1, g2) if axis == 1 else (g2, g1)
    _require_free(own, s, k_factor, kind, "s")
    k_claim = column_k(k_factor, other, kind)
    if axis == 1:
        result = factor_box(s, g2.vertices)
    else:
        result = factor_box(g1.vertices, s)
    return _finish("column", (s,), k_claim, kind, g1, g2, result)


def box_witness(
    g1: Graph,
    g2: Graph,
    s1: VertexSet,
    s2: VertexSet,
    k1: int,
    k2: int,
    kind: AllianceKind | str,
) -> ProductWitness:
    """S1 x S2 from free sets of both factors (defensive or powerful)."""
    kind = AllianceKind(kind)
    if kind is AllianceKind.OFFENSIVE:
        raise ValueError("box construction covers the defensive and powerful kinds")
    _require_free(g1, s1, k1, kind, "s1")
    _require_free(g2, s2, k2, kind, "s2")
    k_claim = box_k(k1, k2, g1, g2, kind)
    result = factor_box(s1, s2)
    return _finish("box", (s1, s2), k_claim, kind, g1, g2, result)


def box_plus_diagonal_witness(
    g1: Graph,
    g2: Graph,
    s1: VertexSet,
    s2: VertexSet,
    k1: int,
    k2: int,
    kind: AllianceKind | str,
) -> ProductWitness:
    """S1 x S2 extended by t = min(n1-|s1|, n2-|s2|) isolated diagonal
    vertices; needs k_i >= 1 - min_degree(G_i) so the isolated vertices
    cannot sit inside an alliance."""
    kind = AllianceKind(kind)
    if kind is AllianceKind.OFFENSIVE:
        raise ValueError("diagonal construction covers the defensive and powerful kinds")
    _check_universe(g1, s1)
    _check_universe(g2, s2)
    if k1 < 1 - g1.delta_min or k2 < 1 - g2.delta_min:
        raise ValueError("diagonal construction needs k_i >= 1 - min_degree(G_i)")
    _require_free(g1, s1, k1, kind, "s1")
    _require_free(g2, s2, k2, kind, "s2")
    left1 = sorted(s1.complement())
    left2 = sorted(s2.complement())
    t = min(len(left1), len(left2))
    mask = factor_box(s1, s2).mask
    for a, b in zip(left1[:t], left2[:t]):
        mask |= 1 << product_vertex(a, b, g2.n)
    result = VertexSet(mask, g1.n * g2.n)
    k_claim = k1 + k2 - 1
    return _finish("box_plus_diagonal", (s1, s2), k_claim, kind, g1, g2, result)


def union_witness(
    g1: Graph,
    g2: Graph,
    s1: VertexSet,
    s2: VertexSet,
    k1: int,
    k2: int,
) -> ProductWitness:
    """(S1 x V2) u (V1 x S2) from offensive free sets of both factors.

    The size is |s1|*n2 + |s2|*n1 - |s1|*|s2| by inclusion-exclusion.
    """
    kind = AllianceKind.OFFENSIVE
    _require_free(g1, s1, k1, kind, "s1")
    _require_free(g2, s2, k2, kind, "s2")
    mask = factor_box(s1, g2.vertices).mask | factor_box(g1.vertices, s2).mask
    result = VertexSet(mask, g1.n * g2.n)
    k_claim = union_k(k1, k2, g1, g2)
    return _finish("union", (s1, s2), k_claim, kind, g1, g2, result)


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
    """Name-dispatched front end used by the command-line surface.  A
    ``kind`` of ``None`` is the construction's own: defensive for column,
    box and box_plus_diagonal, offensive for union, which refuses any
    other kind."""
    if construction not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction {construction!r}; choose from {CONSTRUCTIONS}")
    own = AllianceKind.OFFENSIVE if construction == "union" else AllianceKind.DEFENSIVE
    kind = own if kind is None else AllianceKind(kind)
    if construction == "union" and kind is not own:
        raise ValueError("union construction covers the offensive kind only")
    if construction == "column":
        if s is None or k is None:
            raise ValueError("column needs s and k")
        return column_witness(g1, g2, s, axis, k, kind)
    if s1 is None or s2 is None or k1 is None or k2 is None:
        raise ValueError(f"{construction} needs s1, s2, k1, k2")
    if construction == "box":
        return box_witness(g1, g2, s1, s2, k1, k2, kind)
    if construction == "box_plus_diagonal":
        return box_plus_diagonal_witness(g1, g2, s1, s2, k1, k2, kind)
    return union_witness(g1, g2, s1, s2, k1, k2)
