"""k-alliance free sets, cover sets, and minimal-alliance enumeration.

A set X is kind/k alliance free when no non-empty subset of X is a kind/k
alliance.  Free sets are downward closed, so the inclusion-minimal
alliances of a graph certify freeness: X is free iff it contains no
minimal alliance.  ``enumerate_minimal_alliances`` computes that family
exactly from the 2^n alliance table: an OR subset-sum (zeta) transform
closes the table upward, marking every mask that contains an alliance,
and a mask is minimal when it is an alliance and no mask one bit smaller
is marked.  Single-set queries use direct subset enumeration instead,
which is cheaper when |X| is well below n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .alliances import AllianceKind, _alliance_ok
from .graph import DEFAULT_EXACT_LIMIT, CapacityError, Graph, VertexSet, _check_universe

#: Largest |X| accepted by the direct 2^|X| free-set check.
DEFAULT_FREE_SET_BITS = 20


def is_free_set(
    g: Graph,
    x: VertexSet,
    k: int,
    kind: AllianceKind | str,
    *,
    max_bits: int = DEFAULT_FREE_SET_BITS,
) -> bool:
    """True iff no non-empty subset of x is a kind/k alliance.

    Enumerates the 2^|x| subsets of x directly (ascending mask order,
    stopping at the first alliance found).
    """
    kind = AllianceKind(kind)
    _check_universe(g, x)
    if len(x) > max_bits:
        raise CapacityError(f"free-set check on {len(x)} vertices exceeds budget {max_bits}")
    return _free_mask(g, x.mask, k, kind)


def _free_mask(g: Graph, xmask: int, k: int, kind: AllianceKind) -> bool:
    sub = (0 - xmask) & xmask
    while sub:
        if _alliance_ok(g, sub, k, kind):
            return False
        sub = (sub - xmask) & xmask
    return True


def is_cover_set(
    g: Graph,
    y: VertexSet,
    k: int,
    kind: AllianceKind | str,
    *,
    max_bits: int = DEFAULT_FREE_SET_BITS,
) -> bool:
    """True iff y meets every kind/k alliance; by duality, iff the
    complement of y is kind/k alliance free."""
    return is_free_set(g, y.complement(), k, kind, max_bits=max_bits)


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
    table, covered = _closed_alliance_table(g, k, kind, limit)
    return _minimal_family(table, covered, g.n, k, kind)


# ---------------------------------------------------------------------------
# Vectorised 2^n sweep

_CHUNK_BITS = 20


def _closed_alliance_table(
    g: Graph, k: int, kind: AllianceKind, limit: int
) -> tuple[np.ndarray, np.ndarray]:
    """(alliance table, its up-closure) over all 2^n masks; the up-closure
    is True exactly where the mask contains a kind/k alliance."""
    if g.n > limit:
        raise CapacityError(f"order {g.n} exceeds enumeration limit {limit}")
    table = _alliance_table(g, k, kind)
    return table, _up_closure(table, g.n)


def _up_closure(table: np.ndarray, n: int) -> np.ndarray:
    """OR subset-sum transform: pass b ORs every mask without bit b into
    the same mask with bit b set."""
    covered = table.copy()
    for b in range(n):
        view = covered.reshape(-1, 2, 1 << b)
        view[:, 1] |= view[:, 0]
    return covered


def _minimal_family(
    table: np.ndarray, covered: np.ndarray, n: int, k: int, kind: AllianceKind
) -> MinimalAllianceFamily:
    """Alliances none of whose one-bit-smaller subsets contains an alliance."""
    minimal = table.copy()
    for b in range(n):
        shape = (-1, 2, 1 << b)
        minimal.reshape(shape)[:, 1] &= ~covered.reshape(shape)[:, 0]
    sets = sorted((VertexSet(int(m), n) for m in np.flatnonzero(minimal)),
                  key=lambda s: (len(s), s.to_sorted_list()))
    return MinimalAllianceFamily(kind, k, tuple(sets))


def _alliance_table(g: Graph, k: int, kind: AllianceKind) -> np.ndarray:
    """Boolean table over all 2^n masks: True where the mask is a kind/k
    alliance.  Index 0 (the empty set) is always False."""
    if kind is AllianceKind.DEFENSIVE:
        out = _condition_table(g, k, boundary=False)
    elif kind is AllianceKind.OFFENSIVE:
        out = _condition_table(g, k, boundary=True)
    else:
        out = _condition_table(g, k, boundary=False)
        out &= _condition_table(g, k + 2, boundary=True)
    out[0] = False
    return out


def _condition_table(g: Graph, k: int, boundary: bool) -> np.ndarray:
    n = g.n
    total = 1 << n
    out = np.empty(total, dtype=bool)
    step = 1 << _CHUNK_BITS
    for start in range(0, total, step):
        m = np.arange(start, min(start + step, total), dtype=np.uint32)
        if boundary:
            nbr = np.zeros(m.shape, dtype=np.uint32)
            for v in range(n):
                in_s = (m >> np.uint32(v)) & np.uint32(1)
                nbr |= in_s * np.uint32(g.adj_bits[v])
            scope = nbr & ~m
        else:
            scope = m
        ok = np.ones(m.shape, dtype=bool)
        for v in range(n):
            relevant = ((scope >> np.uint32(v)) & np.uint32(1)).astype(bool)
            cnt = np.bitwise_count(m & np.uint32(g.adj_bits[v])).astype(np.int16)
            ok &= ~relevant | (2 * cnt >= g.degrees[v] + k)
        out[start : start + m.shape[0]] = ok
    return out
