"""k-alliance free sets, cover sets, and minimal-alliance enumeration.

A set X is kind/k alliance free when no non-empty subset of X is a kind/k
alliance.  Free sets are downward closed, so the inclusion-minimal
alliances of a graph certify freeness: X is free iff it contains no
minimal alliance.

Every exact 2^n computation reads one k-independent table per (graph,
kind).  The slack of a set S is the minimum of 2*d_S(v) - deg(v) over
the vertices the kind constrains, so S is a kind/k alliance exactly when
its slack is at least k.  A max subset-sum (zeta) transform then closes
the table upward: each mask holds the largest k at which it contains a
k-alliance, and thresholding at k marks the masks that contain one.  A
mask is a minimal alliance when it is marked and no mask one bit smaller
is.  Single-set queries use direct subset enumeration instead, which is
cheaper when |X| is well below n.
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
    covered = _closed_slack_table(g, kind, limit) >= _threshold(k)
    return _minimal_family(covered, g.n, k, kind)


# ---------------------------------------------------------------------------
# The slack table and its max-closure
#
# Condition (1) for v against a set S reads 2*d_S(v) - deg(v) >= k.  The
# slack of S is the minimum of that left side over the scope (S for the
# defensive kind, the boundary of S for the offensive kind, and
# min(defensive, offensive - 2) for the powerful kind), so S is a kind/k
# alliance exactly when slack(S) >= k, for every k at once.

#: A block of the slack table spans 2^_LOW_BITS masks; of 2^12..2^18,
#: 2^16 built an order-24 table fastest.
_LOW_BITS = 16
#: Added to every finite slack; |slack| <= 31 on uint32 masks, so biased
#: values lie in [33, 95] and never reach the high bit.
_BIAS = 64
#: The high bit.  A vertex outside the scope contributes its entry with
#: this bit set, so it never wins the minimum; a set with an empty scope
#: (a vacuous offensive alliance) keeps a value at or above it.
_VACUOUS = 128


def _threshold(k: int) -> int:
    """Closure entries at or above this contain a kind/k alliance.  Every
    non-empty mask has a biased slack >= 1 and every finite one lies below
    _VACUOUS, so clamping keeps any int k exact: very small k covers every
    non-empty mask, very large k covers only the vacuous sets."""
    return min(max(k + _BIAS, 1), _VACUOUS)


def _closed_slack_table(g: Graph, kind: AllianceKind, limit: int) -> np.ndarray:
    """Max-closure of the slack table over all 2^n masks: entry m is the
    largest biased k at which m contains a kind/k alliance (0 for the empty
    mask), so m contains a kind/k alliance iff entry >= _threshold(k)."""
    if g.n > limit:
        raise CapacityError(f"order {g.n} exceeds enumeration limit {limit}")
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


def _minimal_family(
    covered: np.ndarray, n: int, k: int, kind: AllianceKind
) -> MinimalAllianceFamily:
    """Covered masks none of whose one-bit-smaller subsets is covered: such a
    mask contains an alliance but no proper subset does, so it is one."""
    minimal = covered.copy()
    for b in range(n):
        for (_, with_b), (without, _) in zip(_bit_pairs(minimal, b), _bit_pairs(covered, b)):
            np.greater(with_b, without, out=with_b)  # with_b and not without
    sets = sorted((VertexSet(int(m), n) for m in np.flatnonzero(minimal)),
                  key=lambda s: (len(s), s.to_sorted_list()))
    return MinimalAllianceFamily(kind, k, tuple(sets))


def _slack_table(g: Graph, kind: AllianceKind) -> np.ndarray:
    """Biased kind slack of every mask as uint8; index 0 (the empty set,
    never an alliance) is 0.

    Each mask splits into a high part h, fixed within a block of
    2^_LOW_BITS consecutive masks, and a low part l.  Everything a vertex
    contributes that depends on l is tabulated once (``_low_tables``), so a
    block costs one add and one minimum per vertex."""
    low_bits = min(g.n, _LOW_BITS)
    tables = _low_tables(g, low_bits)
    out = np.empty(1 << g.n, dtype=np.uint8)
    width = 1 << low_bits
    for h in range(0, out.size, width):
        block = out[h : h + width]
        if kind is AllianceKind.POWERFUL:
            off = _block_minimum(g, h, tables, True, np.empty_like(block))
            off -= 2
            np.minimum(_block_minimum(g, h, tables, False, block), off, out=block)
        else:
            _block_minimum(g, h, tables, kind is AllianceKind.OFFENSIVE, block)
    out[0] = 0
    return out


def _low_tables(g: Graph, low_bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-vertex tables over the low parts l < 2^low_bits: row v holds
    2*|N(v) & l|, with _VACUOUS set where v is outside the scope.  Returns
    (absent, present, present_or_unreached), named for where the flag is
    set: v not in l (defensive), v in l (offensive, when the high part
    already has a neighbour of v), and v in l or no neighbour of v in l
    (offensive otherwise)."""
    # adding bit j to l adds 2 to row v when j is a neighbour of v, and
    # toggles the high bit (adds 128 mod 256) when j is v
    step = ((np.array(g.adj_bits)[:, None] >> np.arange(low_bits)) & 1).astype(np.uint8) << 1
    np.fill_diagonal(step, _VACUOUS)
    present = np.zeros((g.n, 1 << low_bits), dtype=np.uint8)
    for j in range(low_bits):
        np.add(present[:, : 1 << j], step[:, j : j + 1], out=present[:, 1 << j : 2 << j])
    # no neighbour of v in l: the count is 0, and (count - 1) wraps to 255,
    # whose high bit is the flag; counts 2..32 leave it clear
    present_or_unreached = present & ~np.uint8(_VACUOUS)
    present_or_unreached -= 1
    present_or_unreached &= _VACUOUS
    present_or_unreached |= present
    return present ^ np.uint8(_VACUOUS), present, present_or_unreached


def _block_minimum(g: Graph, h: int, tables, boundary: bool, out: np.ndarray) -> np.ndarray:
    """Biased min over the scope (the boundary if ``boundary``, else the
    set) of 2*d_S(v) - deg(v) for the masks S = h | l; at least _VACUOUS
    where the scope is empty."""
    absent, present, present_or_unreached = tables
    out.fill(255)
    for v, adj in enumerate(g.adj_bits):
        if boundary:
            if h >> v & 1:
                continue  # v is in every set of the block
            table = present[v] if h & adj else present_or_unreached[v]
        else:
            # for v in h, present carries no flags: v is in every set
            table = present[v] if h >> v & 1 else absent[v]
        np.minimum(out, table + np.uint8(2 * (h & adj).bit_count() + _BIAS - g.degrees[v]), out=out)
    return out
