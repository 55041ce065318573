"""Randomized and scripted verification of the product/factor claims.

Every numbered claim the package relies on is one row of ``_AUDITS``:

* ``draw(config, rng)`` yields the claim's instances ``(g1, g2, sets)``,
  seeded random factor graphs and scripted family instances;
* ``cases(g1, g2)`` lists the verdict's keyword arguments (the k values)
  on one instance;
* ``verdict(g1, g2, sets, **case)`` returns ``None`` when the claim's
  hypothesis or k-range does not hold there, and ``(ok, observed,
  expected)`` otherwise;
* ``check`` names the claim in a failure record.

Only a draw reads the random stream, so a verdict runs on any chosen
instance.  Claims of one shape come from one factory (``_column_bound``
and the like), which binds the kind and the k-ranges once for both the
cases and the verdict.

``audit`` runs the one loop and builds the report.  ``_check`` runs the
verdict at each case of one instance and changes nothing: each
non-``None`` outcome counts as a check, and an instance without checks is
skipped and counted.  All claims are proved facts, so a false verdict is
evidence of an implementation bug: it is reported with a greedily minimized
counterexample, found by re-running the same verdict at the same case on
vertex-deleted instances (``None`` there counts as not failing, and an
error there propagates, as it does from the first run); the record's ``k``
is that case.  A set's name says where it lives: ``s`` on G1 x G2, ``s1``
on G1 and ``s2`` on G2.  Deleting vertex v of G1 drops row v, and deleting
v of G2 drops column v, from every set that lives on that factor.

A verdict reads phi only through ``_phi``, on a canonical copy of its
graph, or of its product's factors, so isomorphic instances share one
memoised table.

An audit that never saw a hypothesis-satisfying trial is flagged
inconclusive rather than passed.  Reports are deterministic functions of
the configuration, apart from their cost fields, which compare False.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache, partial
from itertools import permutations
from typing import Callable, Iterable, Iterator, NamedTuple

from .alliances import AllianceKind, _alliance_ok
from .freesets import is_free_set
from .graph import (
    Graph,
    VertexSet,
    _gnp,
    cartesian_product,
    cycle_graph,
    complete_graph,
    factor_box,
    grid_graph,
    independence_number,
    path_graph,
    product_vertex,
    projections,
    random_tree,
    star_graph,
    vizing_alpha_bound,
    wheel_graph,
)
from .phi import _level_minima, phi_value
from .products import box_k, column_k, union_k

DEF = AllianceKind.DEFENSIVE
OFF = AllianceKind.OFFENSIVE
POW = AllianceKind.POWERFUL

_EDGE_PROBS = (0.3, 0.5, 0.7)

#: Cap on the order of the products an audit draws.
DEFAULT_EXACT_LIMIT = 24


@dataclass(frozen=True)
class AuditConfig:
    """Knobs for the audit harness.

    A config is valid exactly when every row can draw under it.  Eight
    claims need factors of maximum degree >= 2 or degree sum >= 3, so of
    order >= 3: ``max_factor_order`` is at least 3 and
    ``max_product_order`` at least 9.  Products may not pass the audit's
    product-order cap, ``DEFAULT_EXACT_LIMIT``, so ``max_product_order``
    stays at or below it.  A factor of the largest order must fit beside an
    order-2 factor, so ``2 * max_factor_order`` stays at or below
    ``max_product_order``.  Each row's cases sweep k over the canonical
    range intersected with the claim's stated range; the sweep is not
    configurable.
    """

    seed: int = 987620
    max_factor_order: int = 4
    max_product_order: int = 16
    trials_per_theorem: int = 50

    def __post_init__(self):
        if self.max_factor_order < 3 or self.max_product_order < 9:
            raise ValueError(
                "some claims draw factors of order >= 3: an audit needs max factor order >= 3"
                f" and max product order >= 9, got {self.max_factor_order}"
                f" and {self.max_product_order}"
            )
        if 2 * self.max_factor_order > self.max_product_order:
            raise ValueError(
                f"a factor of order {self.max_factor_order} does not fit beside an order-2"
                f" factor under max product order {self.max_product_order}"
            )
        if self.max_product_order > DEFAULT_EXACT_LIMIT:
            raise ValueError("max_product_order exceeds the audit's product-order cap")
        if self.trials_per_theorem < 0:
            raise ValueError("trials_per_theorem must be non-negative")


@dataclass(frozen=True)
class AuditReport:
    theorem_id: str
    trials: int
    failures: tuple[dict, ...]
    skipped: int
    checks: int
    config: AuditConfig
    # what the audit cost: wall time and the phi table memo's hits and
    # misses.  They vary from run to run, so they compare False and stay
    # out of the record and the lines.
    elapsed_s: float = field(compare=False)
    cache_hits: int = field(compare=False)
    cache_misses: int = field(compare=False)

    @property
    def passes(self) -> int:
        # one merged failure per failing trial
        return self.trials - len(self.failures)

    @property
    def inconclusive(self) -> bool:
        return self.trials == 0

    @property
    def ok(self) -> bool:
        return not self.failures and not self.inconclusive

    def to_record(self) -> dict:
        full = asdict(self)
        record = {f.name: full[f.name] for f in fields(self) if f.compare}
        record["failures"] = list(record["failures"])  # a JSON array, as in the goldens
        return {**record, "passes": self.passes, "inconclusive": self.inconclusive}

    def to_lines(self) -> list[str]:
        c = self.config
        head = (
            f"theorem={self.theorem_id} trials={self.trials} passes={self.passes}"
            f" failures={len(self.failures)} skipped={self.skipped} checks={self.checks}"
            f" inconclusive={str(self.inconclusive).lower()}"
            f" seed={c.seed} factor<={c.max_factor_order} product<={c.max_product_order}"
            f" trials_per_theorem={c.trials_per_theorem}"
        )
        lines = [head]
        for f in self.failures:
            lines.append("  counterexample " + json.dumps(f, sort_keys=True))
        return lines


# ---------------------------------------------------------------------------
# Instance drawing

#: A drawn instance: (g1, g2, sets); g2 is None for a claim on one graph.
_Instance = tuple[Graph, Graph | None, dict[str, VertexSet]]


def _draw_graph(
    rng: random.Random,
    max_order: int,
    accept: Callable[[Graph], bool] | None = None,
) -> Graph:
    for _ in range(500):
        n = rng.randint(2, max_order)
        g = _gnp(rng, n, rng.choice(_EDGE_PROBS))
        if accept is None or accept(g):
            return g
    raise RuntimeError("failed to draw an acceptable random graph")


def _draw_pair(
    rng: random.Random,
    config: AuditConfig,
    accept: Callable[[Graph], bool] | None = None,
) -> tuple[Graph, Graph]:
    for _ in range(500):
        g1 = _draw_graph(rng, config.max_factor_order, accept)
        g2 = _draw_graph(rng, config.max_factor_order, accept)
        if g1.n * g2.n <= config.max_product_order:
            return g1, g2
    raise RuntimeError("failed to draw an acceptable factor pair")


def _draw_subset(rng: random.Random, n: int) -> VertexSet:
    density = rng.choice((0.25, 0.5, 0.75))
    mask = 0
    for v in range(n):
        if rng.random() < density:
            mask |= 1 << v
    return VertexSet(mask, n)


def _draw_small_subset(rng: random.Random, n: int) -> VertexSet:
    if rng.random() < 0.5:
        return _draw_subset(rng, n)
    size = rng.randint(0, max(1, n // 2))
    return VertexSet.of(rng.sample(range(n), size), n)


def _draw_nonempty_subset(rng: random.Random, n: int) -> VertexSet:
    s = _draw_subset(rng, n)
    return s if s.mask else VertexSet(1 << rng.randrange(n), n)


def _draw_product_subset(rng: random.Random, g1: Graph, g2: Graph) -> VertexSet:
    """Half the time an unconstrained subset, half the time a subset of a
    small box A x B: its projections stay inside A and B, which keeps the
    free-projection hypotheses reachable."""
    if rng.random() < 0.5:
        return _draw_subset(rng, g1.n * g2.n)
    a = rng.sample(range(g1.n), rng.randint(1, max(1, g1.n // 2)))
    b = rng.sample(range(g2.n), rng.randint(1, max(1, g2.n // 2)))
    box = factor_box(VertexSet.of(a, g1.n), VertexSet.of(b, g2.n))
    mask = 0
    for v in box:
        if rng.random() < 0.7:
            mask |= 1 << v
    return VertexSet(mask, g1.n * g2.n)


def _has_edge(g: Graph) -> bool:
    return g.delta_max >= 1


def _max_deg_2(g: Graph) -> bool:
    # transfer-claim hypotheses need a k-range wide enough for free sets
    return g.delta_max >= 2


def _degree_sum_3(g: Graph) -> bool:
    return g.delta_min + g.delta_max >= 3


# scripted pairs come first, for the claims that draw them
_SCRIPTED_PAIRS = (
    (star_graph(3), path_graph(3)),
    (star_graph(3), path_graph(4)),
    (cycle_graph(4), path_graph(3)),
    (cycle_graph(3), path_graph(3)),
)


def _draw_pairs(
    config: AuditConfig,
    rng: random.Random,
    accept: Callable[[Graph], bool] | None = None,
    scripted: tuple[tuple[Graph, Graph], ...] = (),
    s1: Callable[[random.Random, int], VertexSet] | None = None,
    s2: Callable[[random.Random, int], VertexSet] | None = None,
) -> Iterator[_Instance]:
    """The ``scripted`` pairs that fit the config and pass ``accept``, then
    random pairs up to the trial count.  Each pair gets the set s1 on G1
    drawn by ``s1`` and the set s2 on G2 drawn by ``s2``, where given."""
    fits = [
        (a, b)
        for a, b in scripted
        if max(a.n, b.n) <= config.max_factor_order
        and a.n * b.n <= config.max_product_order
        and (accept is None or (accept(a) and accept(b)))
    ]
    for i in range(config.trials_per_theorem):
        g1, g2 = fits[i] if i < len(fits) else _draw_pair(rng, config, accept)
        draws = (("s1", s1, g1), ("s2", s2, g2))
        yield g1, g2, {name: draw(rng, g.n) for name, draw, g in draws if draw is not None}


def _draw_product_sets(config: AuditConfig, rng: random.Random) -> Iterator[_Instance]:
    """Random pairs of maximum degree >= 2, each with a set s on G1 x G2."""
    for _ in range(config.trials_per_theorem):
        g1, g2 = _draw_pair(rng, config, _max_deg_2)
        yield g1, g2, {"s": _draw_product_subset(rng, g1, g2)}


_REGULAR_POOL = (
    complete_graph(2), cycle_graph(3), complete_graph(3), cycle_graph(4), complete_graph(4)
)


def _draw_regular_columns(config: AuditConfig, rng: random.Random) -> Iterator[_Instance]:
    """A regular G2 from the pool, a random G1 and a set s1 on G1."""
    for _ in range(config.trials_per_theorem):
        g2 = rng.choice([g for g in _REGULAR_POOL if g.n <= config.max_factor_order])
        g1 = _draw_graph(rng, min(config.max_factor_order, config.max_product_order // g2.n))
        yield g1, g2, {"s1": _draw_subset(rng, g1.n)}


def _draw_phi_p_graphs(config: AuditConfig, rng: random.Random) -> Iterator[_Instance]:
    """Random graphs of order <= 9 with an edge, on their own."""
    for _ in range(config.trials_per_theorem):
        yield _draw_graph(rng, 9, _has_edge), None, {}


#: The planar instances of prop_remarktree, with the case each one tests;
#: every other instance is a tree.  The wheels and grids are planar as
#: built, the grids triangle free, and deleting a vertex keeps both.
_PLANAR = {
    wheel_graph(7): "planar6",
    wheel_graph(8): "planar6",
    grid_graph(3, 3): "planar4_trianglefree",
    grid_graph(3, 4): "planar4_trianglefree",
}


def _draw_remarktree(config: AuditConfig, rng: random.Random) -> Iterator[_Instance]:
    """Paths and stars of order 3 to 8, the planar instances, then random
    trees up to the trial count."""
    scripted = [g for n in range(3, 9) for g in (path_graph(n), star_graph(n - 1))]
    scripted = (scripted + list(_PLANAR))[: config.trials_per_theorem]
    for g in scripted:
        yield g, None, {}
    for _ in range(config.trials_per_theorem - len(scripted)):
        yield random_tree(rng.randint(3, 8), seed=rng.randrange(2**30)), None, {}


@lru_cache(maxsize=2048)
def _product(g1: Graph, g2: Graph) -> Graph:
    return cartesian_product(g1, g2)


# a verdict runs once per case on one drawn set, so the sets it derives
# from that set are kept beside the product; an error is never kept, so a
# universe mismatch raises at every call
_projections = lru_cache(maxsize=2048)(projections)
_factor_box = lru_cache(maxsize=2048)(factor_box)

#: Graphs up to this order are read through their canonical relabelling.
#: It covers every factor under the default config; the n! relabellings
#: of a larger graph cost more than the tables they would share.
_CANONICAL_ORDER = 4


def _canonical(g: Graph) -> Graph:
    """A canonical copy of g: isomorphic graphs up to order
    ``_CANONICAL_ORDER`` get equal copies, and a larger g is its own."""
    return g if g.n > _CANONICAL_ORDER else _smallest_relabelling(g)


@lru_cache(maxsize=2048)
def _smallest_relabelling(g: Graph) -> Graph:
    """The relabelling of g with the lexicographically smallest
    ``adj_bits``, by brute force over all n! relabellings."""
    edges = list(g.edges())

    def relabelled(p: tuple[int, ...]) -> tuple[int, ...]:
        adj = [0] * g.n
        for u, v in edges:
            adj[p[u]] |= 1 << p[v]
            adj[p[v]] |= 1 << p[u]
        return tuple(adj)

    best = min(permutations(range(g.n)), key=relabelled)
    return Graph(g.n, [(best[u], best[v]) for u, v in edges])


def _phi(k: int, kind: AllianceKind, a: Graph, b: Graph | None = None) -> int:
    """``phi_value`` of a, or of a x b, read on a canonical copy.  phi is an
    isomorphism invariant and a x b is isomorphic to b x a, so the value is
    exact, and isomorphic instances share one memoised table."""
    a = _canonical(a)
    if b is None:
        return phi_value(a, k, kind)
    b = _canonical(b)
    if (b.n, b.adj_bits) < (a.n, a.adj_bits):
        a, b = b, a
    return phi_value(_product(a, b), k, kind)


# ---------------------------------------------------------------------------
# Counterexample minimization

_Outcome = tuple[bool, object, object] | None
#: A verdict with its case bound, as the shrinker runs it.
_Verdict = Callable[[Graph, Graph | None, dict], _Outcome]


def _graph_record(g: Graph | None) -> dict | None:
    if g is None:
        return None
    return {"n": g.n, "edges": [list(e) for e in g.edges()]}


def _delete_vertex(g: Graph, v: int) -> Graph:
    """g without vertex v: ids above v move down by one."""
    return Graph(g.n - 1, [(a - (a > v), b - (b > v)) for a, b in g.edges() if v not in (a, b)])


#: Where a verdict's set lives, by its name: ``s`` on G1 x G2, ``s1`` on G1
#: and ``s2`` on G2.  A factor set is read as a set on a product whose other
#: factor has one vertex.
_SET_FACTORS = {"s": (True, True), "s1": (True, False), "s2": (False, True)}


def _remap_sets(
    sets: dict[str, VertexSet], axis: int, v: int, n1: int, n2: int
) -> dict[str, VertexSet]:
    """The sets once vertex v of factor ``axis`` (0 for G1, 1 for G2) is
    deleted.  A set's cells are the product vertices of its rows and
    columns; every set that lives on that factor loses row v (G1) or column
    v (G2), and the cells left keep their order."""
    out = {}
    for name, vs in sets.items():
        lives = _SET_FACTORS[name]
        rows, cols = range(n1 if lives[0] else 1), range(n2 if lives[1] else 1)
        cells = [product_vertex(a, b, len(cols)) for a in rows for b in cols
                 if not (lives[axis] and (a, b)[axis] == v)]
        out[name] = VertexSet.of([i for i, p in enumerate(cells) if p in vs], len(cells))
    return out


def _shrink(
    verdict: _Verdict,
    g1: Graph,
    g2: Graph | None,
    sets: dict[str, VertexSet],
) -> tuple[Graph, Graph | None, dict[str, VertexSet]]:
    """Greedy vertex deletion preserving failure of the verdict."""

    def fails(a: Graph, b: Graph | None, ss: dict[str, VertexSet]) -> bool:
        outcome = verdict(a, b, ss)
        return outcome is not None and not outcome[0]

    def deletions():
        # one vertex deleted: vertices of g1 first, then of g2
        n2 = g2.n if g2 is not None else 1
        for axis, g in enumerate((g1, g2)):
            if g is None or g.n <= 1:
                continue
            for v in range(g.n):
                shrunk = _delete_vertex(g, v)
                new_sets = _remap_sets(sets, axis, v, g1.n, n2)
                yield (shrunk, g2, new_sets) if axis == 0 else (g1, shrunk, new_sets)

    while True:
        for a, b, ss in deletions():
            if fails(a, b, ss):
                g1, g2, sets = a, b, ss
                break
        else:
            return g1, g2, sets


def _failure(
    verdict: _Verdict,
    g1: Graph,
    g2: Graph | None,
    sets: dict[str, VertexSet],
    ks: dict[str, int],
    check: str,
) -> dict:
    g1m, g2m, setsm = _shrink(verdict, g1, g2, sets)
    ok, observed, expected = verdict(g1m, g2m, setsm)
    return {
        "check": check,
        "g1": _graph_record(g1m),
        "g2": _graph_record(g2m),
        "sets": {name: vs.to_sorted_list() for name, vs in setsm.items()},
        "k": ks,
        "observed": observed,
        "expected": expected,
        "still_fails": not ok,
    }


def _check(
    g1: Graph,
    g2: Graph | None,
    sets: dict[str, VertexSet],
    verdict: Callable[..., _Outcome],
    cases: Iterable[dict],
    check: str,
) -> tuple[int, dict | None]:
    """Run the verdict on one drawn instance at every case ``ks``, its
    keyword arguments: the number of outcomes that are not ``None`` (the
    checks), and the first failure's payload, merged with the count of the
    others, or ``None``.  Only the first failing case is shrunk."""
    checks = 0
    failing = []
    for ks in cases:
        outcome = verdict(g1, g2, sets, **ks)
        if outcome is None:
            continue
        checks += 1
        if not outcome[0]:
            failing.append(ks)
    if not failing:
        return checks, None
    first = failing[0]
    failure = _failure(partial(verdict, **first), g1, g2, sets, first, check)
    if len(failing) > 1:
        failure["additional_failing_checks"] = len(failing) - 1
    return checks, failure


# ---------------------------------------------------------------------------
# The claims


class _Audit(NamedTuple):
    """One claim: its draw, its cases, its verdict and its check name."""

    draw: Callable[[AuditConfig, random.Random], Iterator[_Instance]]
    cases: Callable[[Graph, Graph | None], list[dict]]
    verdict: Callable[..., _Outcome]
    check: str


def _each_k(k_range: Callable[[Graph, Graph | None], range]) -> Callable[..., list[dict]]:
    """The cases of a verdict whose one argument is k: k over k_range(g1, g2)."""
    return lambda g1, g2: [{"k": k} for k in k_range(g1, g2)]


def _each_k_pair(kind: AllianceKind) -> Callable[..., list[dict]]:
    """The cases (k1, k2) over the canonical ranges of G1 and G2."""
    ranges = kind.canonical_k_range
    return lambda g1, g2: [{"k1": k1, "k2": k2} for k1 in ranges(g1) for k2 in ranges(g2)]


def _remark1_range(a: Graph, b: Graph) -> range:
    return range(1 - a.delta_min - b.delta_min, a.delta_max + b.delta_max + 1)


def _remark1(a, b, sets, k):
    """phi_def(k) over the product is at least the independence-based bound
    a1*a2 + min(n1-a1, n2-a2) for 1-d1-d2 <= k <= D1+D2."""
    if k not in _remark1_range(a, b):
        return None
    bound = vizing_alpha_bound(independence_number(a), independence_number(b), a, b)
    val = _phi(k, DEF, a, b)
    return val >= bound, val, bound


def _projection_transfer(kind: AllianceKind, check: str) -> _Audit:
    """The one-projection transfer claims: if the i-th projection of S is
    free at k_i in its factor, S is free at column_k(k_i, other factor) in
    the product."""

    def cases(g1, g2):
        return [
            {"k_i": k_i, "axis": axis}
            for axis, own in ((1, g1), (2, g2))
            for k_i in kind.canonical_k_range(own)
        ]

    def verdict(a, b, sets, axis, k_i):
        own, other = (a, b) if axis == 1 else (b, a)
        if not is_free_set(own, _projections(sets["s"], a.n, b.n)[axis - 1], k_i, kind):
            return None
        got = is_free_set(_product(a, b), sets["s"], column_k(k_i, other, kind), kind)
        return got, got, True

    return _Audit(_draw_product_sets, cases, verdict, check)


def _both_projections(kind: AllianceKind, check: str) -> _Audit:
    """The two-projection transfer claims: if both projections of S are
    free, S is free at box_k in the product."""

    def verdict(a, b, sets, k1, k2):
        q1, q2 = _projections(sets["s"], a.n, b.n)
        if not (is_free_set(a, q1, k1, kind) and is_free_set(b, q2, k2, kind)):
            return None
        kc = box_k(k1, k2, a, b, kind)
        if kind is POW and kc > a.delta_max + b.delta_max - 2:
            return None  # stated range is empty
        got = is_free_set(_product(a, b), sets["s"], kc, kind)
        return got, got, True

    return _Audit(_draw_product_sets, _each_k_pair(kind), verdict, check)


def _column_bound(
    kind: AllianceKind,
    accept: Callable[[Graph], bool] | None,
    factor_range: Callable[[Graph], range],
    check: str,
) -> _Audit:
    """The column bounds phi(k) over the product >= n_j * phi(k') of factor
    i, for k' in factor_range(G_i), where the column over a k'-free set of
    G_i is free at k = column_k(k', G_j)."""

    def cases(g1, g2):
        return [
            {"k": column_k(k_f, other, kind), "axis": axis}
            for axis, own, other in ((1, g1, g2), (2, g2, g1))
            for k_f in factor_range(own)
        ]

    def verdict(a, b, sets, axis, k):
        own, other = (a, b) if axis == 1 else (b, a)
        # column_k shifts k by a constant, so this inverts it
        k_f = k - column_k(0, other, kind)
        if k_f not in factor_range(own):
            return None
        lhs = _phi(k, kind, a, b)
        rhs = other.n * _phi(k_f, kind, own)
        return lhs >= rhs, lhs, rhs

    draw = partial(_draw_pairs, accept=accept, scripted=_SCRIPTED_PAIRS)
    return _Audit(draw, cases, verdict, check)


def _factor_bound(
    kind: AllianceKind,
    accept: Callable[[Graph], bool],
    factor_range: Callable[[Graph], range],
    claim_range: Callable[[int, int, Graph, Graph], range],
    bound: Callable[[int, int, Graph, Graph], int],
    check: str,
) -> _Audit:
    """The bounds phi(k) over the product >= bound(phi1, phi2, G1, G2),
    where phi_i = phi(G_i, k_i), for k_i in factor_range(G_i) and k in
    claim_range(k1, k2, G1, G2)."""

    def cases(g1, g2):
        return [
            {"k1": k1, "k2": k2, "k": k}
            for k1 in factor_range(g1)
            for k2 in factor_range(g2)
            for k in claim_range(k1, k2, g1, g2)
        ]

    def verdict(a, b, sets, k1, k2, k):
        if k1 not in factor_range(a) or k2 not in factor_range(b):
            return None
        if k not in claim_range(k1, k2, a, b):
            return None
        rhs = bound(_phi(k1, kind, a), _phi(k2, kind, b), a, b)
        lhs = _phi(k, kind, a, b)
        return lhs >= rhs, lhs, rhs

    draw = partial(_draw_pairs, accept=accept, scripted=_SCRIPTED_PAIRS)
    return _Audit(draw, cases, verdict, check)


def _is_tree(g: Graph) -> bool:
    seen = frontier = 1
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= g.adj_bits[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~seen
        seen |= nxt
    return g.edge_count == g.n - 1 and seen == g.full_mask


_LOWS = {"tree": 2, "planar6": 6, "planar4_trianglefree": 4}


def _remarktree_cases(g: Graph, _) -> list[dict]:
    case = _PLANAR.get(g, "tree")
    return [{"k": k, "case": case} for k in range(_LOWS[case], g.delta_max + 1)]


def _remarktree(a, b, sets, case, k):
    """phi_def(k) = n on trees (k >= 2), planar graphs (k >= 6), and planar
    triangle-free graphs (k >= 4), up to the maximum degree.  A planar case
    stays one on a shrunk instance, so only the tree case is tested on the
    graph."""
    if not _LOWS[case] <= k <= a.delta_max or (case == "tree" and not _is_tree(a)):
        return None
    val = _phi(k, DEF, a)
    return val == a.n, val, a.n


def _factor_recovery(a, b, sets, k, k_prime):
    """If S1 x S2 is def k-free in the product and S2 is a defensive
    k'-alliance in G2, then S1 is def (k-k')-free in G1."""
    s1, s2 = sets["s1"], sets["s2"]
    if s2.mask == 0 or not _alliance_ok(b, s2.mask, k_prime, DEF):
        return None
    if not is_free_set(_product(a, b), _factor_box(s1, s2), k, DEF):
        return None
    got = is_free_set(a, s1, k - k_prime, DEF)
    return got, got, True


def _factor_recovery_cases(g1: Graph, g2: Graph) -> list[dict]:
    return [
        {"k": k, "k_prime": k_prime}
        for k in DEF.canonical_k_range(_product(g1, g2))
        for k_prime in DEF.canonical_k_range(g2)
    ]


def _column_recovery(a, b, sets, k):
    """If S1 x V2 is def k-free in the product, S1 is def (k-d2)-free."""
    if not is_free_set(_product(a, b), _factor_box(sets["s1"], b.vertices), k, DEF):
        return None
    got = is_free_set(a, sets["s1"], k - b.delta_min, DEF)
    return got, got, True


def _iff_regular_range(a: Graph, b: Graph) -> range:
    return range(b.delta_min - a.delta_max, a.delta_max + b.delta_min + 1)


def _iff_regular(a, b, sets, k):
    """For regular G2: S1 x V2 def k-free in the product iff S1 def
    (k-d2)-free in G1, for d2-D1 <= k <= D1+d2."""
    if not b.is_regular or k not in _iff_regular_range(a, b):
        return None
    left = is_free_set(_product(a, b), _factor_box(sets["s1"], b.vertices), k, DEF)
    right = is_free_set(a, sets["s1"], k - b.delta_min, DEF)
    return left == right, [left, right], "equal"


def _union(a, b, sets, k1, k2):
    """If S_i is off k_i-free in G_i, (S1 x V2) u (V1 x S2) is off k'-free
    in the product for k' = max(k1-d2, k2-d1, min(k2+D1, k1+D2))."""
    s1, s2 = sets["s1"], sets["s2"]
    if not (is_free_set(a, s1, k1, OFF) and is_free_set(b, s2, k2, OFF)):
        return None
    union = VertexSet(_factor_box(s1, b.vertices).mask | _factor_box(a.vertices, s2).mask, a.n * b.n)
    got = is_free_set(_product(a, b), union, union_k(k1, k2, a, b), OFF)
    return got, got, True


def _phi_p_lower(a, b, sets, k):
    """phi_pow(k) >= max(phi_def(k), phi_off(k+2)) on any graph: every
    defensive-k-free or offensive-(k+2)-free set is powerful-k free."""
    if k not in POW.canonical_k_range(a):
        return None
    lhs = _phi(k, POW, a)
    rhs = max(_phi(k, DEF, a), _phi(k + 2, OFF, a))
    return lhs >= rhs, lhs, rhs


def _vizing_alpha(a, b, sets):
    """alpha(product) >= alpha1*alpha2 + min(n1-alpha1, n2-alpha2)."""
    bound = vizing_alpha_bound(independence_number(a), independence_number(b), a, b)
    val = independence_number(_product(a, b))
    return val >= bound, val, bound


def _pow_factor_range(g: Graph) -> range:
    """The powerful canonical range of a factor, floor raised to 1 - d."""
    return range(1 - g.delta_min, g.delta_max - 1)


# One row per claim, in report order.  A row built by a factory states its
# claim in its check name, or in a comment above it.
_AUDITS: dict[str, _Audit] = {
    "remark1": _Audit(partial(_draw_pairs, accept=_has_edge, scripted=_SCRIPTED_PAIRS),
                      _each_k(_remark1_range), _remark1, "phi_def >= alpha bound"),
    "th1_i": _projection_transfer(
        DEF, "free projection at k makes S (k+D_other)-def-free in the product"),
    "th1_ii": _both_projections(
        DEF, "both projections free make S (k1+k2-1)-def-free in the product"),
    # phi_def(k) over the product >= n_j * phi_def(k-D_j) of a factor
    "cor_CoroTh1def_i": _column_bound(
        DEF, None, DEF.canonical_k_range, "column bound for phi_def on the product"),
    # phi_def(k1+k2-1) over the product >= phi1*phi2 + min(n1-phi1, n2-phi2)
    "cor_CoroTh1def_ii": _factor_bound(
        DEF, _has_edge, lambda g: range(1 - g.delta_min, g.delta_max + 1),
        lambda k1, k2, a, b: range(k1 + k2 - 1, k1 + k2), vizing_alpha_bound,
        "box-plus-diagonal bound for phi_def on the product"),
    "prop_remarktree": _Audit(_draw_remarktree, _remarktree_cases, _remarktree,
                              "phi_def equals the order"),
    "th_factor_recovery": _Audit(
        partial(_draw_pairs, accept=_has_edge, s1=_draw_subset, s2=_draw_nonempty_subset),
        _factor_recovery_cases, _factor_recovery, "factor recovery of a def-free set"),
    "cor_otrocoro": _Audit(
        partial(_draw_pairs, accept=_has_edge, s1=_draw_subset),
        _each_k(lambda g1, g2: DEF.canonical_k_range(_product(g1, g2))), _column_recovery,
        "column recovery of a def-free set"),
    "prop_iff_regular": _Audit(_draw_regular_columns, _each_k(_iff_regular_range), _iff_regular,
                               "column freeness iff factor freeness (regular G2)"),
    "th1of": _projection_transfer(
        OFF, "free projection at k makes S (k-d_other)-off-free in the product"),
    # phi_off(k) over the product >= n_j * phi_off(k+d_j) of a factor
    "cor_coronofensive": _column_bound(
        OFF, _has_edge, OFF.canonical_k_range, "column bound for phi_off on the product"),
    "th_union": _Audit(partial(_draw_pairs, accept=_max_deg_2, s1=_draw_small_subset,
                               s2=_draw_small_subset),
                       _each_k_pair(OFF), _union, "union of columns is off k'-free"),
    # phi_off(k) over the product >= n1*phi2 + n2*phi1 - phi1*phi2 for every
    # k from k' up to D1+D2
    "cor_union": _factor_bound(
        OFF, _has_edge, OFF.canonical_k_range,
        lambda k1, k2, a, b: range(union_k(k1, k2, a, b), a.delta_max + b.delta_max + 1),
        lambda p1, p2, a, b: a.n * p2 + b.n * p1 - p1 * p2,
        "union bound for phi_off on the product"),
    "phi_p_lower": _Audit(_draw_phi_p_graphs, _each_k(lambda g, _: POW.canonical_k_range(g)),
                          _phi_p_lower, "phi_pow dominates phi_def and shifted phi_off"),
    "th1p_i": _projection_transfer(
        POW, "free projection at k makes S (k+D_other)-pow-free in the product"),
    "th1p_ii": _both_projections(POW, "both projections free make S k'-pow-free in the product"),
    # phi_pow(k) over the product >= n_j * phi_pow(k-D_j) of a factor, with
    # k-D_j >= 1-d_i
    "cor_coroproductpowerful_i": _column_bound(
        POW, _degree_sum_3, _pow_factor_range, "column bound for phi_pow on the product"),
    # phi_pow(k) over the product >= phi1*phi2 + min(n1-phi1, n2-phi2) for k
    # from k1+k2-1 up to D1+D2-2, with k_i >= 1-d_i
    "cor_coroproductpowerful_ii": _factor_bound(
        POW, _degree_sum_3, _pow_factor_range,
        lambda k1, k2, a, b: range(k1 + k2 - 1, a.delta_max + b.delta_max - 1), vizing_alpha_bound,
        "box-plus-diagonal bound for phi_pow on the product"),
    "vizing_alpha": _Audit(_draw_pairs, lambda g1, g2: [{}], _vizing_alpha,
                           "independence bound on the product"),
}

THEOREM_IDS = tuple(_AUDITS)


def audit(theorem_id: str, config: AuditConfig | None = None) -> AuditReport:
    """Audit one claim; deterministic for a fixed configuration.  Raises
    ValueError for an unknown id."""
    if theorem_id not in _AUDITS:
        raise ValueError(f"unknown theorem id {theorem_id!r}; choose from {THEOREM_IDS}")
    config = config or AuditConfig()
    row = _AUDITS[theorem_id]
    trials = skipped = checks = 0
    failures = []
    start, memo = time.perf_counter(), _level_minima.cache_info()
    for g1, g2, sets in row.draw(config, random.Random(f"{config.seed}/{theorem_id}")):
        found, failure = _check(g1, g2, sets, row.verdict, row.cases(g1, g2), row.check)
        if not found:
            skipped += 1
            continue
        trials += 1
        checks += found
        if failure is not None:
            failures.append(failure)
    after = _level_minima.cache_info()
    return AuditReport(
        theorem_id, trials, tuple(failures), skipped, checks, config,
        time.perf_counter() - start, after.hits - memo.hits, after.misses - memo.misses,
    )


def audit_all(config: AuditConfig | None = None) -> list[AuditReport]:
    """Audit every claim in ``THEOREM_IDS`` order."""
    config = config or AuditConfig()
    return [audit(tid, config) for tid in THEOREM_IDS]


# ---------------------------------------------------------------------------
# Strict-gap search: graphs where phi_pow(2) beats both easy lower bounds


@dataclass(frozen=True)
class StrictGapInstance:
    graph: Graph
    k: int
    phi_powerful: int
    phi_defensive: int
    phi_offensive: int


def find_strict_gap_instance() -> StrictGapInstance | None:
    """Seeded search for a graph with phi_pow(k) strictly above
    max(phi_def(k), phi_off(k+2)) at k = 2, among up to 4000 random graphs
    of order 6 to 9; the two lower bounds are not tight."""
    k = 2
    rng = random.Random(f"987620/strict-gap/{k}")
    for _ in range(4000):
        n = rng.randint(6, 9)
        g = _gnp(rng, n, rng.choice((0.4, 0.5, 0.6, 0.7)))
        if g.delta_max < k:
            continue
        pp = phi_value(g, k, POW)
        pd = phi_value(g, k, DEF)
        po = phi_value(g, k + 2, OFF)
        if pp > max(pd, po):
            return StrictGapInstance(g, k, pp, pd, po)
    return None
