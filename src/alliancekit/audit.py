"""Randomized and scripted verification of the product/factor claims.

Every numbered claim the package relies on gets an auditor: seeded random
factor graphs (plus scripted family instances) are drawn and the claim is
checked on them with the exact solvers.  An auditor only draws: it yields
each instance as ``(g1, g2, sets, verdict, cases)``, where a case is the
verdict's keyword arguments (the k values).  A verdict takes ``(g1, g2,
sets, **case)`` and returns ``None`` when the claim's hypothesis or k-range
does not hold on that instance, and ``(ok, observed, expected)`` otherwise.
Claims of one shape share a driver (``_column_bound_audit`` and the like);
each claim's row in ``_AUDITS`` pairs its auditor, with the driver's
parameters bound by ``functools.partial``, with its check name.

``audit`` runs the one loop and builds the report.  ``_check`` runs the
verdict at each case of one instance and changes nothing: each
non-``None`` outcome counts as a check, and an instance without checks is
skipped and counted.  Verdicts draw nothing, so the random stream is the
auditor's alone.  All claims are proved facts, so a false verdict is
evidence of an implementation bug: it is reported with a greedily minimized
counterexample, found by re-running the same verdict at the same case on
vertex-deleted instances (``None`` there counts as not failing, and an
error there propagates, as it does from the first run); the record's
``k`` is that case.  A set's name says where
it lives: ``s`` on G1 x G2, ``s1`` on G1 and ``s2`` on G2.  Deleting vertex
v of G1 drops row v, and deleting v of G2 drops column v, from every set
that lives on that factor.

An audit that never saw a hypothesis-satisfying trial is flagged
inconclusive rather than passed.  Reports are deterministic functions of
the configuration.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator

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
from .phi import phi_powerful_lower, phi_value
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

    A config is valid exactly when every auditor can draw under it.  Eight
    claims need factors of maximum degree >= 2 or degree sum >= 3, so of
    order >= 3: ``max_factor_order`` is at least 3 and
    ``max_product_order`` at least 9.  Products may not pass the audit's
    product-order cap, ``DEFAULT_EXACT_LIMIT``, so ``max_factor_order**2``
    and ``max_product_order`` stay at or below it.  Each auditor sweeps k
    over the canonical range intersected with the claim's stated range; the
    sweep is not configurable.
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
        if self.max_factor_order**2 > DEFAULT_EXACT_LIMIT:
            raise ValueError(
                f"max_factor_order**2 exceeds the audit's product-order cap {DEFAULT_EXACT_LIMIT}"
            )
        if self.max_product_order > DEFAULT_EXACT_LIMIT:
            raise ValueError("max_product_order exceeds the audit's product-order cap")
        if self.trials_per_theorem < 0:
            raise ValueError("trials_per_theorem must be non-negative")

    def to_record(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class AuditReport:
    theorem_id: str
    trials: int
    failures: tuple[dict, ...]
    skipped: int
    checks: int
    config: AuditConfig

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
        record = asdict(self)
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


# scripted pairs come first, for the auditors that use them
_SCRIPTED_PAIRS = (
    (star_graph(3), path_graph(3)),
    (star_graph(3), path_graph(4)),
    (cycle_graph(4), path_graph(3)),
    (cycle_graph(3), path_graph(3)),
)


def _pair_instances(
    rng: random.Random,
    config: AuditConfig,
    accept: Callable[[Graph], bool] | None = None,
) -> list[tuple[Graph, Graph]]:
    fits = [
        (a, b)
        for a, b in _SCRIPTED_PAIRS
        if max(a.n, b.n) <= config.max_factor_order
        and a.n * b.n <= config.max_product_order
        and (accept is None or (accept(a) and accept(b)))
    ]
    out = fits[: config.trials_per_theorem]
    while len(out) < config.trials_per_theorem:
        out.append(_draw_pair(rng, config, accept))
    return out


@lru_cache(maxsize=2048)
def _product(g1: Graph, g2: Graph) -> Graph:
    return cartesian_product(g1, g2)


# ---------------------------------------------------------------------------
# Counterexample minimization

_Outcome = tuple[bool, object, object] | None
#: A verdict with its case bound, as the shrinker runs it.
_Verdict = Callable[[Graph, Graph | None, dict], _Outcome]
#: A drawn instance: (g1, g2, sets, verdict, cases); a case is the keyword
#: arguments (k values) of ``verdict(g1, g2, sets, **case)``.
_Instance = tuple[Graph, Graph | None, dict[str, VertexSet], Callable[..., _Outcome], list[dict]]


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
    others, or ``None``."""
    checks = 0
    fails = []
    for ks in cases:
        outcome = verdict(g1, g2, sets, **ks)
        if outcome is None:
            continue
        checks += 1
        if not outcome[0]:
            fails.append(_failure(partial(verdict, **ks), g1, g2, sets, ks, check))
    if len(fails) > 1:
        fails[0] = {**fails[0], "additional_failing_checks": len(fails) - 1}
    return checks, (fails[0] if fails else None)


# ---------------------------------------------------------------------------
# The auditors


def _audit_remark1(config: AuditConfig, rng: random.Random) -> Iterator[_Instance]:
    """phi_def(k) over the product is at least the independence-based bound
    a1*a2 + min(n1-a1, n2-a2) for 1-d1-d2 <= k <= D1+D2."""

    def k_range(a, b):
        return range(1 - a.delta_min - b.delta_min, a.delta_max + b.delta_max + 1)

    def verdict(a, b, sets, k):
        if k not in k_range(a, b):
            return None
        bound = vizing_alpha_bound(independence_number(a), independence_number(b), a, b)
        val = phi_value(_product(a, b), k, DEF)
        return val >= bound, val, bound

    for g1, g2 in _pair_instances(rng, config, _has_edge):
        yield g1, g2, {}, verdict, [{"k": k} for k in k_range(g1, g2)]


def _projection_transfer_audit(
    config: AuditConfig, rng: random.Random, kind: AllianceKind
) -> Iterator[_Instance]:
    """Shared driver for the one-projection transfer claims: if the i-th
    projection of S is free at k_i in its factor, S is free at
    column_k(k_i, other factor) in the product."""

    def verdict(a, b, sets, axis, k_i):
        own, other = (a, b) if axis == 1 else (b, a)
        if not is_free_set(own, projections(sets["s"], a.n, b.n)[axis - 1], k_i, kind):
            return None
        got = is_free_set(_product(a, b), sets["s"], column_k(k_i, other, kind), kind)
        return got, got, True

    for _ in range(config.trials_per_theorem):
        g1, g2 = _draw_pair(rng, config, _max_deg_2)
        s = _draw_product_subset(rng, g1, g2)
        cases = [
            {"k_i": k_i, "axis": axis}
            for axis, own in ((1, g1), (2, g2))
            for k_i in kind.canonical_k_range(own)
        ]
        yield g1, g2, {"s": s}, verdict, cases


def _both_projection_audit(
    config: AuditConfig, rng: random.Random, kind: AllianceKind
) -> Iterator[_Instance]:
    """Shared driver for the two-projection transfer claims: if both
    projections of S are free, S is free at box_k in the product."""

    def verdict(a, b, sets, k1, k2):
        q1, q2 = projections(sets["s"], a.n, b.n)
        if not (is_free_set(a, q1, k1, kind) and is_free_set(b, q2, k2, kind)):
            return None
        kc = box_k(k1, k2, a, b, kind)
        if kind is POW and kc > a.delta_max + b.delta_max - 2:
            return None  # stated range is empty
        got = is_free_set(_product(a, b), sets["s"], kc, kind)
        return got, got, True

    for _ in range(config.trials_per_theorem):
        g1, g2 = _draw_pair(rng, config, _max_deg_2)
        s = _draw_product_subset(rng, g1, g2)
        cases = [
            {"k1": k1, "k2": k2}
            for k1 in kind.canonical_k_range(g1)
            for k2 in kind.canonical_k_range(g2)
        ]
        yield g1, g2, {"s": s}, verdict, cases


def _column_bound_audit(
    config: AuditConfig,
    rng: random.Random,
    kind: AllianceKind,
    accept: Callable[[Graph], bool] | None,
    k_range: Callable[[Graph, Graph], range],
) -> Iterator[_Instance]:
    """Shared driver for the column bounds phi(k) over the product >=
    n_j * phi(k') of factor i, for k in k_range(G_i, G_j), where the column
    over a k'-free set of G_i is free at k = column_k(k', G_j)."""

    def verdict(a, b, sets, axis, k):
        own, other = (a, b) if axis == 1 else (b, a)
        if k not in k_range(own, other):
            return None
        lhs = phi_value(_product(a, b), k, kind)
        # column_k shifts k by a constant, so this inverts it
        rhs = other.n * phi_value(own, k - column_k(0, other, kind), kind)
        return lhs >= rhs, lhs, rhs

    for g1, g2 in _pair_instances(rng, config, accept):
        cases = [
            {"k": k, "axis": axis}
            for axis, own, other in ((1, g1, g2), (2, g2, g1))
            for k in k_range(own, other)
        ]
        yield g1, g2, {}, verdict, cases


def _factor_phi_bound_audit(
    config: AuditConfig,
    rng: random.Random,
    kind: AllianceKind,
    accept: Callable[[Graph], bool],
    factor_range: Callable[[Graph], range],
    claim_range: Callable[[int, int, Graph, Graph], range],
    bound: Callable[[int, int, Graph, Graph], int],
) -> Iterator[_Instance]:
    """Shared driver for the bounds phi(k) over the product >=
    bound(phi1, phi2, G1, G2), where phi_i = phi(G_i, k_i), for k_i in
    factor_range(G_i) and k in claim_range(k1, k2, G1, G2)."""

    def verdict(a, b, sets, k1, k2, k):
        if k1 not in factor_range(a) or k2 not in factor_range(b):
            return None
        if k not in claim_range(k1, k2, a, b):
            return None
        rhs = bound(phi_value(a, k1, kind), phi_value(b, k2, kind), a, b)
        lhs = phi_value(_product(a, b), k, kind)
        return lhs >= rhs, lhs, rhs

    for g1, g2 in _pair_instances(rng, config, accept):
        cases = [
            {"k1": k1, "k2": k2, "k": k}
            for k1 in factor_range(g1)
            for k2 in factor_range(g2)
            for k in claim_range(k1, k2, g1, g2)
        ]
        yield g1, g2, {}, verdict, cases


def _is_connected(g: Graph) -> bool:
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= g.adj_bits[low.bit_length() - 1]
            m ^= low
        frontier = nxt & ~seen
        seen |= nxt
    return seen == g.full_mask


def _is_tree(g: Graph) -> bool:
    return g.edge_count == g.n - 1 and _is_connected(g)


def _audit_prop_remarktree(config: AuditConfig, rng: random.Random) -> Iterator[_Instance]:
    """phi_def(k) = n on trees (k >= 2), planar graphs (k >= 6), and planar
    triangle-free graphs (k >= 4), up to the maximum degree.  The wheels and
    grids are planar as built, the grids triangle free, and deleting a
    vertex keeps both, so only the tree case is tested on the graph."""
    instances: list[tuple[Graph, str]] = []
    for n in range(3, 9):
        instances.append((path_graph(n), "tree"))
        instances.append((star_graph(n - 1), "tree"))
    instances.append((wheel_graph(7), "planar6"))
    instances.append((wheel_graph(8), "planar6"))
    instances.append((grid_graph(3, 3), "planar4_trianglefree"))
    instances.append((grid_graph(3, 4), "planar4_trianglefree"))
    instances = instances[: config.trials_per_theorem]
    while len(instances) < config.trials_per_theorem:
        instances.append((random_tree(rng.randint(3, 8), seed=rng.randrange(2**30)), "tree"))

    lows = {"tree": 2, "planar6": 6, "planar4_trianglefree": 4}

    def verdict(a, b, sets, case, k):
        if not lows[case] <= k <= a.delta_max or (case == "tree" and not _is_tree(a)):
            return None
        val = phi_value(a, k, DEF)
        return val == a.n, val, a.n

    for g, case in instances:
        yield g, None, {}, verdict, [
            {"k": k, "case": case} for k in range(lows[case], g.delta_max + 1)
        ]


def _audit_th_factor_recovery(config: AuditConfig, rng: random.Random) -> Iterator[_Instance]:
    """If S1 x S2 is def k-free in the product and S2 is a defensive
    k'-alliance in G2, then S1 is def (k-k')-free in G1."""

    def verdict(a, b, sets, k, k_prime):
        s1, s2 = sets["s1"], sets["s2"]
        if s2.mask == 0 or not _alliance_ok(b, s2.mask, k_prime, DEF):
            return None
        if not is_free_set(_product(a, b), factor_box(s1, s2), k, DEF):
            return None
        got = is_free_set(a, s1, k - k_prime, DEF)
        return got, got, True

    for _ in range(config.trials_per_theorem):
        g1, g2 = _draw_pair(rng, config, _has_edge)
        s1 = _draw_subset(rng, g1.n)
        s2 = _draw_subset(rng, g2.n)
        if s2.mask == 0:
            s2 = VertexSet(1 << rng.randrange(g2.n), g2.n)
        cases = [
            {"k": k, "k_prime": k_prime}
            for k in DEF.canonical_k_range(_product(g1, g2))
            for k_prime in DEF.canonical_k_range(g2)
        ]
        yield g1, g2, {"s1": s1, "s2": s2}, verdict, cases


def _audit_cor_otrocoro(config: AuditConfig, rng: random.Random) -> Iterator[_Instance]:
    """If S1 x V2 is def k-free in the product, S1 is def (k-d2)-free."""

    def verdict(a, b, sets, k):
        if not is_free_set(_product(a, b), factor_box(sets["s1"], b.vertices), k, DEF):
            return None
        got = is_free_set(a, sets["s1"], k - b.delta_min, DEF)
        return got, got, True

    for _ in range(config.trials_per_theorem):
        g1, g2 = _draw_pair(rng, config, _has_edge)
        s1 = _draw_subset(rng, g1.n)
        cases = [{"k": k} for k in DEF.canonical_k_range(_product(g1, g2))]
        yield g1, g2, {"s1": s1}, verdict, cases


_REGULAR_POOL = (
    complete_graph(2), cycle_graph(3), complete_graph(3), cycle_graph(4), complete_graph(4)
)


def _audit_prop_iff_regular(config: AuditConfig, rng: random.Random) -> Iterator[_Instance]:
    """For regular G2: S1 x V2 def k-free in the product iff S1 def
    (k-d2)-free in G1, for d2-D1 <= k <= D1+d2."""

    def k_range(a, b):
        return range(b.delta_min - a.delta_max, a.delta_max + b.delta_min + 1)

    def verdict(a, b, sets, k):
        if not b.is_regular or k not in k_range(a, b):
            return None
        left = is_free_set(_product(a, b), factor_box(sets["s1"], b.vertices), k, DEF)
        right = is_free_set(a, sets["s1"], k - b.delta_min, DEF)
        return left == right, [left, right], "equal"

    for _ in range(config.trials_per_theorem):
        g2 = rng.choice([g for g in _REGULAR_POOL if g.n <= config.max_factor_order])
        g1 = _draw_graph(rng, min(config.max_factor_order, config.max_product_order // g2.n))
        s1 = _draw_subset(rng, g1.n)
        yield g1, g2, {"s1": s1}, verdict, [{"k": k} for k in k_range(g1, g2)]


def _audit_th_union(config: AuditConfig, rng: random.Random) -> Iterator[_Instance]:
    """If S_i is off k_i-free in G_i, (S1 x V2) u (V1 x S2) is off k'-free
    in the product for k' = max(k1-d2, k2-d1, min(k2+D1, k1+D2))."""

    def verdict(a, b, sets, k1, k2):
        s1, s2 = sets["s1"], sets["s2"]
        if not (is_free_set(a, s1, k1, OFF) and is_free_set(b, s2, k2, OFF)):
            return None
        union = VertexSet(
            factor_box(s1, b.vertices).mask | factor_box(a.vertices, s2).mask, a.n * b.n
        )
        got = is_free_set(_product(a, b), union, union_k(k1, k2, a, b), OFF)
        return got, got, True

    for _ in range(config.trials_per_theorem):
        g1, g2 = _draw_pair(rng, config, _max_deg_2)
        s1 = _draw_small_subset(rng, g1.n)
        s2 = _draw_small_subset(rng, g2.n)
        cases = [
            {"k1": k1, "k2": k2}
            for k1 in OFF.canonical_k_range(g1)
            for k2 in OFF.canonical_k_range(g2)
        ]
        yield g1, g2, {"s1": s1, "s2": s2}, verdict, cases


def _audit_phi_p_lower(config: AuditConfig, rng: random.Random) -> Iterator[_Instance]:
    """phi_pow(k) >= max(phi_def(k), phi_off(k+2)) on any graph."""

    def verdict(a, b, sets, k):
        if k not in POW.canonical_k_range(a):
            return None
        lhs = phi_value(a, k, POW)
        rhs = phi_powerful_lower(a, k)
        return lhs >= rhs, lhs, rhs

    for _ in range(config.trials_per_theorem):
        g = _draw_graph(rng, 9, _has_edge)
        yield g, None, {}, verdict, [{"k": k} for k in POW.canonical_k_range(g)]


def _audit_vizing_alpha(config: AuditConfig, rng: random.Random) -> Iterator[_Instance]:
    """alpha(product) >= alpha1*alpha2 + min(n1-alpha1, n2-alpha2)."""

    def verdict(a, b, sets):
        bound = vizing_alpha_bound(independence_number(a), independence_number(b), a, b)
        val = independence_number(_product(a, b))
        return val >= bound, val, bound

    for _ in range(config.trials_per_theorem):
        g1, g2 = _draw_pair(rng, config)
        yield g1, g2, {}, verdict, [{}]


# One row per claim, in report order: (auditor, check name).  A row that
# binds a shared driver states its claim in its check name, or in a comment
# above it.
_AUDITS: dict[str, tuple[Callable[[AuditConfig, random.Random], Iterator[_Instance]], str]] = {
    "remark1": (_audit_remark1, "phi_def >= alpha bound"),
    "th1_i": (partial(_projection_transfer_audit, kind=DEF),
              "free projection at k makes S (k+D_other)-def-free in the product"),
    "th1_ii": (partial(_both_projection_audit, kind=DEF),
               "both projections free make S (k1+k2-1)-def-free in the product"),
    # phi_def(k) over the product >= n_j * phi_def(k-D_j) of a factor
    "cor_CoroTh1def_i": (partial(
        _column_bound_audit, kind=DEF, accept=None,
        k_range=lambda own, other: range(
            other.delta_max - own.delta_max, own.delta_max + other.delta_max + 1
        ),
    ), "column bound for phi_def on the product"),
    # phi_def(k1+k2-1) over the product >= phi1*phi2 + min(n1-phi1, n2-phi2)
    "cor_CoroTh1def_ii": (partial(
        _factor_phi_bound_audit, kind=DEF, accept=_has_edge,
        factor_range=lambda g: range(1 - g.delta_min, g.delta_max + 1),
        claim_range=lambda k1, k2, a, b: range(k1 + k2 - 1, k1 + k2),
        bound=vizing_alpha_bound,
    ), "box-plus-diagonal bound for phi_def on the product"),
    "prop_remarktree": (_audit_prop_remarktree, "phi_def equals the order"),
    "th_factor_recovery": (_audit_th_factor_recovery, "factor recovery of a def-free set"),
    "cor_otrocoro": (_audit_cor_otrocoro, "column recovery of a def-free set"),
    "prop_iff_regular": (_audit_prop_iff_regular,
                         "column freeness iff factor freeness (regular G2)"),
    "th1of": (partial(_projection_transfer_audit, kind=OFF),
              "free projection at k makes S (k-d_other)-off-free in the product"),
    # phi_off(k) over the product >= n_j * phi_off(k+d_j) of a factor
    "cor_coronofensive": (partial(
        _column_bound_audit, kind=OFF, accept=_has_edge,
        k_range=lambda own, other: range(
            2 - other.delta_min - own.delta_max, own.delta_max - other.delta_min + 1
        ),
    ), "column bound for phi_off on the product"),
    "th_union": (_audit_th_union, "union of columns is off k'-free"),
    # phi_off(k) over the product >= n1*phi2 + n2*phi1 - phi1*phi2 for every
    # k from k' up to D1+D2
    "cor_union": (partial(
        _factor_phi_bound_audit, kind=OFF, accept=_has_edge,
        factor_range=OFF.canonical_k_range,
        claim_range=lambda k1, k2, a, b: range(
            union_k(k1, k2, a, b), a.delta_max + b.delta_max + 1
        ),
        bound=lambda p1, p2, a, b: a.n * p2 + b.n * p1 - p1 * p2,
    ), "union bound for phi_off on the product"),
    "phi_p_lower": (_audit_phi_p_lower, "phi_pow dominates phi_def and shifted phi_off"),
    "th1p_i": (partial(_projection_transfer_audit, kind=POW),
               "free projection at k makes S (k+D_other)-pow-free in the product"),
    "th1p_ii": (partial(_both_projection_audit, kind=POW),
                "both projections free make S k'-pow-free in the product"),
    # phi_pow(k) over the product >= n_j * phi_pow(k-D_j) of a factor
    "cor_coroproductpowerful_i": (partial(
        _column_bound_audit, kind=POW, accept=_degree_sum_3,
        k_range=lambda own, other: range(
            max(other.delta_max - own.delta_max, other.delta_max + 1 - own.delta_min),
            own.delta_max + other.delta_max - 1,
        ),
    ), "column bound for phi_pow on the product"),
    # phi_pow(k) over the product >= phi1*phi2 + min(n1-phi1, n2-phi2) for k
    # from k1+k2-1 up to D1+D2-2, with k_i >= 1-d_i
    "cor_coroproductpowerful_ii": (partial(
        _factor_phi_bound_audit, kind=POW, accept=_degree_sum_3,
        factor_range=lambda g: range(1 - g.delta_min, g.delta_max - 1),
        claim_range=lambda k1, k2, a, b: range(k1 + k2 - 1, a.delta_max + b.delta_max - 1),
        bound=vizing_alpha_bound,
    ), "box-plus-diagonal bound for phi_pow on the product"),
    "vizing_alpha": (_audit_vizing_alpha, "independence bound on the product"),
}

THEOREM_IDS = tuple(_AUDITS)

def audit(theorem_id: str, config: AuditConfig | None = None) -> AuditReport:
    """Run one auditor; deterministic for a fixed configuration.  Raises
    ValueError for an unknown id."""
    if theorem_id not in _AUDITS:
        raise ValueError(f"unknown theorem id {theorem_id!r}; choose from {THEOREM_IDS}")
    config = config or AuditConfig()
    auditor, check = _AUDITS[theorem_id]
    trials = skipped = checks = 0
    failures = []
    for instance in auditor(config, random.Random(f"{config.seed}/{theorem_id}")):
        found, failure = _check(*instance, check)
        if not found:
            skipped += 1
            continue
        trials += 1
        checks += found
        if failure is not None:
            failures.append(failure)
    return AuditReport(theorem_id, trials, tuple(failures), skipped, checks, config)


def audit_all(config: AuditConfig | None = None) -> list[AuditReport]:
    """Run every auditor in ``THEOREM_IDS`` order."""
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

    def to_record(self) -> dict:
        return {
            **_graph_record(self.graph),
            "k": self.k,
            "phi_powerful": self.phi_powerful,
            "phi_defensive": self.phi_defensive,
            "phi_offensive": self.phi_offensive,
        }


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
