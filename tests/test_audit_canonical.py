"""The audit reads phi on canonical copies.  ``_canonical`` relabels each
graph of order <= 4 to one copy per isomorphism class, and ``_phi`` reads
``phi_value`` on that copy, or on the product of two copies taken in a
fixed order, so isomorphic instances share one memoised table."""

import importlib
import itertools
import random

import pytest

from alliancekit import AllianceKind, Graph, cartesian_product, path_graph, star_graph
from alliancekit.audit import _canonical, _phi
from alliancekit.phi import phi_value

phi_mod = importlib.import_module("alliancekit.phi")


def _labelled(n: int) -> list[Graph]:
    """Every labelled graph on vertices 0..n-1."""
    pairs = list(itertools.combinations(range(n), 2))
    return [
        Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        for mask in range(1 << len(pairs))
    ]


LABELLED = [g for n in range(1, 5) for g in _labelled(n)]
#: one canonical copy per isomorphism class of order 2 to 4
CLASSES = sorted({_canonical(g) for g in LABELLED if g.n >= 2}, key=lambda g: (g.n, g.adj_bits))


def _relabel(g: Graph, p) -> Graph:
    """g with vertex v renamed p[v]."""
    return Graph(g.n, [(p[u], p[v]) for u, v in g.edges()])


def _shuffled(g: Graph, rng: random.Random) -> Graph:
    return _relabel(g, rng.sample(range(g.n), g.n))


def test_canonical_copies_are_one_per_isomorphism_class():
    nx = pytest.importorskip("networkx")

    def to_nx(g: Graph):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        return h

    assert len(LABELLED) == 1 + 2 + 8 + 64
    copies = {g: _canonical(g) for g in LABELLED}
    for g, c in copies.items():
        assert nx.is_isomorphic(to_nx(c), to_nx(g)), g.adj_bits
    for g, h in itertools.combinations(LABELLED, 2):
        same_class = g.n == h.n and nx.is_isomorphic(to_nx(g), to_nx(h))
        assert (copies[g] == copies[h]) == same_class, (g.adj_bits, h.adj_bits)
    assert len(set(copies.values())) == 1 + 2 + 4 + 11
    assert len(CLASSES) == 17


def test_graphs_above_order_four_are_their_own_copy():
    for g in (path_graph(5), Graph(5, [(4, v) for v in range(4)]), star_graph(7)):
        assert _canonical(g) is g


@pytest.mark.parametrize("kind", list(AllianceKind), ids=lambda kind: kind.value)
def test_phi_of_a_pair_is_phi_of_its_product(kind):
    rng = random.Random(f"canonical-pairs/{kind.value}")
    for a, b in itertools.product(CLASSES, repeat=2):
        a, b = _shuffled(a, rng), _shuffled(b, rng)
        product = cartesian_product(a, b)
        for k in kind.canonical_k_range(product):
            assert _phi(k, kind, a, b) == phi_value(product, k, kind), (a.adj_bits, b.adj_bits, k)


@pytest.mark.parametrize("kind", list(AllianceKind), ids=lambda kind: kind.value)
def test_phi_of_one_graph_is_its_phi_value(kind):
    rng = random.Random(f"canonical-graphs/{kind.value}")
    for g in CLASSES:
        g = _shuffled(g, rng)
        for k in kind.canonical_k_range(g):
            assert _phi(k, kind, g) == phi_value(g, k, kind), (g.adj_bits, k)


def test_isomorphic_pairs_share_one_table_and_kinds_do_not():
    a, b = star_graph(3), path_graph(3)
    a2, b2 = _relabel(a, (3, 0, 1, 2)), _relabel(b, (1, 0, 2))
    assert (a2, b2) != (a, b)
    phi_mod._level_minima.cache_clear()
    _phi(0, AllianceKind.DEFENSIVE, a, b)
    misses = phi_mod._level_minima.cache_info().misses
    # the swapped, relabelled pair: an isomorphic product, the same table
    _phi(1, AllianceKind.DEFENSIVE, b2, a2)
    assert phi_mod._level_minima.cache_info().misses == misses
    _phi(0, AllianceKind.OFFENSIVE, a, b)
    assert phi_mod._level_minima.cache_info().misses == misses + 1
