"""``cartesian_product`` and ``independence_number`` against networkx, on
the graphs of its offline graph atlas (every graph of order at most 7)."""

import itertools

import pytest

from alliancekit import Graph, cartesian_product, independence_number

nx = pytest.importorskip("networkx")


def _graph(h) -> Graph:
    # atlas graphs are labelled 0..n-1
    return Graph(h.number_of_nodes(), h.edges())


def test_cartesian_product_matches_networkx():
    atlas = [h for h in nx.graph_atlas_g() if h.number_of_nodes() >= 2 and nx.is_connected(h)]
    pairs = 0
    for h1, h2 in itertools.product(atlas, repeat=2):
        n1, n2 = h1.number_of_nodes(), h2.number_of_nodes()
        if n1 * n2 > 16:
            continue
        ref = nx.relabel_nodes(nx.cartesian_product(h1, h2), lambda ab: ab[0] * n2 + ab[1])
        assert cartesian_product(_graph(h1), _graph(h2)) == Graph(n1 * n2, ref.edges())
        pairs += 1
    assert pairs == 2137


def test_independence_number_matches_networkx():
    atlas = [h for h in nx.graph_atlas_g() if h.number_of_nodes() >= 1]
    for h in atlas:
        _, alpha = nx.max_weight_clique(nx.complement(h), weight=None)
        assert independence_number(_graph(h)).independence == alpha
    assert len(atlas) == 1252
