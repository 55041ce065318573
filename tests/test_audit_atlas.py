"""The audit table's contract: a row's cases and verdict run on any chosen
instance, with no random stream.  A small exhaustive audit over the
networkx graph atlas runs every row that reads no sets: the pair rows on
every ordered pair of connected graphs of order 2 to 4 (81 pairs), the
one-graph rows on every graph of order 1 to 7.  No verdict may fail."""

import itertools

import pytest

from alliancekit import Graph
from alliancekit.audit import _AUDITS, _graph_record

nx = pytest.importorskip("networkx")

PAIR_ROWS = (
    "remark1",
    "cor_CoroTh1def_i",
    "cor_coronofensive",
    "cor_coroproductpowerful_i",
    "cor_CoroTh1def_ii",
    "cor_union",
    "cor_coroproductpowerful_ii",
    "vizing_alpha",
)
GRAPH_ROWS = ("phi_p_lower", "prop_remarktree")


def _atlas(low: int, high: int, connected: bool = False) -> list[Graph]:
    # atlas graphs are labelled 0..n-1
    return [
        Graph(h.number_of_nodes(), h.edges())
        for h in nx.graph_atlas_g()
        if low <= h.number_of_nodes() <= high and (not connected or nx.is_connected(h))
    ]


def _audit(theorem_id: str, instances) -> int:
    """The number of checks of one row over the instances; fails on the
    first false verdict."""
    row = _AUDITS[theorem_id]
    checks = 0
    for g1, g2 in instances:
        for case in row.cases(g1, g2):
            outcome = row.verdict(g1, g2, {}, **case)
            if outcome is None:
                continue
            checks += 1
            assert outcome[0], (_graph_record(g1), _graph_record(g2), case, outcome)
    return checks


@pytest.mark.parametrize("theorem_id", PAIR_ROWS)
def test_pair_rows_hold_on_every_connected_atlas_pair(theorem_id):
    graphs = _atlas(2, 4, connected=True)
    assert len(graphs) == 9  # 1 + 2 + 6 of order 2, 3 and 4: 81 ordered pairs
    assert _audit(theorem_id, itertools.product(graphs, repeat=2)) > 0


@pytest.mark.parametrize("theorem_id", GRAPH_ROWS)
def test_graph_rows_hold_on_every_atlas_graph(theorem_id):
    assert _audit(theorem_id, ((g, None) for g in _atlas(1, 7))) > 0
