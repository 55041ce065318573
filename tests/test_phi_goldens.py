"""Regression corpus: phi records and certificates pinned to recorded values.

``tests/data/phi_goldens.json`` holds, for every kind and canonical k of a
fixed set of graphs, ``PhiResult.to_record()`` plus the certificate's sorted
vertex lists.  Regenerate it (only when an output change is intended) with

    PYTHONPATH=src python tests/test_phi_goldens.py
"""

import itertools
import json
import random
from pathlib import Path

import pytest

from alliancekit import (
    AllianceKind,
    Graph,
    VertexSet,
    canonical_k_range,
    cartesian_product,
    cycle_graph,
    is_free_set,
    path_graph,
    phi,
    phi_table,
    random_graph,
    star_graph,
)

from conftest import seeded_graph

GOLDENS = Path(__file__).parent / "data" / "phi_goldens.json"


def corpus_graphs() -> list[tuple[str, Graph]]:
    graphs = []
    for i, (n, p) in enumerate([(6, 0.5), (7, 0.3), (7, 0.7), (8, 0.4), (9, 0.5),
                                (9, 0.3), (10, 0.4), (10, 0.6), (11, 0.35), (12, 0.3)]):
        seed = 100 + i
        graphs.append((f"random_graph({n},{p},{seed})", random_graph(n, p, seed)))
    graphs.append(("star(3)xP4", cartesian_product(star_graph(3), path_graph(4))))
    graphs.append(("C4xC4", cartesian_product(cycle_graph(4), cycle_graph(4))))
    return graphs


def phi_record(g: Graph, k: int, kind: AllianceKind) -> dict:
    r = phi(g, k, kind)
    return {**r.to_record(), "certificate": [s.to_sorted_list() for s in r.certificate]}


def write_goldens() -> None:
    lines = []
    for name, g in corpus_graphs():
        edges = [list(e) for e in g.edges()]
        records = [phi_record(g, k, kind) for kind in AllianceKind
                   for k in canonical_k_range(g, kind)]
        lines.append(json.dumps({"graph": name, "n": g.n, "edges": edges, "records": records}))
    GOLDENS.write_text("[\n" + ",\n".join(lines) + "\n]\n")


@pytest.fixture(scope="module")
def goldens() -> dict:
    return {case["graph"]: case for case in json.loads(GOLDENS.read_text())}


@pytest.mark.parametrize("name,g", corpus_graphs(), ids=[name for name, _ in corpus_graphs()])
def test_phi_matches_goldens(goldens, name, g):
    case = goldens[name]
    assert g == Graph(case["n"], [tuple(e) for e in case["edges"]])
    for rec in case["records"]:
        assert phi_record(g, rec["k"], AllianceKind(rec["kind"])) == rec


@pytest.mark.parametrize("name,g", corpus_graphs(), ids=[name for name, _ in corpus_graphs()])
def test_phi_table_matches_goldens(goldens, name, g):
    """One closure per kind gives every canonical k's per-k phi row."""
    records = goldens[name]["records"]
    for kind in AllianceKind:
        expected = [(r["k"], r["value"], r["witness"]) for r in records if r["kind"] == kind.value]
        got = [(k, value, witness.to_sorted_list()) for k, value, witness in phi_table(g, kind)]
        assert got == expected


def test_witness_is_lex_smallest_maximum_free_set():
    rng = random.Random(41)
    for _ in range(12):
        g = seeded_graph(rng, rng.randint(2, 8))
        for kind in AllianceKind:
            for k in canonical_k_range(g, kind):
                r = phi(g, k, kind)
                first = next(c for c in itertools.combinations(range(g.n), r.value)
                             if is_free_set(g, VertexSet.of(c, g.n), k, kind))
                assert r.witness.to_sorted_list() == list(first)


if __name__ == "__main__":
    write_goldens()
