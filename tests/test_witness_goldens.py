"""Witness corpus: every ``build_witness`` outcome pinned to recorded values.

``tests/data/witness_goldens.json`` holds a seeded corpus of calls on
``_gnp`` factor pairs of order 1-4: every construction, every kind and
``None``, axes 1, 2 and 3, k inside and outside the canonical ranges, sets
on the wrong universe and missing arguments.  Each call passes only the
arguments its construction reads.  One line per factor pair; each call is
stored with its outcome, ``ProductWitness.to_record()`` or the message of
the ``ValueError`` it raised.  A set is stored as ``[universe, members]``.
Regenerate the file (only when an outcome change is intended) with

    PYTHONPATH=src python tests/test_witness_goldens.py
"""

import json
import random
from pathlib import Path

import pytest

from alliancekit import CONSTRUCTIONS, AllianceKind, Graph, VertexSet, build_witness, is_free_set
from alliancekit.graph import _gnp

GOLDENS = Path(__file__).parent / "data" / "witness_goldens.json"
SEED = 2028
PAIRS = 100

def _draw_k(rng: random.Random, g: Graph, kind: AllianceKind) -> int:
    """Half the time a canonical k of g, else any k in -4..5."""
    canonical = kind.canonical_k_range(g)
    if canonical and rng.random() < 0.5:
        return rng.choice(canonical)
    return rng.randint(-4, 5)


def _draw_set(rng: random.Random, g: Graph, other: Graph, k: int, kind: AllianceKind) -> VertexSet:
    """A subset of g, free at k in most draws; one draw in ten is on the
    universe of ``other`` or of order n + 1."""
    if rng.random() < 0.1:
        n = rng.choice((other.n, g.n + 1))
        return VertexSet(rng.getrandbits(n), n)
    s = VertexSet(rng.getrandbits(g.n), g.n)
    if rng.random() < 0.8:
        for _ in range(8):
            if is_free_set(g, s, k, kind):
                break
            s = VertexSet(rng.getrandbits(g.n), g.n)
    return s


def _draw_call(rng: random.Random, construction: str, g1: Graph, g2: Graph,
               kind: str | None) -> dict:
    """The keyword arguments of one call, ``kind`` included."""
    own = AllianceKind.OFFENSIVE if construction == "union" else AllianceKind.DEFENSIVE
    as_kind = own if kind is None else AllianceKind(kind)
    if construction == "column":
        axis = rng.choice((1, 1, 2, 2, 3))
        g, other = (g2, g1) if axis == 2 else (g1, g2)
        k = _draw_k(rng, g, as_kind)
        args = {"s": _draw_set(rng, g, other, k, as_kind), "axis": axis, "k": k}
    else:
        k1, k2 = _draw_k(rng, g1, as_kind), _draw_k(rng, g2, as_kind)
        args = {"s1": _draw_set(rng, g1, g2, k1, as_kind),
                "s2": _draw_set(rng, g2, g1, k2, as_kind), "k1": k1, "k2": k2}
    if rng.random() < 0.1:
        del args[rng.choice([key for key in args if key != "axis"])]
    if kind is not None or rng.random() < 0.5:
        args["kind"] = kind
    return args


def _encode(args: dict) -> dict:
    return {key: [value.universe_size, value.to_sorted_list()] if isinstance(value, VertexSet)
            else value for key, value in args.items()}


def _decode(args: dict) -> dict:
    return {key: VertexSet.of(value[1], value[0]) if isinstance(value, list) else value
            for key, value in args.items()}


def outcome(construction: str, g1: Graph, g2: Graph, args: dict) -> dict:
    try:
        return build_witness(construction, g1, g2, **args).to_record()
    except ValueError as error:
        return {"error": str(error)}


def corpus() -> list[dict]:
    """The factor pairs and calls of the corpus, without outcomes."""
    rng = random.Random(SEED)
    cases = []
    for _ in range(PAIRS):
        g1 = _gnp(rng, rng.randint(1, 4), rng.choice((0.3, 0.5, 0.7)))
        g2 = _gnp(rng, rng.randint(1, 4), rng.choice((0.3, 0.5, 0.7)))
        calls = [(construction, _draw_call(rng, construction, g1, g2, kind))
                 for construction in CONSTRUCTIONS
                 for kind in (None, *(k.value for k in AllianceKind))]
        cases.append({"g1": g1, "g2": g2, "calls": calls})
    return cases


def write_goldens() -> None:
    lines = []
    for case in corpus():
        g1, g2 = case["g1"], case["g2"]
        calls = [{"construction": c, "args": _encode(args), "outcome": outcome(c, g1, g2, args)}
                 for c, args in case["calls"]]
        lines.append(json.dumps({"g1": [g1.n, [list(e) for e in g1.edges()]],
                                 "g2": [g2.n, [list(e) for e in g2.edges()]], "calls": calls}))
    GOLDENS.write_text("[\n" + ",\n".join(lines) + "\n]\n")


def _graph(stored: list) -> Graph:
    return Graph(stored[0], [tuple(e) for e in stored[1]])


@pytest.fixture(scope="module")
def goldens() -> list[dict]:
    return json.loads(GOLDENS.read_text())


def test_every_witness_outcome_matches_its_golden(goldens):
    """A call that passed an argument its construction does not read would
    now be refused, so a match also shows that no call passes one."""
    mismatches = []
    for case in goldens:
        g1, g2 = _graph(case["g1"]), _graph(case["g2"])
        for call in case["calls"]:
            got = outcome(call["construction"], g1, g2, _decode(call["args"]))
            if got != call["outcome"]:
                mismatches.append((case["g1"], case["g2"], call, got))
    assert not mismatches, mismatches[:3]


def test_the_corpus_reaches_every_outcome(goldens):
    """Each construction is verified under every kind it covers, and every
    refusal of the witness builder occurs."""
    calls = [call for case in goldens for call in case["calls"]]
    verified = {(c["outcome"]["construction"], c["outcome"]["kind"])
                for c in calls if c["outcome"].get("verified")}
    covered = {(c, kind.value) for c in CONSTRUCTIONS for kind in AllianceKind
               if c == "column" or (c == "union") == (kind is AllianceKind.OFFENSIVE)}
    assert verified == covered
    errors = " | ".join(c["outcome"]["error"] for c in calls if "error" in c["outcome"])
    for phrase in ("column needs s and k", "box needs s1, s2, k1, k2",
                   "box_plus_diagonal needs", "union needs", "axis must be 1 or 2",
                   "box construction covers the defensive and powerful kinds",
                   "diagonal construction covers the defensive and powerful kinds",
                   "diagonal construction needs k_i >= 1 - min_degree(G_i)",
                   "union construction covers the offensive kind only",
                   "does not match graph order", "s is not", "s1 is not", "s2 is not"):
        assert phrase in errors, phrase


if __name__ == "__main__":
    write_goldens()
