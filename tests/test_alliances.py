import importlib
import warnings
from enum import Enum

import pytest
from hypothesis import given
import hypothesis.strategies as st

from alliancekit import (
    AllianceKind,
    CanonicalRangeWarning,
    Graph,
    VertexSet,
    build_witness,
    canonical_k_range,
    complete_graph,
    cycle_graph,
    degree_view,
    enumerate_minimal_alliances,
    is_alliance,
    is_cover_set,
    is_free_set,
    path_graph,
    phi,
    phi_bruteforce,
    phi_table,
    phi_value,
    star_graph,
)
from alliancekit.alliances import _alliance_ok, _as_kind

from conftest import graph_and_set, kinds

freesets_mod = importlib.import_module("alliancekit.freesets")


def test_defensive_examples():
    for g in (path_graph(4), cycle_graph(5), star_graph(3)):
        assert is_alliance(g, g.vertices, g.delta_min, "defensive")
    p2 = path_graph(2)
    assert is_alliance(p2, VertexSet.of([0], 2), -1, "defensive")  # 0 >= 1 + (-1)
    k4 = complete_graph(4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CanonicalRangeWarning)
        assert not is_alliance(k4, k4.vertices, 4, "defensive")  # 3 >= 0 + 4 fails


def test_offensive_examples():
    p3 = path_graph(3)
    for g in (p3, complete_graph(4), cycle_graph(5)):
        for k in range(-5, 6):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CanonicalRangeWarning)
                assert is_alliance(g, g.vertices, k, "offensive")  # empty boundary
    assert is_alliance(p3, VertexSet.of([0, 2], 3), 2, "offensive")
    assert not is_alliance(p3, VertexSet.of([1], 3), 2, "offensive")


def test_powerful_examples():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CanonicalRangeWarning)
        k3 = complete_graph(3)
        assert is_alliance(k3, k3.vertices, 2, "powerful")
        for g in (path_graph(4), cycle_graph(4)):
            assert is_alliance(g, g.vertices, g.delta_min, "powerful")
    # P2, S={0}, k=-1: defensive holds (0 >= 1-1) and the boundary vertex 1
    # has one neighbour in S and none outside, so offensive(+1) holds too
    p2 = path_graph(2)
    assert is_alliance(p2, VertexSet.of([0], 2), -1, "powerful")
    assert is_alliance(p2, VertexSet.of([0], 2), -1, "defensive")
    assert is_alliance(p2, VertexSet.of([0], 2), 1, "offensive")


def test_empty_set_rejected():
    g = path_graph(3)
    for kind in AllianceKind:
        with pytest.raises(ValueError):
            is_alliance(g, VertexSet(0, 3), 0, kind)


def test_universe_mismatch_rejected():
    with pytest.raises(ValueError):
        is_alliance(path_graph(3), VertexSet.of([0], 4), 0, "defensive")


def test_out_of_range_k_warns_but_evaluates():
    g = path_graph(3)  # max degree 2
    with pytest.warns(CanonicalRangeWarning):
        assert is_alliance(g, g.vertices, -5, "defensive")
    with pytest.warns(CanonicalRangeWarning):
        assert not is_alliance(g, g.vertices, 5, "defensive")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        is_alliance(g, g.vertices, 1, "defensive")  # in range: no warning


def test_canonical_ranges():
    p3 = path_graph(3)
    assert list(canonical_k_range(p3, "defensive")) == [-2, -1, 0, 1, 2]
    assert list(canonical_k_range(p3, "offensive")) == [0, 1, 2]
    assert list(canonical_k_range(p3, "powerful")) == [-2, -1, 0]
    edgeless = complete_graph(1)
    assert list(canonical_k_range(edgeless, AllianceKind.OFFENSIVE)) == []
    assert list(canonical_k_range(edgeless, AllianceKind.POWERFUL)) == []


@given(graph_and_set(nonempty=True), kinds, st.integers(-5, 5), st.integers(1, 4))
def test_monotonicity_in_k(gs, kind, k, step):
    g, s = gs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CanonicalRangeWarning)
        if is_alliance(g, s, k + step, kind):
            assert is_alliance(g, s, k, kind)


@given(graph_and_set(nonempty=True), st.integers(-4, 4))
def test_powerful_decomposition(gs, k):
    g, s = gs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CanonicalRangeWarning)
        expected = is_alliance(g, s, k, "defensive") and is_alliance(g, s, k + 2, "offensive")
        assert is_alliance(g, s, k, "powerful") == expected


@given(graph_and_set(min_order=1), st.integers(-4, 4))
def test_full_set_powerful_iff_defensive(gs, k):
    g, _ = gs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CanonicalRangeWarning)
        powerful = is_alliance(g, g.vertices, k, "powerful")
        assert powerful == is_alliance(g, g.vertices, k, "defensive")


@given(graph_and_set(nonempty=True), st.integers(-4, 4))
def test_half_degree_equivalence(gs, k):
    # per-vertex condition d_S(v) >= d_notS(v)+k is the same as 2*d_S(v) >= deg(v)+k
    g, s = gs
    view = degree_view(g, s)
    lhs = all(view.in_degree[v] >= view.out_degree[v] + k for v in s)
    rhs = all(2 * view.in_degree[v] >= g.degrees[v] + k for v in s)
    assert lhs == rhs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CanonicalRangeWarning)
        assert is_alliance(g, s, k, "defensive") == lhs


def _condition_one(view, vertices, k: int) -> bool:
    return all(view.in_degree[v] >= view.out_degree[v] + k for v in vertices)


def test_condition_one_on_every_atlas_graph():
    """_alliance_ok is condition (1) read off degree_view: on S for
    defensive, on the boundary for offensive, on S at k and the boundary at
    k + 2 for powerful.  Every atlas graph of order 1 to 6, every non-empty
    set, every kind, and k from -D-1 to D+1, past both canonical ends."""
    nx = pytest.importorskip("networkx")
    checks = 0
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if not 1 <= n <= 6:
            continue
        g = Graph(n, h.edges())  # atlas graphs are labelled 0..n-1
        for mask in range(1, 1 << n):
            s = VertexSet(mask, n)
            view = degree_view(g, s)
            for k in range(-g.delta_max - 1, g.delta_max + 2):
                expected = {
                    AllianceKind.DEFENSIVE: _condition_one(view, s, k),
                    AllianceKind.OFFENSIVE: _condition_one(view, view.boundary, k),
                    AllianceKind.POWERFUL: _condition_one(view, s, k)
                    and _condition_one(view, view.boundary, k + 2),
                }
                for kind, want in expected.items():
                    assert _alliance_ok(g, mask, k, kind) == want, (list(g.edges()), mask, k, kind)
                    checks += 1
    assert checks == 336390


# ---------------------------------------------------------------------------
# The kind contract: every entry that takes a kind takes a member or its
# string value, and refuses anything else with AllianceKind's own error.


class _OtherKind(Enum):
    DEFENSIVE = "defensive"


def _kind_entries():
    """(name, call on a kind) for every public entry that takes a kind; each
    call's other arguments are valid for every kind, and its answer is
    comparable.  The witness rows are the column (on each axis), box and
    box_plus_diagonal constructions of ``build_witness``, run on star(3)
    and P3 with free factor sets: the empty set is free at every k."""
    g = path_graph(4)
    s = VertexSet.of([0, 1], 4)
    g1, g2 = star_graph(3), path_graph(3)
    e1, e2 = VertexSet(0, g1.n), VertexSet(0, g2.n)

    def witness(build):
        return lambda kind: build(kind).to_record()

    def box_kind(kind):  # the box constructions refuse the offensive kind
        return "defensive" if kind in (AllianceKind.OFFENSIVE, "offensive") else kind

    return [
        ("is_alliance", lambda kind: is_alliance(g, s, 0, kind)),
        ("canonical_k_range", lambda kind: canonical_k_range(g, kind)),
        ("is_free_set", lambda kind: is_free_set(g, s, 1, kind)),
        ("is_cover_set", lambda kind: is_cover_set(g, s, 1, kind)),
        ("enumerate_minimal_alliances",
         lambda kind: enumerate_minimal_alliances(g, 0, kind).masks),
        ("phi", lambda kind: (phi(g, 0, kind).to_record(), phi(g, 0, kind).certificate.masks)),
        ("phi_table", lambda kind: phi_table(g, kind)),
        ("phi_value", lambda kind: phi_value(g, 0, kind)),
        ("phi_bruteforce", lambda kind: phi_bruteforce(g, 0, kind)),
        ("column_witness",
         witness(lambda kind: build_witness("column", g1, g2, s=e1, k=0, kind=kind))),
        ("box_witness", witness(lambda kind: build_witness(
            "box", g1, g2, s1=e1, s2=e2, k1=1, k2=1, kind=box_kind(kind)))),
        ("box_plus_diagonal_witness", witness(lambda kind: build_witness(
            "box_plus_diagonal", g1, g2, s1=e1, s2=e2, k1=1, k2=1, kind=box_kind(kind)))),
        ("build_witness",
         witness(lambda kind: build_witness("column", g1, g2, s=e2, axis=2, k=0, kind=kind))),
    ]


_KIND_ENTRIES = _kind_entries()
_KIND_IDS = [name for name, _ in _KIND_ENTRIES]


@pytest.mark.parametrize("name, call", _KIND_ENTRIES, ids=_KIND_IDS)
def test_every_kind_entry_takes_a_member_or_its_value(name, call):
    for kind in AllianceKind:
        assert call(kind) == call(kind.value), (name, kind)


@pytest.mark.parametrize("name, call", _KIND_ENTRIES, ids=_KIND_IDS)
@pytest.mark.parametrize(
    "bad", ["nope", _OtherKind.DEFENSIVE, ["defensive"]], ids=["unknown", "other-enum", "unhashable"]
)
def test_every_kind_entry_refuses_a_non_kind_as_the_enum_does(name, call, bad):
    with pytest.raises(ValueError) as expected:
        AllianceKind(bad)
    with pytest.raises(ValueError) as got:
        call(bad)
    assert str(got.value) == str(expected.value), name


def test_the_normaliser_returns_a_member_itself():
    for kind in AllianceKind:
        assert _as_kind(kind) is kind
        assert _as_kind(kind.value) is kind
        assert hash(kind) == object.__hash__(kind)  # memo keys skip Enum.__hash__


def test_a_string_and_its_member_share_one_free_set_entry():
    g, x = path_graph(5), VertexSet.of([0, 2, 3], 5)
    freesets_mod._max_slack.cache_clear()
    for kind in AllianceKind:
        assert is_free_set(g, x, 1, kind.value) == is_free_set(g, x, 1, kind)
    info = freesets_mod._max_slack.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 3, 3)
