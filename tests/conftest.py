import random
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import settings

from alliancekit import AllianceKind, CapacityError, Graph, VertexSet

settings.register_profile("alliancekit", deadline=None, max_examples=60)
settings.load_profile("alliancekit")


@st.composite
def graphs(draw, min_order=1, max_order=7):
    n = draw(st.integers(min_order, max_order))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if possible:
        edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible)))
    else:
        edges = []
    return Graph(n, edges)


@st.composite
def graph_and_set(draw, min_order=1, max_order=7, nonempty=False):
    g = draw(graphs(min_order=min_order, max_order=max_order))
    low = 1 if nonempty else 0
    mask = draw(st.integers(low, (1 << g.n) - 1))
    return g, VertexSet(mask, g.n)


kinds = st.sampled_from(list(AllianceKind))


def seeded_graph(rng: random.Random, n: int) -> Graph:
    p = rng.choice((0.3, 0.5, 0.7))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def seeded_subset(rng: random.Random, n: int) -> VertexSet:
    return VertexSet(rng.getrandbits(n), n)


def traced_peak(call) -> int:
    """Peak traced allocation, in bytes, while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def refusal_peak(call) -> int:
    """Peak traced allocation of a call that must raise CapacityError."""
    def refused():
        with pytest.raises(CapacityError):
            call()
    return traced_peak(refused)
