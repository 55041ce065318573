import importlib
import io
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given

from alliancekit import (
    CapacityError,
    EdgeListParseError,
    Graph,
    VertexSet,
    boundary_set,
    cartesian_product,
    complete_graph,
    cycle_graph,
    degree_view,
    family,
    fiber,
    format_edge_list,
    grid_graph,
    independence_number,
    induced_edge_count,
    parse_edge_list,
    path_graph,
    projections,
    random_graph,
    random_tree,
    star_graph,
    vizing_alpha_bound,
    wheel_graph,
)

from alliancekit.graph import _bits

from conftest import graph_and_set, graphs, refusal_peak, traced_peak

graph_mod = importlib.import_module("alliancekit.graph")


def test_bits_refuses_a_negative_mask():
    # a negative int has infinitely many set bits in two's complement
    with pytest.raises(ValueError):
        list(itertools.islice(_bits(-1), 100))


def test_graph_basic_invariants():
    g = Graph(4, [(0, 1), (1, 2), (0, 2)])
    assert g.n == 4
    assert g.degrees == (2, 2, 2, 0)
    assert g.delta_min == 0
    assert g.delta_max == 2
    assert g.neighbors(1) == {0, 2}
    assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]
    # symmetry of adjacency
    for u in range(g.n):
        for v in g.neighbors(u):
            assert u in g.neighbors(v)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(0)


def test_vertex_set_basics():
    s = VertexSet.of([2, 0], 4)
    assert s.to_sorted_list() == [0, 2]
    assert 2 in s and 1 not in s
    assert len(s) == 2
    assert s.complement().to_sorted_list() == [1, 3]
    with pytest.raises(ValueError):
        VertexSet.of([4], 4)
    with pytest.raises(ValueError):
        VertexSet(1 << 5, 4)


def test_degree_view_path():
    g = path_graph(3)
    view = degree_view(g, VertexSet.of([0, 2], 3))
    assert view.in_degree[1] == 2
    assert view.boundary.to_sorted_list() == [1]
    assert view.induced_edges == 0


def test_degree_view_full_and_empty():
    g = cycle_graph(5)
    full = degree_view(g, g.vertices)
    assert len(full.boundary) == 0
    assert all(full.out_degree[v] == 0 for v in range(5))
    empty = degree_view(g, VertexSet(0, 5))
    assert len(empty.boundary) == 0
    assert empty.induced_edges == 0


def test_degree_view_universe_mismatch():
    with pytest.raises(ValueError):
        degree_view(path_graph(3), VertexSet.of([0], 4))


@given(graph_and_set())
def test_handshake_identity(gs):
    g, s = gs
    view = degree_view(g, s)
    assert 2 * view.induced_edges == sum(view.in_degree[v] for v in s)
    assert induced_edge_count(g, s) == view.induced_edges
    for v in range(g.n):
        assert view.in_degree[v] + view.out_degree[v] == g.degree(v)
    assert view.boundary.members == boundary_set(g, s).members


def test_induced_edge_count_examples():
    assert induced_edge_count(complete_graph(4), VertexSet.of([0], 4)) == 0
    assert induced_edge_count(complete_graph(4), complete_graph(4).vertices) == 6
    assert induced_edge_count(cycle_graph(5), VertexSet.of([0, 1, 2], 5)) == 2


# ---------------------------------------------------------------------------
# Cartesian products


def test_product_with_k1_is_identity():
    g = path_graph(4)
    assert cartesian_product(complete_graph(1), g) == g
    assert cartesian_product(g, complete_graph(1)).edge_count == g.edge_count


def test_product_p2_p2_is_c4():
    got = cartesian_product(path_graph(2), path_graph(2))
    assert got == Graph(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
    assert got.degrees == (2, 2, 2, 2)


def test_product_c4_p3_degrees():
    prod = cartesian_product(cycle_graph(4), path_graph(3))
    assert prod.n == 12
    assert sorted(prod.degrees) == [3] * 8 + [4] * 4


@given(graphs(max_order=4), graphs(max_order=4))
def test_product_degree_additivity(g1, g2):
    prod = cartesian_product(g1, g2)
    for a in range(g1.n):
        for b in range(g2.n):
            assert prod.degree(a * g2.n + b) == g1.degree(a) + g2.degree(b)


@given(graphs(max_order=4), graphs(max_order=4))
def test_product_symmetry_under_swap(g1, g2):
    left = cartesian_product(g1, g2)
    right = cartesian_product(g2, g1)
    # relabel (a,b) -> (b,a) and compare adjacency
    for a in range(g1.n):
        for b in range(g2.n):
            v = a * g2.n + b
            w = b * g1.n + a
            image = {(nb % g2.n) * g1.n + nb // g2.n for nb in left.neighbors(v)}
            assert image == right.neighbors(w)


def test_product_capacity(monkeypatch):
    # past order 24 the product is built while it fits in memory
    assert cartesian_product(star_graph(3), path_graph(7)).n == 28
    # and refused before its edge list is built when it does not
    monkeypatch.setattr(graph_mod, "_MEMORY", 1 << 20)
    k20 = complete_graph(20)
    assert refusal_peak(lambda: cartesian_product(k20, k20)) < 1 << 20
    with pytest.raises(CapacityError, match=r"order-400 product needs about \d+ bytes"):
        cartesian_product(k20, k20)


def test_memory_limit(monkeypatch):
    """The limit is at most physical memory, and a smaller cgroup limit
    takes its place; where os.sysconf is missing (it is POSIX only) there
    is none, and the rule refuses nothing."""
    physical = graph_mod.os.sysconf("SC_PHYS_PAGES") * graph_mod.os.sysconf("SC_PAGE_SIZE")
    assert 0 < graph_mod._memory_limit() <= physical
    # a smaller cgroup v2 limit wins; "max" means none is set
    for text, limit in (("1048576\n", 1 << 20), ("max\n", physical)):
        def cgroup_v2(path, text=text):
            if path != "/sys/fs/cgroup/memory.max":
                raise FileNotFoundError(path)
            return io.StringIO(text)

        monkeypatch.setattr(graph_mod, "open", cgroup_v2, raising=False)
        assert graph_mod._memory_limit() == limit
    monkeypatch.delattr(graph_mod.os, "sysconf")
    assert graph_mod._memory_limit() is None
    monkeypatch.setattr(graph_mod, "_MEMORY", None)
    graph_mod._refuse_bytes("anything", 1 << 62)
    monkeypatch.setattr(graph_mod, "_MEMORY", 1 << 20)
    graph_mod._refuse_bytes("half the memory", 1 << 19)
    with pytest.raises(CapacityError, match=r"^more than half needs about 524289 bytes"):
        graph_mod._refuse_bytes("more than half", (1 << 19) + 1)


def test_memory_limit_of_the_own_cgroup(monkeypatch):
    """Where /sys/fs/cgroup is the host's view, the limit sits on an
    ancestor of the process's own cgroup, not on the root: the smallest one
    on the path from the root counts, in the v2 and the v1 hierarchy, and
    without /proc/self/cgroup only the roots are read."""
    physical = graph_mod.os.sysconf("SC_PHYS_PAGES") * graph_mod.os.sysconf("SC_PAGE_SIZE")
    unlimited = "9223372036854771712\n"
    v2 = {"/sys/fs/cgroup/memory.max": "max\n", "/sys/fs/cgroup/jobs/memory.max": "3145728\n",
          "/sys/fs/cgroup/jobs/job7/memory.max": "max\n"}
    v1 = {"/sys/fs/cgroup/memory/memory.limit_in_bytes": unlimited,
          "/sys/fs/cgroup/memory/slice/memory.limit_in_bytes": "2097152\n",
          "/sys/fs/cgroup/memory/slice/task/memory.limit_in_bytes": unlimited}
    for own, files, limit in (
        ("0::/jobs/job7\n", v2, 3 << 20),
        ("5:cpu,cpuacct:/\n4:memory:/slice/task\n1:name=systemd:/slice\n0::/\n", v1, 2 << 20),
        ("4:memory:/slice/task\n0::/jobs/job7\n", {**v1, **v2}, 2 << 20),
        (None, {**v1, **v2}, physical),
    ):
        files = {**files, "/proc/self/cgroup": own} if own else files

        def cgroups(path, files=files):
            if path not in files:
                raise FileNotFoundError(path)
            return io.StringIO(files[path])

        monkeypatch.setattr(graph_mod, "open", cgroups, raising=False)
        assert graph_mod._memory_limit() == min(limit, physical), own


def test_projections_examples():
    a = VertexSet.of([0, 1], 4)  # {(0,0),(0,1)} with n1=n2=2
    p1, p2 = projections(a, 2, 2)
    assert p1.to_sorted_list() == [0]
    assert p2.to_sorted_list() == [0, 1]
    p1, p2 = projections(VertexSet(0, 4), 2, 2)
    assert len(p1) == 0 and len(p2) == 0
    full = VertexSet((1 << 6) - 1, 6)
    p1, p2 = projections(full, 2, 3)
    assert p1.to_sorted_list() == [0, 1]
    assert p2.to_sorted_list() == [0, 1, 2]
    with pytest.raises(ValueError):
        projections(VertexSet(0, 5), 2, 2)


def test_fiber_examples():
    a = VertexSet.of([0, 1, 2], 4)  # {(0,0),(0,1),(1,0)}, n1=n2=2
    assert fiber(a, 1, 0, 2, 2).to_sorted_list() == [0, 1]
    assert fiber(a, 1, 1, 2, 2).to_sorted_list() == [2]
    assert len(fiber(VertexSet.of([0], 4), 1, 1, 2, 2)) == 0
    full = VertexSet((1 << 6) - 1, 6)
    assert fiber(full, 2, 1, 2, 3).to_sorted_list() == [1, 4]
    with pytest.raises(ValueError):
        fiber(a, 2, 5, 2, 2)
    with pytest.raises(ValueError):
        fiber(a, 3, 0, 2, 2)


@given(graph_and_set(max_order=4))
def test_fiber_union_recovers_set(gs):
    g, _ = gs
    rng = random.Random(11)
    n1, n2 = g.n, 3
    a = VertexSet(rng.getrandbits(n1 * n2), n1 * n2)
    p1, _ = projections(a, n1, n2)
    union = 0
    for x in p1:
        union |= fiber(a, 1, x, n1, n2).mask
    assert union == a.mask


# ---------------------------------------------------------------------------
# Independence number


def _alpha_brute(g):
    for size in range(g.n, 0, -1):
        for combo in itertools.combinations(range(g.n), size):
            if all(v not in g.neighbors(u) for u, v in itertools.combinations(combo, 2)):
                return size
    return 0


def test_independence_examples():
    assert independence_number(cycle_graph(4)) == 2
    assert independence_number(star_graph(3)) == 3
    assert independence_number(path_graph(4)) == 2
    assert independence_number(Graph(3)) == 3  # edgeless: alpha equals the order


@given(graphs(max_order=7))
def test_independence_matches_brute_force(g):
    assert independence_number(g) == _alpha_brute(g)


def test_independence_capacity():
    # no order cap: branch and bound needs no 2^n table
    assert independence_number(Graph(40)) == 40
    assert independence_number(cycle_graph(33)) == 16


def test_independence_on_forests_and_matchings_takes_no_branching():
    """Order 200 path, perfect matching and random tree: a vertex with at
    most one candidate neighbour is taken without branching, so each runs
    in milliseconds; a search that branched on them would not finish."""
    script = (
        "from alliancekit import Graph, independence_number, path_graph, random_tree\n"
        "graphs = (path_graph(200), Graph(200, [(2 * i, 2 * i + 1) for i in range(100)]),"
        " random_tree(200, seed=3))\n"
        "print([independence_number(g) for g in graphs])\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=20)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[100, 100, 115]\n", "")


def test_vizing_bound_examples():
    s3, p3 = star_graph(3), path_graph(3)
    assert vizing_alpha_bound(independence_number(s3), independence_number(p3), s3, p3) == 7
    e2, e3 = Graph(2), Graph(3)
    # edgeless: n1*n2 + 0
    assert vizing_alpha_bound(independence_number(e2), independence_number(e3), e2, e3) == 6
    k2 = complete_graph(2)
    assert vizing_alpha_bound(independence_number(k2), independence_number(k2), k2, k2) == 2
    c4 = cartesian_product(complete_graph(2), complete_graph(2))
    assert independence_number(c4) == 2


def test_vizing_bound_on_random_products():
    rng = random.Random(20240810)
    for _ in range(30):
        n1 = rng.randint(2, 4)
        n2 = rng.randint(2, 5)
        g1 = random_graph(n1, rng.choice((0.3, 0.5, 0.7)), seed=rng.randrange(10**9))
        g2 = random_graph(n2, rng.choice((0.3, 0.5, 0.7)), seed=rng.randrange(10**9))
        bound = vizing_alpha_bound(independence_number(g1), independence_number(g2), g1, g2)
        alpha = independence_number(cartesian_product(g1, g2))
        assert alpha >= bound


# ---------------------------------------------------------------------------
# Families


def test_family_shapes():
    assert sorted(path_graph(3).edges()) == [(0, 1), (1, 2)]
    star = star_graph(3)
    assert star.n == 4 and star.degree(0) == 3 and star.delta_max == 3
    wheel = wheel_graph(7)
    assert wheel.n == 8 and wheel.degree(0) == 7
    grid = grid_graph(3, 4)
    assert grid.n == 12 and grid.delta_max == 4
    assert cycle_graph(5).degrees == (2,) * 5
    assert complete_graph(4).degrees == (3,) * 4


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        wheel_graph(2)
    with pytest.raises(ValueError):
        star_graph(0)
    with pytest.raises(ValueError):
        grid_graph(0, 3)
    with pytest.raises(ValueError):
        family("mystery", 3)
    with pytest.raises(ValueError):
        family("grid", 3)
    with pytest.raises(ValueError):
        family("random_tree", 5)  # missing seed


def test_family_dispatch():
    assert family("path", 3) == path_graph(3)
    assert family("grid", 2, 2) == grid_graph(2, 2)
    assert family("random_tree", 6, seed=9) == random_tree(6, 9)


def test_random_tree_is_reproducible_tree():
    for n in range(1, 10):
        t1 = random_tree(n, seed=123)
        t2 = random_tree(n, seed=123)
        assert t1 == t2
        assert t1.edge_count == n - 1
    assert random_tree(8, seed=1) != random_tree(8, seed=2)


def test_random_graph_seeded():
    assert random_graph(6, 0.5, seed=4) == random_graph(6, 0.5, seed=4)


# ---------------------------------------------------------------------------
# Edge-list I/O


def test_edge_list_vertex_count_is_refused_before_allocating(monkeypatch):
    """The per-vertex estimate covers an edgeless graph's traced peak, and a
    count whose graph would not fit is refused as soon as it is read."""
    n = 100_000
    assert traced_peak(lambda: parse_edge_list(f"{n}\n")) <= graph_mod._VERTEX_BYTES * n
    monkeypatch.setattr(graph_mod, "_MEMORY", 1 << 20)
    assert refusal_peak(lambda: parse_edge_list(f"{n}\n")) < 1 << 20
    with pytest.raises(CapacityError, match=r"^a graph of order 100000 needs about \d+ bytes"):
        parse_edge_list(f"# header\n{n}\n0 1\n")


def test_edge_list_is_refused_by_its_adjacency_ints(monkeypatch):
    """A neighbourhood int grows with the highest neighbour id: a path of
    order 3*10^4 needs about n^2/15 bytes of ints and is refused before
    they are built, while a star of the same order fits."""
    n = 30_000
    path = f"{n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1))
    star = f"{n}\n" + "".join(f"0 {i}\n" for i in range(1, n))
    monkeypatch.setattr(graph_mod, "_MEMORY", 64 << 20)
    assert refusal_peak(lambda: parse_edge_list(path)) < 32 << 20
    with pytest.raises(CapacityError, match=r"^a graph of order 30000 needs about \d+ bytes"):
        parse_edge_list(path)
    assert parse_edge_list(star).degrees[0] == n - 1


def test_family_generators_are_refused_before_their_edge_list(monkeypatch):
    monkeypatch.setattr(graph_mod, "_MEMORY", 64 << 20)
    assert refusal_peak(lambda: complete_graph(2000)) < 1 << 20
    with pytest.raises(CapacityError, match=r"^a complete graph of order 2000 needs about "):
        complete_graph(2000)
    assert star_graph(29999).n == 30_000
    assert path_graph(2000).edge_count == 1999


def test_random_graph_is_refused_before_it_draws(monkeypatch):
    """G(n, p) is sized by its expected edge count before the first draw:
    about 2*10^6 edges at p = 1 do not fit in 64 MiB, 2*10^3 do."""
    monkeypatch.setattr(graph_mod, "_MEMORY", 64 << 20)
    assert refusal_peak(lambda: random_graph(2000, 1.0, 1)) < 1 << 20
    with pytest.raises(CapacityError, match=r"^a random graph of order 2000 needs about "):
        random_graph(2000, 1.0, 1)
    assert random_graph(2000, 0.001, 1).n == 2000


def test_edge_list_round_trip(tmp_path):
    for g in (path_graph(5), wheel_graph(5), grid_graph(2, 3), random_tree(7, seed=2)):
        assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_comments_and_blanks():
    g = parse_edge_list("# a graph\n\n3\n# edge\n0 1\n1 2\n")
    assert g == path_graph(3)


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 0),  # missing vertex count
        ("x\n", 1),
        ("3\n0 0\n", 2),
        ("3\n0 3\n", 2),
        ("3\n0 1\n0 1\n", 3),
        ("3\n0 1\n1 0\n", 3),  # duplicate in other orientation
        ("3\n0 1 2\n", 2),
        ("3 4\n", 1),
        ("3\n0 1 # edge\n", 2),  # only a whole line is a comment
    ],
)
def test_edge_list_parse_errors(text, line):
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list(text)
    assert err.value.line_number == line
