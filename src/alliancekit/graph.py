"""Graphs, vertex subsets, Cartesian products, and graph family generators.

Vertices are the integers 0..n-1.  Subsets are backed by int bitmasks so
that exhaustive subset searches stay cheap; the wrapper types below keep
the set-of-ints view for callers.  A product vertex (a, b) of G1 x G2 is
encoded as ``a * n2 + b`` everywhere (projections, boxes, witnesses).

One rule says how big is too big: work whose estimated peak is more than
half the memory the process may use is refused up front with
``CapacityError``, by a byte estimate checked before the allocation it
covers (``_refuse_bytes``).  An edge list's vertex count, a graph's
neighbourhood ints, the edge lists of the product and the family generators,
the 2^n tables of ``freesets`` and the decoding of a minimal-alliance family
go through it.
"""

from __future__ import annotations

import heapq
import os
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from .freesets import MinimalAllianceFamily


class CapacityError(Exception):
    """Exact work refused before it starts: its estimated memory exceeds the
    budget of ``_refuse_bytes``, or its order exceeds what a 2^n table
    supports."""


def _memory_limit() -> int | None:
    """The memory the process may use, in bytes: physical memory, or the
    smallest cgroup limit (v2 ``memory.max``, v1 ``memory.limit_in_bytes``)
    on the path to the process's own cgroup where one is set and smaller.
    None where ``os.sysconf`` cannot report physical memory (it is POSIX
    only)."""
    try:
        limit = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    for path in _cgroup_limit_files():
        try:
            with open(path) as f:
                text = f.read().strip()
        except OSError:
            continue
        if text.isdigit():  # v2 writes "max" when no limit is set
            limit = min(limit, int(text))
    return limit


def _cgroup_limit_files() -> Iterator[str]:
    """The memory-limit files of the cgroups from each hierarchy's root down
    to the process's own cgroup, as /proc/self/cgroup names it: the v2 line
    ``0::<path>`` and the v1 ``memory`` controller line.  A limit on any
    ancestor binds the process, and where /sys/fs/cgroup is the host's view
    (systemd scopes, batch jobs) the root has none.  Without a readable
    /proc/self/cgroup, the roots only."""
    own = {"": "", "memory": ""}
    try:
        with open("/proc/self/cgroup") as f:
            for line in f:
                _, controllers, path = line.rstrip("\n").split(":", 2)
                for controller in set(controllers.split(",")) & own.keys():
                    own[controller] = path
    except (OSError, ValueError):
        pass
    for controller, root, leaf in (
        ("", "/sys/fs/cgroup", "memory.max"),
        ("memory", "/sys/fs/cgroup/memory", "memory.limit_in_bytes"),
    ):
        yield f"{root}/{leaf}"
        for part in filter(None, own[controller].split("/")):
            root += "/" + part
            yield f"{root}/{leaf}"


#: The memory limit, read once at import; None leaves work unchecked.
_MEMORY = _memory_limit()


def _refuse_bytes(what: str, nbytes: int) -> None:
    """Raise CapacityError when an estimate of the bytes ``what`` needs
    exceeds half of _MEMORY; callers check before they allocate.  The other
    half is headroom for the interpreter, memory other processes hold, and
    the estimates' error."""
    if _MEMORY is not None and 2 * nbytes > _MEMORY:
        raise CapacityError(
            f"{what} needs about {nbytes} bytes, more than half the {_MEMORY} "
            "bytes of memory"
        )


#: Bytes a Graph takes per vertex, its edges aside: tracemalloc read 24-26
#: for edgeless graphs of order 10^3 to 2*10^6.
_VERTEX_BYTES = 32

#: Bytes an edge list takes per edge while a Graph is built from it:
#: tracemalloc peaks reached about 130.
_EDGE_BYTES = 160


def _int_bytes(top: int) -> int:
    """Bytes of a neighbourhood int whose highest bit is top: a 32-byte head
    and 4 bytes per 30 bits."""
    return 32 + top // 7


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class Graph:
    """Immutable simple undirected graph.

    ``adj_bits[v]`` is the neighbourhood of v as a bitmask.  Degrees,
    minimum and maximum degree, and the hash are computed once at
    construction.  Equal order and edges make equal graphs.  Each
    neighbourhood int grows with the highest neighbour id, so where even
    ``_int_bytes(n)`` per vertex might not fit, the graph is refused by an
    estimate from each vertex's highest neighbour before any int is built.
    """

    __slots__ = ("n", "adj_bits", "degrees", "delta_min", "delta_max", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError("graph order must be at least 1")
        if _MEMORY is not None and 2 * n * (_VERTEX_BYTES + _int_bytes(n)) > _MEMORY:
            edges = list(edges)
            top: dict[int, int] = {}
            for u, v in edges:
                top[u], top[v] = max(top.get(u, 0), v), max(top.get(v, 0), u)
            ints = sum(_int_bytes(min(t, n)) for t in top.values())
            _refuse_bytes(f"a graph of order {n}", _VERTEX_BYTES * n + ints)
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for order {n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj_bits = tuple(adj)
        self.degrees = tuple(a.bit_count() for a in adj)
        self.delta_min = min(self.degrees)
        self.delta_max = max(self.degrees)
        self._hash = hash((n, self.adj_bits))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def is_regular(self) -> bool:
        return self.delta_min == self.delta_max

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            rest = self.adj_bits[u] >> (u + 1)
            for w in _bits(rest):
                yield (u, u + 1 + w)

    @property
    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    @property
    def vertices(self) -> "VertexSet":
        return VertexSet(self.full_mask, self.n)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj_bits == other.adj_bits

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _bits(mask: int) -> Iterator[int]:
    if mask < 0:
        raise ValueError(f"negative mask {mask} has no finite set of bits")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class VertexSet:
    """A subset of the vertices of a graph of order ``universe_size``."""

    mask: int
    universe_size: int

    def __post_init__(self):
        if self.universe_size < 0:
            raise ValueError("universe size must be non-negative")
        if not 0 <= self.mask < (1 << self.universe_size):
            raise ValueError("set members out of range for the universe")

    @classmethod
    def of(cls, members: Iterable[int], universe_size: int) -> "VertexSet":
        mask = 0
        for v in members:
            if not 0 <= v < universe_size:
                raise ValueError(f"vertex {v} out of range for universe of size {universe_size}")
            mask |= 1 << v
        return cls(mask, universe_size)

    def to_sorted_list(self) -> list[int]:
        return list(_bits(self.mask))

    def complement(self) -> "VertexSet":
        full = (1 << self.universe_size) - 1
        return VertexSet(full & ~self.mask, self.universe_size)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.universe_size and bool(self.mask >> v & 1)

    def __iter__(self) -> Iterator[int]:
        return _bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __repr__(self) -> str:
        return f"VertexSet({self.to_sorted_list()}, n={self.universe_size})"


def _check_universe(g: Graph | MinimalAllianceFamily, s: VertexSet) -> None:
    """Refuse a set whose universe is not the order of g."""
    if s.universe_size != g.n:
        raise ValueError(f"set universe {s.universe_size} does not match graph order {g.n}")


@dataclass(frozen=True)
class SetDegreeView:
    """Per-vertex split degrees of a subset S: inside S, outside S, the
    boundary of S, and the number of edges induced by S."""

    in_degree: dict[int, int]
    out_degree: dict[int, int]
    boundary: VertexSet
    induced_edges: int


def degree_view(g: Graph, s: VertexSet) -> SetDegreeView:
    """Split degrees of every vertex v of g against s: d_S(v) inside s and
    d_notS(v) outside it; with the boundary N(S) minus S and the number of
    edges induced by s."""
    _check_universe(g, s)
    in_deg = {v: (g.adj_bits[v] & s.mask).bit_count() for v in range(g.n)}
    out_deg = {v: g.degrees[v] - in_deg[v] for v in range(g.n)}
    boundary = sum(1 << v for v in range(g.n) if v not in s and in_deg[v])
    induced = sum(in_deg[v] for v in s) // 2
    return SetDegreeView(in_deg, out_deg, VertexSet(boundary, g.n), induced)


# ---------------------------------------------------------------------------
# Cartesian products


def product_vertex(a: int, b: int, n2: int) -> int:
    return a * n2 + b


def product_coords(v: int, n2: int) -> tuple[int, int]:
    return divmod(v, n2)


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian product: (a,b) ~ (c,d) iff a=c and b~d, or b=d and a~c.

    The degree of (a,b) is deg(a) + deg(b).  Vertex (a,b) gets id a*n2+b.
    Refused with CapacityError when the edge list and adjacency would not
    fit in memory.
    """
    n1, n2 = g1.n, g2.n
    n, m = n1 * n2, n1 * g2.edge_count + n2 * g1.edge_count
    _refuse_bytes(f"the order-{n} product", _EDGE_BYTES * m + n * (_VERTEX_BYTES + _int_bytes(n)))
    edges = []
    for a in range(n1):
        for (b, d) in g2.edges():
            edges.append((a * n2 + b, a * n2 + d))
    for (a, c) in g1.edges():
        for b in range(n2):
            edges.append((a * n2 + b, c * n2 + b))
    return Graph(n, edges)


def projections(a: VertexSet, n1: int, n2: int) -> tuple[VertexSet, VertexSet]:
    """Project a set of product vertices onto each factor."""
    if a.universe_size != n1 * n2:
        raise ValueError(f"set universe {a.universe_size} is not {n1}*{n2}")
    p1 = 0
    p2 = 0
    for v in _bits(a.mask):
        x, y = divmod(v, n2)
        p1 |= 1 << x
        p2 |= 1 << y
    return VertexSet(p1, n1), VertexSet(p2, n2)


def factor_box(s1: VertexSet, s2: VertexSet) -> VertexSet:
    """S1 x S2 as a set of encoded product vertices."""
    n2 = s2.universe_size
    mask = 0
    for a in _bits(s1.mask):
        for b in _bits(s2.mask):
            mask |= 1 << (a * n2 + b)
    return VertexSet(mask, s1.universe_size * n2)


# ---------------------------------------------------------------------------
# Independence number (exact)


def independence_number(g: Graph) -> int:
    """Exact independence number by branch and bound over vertex bitmasks.
    A candidate with at most one neighbour left among the candidates lies in
    some maximum independent set of them, so it is taken without branching;
    forests and matchings never branch.  Otherwise the search branches on a
    candidate of highest degree, and its time, not its memory, can grow
    exponentially with the order."""
    adj = g.adj_bits
    best = 0

    def grab(cand: int, size: int) -> None:
        nonlocal best
        while True:
            if size + cand.bit_count() <= best:
                return
            if cand == 0:
                best = size
                return
            # take a vertex of candidate degree <= 1, else branch on one of
            # highest candidate degree
            pick, pick_deg = -1, -1
            m = cand
            while m:
                low = m & -m
                v = low.bit_length() - 1
                d = (adj[v] & cand).bit_count()
                if d <= 1:
                    cand &= ~(adj[v] | low)
                    size += 1
                    break
                if d > pick_deg:
                    pick, pick_deg = v, d
                m ^= low
            else:
                grab(cand & ~(adj[pick] | (1 << pick)), size + 1)
                cand &= ~(1 << pick)

    grab(g.full_mask, 0)
    return best


def vizing_alpha_bound(a1: int, a2: int, g1: Graph, g2: Graph) -> int:
    """a1*a2 + min(n1-a1, n2-a2), the box-plus-diagonal count: with a_i the
    independence numbers it bounds the independence number of G1 x G2 from
    below, and with a_i the phi values of the factors it bounds phi of the
    product (CoroTh1 (ii), defensive and powerful)."""
    return a1 * a2 + min(g1.n - a1, g2.n - a2)


# ---------------------------------------------------------------------------
# Graph families (canonical labelings documented per family).  Each generator
# is refused before its edge list is built when the list would not fit.


def _refuse_family(name: str, n: int, m: int) -> None:
    _refuse_bytes(f"a {name} graph of order {n}", _EDGE_BYTES * m + _VERTEX_BYTES * n)


def path_graph(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    _refuse_family("path", n, n - 1)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0; needs n >= 3."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    _refuse_family("cycle", n, n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(t: int) -> Graph:
    """Star with t leaves (order t+1); the center is vertex 0."""
    if t < 1:
        raise ValueError("star needs at least 1 leaf")
    _refuse_family("star", t + 1, t)
    return Graph(t + 1, [(0, i) for i in range(1, t + 1)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    _refuse_family("complete", n, n * (n - 1) // 2)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, edges)


def wheel_graph(t: int) -> Graph:
    """Wheel with t rim vertices (order t+1); the hub is vertex 0."""
    if t < 3:
        raise ValueError("wheel rim needs at least 3 vertices")
    _refuse_family("wheel", t + 1, 2 * t)
    edges = [(0, i) for i in range(1, t + 1)]
    edges += [(i, i % t + 1) for i in range(1, t + 1)]
    return Graph(t + 1, edges)


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols grid; vertex (i,j) is i*cols+j.  Planar and triangle-free."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs positive dimensions")
    _refuse_family("grid", rows * cols, rows * (cols - 1) + cols * (rows - 1))
    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((i * cols + j, i * cols + j + 1))
            if i + 1 < rows:
                edges.append((i * cols + j, (i + 1) * cols + j))
    return Graph(rows * cols, edges)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree via a seeded Pruefer sequence."""
    if n < 1:
        raise ValueError("tree needs at least 1 vertex")
    _refuse_family("random tree", n, n - 1)
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        v = heapq.heappop(leaves)
        edges.append((v, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph(n, edges)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi G(n, p)."""
    if n < 1:
        raise ValueError("graph needs at least 1 vertex")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    return _gnp(random.Random(seed), n, p)


def _gnp(rng: random.Random, n: int, p: float) -> Graph:
    """G(n, p) drawn from ``rng``: one ``rng.random()`` per vertex pair, in
    lexicographic pair order.  Refused by its expected edge count before
    the first draw."""
    _refuse_family("random", n, round(p * n * (n - 1) / 2))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


#: family name -> (generator, number of integer parameters)
_FAMILIES = {
    "path": (path_graph, 1),
    "cycle": (cycle_graph, 1),
    "star": (star_graph, 1),
    "complete": (complete_graph, 1),
    "wheel": (wheel_graph, 1),
    "grid": (grid_graph, 2),
    "random_tree": (random_tree, 1),
}


def family(kind: str, *params: int, seed: int | None = None) -> Graph:
    """Dispatch to a named family generator; ``random_tree`` needs ``seed``."""
    if kind not in _FAMILIES:
        raise ValueError(f"unknown family {kind!r}; choose from {sorted(_FAMILIES)}")
    generator, arity = _FAMILIES[kind]
    if len(params) != arity:
        raise ValueError(f"family {kind!r} takes {arity} parameter(s)")
    if kind == "random_tree":
        if seed is None:
            raise ValueError("random_tree requires a seed")
        params += (seed,)
    return generator(*params)


# ---------------------------------------------------------------------------
# Edge-list I/O
#
# Format: first non-comment line is the vertex count; each following line is
# "u v" with 0-based ids; lines starting with '#' are comments.  Duplicate
# and self-loop edges are rejected.


def parse_edge_list(text: str) -> Graph:
    n = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise EdgeListParseError("expected a single vertex count", lineno)
            try:
                n = int(parts[0])
            except ValueError:
                raise EdgeListParseError(f"bad vertex count {parts[0]!r}", lineno) from None
            if n < 1:
                raise EdgeListParseError("vertex count must be positive", lineno)
            _refuse_bytes(f"a graph of order {n}", _VERTEX_BYTES * n)
            continue
        if len(parts) != 2:
            raise EdgeListParseError("expected 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"bad edge {line!r}", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(f"edge ({u},{v}) out of range for order {n}", lineno)
        if u == v:
            raise EdgeListParseError(f"self-loop at vertex {u}", lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise EdgeListParseError(f"duplicate edge ({u},{v})", lineno)
        seen.add(key)
        edges.append((u, v))
    if n is None:
        raise EdgeListParseError("missing vertex count", 0)
    return Graph(n, edges)


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def format_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
