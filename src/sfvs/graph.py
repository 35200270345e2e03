"""Undirected graph core: adjacency sets, problem instances, triangle and cycle queries."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


class GraphError(ValueError):
    """Contract violation on a graph operation (absent vertex/edge, self-loop, ...)."""


class ParseError(ValueError):
    """Malformed instance text; message carries the offending line number."""


class Triangle(tuple):
    """Three pairwise-adjacent vertices, stored in sorted order."""

    __slots__ = ()

    def __new__(cls, u: int, v: int, w: int) -> "Triangle":
        if len({u, v, w}) != 3:
            raise GraphError(f"triangle vertices must be distinct: {(u, v, w)}")
        return super().__new__(cls, sorted((u, v, w)))

    @property
    def a(self) -> int:
        return self[0]

    @property
    def b(self) -> int:
        return self[1]

    @property
    def c(self) -> int:
        return self[2]


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph over integer vertex ids.

    Adjacency is kept as sets; every operation that cares about order iterates
    sorted copies so rule applications stay deterministic. Deleting an absent
    vertex or edge raises GraphError rather than passing silently.
    """

    __slots__ = ("_adj",)

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        self._adj: dict[int, set[int]] = {}
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.add_vertex(u)
            self.add_vertex(v)
            self.add_edge(u, v)

    # construction

    def add_vertex(self, v: int) -> None:
        if v not in self._adj:
            self._adj[v] = set()

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise GraphError(f"self-loop at {u}")
        if u not in self._adj or v not in self._adj:
            raise GraphError(f"edge ({u}, {v}) references an absent vertex")
        self._adj[u].add(v)
        self._adj[v].add(u)

    # queries

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def vertex_set(self) -> set[int]:
        return set(self._adj)

    def vertices(self) -> list[int]:
        return sorted(self._adj)

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: int) -> set[int]:
        if v not in self._adj:
            raise GraphError(f"absent vertex {v}")
        return self._adj[v]

    def sorted_neighbors(self, v: int) -> list[int]:
        return sorted(self.neighbors(v))

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def edges(self) -> list[tuple[int, int]]:
        return sorted(
            (v, w) for v, nbrs in self._adj.items() for w in nbrs if v < w
        )

    def is_clique(self, vs: Iterable[int]) -> bool:
        vl = list(vs)
        for i, u in enumerate(vl):
            nbrs = self.neighbors(u)
            for w in vl[i + 1 :]:
                if w not in nbrs:
                    return False
        return True

    # mutation

    def remove_vertex(self, v: int) -> None:
        if v not in self._adj:
            raise GraphError(f"cannot delete absent vertex {v}")
        for w in self._adj.pop(v):
            self._adj[w].discard(v)

    def remove_vertices(self, vs: Iterable[int]) -> None:
        for v in sorted(set(vs)):
            self.remove_vertex(v)

    def remove_edge(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise GraphError(f"cannot delete absent edge ({u}, {v})")
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    # copies

    def copy(self) -> "Graph":
        g = Graph.__new__(Graph)
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        return g

    def without_vertices(self, vs: Iterable[int]) -> "Graph":
        g = self.copy()
        g.remove_vertices(vs)
        return g

    def without_edge(self, u: int, v: int) -> "Graph":
        g = self.copy()
        g.remove_edge(u, v)
        return g

    def induced(self, keep: Iterable[int]) -> "Graph":
        ks = set(keep)
        missing = ks - set(self._adj)
        if missing:
            raise GraphError(f"induced subgraph references absent vertices {sorted(missing)}")
        g = Graph.__new__(Graph)
        g._adj = {v: self._adj[v] & ks for v in ks}
        return g

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass
class Instance:
    """A graph with a terminal set and a deletion budget."""

    graph: Graph
    terminals: set[int] = field(default_factory=set)
    k: int = 0

    def validate(self) -> None:
        stray = self.terminals - self.graph.vertex_set()
        if stray:
            raise GraphError(f"terminals outside the graph: {sorted(stray)}")

    def copy(self) -> "Instance":
        return Instance(self.graph.copy(), set(self.terminals), self.k)

    def remove_vertices(self, vs: Iterable[int]) -> None:
        vs = set(vs)
        self.graph.remove_vertices(vs)
        self.terminals -= vs

    def __repr__(self) -> str:
        return f"Instance(n={self.graph.n}, m={self.graph.m}, t={len(self.terminals)}, k={self.k})"


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest member."""
    seen: set[int] = set()
    comps = []
    for s in g.vertices():
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        stack = [s]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def find_bridges(g: Graph) -> set[tuple[int, int]]:
    """All cut edges, by iterative DFS low-point computation."""
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    bridges: set[tuple[int, int]] = set()
    counter = 0
    for root in g.vertices():
        if root in disc:
            continue
        # stack entries: (vertex, parent, iterator over sorted neighbors)
        disc[root] = low[root] = counter
        counter += 1
        stack = [(root, None, iter(g.sorted_neighbors(root)))]
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w not in disc:
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append((w, v, iter(g.sorted_neighbors(w))))
                    advanced = True
                    break
                elif w != parent:
                    low[v] = min(low[v], disc[w])
                # parallel edges cannot occur in a simple graph, so a single
                # parent skip is sound
            if not advanced:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if low[v] > disc[pv]:
                        bridges.add(edge_key(pv, v))
    return bridges


def find_t_triangle(g: Graph, terminals: set[int]) -> Triangle | None:
    """First triangle through a terminal, scanning ids in sorted order."""
    for t in sorted(terminals):
        if t not in g:
            raise GraphError(f"terminal {t} not in graph")
        nbrs = g.neighbors(t)
        for u in sorted(nbrs):
            common = nbrs & g.neighbors(u)
            if common:
                return Triangle(t, u, min(common))
    return None


def all_t_triangles(g: Graph, terminals: set[int]) -> list[Triangle]:
    """Every triangle containing at least one terminal, each exactly once, sorted."""
    out: set[Triangle] = set()
    for t in sorted(terminals):
        if t not in g:
            raise GraphError(f"terminal {t} not in graph")
        nbrs = g.neighbors(t)
        for u in sorted(nbrs):
            for w in nbrs & g.neighbors(u):
                if u < w:
                    out.add(Triangle(t, u, w))
    return sorted(out)


def is_t_forest(g: Graph, terminals: set[int]) -> bool:
    """True iff no cycle of g passes through a terminal.

    A vertex lies on a cycle exactly when one of its incident edges is not a
    bridge, so one bridge computation answers the query for every terminal.
    """
    bridges = None
    for t in sorted(terminals):
        if t not in g:
            raise GraphError(f"terminal {t} not in graph")
        if g.degree(t) < 2:
            continue
        if bridges is None:
            bridges = find_bridges(g)
        for u in g.neighbors(t):
            if edge_key(t, u) not in bridges:
                return False
    return True


def find_terminal_cycle(g: Graph, terminals: set[int]) -> list[int] | None:
    """An explicit cycle through a terminal (vertex list), or None if T-forest."""
    bridges = find_bridges(g)
    for t in sorted(terminals):
        if t not in g:
            raise GraphError(f"terminal {t} not in graph")
        for u in g.sorted_neighbors(t):
            if edge_key(t, u) in bridges:
                continue
            # non-bridge: a t..u path survives removing the edge itself
            path = shortest_path(g.without_edge(t, u), t, u, set())
            if path is not None:
                return path
    return None


def shortest_path(g: Graph, s: int, goal: int, banned: set[int]) -> list[int] | None:
    """A shortest s..goal path avoiding the banned vertices, or None.

    Breadth-first over sorted neighbours, so ties resolve to the same path
    on every run.
    """
    prev: dict[int, int | None] = {s: None}
    queue = [s]
    while queue:
        nxt: list[int] = []
        for v in queue:
            for w in g.sorted_neighbors(v):
                if w in banned or w in prev:
                    continue
                prev[w] = v
                if w == goal:
                    path = [w]
                    cur: int | None = v
                    while cur is not None:
                        path.append(cur)
                        cur = prev[cur]
                    path.reverse()
                    return path
                nxt.append(w)
        queue = nxt
    return None


def lonely_vertices(inst: Instance) -> list[int]:
    """Non-terminals with no terminal neighbour, sorted.

    Every cycle through such a vertex can be rerouted off it, so it is never
    needed in a solution and never needed to witness one.  Loneliness
    depends only on adjacency to terminals, so deleting lonely vertices
    leaves every other lonely vertex lonely and all can go in one step.
    """
    g, terminals = inst.graph, inst.terminals
    return [v for v in g.vertices() if v not in terminals and not (g.neighbors(v) & terminals)]


def trivial_answer(inst: Instance) -> str | None:
    """Decide an instance that needs no search ("yes"/"no"), else None.

    In order: a negative budget means no; no terminal triangle means yes,
    since in a chordal graph (split graphs included) every terminal cycle
    spans a terminal triangle; an exhausted budget facing a terminal
    triangle means no.
    """
    if inst.k < 0:
        return "no"
    if find_t_triangle(inst.graph, inst.terminals) is None:
        return "yes"
    if inst.k == 0:
        return "no"
    return None


# instance text format:
#   c <comment>
#   p sfvs <n> <m> <k>
#   e <u> <v>
#   t <v>
# vertices are 1..n; duplicate edges, self-loops and out-of-range ids are rejected.


def parse_instance(text: str) -> Instance:
    """Parse instance text, raising ParseError with a line number on bad input."""
    graph: Graph | None = None
    terminals: set[int] = set()
    declared_m = 0
    declared_n = 0
    k = 0
    seen_edges: set[tuple[int, int]] = set()

    def fail(lineno: int, msg: str) -> None:
        raise ParseError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "p":
            if graph is not None:
                fail(lineno, "duplicate problem line")
            if len(fields) != 5 or fields[1] != "sfvs":
                fail(lineno, f"expected 'p sfvs <n> <m> <k>', got {line!r}")
            try:
                declared_n, declared_m, k = (int(x) for x in fields[2:])
            except ValueError:
                fail(lineno, f"non-integer field in problem line {line!r}")
            if declared_n < 0 or declared_m < 0:
                fail(lineno, "negative vertex or edge count")
            graph = Graph(range(1, declared_n + 1))
        elif tag in ("e", "t"):
            if graph is None:
                fail(lineno, f"'{tag}' line before the problem line")
            want = 3 if tag == "e" else 2
            if len(fields) != want:
                fail(lineno, f"malformed '{tag}' line {line!r}")
            try:
                ids = [int(x) for x in fields[1:]]
            except ValueError:
                fail(lineno, f"non-integer vertex id in {line!r}")
            for v in ids:
                if not 1 <= v <= declared_n:
                    fail(lineno, f"vertex {v} out of range 1..{declared_n}")
            if tag == "e":
                u, v = ids
                if u == v:
                    fail(lineno, f"self-loop at {u}")
                if edge_key(u, v) in seen_edges:
                    fail(lineno, f"duplicate edge ({u}, {v})")
                seen_edges.add(edge_key(u, v))
                graph.add_edge(u, v)
            else:
                if ids[0] in terminals:
                    fail(lineno, f"duplicate terminal {ids[0]}")
                terminals.add(ids[0])
        else:
            fail(lineno, f"unknown line type {tag!r}")

    if graph is None:
        raise ParseError("line 0: missing problem line")
    if len(seen_edges) != declared_m:
        raise ParseError(
            f"line 0: problem line declares {declared_m} edges, found {len(seen_edges)}"
        )
    return Instance(graph, terminals, k)


def format_instance(inst: Instance) -> str:
    """Serialize deterministically; vertex ids are renumbered to 1..n in sorted order."""
    order = inst.graph.vertices()
    rank = {v: i + 1 for i, v in enumerate(order)}
    lines = [f"p sfvs {len(order)} {inst.graph.m} {inst.k}"]
    lines += [
        f"e {u} {v}"
        for u, v in sorted(edge_key(rank[a], rank[b]) for a, b in inst.graph.edges())
    ]
    lines += [f"t {t}" for t in sorted(rank[x] for x in inst.terminals)]
    return "\n".join(lines) + "\n"
