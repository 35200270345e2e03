"""Undirected graph core: adjacency sets, problem instances, triangle and cycle queries."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, ItemsView


class GraphError(ValueError):
    """Contract violation on a graph operation (absent vertex/edge, self-loop, ...)."""


class ParseError(ValueError):
    """Malformed instance text; message carries the offending line number."""


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

    def adjacency(self) -> ItemsView[int, set[int]]:
        """(vertex, neighbour set) pairs in no fixed order, for whole-graph sweeps.

        The sets are the graph's own: read them, never mutate them.
        """
        return self._adj.items()

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
    adj = g._adj
    seen: set[int] = set()
    comps = []
    for s in adj:
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        stack = [s]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comp.sort()
        comps.append(comp)
    comps.sort()
    return comps


def find_bridges(g: Graph) -> set[tuple[int, int]]:
    """All cut edges, by iterative DFS low-point computation.

    The DFS walks the adjacency sets in whatever order they iterate: the
    set of bridges does not depend on the visit order, only the DFS tree
    does.
    """
    adj = g._adj
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    bridges: set[tuple[int, int]] = set()
    counter = 0
    for root in adj:
        if root in disc:
            continue
        # stack entries: (vertex, parent, iterator over its neighbours)
        disc[root] = low[root] = counter
        counter += 1
        stack = [(root, None, iter(adj[root]))]
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w not in disc:
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append((w, v, iter(adj[w])))
                    advanced = True
                    break
                elif w != parent and disc[w] < low[v]:
                    low[v] = disc[w]
                # parallel edges cannot occur in a simple graph, so a single
                # parent skip is sound
            if not advanced:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                    if low[v] > disc[pv]:
                        bridges.add(edge_key(pv, v))
    return bridges


def pack_triangles(g: Graph, apexes: Iterable[int], limit: int) -> list[tuple[int, int, int]]:
    """Greedily pack vertex-disjoint triangles, each through one apex.

    The apexes are taken in sorted order, and an apex that is already packed
    is skipped.  Apex a packs (a, u, min(common)), where u is a's first
    unpacked neighbour with unpacked common neighbours.  Packed vertices only
    ever grow, so one pass finds what restarting the scan after each triangle
    would.  Returns the triangles as soon as more than ``limit`` are packed.
    """
    used: set[int] = set()
    packed: list[tuple[int, int, int]] = []
    for a in sorted(apexes):
        if a in used:
            continue
        free = g.neighbors(a) - used
        for u in sorted(free):
            common = free & g.neighbors(u)
            if common:
                packed.append((a, u, min(common)))
                used.update(packed[-1])
                break
        if len(packed) > limit:
            break
    return packed


def find_t_triangle(g: Graph, terminals: set[int]) -> tuple[int, int, int] | None:
    """The first triangle :func:`pack_triangles` finds from the terminals, sorted; else None."""
    packed = pack_triangles(g, terminals, 0)
    return tuple(sorted(packed[0])) if packed else None


def all_t_triangles(g: Graph, terminals: set[int]) -> list[tuple[int, int, int]]:
    """Every triangle containing at least one terminal, each exactly once, sorted."""
    out: set[tuple[int, int, int]] = set()
    for t in sorted(terminals):
        if t not in g:
            raise GraphError(f"terminal {t} not in graph")
        nbrs = g.neighbors(t)
        for u in sorted(nbrs):
            for w in nbrs & g.neighbors(u):
                if u < w:
                    out.add(tuple(sorted((t, u, w))))
    return sorted(out)


def is_t_forest(g: Graph, terminals: set[int]) -> bool:
    """True iff no cycle of g passes through a terminal."""
    return find_terminal_cycle(g, terminals) is None


def find_terminal_cycle(g: Graph, terminals: set[int]) -> list[int] | None:
    """An explicit cycle through a terminal (vertex list), or None if T-forest.

    A vertex lies on a cycle exactly when one of its incident edges is not a
    bridge, so one bridge computation answers the query for every terminal.
    It runs only once a terminal of degree at least 2 turns up.
    """
    bridges = None
    for t in sorted(terminals):
        if t not in g:
            raise GraphError(f"terminal {t} not in graph")
        if g.degree(t) < 2:
            continue
        if bridges is None:
            bridges = find_bridges(g)
        for u in g.sorted_neighbors(t):
            if edge_key(t, u) not in bridges:
                # non-bridge: a t..u path survives removing the edge itself
                return shortest_path(g.without_edge(t, u), t, u, set())
    return None


def solution_defect(inst: Instance, solution: set[int]) -> tuple[str, list[int] | None] | None:
    """Why ``solution`` fails to solve ``inst``, as (reason, witness cycle); None if it solves it.

    Checked in order: vertices outside the graph, a size over the budget,
    then a terminal cycle that survives the deletion, which is the witness.
    """
    missing = sorted(v for v in solution if v not in inst.graph)
    if missing:
        return f"unknown vertices {missing}", None
    if len(solution) > inst.k:
        return f"solution size {len(solution)} exceeds budget {inst.k}", None
    remaining = inst.graph.without_vertices(solution)
    cycle = find_terminal_cycle(remaining, inst.terminals - solution)
    if cycle is not None:
        return "terminal cycle survives", cycle
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

# the problem line's n is allocated up front, so a larger n is refused
MAX_DECLARED_VERTICES = 1_000_000


def parse_instance(text: str) -> Instance:
    """Parse instance text, raising ParseError with a line number on bad input.

    One pass fills the adjacency sets directly.  The problem line allocates
    vertices 1..n, so an id is in range exactly when it is a key.  Blank
    lines and lines whose first field starts with "c" are skipped.
    """
    adj: dict[int, set[int]] | None = None
    terminals: set[int] = set()
    declared_m = 0
    declared_n = 0
    k = 0

    def fail(lineno: int, msg: str) -> None:
        raise ParseError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        tag = fields[0]
        if tag == "e":
            if adj is None:
                fail(lineno, "'e' line before the problem line")
            if len(fields) != 3:
                fail(lineno, f"malformed 'e' line {raw.strip()!r}")
            try:
                u = int(fields[1])
                v = int(fields[2])
            except ValueError:
                fail(lineno, f"non-integer vertex id in {raw.strip()!r}")
            nbrs_u = adj.get(u)
            if nbrs_u is None:
                fail(lineno, f"vertex {u} out of range 1..{declared_n}")
            nbrs_v = adj.get(v)
            if nbrs_v is None:
                fail(lineno, f"vertex {v} out of range 1..{declared_n}")
            if u == v:
                fail(lineno, f"self-loop at {u}")
            if v in nbrs_u:
                fail(lineno, f"duplicate edge ({u}, {v})")
            nbrs_u.add(v)
            nbrs_v.add(u)
        elif tag == "t":
            if adj is None:
                fail(lineno, "'t' line before the problem line")
            if len(fields) != 2:
                fail(lineno, f"malformed 't' line {raw.strip()!r}")
            try:
                t = int(fields[1])
            except ValueError:
                fail(lineno, f"non-integer vertex id in {raw.strip()!r}")
            if t not in adj:
                fail(lineno, f"vertex {t} out of range 1..{declared_n}")
            if t in terminals:
                fail(lineno, f"duplicate terminal {t}")
            terminals.add(t)
        elif tag[0] == "c":
            continue
        elif tag == "p":
            line = raw.strip()
            if adj is not None:
                fail(lineno, "duplicate problem line")
            if len(fields) != 5 or fields[1] != "sfvs":
                fail(lineno, f"expected 'p sfvs <n> <m> <k>', got {line!r}")
            try:
                declared_n, declared_m, k = (int(x) for x in fields[2:])
            except ValueError:
                fail(lineno, f"non-integer field in problem line {line!r}")
            if declared_n < 0 or declared_m < 0:
                fail(lineno, "negative vertex or edge count")
            if declared_n > MAX_DECLARED_VERTICES:
                fail(lineno, f"{declared_n} vertices exceed the cap {MAX_DECLARED_VERTICES}")
            adj = {v: set() for v in range(1, declared_n + 1)}
        else:
            fail(lineno, f"unknown line type {tag!r}")

    if adj is None:
        raise ParseError("line 0: missing problem line")
    # duplicates were refused, so every edge read added two set members
    edges_read = sum(map(len, adj.values())) // 2
    if edges_read != declared_m:
        raise ParseError(
            f"line 0: problem line declares {declared_m} edges, found {edges_read}"
        )
    graph = Graph.__new__(Graph)
    graph._adj = adj
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
