"""Definition-level brute-force checkers used to derive and cross-check test expectations.

Everything here is deliberately naive (subset enumeration, exhaustive search) and
independent of the package's algorithms, so the two can disagree only if one side
is wrong.
"""

from __future__ import annotations

import random
from itertools import combinations

from sfvs.graph import MAX_DECLARED_VERTICES, Graph, Instance, ParseError, edge_key


def subsets(items, min_size=0, max_size=None):
    items = sorted(items)
    if max_size is None:
        max_size = len(items)
    for size in range(min_size, max_size + 1):
        yield from combinations(items, size)


def induces_cycle(g: Graph, vs) -> bool:
    """True iff g[vs] is exactly one cycle: connected, every degree 2, |vs| >= 3."""
    vs = set(vs)
    if len(vs) < 3:
        return False
    for v in vs:
        if len(g.neighbors(v) & vs) != 2:
            return False
    start = next(iter(vs))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in g.neighbors(v) & vs:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vs


def vertex_on_cycle(g: Graph, v: int) -> bool:
    """True iff some cycle passes through v (shortest such cycle is chordless,
    so checking induced cycles over subsets containing v is exhaustive)."""
    others = [u for u in g.vertices() if u != v]
    for size in range(2, len(others) + 1):
        for rest in combinations(others, size):
            if induces_cycle(g, set(rest) | {v}):
                return True
    return False


def is_t_forest(g: Graph, terminals) -> bool:
    return not any(vertex_on_cycle(g, t) for t in terminals)


def bridges(g: Graph) -> set[tuple[int, int]]:
    out = set()
    for u, v in g.edges():
        h = g.without_edge(u, v)
        seen = {u}
        stack = [u]
        reached = False
        while stack:
            x = stack.pop()
            if x == v:
                reached = True
                break
            for w in h.neighbors(x):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if not reached:
            out.add(edge_key(u, v))
    return out


def triangles_through_terminals(g: Graph, terminals) -> set[tuple[int, int, int]]:
    out = set()
    for trio in combinations(g.vertices(), 3):
        a, b, c = trio
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
            if set(trio) & set(terminals):
                out.add(trio)
    return out


def maximal_cliques(g: Graph) -> set[frozenset[int]]:
    cliques = [set(s) for s in subsets(g.vertices(), min_size=1) if g.is_clique(s)]
    return {
        frozenset(c)
        for c in cliques
        if not any(c < d for d in cliques)
    }


def is_chordal(g: Graph) -> bool:
    vs = g.vertices()
    for size in range(4, len(vs) + 1):
        for s in combinations(vs, size):
            if induces_cycle(g, s):
                return False
    return True


def mcs_visit_order(g: Graph) -> list[int]:
    """Maximum cardinality search by a full scan per step: heaviest unvisited
    vertex, lowest id on ties.  Theta(n^2), kept as the reference order."""
    weight = {v: 0 for v in g.vertices()}
    order: list[int] = []
    visited: set[int] = set()
    for _ in range(g.n):
        v = max(weight, key=lambda x: (weight[x], -x))
        del weight[v]
        visited.add(v)
        order.append(v)
        for w in g.neighbors(v):
            if w not in visited:
                weight[w] += 1
    return order


def isolated_vertices(g: Graph) -> list[int]:
    """Vertices of degree 0, sorted."""
    return [v for v in g.vertices() if g.degree(v) == 0]


def lonely_vertices(g: Graph, terminals) -> list[int]:
    """Non-terminals none of whose neighbours is a terminal, sorted."""
    return [
        v for v in g.vertices()
        if v not in terminals and not any(w in terminals for w in g.neighbors(v))
    ]


def pendant_edges(g: Graph, indep_side) -> set[tuple[int, int]]:
    """Edges whose independent-side end has degree 1, as sorted pairs."""
    return {edge_key(u, i) for i in indep_side for u in g.neighbors(i) if g.degree(i) == 1}


def parse_instance(text: str) -> Instance:
    """The per-line instance parser, kept as the reference: it builds the
    graph through Graph.add_vertex/add_edge and range-checks ids numerically.
    Same accepted texts, same instances and same ParseError messages as
    sfvs.graph.parse_instance."""
    graph: Graph | None = None
    terminals: set[int] = set()
    declared_m = 0
    declared_n = 0
    k = 0
    edges_read = 0

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
            if declared_n > MAX_DECLARED_VERTICES:
                fail(lineno, f"{declared_n} vertices exceed the cap {MAX_DECLARED_VERTICES}")
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
                if graph.has_edge(u, v):
                    fail(lineno, f"duplicate edge ({u}, {v})")
                graph.add_edge(u, v)
                edges_read += 1
            else:
                if ids[0] in terminals:
                    fail(lineno, f"duplicate terminal {ids[0]}")
                terminals.add(ids[0])
        else:
            fail(lineno, f"unknown line type {tag!r}")

    if graph is None:
        raise ParseError("line 0: missing problem line")
    if edges_read != declared_m:
        raise ParseError(
            f"line 0: problem line declares {declared_m} edges, found {edges_read}"
        )
    return Instance(graph, terminals, k)


def mcs_maximal_cliques(g: Graph) -> list[frozenset[int]]:
    """Maximal cliques in search discovery order: for each vertex of the
    full-scan visit order, {v} union its earlier-visited neighbors, kept when
    it equals the intersection of its members' closed neighborhoods (the
    definition of maximality).  Kept as the reference clique order."""
    order = mcs_visit_order(g)
    pos = {v: i for i, v in enumerate(order)}
    out: list[frozenset[int]] = []
    for v in order:
        cand = {w for w in g.neighbors(v) if pos[w] < pos[v]} | {v}
        common: set[int] | None = None
        for x in cand:
            closed = g.neighbors(x) | {x}
            common = closed if common is None else common & closed
        if common == cand:
            out.append(frozenset(cand))
    return out


def clique_tree_edges(cliques) -> list[tuple[int, int]]:
    """Link each clique to the earlier one with the largest intersection,
    lowest index on ties, by comparing against every earlier clique."""
    return [
        (max(range(i), key=lambda j: (len(cliques[i] & cliques[j]), -j)), i)
        for i in range(1, len(cliques))
    ]


def split_partitions(g: Graph) -> list[tuple[set[int], set[int]]]:
    """All (clique side, independent side) partitions; empty list iff not split."""
    vs = g.vertices()
    out = []
    for kside in subsets(vs):
        kset = set(kside)
        iset = set(vs) - kset
        if g.is_clique(kset) and not any(
            g.has_edge(u, v) for u, v in combinations(sorted(iset), 2)
        ):
            out.append((kset, iset))
    return out


def min_subset_fvs(g: Graph, terminals, cap=None) -> set[int] | None:
    """Smallest vertex set whose removal leaves a T-forest; None if cap exceeded."""
    vs = g.vertices()
    top = len(vs) if cap is None else min(cap, len(vs))
    for size in range(top + 1):
        for s in combinations(vs, size):
            if is_t_forest(g.without_vertices(s), set(terminals) - set(s)):
                return set(s)
    return None


def kernel_packing(g: Graph, kside, iside, k) -> set[int] | None:
    """The split kernel's greedy packing, rescanning from the start after each
    triangle: the least independent vertex outside the packing with two free
    clique-side neighbours joins it with the least two of them.  None once
    more than k triangles are packed, else the packed vertices."""
    s_tilde: set[int] = set()
    while len(s_tilde) <= 3 * k:
        found = None
        for v in sorted(set(iside) - s_tilde):
            avail = sorted((g.neighbors(v) & set(kside)) - s_tilde)
            if len(avail) >= 2:
                found = (v, avail[0], avail[1])
                break
        if found is None:
            break
        s_tilde |= set(found)
    return None if len(s_tilde) > 3 * k else s_tilde


def min_vertex_cover_size(g: Graph) -> int:
    vs = g.vertices()
    for size in range(len(vs) + 1):
        for s in combinations(vs, size):
            ss = set(s)
            if all(u in ss or v in ss for u, v in g.edges()):
                return size
    return len(vs)


def hitting_set_decision(universe, sets, budget) -> bool:
    sets = [set(s) for s in sets]
    for size in range(min(budget, len(universe)) + 1):
        for s in combinations(sorted(universe), size):
            ss = set(s)
            if all(ss & x for x in sets):
                return True
    return False


# random instance builders (seeded, test-local)


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    g = Graph(range(1, n + 1))
    for u, v in combinations(range(1, n + 1), 2):
        if rng.random() < p:
            g.add_edge(u, v)
    return g


def random_instance(n: int, p: float, tf: float, k: int, rng: random.Random) -> Instance:
    g = random_graph(n, p, rng)
    terms = {v for v in g.vertices() if rng.random() < tf}
    return Instance(g, terms, k)
