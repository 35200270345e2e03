"""Exact subset-enumeration baselines: decision oracle and vertex-cover
reduction. Deliberately simple; guarded by an instance-size cap."""

from __future__ import annotations

from itertools import combinations

from .chordal import chordality_order
from .graph import Graph, Instance, all_t_triangles

ORACLE_VERTEX_CAP = 24


class OracleGuardError(ValueError):
    """Instance too large for subset enumeration."""


def oracle_decide(inst: Instance, max_n: int = ORACLE_VERTEX_CAP) -> tuple[bool, set[int] | None]:
    """Exact decision plus a minimum-size, lexicographically least witness.

    Subsets are tried by increasing size, then in lexicographic vertex order.
    Chordal inputs use precomputed terminal-triangle bitmasks; everything else
    falls back to a per-subset cycle check.
    """
    n = inst.graph.n
    if n > max_n:
        raise OracleGuardError(f"|V| = {n} exceeds the oracle cap {max_n}")
    inst.validate()
    if inst.k < 0:
        return False, None
    if chordality_order(inst.graph) is not None:
        return _decide_triangles(inst)
    return _decide_cycles(inst)


def _decide_triangles(inst: Instance) -> tuple[bool, set[int] | None]:
    order = inst.graph.vertices()
    bit = {v: 1 << i for i, v in enumerate(order)}
    masks = [
        bit[a] | bit[b] | bit[c]
        for a, b, c in all_t_triangles(inst.graph, inst.terminals)
    ]
    if not masks:
        return True, set()
    for size in range(1, min(inst.k, len(order)) + 1):
        for combo in combinations(order, size):
            s_mask = 0
            for v in combo:
                s_mask |= bit[v]
            if all(m & s_mask for m in masks):
                return True, set(combo)
    return False, None


def _decide_cycles(inst: Instance) -> tuple[bool, set[int] | None]:
    order = inst.graph.vertices()
    for size in range(min(inst.k, len(order)) + 1):
        for combo in combinations(order, size):
            removed = set(combo)
            g = inst.graph.without_vertices(removed)
            if not any(_on_cycle(g, t) for t in inst.terminals - removed):
                return True, removed
    return False, None


def _on_cycle(g: Graph, v: int) -> bool:
    """True iff two neighbors of v stay connected once v is removed."""
    nbrs = g.sorted_neighbors(v)
    if len(nbrs) < 2:
        return False
    start, rest = nbrs[0], set(nbrs[1:])
    while True:
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for w in g.neighbors(x):
                if w != v and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if rest & seen:
            return True
        if not rest:
            return False
        start = min(rest)
        rest -= {start}


def vc_to_sfvs(g: Graph, k: int) -> Instance:
    """Vertex cover instance recast as subset feedback vertex set on a split graph.

    Original vertices become a clique; every original edge gets one fresh
    degree-2 terminal adjacent to its endpoints. Covers of size k correspond
    exactly to solutions of size k.
    """
    vs = g.vertices()
    out = Graph(vs)
    for i, u in enumerate(vs):
        for w in vs[i + 1 :]:
            out.add_edge(u, w)
    nxt = max(vs, default=0) + 1
    terminals = set()
    for u, w in g.edges():
        out.add_vertex(nxt)
        out.add_edge(nxt, u)
        out.add_edge(nxt, w)
        terminals.add(nxt)
        nxt += 1
    return Instance(out, terminals, k)
