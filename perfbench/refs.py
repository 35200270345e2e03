"""Reference answers computed independently of the ``sfvs`` package.

Everything here works on a plain adjacency dict read straight from the
instance text, so a defect in the package's parser, graph core or rules
cannot leak into the expected answers the benchmark checks against.

The certificates used:

- a greedy vertex-disjoint packing of terminal triangles; more than ``k``
  of them certify NO, because every triangle needs its own deleted vertex;
- on split graphs, also the bound ``min(c - 2, |T_K| + packing(G - T_K))``:
  either at most two clique vertices survive, or every clique-side terminal
  is deleted and the packing left over still needs one vertex per triangle;
- on split graphs, an explicit solution (verified by :func:`is_solution`)
  of size at most ``k`` certifies YES;
- for vertex-cover reductions, the exact minimum cover of the source graph,
  read back from the terminals (each terminal's two neighbours are one
  source edge).

On chordal graphs a vertex lies on a cycle exactly when it lies on a
triangle, so "no terminal triangle survives" is the whole SFVS condition.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Plain:
    """An instance as read from its text: adjacency sets, terminals, budget."""

    adj: dict[int, set[int]]
    terminals: set[int]
    k: int


def read_text(text: str) -> Plain:
    """Read the ``p sfvs`` / ``e`` / ``t`` format into adjacency sets."""
    adj: dict[int, set[int]] = {}
    terminals: set[int] = set()
    k = None
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            adj = {v: set() for v in range(1, int(fields[2]) + 1)}
            k = int(fields[4])
        elif fields[0] == "e":
            u, v = int(fields[1]), int(fields[2])
            adj[u].add(v)
            adj[v].add(u)
        elif fields[0] == "t":
            terminals.add(int(fields[1]))
        else:
            raise ValueError(f"unexpected line {line!r}")
    if k is None:
        raise ValueError("instance text has no problem line")
    return Plain(adj, terminals, k)


def terminal_triangle(adj: dict[int, set[int]], terminals: set[int], removed=frozenset()):
    """Some terminal triangle avoiding ``removed``, or None."""
    for t in sorted(terminals - set(removed)):
        nbrs = adj[t] - removed
        for u in sorted(nbrs):
            common = (adj[u] & nbrs) - removed
            if common:
                return (t, u, min(common))
    return None


def is_solution(p: Plain, solution) -> bool:
    """True iff ``solution`` has at most k known vertices and hits every terminal triangle."""
    s = frozenset(solution)
    return len(s) <= p.k and s <= p.adj.keys() and terminal_triangle(p.adj, p.terminals, s) is None


def triangle_packing(adj: dict[int, set[int]], terminals: set[int], removed=frozenset()) -> int:
    """Size of a greedy maximal packing of vertex-disjoint terminal triangles.

    One pass over the terminals suffices: a terminal skipped once has all
    its triangles blocked, and the blocked set only grows.
    """
    used = set(removed)
    count = 0
    for t in sorted(terminals):
        if t in used:
            continue
        nbrs = adj[t] - used
        for u in sorted(nbrs):
            common = (adj[u] & nbrs) - used
            if common:
                used |= {t, u, min(common)}
                count += 1
                break
    return count


def split_lower_bound(p: Plain, clique_side: set[int]) -> int:
    """A lower bound on any solution of a split instance."""
    t_k = clique_side & p.terminals
    survivors = max(len(clique_side) - 2, 0)
    return max(
        triangle_packing(p.adj, p.terminals),
        min(survivors, len(t_k) + triangle_packing(p.adj, p.terminals, frozenset(t_k))),
    )


def split_upper_solution(p: Plain, clique_side: set[int]) -> set[int]:
    """A verified solution of a split instance (not necessarily minimum).

    Candidates: delete the clique-side terminals plus every independent
    terminal that still has two clique neighbours (what is left of the
    clique holds no terminal); or delete all clique vertices but one; or all
    but two adjacent ones with no common independent neighbour.  Either way
    no terminal triangle survives.  The smallest candidate is returned.
    """
    t_k = clique_side & p.terminals
    rest = clique_side - t_k
    candidates = [set(t_k) | {v for v in p.terminals - clique_side if len(p.adj[v] & rest) >= 2}]
    kside = sorted(clique_side)
    if kside:
        candidates.append(set(kside[1:]))
    for i, u in enumerate(kside):
        lonely = [w for w in kside[i + 1 :] if not (p.adj[u] & p.adj[w]) - clique_side]
        if lonely:
            candidates.append(clique_side - {u, lonely[0]})
            break
    sol = min(candidates, key=lambda s: (len(s), sorted(s)))
    if not is_solution(Plain(p.adj, p.terminals, len(sol)), sol):
        raise AssertionError("split upper-bound construction is not a solution")
    return sol


def split_decision(p: Plain, clique_side: set[int]) -> bool | None:
    """True/False when a certificate decides the split instance, else None."""
    if p.k < 0:
        return False
    if split_lower_bound(p, clique_side) > p.k:
        return False
    if len(split_upper_solution(p, clique_side)) <= p.k:
        return True
    return None


def apply_trace(p: Plain, steps) -> Plain:
    """The instance left after applying a rule trace's deletions and budget changes."""
    adj = {v: set(ns) for v, ns in p.adj.items()}
    terminals, k = set(p.terminals), p.k
    for step in steps:
        for u, v in step.deleted_edges:
            adj[u].remove(v)
            adj[v].remove(u)
        for v in step.deleted_vertices:
            for w in adj.pop(v):
                adj[w].discard(v)
            terminals.discard(v)
        k += step.delta_k
    return Plain(adj, terminals, k)


def vc_source_edges(p: Plain) -> list[tuple[int, int]]:
    """The source graph of a vertex-cover reduction: one edge per terminal."""
    edges = []
    for t in sorted(p.terminals):
        if len(p.adj[t]) != 2:
            raise ValueError(f"terminal {t} does not have exactly two neighbours")
        u, v = sorted(p.adj[t])
        edges.append((u, v))
    return edges


def min_vertex_cover(edges: list[tuple[int, int]]) -> int:
    """Exact minimum vertex cover size by branching on a maximum-degree vertex."""
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    best = len(adj)

    def search(adj: dict[int, set[int]], size: int) -> None:
        nonlocal best
        adj = {v: set(ns) for v, ns in adj.items() if ns}
        m = sum(len(ns) for ns in adj.values()) // 2
        if m == 0:
            best = min(best, size)
            return
        max_deg = max(len(ns) for ns in adj.values())
        # each cover vertex covers at most max_deg edges
        if size + -(-m // max_deg) >= best:
            return
        v = max(sorted(adj), key=lambda x: len(adj[x]))
        search(_without(adj, {v}), size + 1)
        search(_without(adj, adj[v]), size + len(adj[v]))

    search(adj, 0)
    return best


def _without(adj: dict[int, set[int]], gone: set[int]) -> dict[int, set[int]]:
    return {v: ns - gone for v, ns in adj.items() if v not in gone}
