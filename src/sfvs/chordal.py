"""Chordal and split structure: elimination orderings, maximal cliques, clique trees,
split partitions. Recognition failures carry explicit certificates."""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from .graph import Graph, GraphError, shortest_path


class NotChordalError(ValueError):
    """Raised on non-chordal input; .cycle is an induced cycle of length >= 4."""

    def __init__(self, cycle: list[int]):
        super().__init__(f"graph is not chordal: induced cycle {cycle}")
        self.cycle = cycle


class NotSplitError(ValueError):
    """Raised on non-split input; .witness names the offending vertex pair."""

    def __init__(self, kind: str, pair: tuple[int, int]):
        super().__init__(f"graph is not split: {kind} {pair}")
        self.kind = kind
        self.witness = pair


def mcs_visit_order(g: Graph) -> list[int]:
    """Maximum cardinality search visit order; ties go to the lowest id.

    A lazy-deletion heap keyed by (-weight, id) yields the heaviest unvisited
    vertex, lowest id first; entries of visited vertices and entries whose
    weight has since risen are skipped when popped.  Each edge pushes at most
    one entry, so the search costs O((n + m) log n).
    """
    weight = {v: 0 for v in g.vertices()}
    heap = [(0, v) for v in weight]  # ascending ids already form a heap
    order: list[int] = []
    while heap:
        neg_weight, v = heapq.heappop(heap)
        if weight.get(v) != -neg_weight:
            continue
        del weight[v]
        order.append(v)
        for w in g.neighbors(v):
            if w in weight:
                weight[w] += 1
                heapq.heappush(heap, (-weight[w], w))
    return order


def is_perfect_elimination_ordering(g: Graph, peo: list[int]) -> bool:
    """Check that later neighbors of each vertex form a clique (via the parent test)."""
    pos = {v: i for i, v in enumerate(peo)}
    if set(pos) != g.vertex_set() or len(peo) != g.n:
        return False
    return _parent_test_violation(g, peo, pos) is None


def _parent_test_violation(
    g: Graph, peo: list[int], pos: dict[int, int]
) -> tuple[int, int, int] | None:
    """First (v, parent, w) where w, a later neighbor of v, misses v's parent.

    The parent is v's earliest later neighbor; an ordering in which every
    vertex passes this test is a perfect elimination ordering.
    """
    for v in peo:
        later = [w for w in g.neighbors(v) if pos[w] > pos[v]]
        if not later:
            continue
        parent = min(later, key=pos.__getitem__)
        if not (set(later) - {parent}) <= g.neighbors(parent):
            stray = [w for w in later if w != parent and not g.has_edge(parent, w)]
            return v, parent, min(stray)
    return None


def chordality_order(g: Graph) -> list[int] | None:
    """A perfect elimination ordering (first eliminated first), or None."""
    try:
        return require_chordal(g)
    except NotChordalError:
        return None


def require_chordal(g: Graph) -> list[int]:
    """Perfect elimination ordering, or NotChordalError with an induced-cycle witness.

    The candidate is the reversed maximum cardinality search order.  When its
    parent test fails at (v, parent, w), a shortest parent..w path avoiding
    N[v] \\ {parent, w} closes into a cycle through v: the path is chordless
    because it is shortest, its inner vertices miss v, and parent and w are
    not adjacent, so the cycle is induced and has length at least four.
    """
    peo = list(reversed(mcs_visit_order(g)))
    violation = _parent_test_violation(g, peo, {v: i for i, v in enumerate(peo)})
    if violation is None:
        return peo
    v, parent, w = violation
    path = shortest_path(g, parent, w, (g.neighbors(v) | {v}) - {parent, w})
    if path is None:
        raise GraphError("elimination ordering check and cycle search disagree")
    raise NotChordalError([v] + path)


def _cliques_and_links(g: Graph) -> tuple[list[frozenset[int]], list[tuple[int, int]]]:
    """Maximal cliques in search discovery order and the clique-tree links.

    One walk over the maximum cardinality search order (Blair & Peyton 1993):
    vertex v with earlier-visited neighbors earlier[i] closes the maximal
    clique {v} | earlier[i] when it is last or the next vertex has no more
    earlier-visited neighbors than v; the next vertex then opens a clique.
    An opened clique meets earlier cliques only inside earlier[i], all of
    which lies in the clique open at the visit of its last-visited member,
    and no lower-indexed clique holds that member.  So the link to that
    clique joins the earlier clique with the largest intersection, lowest
    index on ties, and a clique with no earlier neighbor links to clique 0.
    """
    order = list(reversed(require_chordal(g)))
    pos = {v: i for i, v in enumerate(order)}
    earlier = [[w for w in g.neighbors(v) if pos[w] < i] for i, v in enumerate(order)]
    cliques: list[frozenset[int]] = []
    links: list[tuple[int, int]] = []
    open_at: dict[int, int] = {}  # vertex -> index of the clique open at its visit
    for i, v in enumerate(order):
        if i and len(earlier[i]) <= len(earlier[i - 1]):
            last = max(earlier[i], key=pos.__getitem__, default=None)
            links.append((0 if last is None else open_at[last], len(cliques)))
        open_at[v] = len(cliques)
        if i + 1 == len(order) or len(earlier[i + 1]) <= len(earlier[i]):
            cliques.append(frozenset(earlier[i]) | {v})
    return cliques, links


def maximal_cliques(g: Graph) -> list[frozenset[int]]:
    """Maximal cliques of a chordal graph in search discovery order, each once.

    Raises NotChordalError with an induced-cycle witness on non-chordal input.
    """
    return _cliques_and_links(g)[0]


@dataclass
class CliqueTree:
    """Tree over the maximal cliques of a chordal graph.

    For a disconnected graph the structure is still one tree; edges joining
    different components carry empty separators, which keeps every invariant
    (per-vertex subtree connectivity in particular) intact.
    """

    cliques: list[frozenset[int]]
    edges: list[tuple[int, int]]
    _adj: dict[int, list[int]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._adj = {i: [] for i in range(len(self.cliques))}
        for i, j in self.edges:
            self._adj[i].append(j)
            self._adj[j].append(i)
        for lst in self._adj.values():
            lst.sort()

    def neighbors(self, i: int) -> list[int]:
        return self._adj[i]

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def leaves(self) -> list[int]:
        return [i for i in range(len(self.cliques)) if len(self._adj[i]) <= 1]

    def rooted(self, root: int) -> tuple[dict[int, int | None], dict[int, list[int]], dict[int, int]]:
        """Parent, children and depth maps for the tree rooted at the given node."""
        parent: dict[int, int | None] = {root: None}
        children: dict[int, list[int]] = {i: [] for i in range(len(self.cliques))}
        depth = {root: 0}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in self._adj[v]:
                if w not in parent:
                    parent[w] = v
                    children[v].append(w)
                    depth[w] = depth[v] + 1
                    queue.append(w)
        return parent, children, depth


def build_clique_tree(g: Graph) -> CliqueTree:
    """Clique tree over the maximal cliques in discovery order.

    Each clique after the first links to an earlier clique maximizing the
    intersection size, lowest index on ties, and to clique 0 when it meets no
    earlier clique.  Raises NotChordalError on non-chordal input.  The
    per-vertex subtree connectivity invariant is verified before returning.
    """
    tree = CliqueTree(*_cliques_and_links(g))
    _verify_vertex_subtrees(g, tree)
    return tree


def _verify_vertex_subtrees(g: Graph, tree: CliqueTree) -> None:
    holders: dict[int, list[int]] = {v: [] for v in g.vertices()}
    for i, c in enumerate(tree.cliques):
        for v in c:
            holders[v].append(i)
    for v, nodes in holders.items():
        if not nodes:
            raise GraphError(f"vertex {v} missing from every clique")
        node_set = set(nodes)
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            i = stack.pop()
            for j in tree.neighbors(i):
                if j in node_set and j not in seen:
                    seen.add(j)
                    stack.append(j)
        if seen != node_set:
            raise GraphError(f"cliques containing vertex {v} do not form a subtree")


def split_partition(g: Graph) -> tuple[set[int], set[int]] | None:
    """Canonical (clique side, independent side) or None if the graph is not split."""
    try:
        return require_split(g)
    except NotSplitError:
        return None


def require_split(g: Graph) -> tuple[set[int], set[int]]:
    """Canonical split partition, or NotSplitError naming a violating pair.

    Vertices sorted by (degree descending, id ascending); the prefix of length h,
    where h is the largest index with d_h >= h - 1, is the clique side of every
    split graph.  The graph is split exactly when that prefix is a clique and the
    rest is independent; otherwise the lexicographically least non-adjacent
    clique-side pair, or failing that the least independent-side edge, is the
    witness.
    """
    order = sorted(g.vertices(), key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in order]
    h = max((i + 1 for i in range(g.n) if degs[i] >= i), default=0)
    kside, iside = set(order[:h]), set(order[h:])
    for u in sorted(kside):
        missing = [v for v in kside - g.neighbors(u) if v > u]
        if missing:
            raise NotSplitError("non-adjacent pair on the clique side", (u, min(missing)))
    for u in sorted(iside):
        inside = [v for v in g.neighbors(u) & iside if v > u]
        if inside:
            raise NotSplitError("edge inside the independent side", (u, min(inside)))
    return kside, iside


def is_highlighted(g: Graph, iside: set[int], u: int, v: int) -> bool:
    """True iff clique-side edge (u, v) closes a triangle with an independent-side vertex."""
    if not g.has_edge(u, v):
        raise GraphError(f"({u}, {v}) is not an edge")
    return bool(g.neighbors(u) & g.neighbors(v) & iside)
