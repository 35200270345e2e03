"""Chordal and split structure: elimination orderings, maximal cliques, clique trees,
split partitions. Recognition failures carry explicit certificates."""

from __future__ import annotations

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
    """Maximum cardinality search visit order; ties go to the lowest id."""
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


def is_perfect_elimination_ordering(g: Graph, peo: list[int]) -> bool:
    """Check that later neighbors of each vertex form a clique (via the parent test)."""
    pos = {v: i for i, v in enumerate(peo)}
    if set(pos) != g.vertex_set() or len(peo) != g.n:
        return False
    for v in peo:
        later = [w for w in g.neighbors(v) if pos[w] > pos[v]]
        if not later:
            continue
        parent = min(later, key=pos.__getitem__)
        if not (set(later) - {parent}) <= g.neighbors(parent):
            return False
    return True


def chordality_order(g: Graph) -> list[int] | None:
    """A perfect elimination ordering (first eliminated first), or None."""
    peo = list(reversed(mcs_visit_order(g)))
    return peo if is_perfect_elimination_ordering(g, peo) else None


def find_chordless_cycle(g: Graph) -> list[int] | None:
    """An induced cycle of length >= 4 (in cyclic vertex order), None if chordal.

    For each vertex v and non-adjacent pair x, y of its neighbors, a shortest
    x..y path avoiding N[v] \\ {x, y} closes into a chordless cycle through v.
    Every induced cycle is discovered this way, so a None answer is conclusive.
    """
    for v in g.vertices():
        nbrs = g.sorted_neighbors(v)
        for i, x in enumerate(nbrs):
            for y in nbrs[i + 1 :]:
                if g.has_edge(x, y):
                    continue
                banned = (g.neighbors(v) | {v}) - {x, y}
                path = shortest_path(g, x, y, banned)
                if path is not None:
                    return [v] + path
    return None


def require_chordal(g: Graph) -> list[int]:
    """Perfect elimination ordering, or NotChordalError with an induced-cycle witness."""
    peo = chordality_order(g)
    if peo is None:
        cycle = find_chordless_cycle(g)
        if cycle is None:
            raise GraphError("elimination ordering check and cycle search disagree")
        raise NotChordalError(cycle)
    return peo


def maximal_cliques(g: Graph) -> list[frozenset[int]]:
    """Maximal cliques of a chordal graph in search discovery order, each once.

    Candidates are {v} union earlier-visited neighbors per visited vertex; the
    maximal ones are kept by the closed-neighborhood intersection test, which is
    the definition of maximality and therefore needs no trust in theory.
    """
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
        queue = [root]
        while queue:
            v = queue.pop(0)
            for w in self._adj[v]:
                if w not in parent:
                    parent[w] = v
                    children[v].append(w)
                    depth[w] = depth[v] + 1
                    queue.append(w)
        return parent, children, depth


def build_clique_tree(g: Graph) -> CliqueTree:
    """Clique tree by attaching each discovered clique to the best predecessor.

    Cliques are taken in discovery order; each new one links to an earlier clique
    maximizing the intersection size, lowest index on ties. The per-vertex
    subtree connectivity invariant is verified before returning.
    """
    cliques = maximal_cliques(g)
    edges: list[tuple[int, int]] = []
    for i in range(1, len(cliques)):
        best = max(range(i), key=lambda j: (len(cliques[i] & cliques[j]), -j))
        edges.append((best, i))
    tree = CliqueTree(cliques, edges)
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
