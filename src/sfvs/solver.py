"""Branch-and-reduce solver for subset feedback vertex set on chordal graphs.

A search node first drives the reduction rules to a fixpoint, then cuts
its subtree when :func:`lower_bound` exceeds the budget, and otherwise
branches.  The reductions share the kernel's trivial decision and delete
every match per pass: all clique components, all non-terminals without a
terminal neighbour, all bridges (the last two are :func:`safe_deletion`,
which the kernel uses too).  One function, :func:`applicable_branch`, picks
the branch: it tries seven rules in order and takes the first that applies.
Six local rules branch on a constant number of vertices around small
simplicial cliques or big cliques; once none applies, every simplicial
clique has exactly four vertices whose unique simplicial vertex is its only
terminal, and a seventh rule branches over a deepest leaf clique of the
clique tree together with two sibling leaf cliques.  A reduced component
whose clique tree has at most two nodes always meets one of the six local
rules, so the seventh always finds a tree of at least three nodes.

Every reduction and every branch child is a :class:`~sfvs.trace.TraceEntry`
performed by :func:`~sfvs.trace.apply_step`: it deletes the listed vertices
(terminals among them) and lowers the budget by the number picked.  A YES
answer is the trace of one root-to-leaf path, and its solution is the picks
on that trace, re-verified against the untouched input graph.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .chordal import build_clique_tree, maximal_cliques, require_chordal
from .graph import (
    Graph,
    GraphError,
    Instance,
    connected_components,
    find_bridges,
    pack_triangles,
    solution_defect,
    trivial_answer,
)
from .trace import RuleTrace, TraceEntry, apply_step, make_entry


@dataclass
class SolveResult:
    """Outcome of a solver run.

    ``trace`` records the rule applications along the successful
    root-to-leaf path of the search tree (empty on NO), so replaying it
    against the input reproduces the final decided state.  ``pruned``
    counts the nodes whose subtree :func:`lower_bound` cut.
    """

    answer: bool
    solution: set[int] | None
    nodes_visited: int
    max_depth: int
    trace: RuleTrace
    pruned: int = 0


class _Stats:
    __slots__ = ("nodes", "max_depth", "pruned")

    def __init__(self):
        self.nodes = 0
        self.max_depth = 0
        self.pruned = 0


def safe_deletion(
    inst: Instance, bridges_of: Callable[[Graph], Iterable[tuple[int, int]]] | None = None
) -> TraceEntry | None:
    """Delete every lonely non-terminal, or else every bridge; else None.

    A non-terminal with no terminal neighbour is lonely: every cycle through
    it can be rerouted off it, so it is never needed in a solution and never
    needed to witness one.  Loneliness depends only on adjacency to
    terminals, so all lonely vertices can go in one step.  A bridge lies on
    no cycle, and deleting one bridge never puts another on a cycle, so all
    bridges can go in one step too.

    ``bridges_of`` lists the graph's bridges.  The solver leaves it None,
    which runs Tarjan's whole-graph :func:`~sfvs.graph.find_bridges`; the
    kernel reads them off its split partition as pendant edges.
    """
    g, terminals = inst.graph, inst.terminals
    lonely = [v for v, nbrs in g.adjacency() if v not in terminals and terminals.isdisjoint(nbrs)]
    if lonely:
        return make_entry("no-terminal-neighbor", deleted_vertices=lonely)
    # resolved per call, not bound as a default, so rebinding the module's
    # find_bridges (say, to wrap it) reaches this call too
    bridges = (bridges_of or find_bridges)(g)
    if bridges:
        return make_entry("delete-bridge", deleted_edges=bridges)
    return None


def _clique_components(inst: Instance) -> list[TraceEntry]:
    """One ``clique-component`` entry per component that is a clique.

    What survives of a clique must be at most two vertices or free of
    terminals, so the entry picks the cheaper: all but two vertices when at
    most two non-terminals remain, else the terminals.  Cliques of at most
    two vertices and terminal-free cliques go with no pick.
    """
    g = inst.graph
    steps = []
    for comp in connected_components(g):
        if not g.is_clique(comp):
            continue
        terms = inst.terminals & set(comp)
        nonterms = len(comp) - len(terms)
        if len(comp) <= 2 or not terms:
            picked = []
        elif nonterms <= 2:
            picked = comp[: len(comp) - 2]
        else:
            picked = terms
        steps.append(make_entry("clique-component", deleted_vertices=comp, picked=picked))
    return steps


def reduce_fixpoint(inst: Instance, picks: set[int], path: list[TraceEntry]) -> str | None:
    """Apply the solver's reduction rules until none fires.

    Returns "yes"/"no" when the instance is decided, else None with the
    instance mutated in place.  Picks and trace entries accumulate into the
    caller's collections.  Each pass performs every clique component (one
    trace entry each) or else one :func:`safe_deletion`.
    """
    while True:
        decided = trivial_answer(inst)
        if decided is not None:
            path.append(make_entry(f"decide-{decided}"))
            return decided
        steps = _clique_components(inst)
        if not steps:
            step = safe_deletion(inst)
            if step is None:
                return None
            steps = [step]
        for step in steps:
            apply_step(inst, step)
            picks |= set(step.picked)
            path.append(step)


def lower_bound(inst: Instance) -> int:
    """A lower bound on the size of every solution of ``inst``.

    The larger of two counts, each a set of disjoint demands on the picks.
    The first is :func:`~sfvs.graph.pack_triangles` from the terminals,
    which stops once the count exceeds the budget.  The clique-partition
    bound (Akiba & Iwata 2016, on the 3-Hitting-Set view) uses private
    terminals: degree 2, with adjacent neighbours a and b that are not
    private terminals themselves.  Their pairs a-b form a graph H,
    partitioned greedily into cliques.  A part Q that keeps r members
    leaves r(r-1)/2 private triangles that only their own terminals can
    hit, so Q costs at least |Q| - 1 picks, none of them charged to another
    part.
    """
    g, terminals = inst.graph, inst.terminals
    packed = len(pack_triangles(g, terminals, inst.k))
    if packed > inst.k:
        return packed
    private = {t for t in terminals if g.degree(t) == 2 and g.is_clique(g.neighbors(t))}
    pairs: dict[int, set[int]] = {}
    for t in private:
        a, b = g.neighbors(t)
        if a not in private and b not in private:
            pairs.setdefault(a, set()).add(b)
            pairs.setdefault(b, set()).add(a)
    assigned: set[int] = set()
    cover = 0
    for v in sorted(pairs):
        if v in assigned:
            continue
        part = {v}
        for w in sorted(pairs[v] - assigned):
            if part <= pairs[w]:
                part.add(w)
        assigned |= part
        cover += len(part) - 1
    return max(packed, cover)


def applicable_branch(inst: Instance):
    """The step the solver takes on an already-reduced instance, or None.

    Returns (rule name, children) where each child is a pair of the vertex
    set to delete and the subset of it picked into the solution.  The first
    applicable rule wins: six local rules, then the leaf-cascade rule on the
    first component.  None on an empty graph.
    """
    g, terminals = inst.graph, inst.terminals
    # rule 1: non-terminal with exactly one terminal neighbour, sharing a
    # triangle with it
    for v in g.vertices():
        if v in terminals:
            continue
        tnbrs = g.neighbors(v) & terminals
        if len(tnbrs) != 1:
            continue
        t = next(iter(tnbrs))
        common = g.neighbors(v) & g.neighbors(t)
        if common:
            x = min(common)
            return "lone-terminal-neighbor", [({t}, {t}), ({x}, {x})]
    # rules 2, 4, 5 and 6 look at simplicial vertices in cliques of size
    # three or four: (v, sorted N(v)) in vertex order
    small = [
        (v, g.sorted_neighbors(v))
        for v in g.vertices()
        if g.degree(v) in (2, 3) and g.is_clique(g.neighbors(v))
    ]
    # rule 2: simplicial vertex whose clique has size three
    for v, nb in small:
        if len(nb) == 2:
            a, b = nb
            return "triangle-simplicial", [({v, a}, {a}), ({v, b}, {b})]
    # rule 3: clique of size at least five containing a terminal
    big = sorted(
        tuple(sorted(c))
        for c in maximal_cliques(g)
        if len(c) >= 5 and set(c) & terminals
    )
    if big:
        clique = set(big[0])
        t = min(clique & terminals)
        a, b, c, d = sorted(clique - {t})[:4]
        return "big-clique", [({t}, {t}), ({a, b}, {a, b}), ({c, d}, {c, d})]
    # rule 4: simplicial non-terminal in a size-4 clique with a terminal;
    # past rule 2, every clique in ``small`` has size four
    for v, nb in small:
        tn = set(nb) & terminals
        if v not in terminals and tn:
            t = min(tn)
            x, y = sorted(set(nb) - {t})
            return "nonterminal-simplicial", [({t}, {t}), ({v, x, y}, {x, y})]
    # rules 5 and 6 start from a simplicial terminal
    terminal_fours = [(t, nb) for t, nb in small if t in terminals]
    # rule 5: simplicial terminal whose size-4 clique has a second terminal
    for t, nb in terminal_fours:
        others = sorted(set(nb) & terminals)
        if others:
            x = others[0]
            y, z = sorted(set(nb) - {x})
            return (
                "twin-terminal-simplicial",
                [({x, y}, {x, y}), ({y, z}, {y, z}), ({x, z}, {x, z})],
            )
    # rule 6: simplicial terminal plus an outside terminal adjacent to two
    # of its clique partners
    for t, nb in terminal_fours:
        for t2 in sorted(terminals - {t} - set(nb)):
            seen = sorted(g.neighbors(t2) & set(nb))
            if len(seen) < 2:
                continue
            x, y = seen[:2]
            z = (set(nb) - {x, y}).pop()
            return (
                "outside-terminal-pair",
                [
                    ({x, y}, {x, y}),
                    ({y, z}, {y, z}),
                    ({x, z}, {x, z}),
                    ({t, t2}, {t, t2}),
                ],
            )
    # rule 7: the leaf-cascade branch on the first component
    comps = connected_components(g)
    if not comps:
        return None
    comp = comps[0]
    return "sibling-leaf-cliques", select_mega_context(g.induced(comp), terminals & set(comp))


def select_mega_context(g: Graph, terminals: set[int]) -> list[tuple[set[int], set[int]]]:
    """The seven children of the leaf-cascade branch; deleted and picked coincide.

    ``g`` must be a connected chordal graph whose clique tree has at least
    three nodes, with every local rule already inapplicable.  The branch
    looks at a deepest leaf clique {t, x, y, z} with simplicial terminal t
    and at two sibling leaves below the same parent that meet it in exactly
    {x} and {y}; their simplicial terminals are t_x and t_y, and their other
    two vertices are x_pair and y_pair.  When the two pairs share a vertex
    the fourth child's set union shrinks by one, which is exactly the
    intended smaller budget drop.  Violations of the resulting structural
    guarantees raise GraphError: they indicate a rule-ordering bug, not a
    property of the input.
    """
    tree = build_clique_tree(g)
    if len(tree.cliques) < 3:
        raise GraphError("clique tree too small for the leaf-cascade branch")
    internal = [i for i in range(len(tree.cliques)) if tree.degree(i) >= 2]
    root = min(internal)
    parent, children, depth = tree.rooted(root)
    c_ell_idx = max(tree.leaves(), key=lambda i: (depth[i], -i))
    c_ell = set(tree.cliques[c_ell_idx])
    t = _leaf_terminal(g, terminals, c_ell)
    p_idx = parent[c_ell_idx]
    c_p = set(tree.cliques[p_idx])
    xyz = c_ell - {t}
    if not xyz <= c_p:
        raise GraphError("leaf clique not contained in its parent plus t")
    if c_p & terminals:
        raise GraphError("parent clique holds a terminal after local rules")
    groups: dict[int, list[int]] = {}
    for c_idx in children[p_idx]:
        if c_idx == c_ell_idx:
            continue
        if children[c_idx]:
            raise GraphError("non-leaf sibling below the deepest leaf's parent")
        inter = set(tree.cliques[c_idx]) & c_ell
        if len(inter) >= 2:
            raise GraphError("sibling clique meets the leaf in two vertices")
        if len(inter) == 1:
            groups.setdefault(inter.pop(), []).append(c_idx)
    if len(groups) < 2:
        raise GraphError("fewer than two attachable sibling leaves")
    x, y = sorted(groups)[:2]
    z = (xyz - {x, y}).pop()
    c_x = set(tree.cliques[min(groups[x])])
    c_y = set(tree.cliques[min(groups[y])])
    t_x = _leaf_terminal(g, terminals, c_x)
    t_y = _leaf_terminal(g, terminals, c_y)
    x_pair = c_x - {t_x, x}
    y_pair = c_y - {t_y, y}
    if len(x_pair & y_pair) > 1:
        raise GraphError("sibling leaves share more than one vertex")
    sets = [
        {t, t_x, t_y},
        {t, t_x} | y_pair,
        {t, t_y} | x_pair,
        {t} | x_pair | y_pair,
        {x},
        {y, z, t_x},
        {y, z} | x_pair,
    ]
    return [(s, set(s)) for s in sets]


def _leaf_terminal(g: Graph, terminals: set[int], clique: set[int]) -> int:
    terms = clique & terminals
    if len(clique) != 4 or len(terms) != 1:
        raise GraphError("leaf clique is not a size-4 clique with one terminal")
    t = next(iter(terms))
    if g.neighbors(t) | {t} != clique:
        raise GraphError("leaf clique terminal is not simplicial")
    return t


def _search(inst: Instance, depth: int, stats: _Stats) -> list[TraceEntry] | None:
    """Trace of the first solution below this node, or None when there is none."""
    stats.nodes += 1
    stats.max_depth = max(stats.max_depth, depth)
    path: list[TraceEntry] = []
    outcome = reduce_fixpoint(inst, set(), path)
    if outcome is not None:
        return path if outcome == "yes" else None
    if lower_bound(inst) > inst.k:
        stats.pruned += 1
        return None
    rule, branches = applicable_branch(inst)
    for deleted, picked in branches:
        if len(picked) > inst.k:
            # the child would start with a negative budget, an
            # immediate NO, so skip it without spending a node
            continue
        step = make_entry(rule, deleted_vertices=deleted, picked=picked)
        child = inst.copy()
        apply_step(child, step)
        below = _search(child, depth + 1, stats)
        if below is not None:
            return path + [step] + below
    return None


def solve(inst: Instance) -> SolveResult:
    """Decide a chordal instance, returning a verified solution on YES."""
    inst.validate()
    require_chordal(inst.graph)
    stats = _Stats()
    path = _search(inst.copy(), 0, stats)
    if path is None:
        return SolveResult(False, None, stats.nodes, stats.max_depth, RuleTrace(), stats.pruned)
    trace = RuleTrace(path)
    picks = trace.picked_vertices()
    defect = solution_defect(inst, picks)
    if defect is not None:
        raise GraphError(f"solver solution fails re-verification: {defect[0]}")
    return SolveResult(True, picks, stats.nodes, stats.max_depth, trace, stats.pruned)
