"""Branch-and-reduce solver for subset feedback vertex set on chordal graphs.

A search node first drives the reduction rules to a fixpoint, then takes the
step :func:`applicable_branch` selects.  The reductions share the kernel's
trivial decision and delete every match per pass: all clique components, all
non-terminals without a terminal neighbour, all bridges.  Branching uses the
least-indexed applicable rule.  Six local rules branch on a constant number
of vertices around small simplicial cliques or big cliques; once none
applies, every simplicial clique has exactly four vertices whose unique
simplicial vertex is its only terminal, and a seventh rule branches over a
deepest leaf clique of the clique tree together with two sibling leaf
cliques.  Components whose clique tree has at most two nodes (hence at
most eight vertices) are solved by brute force inside the node.

All branch children delete the listed vertices, shrink the terminal set
accordingly and decrement the budget by the number of picked vertices, so a
YES answer assembles its solution from the picks along one root-to-leaf
path.  The solution is re-verified against the untouched input graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .chordal import CliqueTree, build_clique_tree, maximal_cliques, require_chordal
from .graph import (
    Graph,
    GraphError,
    Instance,
    all_t_triangles,
    connected_components,
    find_bridges,
    is_t_forest,
    lonely_vertices,
    trivial_answer,
)
from .trace import RuleTrace, TraceEntry, make_entry


@dataclass
class SolveResult:
    """Outcome of a solver run.

    ``trace`` records the rule applications along the successful
    root-to-leaf path of the search tree (empty on NO), so replaying it
    against the input reproduces the final decided state.
    """

    answer: bool
    solution: set[int] | None
    nodes_visited: int
    max_depth: int
    trace: RuleTrace


@dataclass
class MegaBranchContext:
    """Cliques and labels feeding the seven-way leaf-cascade branch.

    ``c_ell`` is a deepest leaf {t,x,y,z} with simplicial terminal t,
    ``c_p`` its parent, and ``c_x``/``c_y`` sibling leaves meeting c_ell in
    exactly {x} and {y}.  ``shared`` is the single vertex of c_x ∩ c_y when
    the two sides overlap.
    """

    c_ell: frozenset[int]
    c_p: frozenset[int]
    c_x: frozenset[int]
    c_y: frozenset[int]
    t: int
    x: int
    y: int
    z: int
    t_x: int
    t_y: int
    x_pair: tuple[int, int]
    y_pair: tuple[int, int]
    shared: int | None


class _Stats:
    __slots__ = ("nodes", "max_depth")

    def __init__(self):
        self.nodes = 0
        self.max_depth = 0


def reduce_fixpoint(inst: Instance, picks: set[int], path: list[TraceEntry]) -> str | None:
    """Apply the solver's reduction rules until none fires.

    Returns "yes"/"no" when the instance is decided, else None with the
    instance mutated in place.  Picks and trace entries accumulate into the
    caller's collections.  Each rule handles every match in one pass: all
    clique components (one trace entry each), all non-terminals without a
    terminal neighbour, all bridges.
    """
    g = inst.graph
    while True:
        decided = trivial_answer(inst)
        if decided is not None:
            path.append(make_entry(f"decide-{decided}"))
            return decided
        cliques = [comp for comp in connected_components(g) if g.is_clique(comp)]
        for comp in cliques:
            terms = inst.terminals & set(comp)
            nonterms = len(comp) - len(terms)
            if len(comp) <= 2 or not terms:
                picked = []
            elif nonterms <= 2:
                picked = sorted(comp)[: len(comp) - 2]
            else:
                picked = sorted(terms)
            inst.remove_vertices(comp)
            inst.k -= len(picked)
            picks |= set(picked)
            path.append(
                make_entry(
                    "clique-component",
                    deleted_vertices=comp,
                    picked=picked,
                    delta_k=-len(picked),
                )
            )
        if cliques:
            continue
        lonely = lonely_vertices(inst)
        if lonely:
            inst.remove_vertices(lonely)
            path.append(make_entry("no-terminal-neighbor", deleted_vertices=lonely))
            continue
        bridges = find_bridges(g)
        if bridges:
            # deleting one bridge never turns another edge into a cycle
            # member, so all current bridges can go at once
            for u, v in sorted(bridges):
                g.remove_edge(u, v)
            path.append(make_entry("delete-bridges", deleted_edges=sorted(bridges)))
            continue
        return None


def _simple_branch(inst: Instance):
    """Least-indexed applicable local branching rule, or None.

    Returns (rule name, children) where each child is a pair of the vertex
    set to delete and the subset of it picked into the solution.
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
    # rule 2: simplicial vertex whose clique has size three
    for v in g.vertices():
        nb = g.sorted_neighbors(v)
        if len(nb) == 2 and g.has_edge(nb[0], nb[1]):
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
    # rule 4: simplicial non-terminal in a size-4 clique with a terminal
    for v in g.vertices():
        if v in terminals:
            continue
        nb = g.sorted_neighbors(v)
        if len(nb) == 3 and g.is_clique(nb):
            tn = set(nb) & terminals
            if tn:
                t = min(tn)
                x, y = sorted(set(nb) - {t})
                return "nonterminal-simplicial", [({t}, {t}), ({v, x, y}, {x, y})]
    # rule 5: simplicial terminal whose size-4 clique has a second terminal
    for t in sorted(terminals):
        if t not in g:
            continue
        nb = g.sorted_neighbors(t)
        if len(nb) == 3 and g.is_clique(nb):
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
    for t in sorted(terminals):
        if t not in g:
            continue
        nb = g.sorted_neighbors(t)
        if len(nb) != 3 or not g.is_clique(nb):
            continue
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
    return None


def select_mega_context(g: Graph, terminals: set[int], tree: CliqueTree | None = None) -> MegaBranchContext:
    """Locate the deepest leaf clique and two sibling leaves for branching.

    ``g`` must be a connected chordal graph whose clique tree has at least
    three nodes, with every local rule already inapplicable.  Violations of
    the resulting structural guarantees raise GraphError: they indicate a
    rule-ordering bug, not a property of the input.
    """
    if tree is None:
        tree = build_clique_tree(g)
    if len(tree.cliques) < 3:
        raise GraphError("clique tree too small for the leaf-cascade branch")
    internal = [i for i in range(len(tree.cliques)) if tree.degree(i) >= 2]
    root = min(internal)
    parent, children, depth = tree.rooted(root)
    c_ell_idx = max(tree.leaves(), key=lambda i: (depth[i], -i))
    c_ell = set(tree.cliques[c_ell_idx])
    t, c_ell_terms = _leaf_terminal(g, terminals, c_ell)
    p_idx = parent[c_ell_idx]
    c_p = set(tree.cliques[p_idx])
    xyz = sorted(c_ell - {t})
    if not set(xyz) <= c_p:
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
    z = (set(xyz) - {x, y}).pop()
    c_x_idx = min(groups[x])
    c_y_idx = min(groups[y])
    c_x = set(tree.cliques[c_x_idx])
    c_y = set(tree.cliques[c_y_idx])
    t_x, _ = _leaf_terminal(g, terminals, c_x)
    t_y, _ = _leaf_terminal(g, terminals, c_y)
    x_pair = tuple(sorted(c_x - {t_x, x}))
    y_pair = tuple(sorted(c_y - {t_y, y}))
    overlap = set(x_pair) & set(y_pair)
    if len(overlap) > 1:
        raise GraphError("sibling leaves share more than one vertex")
    return MegaBranchContext(
        c_ell=frozenset(c_ell),
        c_p=frozenset(c_p),
        c_x=frozenset(c_x),
        c_y=frozenset(c_y),
        t=t,
        x=x,
        y=y,
        z=z,
        t_x=t_x,
        t_y=t_y,
        x_pair=x_pair,
        y_pair=y_pair,
        shared=overlap.pop() if overlap else None,
    )


def _leaf_terminal(g: Graph, terminals: set[int], clique: set[int]) -> tuple[int, set[int]]:
    terms = clique & terminals
    if len(clique) != 4 or len(terms) != 1:
        raise GraphError("leaf clique is not a size-4 clique with one terminal")
    t = next(iter(terms))
    if g.neighbors(t) | {t} != clique:
        raise GraphError("leaf clique terminal is not simplicial")
    return t, terms


def mega_children(ctx: MegaBranchContext) -> list[tuple[set[int], set[int]]]:
    """The seven branch children; deleted and picked sets coincide.

    When the two side cliques share a vertex the fourth child's set union
    shrinks by one, which is exactly the intended smaller budget drop.
    """
    sets = [
        {ctx.t, ctx.t_x, ctx.t_y},
        {ctx.t, ctx.t_x} | set(ctx.y_pair),
        {ctx.t, ctx.t_y} | set(ctx.x_pair),
        {ctx.t} | set(ctx.x_pair) | set(ctx.y_pair),
        {ctx.x},
        {ctx.y, ctx.z, ctx.t_x},
        {ctx.y, ctx.z} | set(ctx.x_pair),
    ]
    return [(s, set(s)) for s in sets]


def applicable_branch(inst: Instance):
    """The step the solver takes on an already-reduced instance.

    Local rules first.  Otherwise the first component either is small
    enough for brute force, returned as ("small-component", [(component,
    minimum hitting set within budget, or None)]), or gets the
    leaf-cascade rule.  None on an empty graph.
    """
    spec = _simple_branch(inst)
    if spec is not None:
        return spec
    comps = connected_components(inst.graph)
    if not comps:
        return None
    comp = comps[0]
    sub = inst.graph.induced(comp)
    terminals = inst.terminals & set(comp)
    tree = build_clique_tree(sub)
    if len(tree.cliques) <= 2:
        best = _min_hitting(sub, terminals, min(inst.k, len(comp)))
        return "small-component", [(comp, best)]
    ctx = select_mega_context(sub, terminals, tree)
    return "sibling-leaf-cliques", mega_children(ctx)


def _min_hitting(g: Graph, terminals: set[int], cap: int) -> set[int] | None:
    """Smallest vertex set hitting every terminal triangle, or None if > cap."""
    triangles = [set(tri) for tri in all_t_triangles(g, terminals)]
    if not triangles:
        return set()
    order = g.vertices()
    for size in range(1, min(cap, len(order)) + 1):
        for combo in combinations(order, size):
            chosen = set(combo)
            if all(tri & chosen for tri in triangles):
                return chosen
    return None


def _search(inst: Instance, depth: int, stats: _Stats):
    stats.nodes += 1
    stats.max_depth = max(stats.max_depth, depth)
    picks: set[int] = set()
    path: list[TraceEntry] = []
    while True:
        outcome = reduce_fixpoint(inst, picks, path)
        if outcome == "yes":
            return True, picks, path
        if outcome == "no":
            return False, set(), path
        rule, branches = applicable_branch(inst)
        if rule == "small-component":
            (comp, best), = branches
            if best is None:
                return False, set(), path
            inst.remove_vertices(comp)
            inst.k -= len(best)
            picks |= best
            path.append(
                make_entry(
                    "small-component",
                    deleted_vertices=comp,
                    picked=sorted(best),
                    delta_k=-len(best),
                )
            )
            continue
        for deleted, picked in branches:
            if len(picked) > inst.k:
                # the child would start with a negative budget, an
                # immediate NO, so skip it without spending a node
                continue
            child = Instance(
                inst.graph.without_vertices(deleted),
                inst.terminals - set(deleted),
                inst.k - len(picked),
            )
            found, child_picks, child_path = _search(child, depth + 1, stats)
            if found:
                entry = make_entry(
                    rule,
                    deleted_vertices=deleted,
                    picked=sorted(picked),
                    delta_k=-len(picked),
                )
                return True, picks | set(picked) | child_picks, path + [entry] + child_path
        return False, set(), path


def solve(inst: Instance) -> SolveResult:
    """Decide a chordal instance, returning a verified solution on YES."""
    inst.validate()
    require_chordal(inst.graph)
    stats = _Stats()
    found, picks, path = _search(inst.copy(), 0, stats)
    if not found:
        return SolveResult(False, None, stats.nodes, stats.max_depth, RuleTrace())
    if len(picks) > inst.k:
        raise GraphError("solver assembled an oversized solution")
    remaining = inst.graph.without_vertices(picks)
    if not is_t_forest(remaining, inst.terminals - picks):
        raise GraphError("solver solution fails re-verification on the input graph")
    return SolveResult(True, picks, stats.nodes, stats.max_depth, RuleTrace(path))
