"""Polynomial kernel for subset feedback vertex set on split graphs.

The input graph is split into a fixed clique side K and independent side I.
Nine reduction rules are applied first-match-exhaustively; each either
decides the instance outright or shrinks it while preserving the answer.
The three safe deletions (isolated vertices, non-terminals without a
terminal neighbour, bridges) remove every match in one step, since deleting
one match never stops another from matching; the other rules act on one
vertex or edge per step.
When no rule applies the surviving instance is a kernel: its clique side has
at most 10k vertices, every clique-side vertex has at most k independent
neighbours, and so the whole kernel has at most 10k + 10k^2 vertices.

Rules only ever delete vertices or clique-independent edges, so the split
partition chosen for the input stays valid throughout; the working state
simply restricts it to the surviving vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chordal import is_highlighted, require_split
from .expansion import (
    BipartiteView,
    find_expansion,
    find_matching_expansion_with_witness,
    maximum_matching,
)
from .graph import GraphError, Instance, find_bridges, lonely_vertices, trivial_answer
from .trace import RuleTrace


@dataclass
class KernelState:
    """Working instance plus the split partition restricted to live vertices."""

    instance: Instance
    clique_side: set[int]
    indep_side: set[int]
    trace: RuleTrace

    def delete_vertices(self, vs, rule, picked=(), delta_k=0):
        vs = sorted(set(vs))
        self.instance.remove_vertices(vs)
        self.clique_side -= set(vs)
        self.indep_side -= set(vs)
        self.instance.k += delta_k
        self.trace.add(rule, deleted_vertices=vs, picked=picked, delta_k=delta_k)

    def delete_edges(self, edges, rule):
        for u, v in edges:
            self.instance.graph.remove_edge(u, v)
        self.trace.add(rule, deleted_edges=edges)


@dataclass
class ApproxPartition:
    """Greedy triangle packing and the coarse vertex classes it induces.

    ``s_tilde`` is the union of the packed triangles.  ``k0`` holds
    clique-side vertices whose independent neighbours all lie inside the
    packing, ``i0`` independent vertices whose neighbours all lie inside the
    packing's clique part; ``k1``/``i1`` are the rest.
    """

    s_tilde: set[int]
    k_s: set[int]
    i_s: set[int]
    k0: set[int]
    k1: set[int]
    i0: set[int]
    i1: set[int]


@dataclass
class KernelOutcome:
    """Result of kernelization: a decision or a reduced instance.

    For a reduced outcome the split partition of the surviving instance is
    carried along so callers can report clique-side sizes directly.
    """

    kind: str  # "yes" | "no" | "reduced"
    instance: Instance | None
    trace: RuleTrace
    clique_side: set[int] | None = None
    indep_side: set[int] | None = None

    def decision(self) -> bool | None:
        if self.kind == "yes":
            return True
        if self.kind == "no":
            return False
        return None


def bipartite_around(v: int, state: KernelState) -> BipartiteView:
    """Local bipartite graph at a clique-side vertex v.

    Q side: independent neighbours of v.  P side: clique-side vertices other
    than v adjacent to some Q vertex.  Edges are the graph's P-Q edges.
    """
    g = state.instance.graph
    side_q = g.neighbors(v) & state.indep_side
    side_p = set()
    for q in side_q:
        side_p |= g.neighbors(q)
    side_p.discard(v)
    edges = [(p, q) for q in side_q for p in g.neighbors(q) if p in side_p]
    return BipartiteView(side_p, side_q, edges)


def rule_yes_no(state: KernelState) -> str | None:
    """Decide trivial instances.

    First the shared :func:`trivial_answer`; then the split-specific
    checks: a clique side within budget plus one means yes, as does a
    clique side at budget plus two with some clique edge lacking a common
    independent neighbour.
    """
    inst = state.instance
    decided = trivial_answer(inst)
    if decided is not None:
        state.trace.add(f"decide-{decided}")
        return decided
    g, k = inst.graph, inst.k
    kside = sorted(state.clique_side)
    if len(kside) <= k + 1:
        state.trace.add("decide-yes")
        return "yes"
    if len(kside) == k + 2:
        for i, u in enumerate(kside):
            for v in kside[i + 1:]:
                if not is_highlighted(g, state.indep_side, u, v):
                    state.trace.add("decide-yes")
                    return "yes"
    return None


def rule_delete_isolates(state: KernelState) -> bool | None:
    """Delete every isolated vertex; an isolate lies on no cycle."""
    g = state.instance.graph
    isolated = [v for v in g.vertices() if g.degree(v) == 0]
    if not isolated:
        return None
    state.delete_vertices(isolated, "delete-isolated")
    return True


def rule_nonterminal_no_terminal_neighbor(state: KernelState) -> bool | None:
    """Delete every non-terminal with no terminal neighbour (see :func:`lonely_vertices`)."""
    lonely = lonely_vertices(state.instance)
    if not lonely:
        return None
    state.delete_vertices(lonely, "no-terminal-neighbor")
    return True


def rule_delete_bridges(state: KernelState) -> bool | None:
    """Delete every bridge; bridges lie on no cycle, and stay bridges as others go."""
    bridges = sorted(find_bridges(state.instance.graph))
    if not bridges:
        return None
    state.delete_edges(bridges, "delete-bridge")
    return True


def rule_pick_clique_terminals(state: KernelState) -> bool | None:
    """Pick the lowest clique-side terminal into the solution.

    Once earlier rules are exhausted every vertex lies on a terminal
    triangle, and a clique-side terminal t on triangle {t,u,w} forces t or
    both of u,w into any solution, so taking t is always safe.
    """
    inst = state.instance
    for t in sorted(state.clique_side & inst.terminals):
        state.delete_vertices([t], "pick-clique-terminal", picked=[t], delta_k=-1)
        return True
    return None


def rule_max_matching(state: KernelState) -> bool | None:
    """Pick a clique-side vertex with a budget-exceeding local matching.

    A matching of size k+1 in the bipartite graph around v yields k+1
    terminal triangles pairwise sharing only v, so v must be in every
    solution of size at most k.
    """
    inst = state.instance
    k = inst.k
    for v in sorted(state.clique_side):
        b = bipartite_around(v, state)
        if min(len(b.side_p), len(b.side_q)) <= k:
            continue
        if len(maximum_matching(b)) >= k + 1:
            state.delete_vertices([v], "max-matching", picked=[v], delta_k=-1)
            return True
    return None


def rule_degree_bound(state: KernelState) -> bool | None:
    """Detach a redundant independent neighbour from a high-degree vertex.

    If v keeps more than k independent neighbours once the matching rule is
    exhausted, a matching-expansion argument exposes an unsaturated
    neighbour w whose edge to v is never needed: any solution can be
    rerouted to avoid it.  Only the edge (v, w) is deleted.
    """
    inst = state.instance
    g, k = inst.graph, inst.k
    for v in sorted(state.clique_side):
        if len(g.neighbors(v) & state.indep_side) <= k:
            continue
        b = bipartite_around(v, state)
        res = find_matching_expansion_with_witness(b, 1)
        w = res.unsaturated_witness
        state.delete_edges([(v, w)], "degree-bound")
        return True
    return None


def build_approx_partition(state: KernelState) -> ApproxPartition | None:
    """Greedily pack vertex-disjoint terminal triangles and classify the rest.

    Each round adds one independent vertex plus two of its clique-side
    neighbours, all fresh.  Packing more than k triangles certifies that no
    solution of size k exists, reported as None.
    """
    g = state.instance.graph
    k = state.instance.k
    kside, iside = state.clique_side, state.indep_side
    s_tilde: set[int] = set()
    while len(s_tilde) <= 3 * k:
        found = None
        for v in sorted(iside - s_tilde):
            avail = sorted((g.neighbors(v) & kside) - s_tilde)
            if len(avail) >= 2:
                found = (v, avail[0], avail[1])
                break
        if found is None:
            break
        s_tilde |= set(found)
    if len(s_tilde) > 3 * k:
        return None
    k_s = kside & s_tilde
    i_s = iside & s_tilde
    k0 = {u for u in kside - k_s if (g.neighbors(u) & iside) <= i_s}
    i0 = {v for v in iside - i_s if g.neighbors(v) <= k_s}
    k1 = kside - k_s - k0
    i1 = iside - i_s - i0
    return ApproxPartition(s_tilde, k_s, i_s, k0, k1, i0, i1)


def rule_bound_k0(state: KernelState, ap: ApproxPartition) -> bool | None:
    """Shrink the clique-side class covered by the packing's independent part.

    When k0 outnumbers i_s two to one, a 2-expansion from i_s into k0 finds
    a set X of independent vertices each owning two private clique
    neighbours; X is forced into every solution and is picked wholesale.
    """
    if not ap.k0 or len(ap.k0) < 2 * len(ap.i_s):
        return None
    g = state.instance.graph
    edges = [(p, q) for q in sorted(ap.k0) for p in g.neighbors(q) & ap.i_s]
    view = BipartiteView(ap.i_s, ap.k0, edges)
    res = find_expansion(view, 2)
    x = sorted(res.x)
    state.delete_vertices(x, "bound-k0", picked=x, delta_k=-len(x))
    return True


def rule_bound_k1(state: KernelState, ap: ApproxPartition) -> bool | None:
    """Shrink the clique-side class reaching outside the packing.

    The auxiliary bipartite graph joins the packing to k1: independent
    packing vertices keep their graph edges, clique packing vertices keep an
    edge to u in k1 only when some outside independent vertex witnesses a
    triangle with both.  A 2-expansion again yields a forced set X.
    """
    if not ap.k1 or len(ap.k1) < 2 * len(ap.s_tilde):
        return None
    g = state.instance.graph
    edges = []
    for q in sorted(ap.k1):
        for p in g.neighbors(q):
            if p in ap.i_s:
                edges.append((p, q))
            elif p in ap.k_s and (g.neighbors(p) & g.neighbors(q) & ap.i1):
                edges.append((p, q))
    view = BipartiteView(ap.s_tilde, ap.k1, edges)
    res = find_expansion(view, 2)
    x = sorted(res.x)
    state.delete_vertices(x, "bound-k1", picked=x, delta_k=-len(x))
    return True


def kernel_state(inst: Instance) -> KernelState:
    """Validated working state on a copy of the instance.

    Raises NotSplitError when the graph is not split.
    """
    inst.validate()
    kside, iside = require_split(inst.graph)
    return KernelState(inst.copy(), set(kside), set(iside), RuleTrace())


def kernel_step(state: KernelState) -> str | bool | None:
    """Apply the least-indexed applicable rule once.

    Returns "yes"/"no" for a decision, True when a rule edited the
    instance, and None when the state is fully reduced.
    """
    decided = rule_yes_no(state)
    if decided is not None:
        return decided
    for rule in (
        rule_delete_isolates,
        rule_nonterminal_no_terminal_neighbor,
        rule_delete_bridges,
        rule_pick_clique_terminals,
        rule_max_matching,
        rule_degree_bound,
    ):
        if rule(state):
            return True
    ap = build_approx_partition(state)
    if ap is None:
        state.trace.add("packing-exceeds-budget")
        return "no"
    if rule_bound_k0(state, ap):
        return True
    if rule_bound_k1(state, ap):
        return True
    return None


def kernelize(inst: Instance) -> KernelOutcome:
    """Reduce a split instance to a decision or a quadratic kernel.

    The returned instance, when present, satisfies the size guarantees
    checked by :func:`_check_reduced`; violating them is an internal error.
    """
    state = kernel_state(inst)
    # every productive step deletes a vertex or an edge
    limit = state.instance.graph.n + state.instance.graph.m + 2
    for _ in range(limit):
        out = kernel_step(state)
        if out is None:
            _check_reduced(state)
            return KernelOutcome(
                "reduced",
                state.instance,
                state.trace,
                clique_side=state.clique_side,
                indep_side=state.indep_side,
            )
        if isinstance(out, str):
            return KernelOutcome(out, None, state.trace)
    raise GraphError("kernelization failed to terminate within its step budget")


def _check_reduced(state: KernelState) -> None:
    g, k = state.instance.graph, state.instance.k
    if k < 1:
        raise GraphError("reduced instance kept a non-positive budget")
    if len(state.clique_side) > 10 * k:
        raise GraphError("reduced clique side exceeds 10k")
    for v in state.clique_side:
        if len(g.neighbors(v) & state.indep_side) > k:
            raise GraphError("reduced vertex keeps more than k independent neighbors")
    if g.n > 10 * k + 10 * k * k:
        raise GraphError("reduced instance exceeds its quadratic size bound")
