"""Tests for the split-graph kernelization pipeline."""

import random

import pytest

import brute
from sfvs.chordal import NotSplitError
from sfvs.graph import Graph, Instance
from sfvs.kernel import (
    KernelState,
    bipartite_around,
    build_approx_partition,
    kernel_state,
    kernel_step,
    kernelize,
)
from sfvs.oracle import oracle_decide, vc_to_sfvs
from sfvs.trace import RuleTrace, replay


def clique_graph(vs):
    vs = list(vs)
    g = Graph(vs)
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            g.add_edge(u, v)
    return g


def split_instance(kside, attach, terminals, k):
    """Clique on kside plus one independent vertex per attach entry."""
    g = clique_graph(kside)
    for v, nbrs in sorted(attach.items()):
        g.add_vertex(v)
        for u in nbrs:
            g.add_edge(v, u)
    return Instance(g, set(terminals), k)


def covered_triangle_base(terminals, k):
    # K3 where every clique edge has a common independent neighbour, so the
    # trivial rule's unhighlighted-edge case cannot fire at |K| = k + 2.
    return split_instance(
        [1, 2, 3], {4: [1, 2], 5: [1, 3], 6: [2, 3]}, terminals, k
    )


def random_split_instance(rng, max_clique=7, max_indep=9, max_k=5):
    nk = rng.randint(1, max_clique)
    ni = rng.randint(0, max_indep)
    g = clique_graph(range(1, nk + 1))
    p = rng.uniform(0.2, 0.8)
    for v in range(nk + 1, nk + ni + 1):
        g.add_vertex(v)
        for u in range(1, nk + 1):
            if rng.random() < p:
                g.add_edge(v, u)
    terminals = {v for v in g.vertices() if rng.random() < 0.45}
    return Instance(g, terminals, rng.randint(0, max_k))


def reduced_prone_instance(rng, max_k=4):
    """Split instance that usually survives to a reduced fixpoint.

    Independent terminals come in groups sharing one clique pair, keeping
    local matchings and the disjoint-triangle packing below budget, while
    witnessed extra clique vertices keep the clique side above k + 2.
    """
    k = rng.randint(2, max_k)
    groups = (k + 3) // 2
    extras = max(0, (k + 3) - 2 * groups) + rng.randint(0, 2)
    nk = 2 * groups + extras
    g = clique_graph(range(1, nk + 1))
    ids = list(range(1, nk + 1))
    rng.shuffle(ids)
    pairs = [(ids[2 * i], ids[2 * i + 1]) for i in range(groups)]
    nxt = nk + 1
    for a, b in pairs:
        for _ in range(rng.randint(1, 2)):
            g.add_vertex(nxt)
            g.add_edge(nxt, a)
            g.add_edge(nxt, b)
            nxt += 1
    for i, c in enumerate(ids[2 * groups:]):
        anchor = pairs[i % groups][i % 2]
        g.add_vertex(nxt)
        g.add_edge(nxt, c)
        g.add_edge(nxt, anchor)
        nxt += 1
    return Instance(g, set(range(nk + 1, nxt)), k)


def snapshot(inst):
    return (inst.graph.copy(), set(inst.terminals), inst.k)


def assert_unchanged(inst, snap):
    g, terminals, k = snap
    assert inst.graph == g and inst.terminals == terminals and inst.k == k


class TestBipartiteAround:
    def test_single_triangle(self):
        inst = split_instance([1, 2], {3: [1, 2]}, {3}, 1)
        state = KernelState(inst, {1, 2}, {3}, RuleTrace())
        view = bipartite_around(1, state)
        assert view.side_p == frozenset({2})
        assert view.side_q == frozenset({3})
        assert view.edges() == [(2, 3)]

    def test_no_independent_neighbors(self):
        inst = split_instance([1, 2, 3], {9: [2, 3]}, {9}, 1)
        state = KernelState(inst, {1, 2, 3}, {9}, RuleTrace())
        view = bipartite_around(1, state)
        assert view.side_p == frozenset()
        assert view.side_q == frozenset()

    def test_two_disjoint_paths(self):
        inst = split_instance([1, 2, 3], {4: [1, 2], 5: [1, 3]}, {4, 5}, 1)
        state = KernelState(inst, {1, 2, 3}, {4, 5}, RuleTrace())
        view = bipartite_around(1, state)
        assert view.side_p == frozenset({2, 3})
        assert view.side_q == frozenset({4, 5})
        assert view.edges() == [(2, 4), (3, 5)]


class TestTrivialDecisions:
    def test_no_terminals(self):
        inst = split_instance([1, 2], {3: [1, 2]}, set(), 0)
        out = kernelize(inst)
        assert out.kind == "yes" and out.decision() is True
        assert out.instance is None

    def test_zero_budget_with_triangle(self):
        inst = split_instance([1, 2], {3: [1, 2]}, {3}, 0)
        out = kernelize(inst)
        assert out.kind == "no" and out.decision() is False

    def test_negative_budget_without_triangle(self):
        g = Graph([1, 2], [(1, 2)])
        out = kernelize(Instance(g, {1}, -1))
        assert out.kind == "no"

    def test_negative_budget_without_terminals(self):
        inst = split_instance([1, 2], {3: [1, 2]}, set(), -1)
        out = kernelize(inst)
        assert out.kind == "no" and out.trace.rules() == ["decide-no"]

    def test_no_triangle_zero_budget(self):
        g = Graph([1, 2], [(1, 2)])
        out = kernelize(Instance(g, {1}, 0))
        assert out.kind == "yes"

    def test_small_clique_side(self):
        inst = split_instance([1, 2], {3: [1, 2]}, {3}, 1)
        out = kernelize(inst)
        assert out.kind == "yes"

    def test_clique_side_k_plus_two_unhighlighted(self):
        # K4 with one attached triangle: edge {1,3} has no common
        # independent neighbour, |K| = k + 2.
        inst = split_instance([1, 2, 3, 4], {5: [1, 2]}, {5}, 2)
        out = kernelize(inst)
        assert out.kind == "yes"
        assert out.trace.rules() == ["decide-yes"]

    def test_fully_highlighted_not_decided(self):
        inst = covered_triangle_base({4, 5, 6}, 1)
        out = kernelize(inst)
        assert out.trace.rules()[0] != "decide-yes"
        assert out.kind == "no"


class TestRuleFirings:
    def check_step(self, inst, rule, expect=True):
        want = oracle_decide(inst)[0]
        state = kernel_state(inst)
        out = kernel_step(state)
        assert out is expect if isinstance(expect, bool) else out == expect
        assert state.trace.steps[-1].rule == rule
        assert oracle_decide(state.instance)[0] == want
        return state

    def test_delete_isolated(self):
        inst = covered_triangle_base({4, 5, 6, 7}, 1)
        inst.graph.add_vertex(7)
        inst.graph.add_vertex(8)
        state = self.check_step(inst, "delete-isolated")
        assert len(state.trace) == 1
        assert state.trace.steps[-1].deleted_vertices == (7, 8)
        assert 7 not in state.instance.graph and 8 not in state.instance.graph
        assert 7 not in state.instance.terminals
        assert state.instance.k == 1

    def test_no_terminal_neighbor(self):
        inst = covered_triangle_base({4, 5, 6}, 1)
        for v, nbrs in ((7, (1, 2)), (8, (2, 3))):
            inst.graph.add_vertex(v)
            for u in nbrs:
                inst.graph.add_edge(v, u)
        state = self.check_step(inst, "no-terminal-neighbor")
        assert len(state.trace) == 1
        assert state.trace.steps[-1].deleted_vertices == (7, 8)
        assert 7 not in state.instance.graph and 8 not in state.instance.graph
        assert state.instance.k == 1

    def test_delete_bridge(self):
        inst = covered_triangle_base({4, 5, 6, 7, 8}, 1)
        inst.graph.add_vertex(7)
        inst.graph.add_edge(7, 1)
        inst.graph.add_vertex(8)
        inst.graph.add_edge(8, 2)
        state = self.check_step(inst, "delete-bridge")
        assert len(state.trace) == 1
        assert state.trace.steps[-1].deleted_edges == ((1, 7), (2, 8))
        assert 7 in state.instance.graph
        assert state.instance.graph.degree(7) == 0
        assert state.instance.graph.degree(8) == 0

    def test_pick_clique_terminal(self):
        inst = covered_triangle_base({3, 4, 5, 6}, 1)
        state = self.check_step(inst, "pick-clique-terminal")
        assert 3 not in state.instance.graph
        assert state.trace.steps[-1].picked == (3,)
        assert state.instance.k == 0

    def test_max_matching(self):
        # every B(v) has a matching of size 2 = k + 1
        inst = covered_triangle_base({4, 5, 6}, 1)
        state = self.check_step(inst, "max-matching")
        assert state.trace.steps[-1].picked == (1,)
        assert 1 not in state.instance.graph
        assert state.instance.k == 0

    def test_max_matching_threshold(self):
        # same shape at k=2 leaves every matching at k, so the rule skips
        inst = covered_triangle_base({4, 5, 6}, 2)
        state = kernel_state(inst)
        out = kernel_step(state)
        assert state.trace.steps[-1].rule != "max-matching"

    def test_degree_bound(self):
        inst = split_instance(
            [1, 2, 3, 4, 5],
            {6: [1, 2], 7: [1, 2], 8: [1, 2], 9: [3, 4], 10: [4, 5], 11: [5, 3]},
            {6, 7, 8, 9, 10, 11},
            2,
        )
        want = oracle_decide(inst)[0]
        before = inst.graph.m
        state = kernel_state(inst)
        assert kernel_step(state) is True
        entry = state.trace.steps[-1]
        assert entry.rule == "degree-bound"
        (u, w), = entry.deleted_edges
        assert u == 1 and w in {6, 7, 8}
        assert state.instance.graph.m == before - 1
        assert state.instance.k == 2
        assert oracle_decide(state.instance)[0] == want

    def test_packing_exceeds_budget(self):
        inst = split_instance([1, 2, 3, 4], {5: [1, 2], 6: [3, 4]}, {5, 6}, 1)
        state = self.check_step(inst, "packing-exceeds-budget", expect="no")

    def test_bound_k0(self):
        inst = split_instance(
            list(range(1, 9)),
            {9: [1, 2, 5, 6], 10: [3, 4, 7, 8]},
            {9, 10},
            2,
        )
        state = self.check_step(inst, "bound-k0")
        entry = state.trace.steps[-1]
        assert entry.picked == (9, 10)
        assert entry.delta_k == -2
        assert state.instance.k == 0
        assert not state.instance.terminals

    def test_bound_k1(self):
        attach = {9: [1, 2]}
        for i, c in enumerate([3, 4, 5]):
            attach[10 + i] = [1, c]
        for i, c in enumerate([6, 7, 8]):
            attach[13 + i] = [2, c]
        inst = split_instance(list(range(1, 9)), attach, set(range(9, 16)), 4)
        state = self.check_step(inst, "bound-k1")
        entry = state.trace.steps[-1]
        assert entry.picked == (1, 2)
        assert entry.delta_k == -2
        assert state.instance.k == 2
        # picked vertices were non-terminals; terminal set is untouched
        assert state.instance.terminals == set(range(9, 16))


class TestApproxPartition:
    def test_single_triangle_packing(self):
        inst = split_instance([1, 2, 3, 4], {9: [1, 2]}, {9}, 2)
        state = kernel_state(inst)
        ap = build_approx_partition(state)
        assert ap.s_tilde == {1, 2, 9}
        assert ap.i_s == {9} and ap.k_s == {1, 2}

    def test_partition_classes(self):
        inst = split_instance(
            list(range(1, 9)),
            {9: [1, 2, 5, 6], 10: [3, 4, 7, 8]},
            {9, 10},
            2,
        )
        state = kernel_state(inst)
        ap = build_approx_partition(state)
        assert ap.s_tilde == {1, 2, 3, 4, 9, 10}
        assert ap.k_s == {1, 2, 3, 4} and ap.i_s == {9, 10}
        assert ap.k0 == {5, 6, 7, 8}
        assert ap.k1 == set() and ap.i0 == set() and ap.i1 == set()

    def test_classes_partition_both_sides(self):
        rng = random.Random(40)
        for _ in range(120):
            inst = random_split_instance(rng)
            state = kernel_state(inst)
            ap = build_approx_partition(state)
            if ap is None:
                continue
            assert ap.k_s | ap.k0 | ap.k1 == state.clique_side
            assert not (ap.k_s & ap.k0) and not (ap.k_s & ap.k1)
            assert not (ap.k0 & ap.k1)
            assert ap.i_s | ap.i0 | ap.i1 == state.indep_side
            assert not (ap.i_s & ap.i0) and not (ap.i_s & ap.i1)
            assert not (ap.i0 & ap.i1)
            assert len(ap.s_tilde) <= 3 * state.instance.k
            assert len(ap.k_s) <= 2 * state.instance.k
            assert len(ap.i_s) <= state.instance.k


class TestKernelize:
    def test_rejects_non_split(self):
        g = Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)])
        with pytest.raises(NotSplitError):
            kernelize(Instance(g, {1}, 1))

    def test_input_not_mutated(self):
        rng = random.Random(41)
        for _ in range(40):
            inst = random_split_instance(rng)
            snap = snapshot(inst)
            kernelize(inst)
            assert_unchanged(inst, snap)

    def test_oracle_equivalence_random(self):
        rng = random.Random(42)
        for i in range(250):
            inst = reduced_prone_instance(rng, 3) if i % 3 == 2 else random_split_instance(rng)
            want = oracle_decide(inst)[0]
            out = kernelize(inst)
            if out.kind == "reduced":
                got = oracle_decide(out.instance)[0]
            else:
                got = out.decision()
            assert got == want

    def test_size_bounds(self):
        rng = random.Random(43)
        reduced = 0
        for i in range(300):
            if i % 2:
                inst = reduced_prone_instance(rng)
            else:
                inst = random_split_instance(rng, max_clique=10, max_indep=12, max_k=4)
            out = kernelize(inst)
            if out.kind != "reduced":
                continue
            reduced += 1
            k = out.instance.k
            g = out.instance.graph
            assert 1 <= k <= inst.k
            assert len(out.clique_side) <= 10 * k
            for v in out.clique_side:
                assert len(g.neighbors(v) & out.indep_side) <= k
            assert g.n <= 10 * k + 10 * k * k
            assert g.n <= inst.graph.n
        assert reduced >= 20

    def test_reduced_structure(self):
        rng = random.Random(44)
        seen = 0
        for i in range(250):
            inst = reduced_prone_instance(rng) if i % 2 else random_split_instance(rng)
            out = kernelize(inst)
            if out.kind != "reduced":
                continue
            seen += 1
            g, terminals = out.instance.graph, out.instance.terminals
            assert terminals == out.indep_side
            tri_cover = set()
            for tri in brute.triangles_through_terminals(g, terminals):
                tri_cover |= set(tri)
            for v in g.vertices():
                assert g.degree(v) >= 2
                assert v in tri_cover
                if v not in terminals:
                    assert g.neighbors(v) & terminals
                else:
                    # terminals ended up independent: no two adjacent
                    assert not (g.neighbors(v) & terminals)
            assert not brute.bridges(g)
        assert seen >= 30

    def test_trace_replay(self):
        rng = random.Random(45)
        for _ in range(150):
            inst = random_split_instance(rng)
            out = kernelize(inst)
            for step in out.trace:
                assert set(step.picked) <= set(step.deleted_vertices)
                assert step.delta_k == -len(step.picked)
            if out.kind != "reduced":
                continue
            replayed = replay(inst, out.trace)
            assert replayed.graph == out.instance.graph
            assert replayed.terminals == out.instance.terminals
            assert replayed.k == out.instance.k

    def test_deterministic(self):
        rng = random.Random(46)
        for _ in range(60):
            inst = random_split_instance(rng)
            first = kernelize(inst)
            second = kernelize(inst)
            assert first.kind == second.kind
            assert first.trace.steps == second.trace.steps
            if first.kind == "reduced":
                assert first.instance.graph == second.instance.graph
                assert first.instance.terminals == second.instance.terminals
                assert first.instance.k == second.instance.k

    def test_vc_reduction_of_cycle(self):
        g = Graph(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
        out = kernelize(vc_to_sfvs(g, 2))
        if out.kind == "reduced":
            assert oracle_decide(out.instance)[0] is False
        else:
            assert out.kind == "no"

    def test_vc_reduction_random(self):
        rng = random.Random(47)
        for _ in range(60):
            n = rng.randint(2, 6)
            g = brute.random_graph(n, rng.uniform(0.2, 0.9), rng)
            vc = brute.min_vertex_cover_size(g)
            for k in (max(vc - 1, 0), vc):
                out = kernelize(vc_to_sfvs(g, k))
                if out.kind == "reduced":
                    got = oracle_decide(out.instance)[0]
                else:
                    got = out.decision()
                assert got == (vc <= k)
