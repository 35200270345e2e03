"""Tests for the chordal branch-and-reduce solver."""

import random

import pytest

import brute
from sfvs.chordal import NotChordalError
from sfvs.graph import Graph, GraphError, Instance
from sfvs.oracle import oracle_decide
from sfvs.solver import (
    applicable_branch,
    mega_children,
    reduce_fixpoint,
    select_mega_context,
    solve,
)
from sfvs.trace import replay


def build(vertices, edges):
    g = Graph()
    for v in vertices:
        g.add_vertex(v)
    for u, v in edges:
        g.add_edge(u, v)
    return g


def complete(vertices):
    vs = list(vertices)
    return build(vs, [(u, w) for i, u in enumerate(vs) for w in vs[i + 1 :]])


def add_clique(g, vertices):
    vs = sorted(vertices)
    for v in vs:
        if v not in g:
            g.add_vertex(v)
    for i, u in enumerate(vs):
        for w in vs[i + 1 :]:
            g.add_edge(u, w)


def triangle_instance(terminals, k):
    return Instance(complete([1, 2, 3]), set(terminals), k)


def leaf_forest(parent, triples, first_terminal):
    """Terminal-free parent clique plus one simplicial terminal per triple."""
    g = complete(parent)
    terminals = set()
    nxt = first_terminal
    for tri in triples:
        g.add_vertex(nxt)
        for u in tri:
            g.add_edge(nxt, u)
        terminals.add(nxt)
        nxt += 1
    return Instance(g, terminals, 0)


def pasch_instance(k):
    inst = leaf_forest([1, 2, 3, 4, 5, 6], [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)], 7)
    inst.k = k
    return inst


def eight_point_instance(k):
    triples = [(1, 2, 3), (1, 4, 5), (2, 6, 7), (3, 6, 8), (4, 7, 8), (2, 5, 8)]
    inst = leaf_forest(list(range(1, 9)), triples, 9)
    inst.k = k
    return inst


def book_pasch_instance(k):
    """A triangle book sharing spine 11-14 next to a Pasch leaf forest."""
    inst = pasch_instance(k)
    g = inst.graph
    for v in (11, 12, 13, 14):
        g.add_vertex(v)
    for u in (12, 13, 14):
        g.add_edge(11, u)
    g.add_edge(14, 12)
    g.add_edge(14, 13)
    inst.terminals.add(11)
    return inst


def random_chordal(rng, n, skip=0.1, grow=0.75):
    """Chordal graph built by attaching each new vertex to a clique."""
    g = Graph()
    order = list(range(1, n + 1))
    for idx, v in enumerate(order):
        g.add_vertex(v)
        if not idx or rng.random() < skip:
            continue
        anchor = rng.choice(order[:idx])
        clique = {anchor}
        cands = set(g.neighbors(anchor))
        while cands and rng.random() < grow:
            c = rng.choice(sorted(cands))
            clique.add(c)
            cands &= g.neighbors(c)
        for u in clique:
            g.add_edge(v, u)
    return g


def random_chordal_instance(rng, max_n=11, max_k=4):
    g = random_chordal(rng, rng.randint(1, max_n))
    terminals = {v for v in g.vertices() if rng.random() < 0.4}
    return Instance(g, terminals, rng.randint(0, max_k))


class TestValidation:
    def test_rejects_non_chordal(self):
        g = build([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)])
        with pytest.raises(NotChordalError):
            solve(Instance(g, {1}, 2))

    def test_rejects_terminal_outside_graph(self):
        with pytest.raises(GraphError):
            solve(Instance(complete([1, 2, 3]), {9}, 1))


class TestKnownAnswers:
    def test_triangle_single_terminal(self):
        res = solve(triangle_instance({1}, 1))
        assert res.answer and res.solution == {1}

    def test_triangle_zero_budget(self):
        res = solve(triangle_instance({1}, 0))
        assert not res.answer and res.solution is None
        assert res.nodes_visited == 1

    def test_negative_budget(self):
        assert not solve(triangle_instance({1}, -1)).answer

    def test_two_disjoint_terminal_triangles(self):
        g = complete([1, 2, 3])
        add_clique(g, [4, 5, 6])
        assert not solve(Instance(g, {1, 4}, 1)).answer
        res = solve(Instance(g, {1, 4}, 2))
        assert res.answer and len(res.solution) == 2

    def test_terminal_free_yes(self):
        res = solve(Instance(complete(range(1, 6)), set(), 0))
        assert res.answer and res.solution == set()

    def test_empty_graph(self):
        res = solve(Instance(Graph(), set(), 0))
        assert res.answer and res.solution == set() and res.nodes_visited == 1

    def test_k5_one_terminal(self):
        res = solve(Instance(complete(range(1, 6)), {1}, 1))
        assert res.answer and res.solution == {1}

    def test_solution_validity_rechecked(self):
        inst = book_pasch_instance(5)
        res = solve(inst)
        assert res.answer
        survivors = inst.graph.without_vertices(res.solution)
        assert brute.is_t_forest(survivors, inst.terminals - res.solution)


class TestReduceFixpoint:
    def run_reduce(self, inst):
        picks, path = set(), []
        outcome = reduce_fixpoint(inst, picks, path)
        return outcome, picks, [e.rule for e in path], path

    def test_clique_component_many_nonterminals_picks_terminals(self):
        inst = Instance(complete([1, 2, 3, 4]), {2}, 1)
        outcome, picks, rules, _ = self.run_reduce(inst)
        assert outcome == "yes" and picks == {2}
        assert rules == ["clique-component", "decide-yes"]
        assert inst.k == 0

    def test_clique_component_few_nonterminals_picks_lowest(self):
        inst = Instance(complete([1, 2, 3]), {3}, 1)
        outcome, picks, rules, path = self.run_reduce(inst)
        assert outcome == "yes" and picks == {1}
        assert path[0].delta_k == -1

    def test_isolated_edge_removed_without_pick(self):
        g = complete([1, 2])
        add_clique(g, [3, 4, 5])
        inst = Instance(g, {3}, 1)
        outcome, picks, rules, path = self.run_reduce(inst)
        assert outcome == "yes"
        assert path[0].rule == "clique-component"
        assert path[0].deleted_vertices == (1, 2) and path[0].picked == ()
        assert picks == {3}

    def test_all_clique_components_go_in_one_pass(self):
        # the terminal-free edge goes in the same pass as the triangle, so
        # it is removed before the now triangle-free instance is decided
        g = complete([1, 2, 3])
        add_clique(g, [4, 5])
        inst = Instance(g, {1}, 1)
        outcome, picks, rules, path = self.run_reduce(inst)
        assert outcome == "yes" and picks == {1}
        assert rules == ["clique-component", "clique-component", "decide-yes"]
        assert [e.deleted_vertices for e in path[:2]] == [(1, 2, 3), (4, 5)]

    def test_pendant_edge_is_bridged_then_swept(self):
        g = complete([1, 2, 3])
        g.add_vertex(4)
        g.add_edge(3, 4)
        inst = Instance(g, {3}, 1)
        outcome, _, rules, path = self.run_reduce(inst)
        assert outcome == "yes"
        assert rules[0] == "delete-bridges"
        assert path[0].deleted_edges == ((3, 4),)
        assert "clique-component" in rules[1:]

    def test_nonterminals_without_terminal_neighbors_removed_together(self):
        # path of triangles; only the first touches the terminal
        g = complete([1, 2, 3])
        add_clique(g, [3, 4, 5])
        add_clique(g, [5, 6, 7])
        inst = Instance(g, {1}, 1)
        outcome, picks, rules, path = self.run_reduce(inst)
        assert outcome == "yes" and picks == {1}
        lonely = [e for e in path if e.rule == "no-terminal-neighbor"]
        assert lonely and set(lonely[0].deleted_vertices) == {4, 5, 6, 7}

    def test_budget_exhaustion_decides_no(self):
        inst = triangle_instance({1}, 0)
        outcome, _, rules, _ = self.run_reduce(inst)
        assert outcome == "no" and rules == ["decide-no"]


class TestBranchSelection:
    def test_lone_terminal_neighbor(self):
        # vertex 4 has terminal neighbor 1 only; 2 and 3 also see terminal 5
        g = complete([1, 2, 3, 4])
        g.add_vertex(5)
        g.add_edge(5, 2)
        g.add_edge(5, 3)
        inst = Instance(g, {1, 5}, 2)
        rule, children = applicable_branch(inst)
        assert rule == "lone-terminal-neighbor"
        assert children == [({1}, {1}), ({2}, {2})]

    def test_triangle_simplicial(self):
        g = complete([1, 2, 3])
        g.add_vertex(4)
        g.add_edge(4, 2)
        g.add_edge(4, 3)
        inst = Instance(g, {1, 2, 3}, 2)
        rule, children = applicable_branch(inst)
        assert rule == "triangle-simplicial"
        assert children == [({1, 2}, {2}), ({1, 3}, {3})]

    def test_big_clique(self):
        g = complete([1, 2, 3, 4, 5])
        g.add_vertex(6)
        for u in (2, 3, 4):
            g.add_edge(6, u)
        g.add_vertex(7)
        for u in (3, 4, 5):
            g.add_edge(7, u)
        inst = Instance(g, {1, 6, 7}, 3)
        rule, children = applicable_branch(inst)
        assert rule == "big-clique"
        assert children == [({1}, {1}), ({2, 3}, {2, 3}), ({4, 5}, {4, 5})]

    def test_nonterminal_simplicial(self):
        g = complete([1, 2, 3, 4])
        g.add_vertex(5)
        for u in (2, 3, 4):
            g.add_edge(5, u)
        inst = Instance(g, {2, 3}, 2)
        rule, children = applicable_branch(inst)
        assert rule == "nonterminal-simplicial"
        assert children == [({2}, {2}), ({1, 3, 4}, {3, 4})]

    def test_twin_terminal_simplicial(self):
        g = complete([1, 2, 3, 4])
        add_clique(g, [3, 4, 5, 6])
        add_clique(g, [5, 6, 7, 8])
        inst = Instance(g, {1, 2, 7, 8}, 3)
        rule, children = applicable_branch(inst)
        assert rule == "twin-terminal-simplicial"
        assert children == [({2, 3}, {2, 3}), ({3, 4}, {3, 4}), ({2, 4}, {2, 4})]

    def test_outside_terminal_pair(self):
        inst = leaf_forest(
            [1, 2, 3, 4, 5, 6],
            [(1, 2, 3), (1, 2, 4), (3, 4, 5), (3, 5, 6), (4, 5, 6)],
            7,
        )
        inst.k = 4
        rule, children = applicable_branch(inst)
        assert rule == "outside-terminal-pair"
        assert children == [
            ({1, 2}, {1, 2}),
            ({2, 3}, {2, 3}),
            ({1, 3}, {1, 3}),
            ({7, 8}, {7, 8}),
        ]

    def test_small_component(self):
        # two K4s sharing the edge 3-4: a two-node clique tree that no local
        # rule touches, so the component is solved by brute force
        g = complete([1, 2, 3, 4])
        add_clique(g, [3, 4, 5, 6])
        inst = Instance(g, set(), 1)
        assert applicable_branch(inst) == ("small-component", [([1, 2, 3, 4, 5, 6], set())])

    def test_reduced_instances_reach_each_rule(self):
        # every construction above sits at a reduce fixpoint already
        for make, expect in [
            (lambda: pasch_instance(3), "sibling-leaf-cliques"),
            (lambda: eight_point_instance(3), "sibling-leaf-cliques"),
        ]:
            inst = make()
            assert reduce_fixpoint(inst.copy(), set(), []) is None
            assert applicable_branch(inst)[0] == expect


class TestMegaContext:
    def test_pasch_context(self):
        inst = pasch_instance(4)
        ctx = select_mega_context(inst.graph, inst.terminals)
        assert sorted(ctx.c_ell) == [1, 2, 3, 7]
        assert (ctx.t, ctx.x, ctx.y, ctx.z) == (7, 1, 2, 3)
        assert (ctx.t_x, ctx.t_y) == (8, 9)
        assert ctx.x_pair == (4, 5) and ctx.y_pair == (4, 6)
        assert ctx.shared == 4

    def test_eight_point_context_has_disjoint_pairs(self):
        inst = eight_point_instance(4)
        ctx = select_mega_context(inst.graph, inst.terminals)
        assert ctx.shared is None
        assert not set(ctx.x_pair) & set(ctx.y_pair)

    def test_context_cliques_are_cliques(self):
        inst = pasch_instance(4)
        g = inst.graph
        ctx = select_mega_context(g, inst.terminals)
        for cl in (ctx.c_ell, ctx.c_p, ctx.c_x, ctx.c_y):
            assert g.is_clique(cl)
        assert set(ctx.x_pair) <= ctx.c_x and set(ctx.y_pair) <= ctx.c_y

    def test_children_shapes(self):
        inst = pasch_instance(4)
        ctx = select_mega_context(inst.graph, inst.terminals)
        children = mega_children(ctx)
        assert len(children) == 7
        assert children[4] == ({ctx.x}, {ctx.x})
        for deleted, picked in children:
            assert deleted == picked
        # shared side vertex makes the fourth child one pick smaller
        assert len(children[3][1]) == 4
        inst8 = eight_point_instance(4)
        ctx8 = select_mega_context(inst8.graph, inst8.terminals)
        assert len(mega_children(ctx8)[3][1]) == 5

    def test_rejects_small_tree(self):
        with pytest.raises(GraphError):
            select_mega_context(complete([1, 2, 3]), {1})


class TestMegaSolve:
    def test_pasch_thresholds(self):
        for k, expect in [(3, False), (4, True)]:
            inst = pasch_instance(k)
            res = solve(inst)
            assert res.answer is expect
            want, _ = oracle_decide(inst.copy())
            assert want is expect

    def test_eight_point_thresholds(self):
        for k in range(0, 8):
            inst = eight_point_instance(k)
            want, _ = oracle_decide(inst.copy())
            res = solve(inst)
            assert res.answer is want
            assert res.nodes_visited <= 2 ** (k + 2)

    def test_book_pasch_within_node_bound(self):
        for k in range(0, 7):
            inst = book_pasch_instance(k)
            want, _ = oracle_decide(inst.copy())
            res = solve(inst)
            assert res.answer is want
            assert res.nodes_visited <= 2 ** (k + 2)


class TestAgainstOracle:
    def test_random_chordal_matches_oracle(self):
        rng = random.Random(4021)
        megas = 0
        for _ in range(400):
            inst = random_chordal_instance(rng)
            want, _ = oracle_decide(inst.copy())
            res = solve(inst.copy())
            assert res.answer is want, (inst.graph.edges(), inst.terminals, inst.k)
            assert res.nodes_visited <= 2 ** (inst.k + 2)
            assert res.max_depth <= max(inst.k, 0)
            if res.answer:
                assert len(res.solution) <= inst.k
                left = inst.graph.without_vertices(res.solution)
                assert brute.is_t_forest(left, inst.terminals - res.solution)
                megas += any(
                    e.rule == "sibling-leaf-cliques" for e in res.trace
                )
        assert megas >= 0

    def test_trace_replays_to_decided_state(self):
        rng = random.Random(555)
        for _ in range(150):
            inst = random_chordal_instance(rng)
            res = solve(inst.copy())
            if not res.answer:
                continue
            assert res.trace.picked_vertices() == res.solution
            final = replay(inst, res.trace)
            assert final.k >= 0
            assert brute.is_t_forest(final.graph, final.terminals)

    def test_deterministic(self):
        rng = random.Random(777)
        for _ in range(40):
            inst = random_chordal_instance(rng)
            first = solve(inst.copy())
            second = solve(inst.copy())
            assert first.answer == second.answer
            assert first.solution == second.solution
            assert first.nodes_visited == second.nodes_visited
            assert list(first.trace) == list(second.trace)
