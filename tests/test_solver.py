"""Tests for the chordal branch-and-reduce solver."""

import random

import pytest

import brute
from sfvs import solver
from sfvs.chordal import NotChordalError
from sfvs.generators import FAMILIES, GenSpec, generate
from sfvs.graph import Graph, GraphError, Instance, find_t_triangle
from sfvs.oracle import oracle_decide, vc_to_sfvs
from sfvs.solver import (
    applicable_branch,
    lower_bound,
    reduce_fixpoint,
    select_mega_context,
    solve,
)
from sfvs.trace import replay
from test_kernel import random_split_instance


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


def oracle_sized_spec(rng, family):
    """A generator spec whose instance has at most 24 vertices."""
    k = rng.randint(0, 6)
    seed = rng.randrange(10**6)
    if family == "vc-reduction":
        # n graph vertices plus one terminal per edge
        return GenSpec(family, rng.randint(3, 6), k, seed, edge_prob=rng.uniform(0.2, 0.6))
    n = rng.randint(4, 24)
    return GenSpec(
        family,
        n,
        k,
        seed,
        clique_side=rng.randint(0, n) if family == "split-random" else 0,
        edge_prob=rng.uniform(0.2, 0.8),
        terminal_frac=rng.uniform(0.2, 0.7),
    )


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
        assert rules[0] == "delete-bridge"
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

    def test_big_clique_before_nonterminal_simplicial(self):
        # 6 is a simplicial non-terminal beside terminals 2 and 3 (rule 4),
        # but the K5 on 1..5 holds a terminal (rule 3)
        g = complete([1, 2, 3, 4, 5])
        g.add_vertex(6)
        for u in (2, 3, 4):
            g.add_edge(6, u)
        inst = Instance(g, {1, 2, 3}, 3)
        rule, children = applicable_branch(inst)
        assert rule == "big-clique"
        assert children == [({1}, {1}), ({2, 3}, {2, 3}), ({4, 5}, {4, 5})]

    def test_triangle_simplicial_before_nonterminal_simplicial(self):
        # 5 is a simplicial non-terminal in {2,3,4,5} (rule 4), 6 a
        # simplicial vertex of the triangle {2,3,6} (rule 2)
        g = complete([1, 2, 3, 4])
        add_clique(g, [2, 3, 4, 5])
        add_clique(g, [2, 3, 6])
        inst = Instance(g, {2, 3}, 2)
        rule, children = applicable_branch(inst)
        assert rule == "triangle-simplicial"
        assert children == [({2, 6}, {2}), ({3, 6}, {3})]

    def test_twin_terminal_simplicial_before_outside_terminal_pair(self):
        # terminal 1's clique holds terminal 2 (rule 5), and the outside
        # terminal 5 sees two of its partners, 3 and 4 (rule 6)
        g = complete([1, 2, 3, 4])
        add_clique(g, [3, 4, 5, 6])
        inst = Instance(g, {1, 2, 5, 6}, 3)
        rule, children = applicable_branch(inst)
        assert rule == "twin-terminal-simplicial"
        assert children == [({2, 3}, {2, 3}), ({3, 4}, {3, 4}), ({2, 4}, {2, 4})]

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
    def test_pasch_children(self):
        # deepest leaf {1,2,3,7} with t=7, x=1, y=2, z=3; sibling leaves
        # {1,4,5,8} and {2,4,6,9} give t_x=8, t_y=9 and pairs {4,5}, {4,6}
        inst = pasch_instance(4)
        children = select_mega_context(inst.graph, inst.terminals)
        assert [sorted(picked) for _, picked in children] == [
            [7, 8, 9],
            [4, 6, 7, 8],
            [4, 5, 7, 9],
            [4, 5, 6, 7],
            [1],
            [2, 3, 8],
            [2, 3, 4, 5],
        ]
        for deleted, picked in children:
            assert deleted == picked

    def test_children_shapes(self):
        # the eight-point pairs are disjoint, so the fourth child keeps all
        # five picks where the pasch child above has four
        inst = eight_point_instance(4)
        children = select_mega_context(inst.graph, inst.terminals)
        assert len(children) == 7
        for deleted, picked in children:
            assert deleted == picked
        assert len(children[3][1]) == 5

    def test_rejects_small_tree(self):
        with pytest.raises(GraphError):
            select_mega_context(complete([1, 2, 3]), {1})

    @pytest.mark.parametrize(
        "parent, triples, extra_terminals, message",
        [
            # the leaves on (1, 4, 5) and (2, 4, 5) share the pair {4, 5}
            ([1, 2, 3, 4, 5], [(1, 2, 3), (1, 4, 5), (2, 4, 5)], set(), "share more than one"),
            ([1, 2, 3, 4, 5], [(1, 2, 3), (3, 4, 5)], set(), "fewer than two"),
            ([1, 2, 3, 4], [(1, 2, 3), (1, 2, 4)], set(), "meets the leaf in two"),
            ([1, 2, 3, 4, 5, 6], [(1, 2, 3), (1, 4, 5), (2, 4, 6)], {6}, "parent clique holds"),
        ],
    )
    def test_rejects_broken_leaf_forests(self, parent, triples, extra_terminals, message):
        inst = leaf_forest(parent, triples, len(parent) + 1)
        with pytest.raises(GraphError, match=message):
            select_mega_context(inst.graph, inst.terminals | extra_terminals)

    def test_rejects_terminal_free_leaves(self):
        # a path of three triangles: the leaves are neither size 4 nor hold a terminal
        g = complete([1, 2, 3])
        add_clique(g, [3, 4, 5])
        add_clique(g, [5, 6, 7])
        with pytest.raises(GraphError, match="not a size-4 clique with one terminal"):
            select_mega_context(g, set())


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

    @pytest.mark.parametrize(
        "make, k",
        [(pasch_instance, 4), (eight_point_instance, 5), (book_pasch_instance, 5)],
        ids=["pasch", "eight-point", "book-pasch"],
    )
    def test_leaf_cascade_solutions_replay(self, make, k):
        # the random instances above never reach the seventh rule
        inst = make(k)
        res = solve(inst.copy())
        assert res.answer
        assert "sibling-leaf-cliques" in res.trace.rules()
        final = replay(inst, res.trace)
        assert find_t_triangle(final.graph, final.terminals) is None

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


class TestLowerBound:
    def test_clique_side_with_private_terminals(self):
        # one degree-2 terminal per pair of K_r: a vertex cover of K_r
        for r in range(2, 8):
            kr = complete(range(1, r + 1))
            assert lower_bound(vc_to_sfvs(kr, r)) == r - 1

    def test_private_terminal_beside_private_terminal_is_not_counted(self):
        # all three are private terminals, so no pair is counted; one pick
        # suffices, where counting the pairs would claim two
        inst = Instance(complete([1, 2, 3]), {1, 2, 3}, 3)
        assert lower_bound(inst) == 1
        assert len(oracle_decide(inst.copy())[1]) == 1

    def test_disjoint_terminal_triangles_are_packed(self):
        # terminals of degree 3 are not private, so only the packing counts
        g = Graph()
        for base in (1, 5, 9, 13):
            add_clique(g, range(base, base + 4))
        inst = Instance(g, {1, 5, 9, 13}, 4)
        assert lower_bound(inst) == 4
        inst.k = 1
        assert lower_bound(inst) == 2

    def test_t_forest_gives_zero(self):
        # a terminal path hanging off two terminal-free triangles
        g = build(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5)])
        add_clique(g, [5, 6, 7])
        add_clique(g, [5, 8, 9])
        inst = Instance(g, {1, 2, 3, 4}, 0)
        assert brute.is_t_forest(g, inst.terminals)
        assert lower_bound(inst) == 0

    def test_never_above_oracle_minimum(self):
        rng = random.Random(6006)
        checked = 0
        for i in range(3000):
            inst = generate(oracle_sized_spec(rng, FAMILIES[i % 4]))
            assert inst.graph.n <= 24
            bound = lower_bound(inst)
            if bound:
                # a solution of size bound - 1 would put the bound above
                # the minimum
                inst.k = bound - 1
                assert not oracle_decide(inst)[0], inst
                checked += 1
        assert checked >= 2000

    def test_same_search_without_the_bound(self, monkeypatch):
        rng = random.Random(6007)
        insts = [random_chordal_instance(rng) for _ in range(1500)]
        insts += [random_split_instance(rng) for _ in range(1500)]
        bounded = [solve(inst.copy()) for inst in insts]
        monkeypatch.setattr(solver, "lower_bound", lambda inst: 0)
        for inst, res in zip(insts, bounded):
            plain = solve(inst.copy())
            assert plain.pruned == 0
            assert (res.answer, res.solution) == (plain.answer, plain.solution)
            assert list(res.trace) == list(plain.trace)
            assert res.nodes_visited <= plain.nodes_visited
        assert any(res.pruned for res in bounded)

    @pytest.mark.parametrize(
        "spec",
        [
            GenSpec("split-random", 400, 10, 1, clique_side=60),
            GenSpec("vc-reduction", 30, 12, 1, edge_prob=0.3),
        ],
        ids=["split-n400-k10", "vc-n168-k12"],
    )
    def test_baseline_rows_stop_at_the_root(self, spec):
        res = solve(generate(spec))
        assert not res.answer
        assert res.nodes_visited == 1 and res.pruned == 1
