import random

import pytest

import brute
from sfvs import oracle
from sfvs.graph import Graph, Instance, all_t_triangles
from sfvs.oracle import OracleGuardError, oracle_decide, vc_to_sfvs

from test_chordal import random_chordal
from test_graph import complete, graph_of


class TestOracleDecide:
    def test_k4_single_terminal(self):
        inst = Instance(complete([1, 2, 3, 4]), {1}, 1)
        assert oracle_decide(inst) == (True, {1})

    def test_zero_budget_with_triangle(self):
        inst = Instance(complete([1, 2, 3]), {1}, 0)
        assert oracle_decide(inst) == (False, None)

    def test_negative_budget(self):
        inst = Instance(graph_of((1, 2)), {1}, -1)
        assert oracle_decide(inst) == (False, None)

    def test_no_terminals(self):
        inst = Instance(complete([1, 2, 3, 4]), set(), 0)
        assert oracle_decide(inst) == (True, set())

    def test_square_needs_cycle_check(self):
        # chordless square: triangle-free but not a T-forest
        inst = Instance(graph_of((1, 2), (2, 3), (3, 4), (4, 1)), {1}, 1)
        assert oracle_decide(inst)[0] is True
        inst.k = 0
        assert oracle_decide(inst) == (False, None)

    def test_guard(self):
        inst = Instance(Graph(range(1, 26)), set(), 0)
        with pytest.raises(OracleGuardError):
            oracle_decide(inst)
        assert oracle_decide(inst, max_n=30) == (True, set())

    def test_witness_is_min_size_lex_least(self):
        rng = random.Random(4001)
        for _ in range(150):
            g = brute.random_graph(rng.randint(1, 7), rng.random(), rng)
            terms = {v for v in g.vertices() if rng.random() < 0.5}
            k = rng.randint(0, 4)
            inst = Instance(g, terms, k)
            expect = brute.min_subset_fvs(g, terms, cap=k)
            got, witness = oracle_decide(inst)
            assert got == (expect is not None)
            if got:
                # brute enumerates in the same size-then-lex order by definition
                assert witness == expect

    def test_methods_agree_on_chordal(self):
        rng = random.Random(4002)
        for _ in range(150):
            g = random_chordal(rng.randint(1, 9), rng, connect=rng.random() < 0.7)
            terms = {v for v in g.vertices() if rng.random() < 0.5}
            inst = Instance(g, terms, rng.randint(0, 3))
            assert oracle._decide_triangles(inst) == oracle._decide_cycles(inst)


class TestExport3HS:
    """On chordal graphs SFVS is 3-Hitting-Set over the terminal triangles."""

    def test_hitting_decision_matches_oracle(self):
        rng = random.Random(4003)
        for _ in range(120):
            g = random_chordal(rng.randint(1, 8), rng)
            terms = {v for v in g.vertices() if rng.random() < 0.6}
            inst = Instance(g, terms, rng.randint(0, 3))
            triples = all_t_triangles(g, terms)
            assert len(triples) == len(set(triples))
            assert (
                brute.hitting_set_decision(g.vertices(), triples, inst.k)
                == oracle_decide(inst)[0]
            )


class TestVcReduction:
    def test_triangle_graph(self):
        inst = vc_to_sfvs(complete([1, 2, 3]), 2)
        assert inst.graph.n == 6 and inst.terminals == {4, 5, 6}
        assert oracle_decide(inst)[0] is True
        assert oracle_decide(vc_to_sfvs(complete([1, 2, 3]), 1))[0] is False

    def test_structure(self):
        g = graph_of((1, 2), (2, 3))
        inst = vc_to_sfvs(g, 1)
        assert inst.graph.has_edge(1, 3), "original vertices become a clique"
        assert all(inst.graph.degree(t) == 2 for t in inst.terminals)
        assert inst.k == 1

    def test_matches_brute_vertex_cover(self):
        rng = random.Random(4004)
        for _ in range(60):
            g = brute.random_graph(rng.randint(1, 6), rng.random(), rng)
            vc = brute.min_vertex_cover_size(g)
            for k in (max(0, vc - 1), vc):
                inst = vc_to_sfvs(g, k)
                assert oracle_decide(inst)[0] == (vc <= k)
