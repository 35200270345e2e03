"""Property tests for chordal recognition, clique trees and the solver's
lower bound on drawn graphs."""

from itertools import combinations

import pytest

import brute
from sfvs.chordal import (
    NotChordalError,
    build_clique_tree,
    is_perfect_elimination_ordering,
    maximal_cliques,
    require_chordal,
)
from sfvs.graph import Graph, Instance
from sfvs.oracle import oracle_decide
from sfvs.solver import lower_bound

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(range(1, n + 1))
    for (u, v), keep in zip(pairs, chosen):
        if keep:
            g.add_edge(u, v)
    return g


@st.composite
def chordal_graphs(draw, max_n=9):
    """Add vertices one at a time, each joined to a drawn subset of an
    earlier vertex's recorded clique, so the reversed insertion order is a
    perfect elimination ordering.  Unless the draw asks for a connected
    graph, an empty subset starts a new component."""
    n = draw(st.integers(1, max_n))
    low = 1 if draw(st.booleans()) else 0
    g = Graph([1])
    cliques = [{1}]
    for v in range(2, n + 1):
        base = sorted(draw(st.sampled_from(cliques)))
        sub = draw(st.sets(st.sampled_from(base), min_size=low))
        g.add_vertex(v)
        for u in sub:
            g.add_edge(u, v)
        cliques.append(sub | {v})
    return g


@SETTINGS
@hypothesis.given(graphs())
def test_recognition_agrees_with_brute(g):
    try:
        peo = require_chordal(g)
    except NotChordalError as err:
        cycle = err.cycle
        assert not brute.is_chordal(g)
        assert len(cycle) >= 4 and brute.induces_cycle(g, cycle)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert g.has_edge(a, b)
    else:
        assert brute.is_chordal(g)
        assert is_perfect_elimination_ordering(g, peo)


@SETTINGS
@hypothesis.given(chordal_graphs())
def test_cliques_and_links_match_references(g):
    want = brute.mcs_maximal_cliques(g)
    assert set(want) == brute.maximal_cliques(g)
    assert maximal_cliques(g) == want
    tree = build_clique_tree(g)
    assert tree.cliques == want
    assert tree.edges == brute.clique_tree_edges(want)


@SETTINGS
@hypothesis.given(chordal_graphs(), st.data())
def test_lower_bound_never_exceeds_the_minimum(g, data):
    picks = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    terminals = {v for v, keep in zip(g.vertices(), picks) if keep}
    inst = Instance(g, terminals, g.n)
    _, witness = oracle_decide(inst.copy())
    assert lower_bound(inst) <= len(witness)
