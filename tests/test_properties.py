"""Property tests for chordal recognition, clique trees, the instance format,
kernel traces and the solver on drawn graphs."""

import random
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
from sfvs.graph import Graph, Instance, format_instance, parse_instance
from sfvs.kernel import kernelize
from sfvs.oracle import oracle_decide
from sfvs.solver import lower_bound, solve
from sfvs.trace import replay
from test_kernel import reduced_prone_instance

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
# the round trip, replay and determinism checks, fewer examples to keep the file fast
FEWER = hypothesis.settings(SETTINGS, max_examples=60)


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


@st.composite
def split_instances(draw, max_clique=8, max_indep=8):
    """A clique side 1..c and independent terminals, each joined to at most
    three drawn clique vertices; half the draws add clique-side terminals.
    The budget is 0..5."""
    c = draw(st.integers(1, max_clique))
    g = Graph(range(1, c + 1))
    for u, v in combinations(range(1, c + 1), 2):
        g.add_edge(u, v)
    for v in range(c + 1, c + draw(st.integers(0, max_indep)) + 1):
        g.add_vertex(v)
        for u in draw(st.sets(st.integers(1, c), max_size=3)):
            g.add_edge(u, v)
    terminals = set(range(c + 1, g.n + 1))
    if draw(st.booleans()):
        terminals |= draw(st.sets(st.integers(1, c)))
    return Instance(g, terminals, draw(st.integers(0, 5)))


def with_terminals(g, data):
    picks = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    return {v for v, keep in zip(g.vertices(), picks) if keep}


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
    inst = Instance(g, with_terminals(g, data), g.n)
    _, witness = oracle_decide(inst.copy())
    assert lower_bound(inst) <= len(witness)


@FEWER
@hypothesis.given(graphs(), st.data())
def test_format_parse_format_is_a_fixpoint(g, data):
    # relabel to drawn ids, so formatting has to renumber
    ids = data.draw(st.lists(st.integers(1, 10**6), min_size=g.n, max_size=g.n, unique=True))
    label = dict(zip(g.vertices(), ids))
    h = Graph(ids, [(label[u], label[v]) for u, v in g.edges()])
    inst = Instance(h, {label[t] for t in with_terminals(g, data)}, data.draw(st.integers(-2, 9)))
    text = format_instance(inst)
    assert format_instance(parse_instance(text)) == text


# small drawn split instances are nearly always decided, so seeded
# reduced-prone instances supply kernels that survive to a fixpoint
@FEWER
@hypothesis.given(
    st.one_of(
        split_instances(),
        st.integers(0, 2**32).map(lambda seed: reduced_prone_instance(random.Random(seed))),
    )
)
def test_kernel_trace_replays_to_the_kernel(inst):
    out = kernelize(inst)
    replayed = replay(inst, out.trace)
    if out.kind == "reduced":
        assert replayed.graph == out.instance.graph
        assert replayed.terminals == out.instance.terminals
        assert replayed.k == out.instance.k


@FEWER
@hypothesis.given(chordal_graphs(), st.data())
def test_solve_is_deterministic(g, data):
    inst = Instance(g, with_terminals(g, data), data.draw(st.integers(0, 4)))
    first, second = solve(inst.copy()), solve(inst.copy())
    assert first.answer == second.answer and first.solution == second.solution
    assert (first.nodes_visited, first.max_depth, first.pruned) == (
        second.nodes_visited,
        second.max_depth,
        second.pruned,
    )
    assert [e.to_dict() for e in first.trace] == [e.to_dict() for e in second.trace]


# drawn split instances and reduced-prone ones with budget at most 3 both
# stay within 16 vertices, where the oracle's subset enumeration is quick
@FEWER
@hypothesis.given(
    st.one_of(
        split_instances(),
        st.integers(0, 2**32).map(lambda seed: reduced_prone_instance(random.Random(seed), 3)),
    )
)
def test_kernelize_preserves_the_decision(inst):
    assert inst.graph.n <= 16
    out = kernelize(inst)
    got = oracle_decide(out.instance)[0] if out.kind == "reduced" else out.decision()
    assert got == oracle_decide(inst)[0]
