"""Recognition, cliques, bridges and matchings against networkx, on graphs with
thousands of vertices, far beyond what the brute-force checkers in brute.py can
reach."""

import random

import pytest

import brute
from sfvs.chordal import NotChordalError, chordality_order, maximal_cliques, require_chordal
from sfvs.expansion import BipartiteView, maximum_matching
from sfvs.generators import GenSpec, generate
from sfvs.graph import edge_key, find_bridges

nx = pytest.importorskip("networkx")

SPECS = [
    GenSpec("chordal-random", 3000, 4, 1),
    GenSpec("planted", 3000, 10, 2),
    GenSpec("split-random", 1000, 6, 3, clique_side=30, edge_prob=0.1),
]


def to_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from(g.edges())
    return h


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
def test_structure_matches_networkx(spec):
    g = generate(spec).graph
    h = to_networkx(g)
    assert (chordality_order(g) is not None) == nx.is_chordal(h)
    assert set(maximal_cliques(g)) == set(nx.chordal_graph_cliques(h))
    assert find_bridges(g) == {edge_key(u, v) for u, v in nx.bridges(h)}


def test_detached_c5_is_certified():
    g = generate(GenSpec("chordal-random", 3000, 4, 4)).graph
    ring = list(range(g.n + 1, g.n + 6))
    for v in ring:
        g.add_vertex(v)
    for a, b in zip(ring, ring[1:] + ring[:1]):
        g.add_edge(a, b)
    with pytest.raises(NotChordalError) as err:
        require_chordal(g)
    cycle = err.value.cycle
    assert len(cycle) >= 4 and brute.induces_cycle(g, cycle)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert g.has_edge(a, b)


@pytest.mark.parametrize("seed", range(3))
def test_matching_size_matches_hopcroft_karp(seed):
    rng = random.Random(seed)
    size = rng.randint(2000, 3000)
    side_p = range(1, size + 1)
    side_q = range(size + 1, 2 * size + 1)
    draws = round(rng.uniform(2, 4) * size)
    edges = {(rng.choice(side_p), rng.choice(side_q)) for _ in range(draws)}
    matching = maximum_matching(BipartiteView(side_p, side_q, edges))
    assert matching <= edges
    assert len({p for p, _ in matching}) == len({q for _, q in matching}) == len(matching)
    h = nx.Graph()
    h.add_nodes_from(side_p)
    h.add_nodes_from(side_q)
    h.add_edges_from(edges)
    assert len(matching) == len(nx.bipartite.hopcroft_karp_matching(h, top_nodes=side_p)) // 2
