import random
from itertools import combinations

import pytest

import brute
from sfvs.chordal import (
    NotChordalError,
    NotSplitError,
    build_clique_tree,
    chordality_order,
    is_highlighted,
    is_perfect_elimination_ordering,
    maximal_cliques,
    mcs_visit_order,
    require_chordal,
    require_split,
    split_partition,
)
from sfvs.generators import FAMILIES, GenSpec, generate
from sfvs.graph import Graph, connected_components

from test_graph import complete, graph_of


def random_chordal(n, rng, max_clique=4, connect=True):
    """Grow a graph one simplicial vertex at a time; reverse insertion is a PEO."""
    g = Graph()
    cliques = []
    for v in range(1, n + 1):
        g.add_vertex(v)
        if not cliques:
            cliques.append({v})
            continue
        base = rng.choice(cliques)
        low = 1 if connect else 0
        size = rng.randint(low, min(len(base), max_clique - 1))
        sub = set(rng.sample(sorted(base), size))
        for u in sub:
            g.add_edge(u, v)
        cliques.append(sub | {v})
    return g


def tree_path(tree, i, j):
    prev = {i: None}
    queue = [i]
    while queue:
        v = queue.pop(0)
        if v == j:
            path = []
            cur = v
            while cur is not None:
                path.append(cur)
                cur = prev[cur]
            return path
        for w in tree.neighbors(v):
            if w not in prev:
                prev[w] = v
                queue.append(w)
    raise AssertionError("clique tree is not connected")


class TestChordality:
    def test_k4_minus_edge_has_ordering(self):
        g = complete([1, 2, 3, 4])
        g.remove_edge(1, 4)
        peo = chordality_order(g)
        assert peo is not None
        assert is_perfect_elimination_ordering(g, peo)

    def test_square_is_not_chordal(self):
        g = graph_of((1, 2), (2, 3), (3, 4), (4, 1))
        assert chordality_order(g) is None
        with pytest.raises(NotChordalError) as err:
            require_chordal(g)
        assert sorted(err.value.cycle) == [1, 2, 3, 4]

    def test_certificate_is_an_induced_long_cycle(self):
        rng = random.Random(2001)
        rejected = 0
        for _ in range(300):
            g = brute.random_graph(rng.randint(4, 8), rng.random(), rng)
            if chordality_order(g) is not None:
                continue
            rejected += 1
            with pytest.raises(NotChordalError) as err:
                require_chordal(g)
            cyc = err.value.cycle
            assert len(cyc) >= 4 and len(set(cyc)) == len(cyc)
            ring = cyc + [cyc[0]]
            for a, b in zip(ring, ring[1:]):
                assert g.has_edge(a, b)
            for a, b in combinations(cyc, 2):
                if g.has_edge(a, b):
                    ia, ib = cyc.index(a), cyc.index(b)
                    gap = abs(ia - ib)
                    assert gap == 1 or gap == len(cyc) - 1
        assert rejected > 40

    def test_dense_graph_plus_c5_is_certified(self):
        g = generate(GenSpec("chordal-random", 2000, 4, 1, edge_prob=0.9)).graph
        assert g.m > 19_000
        ring = list(range(g.n + 1, g.n + 6))
        for v in ring:
            g.add_vertex(v)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            g.add_edge(a, b)
        with pytest.raises(NotChordalError) as err:
            require_chordal(g)
        assert sorted(err.value.cycle) == ring
        assert brute.induces_cycle(g, err.value.cycle)

    def test_certificates_on_generator_graphs_with_added_edges(self):
        rng = random.Random(2012)
        rejected = 0
        for i in range(300):
            spec = GenSpec(
                FAMILIES[i % 4], rng.randint(8, 40), 3, i, clique_side=4, edge_prob=rng.random()
            )
            g = generate(spec).graph
            vs = g.vertices()
            for _ in range(rng.randint(1, 3)):
                u = rng.choice(vs)
                others = sorted(set(vs) - g.neighbors(u) - {u})
                if others:
                    g.add_edge(u, rng.choice(others))
            try:
                peo = require_chordal(g)
            except NotChordalError as err:
                rejected += 1
                cyc = err.cycle
                assert len(cyc) >= 4 and brute.induces_cycle(g, cyc)
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    assert g.has_edge(a, b)
            else:
                assert is_perfect_elimination_ordering(g, peo)
        assert rejected > 100

    def test_agrees_with_brute_recognition(self):
        rng = random.Random(2002)
        for _ in range(250):
            g = brute.random_graph(rng.randint(1, 8), rng.random(), rng)
            assert (chordality_order(g) is not None) == brute.is_chordal(g)
        for _ in range(100):
            g = random_chordal(rng.randint(1, 10), rng, connect=rng.random() < 0.7)
            assert chordality_order(g) is not None

    def test_require_chordal_returns_peo(self):
        rng = random.Random(2003)
        for _ in range(50):
            g = random_chordal(rng.randint(1, 10), rng)
            assert is_perfect_elimination_ordering(g, require_chordal(g))

    def test_visit_order_matches_full_scan(self):
        rng = random.Random(2009)
        graphs = [Graph(range(1, 31)), complete(range(1, 31))]
        for _ in range(2000):
            n = rng.randint(0, 30)
            first = rng.randint(0, n) if rng.random() < 0.25 else n
            g = brute.random_graph(first, rng.random(), rng)
            # vertices past `first` form a second, disjoint random part
            for v in range(first + 1, n + 1):
                g.add_vertex(v)
                for u in range(first + 1, v):
                    if rng.random() < 0.5:
                        g.add_edge(u, v)
            graphs.append(g)
        disconnected = non_chordal = 0
        for g in graphs:
            assert mcs_visit_order(g) == brute.mcs_visit_order(g)
            disconnected += len(connected_components(g)) > 1
            non_chordal += chordality_order(g) is None
        assert disconnected > 500 and non_chordal > 500


class TestMaximalCliques:
    def test_path(self):
        g = graph_of((1, 2), (2, 3))
        assert set(maximal_cliques(g)) == {frozenset({1, 2}), frozenset({2, 3})}

    def test_two_triangles_sharing_an_edge(self):
        g = graph_of((1, 2), (1, 3), (2, 3), (2, 4), (3, 4))
        assert set(maximal_cliques(g)) == {frozenset({1, 2, 3}), frozenset({2, 3, 4})}

    def test_single_vertex(self):
        g = Graph([7])
        assert maximal_cliques(g) == [frozenset({7})]

    def test_star_is_one_clique_per_leaf(self):
        n = 16_000
        g = Graph(range(1, n + 2))
        for leaf in range(2, n + 2):
            g.add_edge(1, leaf)
        assert maximal_cliques(g) == [frozenset({1, leaf}) for leaf in range(2, n + 2)]
        tree = build_clique_tree(g)
        assert tree.edges == [(0, i) for i in range(1, n)]

    def test_book_is_one_clique_per_page(self):
        pages = range(3, 16_003)
        g = graph_of((1, 2))
        for p in pages:
            g.add_vertex(p)
            g.add_edge(1, p)
            g.add_edge(2, p)
        tree = build_clique_tree(g)
        assert tree.cliques == [frozenset({1, 2, p}) for p in pages]
        assert tree.edges == [(0, i) for i in range(1, len(pages))]

    def test_non_chordal_input_is_rejected(self):
        c4 = graph_of((1, 2), (2, 3), (3, 4), (4, 1))
        for build in (maximal_cliques, build_clique_tree):
            with pytest.raises(NotChordalError) as err:
                build(c4)
            assert sorted(err.value.cycle) == [1, 2, 3, 4]

    def test_matches_brute_on_random_chordal(self):
        rng = random.Random(2004)
        for _ in range(200):
            g = random_chordal(rng.randint(1, 9), rng, connect=rng.random() < 0.7)
            got = maximal_cliques(g)
            assert len(got) == len(set(got)), "a clique listed twice"
            assert len(got) <= g.n
            assert set(got) == brute.maximal_cliques(g)


class TestCliqueTree:
    def test_star_shape(self):
        # three leaf triangles hanging off one central clique
        g = complete([1, 2, 3])
        for leaf, pair in ((11, (1, 2)), (12, (2, 3)), (13, (1, 3))):
            g.add_vertex(leaf)
            for u in pair:
                g.add_edge(leaf, u)
        tree = build_clique_tree(g)
        assert len(tree.cliques) == 4
        center = tree.cliques.index(frozenset({1, 2, 3}))
        assert tree.degree(center) == 3
        assert sorted(tree.degree(i) for i in range(4)) == [1, 1, 1, 3]

    def test_invariants_on_random_chordal(self):
        rng = random.Random(2005)
        for _ in range(150):
            g = random_chordal(rng.randint(1, 9), rng, connect=rng.random() < 0.7)
            tree = build_clique_tree(g)
            nodes = len(tree.cliques)
            # a tree: node count minus one edges, connected via any path query
            assert len(tree.edges) == nodes - 1
            assert set(tree.cliques) == brute.maximal_cliques(g)
            for i, j in combinations(range(nodes), 2):
                inter = tree.cliques[i] & tree.cliques[j]
                for p in tree_path(tree, i, j):
                    assert inter <= tree.cliques[p]

    def test_links_match_full_scan(self):
        rng = random.Random(2010)
        disconnected = 0
        for _ in range(300):
            g = random_chordal(
                rng.randint(1, 40), rng, max_clique=rng.randint(2, 6), connect=rng.random() < 0.5
            )
            want = brute.mcs_maximal_cliques(g)
            assert maximal_cliques(g) == want
            tree = build_clique_tree(g)
            assert tree.cliques == want
            assert tree.edges == brute.clique_tree_edges(want)
            disconnected += len(connected_components(g)) > 1
        assert disconnected > 100

    @pytest.mark.parametrize("family", FAMILIES)
    def test_links_match_full_scan_on_generator_families(self, family):
        rng = random.Random(2013)
        for seed in range(25):
            n = rng.randint(1, 15 if family == "vc-reduction" else 80)
            spec = GenSpec(family, n, 4, seed, clique_side=rng.randint(0, n), edge_prob=rng.random())
            g = generate(spec).graph
            want = brute.mcs_maximal_cliques(g)
            assert maximal_cliques(g) == want
            tree = build_clique_tree(g)
            assert tree.cliques == want
            assert tree.edges == brute.clique_tree_edges(want)

    def test_rooted_matches_tree_paths(self):
        rng = random.Random(2011)
        for _ in range(100):
            g = random_chordal(rng.randint(1, 30), rng, connect=rng.random() < 0.5)
            tree = build_clique_tree(g)
            root = rng.randrange(len(tree.cliques))
            parent, children, depth = tree.rooted(root)
            for i in range(len(tree.cliques)):
                path = tree_path(tree, root, i)  # i back to root
                assert depth[i] == len(path) - 1
                assert parent[i] == (path[1] if len(path) > 1 else None)
                assert children[i] == [j for j in tree.neighbors(i) if j != parent[i]]

    def test_leaves_are_simplicial(self):
        rng = random.Random(2006)
        for _ in range(100):
            g = random_chordal(rng.randint(2, 9), rng)
            tree = build_clique_tree(g)
            if len(tree.cliques) < 2:
                continue
            for leaf in tree.leaves():
                clique = tree.cliques[leaf]
                others = set().union(
                    *(c for i, c in enumerate(tree.cliques) if i != leaf)
                )
                assert clique - others, f"leaf {set(clique)} has no private vertex"


class TestSplit:
    def test_claw(self):
        g = graph_of((1, 2), (1, 3), (1, 4))
        parts = split_partition(g)
        assert parts == ({1, 2}, {3, 4})

    def test_non_split_families(self):
        c4 = graph_of((1, 2), (2, 3), (3, 4), (4, 1))
        c5 = graph_of((1, 2), (2, 3), (3, 4), (4, 5), (5, 1))
        two_k2 = graph_of((1, 2), (3, 4))
        for g in (c4, c5, two_k2):
            assert split_partition(g) is None
            with pytest.raises(NotSplitError) as err:
                require_split(g)
            u, v = err.value.witness
            assert u in g and v in g

    def test_empty_and_edgeless(self):
        assert split_partition(Graph()) == (set(), set())
        kside, iside = split_partition(Graph([1, 2, 3]))
        assert kside | iside == {1, 2, 3} and len(kside & iside) == 0

    def test_matches_brute_on_random_graphs(self):
        rng = random.Random(2007)
        split_seen = 0
        for _ in range(300):
            g = brute.random_graph(rng.randint(1, 8), rng.random(), rng)
            valid = brute.split_partitions(g)
            parts = split_partition(g)
            if parts is None:
                assert not valid
            else:
                split_seen += 1
                assert (parts[0], parts[1]) in [(k, i) for k, i in valid]
        assert split_seen > 60

    def test_random_split_graphs_accepted(self):
        rng = random.Random(2008)
        for _ in range(200):
            ks = rng.randint(0, 6)
            isz = rng.randint(0, 6)
            g = complete(range(1, ks + 1))
            for v in range(ks + 1, ks + isz + 1):
                g.add_vertex(v)
                for u in range(1, ks + 1):
                    if rng.random() < 0.5:
                        g.add_edge(u, v)
            parts = split_partition(g)
            assert parts is not None
            kside, iside = parts
            assert g.is_clique(kside)
            assert all(not (g.neighbors(v) & iside) for v in iside)


class TestHighlighted:
    def test_basic(self):
        g = complete([1, 2, 3])
        g.add_vertex(4)
        g.add_edge(4, 1)
        g.add_edge(4, 2)
        assert is_highlighted(g, {4}, 1, 2)
        assert not is_highlighted(g, {4}, 1, 3)

    def test_requires_edge(self):
        g = graph_of((1, 2))
        g.add_vertex(3)
        with pytest.raises(Exception):
            is_highlighted(g, set(), 1, 3)
