import random

import pytest

import brute
from sfvs.graph import (
    Graph,
    GraphError,
    Instance,
    ParseError,
    all_t_triangles,
    connected_components,
    edge_key,
    find_bridges,
    find_t_triangle,
    find_terminal_cycle,
    format_instance,
    is_t_forest,
    pack_triangles,
    parse_instance,
    solution_defect,
)


def graph_of(*edges, isolated=()):
    g = Graph()
    for v in isolated:
        g.add_vertex(v)
    for u, v in edges:
        g.add_vertex(u)
        g.add_vertex(v)
        g.add_edge(u, v)
    return g


def complete(vs):
    vs = list(vs)
    return graph_of(*((u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]), isolated=vs)


class TestGraphBasics:
    def test_add_and_query(self):
        g = graph_of((1, 2), (2, 3))
        assert g.n == 3 and g.m == 2
        assert g.has_edge(2, 1) and not g.has_edge(1, 3)
        assert g.sorted_neighbors(2) == [1, 3]
        assert g.edges() == [(1, 2), (2, 3)]

    def test_self_loop_rejected(self):
        g = graph_of((1, 2))
        with pytest.raises(GraphError):
            g.add_edge(1, 1)

    def test_edge_to_absent_vertex_rejected(self):
        g = graph_of((1, 2))
        with pytest.raises(GraphError):
            g.add_edge(1, 9)

    def test_delete_absent_vertex_is_reported(self):
        g = graph_of((1, 2))
        with pytest.raises(GraphError):
            g.remove_vertex(7)

    def test_delete_absent_edge_is_reported(self):
        g = graph_of((1, 2), (2, 3))
        with pytest.raises(GraphError):
            g.remove_edge(1, 3)

    def test_remove_vertex_cleans_adjacency(self):
        g = graph_of((1, 2), (2, 3), (1, 3))
        g.remove_vertex(2)
        assert g.vertices() == [1, 3]
        assert g.edges() == [(1, 3)]

    def test_without_is_a_copy(self):
        g = graph_of((1, 2), (2, 3))
        h = g.without_vertices({2})
        assert g.n == 3 and h.n == 2 and h.m == 0

    def test_induced(self):
        g = complete([1, 2, 3, 4])
        h = g.induced({1, 2, 3})
        assert h.edges() == [(1, 2), (1, 3), (2, 3)]
        with pytest.raises(GraphError):
            g.induced({1, 9})


class TestBridges:
    def test_triangle_with_pendant(self):
        # triangle 1,2,3 plus pendant edge 3-4: the pendant is the only bridge
        g = graph_of((1, 2), (2, 3), (1, 3), (3, 4))
        assert find_bridges(g) == {(3, 4)}

    def test_tree_is_all_bridges(self):
        g = graph_of((1, 2), (2, 3), (2, 4))
        assert find_bridges(g) == {(1, 2), (2, 3), (2, 4)}

    def test_cycle_has_none(self):
        g = graph_of((1, 2), (2, 3), (3, 4), (4, 1))
        assert find_bridges(g) == set()

    def test_matches_brute_on_random_graphs(self):
        rng = random.Random(1001)
        for _ in range(200):
            g = brute.random_graph(rng.randint(1, 8), rng.random(), rng)
            assert find_bridges(g) == brute.bridges(g)

    def test_insertion_order_does_not_change_bridges(self):
        # the DFS walks the adjacency sets unsorted, so build each graph over
        # scattered ids (small sets then iterate in insertion order on hash
        # collisions) with shuffled vertex and edge insertion order
        nx = pytest.importorskip("networkx")
        rng = random.Random(1011)
        for _ in range(300):
            base = brute.random_graph(rng.randint(1, 9), rng.random(), rng)
            ids = dict(zip(base.vertices(), rng.sample(range(1, 10_000), base.n)))
            es = [(ids[u], ids[v]) for u, v in base.edges()]
            want = {edge_key(ids[u], ids[v]) for u, v in brute.bridges(base)}
            assert want == {edge_key(u, v) for u, v in nx.bridges(nx.Graph(es))}
            for _ in range(3):
                vs = list(ids.values())
                rng.shuffle(vs)
                rng.shuffle(es)
                g = graph_of(*(e if rng.random() < 0.5 else e[::-1] for e in es), isolated=vs)
                assert find_bridges(g) == want


class TestTriangleQueries:
    def test_k4_triangles_through_terminal(self):
        g = complete([1, 2, 3, 4])
        assert all_t_triangles(g, {1}) == [(1, 2, 3), (1, 2, 4), (1, 3, 4)]
        assert find_t_triangle(g, {1}) == (1, 2, 3)

    def test_no_terminal_triangle(self):
        g = complete([1, 2, 3, 4])
        g.add_vertex(5)
        g.add_edge(5, 1)
        assert find_t_triangle(g, {5}) is None
        assert all_t_triangles(g, {5}) == []

    def test_terminal_must_exist(self):
        with pytest.raises(GraphError):
            find_t_triangle(graph_of((1, 2)), {9})

    def test_packing_skips_packed_apexes(self):
        # apex 2 lies on (1, 2, 3), packed first; unskipped it would pack (2, 4, 7)
        g = complete([1, 2, 3, 4])
        g.add_vertex(7)
        g.add_edge(7, 2)
        g.add_edge(7, 4)
        assert pack_triangles(g, {1, 2}, 5) == [(1, 2, 3)]
        assert pack_triangles(g, {2}, 5) == [(2, 1, 3)]
        # 7's only triangle needs 2, which is packed
        assert pack_triangles(g, {1, 7}, 5) == [(1, 2, 3)]
        assert pack_triangles(g, {7}, 5) == [(7, 2, 4)]

    def test_packing_stops_past_the_limit(self):
        # four disjoint triangles, apexes 1, 4, 7, 10
        g = graph_of(
            *((3 * i + a, 3 * i + b) for i in range(4) for a, b in ((1, 2), (1, 3), (2, 3)))
        )
        apexes = {1, 4, 7, 10}
        assert pack_triangles(g, apexes, 1) == [(1, 2, 3), (4, 5, 6)]
        assert len(pack_triangles(g, apexes, 2)) == 3
        assert len(pack_triangles(g, apexes, 3)) == 4
        assert len(pack_triangles(g, apexes, 10)) == 4
        assert pack_triangles(g, set(), 0) == []

    def test_limit_zero_is_the_first_triangle(self):
        rng = random.Random(1005)
        found = 0
        for _ in range(300):
            inst = brute.random_instance(rng.randint(1, 9), rng.random(), 0.5, 0, rng)
            packed = pack_triangles(inst.graph, inst.terminals, 0)
            first = find_t_triangle(inst.graph, inst.terminals)
            assert len(packed) <= 1
            assert first == (tuple(sorted(packed[0])) if packed else None)
            if first is not None:
                found += 1
                assert first in all_t_triangles(inst.graph, inst.terminals)
        assert found > 100

    def test_matches_brute_on_random_graphs(self):
        rng = random.Random(1002)
        for _ in range(200):
            inst = brute.random_instance(rng.randint(1, 8), rng.random(), 0.5, 0, rng)
            got = {tuple(t) for t in all_t_triangles(inst.graph, inst.terminals)}
            assert got == brute.triangles_through_terminals(inst.graph, inst.terminals)


class TestTForest:
    def test_square_with_terminal_is_not_t_forest(self):
        # cycle without any triangle still counts
        g = graph_of((1, 2), (2, 3), (3, 4), (4, 1))
        assert not is_t_forest(g, {1})
        assert is_t_forest(g, set())

    def test_path_is_t_forest(self):
        g = graph_of((1, 2), (2, 3))
        assert is_t_forest(g, {1, 2, 3})

    def test_cycle_away_from_terminals(self):
        g = graph_of((1, 2), (2, 3), (3, 1), (3, 4), (4, 5))
        assert is_t_forest(g, {5})
        assert not is_t_forest(g, {3})

    def test_matches_brute_on_random_graphs(self):
        rng = random.Random(1003)
        for _ in range(250):
            inst = brute.random_instance(rng.randint(1, 8), rng.random(), 0.6, 0, rng)
            assert is_t_forest(inst.graph, inst.terminals) == brute.is_t_forest(
                inst.graph, inst.terminals
            )

    def test_witness_cycle_is_valid(self):
        rng = random.Random(1004)
        found = 0
        for _ in range(300):
            inst = brute.random_instance(rng.randint(3, 8), rng.random(), 0.6, 0, rng)
            cyc = find_terminal_cycle(inst.graph, inst.terminals)
            if is_t_forest(inst.graph, inst.terminals):
                assert cyc is None
                continue
            found += 1
            assert cyc is not None and len(cyc) >= 3 and len(set(cyc)) == len(cyc)
            assert set(cyc) & inst.terminals
            ring = cyc + [cyc[0]]
            for a, b in zip(ring, ring[1:]):
                assert inst.graph.has_edge(a, b)
        assert found > 50

    def test_solution_defect_matches_brute(self):
        rng = random.Random(1006)
        seen = set()
        for _ in range(300):
            n = rng.randint(1, 8)
            inst = brute.random_instance(n, rng.random(), 0.6, rng.randint(0, 3), rng)
            solution = {v for v in range(1, n + 3) if rng.random() < 0.25}
            defect = solution_defect(inst, solution)
            missing = sorted(solution - inst.graph.vertex_set())
            if missing:
                assert defect == (f"unknown vertices {missing}", None)
            elif len(solution) > inst.k:
                assert defect == (f"solution size {len(solution)} exceeds budget {inst.k}", None)
            else:
                rest = inst.graph.without_vertices(solution)
                if brute.is_t_forest(rest, inst.terminals - solution):
                    assert defect is None
                else:
                    reason, cyc = defect
                    assert reason == "terminal cycle survives"
                    assert len(cyc) >= 3 and len(set(cyc)) == len(cyc)
                    assert set(cyc) & (inst.terminals - solution)
                    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                        assert rest.has_edge(a, b)
            seen.add(defect[0].split()[0] if defect else None)
        assert seen == {"unknown", "solution", "terminal", None}


class TestComponents:
    def test_components_sorted(self):
        g = graph_of((5, 6), (1, 2), isolated=(9,))
        assert connected_components(g) == [[1, 2], [5, 6], [9]]


SAMPLE = """c sample instance
p sfvs 4 4 1
e 1 2
e 2 3
e 3 4
e 4 1
t 2
"""


class TestInstanceFormat:
    def test_parse_sample(self):
        inst = parse_instance(SAMPLE)
        assert inst.graph.n == 4 and inst.graph.m == 4
        assert inst.terminals == {2} and inst.k == 1

    def test_round_trip(self):
        inst = parse_instance(SAMPLE)
        again = parse_instance(format_instance(inst))
        assert again.graph == inst.graph
        assert again.terminals == inst.terminals and again.k == inst.k

    def test_format_renumbers_gaps(self):
        g = graph_of((2, 5), (5, 9), (2, 9))
        text = format_instance(Instance(g, {9}, 2))
        inst = parse_instance(text)
        assert inst.graph.n == 3 and inst.graph.m == 3
        assert inst.terminals == {3} and inst.k == 2

    @pytest.mark.parametrize(
        "text,message",
        [
            pytest.param(text, message, id=f"{text}-{label}")
            for text, label, message in [
                ("e 1 2\n", "before the problem line", "line 1: 'e' line before the problem line"),
                ("t 1\np sfvs 2 0 0\n", "t before p", "line 1: 't' line before the problem line"),
                ("p sfvs 2 1 0\ne 1 3\n", "out of range", "line 2: vertex 3 out of range 1..2"),
                ("p sfvs 2 1 0\ne 3 1\n", "first out of range", "line 2: vertex 3 out of range 1..2"),
                ("p sfvs 2 1 0\ne 1 -2\n", "negative id", "line 2: vertex -2 out of range 1..2"),
                ("p sfvs 2 0 0\nt 3\n", "terminal out of range", "line 2: vertex 3 out of range 1..2"),
                ("p sfvs 2 0 0\nt 0\n", "terminal zero", "line 2: vertex 0 out of range 1..2"),
                ("p sfvs 2 1 0\ne 1 1\n", "self-loop", "line 2: self-loop at 1"),
                ("p sfvs 2 2 0\ne 1 2\ne 2 1\n", "duplicate edge", "line 3: duplicate edge (2, 1)"),
                ("p sfvs 2 0 0\nt 1\nt 1\n", "duplicate terminal", "line 3: duplicate terminal 1"),
                ("p sfvs 2 3 0\ne 1 2\n", "declares 3 edges", "line 0: problem line declares 3 edges, found 1"),
                ("p sfvs 2 0 0\np sfvs 2 0 0\n", "duplicate problem line", "line 2: duplicate problem line"),
                ("p sfvs 2 0 0\nx 1\n", "unknown line type", "line 2: unknown line type 'x'"),
                ("p sfvs a 0 0\n", "non-integer", "line 1: non-integer field in problem line 'p sfvs a 0 0'"),
                ("p sfvs 1000000000000 0 0\n", "exceed the cap", "line 1: 1000000000000 vertices exceed the cap 1000000"),
                ("", "missing problem line", "line 0: missing problem line"),
                ("c only a comment\n", "comment only", "line 0: missing problem line"),
                ("p sfvs 2 1 0\ne 1\n", "e with 2 fields", "line 2: malformed 'e' line 'e 1'"),
                ("p sfvs 2 1 0\ne 1 2 3\n", "e with 4 fields", "line 2: malformed 'e' line 'e 1 2 3'"),
                ("p sfvs 2 0 0\nt 1 2\n", "t with 3 fields", "line 2: malformed 't' line 't 1 2'"),
                ("p sfvs 2 1 0\ne 1 x\n", "non-integer e", "line 2: non-integer vertex id in 'e 1 x'"),
                ("p sfvs 2 0 0\nt x\n", "non-integer t", "line 2: non-integer vertex id in 't x'"),
                ("p sfvs -1 0 0\n", "negative n", "line 1: negative vertex or edge count"),
                ("p sfvs 2 -1 0\n", "negative m", "line 1: negative vertex or edge count"),
                ("p sfvs 2 0\n", "p with 4 fields", "line 1: expected 'p sfvs <n> <m> <k>', got 'p sfvs 2 0'"),
                ("p sfvs 2 0 0 0\n", "p with 6 fields", "line 1: expected 'p sfvs <n> <m> <k>', got 'p sfvs 2 0 0 0'"),
                ("p fvs 2 0 0\n", "other format", "line 1: expected 'p sfvs <n> <m> <k>', got 'p fvs 2 0 0'"),
                # the quoted line is stripped at its ends only
                ("p sfvs 2 1 0\n  e  1   x  \n", "spacing kept", "line 2: non-integer vertex id in 'e  1   x'"),
                # skipped blank, indented and comment lines still count
                ("c x\n\np sfvs 2 0 0\n  x\n", "skipped lines count", "line 4: unknown line type 'x'"),
                ("p sfvs 2 0 0\n \t\n  cq\nt 2\ny\n", "indented comment", "line 5: unknown line type 'y'"),
            ]
        ],
    )
    def test_parse_errors(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert str(err.value) == message

    def test_skipped_lines(self):
        # blank lines and lines whose first field starts with "c" are skipped,
        # indented or not; other lines may be indented too
        text = "c head\n   c indented\ncomment\n\n \t \np sfvs 3 2 -1\n  e 1 2\n\te 2 3\n  t 3  \nc tail\n"
        inst = parse_instance(text)
        assert inst.graph.vertices() == [1, 2, 3]
        assert inst.graph.edges() == [(1, 2), (2, 3)]
        assert inst.terminals == {3} and inst.k == -1

    def test_matches_reference_parser_on_mutated_texts(self):
        # every formatted instance, with zero or one line mutated, must give
        # the reference parser's instance or its exact error message
        rng = random.Random(1010)
        garbled = ["x", "1.5", "", "-1", "0", "+2", "0x1", "1_0", "\u0663", "99999999999999999999"]

        def mutate(lines, n):
            i = rng.randrange(len(lines))
            fields = lines[i].split()
            kind = rng.randrange(9)
            if kind == 0 and fields:
                del fields[rng.randrange(len(fields))]
            elif kind == 1:
                fields.insert(rng.randint(0, len(fields)), rng.choice(["1", "sfvs", "e", "z"]))
            elif kind == 2 and len(fields) > 1:
                fields[rng.randrange(1, len(fields))] = rng.choice(garbled)
            elif kind == 3 and len(fields) > 1:
                fields[rng.randrange(1, len(fields))] = str(rng.choice([0, -1, n + 1, n + 7]))
            elif kind == 4 and fields:
                fields[0] = rng.choice(["e", "t", "p", "c", "cx", "x", "ee", "E"])
            elif kind == 5:
                lines.insert(rng.randint(0, len(lines)), lines[i])
                return lines
            elif kind == 6:
                filler = rng.choice(["", "   ", "\t", "c note", "  c indented", "comment", "c"])
                lines.insert(rng.randint(0, len(lines)), filler)
                return lines
            elif kind == 7:
                lines[i] = rng.choice(["  ", "\t", " "]) + lines[i] + rng.choice(["", " ", "\t"])
                return lines
            else:
                lines.insert(rng.randint(0, len(lines)), lines.pop(i))
                return lines
            lines[i] = " ".join(fields)
            return lines

        accepted = rejected = 0
        for i in range(2400):
            inst = brute.random_instance(rng.randint(0, 8), rng.random(), 0.4, rng.randint(-1, 5), rng)
            lines = format_instance(inst).splitlines()
            if i % 6:
                lines = mutate(lines, inst.graph.n)
            text = "\n".join(lines) + rng.choice(["\n", "", "\r\n"])
            try:
                want = brute.parse_instance(text)
            except ParseError as err:
                with pytest.raises(ParseError) as got:
                    parse_instance(text)
                assert str(got.value) == str(err), text
                rejected += 1
                continue
            got = parse_instance(text)
            assert got.graph == want.graph, text
            assert got.terminals == want.terminals and got.k == want.k, text
            accepted += 1
        assert accepted >= 600 and rejected >= 600

    def test_round_trip_random(self):
        rng = random.Random(1005)
        for _ in range(100):
            inst = brute.random_instance(rng.randint(1, 9), rng.random(), 0.4, rng.randint(0, 5), rng)
            text = format_instance(inst)
            again = parse_instance(text)
            assert format_instance(again) == text
            assert again.graph == inst.graph and again.terminals == inst.terminals

    def test_edge_key(self):
        assert edge_key(5, 2) == (2, 5)
