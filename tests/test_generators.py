"""Tests for the seeded instance generators."""

import random

import pytest

import brute
from sfvs.chordal import require_chordal, require_split
from sfvs.generators import FAMILIES, GenError, GenSpec, generate, generate_text
from sfvs.graph import MAX_DECLARED_VERTICES, parse_instance
from sfvs.oracle import oracle_decide
from sfvs.solver import solve


def spec_for(family, seed, **overrides):
    base = dict(family=family, n=12, k=3, seed=seed, clique_side=4,
                edge_prob=0.35, terminal_frac=0.4)
    base.update(overrides)
    return GenSpec(**base)


class TestDeterminism:
    def test_same_spec_same_bytes(self):
        for family in FAMILIES:
            for seed in (0, 1, 7, 12345):
                spec = spec_for(family, seed)
                assert generate_text(spec) == generate_text(spec)

    def test_different_seeds_differ_somewhere(self):
        texts = {generate_text(spec_for("chordal-random", s)) for s in range(12)}
        assert len(texts) > 1

    def test_round_trip(self):
        for family in FAMILIES:
            spec = spec_for(family, 5)
            inst = parse_instance(generate_text(spec))
            assert generate_text(spec) == generate_text(spec)
            inst.validate()


class TestSplitRandom:
    def test_shape(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(0, 16)
            spec = spec_for(
                "split-random",
                rng.randint(0, 10**6),
                n=n,
                clique_side=rng.randint(0, n) if n else 0,
            )
            inst = generate(spec)
            assert inst.graph.n == spec.n
            require_split(inst.graph)
            kside = list(range(1, spec.clique_side + 1))
            assert inst.graph.is_clique(kside)
            for u in range(spec.clique_side + 1, spec.n + 1):
                assert not (inst.graph.neighbors(u) & set(range(spec.clique_side + 1, spec.n + 1)))


class TestChordalRandom:
    def test_chordal_by_construction(self):
        for seed in range(60):
            inst = generate(spec_for("chordal-random", seed, n=seed % 18))
            require_chordal(inst.graph)
            assert inst.graph.n == seed % 18


class TestVcReduction:
    def test_split_and_oracle_consistency(self):
        rng = random.Random(99)
        for _ in range(30):
            spec = spec_for("vc-reduction", rng.randint(0, 10**6),
                            n=rng.randint(1, 7), k=rng.randint(0, 4), edge_prob=0.5)
            inst = generate(spec)
            require_split(inst.graph)
            # rebuild the source graph the same way the generator does
            src_rng = random.Random(spec.seed)
            edges = []
            for u in range(1, spec.n + 1):
                for w in range(u + 1, spec.n + 1):
                    if src_rng.random() < spec.edge_prob:
                        edges.append((u, w))
            src = brute.Graph(range(1, spec.n + 1))
            for u, w in edges:
                src.add_edge(u, w)
            has_cover = brute.min_vertex_cover_size(src) <= spec.k
            answer, _ = oracle_decide(inst)
            assert answer is has_cover


class TestPlanted:
    def test_always_yes_within_budget(self):
        for seed in range(40):
            spec = spec_for("planted", seed, n=6 + seed % 9, k=seed % 5)
            inst = generate(spec)
            res = solve(inst.copy())
            assert res.answer
            assert len(res.solution) <= spec.k


class TestRejects:
    def test_bad_parameters(self):
        bad = [
            dict(family="nope"),
            dict(n=-1),
            dict(k=-2),
            dict(edge_prob=1.5),
            dict(terminal_frac=-0.1),
            dict(clique_side=99),
        ]
        for overrides in bad:
            fields = dict(family="split-random", n=5, k=1, seed=1, clique_side=2)
            fields.update(overrides)
            with pytest.raises(GenError):
                generate(GenSpec(**fields))

    def test_size_cap(self):
        # validate only: no instance near the cap is ever built
        with pytest.raises(GenError):
            GenSpec("split-random", 10**12, 1, 1).validate()
        for family in ("split-random", "chordal-random", "planted"):
            GenSpec(family, MAX_DECLARED_VERTICES, 1, 1).validate()
            with pytest.raises(GenError):
                GenSpec(family, MAX_DECLARED_VERTICES + 1, 1, 1).validate()
        # vc-reduction: n source vertices plus one terminal per possible edge
        assert 1413 * 1414 // 2 <= MAX_DECLARED_VERTICES < 1414 * 1415 // 2
        GenSpec("vc-reduction", 1413, 1, 1).validate()
        with pytest.raises(GenError):
            GenSpec("vc-reduction", 1414, 1, 1).validate()
