"""Tests of the benchmark's own code: references, tracer and determinism.

Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import sfvs  # noqa: E402
from sfvs import GenSpec, format_instance, generate, oracle_decide  # noqa: E402

import refs  # noqa: E402
import run  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS, Item  # noqa: E402


def small_specs():
    rng = random.Random(7)
    for i in range(60):
        n = rng.randint(5, 13)
        k = rng.randint(0, 4)
        yield GenSpec("chordal-random", n, k, 1000 + i, edge_prob=rng.choice((0.3, 0.6)))
        cs = rng.randint(2, min(n, 6))
        yield GenSpec("split-random", n, k, 2000 + i, clique_side=cs, edge_prob=rng.choice((0.3, 0.6)))
        yield GenSpec("planted", n, k, 3000 + i, terminal_frac=0.3)


def plain_of(inst) -> refs.Plain:
    return refs.read_text(format_instance(inst))


def test_read_text_matches_package_parser():
    for spec in small_specs():
        text = format_instance(generate(spec))
        inst = sfvs.parse_instance(text)
        p = refs.read_text(text)
        assert p.adj == {v: inst.graph.neighbors(v) for v in inst.graph.vertices()}
        assert (p.terminals, p.k) == (inst.terminals, inst.k)


def test_packing_and_split_certificates_agree_with_oracle():
    decided = 0
    for spec in small_specs():
        inst = generate(spec)
        answer, witness = oracle_decide(inst)
        p = plain_of(inst)
        if refs.triangle_packing(p.adj, p.terminals) > p.k:
            assert answer is False
        if answer:
            assert refs.is_solution(p, witness)
        if spec.family == "split-random":
            verdict = refs.split_decision(p, set(range(1, spec.clique_side + 1)))
            assert verdict in (None, answer)
            decided += verdict is not None
    assert decided > 20


def test_planted_instances_are_yes():
    for spec in small_specs():
        if spec.family == "planted":
            assert oracle_decide(generate(spec))[0] is True


def test_is_solution_matches_t_forest_on_chordal_graphs():
    rng = random.Random(3)
    for spec in small_specs():
        inst = generate(spec)
        p = plain_of(inst)
        s = set(rng.sample(sorted(p.adj), rng.randint(0, 3)))
        p.k = len(s)
        forest = sfvs.is_t_forest(inst.graph.without_vertices(s), inst.terminals - s)
        assert refs.is_solution(p, s) == forest


def test_min_vertex_cover_matches_oracle_on_vc_reductions():
    for seed in range(25):
        inst = generate(GenSpec("vc-reduction", 7, 0, seed, edge_prob=0.35))
        p = plain_of(inst)
        mvc = refs.min_vertex_cover(refs.vc_source_edges(p))
        for k in (mvc - 1, mvc):
            inst.k = k
            assert oracle_decide(inst)[0] is (k >= mvc)


def test_apply_trace_matches_package_replay():
    for spec in small_specs():
        if spec.family != "split-random":
            continue
        inst = generate(spec)
        out = sfvs.kernelize(inst)
        mine = refs.apply_trace(plain_of(inst), out.trace)
        theirs = sfvs.replay(inst, out.trace)
        assert mine.adj == {v: theirs.graph.neighbors(v) for v in theirs.graph.vertices()}
        assert (mine.terminals, mine.k) == (theirs.terminals, theirs.k)


def test_tracer_counts_calls_across_modules_and_restores_bindings():
    original, original_copy = sfvs.solver.find_bridges, sfvs.graph.Graph.copy
    inst = generate(GenSpec("split-random", 40, 4, 5, clique_side=10))
    text = format_instance(inst)
    tracer = Tracer()
    with tracer.patched():
        assert sfvs.graph.find_bridges is sfvs.solver.find_bridges is not original
        tracer.op = 0
        sfvs.solve(sfvs.parse_instance(text))
    assert sfvs.solver.find_bridges is original
    assert sfvs.graph.Graph.copy is original_copy
    assert tracer.calls["solver.solve"] == 1
    assert tracer.calls["graph.parse_instance"] == 1
    assert tracer.calls["solver.reduce_fixpoint"] >= 1
    assert tracer.calls["graph.copy"] >= 1
    # self times partition the root spans' time
    roots = [i for i, parent in enumerate(tracer.span_parent) if parent == -1]
    root_s = sum(tracer.span_end[i] - tracer.span_start[i] for i in roots)
    assert sum(tracer.self_s.values()) == pytest.approx(root_s, rel=1e-3, abs=1e-5)
    assert set(tracer.span_op) == {0}
    assert len(tracer.span_name) == sum(tracer.calls[n] for n in {n for n, _, _ in TRACED})


def test_checks_flag_wrong_answers():
    bench = run.Bench.__new__(run.Bench)
    bench.sfvs, bench.wl = sfvs, WORKLOADS["split"]
    inst = generate(GenSpec("vc-reduction", 8, 3, 1, edge_prob=0.4))
    bench.texts = [format_instance(inst)]
    mvc = refs.min_vertex_cover(refs.vc_source_edges(plain_of(inst)))
    bench.items = [Item("vc", None, 3, mvc <= 3, 8)]
    res = sfvs.solve(sfvs.parse_instance(bench.texts[0]))
    assert bench.check(0, res) is None
    res.answer = not res.answer
    assert bench.check(0, res) is not None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_is_deterministic(name):
    """Two traced passes on one seed agree on answers and every count."""
    wl = dataclasses.replace(WORKLOADS[name], blocks=1)
    counts = []
    for _ in range(2):
        bench = run.Bench(sfvs, wl, 3)
        metrics = run.measure_layers(bench, 3)
        assert not bench.failures
        counts.append(
            {k: v for k, (v, unit) in metrics.items() if unit == "count"}
            | {"answers": bench.answers_digest}
        )
    assert counts[0] == counts[1]
    assert counts[0]["graph.parse_instance.calls"] == len(bench.items)
