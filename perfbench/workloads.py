"""The benchmark's workloads: instance shapes, seeded plans and expected answers.

A workload's plan repeats a fixed block of shapes; the workload seed picks
the random graph inside each shape, and every repeat draws fresh graphs.
Fixing the shapes (sizes, budgets, target minimum covers) keeps the per-op
cost mix the same from seed to seed, so the seed moves the measurement only
through graph structure.  One pass over a plan takes about 3 s at the seed
commit, so a run of ``run_seconds`` (55) in ``BENCHMARK.json`` runs each
instance about 18 times.

Planning is the benchmark's own reference work and is not timed: it may
generate a candidate, compute an independent certificate for it, and move
on to the next candidate seed when no certificate decides the answer.
Set-up, which is timed, rebuilds the accepted instances with ``generate``
and ``format_instance`` only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import refs


@dataclass(frozen=True)
class Item:
    """One planned instance: how to build it and what its answer must be.

    ``expect`` is True/False when an independent certificate decides the
    answer and None otherwise (kernel instances only).  ``clique_side`` is
    the split clique side (vertices ``1..clique_side``), 0 for chordal
    instances.
    """

    label: str
    spec: object  # sfvs.GenSpec
    k: int
    expect: bool | None
    clique_side: int = 0
    op: str = "solve"  # or "kernelize"


@dataclass(frozen=True)
class Workload:
    name: str
    block: tuple  # shapes, each ("family", *parameters)
    blocks: int  # repeats of the block in one plan
    tail_pct: float  # percentile reported as latency_tail_ms


def build_text(sfvs, item: Item) -> str:
    """The instance text of a planned item; this is the timed set-up work."""
    inst = sfvs.generate(item.spec)
    inst.k = item.k
    return sfvs.format_instance(inst)


# The op costs in each block are spread fairly evenly, without gaps, and the
# costliest group holds more than the share of ops beyond the tail
# percentile, so the median and the tail fall inside groups of similar
# instances and not between groups.
WORKLOADS = {
    # Recognition (Theta(n^2) MCS at the seed) and whole-graph reduction
    # passes do the work; search visits at most a handful of nodes.
    # chordal-random at the default terminal fraction is NO, certified by a
    # triangle packing; planted is YES by construction and exercises the
    # final re-verification.  ("chordal-random" | "planted", n, k)
    "large-chordal": Workload(
        "large-chordal",
        (
            ("chordal-random", 600, 4),
            ("planted", 550, 8),
            ("chordal-random", 650, 5),
            ("planted", 600, 8),
            ("chordal-random", 700, 5),
            ("planted", 650, 8),
            ("chordal-random", 750, 6),
            ("chordal-random", 800, 6),
        ),
        7,
        0.80,
    ),
    # Split graphs, two kinds of op.  Search (solve): tight vertex-cover
    # reductions, each at k = minimum cover (YES, stops at the first
    # solution) and k = minimum - 1 (NO, whole tree), plus dense
    # split-random NO instances whose nodes carry larger graphs; they hold
    # the tail.  Kernel (kernelize): sparse split-random instances reduced
    # to a kernel by hundreds of single-rule steps, and denser ones where
    # max-matching fires and the budget runs out, so the kernel decides NO.
    # ("vc", target minimum cover) | ("split-random", n, clique side, k)
    # | ("kernel", n, clique side, edge probability, k)
    "split": Workload(
        "split",
        (
            ("kernel", 250, 25, 0.15, 9),
            ("kernel", 250, 25, 0.03, 16),
            ("split-random", 110, 30, 6),
            ("kernel", 250, 25, 0.15, 8),
            ("vc", 7),
            ("kernel", 280, 25, 0.15, 12),
            ("split-random", 110, 30, 6),
            ("kernel", 250, 25, 0.04, 16),
            ("vc", 8),
            ("kernel", 250, 25, 0.15, 10),
            ("split-random", 110, 30, 6),
            ("kernel", 280, 25, 0.15, 14),
            ("vc", 8),
            ("kernel", 280, 25, 0.15, 12),
            ("split-random", 110, 30, 6),
        ),
        4,
        0.85,
    ),
}

MAX_CANDIDATES = 400


def plan(sfvs, wl: Workload, seed: int) -> list[Item]:
    """The workload's instance plan for one seed (untimed reference work)."""
    rng = random.Random(f"{wl.name}:{seed}")
    items: list[Item] = []
    for _ in range(wl.blocks):
        for family, *params in wl.block:
            if family == "vc":
                items.extend(_plan_vc_pair(sfvs, rng, *params))
            elif family == "kernel":
                items.append(_plan_kernel(sfvs, rng, *params))
            elif family == "split-random":
                items.append(_plan_dense_split(sfvs, rng, *params))
            else:
                items.append(_plan_chordal(sfvs, rng, family, *params))
    return items


def _candidates(rng: random.Random):
    for _ in range(MAX_CANDIDATES):
        yield rng.randrange(1 << 30)
    raise RuntimeError("no candidate instance with a certified answer")


def _plain(sfvs, spec, k: int) -> refs.Plain:
    inst = sfvs.generate(spec)
    inst.k = k
    return refs.read_text(sfvs.format_instance(inst))


def _plan_chordal(sfvs, rng, family: str, n: int, k: int) -> Item:
    for gen_seed in _candidates(rng):
        if family == "planted":
            spec = sfvs.GenSpec(family, n, k, gen_seed, terminal_frac=0.05)
            return Item(f"planted-n{n}-k{k}", spec, k, True)
        spec = sfvs.GenSpec(family, n, k, gen_seed)
        p = _plain(sfvs, spec, k)
        if refs.triangle_packing(p.adj, p.terminals) > k:
            return Item(f"chordal-random-n{n}-k{k}", spec, k, False)


def _plan_vc_pair(sfvs, rng, target: int) -> list[Item]:
    n = 18 + 3 * (target - 5)
    prob = 4.4 * target / (n * (n - 1))
    for gen_seed in _candidates(rng):
        spec = sfvs.GenSpec("vc-reduction", n, target, gen_seed, edge_prob=prob)
        p = _plain(sfvs, spec, target)
        if refs.min_vertex_cover(refs.vc_source_edges(p)) == target:
            return [
                Item(f"vc-n{n}-mvc{target}-yes", spec, target, True, n),
                Item(f"vc-n{n}-mvc{target}-no", spec, target - 1, False, n),
            ]


def _plan_dense_split(sfvs, rng, n: int, cs: int, k: int) -> Item:
    for gen_seed in _candidates(rng):
        spec = sfvs.GenSpec("split-random", n, k, gen_seed, clique_side=cs)
        p = _plain(sfvs, spec, k)
        if refs.split_lower_bound(p, set(range(1, cs + 1))) > k:
            return Item(f"split-n{n}-c{cs}-k{k}", spec, k, False, cs)


def _plan_kernel(sfvs, rng, n: int, cs: int, prob: float, k: int) -> Item:
    # a kernel may stop at a reduced instance, so any instance will do; a
    # certificate, when one exists, must agree with a decision
    spec = sfvs.GenSpec("split-random", n, k, rng.randrange(1 << 30), clique_side=cs, edge_prob=prob)
    expect = refs.split_decision(_plain(sfvs, spec, k), set(range(1, cs + 1)))
    return Item(f"kernel-n{n}-c{cs}-p{prob}-k{k}", spec, k, expect, cs, "kernelize")
