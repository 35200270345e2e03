#!/usr/bin/env python3
"""Re-measure the spot figures listed under "Baseline" in ROADMAP.md.

Single runs, so read them as +-20%.  Takes about a minute at the seed
commit (the split n=400 solve dominates).  Run from the root of a checkout::

    python3 perfbench/baseline_rows.py
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sfvs import (  # noqa: E402
    BipartiteView,
    GenSpec,
    build_clique_tree,
    generate,
    kernelize,
    maximum_matching,
    require_chordal,
    solve,
)


def timed(fn, *args):
    start = perf_counter()
    out = fn(*args)
    return out, perf_counter() - start


def main() -> None:
    inst = generate(GenSpec("split-random", 400, 10, 1, clique_side=60))
    res, sec = timed(solve, inst)
    print(f"solve split-random n=400 m={inst.graph.m} k=10 c=60: {res.nodes_visited} nodes, {sec:.1f} s")

    inst = generate(GenSpec("vc-reduction", 30, 12, 1, edge_prob=0.3))
    res, sec = timed(solve, inst)
    out, ksec = timed(kernelize, inst)
    print(
        f"solve vc-reduction n={inst.graph.n} k=12: answer {res.answer}, {res.nodes_visited} nodes, "
        f"{sec:.1f} s; kernelize: {out.kind} in {ksec * 1e3:.1f} ms"
    )

    g = generate(GenSpec("chordal-random", 8000, 4, 1)).graph
    _, sec = timed(require_chordal, g)
    _, tsec = timed(build_clique_tree, g)
    print(f"chordal-random n=8000 m={g.m}: require_chordal {sec:.1f} s, build_clique_tree {tsec:.1f} s")

    # the path q_1 p_1 q_2 p_2 ... q_n p_n with q ids descending, so Kuhn's
    # search tries q_{i+1} first and the last augmenting path spans the chain
    side = 3000

    def q(i):
        return 2 * side + 1 - i

    edges = [(p, q(p)) for p in range(1, side + 1)] + [(p, q(p + 1)) for p in range(1, side)]
    view = BipartiteView(range(1, side + 1), range(side + 1, 2 * side + 1), edges)
    try:
        maximum_matching(view)
        print("maximum_matching on a 3000-per-side path: ok")
    except RecursionError:
        print("maximum_matching on a 3000-per-side path: RecursionError")

    results = [solve(generate(GenSpec("chordal-random", 300, 4, s))) for s in range(10)]
    answers = {r.answer for r in results}
    nodes = [r.nodes_visited for r in results]
    print(f"chordal-random n=300 k=4 terminal_frac=0.4, 10 seeds: answers {answers}, nodes {nodes}")


if __name__ == "__main__":
    main()
