"""Seeded instance generators for benchmarks and tests.

Four families: random split graphs, random chordal graphs grown through a
clique tree, vertex-cover reductions, and planted-solution chordal
instances that are YES by construction.  Every family draws all of its
randomness from a single ``random.Random(seed)`` in a fixed order, so a
``GenSpec`` determines the generated instance byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import MAX_DECLARED_VERTICES, Graph, Instance, all_t_triangles, format_instance
from .oracle import vc_to_sfvs

FAMILIES = ("split-random", "chordal-random", "vc-reduction", "planted")


class GenError(ValueError):
    """Raised for infeasible generator parameters."""


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one generated instance.

    ``clique_side`` is used by split-random only; ``edge_prob`` doubles as
    the clique-tree inheritance probability for the chordal families.
    """

    family: str
    n: int
    k: int
    seed: int
    clique_side: int = 0
    edge_prob: float = 0.3
    terminal_frac: float = 0.4

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise GenError(f"unknown family {self.family!r}")
        if self.n < 0 or self.k < 0:
            raise GenError("n and k must be non-negative")
        if not 0.0 <= self.edge_prob <= 1.0:
            raise GenError("edge probability must lie in [0, 1]")
        if not 0.0 <= self.terminal_frac <= 1.0:
            raise GenError("terminal fraction must lie in [0, 1]")
        if self.family == "split-random" and not 0 <= self.clique_side <= self.n:
            raise GenError("clique side size must lie between 0 and n")
        # vc-reduction adds one terminal per edge of its n-vertex source graph
        most = self.n + self.n * (self.n - 1) // 2 if self.family == "vc-reduction" else self.n
        if most > MAX_DECLARED_VERTICES:
            raise GenError(f"up to {most} vertices exceed the cap {MAX_DECLARED_VERTICES}")


def generate(spec: GenSpec) -> Instance:
    spec.validate()
    rng = random.Random(spec.seed)
    if spec.family == "split-random":
        return _split_random(spec, rng)
    if spec.family == "chordal-random":
        return _chordal_random(spec, rng)
    if spec.family == "vc-reduction":
        return _vc_reduction(spec, rng)
    return _planted(spec, rng)


def generate_text(spec: GenSpec) -> str:
    """The generated instance in file format (canonical, reproducible)."""
    return format_instance(generate(spec))


def _sample_terminals(rng: random.Random, candidates, frac: float) -> set[int]:
    return {v for v in sorted(candidates) if rng.random() < frac}


def _split_random(spec: GenSpec, rng: random.Random) -> Instance:
    g = Graph()
    kside = list(range(1, spec.clique_side + 1))
    iside = list(range(spec.clique_side + 1, spec.n + 1))
    for v in range(1, spec.n + 1):
        g.add_vertex(v)
    _realize(g, kside)
    for u in kside:
        for w in iside:
            if rng.random() < spec.edge_prob:
                g.add_edge(u, w)
    terminals = _sample_terminals(rng, g.vertices(), spec.terminal_frac)
    return Instance(g, terminals, spec.k)


def _grow_chordal(spec: GenSpec, rng: random.Random) -> Graph:
    """Random clique tree: each new clique inherits from an old one."""
    g = Graph()
    if spec.n == 0:
        return g
    cliques: list[list[int]] = []
    nxt = 1
    first = min(spec.n, rng.randint(1, 4))
    base = list(range(nxt, nxt + first))
    nxt += first
    for v in base:
        g.add_vertex(v)
    _realize(g, base)
    cliques.append(base)
    while nxt <= spec.n:
        parent = rng.choice(cliques)
        inherited = [v for v in parent if rng.random() < spec.edge_prob]
        fresh_count = min(spec.n - nxt + 1, rng.randint(1, 3))
        fresh = list(range(nxt, nxt + fresh_count))
        nxt += fresh_count
        for v in fresh:
            g.add_vertex(v)
        clique = inherited + fresh
        _realize(g, clique)
        cliques.append(clique)
    return g


def _realize(g: Graph, clique: list[int]) -> None:
    for i, u in enumerate(clique):
        for w in clique[i + 1 :]:
            g.add_edge(u, w)


def _chordal_random(spec: GenSpec, rng: random.Random) -> Instance:
    g = _grow_chordal(spec, rng)
    terminals = _sample_terminals(rng, g.vertices(), spec.terminal_frac)
    return Instance(g, terminals, spec.k)


def _vc_reduction(spec: GenSpec, rng: random.Random) -> Instance:
    g = Graph()
    for v in range(1, spec.n + 1):
        g.add_vertex(v)
    for u in range(1, spec.n + 1):
        for w in range(u + 1, spec.n + 1):
            if rng.random() < spec.edge_prob:
                g.add_edge(u, w)
    return vc_to_sfvs(g, spec.k)


def _planted(spec: GenSpec, rng: random.Random) -> Instance:
    """Chordal instance with a planted solution of size min(k, n).

    Terminals are the planted vertices plus a sample of vertices that lie
    on no triangle once the planted set is removed, so deleting the
    planted set leaves no terminal triangle and the answer is YES.
    """
    g = _grow_chordal(spec, rng)
    order = g.vertices()
    planted = set(rng.sample(order, min(spec.k, len(order))))
    rest = g.without_vertices(planted)
    on_triangle = set()
    for tri in all_t_triangles(rest, set(rest.vertices())):
        on_triangle |= set(tri)
    quiet = [v for v in rest.vertices() if v not in on_triangle]
    terminals = planted | _sample_terminals(rng, quiet, spec.terminal_frac)
    return Instance(g, terminals, spec.k)
