"""Bipartite expansion machinery: capacitated matchings, t-expansions, and the
witness-producing variant used by the edge-pruning kernel rule."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable


class ExpansionError(ValueError):
    pass


class ExpansionPreconditionError(ExpansionError):
    """Input fails a documented precondition of the requested operation."""


class BipartiteView(object):
    """A bipartite graph on two disjoint integer vertex sets P and Q."""

    __slots__ = ("side_p", "side_q", "_p_adj", "_q_adj")

    def __init__(self, side_p: Iterable[int], side_q: Iterable[int], edges: Iterable[tuple[int, int]]):
        self.side_p = frozenset(side_p)
        self.side_q = frozenset(side_q)
        if self.side_p & self.side_q:
            raise ExpansionError(f"sides overlap: {sorted(self.side_p & self.side_q)}")
        self._p_adj: dict[int, set[int]] = {p: set() for p in self.side_p}
        self._q_adj: dict[int, set[int]] = {q: set() for q in self.side_q}
        for p, q in edges:
            if p not in self._p_adj or q not in self._q_adj:
                raise ExpansionError(f"edge ({p}, {q}) leaves the bipartition")
            self._p_adj[p].add(q)
            self._q_adj[q].add(p)

    def edges(self) -> list[tuple[int, int]]:
        return sorted((p, q) for p, qs in self._p_adj.items() for q in qs)

    def p_neighbors(self, p: int) -> set[int]:
        return self._p_adj[p]

    def q_neighbors(self, q: int) -> set[int]:
        return self._q_adj[q]

    def __repr__(self) -> str:
        return f"BipartiteView(|P|={len(self.side_p)}, |Q|={len(self.side_q)})"


@dataclass(frozen=True)
class ExpansionResult:
    """A certified t-expansion: x saturated t times into y, y sees nothing outside x."""

    x: frozenset[int]
    y: frozenset[int]
    expansion_edges: frozenset[tuple[int, int]]
    unsaturated_witness: int | None = None

    def validate(self, b: BipartiteView, t: int) -> None:
        if not self.x or not self.x <= b.side_p:
            raise ExpansionError(f"x not a nonempty subset of P: {sorted(self.x)}")
        if not self.y <= b.side_q:
            raise ExpansionError("y is not a subset of Q")
        saturated: set[int] = set()
        per_p: dict[int, int] = {p: 0 for p in self.x}
        for p, q in self.expansion_edges:
            if p not in self.x or q not in self.y:
                raise ExpansionError(f"expansion edge ({p}, {q}) leaves (x, y)")
            if q not in b.p_neighbors(p):
                raise ExpansionError(f"expansion edge ({p}, {q}) is not a graph edge")
            if q in saturated:
                raise ExpansionError(f"{q} saturated twice")
            saturated.add(q)
            per_p[p] += 1
        if any(c != t for c in per_p.values()):
            raise ExpansionError(f"some x-vertex not saturated exactly {t} times")
        if len(saturated) != t * len(self.x):
            raise ExpansionError("saturated vertex count mismatch")
        for q in self.y:
            if b.q_neighbors(q) - self.x:
                raise ExpansionError(f"y-vertex {q} has a neighbor outside x")
        w = self.unsaturated_witness
        if w is not None and (w not in self.y or w in saturated):
            raise ExpansionError(f"witness {w} is saturated or outside y")


def _augment(b: BipartiteView, p: int, match_q: dict[int, int], visited: set[int]) -> bool:
    for q in sorted(b.p_neighbors(p)):
        if q in visited:
            continue
        visited.add(q)
        if q not in match_q or _augment(b, match_q[q], match_q, visited):
            match_q[q] = p
            return True
    return False


def _max_capacitated_matching(b: BipartiteView, t: int) -> dict[int, int]:
    """q -> p assignment, each p used at most t times, of maximum size (Kuhn)."""
    match_q: dict[int, int] = {}
    for p in sorted(b.side_p):
        for _ in range(t):
            if not _augment(b, p, match_q, set()):
                break
    return match_q


def maximum_matching(b: BipartiteView) -> set[tuple[int, int]]:
    """Deterministic maximum matching as a set of (p, q) pairs."""
    return {(p, q) for q, p in _max_capacitated_matching(b, 1).items()}


def _extract(b: BipartiteView, t: int) -> ExpansionResult:
    """Certified (x, y) extraction from a maximum capacitated matching.

    If every Q-vertex is saturated the whole bipartition qualifies. Otherwise
    alternating reachability from the unsaturated Q-vertices yields x and y:
    reached P-vertices are fully saturated (else an augmenting path existed),
    reached Q-vertices either started unsaturated or entered through their own
    matching edge, so y sees nothing outside x.
    """
    match_q = _max_capacitated_matching(b, t)
    unsat = sorted(q for q in b.side_q if q not in match_q)
    if not unsat:
        edges = frozenset((p, q) for q, p in match_q.items())
        return ExpansionResult(frozenset(b.side_p), frozenset(b.side_q), edges)

    matched_of_p: dict[int, list[int]] = {}
    for q, p in match_q.items():
        matched_of_p.setdefault(p, []).append(q)
    reach_q: set[int] = set(unsat)
    reach_p: set[int] = set()
    frontier = list(unsat)
    while frontier:
        fresh_p = []
        for q in frontier:
            owner = match_q.get(q)
            for p in b.q_neighbors(q):
                if p != owner and p not in reach_p:
                    reach_p.add(p)
                    fresh_p.append(p)
        frontier = []
        for p in fresh_p:
            for q in matched_of_p.get(p, ()):
                if q not in reach_q:
                    reach_q.add(q)
                    frontier.append(q)
    edges = frozenset((p, q) for q, p in match_q.items() if p in reach_p)
    return ExpansionResult(frozenset(reach_p), frozenset(reach_q), edges)


def _check_no_isolated_q(b: BipartiteView) -> None:
    for q in sorted(b.side_q):
        if not b.q_neighbors(q):
            raise ExpansionPreconditionError(f"Q-vertex {q} is isolated")
    if not b.side_q:
        raise ExpansionPreconditionError("Q side is empty")


def find_expansion(b: BipartiteView, t: int) -> ExpansionResult:
    """A t-expansion (x, y) with no y-neighbor outside x; needs |Q| >= t|P|."""
    if t < 1:
        raise ExpansionPreconditionError(f"t must be positive, got {t}")
    _check_no_isolated_q(b)
    if len(b.side_q) < t * len(b.side_p):
        raise ExpansionPreconditionError(
            f"|Q| = {len(b.side_q)} below t|P| = {t * len(b.side_p)}"
        )
    res = _extract(b, t)
    res.validate(b, t)
    return res


def find_matching_expansion_with_witness(b: BipartiteView, t: int) -> ExpansionResult:
    """A t-expansion plus an unsaturated y-vertex; needs |Q| > t * matching number.

    A t-capacitated matching splits into t matchings, so it saturates at most
    t * matching number Q-vertices and the precondition leaves one unsaturated.
    :func:`_extract` then puts every unsaturated Q-vertex into y, and the
    least of them is the witness.
    """
    if t < 1:
        raise ExpansionPreconditionError(f"t must be positive, got {t}")
    _check_no_isolated_q(b)
    ell = len(maximum_matching(b))
    if len(b.side_q) <= t * ell:
        raise ExpansionPreconditionError(
            f"|Q| = {len(b.side_q)} not above t * matching = {t * ell}"
        )
    part = _extract(b, t)
    saturated = {q for _, q in part.expansion_edges}
    witness = min(q for q in part.y if q not in saturated)
    res = replace(part, unsaturated_witness=witness)
    res.validate(b, t)
    return res
