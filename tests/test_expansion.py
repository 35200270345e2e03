import random

import pytest

from sfvs.expansion import (
    BipartiteView,
    ExpansionError,
    ExpansionPreconditionError,
    find_expansion,
    find_matching_expansion_with_witness,
    maximum_matching,
)


def check_expansion(b, t, res, want_witness):
    """Re-verify every contract clause locally, without trusting the package."""
    assert res.x and res.x <= b.side_p
    assert res.y <= b.side_q
    per_p = {p: 0 for p in res.x}
    seen_q = set()
    for p, q in res.expansion_edges:
        assert p in res.x and q in res.y
        assert q in b.p_neighbors(p), "fabricated edge"
        assert q not in seen_q, "Q-vertex saturated twice"
        seen_q.add(q)
        per_p[p] += 1
    assert all(c == t for c in per_p.values())
    assert len(seen_q) == t * len(res.x)
    for q in res.y:
        assert not (b.q_neighbors(q) - res.x), "y sees outside x"
    if want_witness:
        w = res.unsaturated_witness
        assert w is not None and w in res.y and w not in seen_q


def brute_matching_number(b):
    ps = sorted(b.side_p)
    best = 0

    def rec(i, used):
        nonlocal best
        best = max(best, len(used))
        if i == len(ps) or best == len(ps):
            return
        rec(i + 1, used)
        for q in sorted(b.p_neighbors(ps[i])):
            if q not in used:
                rec(i + 1, used | {q})

    rec(0, frozenset())
    return best


def random_bipartite(rng, max_p=4, extra_q=6, p_edge=0.5):
    np_ = rng.randint(1, max_p)
    t = rng.randint(1, 3)
    nq = rng.randint(t * np_, t * np_ + extra_q)
    ps = list(range(1, np_ + 1))
    qs = list(range(101, 101 + nq))
    edges = [(p, q) for p in ps for q in qs if rng.random() < p_edge]
    b = BipartiteView(ps, qs, edges)
    # patch isolated Q-vertices so the preconditions hold
    fixed = list(edges)
    for q in qs:
        if not b.q_neighbors(q):
            fixed.append((rng.choice(ps), q))
    return BipartiteView(ps, qs, fixed), t


class TestBipartiteView:
    def test_overlap_rejected(self):
        with pytest.raises(ExpansionError):
            BipartiteView([1], [1, 2], [])

    def test_edges_must_stay_inside(self):
        with pytest.raises(ExpansionError):
            BipartiteView([1], [2], [(1, 3)])


class TestMaximumMatching:
    def test_simple(self):
        b = BipartiteView([1, 2], [5, 6], [(1, 5), (1, 6), (2, 5)])
        m = maximum_matching(b)
        assert len(m) == 2

    def test_matches_brute(self):
        rng = random.Random(3001)
        for _ in range(300):
            b, _ = random_bipartite(rng)
            assert len(maximum_matching(b)) == brute_matching_number(b)

    def test_long_augmenting_path_needs_no_recursion(self):
        # the path q_1 p_1 q_2 p_2 ... q_n p_n with q ids descending, so the
        # search tries q_{i+1} first and the last augmenting path spans the
        # whole chain, far deeper than Python's recursion limit
        side = 3000

        def q(i):
            return 2 * side + 1 - i

        edges = [(p, q(p)) for p in range(1, side + 1)] + [(p, q(p + 1)) for p in range(1, side)]
        b = BipartiteView(range(1, side + 1), range(side + 1, 2 * side + 1), edges)
        assert maximum_matching(b) == {(p, q(p)) for p in range(1, side + 1)}


class TestFindExpansion:
    def test_single_p_two_q(self):
        b = BipartiteView([1], [2, 3], [(1, 2), (1, 3)])
        res = find_expansion(b, 2)
        assert res.x == {1} and res.y == {2, 3}
        check_expansion(b, 2, res, want_witness=False)

    def test_size_precondition(self):
        b = BipartiteView([1, 2], [3], [(1, 3), (2, 3)])
        with pytest.raises(ExpansionPreconditionError):
            find_expansion(b, 1)

    def test_isolated_q_precondition(self):
        b = BipartiteView([1], [2, 3], [(1, 2)])
        with pytest.raises(ExpansionPreconditionError):
            find_expansion(b, 1)

    def test_uneven_degrees(self):
        b = BipartiteView(
            [1, 2], [11, 12, 13], [(1, 11), (1, 12), (1, 13), (2, 13)]
        )
        res = find_expansion(b, 1)
        check_expansion(b, 1, res, want_witness=False)

    def test_random_invariants(self):
        rng = random.Random(3002)
        count = 0
        for _ in range(400):
            b, t = random_bipartite(rng)
            if len(b.side_q) < t * len(b.side_p):
                continue
            count += 1
            res = find_expansion(b, t)
            check_expansion(b, t, res, want_witness=False)
        assert count > 300


class TestWitnessExpansion:
    def test_single_p(self):
        b = BipartiteView([1], [11, 12, 13], [(1, 11), (1, 12), (1, 13)])
        res = find_matching_expansion_with_witness(b, 1)
        assert res.x == {1} and len(res.y) >= 2
        check_expansion(b, 1, res, want_witness=True)

    def test_complete_two_by_five(self):
        qs = [11, 12, 13, 14, 15]
        b = BipartiteView([1, 2], qs, [(p, q) for p in (1, 2) for q in qs])
        res = find_matching_expansion_with_witness(b, 2)
        assert res.x == {1, 2} and res.y == set(qs)
        check_expansion(b, 2, res, want_witness=True)

    def test_matching_precondition(self):
        b = BipartiteView([1, 2], [11, 12], [(1, 11), (2, 12)])
        with pytest.raises(ExpansionPreconditionError):
            find_matching_expansion_with_witness(b, 1)

    def test_random_invariants(self):
        rng = random.Random(3003)
        count = 0
        for _ in range(500):
            b, t = random_bipartite(rng, p_edge=0.35)
            if len(b.side_q) <= t * brute_matching_number(b):
                continue
            count += 1
            res = find_matching_expansion_with_witness(b, t)
            check_expansion(b, t, res, want_witness=True)
        assert count > 250

    def test_low_matching_but_small_q(self):
        # q-count below t|P| still fine when the matching number is low
        b = BipartiteView([1, 2, 3], [11, 12], [(1, 11), (1, 12)])
        assert brute_matching_number(b) == 1
        res = find_matching_expansion_with_witness(b, 1)
        assert res.x == {1} and res.y == {11, 12}
        check_expansion(b, 1, res, want_witness=True)
