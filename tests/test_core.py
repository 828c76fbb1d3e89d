"""Signed graph construction and embedding verification."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from lineembed.core import (
    Ordering,
    SignedGraph,
    Violation,
    build_signed_graph,
    is_complete,
    positive_part,
    verify_embedding,
)
from lineembed.errors import GraphError, OrderingError

from oracles import SIDE_KEY, naive_violations, reversed_ordering

# The running three-vertex example: a-b, b-c positive, a-c negative,
# with labels a,b,c = 1,2,3.
P3 = build_signed_graph(3, [(1, 2), (2, 3)], [(1, 3)])


def all_sign_patterns(n):
    """Every signed graph on 1..n: each pair positive, negative or absent."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for signs in itertools.product((0, 1, 2), repeat=len(pairs)):
        pos = [p for p, s in zip(pairs, signs) if s == 1]
        neg = [p for p, s in zip(pairs, signs) if s == 2]
        yield build_signed_graph(n, pos, neg)


def random_signed_graph(rng, n, p_pos=0.3, p_neg=0.3):
    pos, neg = [], []
    for pair in itertools.combinations(range(1, n + 1), 2):
        r = rng.random()
        if r < p_pos:
            pos.append(pair)
        elif r < p_pos + p_neg:
            neg.append(pair)
    return build_signed_graph(n, pos, neg)


def assert_matches_naive(got, g, seq):
    """got has the naive verdict and, on failure, its first witness."""
    want = naive_violations(g, seq)
    assert got.valid == (not want)
    if want:
        v = got.violation
        assert (v.u, SIDE_KEY[v.side], v.u2, v.u1) == want[0]


class TestConstruction:
    def test_valid_graph(self) -> None:
        g = build_signed_graph(4, [(1, 2), (3, 1)], [(2, 4)])
        assert g.n == 4
        assert g.pos == {(1, 2), (1, 3)}
        assert g.neg == {(2, 4)}

    def test_range_error(self) -> None:
        with pytest.raises(GraphError, match="out of range"):
            build_signed_graph(3, [(1, 4)], [])

    def test_zero_endpoint(self) -> None:
        with pytest.raises(GraphError, match="out of range"):
            build_signed_graph(3, [], [(0, 2)])

    def test_loop_error(self) -> None:
        with pytest.raises(GraphError, match="loop"):
            build_signed_graph(3, [(2, 2)], [])

    def test_duplicate_error(self) -> None:
        with pytest.raises(GraphError, match="duplicate"):
            build_signed_graph(3, [(1, 2), (2, 1)], [])

    def test_overlap_error(self) -> None:
        with pytest.raises(GraphError, match="both signs"):
            build_signed_graph(3, [(1, 2)], [(2, 1)])

    def test_empty_graph(self) -> None:
        g = build_signed_graph(0, [], [])
        assert g.n == 0 and g.m_pos == 0 and g.m_neg == 0

    def test_is_complete(self) -> None:
        assert is_complete(P3)
        assert not is_complete(build_signed_graph(3, [(1, 2)], []))
        assert is_complete(build_signed_graph(0, [], []))
        assert is_complete(build_signed_graph(1, [], []))

    def test_positive_part(self) -> None:
        gp = positive_part(P3)
        assert gp.n == 3
        assert gp.edges == {(1, 2), (2, 3)}
        assert gp.adj[2] == (1, 3)

    def test_equality_with_a_non_graph_is_not_implemented(self) -> None:
        assert P3.__eq__((3, P3.pos, P3.neg)) is NotImplemented
        assert P3 != (3, P3.pos, P3.neg)

    def test_hash_is_the_same_in_every_form(self) -> None:
        """One complete graph held as edge sets, as (m, 2) arrays and in
        complement form (G+ alone): equal, with one hash."""
        arrays = SignedGraph(
            3, np.array([[2, 3], [1, 2]], np.int64), np.array([[1, 3]], np.int64)
        )
        complement = SignedGraph(3, frozenset({(1, 2), (2, 3)}))
        for g in (arrays, complement):
            assert g == P3 and hash(g) == hash(P3)


class TestOrdering:
    def test_round_trip(self) -> None:
        o = Ordering.from_seq([3, 1, 2])
        assert o.position == {3: 1, 1: 2, 2: 3}
        assert list(o) == [3, 1, 2]
        assert reversed_ordering(o).seq == (2, 1, 3)

    def test_not_a_permutation(self) -> None:
        with pytest.raises(OrderingError):
            Ordering.from_seq([1, 1, 2])
        with pytest.raises(OrderingError):
            Ordering.from_seq([2, 3])

    def test_wrong_length_rejected_by_verify(self) -> None:
        with pytest.raises(OrderingError, match="covers"):
            verify_embedding(P3, Ordering.from_seq([1, 2]))


class TestVerify:
    def test_truth_value_is_validity(self) -> None:
        results = [verify_embedding(P3, Ordering.from_seq(seq))
                   for seq in itertools.permutations((1, 2, 3))]
        assert {r.valid for r in results} == {True, False}
        assert all(bool(r) == r.valid for r in results)

    def test_p3_valid(self) -> None:
        assert verify_embedding(P3, Ordering.from_seq([1, 2, 3])).valid

    def test_p3_violation(self) -> None:
        # b, a, c: positive neighbour b of c sits left of negative neighbour a.
        res = verify_embedding(P3, Ordering.from_seq([2, 1, 3]))
        assert not res.valid
        assert res.violation == Violation(u1=2, u2=1, u=3, side="left")

    def test_right_side_violation(self) -> None:
        # Mirror image of the P3 case.
        res = verify_embedding(P3, Ordering.from_seq([3, 1, 2]))
        assert not res.valid
        assert res.violation == Violation(u1=2, u2=1, u=3, side="right")

    def test_no_negative_edges_always_valid(self) -> None:
        g = build_signed_graph(5, [(1, 2), (2, 3), (1, 5), (4, 5)], [])
        for seq in itertools.permutations(range(1, 6)):
            assert verify_embedding(g, Ordering.from_seq(seq)).valid

    def test_no_positive_edges_always_valid(self) -> None:
        g = build_signed_graph(4, [], [(1, 2), (3, 4), (1, 4)])
        for seq in itertools.permutations(range(1, 5)):
            assert verify_embedding(g, Ordering.from_seq(seq)).valid

    def test_empty_and_singleton(self) -> None:
        assert verify_embedding(
            build_signed_graph(0, [], []), Ordering.from_seq([])
        ).valid
        assert verify_embedding(
            build_signed_graph(1, [], []), Ordering.from_seq([1])
        ).valid

    def test_exhaustive_small_against_naive(self) -> None:
        # Every signed graph on up to 4 vertices, every ordering: the verdict
        # and, on failure, the first witness.
        for n in range(5):
            for g in all_sign_patterns(n):
                for seq in itertools.permutations(range(1, n + 1)):
                    got = verify_embedding(g, Ordering.from_seq(seq))
                    assert_matches_naive(got, g, seq)

    def test_random_against_naive(self) -> None:
        rng = random.Random(20817)
        for _ in range(1000):
            n = rng.randint(2, 8)
            g = random_signed_graph(rng, n, rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.5))
            seq = list(range(1, n + 1))
            rng.shuffle(seq)
            assert_matches_naive(verify_embedding(g, Ordering.from_seq(seq)), g, seq)

    def test_edge_order_does_not_matter(self) -> None:
        # The edge arrays follow set iteration order, which depends on the
        # order the edges were inserted in; the verdict and witness must not.
        rng = random.Random(40221)
        reordered = 0
        for _ in range(1000):
            n = rng.randint(2, 8)
            g = random_signed_graph(rng, n, rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.5))
            pos, neg = sorted(g.pos), sorted(g.neg)
            rng.shuffle(pos)
            rng.shuffle(neg)
            h = build_signed_graph(n, pos, neg)
            assert (h.pos, h.neg) == (g.pos, g.neg)
            if not (
                np.array_equal(h.pos_array, g.pos_array)
                and np.array_equal(h.neg_array, g.neg_array)
            ):
                reordered += 1
            seq = list(range(1, n + 1))
            rng.shuffle(seq)
            o = Ordering.from_seq(seq)
            got = verify_embedding(h, o)
            assert got == verify_embedding(g, o)
            assert_matches_naive(got, g, seq)
        assert reordered > 0

    def test_reversal_invariance(self) -> None:
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(1, 7)
            g = random_signed_graph(rng, n)
            seq = list(range(1, n + 1))
            rng.shuffle(seq)
            o = Ordering.from_seq(seq)
            assert (
                verify_embedding(g, o).valid
                == verify_embedding(g, reversed_ordering(o)).valid
            )

    def test_relabeling_invariance(self) -> None:
        rng = random.Random(4)
        for _ in range(300):
            n = rng.randint(1, 7)
            g = random_signed_graph(rng, n)
            seq = list(range(1, n + 1))
            rng.shuffle(seq)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            relabel = {v: perm[v - 1] for v in range(1, n + 1)}
            g2 = build_signed_graph(
                n,
                [(relabel[u], relabel[v]) for u, v in g.pos],
                [(relabel[u], relabel[v]) for u, v in g.neg],
            )
            seq2 = [relabel[v] for v in seq]
            assert (
                verify_embedding(g, Ordering.from_seq(seq)).valid
                == verify_embedding(g2, Ordering.from_seq(seq2)).valid
            )
