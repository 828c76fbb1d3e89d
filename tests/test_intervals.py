"""Interval models, umbrella recognition and the complete-graph solver."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from lineembed.core import (
    Ordering,
    build_signed_graph,
    positive_part,
    verify_embedding,
)
import lineembed.cli as cli
import lineembed.intervals
from lineembed.cli import _check_model
from lineembed.errors import (
    InfeasibleOrderingError,
    ModelError,
    NotCompleteError,
)
from lineembed.intervals import (
    IntervalModel,
    _lbfs,
    is_umbrella_ordering,
    model_intersection_graph,
    neighborhood_extremes,
    ordering_to_model,
    recognize_proper_interval,
    solve_complete,
)
from lineembed.formats import parse_signed_graph, serialize_signed_graph
from lineembed.generators import gen_planted_complete

from oracles import (
    feasible_orderings_brute,
    has_umbrella_ordering_brute,
    lbfs_by_labels,
    model_intersection_edges,
    model_problem,
    model_to_ordering,
    umbrella_ok_direct,
)
from test_core import random_signed_graph

F = Fraction

P3 = build_signed_graph(3, [(1, 2), (2, 3)], [(1, 3)])
ABC = Ordering.from_seq([1, 2, 3])


def plain_graph(n, edges):
    return positive_part(build_signed_graph(n, edges, []))


def random_complete(rng, n, p_pos=0.5):
    pos, neg = [], []
    for pair in itertools.combinations(range(1, n + 1), 2):
        (pos if rng.random() < p_pos else neg).append(pair)
    return build_signed_graph(n, pos, neg)


def planted_unit_interval_graph(rng, n, spread):
    """Edges of a guaranteed proper interval graph from random unit intervals."""
    xs = sorted(rng.uniform(0, spread) for _ in range(n))
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    x = dict(zip(labels, xs))
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(1, n + 1), 2)
        if abs(x[u] - x[v]) <= 1.0
    ]
    return edges


class TestExtremes:
    def test_p3(self) -> None:
        last = neighborhood_extremes(plain_graph(3, [(1, 2), (2, 3)]), ABC)
        assert last == {1: 2, 2: 3, 3: 3}

    def test_within_bounds(self) -> None:
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 8)
            edges = [
                p for p in itertools.combinations(range(1, n + 1), 2)
                if rng.random() < 0.4
            ]
            gp = plain_graph(n, edges)
            seq = list(range(1, n + 1))
            rng.shuffle(seq)
            o = Ordering.from_seq(seq)
            last = neighborhood_extremes(gp, o)
            for v in range(1, n + 1):
                assert o.position[v] <= o.position[last[v]]


class TestModel:
    def test_p3_exact_values(self) -> None:
        model = ordering_to_model(P3, ABC)
        assert model.intervals == {
            1: (F(1), F(9, 4)),
            2: (F(2), F(7, 2)),
            3: (F(3), F(15, 4)),
        }

    def test_positive_triangle(self) -> None:
        g = build_signed_graph(3, [(1, 2), (2, 3), (1, 3)], [])
        model = ordering_to_model(g, ABC)
        assert model.intervals == {
            1: (F(1), F(13, 4)),
            2: (F(2), F(14, 4)),
            3: (F(3), F(15, 4)),
        }

    def test_single_vertex(self) -> None:
        g = build_signed_graph(1, [], [])
        model = ordering_to_model(g, Ordering.from_seq([1]))
        assert model.intervals == {1: (F(1), F(3, 2))}

    def test_empty_graph(self) -> None:
        g = build_signed_graph(0, [], [])
        model = ordering_to_model(g, Ordering(()))
        assert model.intervals == {}

    def test_incomplete_rejected(self) -> None:
        g = build_signed_graph(3, [(1, 2)], [])
        with pytest.raises(NotCompleteError):
            ordering_to_model(g, ABC)

    def test_infeasible_ordering_rejected(self) -> None:
        with pytest.raises(InfeasibleOrderingError) as exc:
            ordering_to_model(P3, Ordering.from_seq([2, 1, 3]))
        assert exc.value.violation is not None

    def test_round_trip(self) -> None:
        assert model_to_ordering(ordering_to_model(P3, ABC)).seq == (1, 2, 3)

    def test_intersection_matches_positive_part(self) -> None:
        # Independent pairwise oracle against the swept in-module version.
        rng = random.Random(77)
        checked = 0
        while checked < 150:
            n = rng.randint(1, 7)
            g = random_complete(rng, n, rng.uniform(0.2, 0.9))
            feasible = feasible_orderings_brute(g)
            if not feasible:
                continue
            checked += 1
            o = Ordering.from_seq(feasible[0])
            model = ordering_to_model(g, o)
            assert model_intersection_edges(model.intervals) == g.pos
            got = model_intersection_graph(model)
            assert got.edges == g.pos
            assert model_to_ordering(model).seq == o.seq

    def test_rank_checks_match_fraction_checks(self) -> None:
        # Endpoints share integer parts, repeat under other spellings, and
        # three differ by less than a float can tell (1/3 and its two
        # neighbours below 10**-20 away).  validate and the intersection
        # graph run on ranks; both must agree with the Fraction comparisons.
        # Fails if ranks are taken by left endpoint only, by integer part
        # only, or without the exact tie-break.
        rng = random.Random(15)
        pool = [F(1, 3), F(10**20, 3 * 10**20 + 1), F(10**20 + 1, 3 * 10**20 + 2)]
        pool += [F(k, d) for d in (1, 2, 7) for k in range(15)]
        for _ in range(3000):
            n = rng.randint(1, 6)
            intervals = {v: tuple(sorted(rng.sample(pool, 2))) for v in range(1, n + 1)}
            if rng.random() < 0.1:
                v = rng.randint(1, n)
                intervals[v] = intervals[v][::-1]
            if rng.random() < 0.05:
                intervals[n + 1] = intervals.pop(rng.randint(1, n))
            model = IntervalModel(intervals)
            try:
                model.validate()
                problem = None
            except ModelError as exc:
                problem = str(exc)
            assert problem == model_problem(intervals), intervals
            if all(lo <= hi for lo, hi in intervals.values()):
                got = model_intersection_graph(model).edges
                assert got == model_intersection_edges(intervals), intervals

    def test_validate_containment(self) -> None:
        bad = IntervalModel({1: (F(1), F(10)), 2: (F(2), F(3))})
        with pytest.raises(ModelError, match="contains"):
            bad.validate()

    def test_validate_duplicate_endpoint(self) -> None:
        bad = IntervalModel({1: (F(1), F(2)), 2: (F(2), F(3))})
        with pytest.raises(ModelError, match="distinct"):
            bad.validate()

    def test_validate_empty_interior(self) -> None:
        bad = IntervalModel({1: (F(2), F(2))})
        with pytest.raises(ModelError, match="interior"):
            bad.validate()

    def test_validate_bad_keys(self) -> None:
        bad = IntervalModel({2: (F(1), F(2))})
        with pytest.raises(ModelError, match="1..n"):
            bad.validate()

    def test_model_to_ordering_validates(self) -> None:
        with pytest.raises(ModelError):
            model_to_ordering(IntervalModel({1: (F(3), F(1))}))


class TestUmbrellaCheck:
    def test_matches_direct_predicate(self) -> None:
        rng = random.Random(5150)
        for _ in range(400):
            n = rng.randint(1, 8)
            edges = [
                p for p in itertools.combinations(range(1, n + 1), 2)
                if rng.random() < rng.uniform(0.1, 0.9)
            ]
            gp = plain_graph(n, edges)
            seq = list(range(1, n + 1))
            rng.shuffle(seq)
            assert is_umbrella_ordering(gp, Ordering.from_seq(seq)) == (
                umbrella_ok_direct(n, edges, tuple(seq))
            )

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 6])
    def test_decides_complete_graphs_as_the_definition(self, n, monkeypatch) -> None:
        """The `o` check and ordering_to_model decide a complete graph's
        ordering by the umbrella test (ordering_violation, which both call);
        verify_embedding, written from the
        definition, must agree, and on failure give the violation both
        report.  Every sign pattern: with every ordering for n <= 4, with a
        seeded one for n = 6 (a second would double its 4 s).
        verify_embedding runs once per case: the `o` check's own call on
        failure, recorded, else a direct one.  Fails if the umbrella test
        checks only one side of each vertex."""
        seen = []
        record = lambda g, o: seen.append(verify_embedding(g, o)) or seen[-1]
        monkeypatch.setattr(lineembed.intervals, "verify_embedding", record)
        rng = random.Random(616)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        every = [Ordering(p) for p in itertools.permutations(range(1, n + 1))]
        for signs in itertools.product((True, False), repeat=len(pairs)):
            pos = [p for p, plus in zip(pairs, signs) if plus]
            g = build_signed_graph(n, pos, [p for p in pairs if p not in pos])
            gp = positive_part(g)
            for o in every if n <= 4 else [rng.choice(every)]:
                seen.clear()
                problem = cli._check_ordering(g, o, None)
                assert (problem is None) == is_umbrella_ordering(gp, o) == (not seen)
                if problem is None:
                    assert verify_embedding(g, o).valid
                    continue
                want = seen[0].violation
                assert problem == (
                    f"vertex {want.u} sees positive neighbour {want.u1} "
                    f"beyond negative neighbour {want.u2} on its {want.side}"
                )
                if n <= 4:
                    with pytest.raises(InfeasibleOrderingError) as err:
                        ordering_to_model(g, o)
                    assert err.value.violation == want


class TestLbfs:
    def test_matches_label_definition(self) -> None:
        # Random graphs of every density with shuffled priors, then one
        # planted n=300 proper interval graph with priors from a first sweep.
        rng = random.Random(1414)
        cases = []
        for _ in range(3000):
            n = rng.randint(0, 16)
            p = rng.random()
            pairs = itertools.combinations(range(1, n + 1), 2)
            edges = [e for e in pairs if rng.random() < p]
            prior = list(range(n + 1))
            rng.shuffle(prior)
            cases.append((plain_graph(n, edges), prior))
        planted = plain_graph(300, planted_unit_interval_graph(rng, 300, spread=60.0))
        prior = [0] * 301
        for i, v in enumerate(_lbfs(planted.adj, 300, list(range(301)))):
            prior[v] = i
        cases.append((planted, prior))
        for gp, prior in cases:
            assert _lbfs(gp.adj, gp.n, prior) == lbfs_by_labels(gp.adj, gp.n, prior)


class TestRecognition:
    def test_claw_rejected(self) -> None:
        claw = plain_graph(4, [(1, 2), (1, 3), (1, 4)])
        assert recognize_proper_interval(claw) is None

    def test_c4_rejected(self) -> None:
        c4 = plain_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert recognize_proper_interval(c4) is None

    def test_path_and_clique(self) -> None:
        path = plain_graph(4, [(1, 2), (2, 3), (3, 4)])
        got = recognize_proper_interval(path)
        assert got is not None and is_umbrella_ordering(path, got)
        clique = plain_graph(4, list(itertools.combinations(range(1, 5), 2)))
        got = recognize_proper_interval(clique)
        assert got is not None

    def test_edgeless_and_tiny(self) -> None:
        assert recognize_proper_interval(plain_graph(0, [])) is not None
        assert recognize_proper_interval(plain_graph(1, [])) is not None
        got = recognize_proper_interval(plain_graph(5, []))
        assert got is not None and sorted(got.seq) == [1, 2, 3, 4, 5]

    def test_exhaustive_up_to_five(self) -> None:
        # Recognition verdict equals brute-force umbrella existence.
        for n in range(6):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for bits in itertools.product((0, 1), repeat=len(pairs)):
                edges = [p for p, b in zip(pairs, bits) if b]
                gp = plain_graph(n, edges)
                got = recognize_proper_interval(gp)
                if got is not None:
                    assert is_umbrella_ordering(gp, got)
                assert (got is not None) == has_umbrella_ordering_brute(n, edges)

    def test_random_against_brute(self) -> None:
        rng = random.Random(909)
        for _ in range(150):
            n = rng.randint(6, 7)
            edges = [
                p for p in itertools.combinations(range(1, n + 1), 2)
                if rng.random() < rng.uniform(0.2, 0.8)
            ]
            gp = plain_graph(n, edges)
            got = recognize_proper_interval(gp)
            if got is not None:
                assert is_umbrella_ordering(gp, got)
            assert (got is not None) == has_umbrella_ordering_brute(n, edges)

    def test_planted_always_recognized(self) -> None:
        rng = random.Random(31337)
        for _ in range(120):
            n = rng.randint(2, 40)
            edges = planted_unit_interval_graph(rng, n, spread=n / rng.uniform(2, 8))
            gp = plain_graph(n, edges)
            got = recognize_proper_interval(gp)
            assert got is not None
            assert is_umbrella_ordering(gp, got)


class TestSolveComplete:
    def test_p3(self) -> None:
        got = solve_complete(P3)
        assert got is not None
        assert verify_embedding(P3, got).valid

    def test_incomplete_rejected(self) -> None:
        with pytest.raises(NotCompleteError):
            solve_complete(build_signed_graph(3, [(1, 2)], []))

    def test_claw_infeasible(self) -> None:
        g = build_signed_graph(
            4, [(1, 2), (1, 3), (1, 4)], [(2, 3), (2, 4), (3, 4)]
        )
        assert solve_complete(g) is None

    def test_positive_c4_infeasible(self) -> None:
        g = build_signed_graph(
            4, [(1, 2), (2, 3), (3, 4), (1, 4)], [(1, 3), (2, 4)]
        )
        assert solve_complete(g) is None

    def test_trivial_sizes(self) -> None:
        assert solve_complete(build_signed_graph(0, [], [])).seq == ()
        assert solve_complete(build_signed_graph(1, [], [])).seq == (1,)

    def test_route_never_builds_the_negative_set(self) -> None:
        # A parsed graph holds edge arrays; solving, modelling, verifying
        # and the `i` certificate check read the positive set and the
        # arrays only, never the (far larger) negative frozenset.
        text = serialize_signed_graph(gen_planted_complete(200, seed=3))
        g = parse_signed_graph(text)
        ordering = solve_complete(g)
        model = ordering_to_model(g, ordering)
        assert verify_embedding(g, ordering).valid
        assert _check_model(g, model, None) is None
        assert "neg" not in vars(g)

    def test_verdict_matches_brute(self) -> None:
        rng = random.Random(2024)
        for _ in range(300):
            n = rng.randint(2, 6)
            g = random_complete(rng, n, rng.uniform(0.15, 0.95))
            got = solve_complete(g)
            want = feasible_orderings_brute(g)
            assert (got is not None) == bool(want)
            if got is not None:
                assert verify_embedding(g, got).valid
