"""Reduction chain: instance translators, certificate maps, lifts."""

from __future__ import annotations

import itertools
import random

import pytest

from lineembed.core import verify_embedding
from lineembed.errors import CapExceededError, ReductionError, SelfLoopError
from lineembed.formats import serialize_mapping
from lineembed.reductions import (
    Assignment,
    Partition,
    SplitterSolution,
    adp_solution_to_lce_ordering,
    adp_to_lce,
    adp_violation,
    build_cnf,
    build_digraph,
    build_partition,
    build_set_system,
    eval_cnf,
    falsified_clause,
    lift_adp_to_setsplitting,
    lift_lce_to_adp,
    lift_lce_to_sat,
    lift_setsplitting_to_sat,
    sat_solution_to_setsplitting,
    sat_to_lce,
    sat_to_setsplitting,
    setsplitting_solution_to_adp,
    setsplitting_to_adp,
    unsplit_set_index,
)
from lineembed.solvers import solve_subset_dp

from oracles import (
    literal_of,
    partition_exists_brute,
    partition_ok,
    sat_assignments,
    solve_adp_bruteforce,
    solve_setsplitting_bruteforce,
    splits_all,
    splitter_exists_brute,
    verify_adp,
    verify_setsplitting,
)

XYZ = build_cnf(3, [(1, 2, 3)])
TWO_CYCLE = build_digraph(2, [(1, 2), (2, 1)])
BIDIRECTED_TRIANGLE = build_digraph(
    3, [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)]
)
PAIR_SYSTEM = build_set_system(2, [(1, 2)])


def random_cnf(rng: random.Random, max_vars: int = 3, max_clauses: int = 3):
    n = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        width = rng.randint(1, min(3, n))
        chosen = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return build_cnf(n, clauses)


def random_loopless_digraph(rng: random.Random, n: int, max_arcs: int):
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    k = rng.randint(0, min(max_arcs, len(pairs)))
    return build_digraph(n, rng.sample(pairs, k))


class TestCnf:
    def test_eval(self) -> None:
        cnf = build_cnf(2, [(1, -2), (-1, 2)])
        assert eval_cnf(cnf, Assignment((True, True)))
        assert not eval_cnf(cnf, Assignment((True, False)))

    def test_eval_length_mismatch(self) -> None:
        with pytest.raises(ReductionError):
            eval_cnf(XYZ, Assignment((True,)))

    def test_falsified_clause_is_the_first(self) -> None:
        cnf = build_cnf(2, [(1, 2), (-1, 2), (1, -2), (-1, -2)])
        assert [
            falsified_clause(cnf, Assignment(values))
            for values in itertools.product((False, True), repeat=2)
        ] == [1, 3, 2, 4]
        assert falsified_clause(build_cnf(2, [(1, 2)]), Assignment((True, False))) is None
        with pytest.raises(ReductionError, match="covers 1 variables, formula has 3"):
            falsified_clause(XYZ, Assignment((True,)))

    def test_build_rejects_bad_clauses(self) -> None:
        with pytest.raises(ReductionError):
            build_cnf(2, [()])
        with pytest.raises(ReductionError):
            build_cnf(4, [(1, 2, 3, 4)])
        with pytest.raises(ReductionError):
            build_cnf(2, [(1, 1)])
        with pytest.raises(ReductionError):
            build_cnf(2, [(1, -1)])
        with pytest.raises(ReductionError):
            build_cnf(2, [(3,)])
        with pytest.raises(ReductionError):
            build_cnf(2, [(0,)])


class TestSetSystem:
    def test_build_rejects_bad_sets(self) -> None:
        with pytest.raises(ReductionError):
            build_set_system(3, [()])
        with pytest.raises(ReductionError):
            build_set_system(3, [(1, 4)])
        with pytest.raises(ReductionError):
            build_set_system(3, [(2, 2)])
        with pytest.raises(ReductionError):
            build_set_system(3, [(1, 2)], special=9)

    def test_verify_frozen_triangle(self) -> None:
        triangle = build_set_system(3, [(1, 2), (1, 3), (2, 3)])
        assert unsplit_set_index(triangle, SplitterSolution(frozenset({1}))) == 3
        assert not verify_setsplitting(triangle, SplitterSolution(frozenset({1})))
        # No two-colouring splits all three pair sets.
        assert solve_setsplitting_bruteforce(triangle) is None
        assert not splitter_exists_brute(3, triangle.sets)

    def test_verify_rejects_foreign_elements(self) -> None:
        with pytest.raises(ReductionError):
            verify_setsplitting(PAIR_SYSTEM, SplitterSolution(frozenset({5})))

    def test_bruteforce_first_in_mask_order(self) -> None:
        # X={1} has the smallest bitmask among splitters of {1,2}.
        sol = solve_setsplitting_bruteforce(PAIR_SYSTEM)
        assert sol == SplitterSolution(frozenset({1}))

    def test_bruteforce_empty_family(self) -> None:
        sys = build_set_system(3, [])
        assert solve_setsplitting_bruteforce(sys) == SplitterSolution(frozenset())

    def test_bruteforce_cap(self) -> None:
        sys = build_set_system(25, [(1, 2)])
        with pytest.raises(CapExceededError):
            solve_setsplitting_bruteforce(sys)
        assert solve_setsplitting_bruteforce(sys, cap=25) is not None

    def test_bruteforce_matches_oracle(self) -> None:
        rng = random.Random(71)
        for _ in range(60):
            size = rng.randint(1, 5)
            sets = []
            for _ in range(rng.randint(0, 4)):
                width = rng.randint(1, min(3, size))
                sets.append(tuple(rng.sample(range(1, size + 1), width)))
            sys = build_set_system(size, sets)
            sol = solve_setsplitting_bruteforce(sys)
            assert (sol is not None) == splitter_exists_brute(size, sys.sets)
            if sol is not None:
                assert splits_all(sys.sets, sol.chosen)


class TestDigraphPartition:
    def test_build_rejects_bad_arcs(self) -> None:
        with pytest.raises(ReductionError):
            build_digraph(2, [(1, 3)])
        with pytest.raises(ReductionError):
            build_digraph(2, [(1, 2), (1, 2)])

    def test_partition_out_of_range(self) -> None:
        with pytest.raises(ReductionError):
            build_partition(2, [3])

    def test_verify_frozen(self) -> None:
        both = build_partition(2, [1, 2])
        side, cycle = adp_violation(TWO_CYCLE, both)
        assert side == 1 and sorted(cycle) == [1, 2]
        assert verify_adp(TWO_CYCLE, build_partition(2, [1]))

    def test_verify_rejects_malformed_partition(self) -> None:
        with pytest.raises(ReductionError):
            verify_adp(TWO_CYCLE, Partition(frozenset({1}), frozenset()))

    def test_self_loop_is_a_cycle(self) -> None:
        loop = build_digraph(1, [(1, 1)])
        assert not verify_adp(loop, build_partition(1, [1]))
        assert not verify_adp(loop, build_partition(1, []))
        assert solve_adp_bruteforce(loop) is None

    def test_bruteforce_arcless_prefers_part1(self) -> None:
        arcless = build_digraph(3, [])
        assert solve_adp_bruteforce(arcless) == build_partition(3, [1, 2, 3])

    def test_bruteforce_frozen_two_cycle(self) -> None:
        assert solve_adp_bruteforce(TWO_CYCLE) == build_partition(2, [1])

    def test_bruteforce_bidirected_triangle_infeasible(self) -> None:
        # Some part gets two triangle vertices and with them a 2-cycle.
        assert solve_adp_bruteforce(BIDIRECTED_TRIANGLE) is None

    def test_bruteforce_cap(self) -> None:
        big = build_digraph(21, [])
        with pytest.raises(CapExceededError):
            solve_adp_bruteforce(big)
        assert solve_adp_bruteforce(big, cap=21) is not None

    def test_bruteforce_matches_oracle(self) -> None:
        rng = random.Random(72)
        for _ in range(80):
            n = rng.randint(1, 5)
            pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
            arcs = rng.sample(pairs, rng.randint(0, min(8, len(pairs))))
            digraph = build_digraph(n, arcs)
            part = solve_adp_bruteforce(digraph)
            assert (part is not None) == partition_exists_brute(n, arcs)
            if part is not None:
                assert partition_ok(n, arcs, part.part1)


class TestSatToSetsplitting:
    def test_frozen_xyz(self) -> None:
        sys, mapping = sat_to_setsplitting(XYZ)
        assert sys.universe_size == 7
        assert sys.special == 7
        assert sys.sets == ((1, 2), (3, 4), (5, 6), (1, 3, 5, 7))
        # Set i is variable i's pair set, set n + j clause j's set.
        assert mapping.cnf == XYZ and mapping.special == 7
        lines = serialize_mapping(mapping).splitlines()
        assert [line for line in lines if "set " in line] == [
            "map 1 varset 1",
            "map 2 varset 2",
            "map 3 varset 3",
            "map 4 clauseset 1",
        ]
        assert mapping.element_of(2) == 3
        assert mapping.element_of(-2) == 4
        assert literal_of(3) == 2
        assert literal_of(4) == -2

    def test_sizes_random(self) -> None:
        rng = random.Random(73)
        for _ in range(40):
            cnf = random_cnf(rng, max_vars=5, max_clauses=5)
            sys, _ = sat_to_setsplitting(cnf)
            assert sys.universe_size == 2 * cnf.num_vars + 1
            assert sum(len(s) for s in sys.sets) == 2 * cnf.num_vars + sum(
                len(c) + 1 for c in cnf.clauses
            )

    def test_forward_frozen(self) -> None:
        _, mapping = sat_to_setsplitting(XYZ)
        x = sat_solution_to_setsplitting(Assignment((True, False, False)), mapping)
        assert x.chosen == frozenset({1, 4, 6})

    def test_forward_rejects_falsifying_assignment(self) -> None:
        _, mapping = sat_to_setsplitting(build_cnf(1, [(1,)]))
        with pytest.raises(ReductionError):
            sat_solution_to_setsplitting(Assignment((False,)), mapping)

    def test_lift_frozen_and_complement(self) -> None:
        _, mapping = sat_to_setsplitting(XYZ)
        want = Assignment((True, False, False))
        assert lift_setsplitting_to_sat(SplitterSolution(frozenset({1, 4, 6})), mapping) == want
        # The complement splitter contains the special element and lifts to
        # the same assignment.
        assert lift_setsplitting_to_sat(SplitterSolution(frozenset({2, 3, 5, 7})), mapping) == want

    def test_lift_rejects_unseparated_pair(self) -> None:
        _, mapping = sat_to_setsplitting(XYZ)
        with pytest.raises(ReductionError):
            lift_setsplitting_to_sat(SplitterSolution(frozenset({1, 2})), mapping)

    def test_equivalence_random(self) -> None:
        rng = random.Random(74)
        for _ in range(50):
            cnf = random_cnf(rng)
            sys, mapping = sat_to_setsplitting(cnf)
            satisfiable = bool(sat_assignments(cnf.num_vars, cnf.clauses))
            sol = solve_setsplitting_bruteforce(sys)
            assert (sol is not None) == satisfiable
            if sol is not None:
                lifted = lift_setsplitting_to_sat(sol, mapping)
                assert eval_cnf(cnf, lifted)

    def test_round_trip_through_forward_map(self) -> None:
        rng = random.Random(75)
        seen = 0
        while seen < 20:
            cnf = random_cnf(rng)
            models = sat_assignments(cnf.num_vars, cnf.clauses)
            if not models:
                continue
            seen += 1
            _, mapping = sat_to_setsplitting(cnf)
            psi = Assignment(
                tuple(models[0][i] for i in range(1, cnf.num_vars + 1))
            )
            x = sat_solution_to_setsplitting(psi, mapping)
            assert lift_setsplitting_to_sat(x, mapping) == psi


class TestSetsplittingToAdp:
    def test_frozen_pair_system(self) -> None:
        digraph, mapping = setsplitting_to_adp(PAIR_SYSTEM)
        assert digraph.n == 4
        assert digraph.arcs == (
            (3, 4),
            (4, 3),
            (1, 3),
            (3, 1),
            (2, 4),
            (4, 2),
        )
        assert mapping.system == PAIR_SYSTEM
        assert list(mapping.memberships()) == [(3, 1, 1), (4, 1, 2)]

    def test_frozen_xyz_gadget(self) -> None:
        sys, _ = sat_to_setsplitting(XYZ)
        digraph, mapping = setsplitting_to_adp(sys)
        assert digraph.n == 17
        assert len(digraph.arcs) == 30
        # Membership rings come first, one per set, in input order.
        assert digraph.arcs[:10] == (
            (8, 9),
            (9, 8),
            (10, 11),
            (11, 10),
            (12, 13),
            (13, 12),
            (14, 15),
            (15, 16),
            (16, 17),
            (17, 14),
        )
        # The mapping holds the source set system without its special element.
        assert mapping.system == build_set_system(7, sys.sets)
        assert setsplitting_to_adp(mapping.system)[0] == digraph

    def test_singleton_set_self_loop(self) -> None:
        digraph, _ = setsplitting_to_adp(build_set_system(1, [(1,)]))
        assert (2, 2) in digraph.arcs
        assert solve_adp_bruteforce(digraph) is None

    def test_sizes_random(self) -> None:
        rng = random.Random(76)
        for _ in range(40):
            size = rng.randint(1, 6)
            sets = []
            for _ in range(rng.randint(0, 4)):
                width = rng.randint(1, min(4, size))
                sets.append(tuple(rng.sample(range(1, size + 1), width)))
            sys = build_set_system(size, sets)
            digraph, _ = setsplitting_to_adp(sys)
            total = sum(len(s) for s in sys.sets)
            assert digraph.n == size + total
            assert len(digraph.arcs) == 3 * total

    def test_forward_frozen(self) -> None:
        _, mapping = setsplitting_to_adp(PAIR_SYSTEM)
        part = setsplitting_solution_to_adp(
            SplitterSolution(frozenset({1})), mapping
        )
        assert part == build_partition(4, [1, 4])

    def test_forward_rejects_non_splitter(self) -> None:
        _, mapping = setsplitting_to_adp(PAIR_SYSTEM)
        with pytest.raises(ReductionError):
            setsplitting_solution_to_adp(SplitterSolution(frozenset({1, 2})), mapping)

    def test_lift_round_trip(self) -> None:
        _, mapping = setsplitting_to_adp(PAIR_SYSTEM)
        part = setsplitting_solution_to_adp(
            SplitterSolution(frozenset({1})), mapping
        )
        assert lift_adp_to_setsplitting(part, mapping).chosen == frozenset({1})

    def test_equivalence_random(self) -> None:
        rng = random.Random(77)
        for _ in range(40):
            size = rng.randint(1, 4)
            sets = []
            for _ in range(rng.randint(0, 3)):
                width = rng.randint(1, min(3, size))
                sets.append(tuple(rng.sample(range(1, size + 1), width)))
            sys = build_set_system(size, sets)
            digraph, mapping = setsplitting_to_adp(sys)
            sol = solve_setsplitting_bruteforce(sys)
            part = solve_adp_bruteforce(digraph, cap=digraph.n)
            assert (sol is None) == (part is None)
            if part is not None:
                lifted = lift_adp_to_setsplitting(part, mapping)
                assert verify_setsplitting(sys, lifted)


class TestAdpToLce:
    def test_rejects_self_loop(self) -> None:
        with pytest.raises(SelfLoopError):
            adp_to_lce(build_digraph(2, [(1, 1)]))

    def test_frozen_two_cycle_gadget(self) -> None:
        graph, mapping = adp_to_lce(TWO_CYCLE)
        assert graph.n == 5
        assert sorted(graph.pos) == [(1, 2), (1, 3), (2, 4), (3, 5)]
        assert sorted(graph.neg) == [(1, 4), (1, 5), (2, 5), (3, 4)]
        assert mapping.checker_of(0) == 2
        assert mapping.checker_of(1) == 3
        assert mapping.align_of(1) == 4
        assert mapping.align_of(2) == 5
        assert mapping.digraph == TWO_CYCLE
        assert adp_to_lce(mapping.digraph)[0] == graph

    def test_sizes_random(self) -> None:
        rng = random.Random(78)
        for _ in range(40):
            digraph = random_loopless_digraph(rng, rng.randint(1, 6), 9)
            graph, _ = adp_to_lce(digraph)
            assert graph.n == digraph.n + len(digraph.arcs) + 1
            assert graph.m_pos == 2 * len(digraph.arcs)
            assert graph.m_neg == len(digraph.arcs) + digraph.n

    def test_forward_frozen_two_cycle(self) -> None:
        _, mapping = adp_to_lce(TWO_CYCLE)
        ordering = adp_solution_to_lce_ordering(build_partition(2, [1]), mapping)
        assert tuple(ordering) == (4, 2, 1, 3, 5)

    def test_forward_frozen_arcless(self) -> None:
        _, mapping = adp_to_lce(build_digraph(1, []))
        ordering = adp_solution_to_lce_ordering(build_partition(1, [1]), mapping)
        assert tuple(ordering) == (2, 1)

    def test_forward_rejects_cyclic_part(self) -> None:
        _, mapping = adp_to_lce(TWO_CYCLE)
        with pytest.raises(ReductionError):
            adp_solution_to_lce_ordering(build_partition(2, [1, 2]), mapping)

    def test_lift_round_trip(self) -> None:
        _, mapping = adp_to_lce(TWO_CYCLE)
        ordering = adp_solution_to_lce_ordering(build_partition(2, [1]), mapping)
        assert lift_lce_to_adp(ordering, mapping) == build_partition(2, [1])

    def test_bidirected_triangle_gadget_infeasible(self) -> None:
        graph, _ = adp_to_lce(BIDIRECTED_TRIANGLE)
        assert graph.n == 10
        assert solve_adp_bruteforce(BIDIRECTED_TRIANGLE) is None
        assert solve_subset_dp(graph) is None

    def test_equivalence_random(self) -> None:
        rng = random.Random(79)
        for _ in range(60):
            digraph = random_loopless_digraph(rng, rng.randint(1, 4), 6)
            graph, mapping = adp_to_lce(digraph)
            part = solve_adp_bruteforce(digraph)
            ordering = solve_subset_dp(graph, cap=graph.n)
            assert (part is None) == (ordering is None)
            if part is not None:
                forward = adp_solution_to_lce_ordering(part, mapping)
                assert verify_embedding(graph, forward).valid
            if ordering is not None:
                lifted = lift_lce_to_adp(ordering, mapping)
                assert verify_adp(digraph, lifted)


class TestFullChain:
    def test_frozen_xyz_sizes(self) -> None:
        graph, _ = sat_to_lce(XYZ)
        assert graph.n == 48
        assert graph.m_pos == 60
        assert graph.m_neg == 47

    def test_forward_and_lift_round_trip(self) -> None:
        graph, mapping = sat_to_lce(XYZ)
        psi = Assignment((True, False, False))
        x = sat_solution_to_setsplitting(psi, mapping.sat2ss)
        part = setsplitting_solution_to_adp(x, mapping.ss2adp)
        ordering = adp_solution_to_lce_ordering(part, mapping.adp2lce)
        assert verify_embedding(graph, ordering).valid
        assert lift_lce_to_sat(ordering, mapping) == psi

    def test_single_clause_solved_end_to_end(self) -> None:
        cnf = build_cnf(1, [(1,)])
        graph, mapping = sat_to_lce(cnf)
        assert graph.n == 20
        ordering = solve_subset_dp(graph, cap=graph.n)
        assert ordering is not None
        lifted = lift_lce_to_sat(ordering, mapping)
        assert lifted == Assignment((True,))

    def test_contradiction_infeasible_stagewise(self) -> None:
        cnf = build_cnf(1, [(1,), (-1,)])
        assert not sat_assignments(cnf.num_vars, cnf.clauses)
        sys, _ = sat_to_setsplitting(cnf)
        assert solve_setsplitting_bruteforce(sys) is None
        digraph, _ = setsplitting_to_adp(sys)
        assert solve_adp_bruteforce(digraph) is None
