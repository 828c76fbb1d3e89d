"""The benchmark's own checkers accept known-good outputs and reject mutated ones."""

import random
from fractions import Fraction

import pytest

import checks

# Unit intervals [c, c+1] at centres 0, 3/5, 6/5, 9/5, 3: a complete signed
# graph whose positive pairs are the intervals that meet.
N = 5
POS = [1, 2, 2, 3, 3, 4]
NEG = [1, 3, 1, 4, 1, 5, 2, 4, 2, 5, 3, 5, 4, 5]
MODEL_TEXT = "i 1 0/1 1/1\ni 2 3/5 8/5\ni 3 6/5 11/5\ni 4 9/5 14/5\ni 5 3/1 4/1\n"


def test_ordering_accepts_planted_order():
    assert checks.ordering_violation(N, POS, NEG, [1, 2, 3, 4, 5]) is None
    assert checks.ordering_violation(N, POS, NEG, [5, 4, 3, 2, 1]) is None


def test_ordering_rejects_two_swapped_vertices():
    # 3 first: on its right, negative neighbour 1 sits before positive 4.
    assert checks.ordering_violation(N, POS, NEG, [3, 2, 1, 4, 5]) is not None


def test_ordering_rejects_a_non_permutation():
    assert checks.ordering_violation(N, POS, NEG, [1, 2, 3, 4, 4]) is not None


def test_ordering_certificate_parsing():
    assert checks.parse_ordering("o 2 1 3\n") == [2, 1, 3]
    assert checks.parse_ordering("o INFEASIBLE\n") is None


def test_obstructions_have_no_feasible_ordering():
    for plant_pos, plant_neg in checks.OBSTRUCTIONS.values():
        flat_pos = [v for e in plant_pos for v in e]
        flat_neg = [v for e in plant_neg for v in e]
        assert checks.infeasible_by_enumeration(4, flat_pos, flat_neg)


def test_enumeration_finds_a_feasible_ordering():
    # Positive path 1-2-3 with a negative chord: the order 1 2 3 works.
    assert not checks.infeasible_by_enumeration(3, [1, 2, 2, 3], [1, 3])


def test_model_accepts_intersections_that_match():
    model = checks.parse_model(MODEL_TEXT)
    assert model[2] == (Fraction(3, 5), Fraction(8, 5))
    assert checks.model_mismatch(N, POS, model) is None


def test_model_rejects_a_moved_endpoint():
    moved = MODEL_TEXT.replace("i 4 9/5 14/5", "i 4 9/5 16/5")  # now meets 5
    assert checks.model_mismatch(N, POS, checks.parse_model(moved)) is not None


def test_model_rejects_a_missing_vertex():
    partial = MODEL_TEXT.replace("i 5 3/1 4/1\n", "")
    assert checks.model_mismatch(N, POS, checks.parse_model(partial)) is not None


CLAUSES = [[1, 2, -3], [-1], [3, 2]]


def test_assignment_accepts_a_model_of_the_formula():
    lits = checks.parse_assignment("v -1 2 3 0\n")
    assert checks.assignment_problem(3, CLAUSES, lits) is None


def test_assignment_rejects_a_flipped_literal():
    assert checks.assignment_problem(3, CLAUSES, [-1, -2, 3]) is not None  # clause 1 false
    assert checks.assignment_problem(3, CLAUSES, [1, 2, 3]) is not None  # clause 2 false
    assert checks.assignment_problem(3, CLAUSES, [-1, 2]) is not None  # 3 unset


def test_gadget_counts_follow_the_papers_formulas():
    # One variable, clause (x1): U = {1, 2, 3}, sets {1, 2} and {1, 3}, so
    # T = 4, the digraph has 7 vertices and 12 arcs, and the signed graph
    # 7 + 12 + 1 vertices, 24 positive and 12 + 7 negative edges.
    assert checks.gadget_counts(1, [[1]]) == (20, 24, 19)
    assert checks.gadget_counts(1, [[1], [-1]]) == (28, 36, 27)


def test_signed_graph_parsing_checks_header_counts():
    n, pos, neg = checks.parse_signed_graph("p sg 3 1 1\ne + 1 2\ne - 1 3\n")
    assert (n, pos, neg) == (3, [1, 2], [1, 3])
    with pytest.raises(ValueError):
        checks.parse_signed_graph("p sg 3 2 1\ne + 1 2\ne - 1 3\n")


def test_verify_output_must_be_valid_and_exit_zero():
    assert checks.verify_problem(0, "VALID\n") is None
    assert checks.verify_problem(1, "INVALID: vertex 3 sees ...\n") is not None
    assert checks.verify_problem(0, "INVALID: clause 2 is falsified\n") is not None


def test_planted_obstruction_is_an_induced_subgraph():
    import lineembed.generators as generators
    import workloads

    g = generators.gen_planted_complete(12, seed=3)
    for name, (plant_pos, plant_neg) in checks.OBSTRUCTIONS.items():
        h, where = workloads._plant(g, name, random.Random(name))
        label = {v: i for i, v in enumerate(where, start=1)}
        induced_pos = {tuple(sorted((label[u], label[v]))) for u, v in h.pos if u in label and v in label}
        induced_neg = {tuple(sorted((label[u], label[v]))) for u, v in h.neg if u in label and v in label}
        assert induced_pos == set(plant_pos) and induced_neg == set(plant_neg)
