"""Acceptance gate: seven standalone criteria, one printed line each.

Each test accumulates any failures, prints `criterion <k>: PASS|FAIL (...)`
and only then asserts, so the verdict line is emitted either way.
"""

from __future__ import annotations

import io
import itertools
import random
import re
import time
from contextlib import redirect_stdout
from functools import lru_cache

from lineembed.cli import main
from lineembed.core import is_complete, positive_part, verify_embedding
from lineembed.generators import gen_planted_complete
from lineembed.intervals import (
    model_intersection_graph,
    ordering_to_model,
    solve_complete,
)
from lineembed.formats import serialize_signed_graph
from lineembed.reductions import (
    Assignment,
    adp_solution_to_lce_ordering,
    adp_to_lce,
    build_cnf,
    build_digraph,
    eval_cnf,
    lift_adp_to_setsplitting,
    lift_lce_to_adp,
    lift_setsplitting_to_sat,
    sat_solution_to_setsplitting,
    sat_to_lce,
    sat_to_setsplitting,
    setsplitting_solution_to_adp,
    setsplitting_to_adp,
)
from lineembed.solvers import solve_bruteforce, solve_subset_dp

from oracles import (
    model_to_ordering,
    sat_assignments,
    solve_adp_bruteforce,
    solve_setsplitting_bruteforce,
    verify_adp,
    verify_setsplitting,
)
from test_core import all_sign_patterns, random_signed_graph

ADP_VERIFY_CAP = 34  # largest gadget from n<=4, m<=4 formulas: 9 + 24 vertices


def _finish(num: int, failures: list[str], detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num}: {status} ({detail})")
    assert not failures, f"criterion {num}: " + "; ".join(failures[:5])


# ---------------------------------------------------------------------------
# Shared desk-scale corpora (criteria 4 and 5)
# ---------------------------------------------------------------------------


def _all_clauses(n: int):
    out = []
    for width in range(1, min(3, n) + 1):
        for chosen in itertools.combinations(range(1, n + 1), width):
            for signs in itertools.product((1, -1), repeat=width):
                out.append(tuple(s * v for s, v in zip(signs, chosen)))
    return out


def _clause_key(clause):
    return tuple(sorted(clause, key=lambda lit: (abs(lit), lit < 0)))


def _flip_canonical(n: int, clauses) -> tuple:
    best = None
    for flips in itertools.product((1, -1), repeat=n):
        flipped = tuple(
            sorted(
                _clause_key(tuple(lit * flips[abs(lit) - 1] for lit in clause))
                for clause in clauses
            )
        )
        if best is None or flipped < best:
            best = flipped
    return best


@lru_cache(maxsize=1)
def _formula_corpus():
    """All formulas with n <= 3, m <= 3 up to literal-sign symmetry, plus
    200 random formulas with n <= 4, m <= 4."""
    formulas = []
    for n in (1, 2, 3):
        clauses = _all_clauses(n)
        seen = set()
        for m in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(clauses, m):
                canon = _flip_canonical(n, combo)
                if canon in seen:
                    continue
                seen.add(canon)
                formulas.append(build_cnf(n, combo))
    rng = random.Random(4001)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        body = []
        for _ in range(m):
            width = rng.randint(1, min(3, n))
            chosen = rng.sample(range(1, n + 1), width)
            body.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
        formulas.append(build_cnf(n, body))
    return tuple(formulas)


@lru_cache(maxsize=1)
def _digraph_sample():
    """500 random loopless digraphs with n <= 4 and at most 8 arcs."""
    rng = random.Random(4002)
    sample = []
    for _ in range(500):
        n = rng.randint(1, 4)
        pairs = [
            (a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b
        ]
        arcs = rng.sample(pairs, rng.randint(0, min(8, len(pairs))))
        sample.append(build_digraph(n, arcs))
    return tuple(sample)


def _first_model(cnf) -> Assignment | None:
    models = sat_assignments(cnf.num_vars, cnf.clauses)
    if not models:
        return None
    return Assignment(tuple(models[0][i] for i in range(1, cnf.num_vars + 1)))


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_dp_matches_bruteforce() -> None:
    start = time.perf_counter()
    failures: list[str] = []
    checked = 0

    def check(g) -> None:
        nonlocal checked
        checked += 1
        brute = solve_bruteforce(g)
        dp = solve_subset_dp(g)
        if (brute is None) != (dp is None):
            failures.append(
                f"verdict split on n={g.n} pos={sorted(g.pos)} neg={sorted(g.neg)}"
            )
            return
        for ordering in (brute, dp):
            if ordering is not None and not verify_embedding(g, ordering).valid:
                failures.append(f"unverified ordering on n={g.n}")

    for n in range(0, 6):
        for g in all_sign_patterns(n):
            check(g)
    structured = checked

    rng = random.Random(1001)
    densities = ((0.15, 0.15), (0.25, 0.25), (0.35, 0.35), (0.2, 0.5))
    for i in range(10200):
        n = 6 + i % 3
        p_pos, p_neg = densities[i % 4]
        check(random_signed_graph(rng, n, p_pos, p_neg))

    elapsed = time.perf_counter() - start
    if elapsed >= 300:
        failures.append(f"took {elapsed:.0f}s, budget 300s")
    _finish(
        1,
        failures,
        f"{structured} exhaustive n<=5 + {checked - structured} random "
        f"n in 6..8, {elapsed:.1f}s",
    )


def test_criterion_2_complete_route_and_models() -> None:
    start = time.perf_counter()
    failures: list[str] = []
    feasible = 0
    rng = random.Random(1002)

    for i in range(1000):
        n = rng.randint(4, 9)
        if rng.random() < 0.3:
            g = gen_planted_complete(
                n, spread=rng.uniform(1.0, n / 2.0), seed=rng.randrange(1 << 30)
            )
        else:
            p_pos = rng.uniform(0.2, 0.8)
            g = random_signed_graph(rng, n, p_pos, 1.0 - p_pos)
        assert is_complete(g)
        fast = solve_complete(g)
        brute = solve_bruteforce(g)
        if (fast is None) != (brute is None):
            failures.append(f"verdict split on instance {i} (n={n})")
            continue
        if fast is None:
            continue
        feasible += 1
        if not verify_embedding(g, fast).valid:
            failures.append(f"unverified ordering on instance {i}")
            continue
        model = ordering_to_model(g, fast)
        try:
            model.validate()
        except Exception as exc:
            failures.append(f"model invariant broke on instance {i}: {exc}")
            continue
        if model_intersection_graph(model) != positive_part(g):
            failures.append(f"intersection graph mismatch on instance {i}")
        if tuple(model_to_ordering(model)) != tuple(fast):
            failures.append(f"round-trip mismatch on instance {i}")

    elapsed = time.perf_counter() - start
    if elapsed >= 120:
        failures.append(f"took {elapsed:.0f}s, budget 120s")
    _finish(
        2,
        failures,
        f"1000 complete instances n in 4..9, {feasible} feasible, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_size_formulas() -> None:
    failures: list[str] = []
    rng = random.Random(1003)

    for i in range(100):
        n = rng.randint(3, 8)
        m = rng.randint(1, 10)
        body = []
        for _ in range(m):
            chosen = rng.sample(range(1, n + 1), 3)
            body.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
        cnf = build_cnf(n, body)

        sys_inst, _ = sat_to_setsplitting(cnf)
        u = sys_inst.universe_size
        total = sum(len(s) for s in sys_inst.sets)
        if u != 2 * n + 1 or total != 2 * n + 4 * m:
            failures.append(f"stage 1 sizes wrong on formula {i}")
            continue
        digraph, _ = setsplitting_to_adp(sys_inst)
        if digraph.n != u + total or len(digraph.arcs) != 3 * total:
            failures.append(f"stage 2 sizes wrong on formula {i}")
            continue
        graph, _ = adp_to_lce(digraph)
        if (
            graph.n != digraph.n + len(digraph.arcs) + 1
            or graph.m_pos != 2 * len(digraph.arcs)
            or graph.m_neg != len(digraph.arcs) + digraph.n
        ):
            failures.append(f"stage 3 sizes wrong on formula {i}")

    golden, _ = sat_to_lce(build_cnf(3, [(1, 2, 3)]))
    header = serialize_signed_graph(golden).split("\n", 1)[0]
    if header != "p sg 48 60 47":
        failures.append(f"golden header is {header!r}")

    _finish(3, failures, "100 random 3-literal formulas plus the golden header")


def test_criterion_4_reduction_equivalence() -> None:
    start = time.perf_counter()
    failures: list[str] = []

    sat_count = 0
    for idx, cnf in enumerate(_formula_corpus()):
        sat = _first_model(cnf) is not None
        sat_count += sat
        sys_inst, _ = sat_to_setsplitting(cnf)
        splittable = solve_setsplitting_bruteforce(sys_inst) is not None
        digraph, _ = setsplitting_to_adp(sys_inst)
        partitionable = (
            solve_adp_bruteforce(digraph, cap=ADP_VERIFY_CAP) is not None
        )
        if not (sat == splittable == partitionable):
            failures.append(
                f"formula {idx} verdicts sat={sat} ss={splittable} "
                f"adp={partitionable}"
            )

    feasible_digraphs = 0
    for idx, digraph in enumerate(_digraph_sample()):
        part = solve_adp_bruteforce(digraph)
        graph, _ = adp_to_lce(digraph)
        ordering = solve_subset_dp(graph)
        if (part is None) != (ordering is None):
            failures.append(f"digraph {idx} verdict split")
            continue
        feasible_digraphs += part is not None
        if ordering is not None and not verify_embedding(graph, ordering).valid:
            failures.append(f"digraph {idx} unverified ordering")

    elapsed = time.perf_counter() - start
    if elapsed >= 600:
        failures.append(f"took {elapsed:.0f}s, budget 600s")
    _finish(
        4,
        failures,
        f"{len(_formula_corpus())} formulas ({sat_count} satisfiable), "
        f"{len(_digraph_sample())} digraphs ({feasible_digraphs} feasible), "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_lifting_soundness() -> None:
    failures: list[str] = []
    chains = 0

    for idx, cnf in enumerate(_formula_corpus()):
        psi = _first_model(cnf)
        if psi is None:
            continue
        chains += 1
        graph, mapping = sat_to_lce(cnf)
        sys_inst, _ = sat_to_setsplitting(cnf)
        digraph, _ = setsplitting_to_adp(sys_inst)

        x = sat_solution_to_setsplitting(psi, mapping.sat2ss)
        if not verify_setsplitting(sys_inst, x):
            failures.append(f"formula {idx}: forward splitter rejected")
            continue
        part = setsplitting_solution_to_adp(x, mapping.ss2adp)
        if not verify_adp(digraph, part):
            failures.append(f"formula {idx}: forward partition rejected")
            continue
        ordering = adp_solution_to_lce_ordering(part, mapping.adp2lce)
        if not verify_embedding(graph, ordering).valid:
            failures.append(f"formula {idx}: forward ordering rejected")
            continue

        lifted_part = lift_lce_to_adp(ordering, mapping.adp2lce)
        if not verify_adp(digraph, lifted_part):
            failures.append(f"formula {idx}: lifted partition rejected")
            continue
        lifted_x = lift_adp_to_setsplitting(lifted_part, mapping.ss2adp)
        if not verify_setsplitting(sys_inst, lifted_x):
            failures.append(f"formula {idx}: lifted splitter rejected")
            continue
        lifted_psi = lift_setsplitting_to_sat(lifted_x, mapping.sat2ss)
        if not eval_cnf(cnf, lifted_psi):
            failures.append(f"formula {idx}: lifted assignment rejected")

    digraph_chains = 0
    for idx, digraph in enumerate(_digraph_sample()):
        part = solve_adp_bruteforce(digraph)
        if part is None:
            continue
        digraph_chains += 1
        graph, mapping = adp_to_lce(digraph)
        ordering = adp_solution_to_lce_ordering(part, mapping)
        if not verify_embedding(graph, ordering).valid:
            failures.append(f"digraph {idx}: forward ordering rejected")
            continue
        lifted = lift_lce_to_adp(ordering, mapping)
        if not verify_adp(digraph, lifted):
            failures.append(f"digraph {idx}: lifted partition rejected")
        dp_ordering = solve_subset_dp(graph)
        if dp_ordering is not None:
            solved_lift = lift_lce_to_adp(dp_ordering, mapping)
            if not verify_adp(digraph, solved_lift):
                failures.append(f"digraph {idx}: solver-output lift rejected")

    _finish(
        5,
        failures,
        f"{chains} satisfiable formulas and {digraph_chains} feasible "
        f"digraphs chained forward and lifted back",
    )


def test_criterion_6_planted_instances() -> None:
    failures: list[str] = []
    worst, worst_seed = 0.0, None
    for seed in range(100):
        g = gen_planted_complete(1000, seed=seed)
        t0 = time.perf_counter()
        ordering = solve_complete(g)
        dt = time.perf_counter() - t0
        if dt > worst:
            worst, worst_seed = dt, seed
        if ordering is None:
            failures.append(f"seed {seed} reported infeasible")
            continue
        if dt >= 1.0:
            failures.append(f"seed {seed} took {dt:.2f}s")
        if not verify_embedding(g, ordering).valid:
            failures.append(f"seed {seed} ordering does not verify")
    _finish(
        6,
        failures,
        f"100 planted instances n=1000, worst solve {worst * 1000:.0f}ms "
        f"(seed {worst_seed})",
    )


def test_criterion_7_scaling_probe() -> None:
    failures: list[str] = []
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        rc = main(["bench", "--min-n", "14", "--max-n", "20", "--per-size", "5"])
    output = buffer.getvalue()
    if rc != 0:
        failures.append(f"bench exited {rc}")
    sizes = dict(
        (int(m.group(1)), (float(m.group(2)), float(m.group(3))))
        for m in re.finditer(
            r"bench n=(\d+) runs=\d+ median_ms=([\d.]+) max_ms=([\d.]+)", output
        )
    )
    ratio_match = re.search(r"bench ratio-median=([\d.]+)", output)
    if sorted(sizes) != list(range(14, 21)) or ratio_match is None:
        failures.append(f"unexpected bench output: {output!r}")
        _finish(7, failures, "bench output unparseable")
        return
    ratio = float(ratio_match.group(1))
    worst_20 = sizes[20][1]
    if not 1.6 <= ratio <= 2.8:
        failures.append(f"ratio median {ratio} outside [1.6, 2.8]")
    if worst_20 >= 60_000:
        failures.append(f"n=20 instance took {worst_20:.0f}ms")
    _finish(
        7,
        failures,
        f"ratio median {ratio:.2f}, slowest n=20 instance "
        f"{worst_20:.0f}ms of 60000ms allowed",
    )
