"""The benchmark's workloads: inputs made from the seed, and the CLI steps
each instance runs with the check of every step's output.

Inputs are generated and written with lineembed's own generators, forward
maps and serializers (that is the timed set-up); the checks come from
``checks``, which shares no code with the package.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Optional

import lineembed.core as core
import lineembed.formats as formats
import lineembed.generators as generators
import lineembed.reductions as reductions

import checks

COMPLETE_N = 1000
DP_N = 20
# Share of a planted complete instance's edges that a feasible dp-20
# instance keeps: "narrow" ones are dense and connected, with few prefix
# sets reachable; "wide" ones are sparse, with several components and most
# prefix sets reachable.
DP_KEEP = {"narrow": 0.6, "wide": 0.1}
DP_WIDE_MIN_COMPONENTS = 3
SAT_VARS = 1000
SAT_CLAUSES = 4000

# Every pass over a workload runs its instances in this order; a name in
# checks.OBSTRUCTIONS marks an instance with that obstruction planted.
PASSES = {
    "complete-1000": ("planted", "claw"),
    "dp-20": ("narrow", "wide", "claw", "narrow", "wide", "c4"),
    "reduce-lift": ("planted-sat",),
}


@dataclass
class Step:
    """One CLI command: its subcommand, its arguments (paths relative to the
    work directory) and the check of its exit code and stdout."""

    command: str
    args: list[str]
    check: Callable[[int, str], Optional[str]]


@dataclass
class Instance:
    name: str
    steps: list[Step]
    facts: dict  # the instance's make-up, for the result file


def _components(n: int, *flats) -> int:
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for flat in flats:
        for u, v in checks.pairs(flat):
            parent[find(u)] = find(v)
    return len({find(v) for v in range(1, n + 1)})


def _flat(edges) -> array:
    return array("i", chain.from_iterable(edges))


def _plant(g: core.SignedGraph, obstruction: str, rng: random.Random):
    """g with the named obstruction planted on four random vertices as an
    induced subgraph, and those vertices."""
    where = rng.sample(range(1, g.n + 1), 4)
    pos, neg = set(g.pos), set(g.neg)
    plant_pos, plant_neg = checks.OBSTRUCTIONS[obstruction]
    for i in range(4):
        for j in range(i + 1, 4):
            a, b = where[i], where[j]
            pos.discard((min(a, b), max(a, b)))
            neg.discard((min(a, b), max(a, b)))
    for signed, pairs in ((pos, plant_pos), (neg, plant_neg)):
        for i, j in pairs:
            a, b = where[i - 1], where[j - 1]
            signed.add((min(a, b), max(a, b)))
    return core.build_signed_graph(g.n, pos, neg), where


def _subgraph(g: core.SignedGraph, keep: float, rng: random.Random) -> core.SignedGraph:
    return core.build_signed_graph(
        g.n,
        [e for e in sorted(g.pos) if rng.random() < keep],
        [e for e in sorted(g.neg) if rng.random() < keep],
    )


# ---------------------------------------------------------------------------
# Signed-graph workloads: complete-1000, dp-20
# ---------------------------------------------------------------------------


def _make_graph(workload: str, kind: str, rng: random.Random):
    """The instance's signed graph and the planted obstruction's vertices."""
    if workload == "complete-1000":
        g = generators.gen_planted_complete(COMPLETE_N, seed=rng.randrange(2**31))
        return _plant(g, kind, rng) if kind != "planted" else (g, None)
    while True:  # n = 20: redraw until the shape the kind asks for
        if kind in DP_KEEP:
            g = generators.gen_planted_complete(DP_N, seed=rng.randrange(2**31))
            g, where = _subgraph(g, DP_KEEP[kind], rng), None
        else:
            g = generators.gen_random_signed_graph(DP_N, 0.25, 0.25, rng.randrange(2**31))
            g, where = _plant(g, kind, rng)
        parts = _components(g.n, _flat(g.pos), _flat(g.neg))
        if (parts >= DP_WIDE_MIN_COMPONENTS) if kind == "wide" else (parts == 1):
            return g, where


def _graph_instance(workload, kind, index, workdir, rng):
    """(timed set-up, untimed completion) of one signed-graph instance."""
    stem = f"g{index}"
    sg, cert, model = f"{stem}.sg", f"{stem}.ord", f"{stem}.model"

    def build():
        g, where = _make_graph(workload, kind, rng)
        (workdir / sg).write_text(formats.serialize_signed_graph(g))
        return g, where

    def finish(built) -> Instance:
        g, where = built
        n, pos, neg = g.n, _flat(g.pos), _flat(g.neg)
        feasible = where is None
        complete = workload == "complete-1000"
        with_model = complete and feasible

        def check_solve(code: int, _stdout: str) -> Optional[str]:
            seq = checks.parse_ordering((workdir / cert).read_text())
            if not feasible:
                if seq is not None:
                    return f"{stem}: instance with a planted {kind} came back feasible"
                return None
            if seq is None:
                return f"{stem}: planted instance came back INFEASIBLE"
            problem = checks.ordering_violation(n, pos, neg, seq)
            if problem is None and with_model:
                problem = checks.model_mismatch(n, pos, checks.parse_model((workdir / model).read_text()))
            return problem and f"{stem}: {problem}"

        solve = ["solve", sg, "--out", cert] + (["--model", model] if with_model else [])
        steps = [Step("solve", solve, check_solve)]
        if feasible:
            steps.append(Step("verify", ["verify", sg, cert], checks.verify_problem))
        if with_model:
            steps.append(Step("verify", ["verify", sg, model], checks.verify_problem))
        facts = {"kind": kind, "n": n, "m_pos": len(pos) // 2, "m_neg": len(neg) // 2,
                 "components": 1 if complete else _components(n, pos, neg)}
        if where is not None:
            facts["obstruction_at"] = where
        return Instance(stem, steps, facts)

    return build, finish


# ---------------------------------------------------------------------------
# reduce-lift
# ---------------------------------------------------------------------------


def _planted_cnf(rng: random.Random):
    """Random clauses of width 1..3, each made true under a planted
    assignment by flipping one literal where needed."""
    planted = [rng.random() < 0.5 for _ in range(SAT_VARS)]
    clauses = []
    for _ in range(SAT_CLAUSES):
        lits = [v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, SAT_VARS + 1), rng.randint(1, 3))]
        if not any((lit > 0) == planted[abs(lit) - 1] for lit in lits):
            i = rng.randrange(len(lits))
            lits[i] = -lits[i]
        clauses.append(lits)
    return reductions.build_cnf(SAT_VARS, clauses), reductions.Assignment(tuple(planted))


def _sat_instance(workload, kind, index, workdir, rng):
    stem = f"r{index}"
    cnf_file, gadget, mapping = f"{stem}.cnf", f"{stem}.gadget.sg", f"{stem}.map"
    gadget_cert, lifted = f"{stem}.gadget.ord", f"{stem}.lifted"

    def build():
        cnf, planted = _planted_cnf(rng)
        (workdir / cnf_file).write_text(formats.serialize_cnf(cnf))
        _, chain_map = reductions.sat_to_lce(cnf)
        x = reductions.sat_solution_to_setsplitting(planted, chain_map.sat2ss)
        part = reductions.setsplitting_solution_to_adp(x, chain_map.ss2adp)
        ordering = reductions.adp_solution_to_lce_ordering(part, chain_map.adp2lce)
        (workdir / gadget_cert).write_text(formats.serialize_ordering_cert(ordering))
        return cnf, list(ordering.seq)

    def finish(built) -> Instance:
        cnf, seq = built
        clauses = [list(c) for c in cnf.clauses]
        want = checks.gadget_counts(cnf.num_vars, clauses)

        def check_reduce(code: int, _stdout: str) -> Optional[str]:
            n, pos, neg = checks.parse_signed_graph((workdir / gadget).read_text())
            got = (n, len(pos) // 2, len(neg) // 2)
            if got != want:
                return f"{stem}: gadget has (n, m+, m-) = {got}, the paper's counts give {want}"
            problem = checks.ordering_violation(n, pos, neg, seq)
            return problem and f"{stem}: planted assignment's gadget ordering: {problem}"

        def check_lift(code: int, _stdout: str) -> Optional[str]:
            lits = checks.parse_assignment((workdir / lifted).read_text())
            problem = checks.assignment_problem(cnf.num_vars, clauses, lits)
            return problem and f"{stem}: lifted assignment: {problem}"

        steps = [
            Step("reduce", ["reduce", "sat2lce", cnf_file, "--out", gadget, "--map", mapping], check_reduce),
            Step("lift", ["lift", mapping, gadget_cert, "--out", lifted], check_lift),
            Step("verify", ["verify", cnf_file, lifted], checks.verify_problem),
            Step("verify", ["verify", gadget, gadget_cert], checks.verify_problem),
        ]
        facts = {"kind": kind, "vars": cnf.num_vars, "clauses": len(clauses),
                 "gadget_n": want[0], "gadget_m_pos": want[1], "gadget_m_neg": want[2]}
        return Instance(stem, steps, facts)

    return build, finish


def recipes(workload: str, seed: int, workdir: Path, round_: int = 0):
    """(build, finish) per instance of one pass: build() is the timed
    set-up, finish(built) turns its result into an Instance.  Round 0 gives
    the pass that runs; further rounds give other instances from the same
    seed, built only to time set-up."""
    rng = random.Random(f"{workload}/{seed}/{round_}")
    make = _sat_instance if workload == "reduce-lift" else _graph_instance
    return [make(workload, kind, i, workdir, rng) for i, kind in enumerate(PASSES[workload])]
