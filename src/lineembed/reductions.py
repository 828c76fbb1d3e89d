"""Reduction chain: CNF satisfiability to set splitting to acyclic digraph
partition to signed-graph line embedding.

Each stage has a deterministic instance translator, a forward certificate
map, a backward lift, and a verifier, so feasibility evidence can be pushed
all the way down the chain and pulled back up.  Gadget vertex numbering is
fixed (documented per translator) and identical inputs always produce
identical gadgets.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .core import Ordering, SignedGraph, _pair_array, _refuse_over
from .errors import ReductionError, SelfLoopError

# Peak bytes per item of each forward map, refused before it is built:
# tracemalloc read at most 67 per element and membership (sat_to_setsplitting),
# 96 per vertex, arc and membership (setsplitting_to_adp), 81 per gadget edge.
_BYTES_PER_ITEM = 96


# ---------------------------------------------------------------------------
# Instance types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CnfFormula:
    """CNF with clauses of 1..3 literals over variables 1..num_vars."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]


def build_cnf(num_vars: int, clauses: Iterable[Sequence[int]]) -> CnfFormula:
    if num_vars < 0:
        raise ReductionError(f"variable count {num_vars} is negative")
    out = []
    for idx, clause in enumerate(clauses, start=1):
        lits = tuple(clause)
        if not 1 <= len(lits) <= 3:
            raise ReductionError(
                f"clause {idx} has {len(lits)} literals, want 1..3"
            )
        seen = set()
        for lit in lits:
            var = abs(lit)
            if lit == 0 or var > num_vars:
                raise ReductionError(f"clause {idx} has bad literal {lit}")
            if lit in seen:
                raise ReductionError(f"clause {idx} repeats literal {lit}")
            if -lit in seen:
                raise ReductionError(
                    f"clause {idx} contains complementary literals {lit}, {-lit}"
                )
            seen.add(lit)
        out.append(lits)
    return CnfFormula(num_vars, tuple(out))


@dataclass(frozen=True)
class Assignment:
    """Truth values for variables 1..n; values[i] belongs to variable i+1."""

    values: tuple[bool, ...]

    def value(self, var: int) -> bool:
        return self.values[var - 1]


def falsified_clause(cnf: CnfFormula, assignment: Assignment) -> Optional[int]:
    """1-based index of the first clause the assignment falsifies, or None."""
    if len(assignment.values) != cnf.num_vars:
        raise ReductionError(
            f"assignment covers {len(assignment.values)} variables, "
            f"formula has {cnf.num_vars}"
        )
    for idx, clause in enumerate(cnf.clauses, start=1):
        if not any((lit > 0) == assignment.value(abs(lit)) for lit in clause):
            return idx
    return None


def eval_cnf(cnf: CnfFormula, assignment: Assignment) -> bool:
    return falsified_clause(cnf, assignment) is None


@dataclass(frozen=True)
class SetSystem:
    """Family of nonempty subsets of 1..universe_size, order-preserving.

    `special` optionally marks one distinguished element.
    """

    universe_size: int
    sets: tuple[tuple[int, ...], ...]
    special: Optional[int] = None


def build_set_system(
    universe_size: int,
    sets: Iterable[Sequence[int]],
    special: Optional[int] = None,
) -> SetSystem:
    if universe_size < 0:
        raise ReductionError(f"universe size {universe_size} is negative")
    out = []
    for idx, members in enumerate(sets, start=1):
        elems = tuple(sorted(members))
        if not elems:
            raise ReductionError(f"set {idx} is empty")
        if len(set(elems)) != len(elems):
            raise ReductionError(f"set {idx} repeats an element")
        for e in elems:
            if not 1 <= e <= universe_size:
                raise ReductionError(
                    f"set {idx} element {e} out of range 1..{universe_size}"
                )
        out.append(elems)
    if special is not None and not 1 <= special <= universe_size:
        raise ReductionError(f"special element {special} out of range")
    return SetSystem(universe_size, tuple(out), special)


@dataclass(frozen=True)
class SplitterSolution:
    chosen: frozenset[int]


@dataclass(frozen=True)
class Digraph:
    """Directed graph on 1..n; arc order is significant and preserved.

    Self-loops are allowed, duplicate arcs are not.
    """

    n: int
    arcs: tuple[tuple[int, int], ...]


def build_digraph(n: int, arcs: Iterable[tuple[int, int]]) -> Digraph:
    if n < 0:
        raise ReductionError(f"vertex count {n} is negative")
    out = tuple(arcs)
    seen = set()
    for a, b in out:
        if not (1 <= a <= n and 1 <= b <= n):
            raise ReductionError(f"arc ({a}, {b}) out of range 1..{n}")
        if (a, b) in seen:
            raise ReductionError(f"duplicate arc ({a}, {b})")
        seen.add((a, b))
    return Digraph(n, out)


@dataclass(frozen=True)
class Partition:
    """Two-part partition of 1..n (part2 is the complement of part1)."""

    part1: frozenset[int]
    part2: frozenset[int]


def build_partition(n: int, part1: Iterable[int]) -> Partition:
    p1 = frozenset(part1)
    for v in p1:
        if not 1 <= v <= n:
            raise ReductionError(f"vertex {v} out of range 1..{n}")
    return Partition(p1, frozenset(range(1, n + 1)) - p1)


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------


def unsplit_set_index(sys: SetSystem, x: SplitterSolution) -> Optional[int]:
    """1-based index of the first set missed by X, or None if all split."""
    for e in x.chosen:
        if not 1 <= e <= sys.universe_size:
            raise ReductionError(
                f"chosen element {e} out of range 1..{sys.universe_size}"
            )
    chosen = x.chosen
    for idx, members in enumerate(sys.sets, start=1):
        hit = sum(1 for e in members if e in chosen)
        if hit == 0 or hit == len(members):
            return idx
    return None


def _kahn(
    vertices: frozenset[int], digraph: Digraph
) -> tuple[list[int], Optional[list[int]]]:
    """(order, None) with the smallest-vertex-first topological order of the
    induced sub-digraph, or (eliminated vertices, cycle) when it is cyclic.

    Which vertices survive the elimination does not depend on the order in
    which sources are removed.  Every survivor keeps an in-neighbour among
    the survivors, so a backward walk from the smallest one must revisit a
    vertex and close a cycle.  A self-loop is a cycle of length one.
    """
    succ: dict[int, list[int]] = {v: [] for v in vertices}
    indeg = {v: 0 for v in vertices}
    for a, b in digraph.arcs:
        if a in vertices and b in vertices:
            succ[a].append(b)
            indeg[b] += 1
    heap = [v for v in vertices if indeg[v] == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) == len(vertices):
        return order, None
    rest = {v for v in vertices if indeg[v] > 0}
    pred: dict[int, int] = {}  # first in-neighbour among the survivors
    for a, b in digraph.arcs:
        if a in rest and b in rest:
            pred.setdefault(b, a)
    walk = [min(rest)]
    seen_at = {walk[0]: 0}
    while True:
        nxt = pred[walk[-1]]
        if nxt in seen_at:
            return order, list(reversed(walk[seen_at[nxt] :]))
        seen_at[nxt] = len(walk)
        walk.append(nxt)


def adp_violation(digraph: Digraph, part: Partition) -> Optional[tuple[int, list[int]]]:
    """(part number, cycle vertices) for the first cyclic part, or None."""
    if part.part1 | part.part2 != frozenset(range(1, digraph.n + 1)) or (
        part.part1 & part.part2
    ):
        raise ReductionError("parts do not partition the digraph's vertices")
    for idx, vertices in ((1, part.part1), (2, part.part2)):
        cycle = _kahn(vertices, digraph)[1]
        if cycle is not None:
            return (idx, cycle)
    return None


# ---------------------------------------------------------------------------
# Stage 1: CNF -> set splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SatToSsMapping:
    """Element numbering: literal +i -> 2i-1, -i -> 2i, special -> 2n+1.
    Set i is variable i's pair set and set n + j is clause j's set.

    Holds the source formula, so lifted assignments can be checked."""

    cnf: CnfFormula

    @property
    def special(self) -> int:
        return 2 * self.cnf.num_vars + 1

    def element_of(self, lit: int) -> int:
        return 2 * abs(lit) - 1 if lit > 0 else 2 * abs(lit)


def sat_to_setsplitting(cnf: CnfFormula) -> tuple[SetSystem, SatToSsMapping]:
    """Per-variable pair sets plus per-clause sets through a shared special
    element.  |U| = 2n+1 and total membership is 2n + sum(|C|+1)."""
    mapping = SatToSsMapping(cnf)
    special = mapping.special
    members = 2 * cnf.num_vars + len(cnf.clauses) + sum(map(len, cnf.clauses))
    what = f"the set system of {special} elements and {members} memberships"
    _refuse_over(_BYTES_PER_ITEM * (special + members), what)
    sets = [(2 * i - 1, 2 * i) for i in range(1, cnf.num_vars + 1)]
    for clause in cnf.clauses:
        elems = {mapping.element_of(lit) for lit in clause} | {special}
        sets.append(tuple(sorted(elems)))
    return SetSystem(special, tuple(sets), special), mapping


def sat_solution_to_setsplitting(
    assignment: Assignment, mapping: SatToSsMapping
) -> SplitterSolution:
    """X = elements of the literals made true.

    Raises ReductionError unless the assignment satisfies the formula.
    """
    if not eval_cnf(mapping.cnf, assignment):
        raise ReductionError("assignment does not satisfy the formula")
    return SplitterSolution(
        frozenset(
            mapping.element_of(i if assignment.value(i) else -i)
            for i in range(1, mapping.cnf.num_vars + 1)
        )
    )


def lift_setsplitting_to_sat(
    x: SplitterSolution, mapping: SatToSsMapping
) -> Assignment:
    """Complement away the special element, then read variables off X."""
    chosen = set(x.chosen)
    if mapping.special in chosen:
        chosen = set(range(1, mapping.special + 1)) - chosen
    values = []
    for i in range(1, mapping.cnf.num_vars + 1):
        pos_in = (2 * i - 1) in chosen
        neg_in = (2 * i) in chosen
        if pos_in == neg_in:
            raise ReductionError(
                f"splitter does not separate the pair set of variable {i}"
            )
        values.append(pos_in)
    return Assignment(tuple(values))


# ---------------------------------------------------------------------------
# Stage 2: set splitting -> acyclic digraph partition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SsToAdpMapping:
    """d_u = u for u in 1..|U|; membership vertices follow in (set index,
    element) lexicographic order.

    Holds the source set system, without a special element."""

    system: SetSystem

    def memberships(self) -> Iterator[tuple[int, int, int]]:
        """(vertex, set index, element) of each membership vertex, numbered
        from |U| + 1 by walking the sets in order."""
        c = self.system.universe_size
        for set_idx, members in enumerate(self.system.sets, start=1):
            for elem in members:
                c += 1
                yield c, set_idx, elem


def setsplitting_to_adp(sys: SetSystem) -> tuple[Digraph, SsToAdpMapping]:
    """One element vertex per universe member, one membership vertex per
    (set, element); each set's membership vertices form a directed cycle in
    ascending element order (a singleton gives a self-loop), and every
    membership vertex exchanges arcs with its element vertex.

    |V| = |U| + total membership, |A| = 3 * total membership.
    """
    u_count, m = sys.universe_size, sum(map(len, sys.sets))
    what = f"the digraph of {u_count + m} vertices and {3 * m} arcs"
    _refuse_over(_BYTES_PER_ITEM * (u_count + 5 * m), what)
    of_elem: list[list[int]] = [[] for _ in range(u_count + 1)]
    arcs: list[tuple[int, int]] = []
    nxt = u_count + 1
    for members in sys.sets:
        ring = list(range(nxt, nxt + len(members)))
        for elem, c in zip(members, ring):  # members are stored ascending
            of_elem[elem].append(c)
        arcs.extend(zip(ring, ring[1:] + ring[:1]))
        nxt += len(members)
    for elem in range(1, u_count + 1):
        for c in of_elem[elem]:
            arcs.append((elem, c))
            arcs.append((c, elem))
    return Digraph(nxt - 1, tuple(arcs)), SsToAdpMapping(SetSystem(u_count, sys.sets))


def setsplitting_solution_to_adp(
    x: SplitterSolution, mapping: SsToAdpMapping
) -> Partition:
    """Part 1 holds chosen element vertices and the membership vertices of
    non-chosen elements.

    Raises ReductionError unless X splits the mapping's set system.
    """
    sys = mapping.system
    if unsplit_set_index(sys, x) is not None:
        raise ReductionError("splitter does not split the set system")
    part1 = set(x.chosen)
    part1.update(c for c, _, elem in mapping.memberships() if elem not in x.chosen)
    return build_partition(sys.universe_size + sum(map(len, sys.sets)), part1)


def lift_adp_to_setsplitting(
    part: Partition, mapping: SsToAdpMapping
) -> SplitterSolution:
    """X = universe elements whose element vertex lies in part 1."""
    universe = mapping.system.universe_size
    return SplitterSolution(frozenset(u for u in part.part1 if u <= universe))


# ---------------------------------------------------------------------------
# Stage 3: acyclic digraph partition -> line embedding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdpToLceMapping:
    """s is vertex 1; checker vertices follow in arc-input order; alignment
    vertices come last, one per digraph vertex in index order.

    Holds the source digraph."""

    digraph: Digraph

    @property
    def s_vertex(self) -> int:
        return 1

    def checker_of(self, arc_index: int) -> int:
        return 2 + arc_index

    def align_of(self, v: int) -> int:
        return 1 + len(self.digraph.arcs) + v


def adp_to_lce(digraph: Digraph) -> tuple[SignedGraph, AdpToLceMapping]:
    """Checker vertices tie the special vertex to arc sources positively and
    to arc targets negatively; alignment vertices repel the special vertex.

    A self-loop cannot be encoded (its checker would need both signs toward
    the same alignment vertex) and raises SelfLoopError; such digraphs have
    no acyclic partition anyway.  |V'| = |V| + |A| + 1, |E+| = 2|A|,
    |E-| = |A| + |V|, the paper's counts, which benchmark/checks.py checks:
    no digraph on 1-3 vertices (gadget of at most 9) needs edges (s, align v).
    A gadget whose arrays are predicted not to fit in the available memory
    raises CapExceededError before any array is built.
    """
    for a, b in digraph.arcs:
        if a == b:
            raise SelfLoopError(
                f"arc ({a}, {b}) is a self-loop; resolve it before this stage"
            )
    m = len(digraph.arcs)
    size, rows = 1 + m + digraph.n, 3 * m + digraph.n
    what = f"the gadget would have {size} vertices and {rows} edges; it"
    _refuse_over(_BYTES_PER_ITEM * rows, what)
    # Per arc, rows (s, c) and (c, align a) positive and (c, align b)
    # negative, then (s, align v) per vertex: each with u < v, as s = 1 <
    # checker 2 + idx < alignment 1 + m + v.
    align = _pair_array(digraph.arcs) + (1 + m)
    c = np.arange(2, m + 2)
    pos = np.column_stack((np.ones_like(c), c, c, align[:, 0])).reshape(-1, 2)
    align_v = np.arange(1, digraph.n + 1) + (1 + m)
    s_align = np.column_stack((np.ones_like(align_v), align_v))
    neg = np.concatenate((np.column_stack((c, align[:, 1])), s_align))
    return SignedGraph(1 + m + digraph.n, pos, neg), AdpToLceMapping(digraph)


def adp_solution_to_lce_ordering(
    part: Partition, mapping: AdpToLceMapping
) -> Ordering:
    """Seven blocks around the special vertex.

    With topological orders pi1 of part 1 and pi2 of part 2: alignment
    vertices of part 1 in reverse pi1 order, checkers of arcs from part 1
    into part 2, checkers inside part 1 in reverse (pi1, pi1) lexicographic
    arc order, s, checkers inside part 2 in (pi2, pi2) lexicographic order,
    checkers from part 2 into part 1, alignment vertices of part 2 in pi2
    order.  Raises ReductionError when a part is cyclic; the ordering itself
    is not re-verified here.
    """
    digraph = mapping.digraph
    ranks = []
    for vertices in (part.part1, part.part2):
        order, cycle = _kahn(vertices, digraph)
        if cycle is not None:
            raise ReductionError("induced sub-digraph is not acyclic")
        ranks.append({v: i for i, v in enumerate(order)})
    pi1, pi2 = ranks

    cross_12: list[int] = []
    cross_21: list[int] = []
    inner_1: list[tuple[tuple[int, int], int]] = []
    inner_2: list[tuple[tuple[int, int], int]] = []
    for c, (a, b) in enumerate(digraph.arcs, start=mapping.checker_of(0)):
        if a in part.part1 and b in part.part1:
            inner_1.append(((pi1[a], pi1[b]), c))
        elif a in part.part1:
            cross_12.append(c)
        elif b in part.part1:
            cross_21.append(c)
        else:
            inner_2.append(((pi2[a], pi2[b]), c))

    seq: list[int] = []
    seq.extend(
        mapping.align_of(v)
        for v in sorted(part.part1, key=pi1.__getitem__, reverse=True)
    )
    seq.extend(cross_12)
    seq.extend(c for _, c in sorted(inner_1, reverse=True))
    seq.append(mapping.s_vertex)
    seq.extend(c for _, c in sorted(inner_2))
    seq.extend(cross_21)
    seq.extend(mapping.align_of(v) for v in sorted(part.part2, key=pi2.__getitem__))

    return Ordering.from_seq(seq)


def lift_lce_to_adp(ordering: Ordering, mapping: AdpToLceMapping) -> Partition:
    """Part 1 = digraph vertices whose alignment vertex precedes s."""
    pos = ordering.position
    s_rank = pos[mapping.s_vertex]
    n = mapping.digraph.n
    part1 = frozenset(v for v in range(1, n + 1) if pos[mapping.align_of(v)] < s_rank)
    return build_partition(n, part1)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SatToLceMapping:
    sat2ss: SatToSsMapping
    ss2adp: SsToAdpMapping
    adp2lce: AdpToLceMapping


def sat_to_lce(cnf: CnfFormula) -> tuple[SignedGraph, SatToLceMapping]:
    """Full chain; the mapping holds the three stage mappings."""
    sys, m1 = sat_to_setsplitting(cnf)
    digraph, m2 = setsplitting_to_adp(sys)
    graph, m3 = adp_to_lce(digraph)
    return graph, SatToLceMapping(m1, m2, m3)


def lift_lce_to_sat(ordering: Ordering, mapping: SatToLceMapping) -> Assignment:
    part = lift_lce_to_adp(ordering, mapping.adp2lce)
    x = lift_adp_to_setsplitting(part, mapping.ss2adp)
    return lift_setsplitting_to_sat(x, mapping.sat2ss)


class Stage(NamedTuple):
    reduce: Callable  # source instance -> (reduced instance, mapping)
    lift: Callable  # (reduced certificate, mapping) -> source certificate


def stage_reductions() -> dict[str, Stage]:
    """Stage name, as `reduce` and mapping files spell it -> the reduction
    it runs and the lift that undoes it.  Built per call, so a function
    replaced after import is used."""
    return {
        "sat2ss": Stage(sat_to_setsplitting, lift_setsplitting_to_sat),
        "ss2adp": Stage(setsplitting_to_adp, lift_adp_to_setsplitting),
        "adp2lce": Stage(adp_to_lce, lift_lce_to_adp),
        "sat2lce": Stage(sat_to_lce, lift_lce_to_sat),
    }
