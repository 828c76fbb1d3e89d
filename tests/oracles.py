"""Independent reference implementations used only by the test suite.

Everything here is written straight from the definitions, favouring
obviousness over speed, so package code can be checked against it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from lineembed.core import Graph, Ordering, SignedGraph, _checked_pair, build_signed_graph
from lineembed.errors import (
    CapExceededError,
    GraphError,
    LineEmbedError,
    ParseError,
    ReductionError,
)
from lineembed.formats import _SOURCES, AnyMapping, read_mapping, serialize_mapping
from lineembed.reductions import (
    Digraph,
    Partition,
    SetSystem,
    SplitterSolution,
    adp_violation,
    stage_reductions,
    unsplit_set_index,
)
from lineembed.solvers import SUBSET_DP_CAP, _available_bytes, _local_masks

SIDE_KEY = {"left": 0, "right": 1}


def naive_violations(g, seq):
    """All violating triples by cubic scan.

    Returns sorted tuples (u, side_idx, u2, u1); the first element is the
    lexicographically first violation in the package's tie-break order.
    """
    rank = {v: i + 1 for i, v in enumerate(seq)}
    pos_nbrs = {u: [] for u in range(1, g.n + 1)}
    neg_nbrs = {u: [] for u in range(1, g.n + 1)}
    for edges, nbrs in ((g.pos, pos_nbrs), (g.neg, neg_nbrs)):
        for u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
    out = []
    for u in range(1, g.n + 1):
        for u1 in pos_nbrs[u]:
            for u2 in neg_nbrs[u]:
                if rank[u1] < rank[u2] < rank[u]:
                    out.append((u, 0, u2, u1))
                if rank[u1] > rank[u2] > rank[u]:
                    out.append((u, 1, u2, u1))
    return sorted(out)


def naive_feasible(g, seq):
    return not naive_violations(g, seq)


def feasible_orderings_brute(g):
    """Every feasible ordering, by full enumeration (small n only)."""
    return [
        seq
        for seq in itertools.permutations(range(1, g.n + 1))
        if naive_feasible(g, seq)
    ]


def umbrella_ok_direct(n, edges, seq):
    """Direct edge-between predicate: for every edge uv with u before v,
    each w strictly between is adjacent to both endpoints.  O(n*m)."""
    eset = {frozenset(e) for e in edges}
    rank = {v: i + 1 for i, v in enumerate(seq)}
    for u, v in edges:
        lo, hi = sorted((rank[u], rank[v]))
        for w in seq[lo : hi - 1]:
            if frozenset((u, w)) not in eset or frozenset((w, v)) not in eset:
                return False
    return True


def has_umbrella_ordering_brute(n, edges):
    return any(
        umbrella_ok_direct(n, edges, seq)
        for seq in itertools.permutations(range(1, n + 1))
    )


def intervals_intersecting(a, b):
    """Closed intervals a=(l,r), b=(l,r) share a point."""
    return a[0] <= b[1] and b[0] <= a[1]


def model_intersection_edges(intervals):
    """Unordered vertex pairs whose closed intervals intersect."""
    verts = sorted(intervals)
    out = set()
    for u, v in itertools.combinations(verts, 2):
        if intervals_intersecting(intervals[u], intervals[v]):
            out.add((u, v))
    return out



def model_problem(intervals):
    """The ModelError text IntervalModel.validate gives, from the definitions
    on the Fractions themselves and in its order of checks, or None."""
    n = len(intervals)
    if sorted(intervals) != list(range(1, n + 1)):
        return "interval keys are not exactly 1..n"
    for v, (lo, hi) in intervals.items():
        if not lo < hi:
            return f"interval of vertex {v} has empty interior"
    if len({x for pair in intervals.values() for x in pair}) != 2 * n:
        return "interval endpoints are not pairwise distinct"
    for a, b in itertools.permutations(intervals.values(), 2):
        if a[0] < b[0] and b[1] < a[1]:
            return "one interval properly contains another"
    return None


def model_to_ordering(model):
    """Vertices by increasing left endpoint; validates the model first."""
    model.validate()
    return Ordering.from_seq(
        sorted(model.intervals, key=lambda v: model.intervals[v][0])
    )


# --- CNF / set splitting / digraph partition ground truth ------------------


def eval_clause(clause, assignment):
    return any(
        (lit > 0) == assignment[abs(lit)] for lit in clause
    )


def sat_assignments(num_vars, clauses):
    """All satisfying assignments by truth table, as dicts var->bool."""
    out = []
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {i + 1: bits[i] for i in range(num_vars)}
        if all(eval_clause(c, assignment) for c in clauses):
            out.append(assignment)
    return out


def splits_all(sets, chosen):
    chosen = set(chosen)
    return all(
        any(e in chosen for e in s) and any(e not in chosen for e in s)
        for s in sets
    )


def splitter_exists_brute(universe_size, sets):
    universe = range(1, universe_size + 1)
    for r in range(universe_size + 1):
        for comb in itertools.combinations(universe, r):
            if splits_all(sets, comb):
                return True
    return False


def _has_cycle(vertices, arcs):
    """Cycle test on the sub-digraph induced by `vertices`, plain DFS."""
    vs = set(vertices)
    succ = {v: [] for v in vs}
    for a, b in arcs:
        if a in vs and b in vs:
            succ[a].append(b)
    state = {v: 0 for v in vs}  # 0 new, 1 on stack, 2 done
    for root in vs:
        if state[root]:
            continue
        stack = [(root, iter(succ[root]))]
        state[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if state[w] == 1:
                    return True
                if state[w] == 0:
                    state[w] = 1
                    stack.append((w, iter(succ[w])))
                    advanced = True
                    break
            if not advanced:
                state[v] = 2
                stack.pop()
    return False


def partition_ok(n, arcs, part1):
    part1 = set(part1)
    part2 = set(range(1, n + 1)) - part1
    return not _has_cycle(part1, arcs) and not _has_cycle(part2, arcs)


def partition_exists_brute(n, arcs):
    for bits in itertools.product([0, 1], repeat=n):
        part1 = {i + 1 for i in range(n) if bits[i]}
        if partition_ok(n, arcs, part1):
            return True
    return False


def lbfs_by_labels(adj, n, prior):
    """Lexicographic BFS from its definition: the t-th visited vertex (from
    1) appends n - t to the label of each unvisited neighbour, and each step
    visits the unvisited vertex with the lexicographically largest label,
    ties toward the largest prior."""
    label = {v: [] for v in range(1, n + 1)}
    out = []
    while label:
        v = max(label, key=lambda w: (label[w], prior[w]))
        del label[v]
        out.append(v)
        for w in adj[v]:
            if w in label:
                label[w].append(n - len(out))
    return out


def exact_interval(rank_v, rank_far, n):
    """Expected interval for rank pi(v) with rightmost positive-closed
    neighbour rank pi(v->): [pi(v), pi(v->) + pi(v)/(n+1)], exact."""
    return (
        Fraction(rank_v),
        Fraction(rank_far) + Fraction(rank_v, n + 1),
    )



def _content_lines(text):
    for no, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        yield no, tokens


def _int(token, source, line):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", source, line)


def _header(lines, kind, count, source):
    if not lines:
        raise ParseError("empty input", source, None)
    no, tokens = lines[0]
    if tokens[0] != "p" or len(tokens) < 2 or tokens[1] != kind:
        raise ParseError(f"expected 'p {kind}' header", source, no)
    if len(tokens) != 2 + count:
        raise ParseError(
            f"'p {kind}' header wants {count} fields, got {len(tokens) - 2}",
            source,
            no,
        )
    return no, [_int(t, source, no) for t in tokens[2:]]


def parse_signed_graph_by_lines(text, source=None):
    """The `p sg` parser that reads every line with str.split and int, kept
    as the reference for the package's numpy pass.  Its sign test is exact
    (`sign not in ("+", "-")`); a substring test once accepted `+-` as a
    negative sign."""
    lines = list(_content_lines(text))
    hdr_no, (n, m_pos, m_neg) = _header(lines, "sg", 3, source)
    pos = []
    neg = []
    for no, tokens in lines[1:]:
        if tokens[0] != "e" or len(tokens) != 4:
            raise ParseError("expected 'e <sign> <u> <v>'", source, no)
        sign = tokens[1]
        if sign not in ("+", "-"):
            raise ParseError(f"edge sign must be + or -, got {sign!r}", source, no)
        u = _int(tokens[2], source, no)
        v = _int(tokens[3], source, no)
        (pos if sign == "+" else neg).append((u, v))
    if (len(pos), len(neg)) != (m_pos, m_neg):
        raise ParseError(
            f"header declares {m_pos}+/{m_neg}- edges, found {len(pos)}+/{len(neg)}-",
            source,
            hdr_no,
        )
    try:
        return build_signed_graph(n, pos, neg)
    except LineEmbedError as exc:
        raise ParseError(str(exc), source, hdr_no) from exc


def build_signed_graph_by_pairs(n, positive, negative):
    """The signed-graph constructor that stores a new ordered tuple for
    every pair, kept as the reference for the package's, which keeps the
    caller's ordered tuples."""
    if n < 0:
        raise GraphError(f"vertex count {n} is negative")
    pos = set()
    for u, v in positive:
        e = (u, v) if u < v else (v, u)
        if not 1 <= e[0] < e[1] <= n:
            e = _checked_pair(u, v, n, "positive")
        if e in pos:
            raise GraphError(f"duplicate positive edge ({e[0]}, {e[1]})")
        pos.add(e)
    neg = set()
    for u, v in negative:
        e = (u, v) if u < v else (v, u)
        if not 1 <= e[0] < e[1] <= n:
            e = _checked_pair(u, v, n, "negative")
        if e in neg:
            raise GraphError(f"duplicate negative edge ({e[0]}, {e[1]})")
        if e in pos:
            raise GraphError(f"edge ({e[0]}, {e[1]}) appears with both signs")
        neg.add(e)
    return SignedGraph(n, frozenset(pos), frozenset(neg))


def build_digraph_by_arcs(n, arcs):
    """The digraph constructor that tests each arc in turn, kept as the
    reference for the package's build_digraph."""
    if n < 0:
        raise ReductionError(f"vertex count {n} is negative")
    seen = set()
    for a, b in arcs:
        if not (1 <= a <= n and 1 <= b <= n):
            raise ReductionError(f"arc ({a}, {b}) out of range 1..{n}")
        if (a, b) in seen:
            raise ReductionError(f"duplicate arc ({a}, {b})")
        seen.add((a, b))
    return Digraph(n, tuple(arcs))


def read_mapping_by_lines(text, source=None):
    """The mapping reader that compares every content line, spacing
    normalized, with what `reduce --map` writes for the first section's
    source, kept as the reference for the package's byte-equal shortcut.
    Its section readers are the package's own.  A memory refusal of the
    source's rebuild is raised as it is, as read_mapping raises it."""
    lines = [(no, " ".join(tokens)) for no, tokens in _content_lines(text)]
    heads = [i for i, (_, line) in enumerate(lines) if line == "p" or line[:2] == "p "]
    if lines and heads[:1] != [0]:
        raise ParseError("content before the first 'p map' header", source, lines[0][0])
    sections = []
    for i, end in zip(heads, heads[1:] + [len(lines)]):
        no, tokens = lines[i][0], lines[i][1].split(" ")
        if len(tokens) != 3 or tokens[1] != "map":
            raise ParseError("expected 'p map <stage>' header", source, no)
        if tokens[2] not in _SOURCES:
            raise ParseError(f"unknown mapping stage {tokens[2]!r}", source, no)
        sections.append((tokens[2], no, lines[i + 1 : end]))
    stages = [stage for stage, _, _ in sections]
    if len(stages) != 1 and stages != ["sat2ss", "ss2adp", "adp2lce"]:
        why = "mapping file must hold one stage or the full sat2ss, ss2adp, adp2lce chain"
        raise ParseError(why, source, sections[-1][1] if sections else None)
    first, hdr_no, body = sections[0]
    stage = first if len(stages) == 1 else "sat2lce"
    try:
        instance = _SOURCES[first](body, source)
        reduced, mapping = stage_reductions()[stage].reduce(instance)
    except (ParseError, CapExceededError):
        raise
    except LineEmbedError as exc:
        raise ParseError(str(exc), source, hdr_no) from exc
    # None stands for the end of the mapping, so a short or long file differs.
    want = serialize_mapping(mapping).split("\n")[:-1] + [None]
    got = [line for _, line in lines] + [None]
    if got != want:
        i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        said = [repr(x) if x else "the end of the mapping" for x in (want[i], got[i])]
        no = lines[min(i, len(lines) - 1)][0]
        raise ParseError("expected {}, got {}".format(*said), source, no)
    return stage, instance, reduced, mapping


def parse_mapping(text: str, source: Optional[str] = None) -> AnyMapping:
    """The mapping of what `reduce --map` writes, checked as read_mapping
    checks it."""
    return read_mapping(text, source)[3]


# Brute-force solvers for the reduction chain's problems, at desk scale.
SPLITTER_CAP = 20
ADP_CAP = 20


def solve_setsplitting_bruteforce(
    sys: SetSystem, cap: int = SPLITTER_CAP
) -> Optional[SplitterSolution]:
    """First splitter in ascending bitmask order, or None."""
    n = sys.universe_size
    if n > cap:
        raise CapExceededError(f"universe size {n} exceeds cap {cap}")
    set_masks = [
        (sum(1 << (e - 1) for e in members), len(members))
        for members in sys.sets
    ]
    for mask in range(1 << n):
        ok = True
        for smask, size in set_masks:
            hit = (mask & smask).bit_count()
            if hit == 0 or hit == size:
                ok = False
                break
        if ok:
            return SplitterSolution(
                frozenset(v + 1 for v in range(n) if mask >> v & 1)
            )
    return None


def solve_adp_bruteforce(
    digraph: Digraph, cap: int = ADP_CAP
) -> Optional[Partition]:
    """Exhaustive backtracking over part assignments.

    Vertices are assigned in index order, part 1 tried first, and a branch
    is cut as soon as the partly-built part contains a directed cycle (the
    cycle persists in every completion, so nothing feasible is lost).  With
    part 1 preferred, an arcless digraph yields part1 = V.
    """
    n = digraph.n
    if n > cap:
        raise CapExceededError(f"n={n} exceeds cap {cap}")
    succ: list[list[int]] = [[] for _ in range(n + 1)]
    for a, b in digraph.arcs:
        succ[a].append(b)

    side = [0] * (n + 1)  # 0 unassigned, else 1 or 2

    def creates_cycle(v: int, p: int) -> bool:
        # Path from a successor of v back to v inside part p implies a cycle
        # through v among assigned vertices.
        stack = [w for w in succ[v] if side[w] == p or w == v]
        if v in stack:
            return True  # self-loop
        seen = set()
        while stack:
            w = stack.pop()
            if w == v:
                return True
            if w in seen:
                continue
            seen.add(w)
            stack.extend(x for x in succ[w] if side[x] == p or x == v)
        return False

    def assign(v: int) -> bool:
        if v > n:
            return True
        for p in (1, 2):
            if not creates_cycle(v, p):
                side[v] = p
                if assign(v + 1):
                    return True
                side[v] = 0
        return False

    if not assign(1):
        return None
    part1 = frozenset(v for v in range(1, n + 1) if side[v] == 1)
    return Partition(part1, frozenset(range(1, n + 1)) - part1)


# --- The full 2^n subset DP table --------------------------------------
#
# The reference solve_subset_dp's frontier is tested against: every subset
# of the vertices at once, layer by layer, with its own goodness masks and
# memory rule.


def _subset_universe(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(subsets sorted by popcount, layer boundaries) for size n."""
    counts = np.bitwise_count(np.arange(1 << n, dtype=np.int64)).astype(np.int64)
    by_count = np.argsort(counts, kind="stable").astype(np.int64)
    bounds = np.searchsorted(counts[by_count], np.arange(n + 2))
    return by_count, bounds


@dataclass(frozen=True)
class ReachabilityTable:
    """DP table over all subsets of vertices, indexed by bitmask.

    reachable[X] is True when some feasible prefix realizes exactly the set
    X; chosen[X] is then the smallest vertex that can be placed last in such
    a prefix (0 where undefined).
    """

    n: int
    reachable: np.ndarray
    chosen: np.ndarray


def _bad_extension_masks(g: SignedGraph) -> np.ndarray:
    """badmask[X] has bit v-1 set when v (not in X) is NOT good for X.

    Accumulated per witness vertex w over all subsets at once: a placed w
    (in X) with positive neighbours outside X blocks all its negative
    neighbours except the single outside neighbour case, which blocks all
    but that neighbour; an unplaced w with a positive neighbour inside X
    blocks all its negative neighbours.  Bits for v in X are meaningless.
    """
    n = g.n
    size = 1 << n
    subsets = np.arange(size, dtype=np.int64)
    bad = np.zeros(size, dtype=np.int64)
    zero = np.int64(0)
    verts = range(1, n + 1)
    pos = _local_masks(verts, Graph(n, g.pos).adj)
    neg = _local_masks(verts, Graph(n, g.neg).adj)
    for w in range(n):
        nw = np.int64(neg[w])
        if nw == 0:
            continue
        pw = np.int64(pos[w])
        w_in = (subsets & np.int64(1 << w)) != 0
        out_w = pw & ~subsets
        inside = (pw & subsets) != 0
        lone = (out_w != 0) & ((out_w & (out_w - 1)) == 0)
        spare = np.where(lone, out_w, zero)
        bad |= np.where(w_in & (out_w != 0), nw & ~spare, zero)
        bad |= np.where(~w_in & inside, nw, zero)
    return bad


def _table_bytes(n: int) -> int:
    """Predicted peak bytes of a table fill on n vertices.

    Measured with tracemalloc at n = 14..20, the fill peaks at 60 bytes per
    subset while the bad-extension masks are built, then at 26 per subset
    plus 25 per cell of the largest layer's C(n, n/2) x n matrices.
    """
    return 72 * (1 << n) + 32 * math.comb(n, n // 2) * n


def _check_table_fits(n: int) -> None:
    """Raise CapExceededError when the predicted fill exceeds memory."""
    need, have = _table_bytes(n), _available_bytes()
    if need > have:
        raise CapExceededError(
            f"n={n}: the subset DP table needs about {need / 2**20:,.0f} MB "
            f"of memory, more than the {have / 2**20:,.0f} MB available"
        )


def reachability_table(g: SignedGraph, cap: int = SUBSET_DP_CAP) -> ReachabilityTable:
    """Fill the subset DP table layer by layer (increasing popcount); raises
    CapExceededError when n exceeds cap or the fill would not fit in memory.

    The full 2^n table is the reference the frontier DP is tested against.
    """
    n = g.n
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the subset DP cap {cap}")
    _check_table_fits(n)
    size = 1 << n
    reachable = np.zeros(size, dtype=bool)
    reachable[0] = True
    chosen = np.zeros(size, dtype=np.int8)
    if n == 0:
        return ReachabilityTable(0, reachable, chosen)

    bad = _bad_extension_masks(g)
    by_count, bounds = _subset_universe(n)
    vbits = np.int64(1) << np.arange(n, dtype=np.int64)
    vindex = np.arange(n, dtype=np.int64)

    for k in range(1, n + 1):
        layer = by_count[bounds[k] : bounds[k + 1]]
        member = (layer[:, None] & vbits[None, :]) != 0
        preds = layer[:, None] ^ (layer[:, None] & vbits[None, :])
        ok = member & reachable[preds]
        ok &= ((bad[preds] >> vindex[None, :]) & 1) == 0
        any_ok = ok.any(axis=1)
        hit = layer[any_ok]
        reachable[hit] = True
        chosen[hit] = (ok.argmax(axis=1)[any_ok] + 1).astype(np.int8)
    return ReachabilityTable(n, reachable, chosen)


# --- Per-entry views of the package's solver and verifier results ---------


class MembershipError(LineEmbedError, ValueError):
    """A vertex was (or was not) in a set contrary to a precondition."""


def reversed_ordering(ordering):
    """The ordering read from right to left."""
    return Ordering(tuple(reversed(ordering.seq)))


def literal_of(element):
    """The literal that sat_to_setsplitting encodes as `element`: the inverse
    of SatToSsMapping.element_of."""
    var = (element + 1) // 2
    return var if element % 2 else -var


def is_good(g, v, chosen):
    """Can v be placed directly after the prefix set `chosen`?  Straight from
    the prefix characterization: (a) no placed negative neighbour of v keeps
    a positive neighbour outside chosen + {v}, and (b) no unplaced negative
    neighbour of v has a positive neighbour inside chosen.

    Raises MembershipError when v is already in the set; GraphError when v
    or a set member is outside 1..n.
    """
    chosen = list(chosen)
    for w in [v, *chosen]:
        if not 1 <= w <= g.n:
            raise GraphError(f"vertex {w} out of range 1..{g.n}")
    placed = set(chosen)
    if v in placed:
        raise MembershipError(f"vertex {v} is already in the chosen set")

    def nbrs(edges, u):
        return {a + b - u for a, b in edges if u in (a, b)}

    for w in nbrs(g.neg, v):
        if w in placed and nbrs(g.pos, w) - placed - {v}:
            return False
        if w not in placed and nbrs(g.pos, w) & placed:
            return False
    return True


def is_reachable(table, mask):
    """Does some feasible prefix realize exactly the vertex set `mask`?"""
    return bool(table.reachable[mask])


def chosen_vertex(table, mask):
    """The vertex the DP table places last for `mask` (0 where unreachable)."""
    return int(table.chosen[mask])


def table_ordering(table):
    """The full DP table's ordering, rebuilt backwards from the full set with
    the chosen (smallest eligible) vertex last each time; None when the full
    set is unreachable."""
    mask = (1 << table.n) - 1
    if not is_reachable(table, mask):
        return None
    seq = []
    while mask:
        seq.append(chosen_vertex(table, mask))
        mask ^= 1 << (seq[-1] - 1)
    return tuple(reversed(seq))


def verify_setsplitting(sys, x):
    """Every set must contain a chosen and a non-chosen element."""
    return unsplit_set_index(sys, x) is None


def verify_adp(digraph, part):
    """Both induced sub-digraphs must be acyclic."""
    return adp_violation(digraph, part) is None
