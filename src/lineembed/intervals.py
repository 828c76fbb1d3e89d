"""Proper interval models and the complete-graph solver.

A complete signed graph has a feasible line embedding exactly when its
positive part admits a proper interval model, equivalently an umbrella
ordering: whenever u comes before v and uv is a positive edge, every vertex
between them is adjacent to both.  This module recognizes that structure,
converts feasible orderings to exact rational interval models, and solves
complete instances through the recognition route.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import (
    Graph,
    Ordering,
    SignedGraph,
    Violation,
    _check_covers,
    is_complete,
    positive_part,
    verify_embedding,
)
from .errors import (
    InfeasibleOrderingError,
    ModelError,
    NotCompleteError,
)

Interval = tuple[Fraction, Fraction]


def neighborhood_extremes(gp: Graph, ordering: Ordering) -> dict[int, int]:
    """last[v]: the latest vertex of N[v] (closed neighbourhood) under the
    given ordering."""
    _check_covers(ordering, gp.n)
    pos = ordering.position
    return {
        v: max(gp.adj[v] + (v,), key=pos.__getitem__) for v in range(1, gp.n + 1)
    }


@dataclass(frozen=True)
class IntervalModel:
    """Closed intervals with exact rational endpoints, one per vertex 1..n."""

    intervals: dict[int, Interval]

    @property
    def n(self) -> int:
        return len(self.intervals)

    @cached_property
    def ranks(self) -> dict[int, tuple[int, int]]:
        """Vertex -> the ranks of its endpoints among all 2n, equal ones
        sharing a rank, so endpoints compare as their ranks do.  They are
        sorted once, exactly: by integer part, then by the float of the
        fractional part (correctly rounded, so it never reverses two
        values), then on ties by the Fractions."""
        ends = [x for pair in self.intervals.values() for x in pair]
        keys = [(*divmod(x.numerator, x.denominator), x) for x in ends]
        keys = [(whole, part / x.denominator, x) for whole, part, x in keys]
        rank, r, last = [0] * len(keys), -1, None
        for i in sorted(range(len(keys)), key=keys.__getitem__):
            r += keys[i] != last
            rank[i], last = r, keys[i]
        return dict(zip(self.intervals, zip(rank[::2], rank[1::2])))

    def validate(self) -> None:
        """Raise ModelError unless the model is structurally sound:
        vertices are 1..n, interiors are nonempty, all 2n endpoints are
        pairwise distinct, and no interval contains another.  A model that
        passed once is not checked again."""
        self._sound

    @cached_property
    def _sound(self) -> bool:
        """The checks of validate(), on the endpoints' ranks."""
        n = self.n
        if sorted(self.intervals) != list(range(1, n + 1)):
            raise ModelError("interval keys are not exactly 1..n")
        for v, (lo, hi) in self.ranks.items():
            if not lo < hi:
                raise ModelError(f"interval of vertex {v} has empty interior")
        if len({r for pair in self.ranks.values() for r in pair}) != 2 * n:
            raise ModelError("interval endpoints are not pairwise distinct")
        by_left = sorted(self.ranks.values())
        for (_, r1), (_, r2) in zip(by_left, by_left[1:]):
            if r2 < r1:
                raise ModelError("one interval properly contains another")
        return True


def model_intersection_graph(model: IntervalModel) -> Graph:
    """Intersection graph of the closed intervals: by left end, each
    interval meets the later ones whose left end is not past its right end.
    Runs on the endpoints' ranks."""
    ranks = model.ranks
    order = sorted(ranks, key=ranks.__getitem__)
    lefts = [ranks[v][0] for v in order]
    edges = set()
    for i, u in enumerate(order):
        for v in order[i + 1 : bisect_right(lefts, ranks[u][1])]:
            edges.add((u, v) if u < v else (v, u))
    return Graph(model.n, frozenset(edges))


def ordering_to_model(g: SignedGraph, ordering: Ordering) -> IntervalModel:
    """Exact interval model realizing a feasible ordering of a complete graph.

    Vertex v gets [pi(v), pi(v_last) + pi(v)/(n+1)] where v_last is the
    latest vertex of its closed positive neighbourhood; all arithmetic is
    over Fractions with denominator n+1, never floats.  Raises
    NotCompleteError on an incomplete graph and InfeasibleOrderingError,
    carrying the first violation, on an infeasible ordering.
    """
    gp = _complete_positive_part(g)
    vio = ordering_violation(g, ordering)
    if vio is not None:
        raise InfeasibleOrderingError(f"ordering is not a feasible embedding: {vio}", vio)
    last = neighborhood_extremes(gp, ordering)
    pos = ordering.position
    den = g.n + 1
    intervals = {
        v: (Fraction(pos[v]), Fraction(pos[last[v]] * den + pos[v], den))
        for v in range(1, g.n + 1)
    }
    return IntervalModel(intervals)


def ordering_violation(g: SignedGraph, ordering: Ordering) -> Violation | None:
    """verify_embedding(g, ordering).violation.  A complete graph's ordering
    is decided by the umbrella test on its positive part, so verify_embedding
    runs there only to name the violation of an infeasible one."""
    if is_complete(g) and is_umbrella_ordering(positive_part(g), ordering):
        return None
    return verify_embedding(g, ordering).violation


def _complete_positive_part(g: SignedGraph) -> Graph:
    """positive_part(g), or NotCompleteError when some pair carries no sign."""
    if not is_complete(g):
        raise NotCompleteError(
            f"graph has {g.m_pos + g.m_neg} signed pairs, "
            f"needs {g.n * (g.n - 1) // 2}"
        )
    return positive_part(g)


# ---------------------------------------------------------------------------
# Proper interval recognition (3-sweep lexicographic BFS)
# ---------------------------------------------------------------------------


def _lbfs(adj: tuple[tuple[int, ...], ...], n: int, prior: list[int]) -> list[int]:
    """One lexicographic BFS sweep, by partition refinement on one array
    (Habib, McConnell, Paul and Viennot, "Lex-BFS and partition refinement").

    order[i] is the vertex at position i, at[v] the position of v and
    cell[v] its cell.  The unvisited positions form consecutive cells, cell
    c spanning [start[c], end[c]).  Visiting v swaps each unvisited
    neighbour to the front of what is left of its cell, where it joins a
    new cell just ahead of that remainder.  The next pivot is the vertex of
    the first cell with the largest `prior` value, so passing ranks from a
    previous sweep yields the classic plus-variant.
    """
    order = list(range(1, n + 1))
    at = [0, *range(n)]
    cell = [0] * (n + 1)
    start, end = [0], [n]
    for i in range(n):
        c = cell[order[i]]
        v = max(order[i : end[c]], key=prior.__getitem__)
        order[at[v]], at[order[i]] = order[i], at[v]
        order[i], at[v] = v, i
        start[c] = i + 1
        split: dict[int, int] = {}  # cell -> its new front cell, for this v
        for w in adj[v]:
            p = at[w]
            if p > i:
                c = cell[w]
                if c not in split:
                    split[c] = len(start)
                    start.append(start[c])
                    end.append(start[c])
                q = start[c]
                order[p], at[order[q]] = order[q], p
                order[q], at[w] = w, q
                start[c] = end[split[c]] = q + 1
                cell[w] = split[c]
    return order


def is_umbrella_ordering(gp: Graph, ordering: Ordering) -> bool:
    """Closed-neighbourhood consecutiveness check, O(n + m).

    Equivalent to the edge-between predicate: with distinct ranks, N[v] is
    consecutive for every v iff every vertex between the endpoints of an
    edge is adjacent to both.
    """
    _check_covers(ordering, gp.n)
    pos = ordering.position
    for v in range(1, gp.n + 1):
        ranks = [pos[w] for w in gp.adj[v]]
        ranks.append(pos[v])
        if max(ranks) - min(ranks) + 1 != len(ranks):
            return False
    return True


def recognize_proper_interval(gp: Graph) -> Ordering | None:
    """Umbrella ordering of gp, or None if it is not a proper interval graph.

    Three lexicographic BFS sweeps, each breaking ties toward the vertex
    latest in the previous sweep; the final sweep order is an umbrella
    ordering iff the graph is proper interval, and is always validated with
    is_umbrella_ordering before being returned.  Components come out
    consecutively, each umbrella-ordered.
    """
    n, adj = gp.n, gp.adj
    prior = list(range(n + 1))  # first sweep: ties toward larger id
    order = _lbfs(adj, n, prior)
    for _ in range(2):
        for i, v in enumerate(order):
            prior[v] = i
        order = _lbfs(adj, n, prior)
    candidate = Ordering.from_seq(order)
    return candidate if is_umbrella_ordering(gp, candidate) else None


def solve_complete(g: SignedGraph) -> Ordering | None:
    """Feasible embedding of a complete signed graph, or None.

    Route: recognize a proper interval structure on the positive part and
    use its umbrella ordering directly.  Raises NotCompleteError when some
    pair carries no sign.  The returned ordering is not re-verified here;
    callers that print it check it first.
    """
    return recognize_proper_interval(_complete_positive_part(g))
