"""Signed graphs, line-embedding verification, and the memory rule.

A signed graph has vertices 1..n and two disjoint sets of unordered edges,
positive and negative.  An ordering pi of the vertices is a feasible line
embedding when for no vertex u there are neighbours u1, u2 with

    u1 <pi u2 <pi u,  u1u positive,  u2u negative,

nor the mirrored pattern u1 >pi u2 >pi u.  Equivalently: walking away from
any vertex in either direction, its positive neighbours are never separated
from it by one of its negative neighbours.
"""

from __future__ import annotations

import os
import resource
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, Iterator, NoReturn, Optional, Sequence

import numpy as np

from .errors import CapExceededError, GraphError, OrderingError

Edge = tuple[int, int]


def _checked_pair(u: int, v: int, n: int, sign: str) -> NoReturn:
    if not (1 <= u <= n and 1 <= v <= n):
        raise GraphError(f"{sign} edge ({u}, {v}) out of range 1..{n}")
    raise GraphError(f"{sign} edge ({u}, {v}) is a loop")


@dataclass(frozen=True)
class Graph:
    """Plain undirected simple graph on vertices 1..n."""

    n: int
    edges: frozenset[Edge]

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Sorted adjacency lists, index 0 unused."""
        nbrs: list[list[int]] = [[] for _ in range(self.n + 1)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(b)) for b in nbrs)


class SignedGraph:
    """Signed graph: disjoint positive and negative edge sets on 1..n.

    Each edge is held once as (u, v) with u < v, in one of three forms:
    frozensets `pos`/`neg` (build_signed_graph); (m, 2) int64 arrays
    `pos_array`/`neg_array` (the parser and the ADP gadget); or, for a
    complete graph, the frozenset `pos` alone, G- being its complement
    (gen_planted_complete).  The other attributes are views built on first
    read: the complement form's `neg` in pure Python, its `neg_array` with
    numpy, rows ascending, with no per-pair tuple.  Equality and hashing
    compare n and the edge sets, whichever form built them.  m_pos and m_neg
    are the edge counts.  Construct through build_signed_graph, which
    validates ranges, loops, duplicates and sign overlap, unless the pairs
    are valid by construction.
    """

    def __init__(self, n: int, pos, neg=None) -> None:
        """pos and neg: both validated frozensets or both validated arrays;
        or pos a validated frozenset and neg None for the complement form."""
        self.n, self.m_pos = n, len(pos)
        self.m_neg = n * (n - 1) // 2 - len(pos) if neg is None else len(neg)
        if isinstance(pos, np.ndarray):
            self.pos_array, self.neg_array = pos, neg
        else:
            self.pos = pos
            if neg is not None:
                self.neg = neg

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedGraph):
            return NotImplemented
        return (self.n, self.pos, self.neg) == (other.n, other.pos, other.neg)

    def __hash__(self) -> int:
        return hash((self.n, self.pos, self.neg))

    def __repr__(self) -> str:
        return f"SignedGraph(n={self.n!r}, pos={self.pos!r}, neg={self.neg!r})"

    @cached_property
    def pos(self) -> frozenset[Edge]:
        return frozenset(zip(*self.pos_array.T.tolist()))

    @cached_property
    def neg(self) -> frozenset[Edge]:
        if "neg_array" not in vars(self):  # the complement form
            return frozenset(combinations(range(1, self.n + 1), 2)).difference(self.pos)
        return frozenset(zip(*self.neg_array.T.tolist()))

    @cached_property
    def pos_array(self) -> np.ndarray:
        """Positive edges as an (m, 2) int64 array, rows (u, v) with u < v,
        in no particular order."""
        return np.fromiter(chain.from_iterable(self.pos), np.int64).reshape(-1, 2)

    @cached_property
    def neg_array(self) -> np.ndarray:
        if "neg" not in vars(self):  # the complement form
            return _complement_pairs(self.n, self.pos_array)
        return np.fromiter(chain.from_iterable(self.neg), np.int64).reshape(-1, 2)


def _complement_pairs(n: int, pairs: np.ndarray) -> np.ndarray:
    """The pairs (u, v), 1 <= u < v <= n, not among the (m, 2) array's rows
    (each with u < v), as an int64 array in ascending (u, v) order."""
    keep = np.triu(np.ones((n + 1, n + 1), bool), 1)
    keep[0] = False
    keep[pairs[:, 0], pairs[:, 1]] = False
    return np.argwhere(keep).astype(np.int64, copy=False)


def build_signed_graph(
    n: int,
    positive: Iterable[tuple[int, int]],
    negative: Iterable[tuple[int, int]],
) -> SignedGraph:
    """Validate and build a signed graph, stored as edge sets.  A plain tuple
    (u, v) with u < v is stored as given, any other pair as a new one.

    Raises GraphError on endpoints outside 1..n, loops, duplicated pairs
    within one sign, or a pair carrying both signs.
    """
    if n < 0:
        raise GraphError(f"vertex count {n} is negative")
    # The range and loop tests run inline; _checked_pair names the offender.
    pos: set[Edge] = set()
    neg: set[Edge] = set()
    signs = (("positive", positive, pos, ()), ("negative", negative, neg, pos))
    for sign, pairs, edges, other in signs:
        for pair in pairs:
            u, v = pair
            e = (pair if type(pair) is tuple else (u, v)) if u < v else (v, u)
            if not 1 <= e[0] < e[1] <= n:
                _checked_pair(u, v, n, sign)
            if e in edges:
                raise GraphError(f"duplicate {sign} edge ({e[0]}, {e[1]})")
            if e in other:
                raise GraphError(f"edge ({e[0]}, {e[1]}) appears with both signs")
            edges.add(e)
    return SignedGraph(n, frozenset(pos), frozenset(neg))


def _build_from_arrays(n: int, pos: np.ndarray, neg: np.ndarray) -> SignedGraph:
    """build_signed_graph for (m, 2) endpoint arrays, rows in input order,
    stored as arrays.

    Both signs' rows, as (min, max), fill one array whose two parts the
    graph keeps.  Range and loops are tested by comparison; repeated pairs
    and pairs with both signs by sorting the keys u*(n+1)+v of both signs
    together.  When a test fails, or the arrays are not int64 (a number too
    large for one), or n is too large for the keys, build_signed_graph runs
    on the same pairs in the same order, so the outcome and any error text
    are its own.
    """
    if 0 <= n < 2**31 and pos.dtype == neg.dtype == np.int64:
        rows = np.empty((len(pos) + len(neg), 2), np.int64)
        lo, hi = rows.T
        for a, at in ((pos, slice(len(pos))), (neg, slice(len(pos), None))):
            np.minimum(a[:, 0], a[:, 1], out=lo[at])
            np.maximum(a[:, 0], a[:, 1], out=hi[at])
        if lo.min(initial=1) >= 1 and (lo < hi).all() and hi.max(initial=n) <= n:
            keys = lo * (n + 1)
            keys += hi
            keys.sort()
            if not (keys[1:] == keys[:-1]).any():
                return SignedGraph(n, rows[: len(pos)], rows[len(pos) :])
    return build_signed_graph(n, pos.tolist(), neg.tolist())


def _pair_array(pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """Pairs as an (m, 2) int64 array, or as an object array when a number
    does not fit an int64, so that _build_from_arrays keeps it exact."""
    try:
        return np.fromiter(chain.from_iterable(pairs), np.int64).reshape(-1, 2)
    except OverflowError:
        return np.array(pairs, object).reshape(-1, 2)


def is_complete(g: SignedGraph) -> bool:
    """True when every vertex pair carries exactly one sign."""
    return g.m_pos + g.m_neg == g.n * (g.n - 1) // 2


def positive_part(g: SignedGraph) -> Graph:
    """The undirected graph formed by the positive edges alone."""
    return Graph(g.n, g.pos)


# ---------------------------------------------------------------------------
# Orderings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ordering:
    """A total order of 1..n, stored as the sequence of vertices by rank."""

    seq: tuple[int, ...]

    @staticmethod
    def from_seq(vertices: Iterable[int]) -> "Ordering":
        seq = tuple(vertices)
        n = len(seq)
        if sorted(seq) != list(range(1, n + 1)):
            seen = set()
            for v in seq:  # one offender: a gadget's ordering runs to 10^5 vertices
                if v in seen or v not in range(1, n + 1):
                    how = "repeats" if v in seen else f"lies outside 1..{n}"
                    raise OrderingError(
                        f"a sequence of {n} vertices is not a permutation: "
                        f"vertex {v} {how}"
                    )
                seen.add(v)
        return Ordering(seq)

    @cached_property
    def position(self) -> dict[int, int]:
        """Vertex -> rank, ranks 1..n."""
        return {v: i + 1 for i, v in enumerate(self.seq)}

    def __len__(self) -> int:
        return len(self.seq)

    def __iter__(self) -> Iterator[int]:
        return iter(self.seq)


def _check_covers(ordering: Ordering, n: int) -> None:
    """Raise OrderingError unless the ordering has n vertices."""
    if len(ordering) != n:
        raise OrderingError(f"ordering covers {len(ordering)} vertices, graph has {n}")


@dataclass(frozen=True)
class Violation:
    """Witness triple: u1 <pi u2 <pi u on side 'left' (mirrored on 'right'),
    with u1u positive and u2u negative."""

    u1: int
    u2: int
    u: int
    side: str  # "left" or "right"


@dataclass(frozen=True)
class VerificationResult:
    violation: Optional[Violation] = None

    @property
    def valid(self) -> bool:
        return self.violation is None

    def __bool__(self) -> bool:
        return self.valid


VALID = VerificationResult()


def verify_embedding(g: SignedGraph, ordering: Ordering) -> VerificationResult:
    """Check the two embedding conditions for every vertex.

    Decision runs in O(n + m) array passes: a violation on the left of u
    exists iff some positive neighbour of u sits strictly left of some
    negative neighbour of u, both left of u, i.e. iff
    min rank(positive left nbr) < max rank(negative left nbr); mirrored on
    the right.  On failure, returns the first violation ordered by vertex u,
    then side (left before right), then u2, then u1.  Neither the verdict
    nor that witness depends on the order of the rows in pos_array and
    neg_array: the per-vertex extremes are order-free reductions, and the
    witness is searched in the sorted adjacency lists.
    """
    _check_covers(ordering, g.n)
    n = g.n
    if n == 0:
        return VALID

    rank = np.zeros(n + 1, dtype=np.int64)  # rank[v] of v, index 0 unused
    rank[list(ordering.seq)] = np.arange(1, n + 1)
    hi = np.int64(n + 1)

    def _side_extremes(arr: np.ndarray, far: bool) -> tuple[np.ndarray, np.ndarray]:
        # For each vertex, the rank of its farthest (far=True) or nearest
        # (far=False) neighbour in arr on its left, and likewise on its right.
        centers = np.concatenate([arr[:, 0], arr[:, 1]])
        o_rank = rank[np.concatenate([arr[:, 1], arr[:, 0]])]
        left = o_rank < rank[centers]
        ops = (np.minimum, np.maximum) if far else (np.maximum, np.minimum)
        left_ext = np.full(n + 1, hi if far else 0, dtype=np.int64)
        right_ext = np.full(n + 1, 0 if far else hi, dtype=np.int64)
        ops[0].at(left_ext, centers[left], o_rank[left])
        ops[1].at(right_ext, centers[~left], o_rank[~left])
        return left_ext, right_ext

    min_pos_left, max_pos_right = _side_extremes(g.pos_array, far=True)
    max_neg_left, min_neg_right = _side_extremes(g.neg_array, far=False)

    left_bad = min_pos_left < max_neg_left
    right_bad = max_pos_right > min_neg_right
    bad = left_bad | right_bad
    bad[0] = False
    if not bad.any():
        return VALID

    u = int(np.argmax(bad))
    side = "left" if left_bad[u] else "right"
    return VerificationResult(_first_violation(g, rank, u, side))


def _first_violation(
    g: SignedGraph, rank: np.ndarray, u: int, side: str
) -> Violation:
    """Smallest u2 then u1 (by vertex id) witnessing u's violation.  u's
    neighbours are read off the edge arrays, so no edge set is built."""
    ru = rank[u]
    pos_nbrs, neg_nbrs = (
        sorted(a[a[:, 0] == u, 1].tolist() + a[a[:, 1] == u, 0].tolist())
        for a in (g.pos_array, g.neg_array)
    )
    if side == "left":
        best_pos = min(rank[w] for w in pos_nbrs if rank[w] < ru)
        u2 = next(w for w in neg_nbrs if best_pos < rank[w] < ru)
        u1 = next(w for w in pos_nbrs if rank[w] < rank[u2])
    else:
        best_pos = max(rank[w] for w in pos_nbrs if rank[w] > ru)
        u2 = next(w for w in neg_nbrs if ru < rank[w] < best_pos)
        u1 = next(w for w in pos_nbrs if rank[w] > rank[u2])
    return Violation(u1=int(u1), u2=int(u2), u=u, side=side)


def _available_bytes() -> int:
    """The smaller of MemAvailable (physical memory where /proc/meminfo
    cannot be read) and the address-space soft limit less the address space
    the process already holds (/proc/self/statm, where it can be read)."""
    try:
        with open("/proc/meminfo") as info:
            fields = dict(line.split(":", 1) for line in info)
        have = int(fields["MemAvailable"].split()[0]) * 1024
    except (OSError, KeyError, ValueError):
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    if soft != resource.RLIM_INFINITY:
        with suppress(OSError, ValueError), open("/proc/self/statm") as statm:
            soft -= int(statm.read().partition(" ")[0]) * os.sysconf("SC_PAGE_SIZE")
        have = min(have, max(soft, 0))
    return have


def _refuse_over(need: int, what: str, have: Optional[int] = None) -> None:
    """Raise CapExceededError, the one memory refusal of the subset DP and
    every reduction, when `need` bytes exceed `have` (_available_bytes())."""
    have = _available_bytes() if have is None else have
    if need > have:
        raise CapExceededError(
            f"{what} needs about {need / 2**20:,.0f} MB of memory, more than the "
            f"{have / 2**20:,.0f} MB available"
        )
