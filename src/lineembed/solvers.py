"""Exact feasibility solvers for arbitrary signed graphs.

Two routes: a lexicographic backtracking search over orderings (the small
oracle), and a subset dynamic program over prefix sets.  The DP rests on
the prefix characterization: an ordering is feasible iff each vertex v is
"good" for the set X of vertices placed before it, meaning

  (a) no already-placed negative neighbour of v keeps a positive neighbour
      outside X union {v}, and
  (b) no unplaced negative neighbour of v (other than v) has a positive
      neighbour inside X.

Both clauses only look at v's component of G+ union G-.  solve_subset_dp
therefore runs the DP per component, expanding only the reachable prefix
sets layer by layer (a frontier), and checks each layer's predicted memory
before it allocates.  On a connected graph with no witness (no vertex with
both positive and negative neighbours) every prefix set is reachable, so
the frontier spans all 2^n sets: run_bench times that O*(2^n) series on
negative paths.
"""

from __future__ import annotations

import heapq
import math
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import Graph, Ordering, SignedGraph, _available_bytes, _refuse_over
from .core import build_signed_graph
from .errors import CapExceededError

BRUTE_FORCE_CAP = 10
SUBSET_DP_CAP = 64


def _local_masks(verts: Sequence[int], adj: Sequence[Sequence[int]]) -> list[int]:
    """Neighbour masks local to verts: entry i has bit j set when verts[j]
    is a neighbour of verts[i] (adj: adjacency lists indexed by vertex)."""
    bit = {v: 1 << i for i, v in enumerate(verts)}
    return [sum(bit[w] for w in adj[v]) for v in verts]


# ---------------------------------------------------------------------------
# Backtracking search over orderings
# ---------------------------------------------------------------------------


def solve_bruteforce(g: SignedGraph, cap: int = BRUTE_FORCE_CAP) -> Optional[Ordering]:
    """Lexicographically first feasible ordering, or None.

    Depth-first over prefixes in ascending vertex order.  A prefix is
    abandoned as soon as its placed vertices contain a violating triple;
    relative order of placed vertices never changes afterwards, so this
    prunes exactly the extensions of infeasible prefixes and the first
    complete leaf is the lexicographic minimum.  extend() recurses once per
    vertex, so an n the recursion limit cannot reach raises CapExceededError.
    """
    n = g.n
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the brute-force cap {cap}")
    reach, frame = sys.getrecursionlimit() - 1, sys._getframe()
    while frame:  # twice per frame: one entered from C costs the limit two levels
        reach, frame = reach - 2, frame.f_back
    if n > reach:
        raise CapExceededError(f"n={n} exceeds the brute-force recursion reach {reach}")
    if n == 0:
        return Ordering(())
    pos_nbrs, neg_nbrs = Graph(n, g.pos).adj, Graph(n, g.neg).adj
    rank = [0] * (n + 1)  # 0 = unplaced
    neg_after = [0] * (n + 1)  # placed negative neighbours to the right
    seq: list[int] = []

    def extend() -> bool:
        k = len(seq) + 1
        for u in range(1, n + 1):
            if rank[u]:
                continue
            # Left pattern closing at u: a placed positive neighbour before
            # a placed negative neighbour.
            min_pos = n + 1
            for w in pos_nbrs[u]:
                r = rank[w]
                if r and r < min_pos:
                    min_pos = r
            skip = False
            for w in neg_nbrs[u]:
                if min_pos < rank[w]:
                    skip = True
                    break
            if skip:
                continue
            # Right pattern closing at u as the far positive endpoint.
            for w in pos_nbrs[u]:
                if rank[w] and neg_after[w]:
                    skip = True
                    break
            if skip:
                continue
            rank[u] = k
            seq.append(u)
            for w in neg_nbrs[u]:
                if rank[w] and rank[w] < k:
                    neg_after[w] += 1
            if k == n or extend():
                return True
            for w in neg_nbrs[u]:
                if rank[w] and rank[w] < k:
                    neg_after[w] -= 1
            seq.pop()
            rank[u] = 0
        return False

    return Ordering.from_seq(seq) if extend() else None


# ---------------------------------------------------------------------------
# Subset dynamic program
# ---------------------------------------------------------------------------


def _witnesses(pos: Sequence[int], neg: Sequence[int]) -> list[np.ndarray]:
    """[vertices, positive masks, negative masks] of the witnesses, as uint64
    arrays: the vertices with positive and negative neighbours, the only
    ones that can block another vertex."""
    wit = [w for w in range(len(pos)) if pos[w] and neg[w]]
    return [
        np.array(column, dtype=np.uint64)
        for column in (wit, [pos[w] for w in wit], [neg[w] for w in wit])
    ]


# Cells (frontier sets x witnesses or vertices) per chunk of the frontier's
# matrices: _frontier_bad_masks' blocks and _next_layer's candidates.
_CHUNK_CELLS = 1 << 15


def _frontier_bad_masks(
    sets: np.ndarray, wit: np.ndarray, pw: np.ndarray, nw: np.ndarray
) -> np.ndarray:
    """bad[j] has bit i set when local vertex i (not in sets[j]) is NOT good
    for sets[j]; bits of vertices in sets[j] are meaningless.

    A placed witness w with positive neighbours outside the set blocks its
    negative neighbours, except the outside one when there is just one; an
    unplaced w with a positive neighbour inside the set blocks them all.
    sets are uint64 local masks and wit, pw, nw come from _witnesses.  All
    witnesses are taken at once, one column each, over chunks of at most
    _CHUNK_CELLS sets x witnesses, so the matrices stay small however wide
    the frontier is.
    """
    bad = np.empty_like(sets)
    rows = max(1, _CHUNK_CELLS // max(1, len(wit)))
    for start in range(0, len(sets), rows):
        chunk = sets[start : start + rows, None]
        w_in = ((chunk >> wit) & np.uint64(1)) != 0
        out_w = pw & ~chunk
        spare = np.where((out_w & (out_w - np.uint64(1))) == 0, out_w, np.uint64(0))
        block = np.where(
            w_in,
            np.where(out_w != 0, nw & ~spare, np.uint64(0)),  # (a) w placed
            np.where(out_w != pw, nw, np.uint64(0)),  # (b) w unplaced
        )
        bad[start : start + rows] = np.bitwise_or.reduce(block, axis=1)
    return bad


# Peak bytes of one frontier step, an upper bound fitted to tracemalloc
# peaks on negative paths (n = 16..64), sparse random graphs and the dp-20
# benchmark instances: per frontier set (its free and bad masks), per set of
# the next layer (the layer and its copy while _next_layer merges into it),
# and per cell of the chunked matrices.  The next layer is bounded by the
# frontier x (size - k) candidate extensions and by C(size, k + 1).
_BYTES_PER_SET = 24
_BYTES_PER_NEXT_SET = 40
_BYTES_PER_CELL = 48
_SET_BITS = 64  # a component's prefix sets are uint64 masks
# Peak bytes per vertex of the lists built before the first layer, fitted
# like those above: tracemalloc read 1,283 and 1,299 per isolated vertex.
_BYTES_PER_VERTEX = 1300


def _step_bytes(frontier: int, witnesses: int, size: int, k: int) -> int:
    """Predicted peak bytes of extending `frontier` sets of k vertices in a
    component of `size` vertices, `witnesses` of them witnesses."""
    next_sets = min(frontier * (size - k), math.comb(size, k + 1))
    bad_cells = min(frontier * witnesses, _CHUNK_CELLS)
    candidate_cells = min(frontier * size, max(frontier, _CHUNK_CELLS))
    return (
        _BYTES_PER_SET * frontier
        + _BYTES_PER_NEXT_SET * next_sets
        + _BYTES_PER_CELL * (bad_cells + candidate_cells)
    )


def _next_layer(
    sets: np.ndarray, free: np.ndarray, bits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(sorted sets, last vertices) one vertex larger than the sorted
    frontier `sets`: every set S | {v} with v in free[S], kept with the
    smallest such v (bits[v] is v's bit).

    Vertices are taken in increasing order, as many at a time as keep the
    frontier x vertices candidates within _CHUNK_CELLS.  The first group's
    sets are the layer so far, and each later group's new sets are merged
    into it; a set already there came from a smaller vertex and keeps it.
    So a narrow frontier is extended in one step with no merge, and a wide
    one never holds all its candidate extensions at once.
    """
    step = max(1, _CHUNK_CELLS // len(sets))
    for low in range(0, len(bits), step):
        group = bits[low : low + step]
        # Listed vertex by vertex, so np.unique's first occurrence of each
        # set is its smallest last vertex.
        v, row = np.nonzero(((free[:, None] & group) != 0).T)
        grown, first = np.unique(sets[row] | group[v], return_index=True)
        got = (v[first] + low).astype(np.uint8)
        if low == 0:
            new, last = grown, got
            continue
        at = np.searchsorted(new, grown)
        fresh = new[np.minimum(at, len(new) - 1)] != grown if len(new) else slice(None)
        new = np.insert(new, at[fresh], grown[fresh])
        last = np.insert(last, at[fresh], got[fresh])
    return new, last


def _components(n: int, adj: Sequence[Sequence[int]]) -> list[list[int]]:
    """Vertex lists of the graph's components, each sorted, ordered by their
    smallest vertex."""
    comp_of = [0] * (n + 1)
    comps: list[list[int]] = []
    for root in range(1, n + 1):
        if comp_of[root]:
            continue
        comps.append([root])
        comp_of[root] = len(comps)
        for u in comps[-1]:  # grows while it is walked: a breadth-first search
            for w in adj[u]:
                if not comp_of[w]:
                    comp_of[w] = len(comps)
                    comps[-1].append(w)
    return [sorted(c) for c in comps]


def _frontier_layers(
    pos: Sequence[int], neg: Sequence[int], held: int, have: int
) -> Optional[list[tuple[np.ndarray, np.ndarray]]]:
    """The reachable prefix sets of one component, layer by layer, or None
    when its full set is unreachable.

    pos and neg are the component's local neighbour masks (bit i for its
    i-th vertex), and sets are uint64 masks in the same bits, so a component
    of more than 64 vertices raises CapExceededError.  Layer k is (sets,
    last): the sorted reachable sets of k vertices, and for each the
    smallest local vertex that can be placed last.  Before each step
    allocates, its predicted peak plus the bytes held by its own layers and
    the `held` bytes of earlier components' layers is checked against `have`.
    """
    size = len(pos)
    if size > _SET_BITS:
        raise CapExceededError(
            f"a {size}-vertex component exceeds the subset DP's "
            f"{_SET_BITS}-vertex limit per component"
        )
    full = np.uint64((1 << size) - 1)
    bits = np.uint64(1) << np.arange(size, dtype=np.uint64)
    witnesses = _witnesses(pos, neg)
    sets = np.zeros(1, dtype=np.uint64)
    layers = [(sets, np.zeros(1, dtype=np.uint8))]
    for k in range(size):
        held += sum(a.nbytes for a in layers[-1])
        need = held + _step_bytes(len(sets), len(witnesses[0]), size, k)
        _refuse_over(need, f"a {size}-vertex component: subset DP layer {k + 1}", have)
        free = full & ~sets & ~_frontier_bad_masks(sets, *witnesses)
        sets, last = _next_layer(sets, free, bits)
        if len(sets) == 0:
            return None
        layers.append((sets, last))
    return layers


def solve_subset_dp(g: SignedGraph, cap: int = SUBSET_DP_CAP) -> Optional[Ordering]:
    """Feasible ordering via the subset DP, or None.

    Whether v is good for a prefix X depends only on X's part in v's
    component of G+ union G-, so X is reachable exactly when each of its
    parts is reachable within its component.  Each component's reachable
    sets are expanded layer by layer from the empty set (a frontier DP), so
    the work follows the reachable sets rather than all 2^n.

    The ordering is rebuilt backwards: at every step the smallest vertex
    that any component can place last goes last, a merge of the components'
    placement orders, as each depends on its own prefix set alone.  That is
    the "smallest eligible vertex last" rule of a full 2^n table, so the
    ordering is the one the test suite's reference table gives.  The result
    is not re-verified here; callers that print it check it first.
    """
    n = g.n
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the subset DP cap {cap}")
    have = _available_bytes()
    _refuse_over(_BYTES_PER_VERTEX * n, f"the subset DP on {n} vertices", have)
    pos_adj, neg_adj = Graph(n, g.pos).adj, Graph(n, g.neg).adj
    comps = _components(n, Graph(n, g.pos | g.neg).adj)
    tables: list[list[tuple[np.ndarray, np.ndarray]]] = []
    held = 0  # bytes of the layers in tables
    for verts in comps:
        layers = _frontier_layers(
            _local_masks(verts, pos_adj), _local_masks(verts, neg_adj), held, have
        )
        if layers is None:
            return None
        tables.append(layers)
        held += sum(a.nbytes for layer in layers for a in layer)

    def placements(verts: list[int], layers) -> Iterator[int]:
        """The vertices one component places last, from its full set down."""
        mask = (1 << len(verts)) - 1
        while mask:
            sets, last = layers[mask.bit_count()]
            i = int(last[np.searchsorted(sets, np.uint64(mask))])
            yield verts[i]
            mask ^= 1 << i

    seq_rev = heapq.merge(*map(placements, comps, tables))
    return Ordering.from_seq(reversed(list(seq_rev)))


@dataclass(frozen=True)
class BenchReport:
    sizes: tuple[int, ...]
    per_size_seconds: tuple[tuple[float, ...], ...]

    def median_seconds(self) -> tuple[float, ...]:
        return tuple(statistics.median(times) for times in self.per_size_seconds)

    def doubling_ratios(self) -> tuple[float, ...]:
        """Median-time ratio for each consecutive pair of sizes."""
        medians = self.median_seconds()
        return tuple(
            medians[i + 1] / medians[i]
            for i in range(len(medians) - 1)
            if self.sizes[i + 1] == self.sizes[i] + 1
        )

    def ratio_median(self) -> float:
        ratios = self.doubling_ratios()
        if not ratios:
            raise ValueError("need at least two consecutive sizes")
        return statistics.median(ratios)


def bench_instance(n: int) -> SignedGraph:
    """The bench instance of size n: the path 1-2-...-n of negative edges.
    It is connected and has no witness, so every prefix set is reachable.
    Without a witness the DP never reads the edges, so every connected
    witness-free graph on n vertices costs the same."""
    return build_signed_graph(n, [], [(v, v + 1) for v in range(1, n)])


def run_bench(sizes: tuple[int, ...], per_size: int) -> BenchReport:
    """Time solve_subset_dp per_size times on the bench instance of each size.

    The frontier DP visits all 2^n prefix sets of a bench instance, so its
    time grows by about 2 per added vertex: this is the O*(2^n) series whose
    doubling ratio is checked.  The instance has no witness, so the goodness
    rule has nothing to test and is not timed; a graph with witnesses
    reaches fewer sets but may cost more per set.
    """
    all_times = []
    for n in sizes:
        g = bench_instance(n)
        times = []
        for _ in range(per_size):
            start = time.perf_counter()
            solve_subset_dp(g)
            times.append(time.perf_counter() - start)
        all_times.append(tuple(times))
    return BenchReport(tuple(sizes), tuple(all_times))
