"""Exact feasibility solvers for arbitrary signed graphs.

Two routes: a lexicographic backtracking search over orderings (the small
oracle), and a subset dynamic program over 2^n prefix sets.  The DP rests on
the prefix characterization: an ordering is feasible iff each vertex v is
"good" for the set X of vertices placed before it, meaning

  (a) no already-placed negative neighbour of v keeps a positive neighbour
      outside X union {v}, and
  (b) no unplaced negative neighbour of v (other than v) has a positive
      neighbour inside X.
"""

from __future__ import annotations

import math
import os
import resource
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import Edge, Graph, Ordering, SignedGraph
from .errors import CapExceededError

BRUTE_FORCE_CAP = 10
SUBSET_DP_CAP = 64


@lru_cache(maxsize=1)
def _subset_universe(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(all subsets, subsets sorted by popcount, layer boundaries) for size n.

    Graph-independent and cached for the last n only, so at most one 2^n
    universe outlives a solve; entries are read-only.
    """
    subsets = np.arange(1 << n, dtype=np.int64)
    counts = np.bitwise_count(subsets).astype(np.int64)
    by_count = np.argsort(counts, kind="stable").astype(np.int64)
    bounds = np.searchsorted(counts[by_count], np.arange(n + 2))
    return subsets, by_count, bounds


def _masks(n: int, edges: frozenset[Edge]) -> tuple[int, ...]:
    """Per-vertex bitmask of neighbours (bit w-1), index 0 unused."""
    masks = [0] * (n + 1)
    for u, v in edges:
        masks[u] |= 1 << (v - 1)
        masks[v] |= 1 << (u - 1)
    return tuple(masks)


# ---------------------------------------------------------------------------
# Backtracking search over orderings
# ---------------------------------------------------------------------------


def solve_bruteforce(g: SignedGraph, cap: int = BRUTE_FORCE_CAP) -> Optional[Ordering]:
    """Lexicographically first feasible ordering, or None.

    Depth-first over prefixes in ascending vertex order.  A prefix is
    abandoned as soon as its placed vertices contain a violating triple;
    relative order of placed vertices never changes afterwards, so this
    prunes exactly the extensions of infeasible prefixes and the first
    complete leaf is the lexicographic minimum.
    """
    n = g.n
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the brute-force cap {cap}")
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

    if extend():
        return Ordering.from_seq(seq)
    return None


# ---------------------------------------------------------------------------
# Subset dynamic program
# ---------------------------------------------------------------------------


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
    subsets = _subset_universe(n)[0]
    bad = np.zeros(size, dtype=np.int64)
    zero = np.int64(0)
    pos, neg = _masks(n, g.pos), _masks(n, g.neg)
    for w in range(1, n + 1):
        nw = np.int64(neg[w])
        if nw == 0:
            continue
        pw = np.int64(pos[w])
        w_in = (subsets & np.int64(1 << (w - 1))) != 0
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
    """Raise CapExceededError when the predicted fill exceeds memory: the
    smaller of physical memory and the address-space soft limit."""
    need = _table_bytes(n)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    if soft != resource.RLIM_INFINITY:
        have = min(have, soft)
    if need > have:
        raise CapExceededError(
            f"n={n}: the subset DP table needs about {need / 2**20:,.0f} MB "
            f"of memory, more than the {have / 2**20:,.0f} MB available"
        )


def reachability_table(g: SignedGraph, cap: int = SUBSET_DP_CAP) -> ReachabilityTable:
    """Fill the subset DP table layer by layer (increasing popcount); raises
    CapExceededError when n exceeds cap or the fill would not fit in memory."""
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
    _, by_count, bounds = _subset_universe(n)
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


def solve_subset_dp(g: SignedGraph, cap: int = SUBSET_DP_CAP) -> Optional[Ordering]:
    """Feasible ordering via the subset DP, or None.

    The ordering is reconstructed backwards through chosen[], so at every
    step the smallest eligible vertex is placed last.  The result is not
    re-verified here; callers that print it check it first.
    """
    table = reachability_table(g, cap)
    n = g.n
    full = (1 << n) - 1
    if not table.reachable[full]:
        return None
    seq_rev: list[int] = []
    mask = full
    while mask:
        v = int(table.chosen[mask])
        seq_rev.append(v)
        mask ^= 1 << (v - 1)
    return Ordering.from_seq(reversed(seq_rev))
