"""Output checks written from the definitions, apart from lineembed's code.

Nothing here imports lineembed: every output of the CLI is judged either by
a computation made here or by a property the method must have, never by a
stored copy of an earlier output.  Edge lists are flat integer sequences
u1, v1, u2, v2, ...
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from typing import Optional, Sequence

# Complete signed graphs on four vertices that have no feasible ordering, as
# (positive pairs, negative pairs).  Both make any graph that holds them as
# an induced subgraph infeasible, because restricting a feasible ordering to
# an induced subgraph keeps it feasible.
OBSTRUCTIONS = {
    # Induced claw K1,3 in G+: two of the three leaves sit on one side of the
    # centre, and the nearer one is a negative neighbour of the farther one
    # that lies between it and their common positive neighbour.
    "claw": (((1, 2), (1, 3), (1, 4)), ((2, 3), (2, 4), (3, 4))),
    # Chordless positive 4-cycle with negative diagonals: G+ is not chordal,
    # so it has no proper interval model.
    "c4": (((1, 2), (2, 3), (3, 4), (1, 4)), ((1, 3), (2, 4))),
}


def pairs(flat: Sequence[int]):
    it = iter(flat)
    return zip(it, it)


def ordering_violation(
    n: int, pos: Sequence[int], neg: Sequence[int], seq: Sequence[int]
) -> Optional[str]:
    """None when seq is a feasible line embedding, else what is wrong.

    O(n + m): on each side of each vertex, its farthest positive neighbour
    must lie closer than its nearest negative neighbour.
    """
    if sorted(seq) != list(range(1, n + 1)):
        return f"ordering is not a permutation of 1..{n}"
    rank = [0] * (n + 1)
    for i, v in enumerate(seq):
        rank[v] = i
    far_pos_left = rank[:]  # smallest rank of a positive neighbour on the left
    far_pos_right = rank[:]  # largest rank of a positive neighbour on the right
    near_neg_left = [-1] * (n + 1)  # largest rank of a negative neighbour left
    near_neg_right = [n] * (n + 1)  # smallest rank of a negative neighbour right
    for u, v in pairs(pos):
        ru, rv = rank[u], rank[v]
        if ru > rv:
            u, v, ru, rv = v, u, rv, ru
        if rv > far_pos_right[u]:
            far_pos_right[u] = rv
        if ru < far_pos_left[v]:
            far_pos_left[v] = ru
    for u, v in pairs(neg):
        ru, rv = rank[u], rank[v]
        if ru > rv:
            u, v, ru, rv = v, u, rv, ru
        if rv < near_neg_right[u]:
            near_neg_right[u] = rv
        if ru > near_neg_left[v]:
            near_neg_left[v] = ru
    for v in range(1, n + 1):
        if far_pos_left[v] < near_neg_left[v]:
            return f"vertex {v} has a negative neighbour inside its positive reach on the left"
        if far_pos_right[v] > near_neg_right[v]:
            return f"vertex {v} has a negative neighbour inside its positive reach on the right"
    return None


def infeasible_by_enumeration(
    n: int, pos: Sequence[int], neg: Sequence[int]
) -> bool:
    """True when no ordering of the (small) signed graph is feasible."""
    return all(
        ordering_violation(n, pos, neg, seq) is not None
        for seq in permutations(range(1, n + 1))
    )


def parse_ordering(text: str) -> Optional[list[int]]:
    """Vertices of an `o ...` certificate; None for `o INFEASIBLE`."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 1 or lines[0][0] != "o":
        raise ValueError("ordering certificate is not a single 'o' line")
    if lines[0][1:] == ["INFEASIBLE"]:
        return None
    return [int(t) for t in lines[0][1:]]


def parse_signed_graph(text: str) -> tuple[int, list[int], list[int]]:
    """(n, positive flat edges, negative flat edges) of a `p sg` file,
    checking the edge counts its header declares."""
    pos: list[int] = []
    neg: list[int] = []
    header = None
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0] == "c":
            continue
        if header is None:
            if tokens[:2] != ["p", "sg"] or len(tokens) != 5:
                raise ValueError("missing 'p sg n m+ m-' header")
            header = [int(t) for t in tokens[2:]]
            continue
        if tokens[0] != "e" or tokens[1] not in ("+", "-") or len(tokens) != 4:
            raise ValueError(f"bad edge line {line!r}")
        (pos if tokens[1] == "+" else neg).extend((int(tokens[2]), int(tokens[3])))
    if header is None:
        raise ValueError("empty signed graph file")
    n, m_pos, m_neg = header
    if (len(pos) // 2, len(neg) // 2) != (m_pos, m_neg):
        raise ValueError("edge lines do not match the header counts")
    return n, pos, neg


def parse_model(text: str) -> dict[int, tuple[Fraction, Fraction]]:
    """Intervals of an `i <v> <num>/<den> <num>/<den>` certificate."""
    model: dict[int, tuple[Fraction, Fraction]] = {}
    for line in text.splitlines():
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] != "i" or len(tokens) != 4:
            raise ValueError(f"bad interval line {line!r}")
        ends = []
        for token in tokens[2:]:
            num, slash, den = token.partition("/")
            if not slash or int(den) <= 0:
                raise ValueError(f"bad endpoint {token!r}")
            ends.append(Fraction(int(num), int(den)))
        v = int(tokens[1])
        if v in model:
            raise ValueError(f"vertex {v} has two intervals")
        model[v] = (ends[0], ends[1])
    return model


def model_mismatch(
    n: int, pos: Sequence[int], model: dict[int, tuple[Fraction, Fraction]]
) -> Optional[str]:
    """None when the closed intervals of a complete signed graph's model
    intersect exactly on its positive pairs, else what is wrong."""
    if sorted(model) != list(range(1, n + 1)):
        return f"model does not give one interval to each of 1..{n}"
    scale = math.lcm(*(end.denominator for ends in model.values() for end in ends))
    lo = [0] * (n + 1)
    hi = [0] * (n + 1)
    for v, (a, b) in model.items():
        lo[v] = int(a * scale)
        hi[v] = int(b * scale)
        if lo[v] > hi[v]:
            return f"interval of vertex {v} is empty"
    positive = {(u, v) if u < v else (v, u) for u, v in pairs(pos)}
    for u in range(1, n + 1):
        lo_u, hi_u = lo[u], hi[u]
        for v in range(u + 1, n + 1):
            meets = lo_u <= hi[v] and lo[v] <= hi_u
            if meets != ((u, v) in positive):
                return f"intervals of {u} and {v} {'meet' if meets else 'miss'}"
    return None


def parse_assignment(text: str) -> list[int]:
    """Literals of a `v ... 0` certificate, without the closing 0."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 1 or lines[0][0] != "v" or lines[0][-1] != "0":
        raise ValueError("assignment certificate is not a single 'v ... 0' line")
    return [int(t) for t in lines[0][1:-1]]


def assignment_problem(
    num_vars: int, clauses: Sequence[Sequence[int]], literals: Sequence[int]
) -> Optional[str]:
    """None when the literals set each variable once and satisfy every clause."""
    if sorted(abs(lit) for lit in literals) != list(range(1, num_vars + 1)):
        return f"assignment does not set each of 1..{num_vars} once"
    true = set(literals)
    for idx, clause in enumerate(clauses, start=1):
        if not any(lit in true for lit in clause):
            return f"clause {idx} is falsified"
    return None


def gadget_counts(
    num_vars: int, clauses: Sequence[Sequence[int]]
) -> tuple[int, int, int]:
    """(vertices, positive edges, negative edges) of the SAT -> LCE gadget,
    from the paper's counts: |U| = 2n+1, T = 2n + sum(|C|+1); the digraph has
    V = |U| + T vertices and A = 3T arcs; the signed graph has V + A + 1
    vertices, 2A positive and A + V negative edges."""
    universe = 2 * num_vars + 1
    total = 2 * num_vars + sum(len(c) + 1 for c in clauses)
    v = universe + total
    a = 3 * total
    return v + a + 1, 2 * a, a + v


def verify_problem(code: int, stdout: str) -> Optional[str]:
    """None when a `lineembed verify` run accepted its certificate."""
    if code != 0 or stdout.strip() != "VALID":
        return f"verify exited {code} with {stdout.strip()[:80]!r}"
    return None
