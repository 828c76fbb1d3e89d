"""Deterministic instance generators.

Every generator takes an explicit seed and drives a private random.Random,
so a given parameter set always produces the identical instance.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from .core import SignedGraph, build_signed_graph
from .errors import GraphError, ReductionError
from .reductions import CnfFormula, build_cnf


def gen_random_signed_graph(
    n: int, p_pos: float, p_neg: float, seed: int
) -> SignedGraph:
    """Each unordered pair independently becomes positive with probability
    p_pos, negative with p_neg, or stays a non-edge."""
    if not (p_pos >= 0 and p_neg >= 0 and p_pos + p_neg <= 1):
        raise GraphError(
            f"need p_pos, p_neg >= 0 with p_pos + p_neg <= 1, "
            f"got {p_pos} and {p_neg}"
        )
    rng = random.Random(seed)
    pos = []
    neg = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            r = rng.random()
            if r < p_pos:
                pos.append((u, v))
            elif r < p_pos + p_neg:
                neg.append((u, v))
    return build_signed_graph(n, pos, neg)


def gen_planted_complete(
    n: int, spread: Optional[float] = None, seed: int = 0
) -> SignedGraph:
    """Complete signed graph whose positive part is a unit interval graph.

    Unit intervals start at n sorted uniform draws from [0, spread]; pairs
    at distance at most 1 become positive edges, all other pairs negative.
    Labels are shuffled so the planted ordering is hidden.  Always feasible.
    Only the positive pairs are built, as (min, max) tuples, one window of
    labels per vertex; the graph holds G- as their complement.
    """
    if spread is None:
        spread = max(n / 4.0, 1.0)
    if not 0 < spread < math.inf:
        raise GraphError(f"spread must be positive and finite, got {spread}")
    if n < 0:
        raise GraphError(f"vertex count {n} is negative")
    rng = random.Random(seed)
    centers = sorted(rng.random() * spread for _ in range(n))
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    pos = []
    j_end = 0
    for i, a in enumerate(labels):
        # Window scan: centers are sorted, so the positive neighbours of i
        # to its right form a prefix of i+1..n-1.
        if j_end < i + 1:
            j_end = i + 1
        while j_end < n and centers[j_end] - centers[i] <= 1.0:
            j_end += 1
        pos += [(a, b) if a < b else (b, a) for b in labels[i + 1 : j_end]]
    return SignedGraph(n, frozenset(pos))


def gen_random_cnf(num_vars: int, num_clauses: int, seed: int) -> CnfFormula:
    """Clauses of 1..3 distinct variables with independent random signs."""
    if num_vars < 1:
        raise ReductionError(f"need at least one variable, got {num_vars}")
    if num_clauses < 0:
        raise ReductionError(f"clause count {num_clauses} is negative")
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, min(3, num_vars))
        chosen = rng.sample(range(1, num_vars + 1), width)
        clauses.append(
            tuple(v if rng.random() < 0.5 else -v for v in chosen)
        )
    return build_cnf(num_vars, clauses)
