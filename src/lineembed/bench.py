"""Timing harness for the subset DP on graphs whose prefix sets are all
reachable."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from .core import SignedGraph, build_signed_graph
from .solvers import solve_subset_dp


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


def run_bench(
    sizes: tuple[int, ...] = tuple(range(14, 21)),
    per_size: int = 5,
) -> BenchReport:
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
