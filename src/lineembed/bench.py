"""Timing harness for the full subset DP table on random instances."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from .generators import gen_random_signed_graph
from .solvers import reachability_table


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


def run_bench(
    sizes: tuple[int, ...] = tuple(range(14, 21)),
    per_size: int = 5,
    seed: int = 0,
    p_pos: float = 0.25,
    p_neg: float = 0.25,
) -> BenchReport:
    """Time reachability_table on per_size random instances of each size.

    The full table fills all 2^n prefix sets, so its time grows by about 2
    per added vertex: this is the O*(2^n) series whose doubling ratio is
    checked.  `solve` runs the frontier DP, whose time follows the
    reachable sets instead and has no such ratio.

    Instance seeds are derived from (seed, size, index), so the workload is
    reproducible; only the timings vary between runs.
    """
    all_times = []
    for n in sizes:
        times = []
        for i in range(per_size):
            g = gen_random_signed_graph(
                n, p_pos, p_neg, seed=seed * 1_000_003 + n * 1_009 + i
            )
            start = time.perf_counter()
            reachability_table(g)
            times.append(time.perf_counter() - start)
        all_times.append(tuple(times))
    return BenchReport(tuple(sizes), tuple(all_times))
