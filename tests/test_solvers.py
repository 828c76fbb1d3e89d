"""Goodness predicate, backtracking search and subset DP."""

from __future__ import annotations

import io
import itertools
import math
import os
import random
import re
import sys
import time
import tracemalloc

import numpy as np
import pytest

from lineembed import core, solvers

from lineembed.core import Graph, Ordering, build_signed_graph, verify_embedding
from lineembed.errors import CapExceededError, GraphError
from lineembed.solvers import (
    solve_bruteforce,
    solve_subset_dp,
)
from lineembed.generators import gen_planted_complete, gen_random_signed_graph
from lineembed.solvers import (
    _frontier_bad_masks,
    _local_masks,
    _step_bytes,
    _witnesses,
)

import oracles
from oracles import (
    MembershipError,
    _bad_extension_masks,
    _table_bytes,
    chosen_vertex,
    feasible_orderings_brute,
    is_good,
    is_reachable,
    naive_feasible,
    reachability_table,
    table_ordering,
)
from test_core import all_sign_patterns, random_signed_graph


def frontier_masks(g):
    """The frontier's bad-extension masks of every subset of g's vertices."""
    verts = range(1, g.n + 1)
    witnesses = _witnesses(
        _local_masks(verts, Graph(g.n, g.pos).adj),
        _local_masks(verts, Graph(g.n, g.neg).adj),
    )
    return _frontier_bad_masks(np.arange(1 << g.n, dtype=np.uint64), *witnesses)


def negative_path(n):
    """A path of negative edges on 1..n: connected, no witnesses, and every
    prefix set reachable."""
    return build_signed_graph(n, [], [(v, v + 1) for v in range(1, n)])


P3 = build_signed_graph(3, [(1, 2), (2, 3)], [(1, 3)])

CLAW = build_signed_graph(
    4, [(1, 2), (1, 3), (1, 4)], [(2, 3), (2, 4), (3, 4)]
)


class TestIsGood:
    def test_p3_frozen(self) -> None:
        assert is_good(P3, 3, {1}) is False
        assert is_good(P3, 2, {1}) is True

    def test_empty_prefix(self) -> None:
        assert is_good(P3, 1, set()) is True

    def test_membership_error(self) -> None:
        with pytest.raises(MembershipError):
            is_good(P3, 2, {1, 2})

    def test_range_errors(self) -> None:
        with pytest.raises(GraphError):
            is_good(P3, 4, set())
        with pytest.raises(GraphError):
            is_good(P3, 1, {5})

    def test_set_not_order_sensitive(self) -> None:
        assert is_good(P3, 3, [2, 1]) == is_good(P3, 3, [1, 2])

    def test_prefix_goodness_equals_feasibility(self) -> None:
        # An ordering is feasible iff every vertex is good for its prefix.
        rng = random.Random(99)
        for _ in range(500):
            n = rng.randint(1, 7)
            g = random_signed_graph(rng, n, rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.6))
            seq = list(range(1, n + 1))
            rng.shuffle(seq)
            by_prefix = all(
                is_good(g, v, seq[:i]) for i, v in enumerate(seq)
            )
            assert by_prefix == naive_feasible(g, tuple(seq))

    def test_vectorized_goodness_matches_scalar(self) -> None:
        for n in range(1, 5):
            for g in all_sign_patterns(n):
                bad = _bad_extension_masks(g)
                for mask in range(1 << n):
                    members = {w + 1 for w in range(n) if mask >> w & 1}
                    for v in range(1, n + 1):
                        if v in members:
                            continue
                        table_good = not (int(bad[mask]) >> (v - 1)) & 1
                        assert table_good == is_good(g, v, members)

    def test_frontier_masks_match_table_masks(self) -> None:
        # Only the bits of vertices outside the set carry meaning.
        for n in range(1, 5):
            for g in all_sign_patterns(n):
                outside = ~np.arange(1 << n, dtype=np.int64) & ((1 << n) - 1)
                table = _bad_extension_masks(g) & outside
                assert ((frontier_masks(g).astype(np.int64) & outside) == table).all()


class TestBruteforce:
    def test_p3_lex_first(self) -> None:
        assert solve_bruteforce(P3).seq == (1, 2, 3)

    def test_claw_infeasible(self) -> None:
        assert solve_bruteforce(CLAW) is None

    def test_trivial(self) -> None:
        assert solve_bruteforce(build_signed_graph(0, [], [])).seq == ()
        assert solve_bruteforce(build_signed_graph(1, [], [])).seq == (1,)

    def test_cap(self) -> None:
        g = build_signed_graph(11, [], [])
        with pytest.raises(CapExceededError):
            solve_bruteforce(g)
        assert solve_bruteforce(g, cap=11) is not None

    def test_recursion_reach(self) -> None:
        """An n the search's recursion cannot reach is refused as over a cap,
        and the reach it names is solved.  Fails if the refusal is dropped
        (RecursionError) or the reach it names is too large."""
        g = build_signed_graph(sys.getrecursionlimit(), [], [])
        with pytest.raises(CapExceededError, match="recursion reach") as caught:
            solve_bruteforce(g, cap=g.n)
        reach = int(re.search(r"reach (\d+)", str(caught.value))[1])
        assert solve_bruteforce(build_signed_graph(reach, [], []), cap=reach) is not None

    def test_exhaustive_equals_enumeration(self) -> None:
        # Pruned search returns exactly the first feasible permutation.
        for n in range(5):
            for g in all_sign_patterns(n):
                want = feasible_orderings_brute(g)
                got = solve_bruteforce(g)
                if want:
                    assert got is not None and got.seq == want[0]
                else:
                    assert got is None

    def test_random_equals_enumeration(self) -> None:
        rng = random.Random(123)
        for _ in range(200):
            n = rng.randint(5, 6)
            g = random_signed_graph(rng, n, rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.5))
            want = feasible_orderings_brute(g)
            got = solve_bruteforce(g)
            assert (got is not None) == bool(want)
            if want:
                assert got.seq == want[0]


class TestSubsetDP:
    def test_p3(self) -> None:
        got = solve_subset_dp(P3)
        # Smallest-vertex-last reconstruction places 1 at the end.
        assert got.seq == (3, 2, 1)
        assert verify_embedding(P3, got).valid

    def test_claw_infeasible(self) -> None:
        assert solve_subset_dp(CLAW) is None

    def test_trivial(self) -> None:
        assert solve_subset_dp(build_signed_graph(0, [], [])).seq == ()
        assert solve_subset_dp(build_signed_graph(1, [], [])).seq == (1,)

    def test_cap(self) -> None:
        g = build_signed_graph(12, [], [])
        with pytest.raises(CapExceededError):
            solve_subset_dp(g, cap=11)
        assert solve_subset_dp(g, cap=12) is not None

    def test_many_components_linear(self) -> None:
        """6,000 one-vertex components solve in under 3 s.  Fails if each
        component re-sums the layers of every earlier one, which took about
        6 s."""
        start = time.perf_counter()
        got = solve_subset_dp(build_signed_graph(6000, [], []), cap=6000)
        assert time.perf_counter() - start < 3
        assert got.seq == tuple(range(6000, 0, -1))

    def test_deterministic(self) -> None:
        rng = random.Random(8)
        for _ in range(50):
            g = random_signed_graph(rng, 6)
            a, b = solve_subset_dp(g), solve_subset_dp(g)
            assert (a is None and b is None) or a.seq == b.seq

    def test_exhaustive_small_against_brute(self) -> None:
        for n in range(5):
            for g in all_sign_patterns(n):
                got = solve_subset_dp(g)
                want = solve_bruteforce(g)
                assert (got is None) == (want is None)
                if got is not None:
                    assert verify_embedding(g, got).valid

    def test_random_against_brute(self) -> None:
        rng = random.Random(2718)
        for _ in range(400):
            n = rng.randint(5, 8)
            g = random_signed_graph(rng, n, rng.uniform(0.05, 0.6), rng.uniform(0.05, 0.6))
            got = solve_subset_dp(g)
            want = solve_bruteforce(g)
            assert (got is None) == (want is None)
            if got is not None:
                assert verify_embedding(g, got).valid

    def test_relabeling_invariance_of_verdict(self) -> None:
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(2, 7)
            g = random_signed_graph(rng, n)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            relabel = {v: perm[v - 1] for v in range(1, n + 1)}
            g2 = build_signed_graph(
                n,
                [(relabel[u], relabel[v]) for u, v in g.pos],
                [(relabel[u], relabel[v]) for u, v in g.neg],
            )
            assert (solve_subset_dp(g) is None) == (solve_subset_dp(g2) is None)


class TestTableSize:
    def test_refused_before_allocation(self, monkeypatch) -> None:
        # An edgeless graph is trivially feasible, but its 2^40-entry table
        # cannot fit; the refusal must come before anything is allocated.
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(oracles, "_subset_universe", no_allocation)
        monkeypatch.setattr(np, "zeros", no_allocation)
        with pytest.raises(CapExceededError, match="memory"):
            reachability_table(build_signed_graph(40, [], []))

    @pytest.mark.parametrize("n", [12, 16])
    def test_estimate_covers_measured_peak(self, n) -> None:
        g = random_signed_graph(random.Random(n), n, 0.4, 0.4)
        tracemalloc.start()
        try:
            reachability_table(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < peak <= _table_bytes(n)


    @pytest.mark.parametrize(
        "g",
        [gen_random_signed_graph(20, 0.25, 0.25, seed=20),
         gen_random_signed_graph(20, 0.05, 0.05, seed=20),
         gen_random_signed_graph(30, 0.25, 0.25, seed=30),
         build_signed_graph(60, [], [])],
        ids=["dense-20", "sparse-20", "random-30", "edgeless-60"],
    )
    def test_solve_builds_no_universe(self, g) -> None:
        # The full 2^n table lives in the test oracles alone.
        moved = {"ReachabilityTable", "_bad_extension_masks", "_subset_universe",
                 "_table_bytes", "_check_table_fits", "reachability_table"}
        assert not moved & set(vars(solvers))
        got = solve_subset_dp(g)
        assert got is None or verify_embedding(g, got).valid

    def test_available_memory_is_memavailable(self, monkeypatch) -> None:
        """Fails if the refusal compares with total physical memory where
        /proc/meminfo says how much is available."""
        meminfo = "MemTotal:  8000000 kB\nMemAvailable:  1234 kB\nCached: 5 kB\n"
        monkeypatch.setattr(core, "open", lambda path: io.StringIO(meminfo), raising=False)
        assert solvers._available_bytes() == 1234 * 1024

    def test_available_memory_under_address_space_limit(self, monkeypatch) -> None:
        """Under an address-space soft limit, only what the process does not
        hold yet is available.  Fails if the whole soft limit counts as
        free."""
        page = os.sysconf("SC_PAGE_SIZE")
        held = 146 * 2**20 // page
        files = {
            "/proc/meminfo": "MemTotal:  8000000 kB\nMemAvailable:  7000000 kB\n",
            "/proc/self/statm": f"{held} 9000 2000 500 0 30000 0\n",
        }

        def read(path):
            if path not in files:
                raise FileNotFoundError(path)
            return io.StringIO(files[path])

        monkeypatch.setattr(core, "open", read, raising=False)
        soft = 256 * 2**20
        limits = (soft, core.resource.RLIM_INFINITY)
        monkeypatch.setattr(core.resource, "getrlimit", lambda which: limits)
        assert solvers._available_bytes() == soft - held * page
        files["/proc/self/statm"] = f"{300 * 2**20 // page} 0 0 0 0 0 0\n"
        assert solvers._available_bytes() == 0
        del files["/proc/self/statm"]
        assert solvers._available_bytes() == soft

    def test_available_memory_without_meminfo(self, monkeypatch) -> None:
        def unreadable(path):
            raise OSError(path)

        monkeypatch.setattr(core, "open", unreadable, raising=False)
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        assert 0 < solvers._available_bytes() <= physical

    def test_frontier_layer_refused_before_allocation(self, monkeypatch) -> None:
        # Every prefix set of a negative path is reachable, so its frontier
        # grows as C(58, k); with 16 MB available the fourth layer is refused
        # before it is built.
        limit = 16 * 2**20
        monkeypatch.setattr(solvers, "_available_bytes", lambda: limit)
        g = negative_path(58)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="layer 4 .*memory"):
                solve_subset_dp(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit

    @pytest.mark.parametrize(
        "g",
        [negative_path(16),
         gen_random_signed_graph(20, 0.05, 0.05, seed=20),
         gen_random_signed_graph(24, 0.15, 0.15, seed=24)],
        ids=["path-16", "sparse-20", "witnesses-24"],
    )
    def test_frontier_estimate_covers_measured_peak(self, g, monkeypatch) -> None:
        tracemalloc.start()
        try:
            solve_subset_dp(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Some layer's prediction reaches the measured peak, so with one
        # byte less available the solve is refused.
        monkeypatch.setattr(solvers, "_available_bytes", lambda: peak - 1)
        with pytest.raises(CapExceededError, match="memory"):
            solve_subset_dp(g)

    def test_path_prediction_within_full_table(self, monkeypatch) -> None:
        # A negative path has no witnesses and reaches every prefix set, the
        # frontier's worst case; no layer may predict more than the full
        # table did, so no input the table solved is refused.
        for n in range(1, 26):
            held = 0
            for k in range(n):
                held += 9 * math.comb(n, k)  # a uint64 set and a uint8 vertex
                assert held + _step_bytes(math.comb(n, k), 0, n, k) <= _table_bytes(n)
        for n in (12, 16, 18):
            monkeypatch.setattr(solvers, "_available_bytes", lambda n=n: _table_bytes(n))
            assert solve_subset_dp(negative_path(n)) is not None


class TestFrontier:
    """solve_subset_dp (the per-component frontier) against the full table."""

    @staticmethod
    def assert_matches_table(g) -> None:
        got = solve_subset_dp(g)
        want = table_ordering(reachability_table(g))
        assert (None if got is None else got.seq) == want

    def test_exhaustive_small(self) -> None:
        for n in range(5):
            for g in all_sign_patterns(n):
                self.assert_matches_table(g)

    def test_random_up_to_18(self) -> None:
        # Sparse draws split into several components and isolated vertices,
        # dense ones are mostly connected and infeasible.
        rng = random.Random(18)
        for _ in range(300):
            n = rng.randint(5, 11)
            p = rng.choice([0.03, 0.08, 0.15, 0.3])
            self.assert_matches_table(random_signed_graph(rng, n, p, p))
        for n in (14, 16, 18):
            for p in (0.05, 0.1, 0.25):
                self.assert_matches_table(gen_random_signed_graph(n, p, p, seed=n))

    def test_components_interleave(self) -> None:
        # Two P3s on alternating labels: each step must place the smaller of
        # the two components' last vertices.
        g = build_signed_graph(6, [(1, 3), (3, 5), (2, 4), (4, 6)], [(1, 5), (2, 6)])
        assert solve_subset_dp(g).seq == (6, 5, 4, 3, 2, 1)
        self.assert_matches_table(g)

    def test_64_vertex_component(self) -> None:
        # One connected component using every bit of a uint64 set.
        g = gen_planted_complete(64, seed=64)
        got = solve_subset_dp(g)
        assert got is not None and verify_embedding(g, got).valid


class TestReachabilityTable:
    def test_empty_prefix_always_reachable(self) -> None:
        rng = random.Random(55)
        for _ in range(50):
            g = random_signed_graph(rng, rng.randint(0, 6))
            assert is_reachable(reachability_table(g), 0)

    def test_chosen_transitions_are_good(self) -> None:
        # Every recorded transition must be backed by the scalar predicate
        # and a reachable predecessor; chosen is the smallest such vertex.
        rng = random.Random(56)
        for _ in range(100):
            n = rng.randint(1, 7)
            g = random_signed_graph(rng, n)
            table = reachability_table(g)
            for mask in range(1, 1 << n):
                if not is_reachable(table, mask):
                    assert chosen_vertex(table, mask) == 0
                    continue
                v = chosen_vertex(table, mask)
                assert mask >> (v - 1) & 1
                prev = mask ^ (1 << (v - 1))
                members = {w + 1 for w in range(n) if prev >> w & 1}
                assert is_reachable(table, prev)
                assert is_good(g, v, members)
                for smaller in range(1, v):
                    if not mask >> (smaller - 1) & 1:
                        continue
                    prev2 = mask ^ (1 << (smaller - 1))
                    assert not (
                        is_reachable(table, prev2)
                        and is_good(g, smaller, {w + 1 for w in range(n) if prev2 >> w & 1})
                    )

    def test_full_mask_reachability_is_feasibility(self) -> None:
        rng = random.Random(57)
        for _ in range(150):
            n = rng.randint(1, 6)
            g = random_signed_graph(rng, n)
            table = reachability_table(g)
            assert is_reachable(table, (1 << n) - 1) == bool(
                feasible_orderings_brute(g)
            )
