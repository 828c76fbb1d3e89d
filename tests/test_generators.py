"""Deterministic generators and the DP timing harness."""

from __future__ import annotations

import hashlib
import math
from itertools import combinations

import numpy as np
import pytest

from lineembed.solvers import BenchReport, bench_instance, run_bench
from lineembed.core import Graph, build_signed_graph, is_complete, verify_embedding
from lineembed.errors import GraphError, ReductionError
from lineembed.formats import (
    read_mapping,
    serialize_cnf,
    serialize_mapping,
    serialize_signed_graph,
)
from lineembed.generators import (
    gen_planted_complete,
    gen_random_cnf,
    gen_random_signed_graph,
)
from lineembed.intervals import solve_complete
from lineembed.reductions import (
    adp_to_lce,
    build_cnf,
    build_digraph,
    sat_to_lce,
    sat_to_setsplitting,
    setsplitting_to_adp,
)
from lineembed.solvers import _components, _frontier_layers, _local_masks

# SHA-256 of serialize_signed_graph(gen_planted_complete(n, spread, seed)) by
# (n, spread), one per seed from 0, recorded from the generator that built
# each pair with its own statement.
PLANTED_DIGESTS = {
    (0, None): (
        "91d56c44677dfd9136d553ae4438f95876e808379f4d5afbad34b22ac5554017",
        "91d56c44677dfd9136d553ae4438f95876e808379f4d5afbad34b22ac5554017",
        "91d56c44677dfd9136d553ae4438f95876e808379f4d5afbad34b22ac5554017",
    ),
    (0, 0.5): (
        "91d56c44677dfd9136d553ae4438f95876e808379f4d5afbad34b22ac5554017",
        "91d56c44677dfd9136d553ae4438f95876e808379f4d5afbad34b22ac5554017",
        "91d56c44677dfd9136d553ae4438f95876e808379f4d5afbad34b22ac5554017",
    ),
    (0, 3.0): (
        "91d56c44677dfd9136d553ae4438f95876e808379f4d5afbad34b22ac5554017",
        "91d56c44677dfd9136d553ae4438f95876e808379f4d5afbad34b22ac5554017",
        "91d56c44677dfd9136d553ae4438f95876e808379f4d5afbad34b22ac5554017",
    ),
    (1, None): (
        "ee703773c168248909a9548e2ae29085fa7a73c88871ce0f8c34afc7f2767e48",
        "ee703773c168248909a9548e2ae29085fa7a73c88871ce0f8c34afc7f2767e48",
        "ee703773c168248909a9548e2ae29085fa7a73c88871ce0f8c34afc7f2767e48",
    ),
    (1, 0.5): (
        "ee703773c168248909a9548e2ae29085fa7a73c88871ce0f8c34afc7f2767e48",
        "ee703773c168248909a9548e2ae29085fa7a73c88871ce0f8c34afc7f2767e48",
        "ee703773c168248909a9548e2ae29085fa7a73c88871ce0f8c34afc7f2767e48",
    ),
    (1, 3.0): (
        "ee703773c168248909a9548e2ae29085fa7a73c88871ce0f8c34afc7f2767e48",
        "ee703773c168248909a9548e2ae29085fa7a73c88871ce0f8c34afc7f2767e48",
        "ee703773c168248909a9548e2ae29085fa7a73c88871ce0f8c34afc7f2767e48",
    ),
    (2, None): (
        "39ed84681aaaf28618bef9642dcfee7930eae6646ea3d653ed17451047410652",
        "39ed84681aaaf28618bef9642dcfee7930eae6646ea3d653ed17451047410652",
        "39ed84681aaaf28618bef9642dcfee7930eae6646ea3d653ed17451047410652",
    ),
    (2, 0.5): (
        "39ed84681aaaf28618bef9642dcfee7930eae6646ea3d653ed17451047410652",
        "39ed84681aaaf28618bef9642dcfee7930eae6646ea3d653ed17451047410652",
        "39ed84681aaaf28618bef9642dcfee7930eae6646ea3d653ed17451047410652",
    ),
    (2, 3.0): (
        "39ed84681aaaf28618bef9642dcfee7930eae6646ea3d653ed17451047410652",
        "5af63e38a76014562fad2e6b6b0c9f4084f0c794386ece09253ec92dae7ba23e",
        "39ed84681aaaf28618bef9642dcfee7930eae6646ea3d653ed17451047410652",
    ),
    (5, None): (
        "573bb45d4b56425127113d4374ee40fd8b3e9490b6e4f8d870adc2152d816fd5",
        "573bb45d4b56425127113d4374ee40fd8b3e9490b6e4f8d870adc2152d816fd5",
        "9ec50147cec26369353e359a60ef6a4a82dff9b33b72122ae537d19650957f64",
    ),
    (5, 0.5): (
        "573bb45d4b56425127113d4374ee40fd8b3e9490b6e4f8d870adc2152d816fd5",
        "573bb45d4b56425127113d4374ee40fd8b3e9490b6e4f8d870adc2152d816fd5",
        "573bb45d4b56425127113d4374ee40fd8b3e9490b6e4f8d870adc2152d816fd5",
    ),
    (5, 3.0): (
        "70c3768ecaf20c00705d5c110817d45b0843ad3487ceb493e7280a3ea01b87cc",
        "68707142f0812782842867978d9a75a4301ca3b825ca00999f17d7d741774624",
        "b0473d2a834e890c9672a62ed2068d965a75bf4f9629d16fd0c02549bb6f8c7d",
    ),
    (20, None): (
        "550005cf297374f55bf5970b3ebf04dc70bea317372b5a5b9125e18577bfe31f",
        "62452129cf5f703b6db9f381ed95dfabf23b1319dd9d0bdb01625387b34d338a",
        "d9038556a20e2dbc41f9f3b02f34b91cf7aea7f1d89750b2a434dc293e63dfc4",
    ),
    (20, 0.5): (
        "69fe43336a3317c486c556ec50792e0bc6364f1ae3b75b1392ebdc8ba2354488",
        "69fe43336a3317c486c556ec50792e0bc6364f1ae3b75b1392ebdc8ba2354488",
        "69fe43336a3317c486c556ec50792e0bc6364f1ae3b75b1392ebdc8ba2354488",
    ),
    (20, 3.0): (
        "0540dd9bdac53c9be20f2f9c2cd1847ddd0f0c1573f9bbfe6418b5ca01691db4",
        "7faf52179b6a631347d1789933ffaf6f0e105c54662c14b4d38fa4b2aa355a95",
        "fb6590cb43b3367e5a8f7bacc2003bcfcedb5018c728589b95ba5aad80e7bd3e",
    ),
    (64, None): (
        "b5e45e0de4e642e82fb63b10f7d23ca2ced7f92211359687eedb9e6497d23800",
        "8d46190a486c8a2ac3bc58066ccd1cc6cc119ee1399f1720c54c787de3c1d6da",
        "3b004599eb2fce490b6b5578a3acd4246cdb9af34ed629d962203792bde7722c",
    ),
    (64, 0.5): (
        "7565be4cf55b9acc48c39b6f004458854f15422775d6fff5a5dfec19eae2fc41",
        "7565be4cf55b9acc48c39b6f004458854f15422775d6fff5a5dfec19eae2fc41",
        "7565be4cf55b9acc48c39b6f004458854f15422775d6fff5a5dfec19eae2fc41",
    ),
    (64, 3.0): (
        "f3207f4f4e1de0959cc5e336c41115c9823d7531432ba613f2b2e86e62acd6e4",
        "c0346a2d220f3b186856d77cfd0a7a570f1654079195e7387f14baea512e5523",
        "572fefcc47731498ab204bc5f0852ae9592b42482c58692f12347d39049f8005",
    ),
    (257, None): (
        "0d2433f899ff079d31f9a1ec07f1320401ff77971f7ccb71440a0e0bae49597d",
        "6a28f3a703dc18d2aa5c1210c3c9a1c4a9ddafce63b3204ed18a290450caea36",
        "1a333c2d55140826c95fb1663ee95d80cd1c6ea3511dff1714609d79e3ac6d2e",
    ),
    (257, 0.5): (
        "b3ed681f3df70992ab47455644b759f89fe1955441ba72783b8fee44f3c0028b",
        "b3ed681f3df70992ab47455644b759f89fe1955441ba72783b8fee44f3c0028b",
        "b3ed681f3df70992ab47455644b759f89fe1955441ba72783b8fee44f3c0028b",
    ),
    (257, 3.0): (
        "b3c6ca972db4e2ead9ab7f6c5a76237e1333699987fcbc1bf5dbbb22ee8b7a4a",
        "e4a3fba026b02ffbef0f1989ef232820fada8e0ff89108f2435abc052be7aee3",
        "34cd9c07c616dcaa6edaca954e9e9dbcb715cf7db59cb903183571789e23126b",
    ),
    (1000, None): (
        "66ee03e8e0aca2ff0058d64f05936e3f4f98b3aa350607e76abc67b8d386386d",
        "34524f3fd8635a926fa46a46c1044ee8c267610633615f52547ff8c84843cc0a",
    ),
    (1000, 0.5): (
        "bc2ceac663bc50c260724a685e8eb88a756eaf32f9251d8b5704b7786c5622b8",
        "bc2ceac663bc50c260724a685e8eb88a756eaf32f9251d8b5704b7786c5622b8",
    ),
    (1000, 3.0): (
        "8fa7c08d6ab223eb052de4674e348c99121850647b6679df5f98319efe91450b",
        "6904db453b881a2b47775e7b553f6824ebadceaea10ccf7bb9b79cc5fe70df73",
    ),
}

# SHA-256 of serialize_mapping(m) by stage, one per seed from 0, for the
# mappings of _stage_mappings(seed): recorded from the reductions that
# stored each stage's vertex numbering as tables.
MAPPING_DIGESTS = {
    "sat2ss": (
        "c21e7c1b44df87b3dd3b323ef0b48efe64b4085a65853ad3c1d7755b3bf200db",
        "ca23516f16c61b3edb33f819d06a771291afc5f1da2e538da8e67a0e3ae893b2",
        "1bd00b1ebf223ec126fbdac8fee853210d97fa48ba65f6c7b748639225d4aa07",
        "86c280585f40d47b8828ad21d99c42a3fca112b06cadb0a44188d40ded73e157",
        "0a7c641c5269ea41d576e5f144264d0641911011e1c0575dd293d20518b7b6e9",
        "3ad1b0cd4b356f74846585b87e99a139d75e3ce4de1b34cd20bb1584f0b2296d",
    ),
    "ss2adp": (
        "0075392dbfe18d91ae7df9cb2c2768565e0d381c4d5df11cabda16039faafec0",
        "a094962c0b806b8f4fea015c97c3a0cd86280168287ee10dfc861c2e6d227a7e",
        "5fb153ef01234a32981548228c44b171f2aa28c42a8026394a1ca1a25dfa5c31",
        "bda56571a5abdb74d1b0f4a3c8e64746f27158edcc99d9b8078e3145b092a79e",
        "72d25db27f7b9ac21fa9c08a126e7a5cd7e9ca8ccf1f9660076fb4f60caafc9c",
        "59bc16e9c8743153dc519195873d07837a52adce412f475e8a378143750c0c3b",
    ),
    "adp2lce": (
        "71b1c74db7a258f5657f27a9e5bcf91a0aaaab84d16f75cdb65434944a6ab02b",
        "05c73601b6736d4ddf9961b7ecff8750a31d78c14cc7385f7a35985f2ba90542",
        "c9185363d226446e7b63fa81278fdd39c03436d57396305f2abd1d64a246db04",
        "a10827f44705ca3c4ff9140eefe6c6d13a5a1a0bc8066ad90d92956cf5cd9305",
        "5e0b93757764c44531de5ffd249ee284c2b7143a9658cf3f67564b2b3b283608",
        "636d7b64dcc116da4c38c699cfb64a24ea82b0a166cd8a756f8578f61e0e74b4",
    ),
    "sat2lce": (
        "704c44a041de2f76b5c65692a1da7a3afa9c55e1ea5f0eb3bb6d64f2b41b5196",
        "eb7a87fc9373e8c961aa5c6f6c1ceaf603183cd45d35d10aabe9e1733136127b",
        "f69c3ba80d18acd2d68b304bbe840f6a9f83ad8e09129382519d5d99c3f46a30",
        "c10eebf6a7ff2f2fe2548e148303806b601f01969b24fd7aebdc3eb34abfa4bb",
        "05971456007ae1493a588a577019362c53169f3735adc8deec19e17a23500023",
        "98cf9612531a4aff4cd660fbf2dd377621ae7bac1fe6c7e16961e368dfe9f1c4",
    ),
}


def _stage_mappings(seed: int) -> dict:
    """Each stage's mapping over gen_random_cnf's instance for the seed;
    adp2lce reduces the chain's digraph with its self-loops dropped."""
    cnf = gen_random_cnf(3 + 2 * seed, 4 + 3 * seed, seed)
    sys, sat2ss = sat_to_setsplitting(cnf)
    digraph, ss2adp = setsplitting_to_adp(sys)
    loopless = build_digraph(digraph.n, [arc for arc in digraph.arcs if arc[0] != arc[1]])
    return {
        "sat2ss": sat2ss,
        "ss2adp": ss2adp,
        "adp2lce": adp_to_lce(loopless)[1],
        "sat2lce": sat_to_lce(cnf)[1],
    }


class TestRandomSignedGraph:
    def test_golden(self) -> None:
        g = gen_random_signed_graph(6, 0.3, 0.3, seed=7)
        assert serialize_signed_graph(g) == (
            "p sg 6 7 6\n"
            "e + 1 3\ne + 1 5\ne + 2 4\ne + 2 6\ne + 3 5\ne + 3 6\ne + 5 6\n"
            "e - 1 2\ne - 1 6\ne - 2 3\ne - 2 5\ne - 3 4\ne - 4 5\n"
        )

    def test_deterministic(self) -> None:
        a = gen_random_signed_graph(9, 0.2, 0.4, seed=5)
        b = gen_random_signed_graph(9, 0.2, 0.4, seed=5)
        assert a == b
        assert a != gen_random_signed_graph(9, 0.2, 0.4, seed=6)

    def test_probability_extremes(self) -> None:
        empty = gen_random_signed_graph(5, 0.0, 0.0, seed=1)
        assert empty.m_pos == 0 and empty.m_neg == 0
        full_pos = gen_random_signed_graph(5, 1.0, 0.0, seed=1)
        assert full_pos.m_pos == 10 and full_pos.m_neg == 0

    def test_rejects_bad_probabilities(self) -> None:
        with pytest.raises(GraphError):
            gen_random_signed_graph(3, 0.7, 0.7, seed=0)
        with pytest.raises(GraphError):
            gen_random_signed_graph(3, -0.1, 0.5, seed=0)


class TestPlantedComplete:
    def test_golden(self) -> None:
        g = gen_planted_complete(6, spread=3.0, seed=3)
        assert serialize_signed_graph(g) == (
            "p sg 6 10 5\n"
            "e + 1 3\ne + 1 4\ne + 1 5\ne + 2 5\ne + 2 6\n"
            "e + 3 4\ne + 3 5\ne + 3 6\ne + 4 5\ne + 5 6\n"
            "e - 1 2\ne - 1 6\ne - 2 3\ne - 2 4\ne - 4 6\n"
        )

    def test_complete_and_feasible(self) -> None:
        for seed in range(8):
            n = 5 + 7 * seed
            g = gen_planted_complete(n, seed=seed)
            assert is_complete(g)
            ordering = solve_complete(g)
            assert ordering is not None
            assert verify_embedding(g, ordering).valid

    def test_spread_one_is_all_positive(self) -> None:
        g = gen_planted_complete(8, spread=1.0, seed=2)
        # Centers in [0, 1] keep all pairwise distances at most 1.
        assert g.m_pos == 28 and g.m_neg == 0

    def test_deterministic(self) -> None:
        assert gen_planted_complete(30, seed=9) == gen_planted_complete(30, seed=9)

    def test_rejects_bad_spread(self) -> None:
        with pytest.raises(GraphError):
            gen_planted_complete(4, spread=0.0, seed=0)

    @pytest.mark.parametrize("n", [-1, -2])
    def test_rejects_negative_vertex_count(self, n) -> None:
        """The complement form is built without build_signed_graph, so the
        generator makes its vertex-count check itself."""
        with pytest.raises(GraphError, match=f"^vertex count {n} is negative$"):
            gen_planted_complete(n)

    @pytest.mark.parametrize("n", [*range(41), 1000])
    def test_views_match_an_explicit_build(self, n) -> None:
        """The generator builds G+ alone, unvalidated; G- is its complement.
        Fails if a pair is emitted as (max, min) or twice, or a view of G-
        misses, repeats or invents a pair, or m_neg miscounts."""
        every = set(combinations(range(1, n + 1), 2))
        for spread in (None, 1.0, 1e-9, 3.0, 1e6) if n <= 40 else (None, 1.0):
            for seed in range(3 if n <= 40 else 1):
                g = gen_planted_complete(n, spread, seed)
                neg = every - g.pos
                assert g.pos <= every and g.m_pos == len(g.pos)
                assert g.neg == neg  # the pure-Python set view
                # A fresh graph, so its array view is the numpy complement.
                rows = gen_planted_complete(n, spread, seed).neg_array
                assert rows.dtype == np.int64 and rows.shape == (len(neg), 2)
                assert rows.tolist() == [list(e) for e in sorted(neg)]
                assert g.m_neg == len(neg) and is_complete(g)
                assert build_signed_graph(n, g.pos, g.neg) == g

    @pytest.mark.parametrize(
        "n, spread, seed",
        [(n, spread, seed) for (n, spread), digests in PLANTED_DIGESTS.items()
         for seed in range(len(digests))],
    )
    def test_bytes_frozen(self, n, spread, seed) -> None:
        text = serialize_signed_graph(gen_planted_complete(n, spread, seed))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == PLANTED_DIGESTS[n, spread][seed]


class TestRandomCnf:
    def test_golden(self) -> None:
        cnf = gen_random_cnf(4, 3, seed=11)
        assert serialize_cnf(cnf) == "p cnf 4 3\n-4 -2 0\n-4 0\n1 0\n"

    @pytest.mark.parametrize(
        "stage, seed",
        [(stage, seed) for stage, digests in MAPPING_DIGESTS.items()
         for seed in range(len(digests))],
    )
    def test_mapping_bytes_frozen(self, stage, seed) -> None:
        """Each stage writes the same mapping bytes, and reading them back
        gives a mapping equal to the one the reduction built."""
        mapping = _stage_mappings(seed)[stage]
        text = serialize_mapping(mapping)
        assert hashlib.sha256(text.encode()).hexdigest() == MAPPING_DIGESTS[stage][seed]
        assert read_mapping(text)[::3] == (stage, mapping)

    def test_deterministic_and_valid(self) -> None:
        for seed in range(10):
            a = gen_random_cnf(5, 6, seed=seed)
            assert a == gen_random_cnf(5, 6, seed=seed)
            # Clause constraints are enforced on the way out.
            assert build_cnf(a.num_vars, a.clauses) == a
            assert all(1 <= len(c) <= 3 for c in a.clauses)

    def test_single_variable(self) -> None:
        cnf = gen_random_cnf(1, 4, seed=0)
        assert all(len(c) == 1 for c in cnf.clauses)

    def test_rejects_bad_parameters(self) -> None:
        with pytest.raises(ReductionError):
            gen_random_cnf(0, 1, seed=0)
        with pytest.raises(ReductionError):
            gen_random_cnf(2, -1, seed=0)


class TestBench:
    def test_report_shapes_and_ratios(self) -> None:
        report = run_bench(sizes=(6, 7), per_size=2)
        assert report.sizes == (6, 7)
        assert all(len(times) == 2 for times in report.per_size_seconds)
        medians = report.median_seconds()
        assert all(t > 0 for t in medians)
        assert len(report.doubling_ratios()) == 1
        assert report.ratio_median() == report.doubling_ratios()[0]

    def test_instances_reach_every_prefix_set(self) -> None:
        """Bench instances are connected and have no witness, so the frontier
        holds all C(n, k) sets at layer k: every prefix set is reachable."""
        for n in range(1, 13):
            g = bench_instance(n)
            verts = range(1, n + 1)
            pos = _local_masks(verts, Graph(n, g.pos).adj)
            neg = _local_masks(verts, Graph(n, g.neg).adj)
            assert _components(n, Graph(n, g.pos | g.neg).adj) == [list(verts)]
            assert not any(p and q for p, q in zip(pos, neg))
            layers = _frontier_layers(pos, neg, 0, 2**40)
            sizes = [len(sets) for sets, _ in layers]
            assert sizes == [math.comb(n, k) for k in range(n + 1)]

    def test_non_consecutive_sizes_have_no_ratios(self) -> None:
        report = run_bench(sizes=(6, 8), per_size=1)
        assert report.doubling_ratios() == ()
        with pytest.raises(ValueError):
            report.ratio_median()

    def test_ratio_median_of_three(self) -> None:
        report = BenchReport(
            sizes=(6, 7, 8),
            per_size_seconds=((1.0,), (2.0,), (8.0,)),
        )
        assert report.doubling_ratios() == (2.0, 4.0)
        assert report.ratio_median() == 3.0
