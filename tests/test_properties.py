"""Property tests: the verifier against the cubic oracle, and the signed-graph
text format round trip.

Examples are derandomized and nothing is stored between runs, so every run
checks the same graphs.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from lineembed.core import Ordering, build_signed_graph, verify_embedding
from lineembed.formats import parse_signed_graph, serialize_signed_graph

from test_core import assert_matches_naive

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)


@st.composite
def signed_graphs(draw, max_n=9):
    """A signed graph whose edges are inserted in a drawn order, each written
    with its endpoints in a drawn order."""
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    signs = draw(st.lists(st.sampled_from("+-."), min_size=len(pairs), max_size=len(pairs)))
    edges = draw(st.permutations([(p, s) for p, s in zip(pairs, signs) if s != "."]))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    written = [((v, u) if flip else (u, v), s) for ((u, v), s), flip in zip(edges, flips)]
    return build_signed_graph(
        n,
        [e for e, s in written if s == "+"],
        [e for e, s in written if s == "-"],
    )


@st.composite
def graphs_with_orderings(draw):
    g = draw(signed_graphs())
    return g, draw(st.permutations(range(1, g.n + 1)))


@settings(DETERMINISTIC, max_examples=600)
@given(graphs_with_orderings())
def test_verifier_matches_naive_oracle(case) -> None:
    g, seq = case
    assert_matches_naive(verify_embedding(g, Ordering.from_seq(seq)), g, seq)


@settings(DETERMINISTIC, max_examples=300)
@given(signed_graphs(max_n=12))
def test_signed_graph_text_round_trip(g) -> None:
    text = serialize_signed_graph(g)
    assert parse_signed_graph(text) == g
    assert serialize_signed_graph(parse_signed_graph(text)) == text
