"""Property tests: the verifier against the cubic oracle, the signed-graph
text format round trip, the signed-graph parser against the per-line
reference parser, the array constructor against build_signed_graph and
both graph forms' text, build_signed_graph against its per-pair copy on
pairs of every form, the digraph constructor against its per-arc
reference, each forward reduction's output against its validating builder,
the ADP gadget's feasibility against the digraph's acyclic partitions,
every satisfying assignment of a CNF through the chain and back, the
frontier subset DP against the full table, the mapping
text format of every reduction stage and of the chain, read against the
per-line reference reader, and the text round trip of every other instance
and certificate kind.

Examples are derandomized and nothing is stored between runs, so every run
checks the same graphs.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lineembed.core
from lineembed.core import (
    Ordering,
    SignedGraph,
    _build_from_arrays,
    _pair_array,
    build_signed_graph,
    verify_embedding,
)
from lineembed.errors import CapExceededError, GraphError, ParseError, ReductionError
from lineembed.formats import (
    parse_assignment_cert,
    parse_cnf,
    parse_digraph,
    parse_model_cert,
    parse_ordering_cert,
    parse_partition_cert,
    parse_set_system,
    parse_signed_graph,
    parse_splitter_cert,
    read_mapping,
    serialize_assignment_cert,
    serialize_cnf,
    serialize_digraph,
    serialize_mapping,
    serialize_model_cert,
    serialize_ordering_cert,
    serialize_partition_cert,
    serialize_set_system,
    serialize_signed_graph,
    serialize_splitter_cert,
)
from lineembed.intervals import IntervalModel
from lineembed.reductions import (
    Assignment,
    SplitterSolution,
    adp_solution_to_lce_ordering,
    adp_to_lce,
    adp_violation,
    build_cnf,
    build_digraph,
    build_partition,
    build_set_system,
    lift_lce_to_adp,
    lift_lce_to_sat,
    sat_solution_to_setsplitting,
    sat_to_lce,
    sat_to_setsplitting,
    setsplitting_solution_to_adp,
    setsplitting_to_adp,
)
from lineembed.solvers import solve_subset_dp

from oracles import (
    build_digraph_by_arcs,
    build_signed_graph_by_pairs,
    parse_mapping,
    parse_signed_graph_by_lines,
    reachability_table,
    read_mapping_by_lines,
    sat_assignments,
    solve_adp_bruteforce,
    table_ordering,
)
from test_core import assert_matches_naive

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)


@st.composite
def written_edges(draw, max_n=9, min_n=0):
    """(n, positive pairs, negative pairs) of a signed graph, its edges in a
    drawn order, each written with its endpoints in a drawn order."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    signs = draw(st.lists(st.sampled_from("+-."), min_size=len(pairs), max_size=len(pairs)))
    edges = draw(st.permutations([(p, s) for p, s in zip(pairs, signs) if s != "."]))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    written = [((v, u) if flip else (u, v), s) for ((u, v), s), flip in zip(edges, flips)]
    return (
        n,
        [e for e, s in written if s == "+"],
        [e for e, s in written if s == "-"],
    )


def signed_graphs(max_n=9, min_n=0):
    """A signed graph built from written_edges."""
    return written_edges(max_n, min_n).map(lambda case: build_signed_graph(*case))


@st.composite
def graphs_with_orderings(draw):
    g = draw(signed_graphs())
    return g, draw(st.permutations(range(1, g.n + 1)))


@settings(DETERMINISTIC, max_examples=600)
@given(graphs_with_orderings())
def test_verifier_matches_naive_oracle(case) -> None:
    g, seq = case
    assert_matches_naive(verify_embedding(g, Ordering.from_seq(seq)), g, seq)


@st.composite
def disjoint_unions(draw):
    """Two drawn signed graphs side by side, their labels mixed by a drawn
    permutation, so that the components interleave in vertex order."""
    a, b = draw(signed_graphs(max_n=4)), draw(signed_graphs(max_n=3))
    label = draw(st.permutations(range(1, a.n + b.n + 1)))

    def relabel(edges, shift):
        return [(label[u + shift - 1], label[v + shift - 1]) for u, v in edges]

    return build_signed_graph(
        a.n + b.n,
        relabel(a.pos, 0) + relabel(b.pos, a.n),
        relabel(a.neg, 0) + relabel(b.neg, a.n),
    )


@settings(DETERMINISTIC, max_examples=600)
@given(st.one_of(signed_graphs(max_n=7), disjoint_unions()))
def test_frontier_dp_matches_full_table(g) -> None:
    got = solve_subset_dp(g)
    assert (None if got is None else got.seq) == table_ordering(reachability_table(g))


@settings(DETERMINISTIC, max_examples=300)
@given(signed_graphs(max_n=12))
def test_signed_graph_text_round_trip(g) -> None:
    text = serialize_signed_graph(g)
    assert parse_signed_graph(text) == g
    assert serialize_signed_graph(parse_signed_graph(text)) == text


@settings(DETERMINISTIC, max_examples=400)
@given(written_edges(max_n=12))
@example((0, [], []))
@example((1, [], []))
@example((3, [(3, 1), (2, 1)], []))
@example((3, [], [(3, 2), (1, 3)]))
def test_array_and_set_graphs_write_the_same_text(case) -> None:
    """The same edges, held as arrays in drawn order and orientation or as
    sets, are written to the same bytes, and writing the array graph does
    not build its sets.  Fails if the array writer orders rows other than
    by (u, v), e.g. by the second endpoint first."""
    n, pos, neg = case
    from_arrays = _build_from_arrays(n, _pair_array(pos), _pair_array(neg))
    text = serialize_signed_graph(from_arrays)
    assert "pos" not in vars(from_arrays) and "neg" not in vars(from_arrays)
    assert text == serialize_signed_graph(build_signed_graph(n, pos, neg))


# Ways to write one `e` line.  The first is the canonical spelling; the
# others are accepted by the per-line rules (tabs, extra or Unicode spaces,
# a trailing \r) and must read the same.
EDGE_LINES = [
    "e {s} {a} {b}",
    "e {s} {a} {b}\r",
    "e\t{s} {a} {b}",
    " e {s}  {a} {b} ",
    "e\x1c{s} {a}\u2003{b}",
]
# Ways to write one vertex number k: canonical (plain, zero-padded to 18
# digits) and not (20 digits, a sign, an underscore, non-ASCII digits).
NUMBERS = [
    str,
    lambda k: f"{k:018d}",
    lambda k: f"{k:020d}",
    lambda k: f"+{k}",
    lambda k: f"{k // 10}_{k % 10}",
    lambda k: "".join(chr(0x660 + int(d)) for d in str(k)),
    lambda k: "".join(chr(0xFF10 + int(d)) for d in str(k)),
]
# Numbers that are malformed or out of range for any graph drawn here.
BAD_NUMBERS = [
    "0", "x", "1.0", "١.٢", "999999999999999999", "1000000000000000000", "9" * 20,
]
BAD_SIGNS = ["+-", "-+", "*", "++", "=", "\u2212"]
# Blank and comment lines, with multi-byte characters and a lone surrogate.
HARMLESS_LINES = [
    "", " ", "\t", "\r", "\x0b", "c", "c note", "  c e + 1 2",
    "c \u00fcn\u00ef \u2713 \U0001F600", "c \udc80",
]
MALFORMED_LINES = [
    "cx", "e + 1", "e + 1 2 3", "E + 1 2", "p sg 2 0 0", "e\u00a0+ 1 2 3",
    "e + 1x2", "e_+ 1 2", "e +_1 2", "e\u2003+ 1 2 x",
]


@st.composite
def edge_lines(draw, sign, pair):
    """One `e` line for a sign and pair, in a drawn spelling."""
    numbers = [
        draw(st.sampled_from(NUMBERS))(k) if k >= 0 and draw(st.booleans()) else str(k)
        for k in pair
    ]
    template = EDGE_LINES[0]
    if draw(st.booleans()):
        template = draw(st.sampled_from(EDGE_LINES))
    return template.format(s=sign, a=numbers[0], b=numbers[1])


@st.composite
def stray_lines(draw, g):
    """A line that is not one of g's edges, and the sign it counts under: a
    comment or blank line, an edge that repeats one of g's or may fall out
    of range, or a malformed line."""
    kind = draw(st.integers(0, 5))
    if kind <= 1:
        return draw(st.sampled_from(HARMLESS_LINES)), None
    if kind == 2:
        sign = draw(st.sampled_from("+-"))
        if (g.pos or g.neg) and draw(st.booleans()):
            pair = draw(st.sampled_from(sorted(g.pos | g.neg)))
        else:
            pair = (draw(st.integers(-1, g.n + 1)), draw(st.integers(-1, g.n + 1)))
        return draw(edge_lines(sign, pair)), sign
    if kind == 3:
        template = draw(st.sampled_from(EDGE_LINES))
        return template.format(s=draw(st.sampled_from(BAD_SIGNS)), a=1, b=2), None
    if kind == 4:
        number = draw(st.sampled_from(BAD_NUMBERS))
        return EDGE_LINES[0].format(s="+", a=1, b=number), "+"
    return draw(st.sampled_from(MALFORMED_LINES)), None


@st.composite
def signed_graph_texts(draw):
    """A `p sg` text mixing canonical and other spellings of the edges of a
    drawn graph with stray lines, under a header that is usually right and
    sometimes wrong, misplaced or missing."""
    g = draw(signed_graphs(max_n=8, min_n=3))
    written = [(e, "+") for e in g.pos] + [(e, "-") for e in g.neg]
    lines = []
    for (u, v), sign in draw(st.permutations(written)):
        pair = (v, u) if draw(st.booleans()) else (u, v)
        lines.append((draw(edge_lines(sign, pair)), sign))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(stray_lines(g)))
    m_pos = sum(sign == "+" for _, sign in lines)
    m_neg = sum(sign == "-" for _, sign in lines)
    header = draw(
        st.sampled_from(
            [f"p sg {g.n} {m_pos} {m_neg}"] * 8
            + [
                f"p  sg\t{g.n} {m_pos} {m_neg}\r",
                f"p sg {g.n} {m_pos + 1} {m_neg}",
                f"p sg {g.n} {m_pos}",
                f"p sg {g.n} {m_pos} {m_neg} 0",
                f"p sg {g.n} x {m_neg}",
                "p cnf 1 1",
                "p",
            ]
        )
    )
    texts = [line for line, _ in lines]
    placement = draw(st.sampled_from(["first"] * 8 + ["anywhere", "missing"]))
    if placement == "first":
        leading = draw(st.lists(st.sampled_from(HARMLESS_LINES), max_size=2))
        texts[:0] = leading + [header]
    elif placement == "anywhere":
        texts.insert(draw(st.integers(0, len(texts))), header)
    return "\n".join(texts) + draw(st.sampled_from(["\n", "", "\n\n"]))


def parse_outcome(parse, text):
    try:
        return parse(text, "in.sg")
    except ParseError as exc:
        return ("ParseError", str(exc), exc.source, exc.line)


@settings(DETERMINISTIC, max_examples=1500)
@given(signed_graph_texts())
def test_parser_matches_per_line_reference(text) -> None:
    assert parse_outcome(parse_signed_graph, text) == parse_outcome(
        parse_signed_graph_by_lines, text
    )


@st.composite
def endpoint_lists(draw):
    """(n, positive pairs, negative pairs) as the parser may hand them over:
    a drawn signed graph's pairs in drawn order, each in a drawn endpoint
    order, with up to three faults inserted (an endpoint out of range or
    beyond int64, a loop, a pair repeated within its sign, a pair given both
    signs), and now and then a negative n or one too large for int64 keys."""
    n = draw(st.integers(0, 8))
    lists: dict[str, list[tuple[int, int]]] = {"+": [], "-": []}
    for pair in itertools.combinations(range(1, n + 1), 2):
        sign = draw(st.sampled_from("+-."))
        if sign != ".":
            lists[sign].append(pair[::-1] if draw(st.booleans()) else pair)
    for _ in range(draw(st.integers(0, 3))):
        sign = draw(st.sampled_from("+-"))
        u = draw(st.integers(1, max(n, 1)))
        fault = draw(st.sampled_from(["range", "loop", "repeat", "both"]))
        if fault in ("repeat", "both") and lists[sign]:
            pair = draw(st.sampled_from(lists[sign]))
            pair = pair[::-1] if draw(st.booleans()) else pair
            sign = {"repeat": sign, "both": "-" if sign == "+" else "+"}[fault]
        elif fault == "loop":
            pair = (u, u)
        else:
            pair = (u, draw(st.sampled_from([0, -1, n + 1, 2**63, -(2**63) - 1])))
        lists[sign].insert(draw(st.integers(0, len(lists[sign]))), pair)
    n = draw(st.sampled_from([n] * 8 + [-1, 2**40]))
    return n, lists["+"], lists["-"]


def build_outcome(build, n, pos, neg):
    try:
        return build(n, pos, neg)
    except GraphError as exc:
        return ("GraphError", str(exc))


@settings(DETERMINISTIC, max_examples=1500)
@given(endpoint_lists())
def test_array_constructor_matches_build_signed_graph(case) -> None:
    n, pos, neg = case
    got = build_outcome(_build_from_arrays, n, _pair_array(pos), _pair_array(neg))
    want = build_outcome(build_signed_graph, n, pos, neg)
    assert got == want
    if isinstance(want, SignedGraph):
        assert (got.m_pos, got.m_neg) == (len(want.pos), len(want.neg))
        assert sorted(map(tuple, got.pos_array.tolist())) == sorted(want.pos)
        assert sorted(map(tuple, got.neg_array.tolist())) == sorted(want.neg)


@st.composite
def arc_lists(draw):
    """(n, arcs) as a parser or a reduction may hand them over: arcs between
    vertices of 1..n, repeats and self-loops among them, with up to two
    endpoints out of range or beyond int64 inserted, and now and then a
    negative n or one too large for int64 keys."""
    n = draw(st.integers(0, 6))
    inside = st.integers(1, max(n, 1))
    arcs = draw(st.lists(st.tuples(inside, inside), max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        bad = draw(st.sampled_from([0, -1, n + 1, 2**63, -(2**63) - 1]))
        arc = (draw(inside), bad) if draw(st.booleans()) else (bad, draw(inside))
        arcs.insert(draw(st.integers(0, len(arcs))), arc)
    return draw(st.sampled_from([n] * 8 + [-1, 2**40])), arcs


def digraph_outcome(build, n, arcs):
    try:
        return build(n, arcs)
    except ReductionError as exc:
        return ("ReductionError", str(exc))


@settings(DETERMINISTIC, max_examples=1000)
@given(arc_lists())
def test_digraph_constructor_matches_per_arc_reference(case) -> None:
    """Fails if build_digraph lets a repeated or out-of-range arc through,
    or names another offender than the first in arc order."""
    assert digraph_outcome(build_digraph, *case) == digraph_outcome(
        build_digraph_by_arcs, *case
    )


@st.composite
def cnfs(draw, max_clauses=4):
    num_vars = draw(st.integers(0, 4))
    clauses = []
    for _ in range(draw(st.integers(0, max_clauses)) if num_vars else 0):
        chosen = st.lists(st.integers(1, num_vars), min_size=1, max_size=3, unique=True)
        clauses.append([v if draw(st.booleans()) else -v for v in draw(chosen)])
    return build_cnf(num_vars, clauses)


@st.composite
def set_systems(draw):
    universe = draw(st.integers(0, 6))
    if universe == 0:
        return build_set_system(0, [])
    members = st.lists(st.integers(1, universe), min_size=1, max_size=4, unique=True)
    return build_set_system(universe, draw(st.lists(members, max_size=4)))


@st.composite
def loopless_digraphs(draw, max_n=5, max_arcs=6):
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.permutations(range(1, n + 1), 2))
    arcs = st.lists(st.sampled_from(pairs), max_size=max_arcs, unique=True)
    return build_digraph(n, draw(arcs) if pairs else [])


# The reduction chain builds its instances without the validating builders,
# so each forward map's output must be what the builder makes of its fields.


@settings(DETERMINISTIC, max_examples=300)
@given(cnfs())
def test_sat_to_setsplitting_builds_a_valid_set_system(cnf) -> None:
    """Fails if a clause set is not stored ascending."""
    sys, _ = sat_to_setsplitting(cnf)
    assert sys == build_set_system(sys.universe_size, sys.sets, special=sys.special)


@settings(DETERMINISTIC, max_examples=300)
@given(st.one_of(set_systems(), cnfs().map(lambda cnf: sat_to_setsplitting(cnf)[0])))
def test_setsplitting_to_adp_builds_a_valid_digraph(sys) -> None:
    """Fails if an element arc is appended twice."""
    digraph, _ = setsplitting_to_adp(sys)
    assert digraph == build_digraph(digraph.n, digraph.arcs)


@settings(DETERMINISTIC, max_examples=300)
@given(loopless_digraphs())
def test_adp_to_lce_builds_a_valid_gadget(digraph) -> None:
    """Fails if a gadget row is written as (v, u) with u < v."""
    g, _ = adp_to_lce(digraph)
    assert g == _build_from_arrays(g.n, g.pos_array, g.neg_array)


# Digraphs whose gadgets, V + A + 1 <= 18 vertices, the subset DP solves.
SMALL_GADGETS = st.integers(0, 7).flatmap(lambda n: loopless_digraphs(n, 17 - n))


@settings(DETERMINISTIC, max_examples=300)
@given(SMALL_GADGETS)
def test_adp_gadget_feasible_exactly_when_digraph_partitions(digraph) -> None:
    """The gadget has a feasible ordering exactly when the digraph has an
    acyclic partition; each side's certificate maps to the other's."""
    g, mapping = adp_to_lce(digraph)
    ordering, part = solve_subset_dp(g), solve_adp_bruteforce(digraph)
    assert (ordering is None) == (part is None)
    if part is not None:
        assert adp_violation(digraph, lift_lce_to_adp(ordering, mapping)) is None
        assert verify_embedding(g, adp_solution_to_lce_ordering(part, mapping))


@settings(DETERMINISTIC, max_examples=300)
@given(cnfs(max_clauses=5))
def test_every_satisfying_assignment_maps_to_a_gadget_ordering_and_back(cnf) -> None:
    """Each satisfying assignment, mapped forward through the three stages,
    gives a gadget ordering that verifies, and lifting it gives the same
    assignment back.  Fails if the splitter holds the false literals."""
    g, mapping = sat_to_lce(cnf)
    for truth in sat_assignments(cnf.num_vars, cnf.clauses):
        assignment = Assignment(tuple(truth[v] for v in range(1, cnf.num_vars + 1)))
        x = sat_solution_to_setsplitting(assignment, mapping.sat2ss)
        part = setsplitting_solution_to_adp(x, mapping.ss2adp)
        ordering = adp_solution_to_lce_ordering(part, mapping.adp2lce)
        assert verify_embedding(g, ordering)
        assert lift_lce_to_sat(ordering, mapping) == assignment


# One strategy per stage and one for the chain, each giving the mapping
# that `reduce --map` writes.
MAPPINGS = st.one_of(
    cnfs().map(lambda cnf: sat_to_setsplitting(cnf)[1]),
    set_systems().map(lambda sys: setsplitting_to_adp(sys)[1]),
    loopless_digraphs().map(lambda digraph: adp_to_lce(digraph)[1]),
    cnfs().map(lambda cnf: sat_to_lce(cnf)[1]),
)
# Tokens a mutation writes in place of one of the text's tokens: numbers
# in and out of every range drawn here, numbers spelled other than
# canonically, and every word of the format.
TOKENS = st.one_of(
    st.integers(-3, 25).map(str),
    st.sampled_from(
        [
            "1000000000000", "+1", "01", "1_0", "x1",
            "p", "map", "x", "c", "src", "s", "d", "lit", "varset", "clauseset",
            "checker", "align", "vars", "clauses", "special", "universe",
            "digraph", "sat2ss", "ss2adp", "adp2lce", "sat2lce",
        ]
    ),
)


@settings(DETERMINISTIC, max_examples=300)
@given(MAPPINGS)
def test_mapping_text_round_trip(mapping) -> None:
    text = serialize_mapping(mapping)
    assert parse_mapping(text) == mapping
    assert serialize_mapping(parse_mapping(text)) == text


@settings(DETERMINISTIC, max_examples=1000)
@given(MAPPINGS, st.data())
def test_mapping_with_one_token_changed(mapping, data) -> None:
    """A mapping text with one token replaced is refused, or it is what
    `reduce --map` writes for the mapping it parses to."""
    lines = [line.split() for line in serialize_mapping(mapping).splitlines()]
    row = data.draw(st.integers(0, len(lines) - 1))
    col = data.draw(st.integers(0, len(lines[row]) - 1))
    lines[row][col] = data.draw(TOKENS)
    text = "".join(" ".join(tokens) + "\n" for tokens in lines)
    try:
        parsed = parse_mapping(text)
    except ParseError:
        return
    assert serialize_mapping(parsed) == text


@st.composite
def specials(draw):
    """A set system that marks a special element when it has one to mark."""
    sys = draw(set_systems())
    if not sys.universe_size or draw(st.booleans()):
        return sys
    special = draw(st.integers(1, sys.universe_size))
    return build_set_system(sys.universe_size, sys.sets, special=special)


@st.composite
def digraphs(draw):
    """Digraphs with self-loops allowed."""
    n = draw(st.integers(0, 4))
    arcs = st.tuples(st.integers(1, max(n, 1)), st.integers(1, max(n, 1)))
    return build_digraph(n, draw(st.lists(arcs, max_size=6 if n else 0, unique=True)))


@st.composite
def interval_models(draw):
    """Proper models: 2n distinct endpoints read in order, each a new left
    end or the right end of the earliest interval still open."""
    n = draw(st.integers(0, 6))
    ends = st.fractions(-4, 4, max_denominator=9)
    lefts, rights = [], []
    for x in sorted(draw(st.lists(ends, min_size=2 * n, max_size=2 * n, unique=True))):
        opens = len(lefts) < n and (len(lefts) == len(rights) or draw(st.booleans()))
        (lefts if opens else rights).append(x)
    labels = draw(st.permutations(range(1, n + 1)))
    return IntervalModel(dict(zip(labels, zip(lefts, rights))))


@st.composite
def partitions(draw):
    n = draw(st.integers(0, 8))
    return build_partition(n, draw(st.sets(st.integers(1, max(n, 1)), max_size=n)))


ORDERINGS = st.integers(0, 8).flatmap(lambda n: st.permutations(range(1, n + 1)))
# (value, serializer, parser) for every instance kind but `p sg`, which has
# its own round trip above, and for every certificate kind.
TEXT_FORMS = st.one_of(
    cnfs().map(lambda x: (x, serialize_cnf, parse_cnf)),
    specials().map(lambda x: (x, serialize_set_system, parse_set_system)),
    digraphs().map(lambda x: (x, serialize_digraph, parse_digraph)),
    (st.none() | ORDERINGS.map(Ordering.from_seq)).map(
        lambda x: (x, serialize_ordering_cert, parse_ordering_cert)
    ),
    interval_models().map(lambda x: (x, serialize_model_cert, parse_model_cert)),
    partitions().map(lambda x: (x, serialize_partition_cert, parse_partition_cert)),
    st.frozensets(st.integers(-3, 30)).map(
        lambda x: (SplitterSolution(x), serialize_splitter_cert, parse_splitter_cert)
    ),
    st.lists(st.booleans(), max_size=8).map(
        lambda x: (Assignment(tuple(x)), serialize_assignment_cert, parse_assignment_cert)
    ),
)


@settings(DETERMINISTIC, max_examples=500)
@given(TEXT_FORMS)
def test_instance_and_certificate_text_round_trip(case) -> None:
    value, serialize, parse = case
    text = serialize(value)
    assert parse(text) == value
    assert serialize(parse(text)) == text


Pair = namedtuple("Pair", "u v")
# Ways to hand build_signed_graph one pair, and its pairs of one sign.
PAIR_FORMS = {"tuple": tuple, "list": list, "namedtuple": Pair._make, "iterator": iter}
CONTAINERS = {"list": list, "set": set, "generator": lambda pairs: (p for p in pairs)}


@st.composite
def pair_inputs(draw):
    """(n, signs): endpoint_lists' pairs, and for each sign its pairs, the
    form of each pair (a tuple, list, namedtuple or iterator) and the kind
    of iterable holding them (a list, a set when all its pairs hash by
    value, or a generator)."""
    n, pos, neg = draw(endpoint_lists())
    signs = []
    for pairs in (pos, neg):
        forms = [draw(st.sampled_from(sorted(PAIR_FORMS))) for _ in pairs]
        kinds = ["list", "generator"]
        if set(forms) <= {"tuple", "namedtuple"}:
            kinds.append("set")
        signs.append((pairs, forms, draw(st.sampled_from(kinds))))
    return n, signs


def handed(signs):
    """Fresh positive and negative iterables, as pair_inputs describes them."""
    return [
        CONTAINERS[kind](PAIR_FORMS[f](p) for p, f in zip(pairs, forms))
        for pairs, forms, kind in signs
    ]


@settings(DETERMINISTIC, max_examples=1000)
@given(pair_inputs())
@example((3, [([(1, 2), (3, 2)], ["namedtuple", "tuple"], "set"),
              ([(1, 3)], ["list"], "generator")]))
def test_build_signed_graph_matches_per_pair_copy(case) -> None:
    """build_signed_graph, which stores the caller's ordered plain tuples,
    returns what the copy that builds a new tuple for every pair returns,
    down to the repr, or raises its GraphError text.  Fails if a tuple
    subclass or a list is stored as given."""
    n, signs = case
    got = build_outcome(build_signed_graph, n, *handed(signs))
    want = build_outcome(build_signed_graph_by_pairs, n, *handed(signs))
    assert (got, repr(got)) == (want, repr(want))
    if isinstance(got, SignedGraph):
        assert all(type(e) is tuple for e in got.pos | got.neg)


# Ways to space a mapping line: before its first token, between tokens
# and after its last.
SPACINGS = (["", " "], [" ", "  ", "\t", " \t "], ["", " ", "\r"])


@st.composite
def mapping_texts(draw):
    """What `reduce --map` writes for a drawn mapping: as written, with one
    token changed, or with each line re-spaced and comments, blank lines
    and a missing or doubled final newline drawn in."""
    text = serialize_mapping(draw(MAPPINGS))
    lines = [line.split() for line in text.splitlines()]
    how = draw(st.sampled_from(["as written", "one token", "re-spaced"]))
    if how == "as written":
        return text
    if how == "one token":
        row = draw(st.integers(0, len(lines) - 1))
        lines[row][draw(st.integers(0, len(lines[row]) - 1))] = draw(TOKENS)
        return "".join(" ".join(tokens) + "\n" for tokens in lines)
    out = []
    for tokens in lines:
        out.extend(draw(st.lists(st.sampled_from(["c note", "", " \t", "c"]), max_size=1)))
        lead, gap, tail = (draw(st.sampled_from(ways)) for ways in SPACINGS)
        out.append(lead + gap.join(tokens) + tail)
    return "\n".join(out) + draw(st.sampled_from(["\n", "", "\n\n", "\nc end\n"]))


def mapping_outcome(read, text):
    try:
        return read(text, "m.map")
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line)


@settings(DETERMINISTIC, max_examples=600)
@given(mapping_texts())
def test_mapping_reader_matches_per_line_reference(text) -> None:
    """read_mapping, byte-equal shortcut included, returns what the reader
    that compares every line returns, or raises its error at its line."""
    assert mapping_outcome(read_mapping, text) == mapping_outcome(
        read_mapping_by_lines, text
    )


@pytest.mark.parametrize("lead", ["", "c note\n"], ids=["as-written", "commented"])
def test_mapping_readers_raise_the_same_memory_refusal(monkeypatch, lead) -> None:
    """Both readers raise the source rebuild's CapExceededError with one text;
    fails if the reference turns it into a ParseError at a line."""
    cnf = parse_cnf("p cnf 3 2\n1 2 0\n-1 3 0\n")
    text = lead + serialize_mapping(sat_to_lce(cnf)[1])
    monkeypatch.setattr(lineembed.core, "_available_bytes", lambda: 1000)
    said = []
    for read in (read_mapping, read_mapping_by_lines):
        with pytest.raises(CapExceededError) as info:
            read(text, "f.map")
        said.append(str(info.value))
    assert said[0] == said[1] and "MB available" in said[0]
