"""Instance, certificate and mapping text formats."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest

from lineembed import reductions
from lineembed.core import Ordering, build_signed_graph
from lineembed.errors import ParseError
from lineembed.formats import (
    instance_kind,
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
from lineembed.generators import gen_planted_complete
from lineembed.intervals import ordering_to_model
from lineembed.reductions import (
    Assignment,
    SplitterSolution,
    adp_to_lce,
    build_cnf,
    build_digraph,
    build_partition,
    build_set_system,
    sat_to_lce,
    sat_to_setsplitting,
    setsplitting_to_adp,
)

from oracles import parse_mapping, parse_signed_graph_by_lines
from test_core import random_signed_graph
from test_properties import parse_outcome

P3 = build_signed_graph(3, [(1, 2), (2, 3)], [(1, 3)])
XYZ = build_cnf(3, [(1, 2, 3)])
TWO_CYCLE = build_digraph(2, [(1, 2), (2, 1)])


class TestSignedGraphFormat:
    def test_golden(self) -> None:
        assert serialize_signed_graph(P3) == (
            "p sg 3 2 1\ne + 1 2\ne + 2 3\ne - 1 3\n"
        )

    def test_round_trip_random(self) -> None:
        rng = random.Random(81)
        for _ in range(40):
            g = random_signed_graph(rng, rng.randint(1, 9))
            assert parse_signed_graph(serialize_signed_graph(g)) == g

    def test_comments_and_blanks_ignored(self) -> None:
        text = "c a remark\n\np sg 2 1 0\nc another\ne + 2 1\n\n"
        assert parse_signed_graph(text) == build_signed_graph(2, [(1, 2)], [])

    def test_count_mismatch(self) -> None:
        with pytest.raises(ParseError):
            parse_signed_graph("p sg 2 2 0\ne + 1 2\n")

    def test_bad_sign(self) -> None:
        with pytest.raises(ParseError):
            parse_signed_graph("p sg 2 1 0\ne * 1 2\n")

    @pytest.mark.parametrize("sign", ["+-", "-+"])
    def test_two_character_sign_rejected(self, sign) -> None:
        with pytest.raises(ParseError) as err:
            parse_signed_graph(f"p sg 2 0 1\ne {sign} 1 2\n", source="s.sg")
        assert str(err.value) == f"s.sg:2: edge sign must be + or -, got {sign!r}"

    def test_edge_before_header_is_a_header_error(self) -> None:
        with pytest.raises(ParseError) as err:
            parse_signed_graph("c x\ne + 1 2\np sg 2 1 0\n")
        assert (err.value.line, str(err.value)) == (2, "2: expected 'p sg' header")

    def test_other_spellings_read_in_line_order(self) -> None:
        # Tab-separated lines take the per-line rules, the others the numpy
        # pass; the first duplicate in line order is (2, 3), but reading
        # either group before the other would meet (1, 2) first.
        text = "p sg 3 5 0\ne + 1 2\ne\t+ 2 3\ne + 2 3\ne + 1 2\ne\t+ 1 2\n"
        with pytest.raises(ParseError) as err:
            parse_signed_graph(text)
        assert str(err.value) == "1: duplicate positive edge (2, 3)"
        text = "p sg 1000 2 1\ne + +5 1_0\ne - ١٢ 7\ne + 999 1000\n"
        assert parse_signed_graph(text) == build_signed_graph(
            1000, [(5, 10), (999, 1000)], [(12, 7)]
        )

    def test_per_line_repeat_in_the_middle_of_a_large_text(self) -> None:
        # A tab-spelled line in the middle of a planted n=300 text repeats a
        # later canonical line, and the last line repeats an earlier one:
        # in line order the first repeat is the tab line's pair.  Fails if
        # the rows are left canonical first, which meets the last line's
        # pair first.
        edges = serialize_signed_graph(gen_planted_complete(300, seed=5)).splitlines()[1:]
        negative = [i for i, line in enumerate(edges) if line.startswith("e - ")]
        mid, later, earlier = (negative[len(negative) * k // 4] for k in (2, 3, 1))
        edges.insert(mid, edges[later].replace(" ", "\t"))
        edges.append(edges[earlier])
        m_pos = sum(line.startswith("e + ") for line in edges)
        text = "\n".join([f"p sg 300 {m_pos} {len(edges) - m_pos}", *edges]) + "\n"
        want = parse_outcome(parse_signed_graph_by_lines, text)
        assert parse_outcome(parse_signed_graph, text) == want
        assert want[1] == "in.sg:1: duplicate negative edge ({}, {})".format(
            *edges[mid].split("\t")[2:]
        )

    def test_canonical_first_line_stands_where_the_header_belongs(self) -> None:
        # Fails if the first canonical line is read as an edge before the
        # header is found: the per-line reader then meets no content line.
        text = serialize_signed_graph(gen_planted_complete(30, seed=2))
        with pytest.raises(ParseError) as err:
            parse_signed_graph(text.partition("\n")[2], source="bare.sg")
        assert (err.value.line, str(err.value)) == (1, "bare.sg:1: expected 'p sg' header")

    def test_parse_memory_grows_with_lines(self) -> None:
        # Peak allocation while parsing a dense n=300 instance, against the
        # text's length: the line-by-line reading used about 50x, the numpy
        # pass about 25x; per-byte int64 arrays would add about 16x.
        text = serialize_signed_graph(gen_planted_complete(300, seed=1))
        tracemalloc.start()
        try:
            parse_signed_graph(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * len(text), peak / len(text)

    def test_semantic_errors_become_parse_errors(self) -> None:
        with pytest.raises(ParseError):
            parse_signed_graph("p sg 2 1 1\ne + 1 2\ne - 1 2\n")
        with pytest.raises(ParseError):
            parse_signed_graph("p sg 2 1 0\ne + 1 3\n")

    def test_wrong_header(self) -> None:
        with pytest.raises(ParseError):
            parse_signed_graph("p cnf 2 1\n")

    def test_error_carries_position(self) -> None:
        with pytest.raises(ParseError) as err:
            parse_signed_graph("p sg 2 1 0\ne + one 2\n", source="inst.sg")
        assert err.value.source == "inst.sg"
        assert err.value.line == 2


class TestCnfFormat:
    def test_golden(self) -> None:
        assert serialize_cnf(XYZ) == "p cnf 3 1\n1 2 3 0\n"

    def test_round_trip(self) -> None:
        cnf = build_cnf(4, [(1, -2), (3,), (-1, 2, -4)])
        assert parse_cnf(serialize_cnf(cnf)) == cnf

    def test_missing_terminator(self) -> None:
        with pytest.raises(ParseError):
            parse_cnf("p cnf 2 1\n1 2\n")

    def test_zero_inside_clause(self) -> None:
        with pytest.raises(ParseError):
            parse_cnf("p cnf 2 1\n1 0 2 0\n")

    def test_clause_count_mismatch(self) -> None:
        with pytest.raises(ParseError):
            parse_cnf("p cnf 2 2\n1 0\n")

    def test_no_content_line(self) -> None:
        with pytest.raises(ParseError, match="empty input"):
            parse_cnf("c only\n")


class TestSetSystemFormat:
    def test_golden_with_special(self) -> None:
        sys, _ = sat_to_setsplitting(XYZ)
        assert serialize_set_system(sys) == (
            "p ss 7 4\nx special 7\ns 2 1 2\ns 2 3 4\ns 2 5 6\ns 4 1 3 5 7\n"
        )

    def test_round_trip_without_special(self) -> None:
        sys = build_set_system(5, [(1, 3), (2, 4, 5)])
        parsed = parse_set_system(serialize_set_system(sys))
        assert parsed == sys
        assert parsed.special is None

    def test_set_order_preserved(self) -> None:
        sys = build_set_system(4, [(3, 4), (1, 2)])
        assert parse_set_system(serialize_set_system(sys)).sets == ((3, 4), (1, 2))

    def test_size_field_mismatch(self) -> None:
        with pytest.raises(ParseError):
            parse_set_system("p ss 3 1\ns 3 1 2\n")

    def test_duplicate_special(self) -> None:
        with pytest.raises(ParseError):
            parse_set_system("p ss 3 0\nx special 1\nx special 2\n")


class TestDigraphFormat:
    def test_golden(self) -> None:
        assert serialize_digraph(TWO_CYCLE) == "p dg 2 2\na 1 2\na 2 1\n"

    def test_arc_order_preserved(self) -> None:
        digraph = build_digraph(3, [(3, 1), (1, 2), (2, 3)])
        assert parse_digraph(serialize_digraph(digraph)).arcs == (
            (3, 1),
            (1, 2),
            (2, 3),
        )

    def test_arc_count_mismatch(self) -> None:
        with pytest.raises(ParseError):
            parse_digraph("p dg 2 2\na 1 2\n")


# Malformed `p cnf`, `p ss` and `p dg` texts, each with the line and the
# message of its ParseError: bad counts, bad line rules, a line error that
# comes before the count check, and build errors reported at the header.
MALFORMED_INSTANCES = [
    (parse_cnf, "p cnf 2 2\n1 0\n", 1, "header declares 2 clauses, found 1"),
    (parse_cnf, "c x\np cnf 2 1\n1 2\n", 3, "clause line must end with 0"),
    (parse_cnf, "p cnf 2 1\n1 0 2 0\n", 2, "literal 0 inside a clause"),
    (parse_cnf, "p cnf 2 1\n1 y 0\n", 2, "expected an integer, got 'y'"),
    (parse_cnf, "p cnf 2\n", 1, "'p cnf' header wants 2 fields, got 1"),
    (parse_cnf, "p cnf 2 3\n1 2\n", 2, "clause line must end with 0"),
    (parse_cnf, "c x\n\np cnf 2 1\n3 0\n", 3, "clause 1 has bad literal 3"),
    (parse_set_system, "p ss 3 0\nx special 1\nx special 2\n", 3,
     "duplicate 'x special' line"),
    (parse_set_system, "p ss 3 1\ns 3 1 2\n", 2, "set declares 3 elements, lists 2"),
    (parse_set_system, "p ss 3 1\ns\n", 2, "expected 's <size> <elements...>'"),
    (parse_set_system, "p ss 3 1\ns two 1 2\n", 2, "expected an integer, got 'two'"),
    (parse_set_system, "p ss 3 0\nx spec 1\n", 2, "expected 'x special <element>'"),
    (parse_set_system, "p ss 3 1\nt 1\n", 2, "unexpected line kind 't'"),
    (parse_set_system, "p ss 3 2\ns 1 1\n", 1, "header declares 2 sets, found 1"),
    (parse_set_system, "c x\np ss 3 1\nx special 4\ns 1 1\n", 2,
     "special element 4 out of range"),
    (parse_set_system, "c x\np ss 3 1\ns 1 5\n", 2,
     "set 1 element 5 out of range 1..3"),
    (parse_digraph, "p dg 2 1\na 1\n", 2, "expected 'a <from> <to>'"),
    (parse_digraph, "p dg 2 1\nb 1 2\n", 2, "expected 'a <from> <to>'"),
    (parse_digraph, "p dg 2 1\na 1 z\n", 2, "expected an integer, got 'z'"),
    (parse_digraph, "p dg 2 2\na 1 2\n", 1, "header declares 2 arcs, found 1"),
    (parse_digraph, "p dg 2 5\na 1\n", 2, "expected 'a <from> <to>'"),
    (parse_digraph, "c x\np dg 2 1\na 1 3\n", 2, "arc (1, 3) out of range 1..2"),
    (parse_digraph, "c x\np dg 2 2\na 1 2\na 1 2\n", 2, "duplicate arc (1, 2)"),
    (parse_digraph, "p ss 2 0\n", 1, "expected 'p dg' header"),
]


class TestInstanceErrors:
    @pytest.mark.parametrize("parse, text, line, message", MALFORMED_INSTANCES)
    def test_message_and_line(self, parse, text, line, message) -> None:
        with pytest.raises(ParseError) as err:
            parse(text, "in")
        assert (err.value.line, str(err.value)) == (line, f"in:{line}: {message}")


class TestUndecodableBytes:
    """Every parser takes UTF-8 bytes; a byte that is not UTF-8 is a
    ParseError at its line, not a UnicodeDecodeError."""

    @pytest.mark.parametrize(
        "parse, data, line",
        [
            (parse_signed_graph, b"c \xff\np sg 2 1 0\ne + 1 2\n", 1),
            (parse_signed_graph, b"p sg 2 1 0\nc x\xc3\ne + 1 2\n", 2),
            (parse_signed_graph, b"p sg 2 1 0\ne + 1 2\xe9\n", 2),
            (parse_signed_graph, b"p sg 2 0 0\n\xed\xa0\x80\n", 2),
            (parse_cnf, b"p cnf 1 1\n" + b"c pad\n" * 2000 + b"1 0 \x80\n", 2002),
            (parse_ordering_cert, b"o 1\n\xc3", 2),
            (parse_model_cert, b"\n\ni 1 0 \xfe\n", 3),
            (parse_partition_cert, b"part 1 1\npart 2 \xff\n", 2),
            (instance_kind, b"\xff p sg 1 0 0\n", 1),
            (read_mapping, b"p map adp2lce\nx digraph 1 0\n\x80", 3),
        ],
        ids=["sg-before-header", "sg-comment", "sg-edge", "sg-surrogate",
             "cnf-past-first-block", "ordering", "model", "partition",
             "instance-kind", "mapping"],
    )
    def test_parse_error_at_the_line(self, parse, data, line) -> None:
        with pytest.raises(ParseError) as err:
            parse(data, "in")
        assert err.value.line == line
        assert str(err.value).startswith(f"in:{line}: byte 0x")
        assert str(err.value).endswith(" is not valid UTF-8")


class TestOrderingCert:
    def test_golden(self) -> None:
        assert serialize_ordering_cert(Ordering.from_seq([4, 2, 1, 3, 5])) == (
            "o 4 2 1 3 5\n"
        )
        assert serialize_ordering_cert(None) == "o INFEASIBLE\n"

    def test_round_trip(self) -> None:
        assert parse_ordering_cert("o INFEASIBLE\n") is None
        assert tuple(parse_ordering_cert("c hi\no 2 1\n")) == (2, 1)

    def test_bad_permutations(self) -> None:
        for text in ("o 1 1\n", "o 1 3\n", "o 0 1\n", "o x\n"):
            with pytest.raises(ParseError):
                parse_ordering_cert(text)

    def test_requires_single_line(self) -> None:
        with pytest.raises(ParseError):
            parse_ordering_cert("o 1\no 1\n")
        with pytest.raises(ParseError):
            parse_ordering_cert("part 1 1\npart 2\n")


class TestModelCert:
    def test_golden_p3(self) -> None:
        model = ordering_to_model(P3, Ordering.from_seq([1, 2, 3]))
        assert serialize_model_cert(model) == (
            "i 1 1/1 9/4\ni 2 2/1 7/2\ni 3 3/1 15/4\n"
        )

    def test_round_trip_exact(self) -> None:
        model = ordering_to_model(P3, Ordering.from_seq([1, 2, 3]))
        parsed = parse_model_cert(serialize_model_cert(model))
        assert parsed.intervals == model.intervals
        assert isinstance(parsed.intervals[1][0], Fraction)

    def test_rejects_invalid_model(self) -> None:
        # Containment: the second interval swallows the first.
        text = "i 1 2/1 3/1\ni 2 1/1 4/1\n"
        with pytest.raises(ParseError):
            parse_model_cert(text)

    def test_rejects_malformed_fraction(self) -> None:
        with pytest.raises(ParseError):
            parse_model_cert("i 1 1 2/1\n")
        with pytest.raises(ParseError):
            parse_model_cert("i 1 1/0 2/1\n")
        with pytest.raises(ParseError):
            parse_model_cert("i 1 1/-2 2/1\n")

    def test_rejects_duplicate_vertex(self) -> None:
        with pytest.raises(ParseError):
            parse_model_cert("i 1 1/1 2/1\ni 1 3/1 4/1\n")


class TestPartitionCert:
    def test_golden(self) -> None:
        assert serialize_partition_cert(build_partition(2, [1])) == (
            "part 1 1\npart 2 2\n"
        )

    def test_empty_side(self) -> None:
        part = build_partition(2, [1, 2])
        assert serialize_partition_cert(part) == "part 1 1 2\npart 2\n"
        assert parse_partition_cert("part 1 1 2\npart 2\n") == part

    def test_round_trip(self) -> None:
        part = build_partition(6, [2, 4, 5])
        assert parse_partition_cert(serialize_partition_cert(part)) == part

    def test_rejects_overlap_and_gaps(self) -> None:
        with pytest.raises(ParseError):
            parse_partition_cert("part 1 1 2\npart 2 2\n")
        with pytest.raises(ParseError):
            parse_partition_cert("part 1 1\npart 2 3\n")
        with pytest.raises(ParseError):
            parse_partition_cert("part 1 1\n")
        with pytest.raises(ParseError):
            parse_partition_cert("part 3 1\npart 2 2\n")


class TestSplitterCert:
    def test_golden(self) -> None:
        assert serialize_splitter_cert(SplitterSolution(frozenset({6, 1, 4}))) == (
            "x 1 4 6\n"
        )

    def test_empty(self) -> None:
        assert serialize_splitter_cert(SplitterSolution(frozenset())) == "x\n"
        assert parse_splitter_cert("x\n").chosen == frozenset()

    def test_round_trip(self) -> None:
        x = SplitterSolution(frozenset({2, 3, 7}))
        assert parse_splitter_cert(serialize_splitter_cert(x)) == x

    def test_rejects_repeats(self) -> None:
        with pytest.raises(ParseError):
            parse_splitter_cert("x 1 1\n")


class TestAssignmentCert:
    def test_golden(self) -> None:
        assert serialize_assignment_cert(Assignment((True, False, False))) == (
            "v 1 -2 -3 0\n"
        )

    def test_round_trip(self) -> None:
        psi = Assignment((False, True, True, False))
        assert parse_assignment_cert(serialize_assignment_cert(psi)) == psi

    def test_rejects_gaps_repeats_and_missing_zero(self) -> None:
        with pytest.raises(ParseError):
            parse_assignment_cert("v 1 -3 0\n")
        with pytest.raises(ParseError):
            parse_assignment_cert("v 1 -1 0\n")
        with pytest.raises(ParseError):
            parse_assignment_cert("v 1 2\n")


class TestMappingFormat:
    def test_not_a_mapping(self) -> None:
        with pytest.raises(TypeError, match="not a mapping object"):
            serialize_mapping(XYZ)

    def test_golden_adp2lce(self) -> None:
        _, mapping = adp_to_lce(TWO_CYCLE)
        assert serialize_mapping(mapping) == (
            "p map adp2lce\n"
            "x digraph 2 2\n"
            "map 1 s\n"
            "map 2 checker 1 2\n"
            "map 3 checker 2 1\n"
            "map 4 align 1\n"
            "map 5 align 2\n"
        )

    def test_golden_sat2ss(self) -> None:
        _, mapping = sat_to_setsplitting(XYZ)
        assert serialize_mapping(mapping) == (
            "p map sat2ss\n"
            "x vars 3\n"
            "x clauses 1\n"
            "x special 7\n"
            "map 1 lit 1\n"
            "map 2 lit -1\n"
            "map 3 lit 2\n"
            "map 4 lit -2\n"
            "map 5 lit 3\n"
            "map 6 lit -3\n"
            "map 1 varset 1\n"
            "map 2 varset 2\n"
            "map 3 varset 3\n"
            "map 4 clauseset 1\n"
            "src 1 2 3 0\n"
        )

    def test_round_trip_each_stage(self) -> None:
        _, m1 = sat_to_setsplitting(XYZ)
        sys, _ = sat_to_setsplitting(XYZ)
        _, m2 = setsplitting_to_adp(sys)
        _, m3 = adp_to_lce(TWO_CYCLE)
        for mapping in (m1, m2, m3):
            assert parse_mapping(serialize_mapping(mapping)) == mapping

    def test_round_trip_composed(self) -> None:
        _, mapping = sat_to_lce(XYZ)
        assert parse_mapping(serialize_mapping(mapping)) == mapping

    def test_rejects_wrong_stage_order(self) -> None:
        _, mapping = sat_to_lce(XYZ)
        text = serialize_mapping(mapping.ss2adp) + serialize_mapping(mapping.sat2ss)
        with pytest.raises(ParseError):
            parse_mapping(text)

    def test_rejects_content_before_header(self) -> None:
        with pytest.raises(ParseError):
            parse_mapping("x universe 2\np map ss2adp\n")

    def test_rejects_inconsistent_lit_line(self) -> None:
        _, mapping = sat_to_setsplitting(XYZ)
        text = serialize_mapping(mapping).replace("map 3 lit 2", "map 3 lit -2")
        with pytest.raises(ParseError):
            parse_mapping(text)

    def test_rejects_checker_gap(self) -> None:
        _, mapping = adp_to_lce(TWO_CYCLE)
        text = serialize_mapping(mapping).replace("map 3 checker 2 1\n", "")
        with pytest.raises(ParseError):
            parse_mapping(text)

    def test_rejects_off_scheme_membership_vertex(self) -> None:
        """Fails if parse_mapping returns the rebuilt mapping without
        comparing the file's lines to it: the vertex number of a `c` line
        is not part of the section's source."""
        sys, _ = sat_to_setsplitting(XYZ)
        _, mapping = setsplitting_to_adp(sys)
        text = serialize_mapping(mapping)
        assert "map 8 c 1 1\n" in text
        with pytest.raises(ParseError) as caught:
            parse_mapping(text.replace("map 8 c 1 1\n", "map 9 c 1 1\n"), "m.map")
        assert caught.value.line == 10
        assert "expected 'map 8 c 1 1', got 'map 9 c 1 1'" in str(caught.value)

    def test_comments_blank_lines_and_tabs_do_not_count(self) -> None:
        _, mapping = sat_to_lce(XYZ)
        lines = serialize_mapping(mapping).splitlines()
        text = "c written by hand\n\n" + "".join(
            "\t" + line.replace(" ", " \t ") + "  \n" + ("c note\n\n" if i % 3 else "")
            for i, line in enumerate(lines)
        )
        assert parse_mapping(text) == parse_mapping("\n".join(lines)) == mapping

    @pytest.mark.parametrize("where", ["file"])
    def test_commented_chain_is_reduced_once(self, monkeypatch, where) -> None:
        """A valid chain mapping with a `c note` line in front of the whole
        file runs the sat2lce reduction once: the byte shortcut stops at the
        first line, before it reduces anything."""
        _, mapping = sat_to_lce(XYZ)
        text = "c note\n" + serialize_mapping(mapping)
        calls: list[int] = []

        def counted(cnf):
            calls.append(1)
            return sat_to_lce(cnf)

        monkeypatch.setattr(reductions, "sat_to_lce", counted)
        assert parse_mapping(text) == mapping
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "old, new, line, expected",
        [
            # Fails if the SelfLoopError of adp_to_lce escapes parse_mapping
            # instead of becoming a ParseError at the section header.
            ("checker 2 1", "checker 2 2", 1, "self-loop"),
            # Fails if the checker arcs become a Digraph without build_digraph:
            # the gadget of a repeated arc repeats no edge.
            ("checker 2 1", "checker 1 2", 1, "duplicate arc"),
            ("map 5 align 2\n", "", 6, "got the end"),
            ("align 2\n", "align 2\nmap 6 align 3\n", 8, "expected the end"),
            ("x digraph 2 2", "x digraph x 2", 2, "integer"),
            ("x digraph 2 2", "x digraph 99 2", 2, "declares 99"),
            ("p map adp2lce", "p map adp", 1, "unknown"),
        ],
        ids=[
            "self-loop", "repeated-arc", "short", "long", "not-an-integer",
            "too-many-vertices", "stage",
        ],
    )
    def test_rejects_edited_adp2lce(self, old, new, line, expected) -> None:
        _, mapping = adp_to_lce(TWO_CYCLE)
        text = serialize_mapping(mapping)
        assert old in text
        with pytest.raises(ParseError) as caught:
            parse_mapping(text.replace(old, new), "m.map")
        assert caught.value.line == line and expected in str(caught.value)


class TestInstanceKind:
    def test_detects_all_kinds(self) -> None:
        assert instance_kind("c x\np sg 1 0 0\n") == "sg"
        assert instance_kind("p cnf 1 0\n") == "cnf"
        assert instance_kind("p ss 1 0\n") == "ss"
        assert instance_kind("p dg 1 0\n") == "dg"
        assert instance_kind("p map sat2ss\n") == "map"

    def test_rejects_missing_header(self) -> None:
        with pytest.raises(ParseError):
            instance_kind("e + 1 2\n")
        with pytest.raises(ParseError):
            instance_kind("c only comments\n")
