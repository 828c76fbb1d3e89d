"""Command line interface: exit codes, certificate plumbing, determinism."""

from __future__ import annotations

import functools
import hashlib
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lineembed.cli
import lineembed.core
import lineembed.formats
import lineembed.intervals
import lineembed.reductions
import lineembed.solvers
from lineembed.cli import main
from lineembed.formats import (
    parse_cnf,
    parse_model_cert,
    parse_ordering_cert,
    parse_signed_graph,
    serialize_cnf,
    serialize_mapping,
    serialize_ordering_cert,
)
from lineembed.generators import gen_random_cnf
from lineembed.intervals import IntervalModel
from lineembed.reductions import (
    Assignment,
    adp_solution_to_lce_ordering,
    sat_solution_to_setsplitting,
    sat_to_lce,
    sat_to_setsplitting,
    setsplitting_solution_to_adp,
)

from oracles import parse_mapping

P3_TEXT = "p sg 3 2 1\ne + 1 2\ne + 2 3\ne - 1 3\n"
CLAW_TEXT = (
    "p sg 4 3 3\n"
    "e + 1 2\ne + 1 3\ne + 1 4\n"
    "e - 2 3\ne - 2 4\ne - 3 4\n"
)
XYZ_TEXT = "p cnf 3 1\n1 2 3 0\n"
TWO_CYCLE_TEXT = "p dg 2 2\na 1 2\na 2 1\n"
# Per reduction stage: a source instance, a certificate of a kind that
# stage's lift does not take, and the name of the kind it does take.
STAGE_CASES = {
    "sat2ss": (XYZ_TEXT, "o 1\n", "splitter"),
    "ss2adp": ("p ss 2 1\ns 2 1 2\n", "x 1\n", "partition"),
    "adp2lce": (TWO_CYCLE_TEXT, "part 1 1\npart 2 2\n", "ordering"),
    "sat2lce": ("p cnf 1 1\n1 0\n", "v 1 0\n", "ordering"),
}
# Instances on which the identity ordering 1 2 3 is infeasible.
SPARSE_TEXT = "p sg 3 1 1\ne + 1 3\ne - 2 3\n"
COMPLETE_TEXT = "p sg 3 1 2\ne + 1 3\ne - 1 2\ne - 2 3\n"
# Outputs recorded from the program, compared byte for byte.
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def negative_path_text(n: int) -> str:
    """A path of negative edges on 1..n: connected, and every prefix set is
    reachable, so the subset DP's frontier grows as C(n, k)."""
    return f"p sg {n} 0 {n - 1}\n" + "".join(f"e - {v} {v + 1}\n" for v in range(1, n))


class TestSolve:
    def test_auto_complete_route(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "p3.sg", P3_TEXT)
        rc, out, _ = run(capsys, "solve", inst)
        assert rc == 0
        ordering = parse_ordering_cert(out)
        assert ordering is not None and len(ordering) == 3

    def test_dp_frozen(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "p3.sg", P3_TEXT)
        rc, out, _ = run(capsys, "solve", inst, "--algo", "dp")
        assert rc == 0
        assert out == "o 3 2 1\n"

    def test_infeasible_both_routes(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "claw.sg", CLAW_TEXT)
        for algo in ("auto", "dp", "brute", "complete"):
            rc, out, _ = run(capsys, "solve", inst, "--algo", algo)
            assert rc == 0
            assert out == "o INFEASIBLE\n"

    def test_out_file(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "p3.sg", P3_TEXT)
        dest = tmp_path / "cert.txt"
        rc, out, _ = run(capsys, "solve", inst, "--out", str(dest))
        assert rc == 0 and out == ""
        assert parse_ordering_cert(dest.read_text()) is not None

    def test_model_output_verifies(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "p3.sg", P3_TEXT)
        model_path = tmp_path / "model.txt"
        rc, _, _ = run(capsys, "solve", inst, "--model", str(model_path))
        assert rc == 0
        parse_model_cert(model_path.read_text())
        rc, out, _ = run(capsys, "verify", inst, str(model_path))
        assert rc == 0 and out == "VALID\n"

    def test_model_on_infeasible_is_usage_error(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "claw.sg", CLAW_TEXT)
        rc, _, err = run(capsys, "solve", inst, "--model", str(tmp_path / "m"))
        assert rc == 2 and "error" in err

    def test_model_needs_a_complete_graph(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "inc.sg", SPARSE_TEXT)
        model = tmp_path / "m"
        rc, out, err = run(capsys, "solve", inst, "--model", str(model))
        assert (rc, out) == (2, "") and not model.exists()
        assert err == "error: --model needs a complete signed graph\n"

    def test_memory_error_is_caught(self, tmp_path, capsys, monkeypatch) -> None:
        """An allocation that no prediction refused still exits 4 with one
        line, the safety net of main."""
        def exhausted(text, source=None):
            raise MemoryError

        monkeypatch.setattr(lineembed.cli, "parse_signed_graph", exhausted)
        rc, out, err = run(capsys, "solve", write(tmp_path, "p3.sg", P3_TEXT))
        assert (rc, out) == (4, "")
        assert err == "error: instance needs more memory than is available\n"

    def test_complete_algo_needs_complete_graph(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "path.sg", "p sg 3 1 0\ne + 1 2\n")
        rc, _, err = run(capsys, "solve", inst, "--algo", "complete")
        assert rc == 2 and "complete" in err

    def test_brute_cap(self, tmp_path, capsys) -> None:
        rc, out, _ = run(
            capsys, "gen", "random-sg", "--n", "11", "--seed", "4",
            "--out", str(tmp_path / "big.sg"),
        )
        assert rc == 0
        rc, _, err = run(capsys, "solve", str(tmp_path / "big.sg"), "--algo", "brute")
        assert rc == 4 and "cap" in err
        rc, _, _ = run(
            capsys, "solve", str(tmp_path / "big.sg"), "--algo", "brute",
            "--cap", "11",
        )
        assert rc == 0

    @pytest.mark.parametrize("algo", ["dp", "brute"])
    def test_negative_cap_is_usage_error(self, tmp_path, capsys, algo) -> None:
        """Fails if --cap -1 reaches the solver, which refused the instance
        as over its cap with exit 4."""
        inst = write(tmp_path, "p3.sg", P3_TEXT)
        rc, out, err = run(capsys, "solve", inst, "--algo", algo, "--cap", "-1")
        assert rc == 2 and out == ""
        assert err == "error: --cap must be at least 0\n"

    def test_dp_table_beyond_memory(self, tmp_path, capsys, monkeypatch) -> None:
        # Under the 64-vertex cap, but with 16 MB available the path's fourth
        # layer cannot fit; the refusal is the layer prediction's, not a
        # MemoryError, and surfaces as a clean resource error.
        monkeypatch.setattr(lineembed.solvers, "_available_bytes", lambda: 16 * 2**20)
        inst = write(tmp_path, "path.sg", negative_path_text(58))
        rc, out, err = run(capsys, "solve", inst, "--algo", "dp")
        assert rc == 4 and out == ""
        assert "layer 4" in err and "memory" in err and "Traceback" not in err

    @pytest.mark.parametrize("algo", ["auto", "dp"])
    @pytest.mark.parametrize("n", [63, 64])
    def test_dp_table_size_refused_in_a_fresh_process(self, tmp_path, n, algo) -> None:
        # Under AS_LIMIT the path's fifth layer, C(n, 4) sets, is predicted
        # not to fit: exit 4 and a one-line error, no traceback.
        inst = write(tmp_path, "path.sg", negative_path_text(n))
        proc = run_under_limit(AS_LIMIT, "solve", "--algo", algo, inst)
        assert proc.returncode == 4 and proc.stdout == ""
        assert "layer 5" in proc.stderr and "memory" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_component_beyond_64_vertices_refused(self, tmp_path) -> None:
        # --cap 70 admits n = 65, but a 65-vertex component does not fit the
        # frontier's uint64 sets: exit 4 and a one-line error, no traceback.
        inst = write(tmp_path, "path.sg", negative_path_text(65))
        proc = run_under_limit(AS_LIMIT, "solve", "--cap", "70", inst)
        assert proc.returncode == 4 and proc.stdout == ""
        assert "65-vertex component" in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_sparse_frontier_refused_in_a_fresh_process(self, tmp_path) -> None:
        # A 39-vertex sparse component whose reachable sets explode: without
        # the per-layer prediction this is killed by the kernel.
        rc = main(["gen", "random-sg", "--n", "40", "--p-pos", "0.05",
                   "--p-neg", "0.05", "--seed", "40", "--out", str(tmp_path / "r.sg")])
        assert rc == 0
        proc = run_under_limit(AS_LIMIT, "solve", str(tmp_path / "r.sg"))
        assert proc.returncode == 4 and proc.stdout == ""
        assert "memory" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "n, algo, cap, expected",
        [
            (2000, "brute", 5000, "recursion reach"),
            (100000000, "brute", 200000000, "recursion reach"),
            (100000000, "dp", 200000000, "MB available"),
        ],
        ids=["brute-2000", "brute-10^8", "dp-10^8"],
    )
    def test_raised_cap_refused_in_a_fresh_process(
        self, tmp_path, n, algo, cap, expected
    ) -> None:
        """A --cap above what the solver can reach is refused: exit 4 and a
        one-line error.  Fails if the brute force recursion ends in a
        RecursionError traceback (exit 1), or if either solver builds its
        per-vertex lists first and ends in the MemoryError net."""
        inst = write(tmp_path, "edgeless.sg", f"p sg {n} 0 0\n")
        proc = run_under_limit(AS_LIMIT, "solve", "--algo", algo, "--cap", str(cap), inst)
        assert proc.returncode == 4 and proc.stdout == ""
        assert expected in proc.stderr and "than is available" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_many_components_solve(self, tmp_path, capsys) -> None:
        # 60 isolated vertices: 60 one-vertex frontiers, not a 2^60 table.
        inst = write(tmp_path, "edgeless.sg", "p sg 60 0 0\n")
        rc, out, _ = run(capsys, "solve", inst)
        assert rc == 0 and out == "o " + " ".join(map(str, range(60, 0, -1))) + "\n"
        cert = write(tmp_path, "edgeless.ord", out)
        rc, out, _ = run(capsys, "verify", inst, cert)
        assert rc == 0 and out == "VALID\n"

    def test_missing_file(self, capsys) -> None:
        rc, _, err = run(capsys, "solve", "/nonexistent/file.sg")
        assert rc == 2 and "cannot read" in err

    def test_malformed_instance(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "bad.sg", "p sg 2 1 0\ne + 1\n")
        rc, _, err = run(capsys, "solve", inst)
        assert rc == 3 and "bad.sg" in err

    def test_two_character_sign_exits_three(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "bad.sg", "p sg 2 0 1\ne +- 1 2\n")
        rc, out, err = run(capsys, "solve", inst)
        assert rc == 3 and out == ""
        assert "bad.sg:2: edge sign must be + or -, got '+-'" in err


class TestVerify:
    def test_ordering_valid(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "p3.sg", P3_TEXT)
        cert = write(tmp_path, "ok.cert", "o 1 2 3\n")
        rc, out, _ = run(capsys, "verify", inst, cert)
        assert rc == 0 and out == "VALID\n"

    def test_ordering_invalid_names_the_witness(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "p3.sg", P3_TEXT)
        cert = write(tmp_path, "bad.cert", "o 2 1 3\n")
        rc, out, _ = run(capsys, "verify", inst, cert)
        assert rc == 1
        assert out.startswith("INVALID") and "vertex 3" in out

    def test_ordering_wrong_length(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "p3.sg", P3_TEXT)
        cert = write(tmp_path, "short.cert", "o 2 1\n")
        rc, _, err = run(capsys, "verify", inst, cert)
        assert rc == 3 and "3" in err

    def test_infeasibility_claim_rejected(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "p3.sg", P3_TEXT)
        cert = write(tmp_path, "claim.cert", "o INFEASIBLE\n")
        rc, _, err = run(capsys, "verify", inst, cert)
        assert rc == 2 and "infeasibility" in err

    def test_model_validated_once(self, tmp_path, capsys, monkeypatch) -> None:
        inst = write(tmp_path, "p3.sg", P3_TEXT)
        model = str(tmp_path / "p3.model")
        assert run(capsys, "solve", inst, "--model", model)[0] == 0
        calls: list[int] = []
        check = IntervalModel._sound.func

        def counted(self):
            calls.append(1)
            return check(self)

        counted_property = functools.cached_property(counted)
        counted_property.__set_name__(IntervalModel, "_sound")
        monkeypatch.setattr(IntervalModel, "_sound", counted_property)
        rc, out, _ = run(capsys, "verify", inst, model)
        assert (rc, out, len(calls)) == (0, "VALID\n", 1)

    def test_model_against_incomplete(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "sparse.sg", "p sg 2 0 0\n")
        cert = write(tmp_path, "m.cert", "i 1 1/1 3/2\ni 2 2/1 5/2\n")
        rc, out, _ = run(capsys, "verify", inst, cert)
        assert rc == 1 and "INVALID" in out

    def test_model_size_mismatch(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "p3.sg", P3_TEXT)
        cert = write(tmp_path, "m.cert", "i 1 1/1 3/2\ni 2 2/1 5/2\n")
        rc, _, _ = run(capsys, "verify", inst, cert)
        assert rc == 3

    def test_empty_graph_model_round_trip(self, tmp_path, capsys) -> None:
        """solve --model on the 0-vertex graph writes the empty model, and
        verify accepts it.  Fails if verify reads the certificate's kind
        from a first line that the empty model does not have."""
        inst = write(tmp_path, "e.sg", "p sg 0 0 0\n")
        model = str(tmp_path / "e.model")
        assert run(capsys, "solve", inst, "--model", model)[:2] == (0, "o\n")
        assert Path(model).read_text() == "\n"
        assert run(capsys, "verify", inst, model)[:2] == (0, "VALID\n")

    @pytest.mark.parametrize("text", ["", "c no content line\n"])
    def test_empty_certificate_for_a_3_vertex_graph(self, tmp_path, capsys, text) -> None:
        """Read as the empty model, a certificate with no content line does
        not fit a 3-vertex instance: exit 3 on one line."""
        inst = write(tmp_path, "p3.sg", P3_TEXT)
        cert = write(tmp_path, "empty.cert", text)
        rc, out, err = run(capsys, "verify", inst, cert)
        assert (rc, out) == (3, "") and err.count("\n") == 1
        assert "model covers 0 vertices, instance has 3" in err

    def test_empty_certificate_for_other_kinds(self, tmp_path, capsys) -> None:
        """Only an sg instance reads an empty certificate as a model: verify
        against a digraph, and lift, still refuse it as empty."""
        inst = write(tmp_path, "d.dg", TWO_CYCLE_TEXT)
        mapping = str(tmp_path / "g.map")
        assert run(capsys, "reduce", "adp2lce", inst, "--map", mapping)[0] == 0
        cert = write(tmp_path, "empty.cert", "")
        for argv in (("verify", inst, cert), ("lift", mapping, cert)):
            rc, out, err = run(capsys, *argv)
            assert (rc, out) == (3, "") and "empty certificate" in err

    def test_splitter(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "s.ss", "p ss 3 2\ns 2 1 2\ns 2 2 3\n")
        good = write(tmp_path, "good.cert", "x 2\n")
        bad = write(tmp_path, "bad.cert", "x 1\n")
        foreign = write(tmp_path, "foreign.cert", "x 9\n")
        assert run(capsys, "verify", inst, good)[:2] == (0, "VALID\n")
        rc, out, _ = run(capsys, "verify", inst, bad)
        assert rc == 1 and "set 2" in out
        assert run(capsys, "verify", inst, foreign)[0] == 1

    def test_partition(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "d.dg", TWO_CYCLE_TEXT)
        good = write(tmp_path, "good.cert", "part 1 1\npart 2 2\n")
        bad = write(tmp_path, "bad.cert", "part 1 1 2\npart 2\n")
        assert run(capsys, "verify", inst, good)[:2] == (0, "VALID\n")
        rc, out, _ = run(capsys, "verify", inst, bad)
        assert rc == 1 and "cycle" in out

    def test_partition_with_a_repeated_part_line(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "d.dg", TWO_CYCLE_TEXT)
        cert = write(tmp_path, "c.cert", "part 1 1\npart 1 2\npart 2\n")
        rc, out, err = run(capsys, "verify", inst, cert)
        assert (rc, out) == (3, "") and err.count("\n") == 1
        assert err.startswith("error: ") and "duplicate 'part 1' line" in err

    def test_partition_size_mismatch(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "d.dg", TWO_CYCLE_TEXT)
        cert = write(tmp_path, "c.cert", "part 1 1\npart 2 2 3\n")
        assert run(capsys, "verify", inst, cert)[0] == 3

    def test_assignment(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "f.cnf", "p cnf 2 2\n1 2 0\n-1 0\n")
        good = write(tmp_path, "good.cert", "v -1 2 0\n")
        bad = write(tmp_path, "bad.cert", "v 1 -2 0\n")
        short = write(tmp_path, "short.cert", "v 1 0\n")
        assert run(capsys, "verify", inst, good)[:2] == (0, "VALID\n")
        rc, out, _ = run(capsys, "verify", inst, bad)
        assert rc == 1 and "clause 2" in out
        assert run(capsys, "verify", inst, short)[0] == 3

    def test_kind_mismatch(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "f.cnf", XYZ_TEXT)
        cert = write(tmp_path, "o.cert", "o 1\n")
        rc, _, err = run(capsys, "verify", inst, cert)
        assert rc == 2 and "does not apply" in err


@pytest.mark.parametrize("command", ["verify", "lift"])
def test_repeated_vertex_in_a_large_ordering_is_named(tmp_path, capsys, command) -> None:
    """A 1,000-variable chain's gadget ordering (tens of thousands of
    vertices) with one vertex repeated: exit 3 with one short error line
    naming that vertex.  Fails if the message echoes the whole ordering."""
    cnf = write(tmp_path, "f.cnf", serialize_cnf(gen_random_cnf(1000, 4000, seed=0)))
    gadget, mapping = str(tmp_path / "g.sg"), str(tmp_path / "g.map")
    assert run(capsys, "reduce", "sat2lce", cnf, "--out", gadget, "--map", mapping)[0] == 0
    n = parse_signed_graph(Path(gadget).read_bytes()).n
    cert = write(tmp_path, "g.o", "o " + " ".join(map(str, [*range(1, n), 7])) + "\n")
    rc, out, err = run(capsys, command, gadget if command == "verify" else mapping, cert)
    assert rc == 3 and out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and len(err.encode()) < 200
    assert f"{n} vertices" in err and "vertex 7 repeats" in err


class TestLongToken:
    """A 300,000-character token in any error text is clipped to its first
    40 characters and its length.  Each case fails if the text quotes it
    whole."""

    @pytest.mark.parametrize(
        "argv, bad, code",
        [
            (("verify", "{inst}", "{bad}"), "o 1 2 {long}\n", 3),
            (("solve", "{bad}"), "p sg 2 1 0\ne {long} 1 2\n", 3),
            (("reduce", "ss2adp", "{bad}"), "p ss 2 1\n{long} 1\n", 3),
            (("verify", "{inst}", "{bad}"), "i 1 {long} 1/1\ni 2 0/1 1/1\n", 3),
            (("lift", "{bad}", "{cert}"), "p map {long}\n", 3),
            (("lift", "{bad}", "{cert}"),
             "p map adp2lce\nx digraph 1 0\nmap 1 s\nmap {long}\n", 3),
            (("verify", "{inst}", "{bad}"), "{long} 1\n", 3),
            (("lift", "{map}", "{bad}"), "{long} 1\n", 3),
            (("verify", "{bad}", "{cert}"), "p {long} 1 1\n", 2),
            (("reduce", "sat2ss", "{bad}"), "p {long} 1 1\n", 2),
        ],
        ids=["integer", "edge-sign", "set-system-line-kind", "fraction", "mapping-stage",
             "mapping-line", "verify-certificate-kind", "lift-certificate-kind",
             "verify-instance-kind", "reduce-instance-kind"],
    )
    def test_one_short_line(self, tmp_path, capsys, argv, bad, code) -> None:
        files = {
            "bad": write(tmp_path, "bad", bad.format(long="x" * 300_000)),
            "inst": write(tmp_path, "p.sg", "p sg 2 1 0\ne + 1 2\n"),
            "cert": write(tmp_path, "o.cert", "o 1 2\n"),
            "map": write(
                tmp_path, "d.map", "p map adp2lce\nx digraph 1 0\nmap 1 s\nmap 2 align 1\n"
            ),
        }
        rc, out, err = run(capsys, *(arg.format(**files) for arg in argv))
        assert (rc, out) == (code, "")
        assert err.count("\n") == 1 and len(err.encode()) < 200
        assert re.search(r"x{36}\.\.\.\[300,00\d characters\]'?$", err)


class TestUndecodableInput:
    """A byte that is not UTF-8 is a parse error at its line, in any file
    any command reads.  Each case fails if the decoder's traceback escapes."""

    @pytest.mark.parametrize(
        "argv, bad, line",
        [
            (("solve", "{bad}"), b"c one\np sg 2 1 0\n\xff e + 1 2\n", 3),
            (("verify", "{bad}", "{cert}"), b"p sg 2 1 0\r\ne + 1 2 \xfe\r\n", 2),
            (("verify", "{inst}", "{bad}"), b"o 1\n\xc3", 2),
            (("reduce", "sat2ss", "{bad}"), b"p cnf 1 1\r\r1 0\xe9\n", 3),
            (("lift", "{bad}", "{cert}"), b"p map adp2lce\nx digraph 1 0\n\x80", 3),
            (("lift", "{map}", "{bad}"), b"\n\no 1\xff 2\n", 3),
        ],
        ids=["solve-instance", "verify-instance", "verify-certificate",
             "reduce-instance", "lift-mapping", "lift-certificate"],
    )
    def test_exit_three_at_the_line(self, tmp_path, capsys, argv, bad, line) -> None:
        (tmp_path / "bad").write_bytes(bad)
        files = {
            "bad": str(tmp_path / "bad"),
            "inst": write(tmp_path, "p.sg", "p sg 2 1 0\ne + 1 2\n"),
            "cert": write(tmp_path, "o.cert", "o 1 2\n"),
            "map": write(tmp_path, "d.map", "p map adp2lce\nx digraph 1 0\nmap 1 s\nmap 2 align 1\n"),
        }
        rc, out, err = run(capsys, *(arg.format(**files) for arg in argv))
        assert (rc, out) == (3, "")
        assert err.startswith(f"error: {files['bad']}:{line}: byte 0x")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_ends_read_as_in_text_mode(self, tmp_path, capsys, end) -> None:
        """Files are read as bytes, with CRLF and lone CR line ends made
        newlines as text mode made them.  Fails if lone CRs are kept."""
        inst, cert = tmp_path / "g.sg", tmp_path / "o.cert"
        inst.write_bytes(P3_TEXT.replace("\n", end).encode())
        cert.write_bytes(f"c one{end}o 1 2 3{end}".encode())
        assert run(capsys, "verify", str(inst), str(cert)) == (0, "VALID\n", "")
        assert run(capsys, "solve", str(inst)) == (0, "o 3 2 1\n", "")


class TestReduce:
    def test_sat2ss_golden(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "f.cnf", XYZ_TEXT)
        map_path = tmp_path / "f.map"
        rc, out, _ = run(capsys, "reduce", "sat2ss", inst, "--map", str(map_path))
        assert rc == 0
        assert out == (
            "p ss 7 4\nx special 7\ns 2 1 2\ns 2 3 4\ns 2 5 6\ns 4 1 3 5 7\n"
        )
        _, expected = sat_to_setsplitting(parse_cnf(XYZ_TEXT))
        assert parse_mapping(map_path.read_text()) == expected

    def test_sat2lce_header(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "f.cnf", XYZ_TEXT)
        rc, out, _ = run(capsys, "reduce", "sat2lce", inst)
        assert rc == 0
        assert out.startswith("p sg 48 60 47\n")
        parse_signed_graph(out)

    def test_sat2lce_frozen(self, tmp_path, capsys) -> None:
        """The full gadget and mapping that `reduce sat2lce` writes for
        XYZ_TEXT, byte for byte, as recorded in tests/golden."""
        inst = write(tmp_path, "f.cnf", XYZ_TEXT)
        gadget, mapping = tmp_path / "f.sg", tmp_path / "f.map"
        argv = ["reduce", "sat2lce", inst, "--out", str(gadget), "--map", str(mapping)]
        assert run(capsys, *argv) == (0, "", "")
        assert gadget.read_bytes() == (GOLDEN / "xyz.sat2lce.sg").read_bytes()
        assert mapping.read_bytes() == (GOLDEN / "xyz.sat2lce.map").read_bytes()

    def test_parse_error_names_the_instance_file(self, tmp_path, capsys) -> None:
        """Fails if the instance is parsed under any name but its path."""
        inst = write(tmp_path, "f.cnf", "p cnf 2 1\n1 2\n")
        rc, out, err = run(capsys, "reduce", "sat2ss", inst)
        assert (rc, out) == (3, "")
        assert err == f"error: {inst}:2: clause line must end with 0\n"

    def test_self_loop_is_usage_error(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "loop.dg", "p dg 1 1\na 1 1\n")
        rc, _, err = run(capsys, "reduce", "adp2lce", inst)
        assert rc == 2 and "self-loop" in err

    def test_kind_mismatch(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "d.dg", TWO_CYCLE_TEXT)
        rc, _, err = run(capsys, "reduce", "sat2ss", inst)
        assert rc == 2 and "cnf" in err

    def test_negative_universe(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "neg.ss", "p ss -1 0\n")
        rc, out, err = run(capsys, "reduce", "ss2adp", inst)
        assert (rc, out) == (3, "") and err.count("\n") == 1
        assert err.startswith("error: ") and "universe size -1 is negative" in err

    @pytest.mark.parametrize(
        "stage, text",
        [
            ("sat2ss", "p cnf 99999999999999999999 1\n1 0\n"),
            ("sat2lce", "p cnf 99999999999999999999 1\n1 0\n"),
            ("ss2adp", "p ss 99999999999999999999 1\ns 1 1\n"),
        ],
        ids=["sat2ss", "sat2lce", "ss2adp"],
    )
    def test_huge_header_refused_before_building(self, tmp_path, stage, text) -> None:
        """Set splitting and the ADP digraph are sized before they are built:
        exit 4 naming the memory available.  Fails if the MemoryError safety
        net is what stops the reduction."""
        inst = write(tmp_path, "huge.txt", text)
        proc = run_under_limit(AS_LIMIT, "reduce", stage, inst)
        assert proc.returncode == 4 and proc.stdout == ""
        assert "MB available" in proc.stderr and "than is available" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("n", ["99999999999999999999", "2147483647"])
    def test_gadget_of_2_31_vertices_refused(self, tmp_path, n) -> None:
        """A gadget of 1 + A + V vertices, 2^31 or more, is predicted not to
        fit in memory: exit 4 before any array is built.  Fails if numpy is
        asked for the vertex range, which raises ValueError on the first and
        needs 16 GB on the second."""
        inst = write(tmp_path, "big.dg", f"p dg {n} 0\n")
        proc = run_under_limit(AS_LIMIT, "reduce", "adp2lce", inst)
        assert proc.returncode == 4 and proc.stdout == ""
        assert f"{int(n) + 1} vertices" in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


    def test_gadget_arrays_refused_before_they_are_built(self, tmp_path) -> None:
        """A gadget just under 2^31 vertices, whose edge arrays are predicted
        not to fit the memory limit: exit 4 naming the gadget before numpy
        is asked for them.  Fails if the MemoryError safety net is what
        stops it."""
        inst = write(tmp_path, "big.dg", "p dg 2147483000 0\n")
        proc = run_under_limit(AS_LIMIT, "reduce", "adp2lce", inst)
        assert proc.returncode == 4 and proc.stdout == ""
        assert "gadget would have 2147483001 vertices" in proc.stderr
        assert "MB available" in proc.stderr and "than is available" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


class TestLift:
    def test_adp_chain(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "d.dg", TWO_CYCLE_TEXT)
        gadget = str(tmp_path / "g.sg")
        mapping = str(tmp_path / "g.map")
        cert = str(tmp_path / "g.cert")
        lifted = str(tmp_path / "g.part")
        assert run(
            capsys, "reduce", "adp2lce", inst, "--out", gadget, "--map", mapping
        )[0] == 0
        assert run(capsys, "solve", gadget, "--out", cert)[0] == 0
        rc, _, _ = run(capsys, "lift", mapping, cert, "--out", lifted)
        assert rc == 0
        rc, out, _ = run(capsys, "verify", inst, lifted)
        assert rc == 0 and out == "VALID\n"

    def test_ss_stage_frozen(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "s.ss", "p ss 2 1\ns 2 1 2\n")
        mapping = str(tmp_path / "s.map")
        assert run(capsys, "reduce", "ss2adp", inst, "--map", mapping)[0] == 0
        cert = write(tmp_path, "p.cert", "part 1 1 4\npart 2 2 3\n")
        rc, out, _ = run(capsys, "lift", mapping, cert)
        assert rc == 0 and out == "x 1\n"

    def test_composed_chain_frozen(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "x.cnf", "p cnf 1 1\n1 0\n")
        gadget = str(tmp_path / "x.sg")
        mapping = str(tmp_path / "x.map")
        cert = str(tmp_path / "x.cert")
        assert run(
            capsys, "reduce", "sat2lce", inst, "--out", gadget, "--map", mapping
        )[0] == 0
        assert run(capsys, "solve", gadget, "--out", cert)[0] == 0
        rc, out, _ = run(capsys, "lift", mapping, cert)
        assert rc == 0 and out == "v 1 0\n"
        lifted = write(tmp_path, "x.v", out)
        assert run(capsys, "verify", inst, lifted)[:2] == (0, "VALID\n")

    def test_invalid_cert(self, tmp_path, capsys) -> None:
        inst = write(tmp_path, "d.dg", TWO_CYCLE_TEXT)
        mapping = str(tmp_path / "g.map")
        assert run(capsys, "reduce", "adp2lce", inst, "--map", mapping)[0] == 0
        cert = write(tmp_path, "bad.cert", "o 1 2 3 4 5\n")
        rc, out, _ = run(capsys, "lift", mapping, cert)
        assert rc == 1 and "INVALID" in out

    @pytest.mark.parametrize("stage", ["adp2lce", "sat2lce"])
    def test_infeasibility_claim_rejected(self, tmp_path, capsys, stage) -> None:
        inst = write(tmp_path, "source", STAGE_CASES[stage][0])
        mapping = str(tmp_path / "g.map")
        assert run(capsys, "reduce", stage, inst, "--map", mapping)[0] == 0
        cert = write(tmp_path, "claim.cert", "o INFEASIBLE\n")
        rc, _, err = run(capsys, "lift", mapping, cert)
        assert rc == 2 and "lifted" in err

    @pytest.mark.parametrize("stage", list(STAGE_CASES))
    def test_cert_kind_mismatch(self, tmp_path, capsys, stage) -> None:
        text, wrong, wants = STAGE_CASES[stage]
        inst = write(tmp_path, "source", text)
        mapping = str(tmp_path / "f.map")
        assert run(capsys, "reduce", stage, inst, "--map", mapping)[0] == 0
        cert = write(tmp_path, "wrong.cert", wrong)
        rc, out, err = run(capsys, "lift", mapping, cert)
        assert rc == 2 and out == "" and wants in err

    def test_sat2lce_lift_builds_the_gadget_once(
        self, tmp_path, capsys, monkeypatch
    ) -> None:
        """Fails if lift builds the LCE gadget again after the mapping check
        built it."""
        text = "p cnf 1 1\n1 0\n"
        mapping = str(tmp_path / "x.map")
        assert run(capsys, "reduce", "sat2lce", write(tmp_path, "x.cnf", text),
                   "--map", mapping)[0] == 0
        _, chain = sat_to_lce(parse_cnf(text))
        x = sat_solution_to_setsplitting(Assignment((True,)), chain.sat2ss)
        part = setsplitting_solution_to_adp(x, chain.ss2adp)
        ordering = adp_solution_to_lce_ordering(part, chain.adp2lce)
        cert = write(tmp_path, "x.cert", serialize_ordering_cert(ordering))
        calls = count_calls(monkeypatch, lineembed.reductions, "adp_to_lce")
        assert run(capsys, "lift", mapping, cert) == (0, "v 1 0\n", "")
        assert len(calls) == 1

    def test_memory_refusal_of_the_mapping_rebuild_exits_four(
        self, tmp_path, capsys, monkeypatch
    ) -> None:
        """lift reduces its mapping's source again; a memory refusal there
        exits 4 with reduce's own text.  Fails if the refusal is reported as
        a parse error at the mapping's first line (exit 3)."""
        text = "p cnf 3 2\n1 2 0\n-1 3 0\n"
        inst = write(tmp_path, "f.cnf", text)
        mapping = str(tmp_path / "f.map")
        assert run(capsys, "reduce", "sat2lce", inst, "--map", mapping)[0] == 0
        _, chain = sat_to_lce(parse_cnf(text))
        x = sat_solution_to_setsplitting(Assignment((True, True, True)), chain.sat2ss)
        part = setsplitting_solution_to_adp(x, chain.ss2adp)
        ordering = adp_solution_to_lce_ordering(part, chain.adp2lce)
        cert = write(tmp_path, "f.cert", serialize_ordering_cert(ordering))
        monkeypatch.setattr(lineembed.core, "_available_bytes", lambda: 1000)
        rc, out, err = run(capsys, "reduce", "sat2lce", inst)
        assert (rc, out) == (4, "") and err.startswith("error: the set system of 7 ")
        assert run(capsys, "lift", mapping, cert) == (4, "", err)

    def test_canonical_chain_reads_only_its_first_section(
        self, tmp_path, capsys, monkeypatch
    ) -> None:
        """Lifting through a mapping that is exactly what `reduce --map`
        wrote tokenizes no line past its sat2ss section.  Fails if every
        line of the mapping is read."""
        inst = write(tmp_path, "f.cnf", XYZ_TEXT)
        mapping = tmp_path / "f.map"
        assert run(capsys, "reduce", "sat2lce", inst, "--map", str(mapping))[0] == 0
        _, chain = sat_to_lce(parse_cnf(XYZ_TEXT))
        x = sat_solution_to_setsplitting(Assignment((True, True, True)), chain.sat2ss)
        part = setsplitting_solution_to_adp(x, chain.ss2adp)
        ordering = adp_solution_to_lce_ordering(part, chain.adp2lce)
        cert = write(tmp_path, "x.cert", serialize_ordering_cert(ordering))
        tokenized: list[str] = []
        original = lineembed.formats._tokenized

        def recorded(numbered):
            for no, tokens in original(numbered):
                tokenized.append(" ".join(tokens))
                yield no, tokens

        monkeypatch.setattr(lineembed.formats, "_tokenized", recorded)
        assert run(capsys, "lift", str(mapping), cert) == (0, "v 1 2 3 0\n", "")
        later = serialize_mapping(chain.ss2adp) + serialize_mapping(chain.adp2lce)
        assert any(line[:2] == "o " for line in tokenized)
        assert not set(later.splitlines()).intersection(tokenized)

    def test_invalid_cert_names_the_checkers_reason(self, tmp_path, capsys) -> None:
        """Fails if lift prints a text of its own instead of the reason the
        `verify` checker gives."""
        inst = write(tmp_path, "f.cnf", XYZ_TEXT)
        mapping = str(tmp_path / "f.map")
        assert run(capsys, "reduce", "sat2ss", inst, "--map", mapping)[0] == 0
        cert = write(tmp_path, "x.cert", "x 1\n")
        assert run(capsys, "lift", mapping, cert) == (
            1, "INVALID: set 2 is not split\n", ""
        )

    def test_chain_of_mixed_sections_exits_three(self, tmp_path, capsys) -> None:
        """A chain whose sat2ss section comes from `1 0` and whose other two
        sections come from `-1 0`, with a valid ordering of the `-1 0`
        gadget.  Fails if parse_mapping rebuilds each section of a chain from
        that section's own source instead of all three from the sat2ss one;
        the lift then reaches its own check of the assignment and exits 5."""
        _, ours = sat_to_lce(parse_cnf("p cnf 1 1\n1 0\n"))
        _, theirs = sat_to_lce(parse_cnf("p cnf 1 1\n-1 0\n"))
        mapping = write(
            tmp_path,
            "mixed.map",
            serialize_mapping(ours.sat2ss)
            + serialize_mapping(theirs.ss2adp)
            + serialize_mapping(theirs.adp2lce),
        )
        x = sat_solution_to_setsplitting(Assignment((False,)), theirs.sat2ss)
        part = setsplitting_solution_to_adp(x, theirs.ss2adp)
        ordering = adp_solution_to_lce_ordering(part, theirs.adp2lce)
        cert = write(tmp_path, "x.cert", serialize_ordering_cert(ordering))
        out = tmp_path / "x.v"
        rc, stdout, err = run(capsys, "lift", mapping, cert, "--out", str(out))
        assert rc == 3 and f"{mapping}:17: expected 'map 6 c 2 1'" in err
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize(
        "old, new",
        [
            ("p map adp2lce", "p map sat2ss"),
            ("p map adp2lce", "p map adp2lce extra"),
            ("p map adp2lce\n", "x digraph 2 2\np map adp2lce\n"),
            ("x digraph 2 2", "x digraph -1 2"),
            ("x digraph 2 2", "x digraph 1000000000000 2"),
            ("map 1 s", "map 1 s 1"),
            ("checker 2 1", "checker 2 2"),
            ("checker 2 1", "checker 1 2"),
            ("checker 2 1", "checker 2 one"),
            ("map 5 align 2\n", ""),
            ("map 5 align 2\n", "map 5 align 2\nmap 6 align 3\n"),
        ],
        ids=[
            "stage-section-mismatch", "bad-header", "content-before-header",
            "negative-size", "huge-size", "extra-token", "self-loop",
            "repeated-arc", "not-an-integer", "short", "long",
        ],
    )
    def test_malformed_mapping_exits_three_with_line(
        self, tmp_path, capsys, old, new
    ) -> None:
        inst = write(tmp_path, "d.dg", TWO_CYCLE_TEXT)
        mapping = str(tmp_path / "g.map")
        assert run(capsys, "reduce", "adp2lce", inst, "--map", mapping)[0] == 0
        text = Path(mapping).read_text()
        assert old in text
        Path(mapping).write_text(text.replace(old, new))
        cert = write(tmp_path, "g.cert", "o 4 2 1 3 5\n")
        rc, stdout, err = run(capsys, "lift", mapping, cert)
        assert rc == 3 and re.match(rf"error: {re.escape(mapping)}:\d+: ", err), err
        assert stdout == ""


# Runs the CLI with a fault patched into it: argv[1] names the fault, the
# rest is the command line.
FAULT_DRIVER = """
import sys
from fractions import Fraction
import lineembed.cli as cli
import lineembed.reductions as reductions
from lineembed.core import Ordering
from lineembed.intervals import IntervalModel
from lineembed.reductions import Assignment

def identity(g, cap=None):
    return Ordering.from_seq(range(1, g.n + 1))

def disjoint_intervals(g, ordering):
    return IntervalModel({v: (Fraction(v), v + Fraction(1, 2)) for v in ordering})

def all_false(ordering, mapping):
    return Assignment((False,) * mapping.sat2ss.cnf.num_vars)

if sys.argv[1] == "solver":
    cli.solve_complete = cli.solve_subset_dp = cli.solve_bruteforce = identity
elif sys.argv[1] == "model":
    cli.ordering_to_model = disjoint_intervals
else:
    reductions.lift_lce_to_sat = all_false
sys.exit(cli.main(sys.argv[2:]))
"""


def run_python(flags: list[str], *args: str):
    """Run a fresh interpreter that imports this package from source."""
    env = dict(os.environ)
    src = str(Path(lineembed.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def run_with_fault(flags: list[str], fault: str, *argv: str):
    return run_python(flags, "-c", FAULT_DRIVER, fault, *argv)


# Runs the CLI under an address-space soft limit: argv[1] is the limit in
# bytes, the rest is the command line.
AS_LIMITED_CLI = """
import resource
import sys
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
limit = int(sys.argv[1])
if hard != resource.RLIM_INFINITY:
    limit = min(limit, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
import lineembed.cli as cli
sys.exit(cli.main(sys.argv[2:]))
"""


# The address-space limit of the refusal tests: room for the interpreter
# and numpy (about 140 MB) and a few small layers, not for the fifth layer of
# a 63- or 64-vertex negative path (predicted at 314 and 355 MB).
AS_LIMIT = 256 * 2**20


def run_under_limit(limit: int, *argv: str):
    return run_python([], "-c", AS_LIMITED_CLI, str(limit), *argv)


def count_calls(monkeypatch, owner, attr: str) -> list[int]:
    """Count calls of owner.attr through every lineembed module binding it."""
    calls: list[int] = []
    original = getattr(owner, attr)

    def counted(*args):
        calls.append(1)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lineembed":
            if getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def check_calls(monkeypatch) -> tuple[list[int], list[int]]:
    """Count calls of verify_embedding and of is_umbrella_ordering, which
    checks an ordering of a complete graph, through every lineembed module."""
    return (
        count_calls(monkeypatch, lineembed.core, "verify_embedding"),
        count_calls(monkeypatch, lineembed.intervals, "is_umbrella_ordering"),
    )


class TestCertificateChecks:
    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
    @pytest.mark.parametrize(
        "fault, text, with_model, problem",
        [
            ("solver", SPARSE_TEXT, False, "ordering certificate"),
            ("solver", COMPLETE_TEXT, False, "ordering certificate"),
            ("solver", COMPLETE_TEXT, True, "ordering certificate"),
            ("model", COMPLETE_TEXT, True, "interval model certificate"),
        ],
        ids=["dp", "complete", "complete-model", "model"],
    )
    def test_solve_fault_exits_five(
        self, tmp_path, flags, fault, text, with_model, problem
    ) -> None:
        inst = write(tmp_path, "g.sg", text)
        out, model = tmp_path / "g.cert", tmp_path / "g.model"
        argv = ["solve", inst, "--out", str(out)]
        if with_model:
            argv += ["--model", str(model)]
        proc = run_with_fault(flags, fault, *argv)
        assert proc.returncode == 5, proc.stderr
        assert problem in proc.stderr
        assert proc.stdout == ""
        assert not out.exists() and not model.exists()

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
    def test_lift_fault_exits_five(self, tmp_path, capsys, flags) -> None:
        text = "p cnf 1 1\n1 0\n"
        mapping = str(tmp_path / "x.map")
        inst = write(tmp_path, "x.cnf", text)
        assert run(capsys, "reduce", "sat2lce", inst, "--map", mapping)[0] == 0
        _, chain = sat_to_lce(parse_cnf(text))
        x = sat_solution_to_setsplitting(Assignment((True,)), chain.sat2ss)
        part = setsplitting_solution_to_adp(x, chain.ss2adp)
        ordering = adp_solution_to_lce_ordering(part, chain.adp2lce)
        cert = write(tmp_path, "x.cert", serialize_ordering_cert(ordering))
        out = tmp_path / "x.v"
        proc = run_with_fault(flags, "lift", "lift", mapping, cert, "--out", str(out))
        assert proc.returncode == 5, proc.stderr
        assert "assignment certificate" in proc.stderr
        assert "clause 1 is falsified" in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()

    def test_check_that_raises_exits_five(self, tmp_path, capsys, monkeypatch) -> None:
        """A produced certificate whose check raises, not returning a reason
        (a model of one vertex too few), is refused through the same exit 5."""
        def one_short(g, ordering):
            return IntervalModel({v: (Fraction(v), Fraction(v)) for v in ordering.seq[1:]})

        monkeypatch.setattr(lineembed.cli, "ordering_to_model", one_short)
        inst = write(tmp_path, "p3.sg", P3_TEXT)
        model = tmp_path / "m"
        rc, out, err = run(capsys, "solve", inst, "--model", str(model))
        assert (rc, out) == (5, "") and not model.exists()
        assert err.count("\n") == 1 and "interval model certificate" in err
        assert "model covers 2 vertices, instance has 3" in err

    # (verify_embedding calls, is_umbrella_ordering calls) of one solve.  The
    # ordering's certificate check (the `o` check, or ordering_to_model with
    # --model) decides a complete graph's ordering by is_umbrella_ordering,
    # any other's by verify_embedding; the complete route's recognition
    # validates its candidate by is_umbrella_ordering once before that.
    @pytest.mark.parametrize(
        "text, extra, calls",
        [
            (P3_TEXT, [], (0, 2)),
            (P3_TEXT, ["--algo", "dp"], (0, 1)),
            (P3_TEXT, ["--algo", "brute"], (0, 1)),
            (SPARSE_TEXT, [], (1, 0)),
            (P3_TEXT, ["--model", "MODEL"], (0, 2)),
        ],
        ids=["complete", "dp", "brute", "auto-dp", "model"],
    )
    def test_one_verification_per_solve(
        self, tmp_path, capsys, check_calls, text, extra, calls
    ) -> None:
        inst = write(tmp_path, "g.sg", text)
        extra = [str(tmp_path / "m.cert") if a == "MODEL" else a for a in extra]
        rc, out, _ = run(capsys, "solve", inst, *extra)
        assert rc == 0 and out != "o INFEASIBLE\n"
        assert tuple(map(len, check_calls)) == calls


class TestGen:
    @pytest.mark.parametrize(
        "argv, header, digest",
        [
            ("random-sg --n 9 --seed 4",
             "c random-sg n=9 p-pos=0.25 p-neg=0.25 seed=4",
             "70d3173ddc2554116b28607555f4e655e28f0abc2ea0d119e18aa5c2b40da0f2"),
            ("random-sg --n 9 --p-pos 0.3 --p-neg 0.1 --seed 7",
             "c random-sg n=9 p-pos=0.3 p-neg=0.1 seed=7",
             "ffc54bcdb4f236ac8cce0290d2650b5fd9d67e392ff6065f5b7fdf1940e2d479"),
            ("planted-complete --n 5 --seed 2",
             "c planted-complete n=5 spread=1.25 seed=2",
             "c8a07ca32c0276e2328fa2631a85b22928af5d4cb545b72dfad642907a8c2c8d"),
            ("planted-complete --n 2 --seed 1",
             "c planted-complete n=2 spread=1.0 seed=1",
             "e8e2dedae540fc06e94a8d7bfbc54a1070ec9719c33986707eac0f369c485b7d"),
            ("planted-complete --n 6 --spread 2.5 --seed 3",
             "c planted-complete n=6 spread=2.5 seed=3",
             "9b10429da2748090e25f0646ae7569a02e2c624a134e954467329957b2d5ccd5"),
            ("random-cnf --vars 5 --clauses 7 --seed 9",
             "c random-cnf vars=5 clauses=7 seed=9",
             "9b8ef3bc539df8b2e34fda153483da45aa28637fe6cc6b1c3198cdbf489ddd67"),
        ],
        ids=["random-sg", "random-sg-p", "planted-complete", "planted-complete-2",
             "planted-complete-spread", "random-cnf"],
    )
    def test_golden_output(self, capsys, argv, header, digest) -> None:
        """Every kind's output, comment line and body, byte for byte: the
        default spread max(n / 4, 1) at n = 5 and at n = 2 included."""
        rc, out, err = run(capsys, "gen", *argv.split())
        assert (rc, err, out.split("\n", 1)[0]) == (0, "", header)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_complete_graph_too_large_to_write_refused(self) -> None:
        """Its G- walk is predicted before the (n + 1)^2 mask is built: exit 4
        and one line naming the memory, not the MemoryError net's."""
        proc = run_under_limit(AS_LIMIT, "gen", "planted-complete", "--n", "30000")
        assert proc.returncode == 4 and proc.stdout == ""
        assert "MB available" in proc.stderr and "than is available" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_memory_net_prints_one_line(self, tmp_path) -> None:
        """30 million clauses run out of memory in the generator, which
        predicts nothing: exit 4 with the net's one line, not a chained
        MemoryError traceback from printing it."""
        out = tmp_path / "f.cnf"
        argv = ("gen", "random-cnf", "--vars", "3", "--clauses", "30000000", "--out", str(out))
        proc = run_under_limit(AS_LIMIT, *argv)
        assert proc.returncode == 4 and proc.stdout == ""
        assert proc.stderr == "error: instance needs more memory than is available\n"
        assert not out.exists()

    def test_byte_identical(self, capsys) -> None:
        args = ("gen", "random-sg", "--n", "8", "--seed", "3")
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second and first[0] == 0

    def test_stdout_matches_file(self, tmp_path, capsys) -> None:
        rc, out, _ = run(capsys, "gen", "planted-complete", "--n", "5", "--seed", "2")
        assert rc == 0
        dest = tmp_path / "g.sg"
        run(
            capsys, "gen", "planted-complete", "--n", "5", "--seed", "2",
            "--out", str(dest),
        )
        assert dest.read_text() == out
        assert "spread=1.25" in out

    def test_cnf_output_parses(self, capsys) -> None:
        rc, out, _ = run(
            capsys, "gen", "random-cnf", "--vars", "4", "--clauses", "5",
            "--seed", "9",
        )
        assert rc == 0
        assert parse_cnf(out).num_vars == 4

    def test_comment_header_present(self, capsys) -> None:
        rc, out, _ = run(capsys, "gen", "random-sg", "--n", "4", "--seed", "0")
        assert rc == 0
        assert out.startswith("c random-sg n=4 ")

    def test_bad_parameters(self, capsys) -> None:
        rc, _, err = run(
            capsys, "gen", "random-sg", "--n", "4", "--p-pos", "0.9",
            "--p-neg", "0.9", "--seed", "0",
        )
        assert rc == 2 and "p_pos" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("random-sg", "--n", "4", "--p-pos", "nan"),
            ("random-sg", "--n", "4", "--p-neg", "nan"),
            ("planted-complete", "--n", "4", "--spread", "nan"),
        ],
        ids=["p-pos", "p-neg", "spread"],
    )
    def test_nan_parameters_refused(self, capsys, argv) -> None:
        """Fails if a guard written as its negated condition, such as
        `spread <= 0`, lets NaN through to write a graph."""
        rc, out, err = run(capsys, "gen", *argv)
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["planted-complete", "random-sg"])
    def test_negative_vertex_count_refused(self, capsys, kind) -> None:
        rc, out, err = run(capsys, "gen", kind, "--n", "-1")
        assert (rc, out, err) == (2, "", "error: vertex count -1 is negative\n")

    def test_infinite_spread_refused(self, capsys) -> None:
        """Fails if the guard lets infinity through: every center is then
        infinite and the graph all negative."""
        rc, out, err = run(capsys, "gen", "planted-complete", "--n", "4", "--spread", "inf")
        assert rc == 2 and out == ""
        assert err == "error: spread must be positive and finite, got inf\n"


class TestBenchCommand:
    def test_small_run(self, capsys) -> None:
        rc, out, _ = run(
            capsys, "bench", "--min-n", "6", "--max-n", "7", "--per-size", "2"
        )
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("bench n=6 runs=2 median_ms=")
        assert lines[1].startswith("bench n=7 runs=2 median_ms=")
        assert lines[2].startswith("bench ratio-median=")

    def test_bad_range(self, capsys) -> None:
        rc, _, err = run(capsys, "bench", "--min-n", "8", "--max-n", "7")
        assert rc == 2 and "min-n" in err

    @pytest.mark.parametrize(
        "argv",
        [("--per-size", "0"), ("--per-size", "-2"), ("--min-n", "-1", "--max-n", "1")],
        ids=["per-size-0", "per-size-negative", "min-n-negative"],
    )
    def test_counts_below_range(self, capsys, argv) -> None:
        """Fails if --per-size 0 reaches the report, whose median of no runs
        raised a StatisticsError, or if a negative size is timed."""
        rc, out, err = run(capsys, "bench", *argv)
        assert rc == 2 and out == ""
        assert argv[0] in err and err.count("\n") == 1

    def test_layer_refused_before_allocation(self, capsys, monkeypatch) -> None:
        """A 40-vertex bench instance reaches every prefix set; with 16 MB
        available a frontier layer is refused before it is built.  Fails if
        bench times the full 2^n table, whose refusal names the table."""
        monkeypatch.setattr(lineembed.solvers, "_available_bytes", lambda: 16 * 2**20)
        rc, out, err = run(
            capsys, "bench", "--min-n", "40", "--max-n", "40", "--per-size", "1"
        )
        assert rc == 4 and out == ""
        assert re.search(r"subset DP layer \d+ needs about", err)
        assert "Traceback" not in err


class TestUnwritableOutput:
    @pytest.mark.parametrize("dest", ["missing/x", "."], ids=["no-parent", "directory"])
    @pytest.mark.parametrize(
        "argv, stdout",
        [
            (["solve", "p3.sg", "--out"], ""),
            (["solve", "p3.sg", "--model"], ""),
            (
                ["reduce", "sat2ss", "f.cnf", "--map"],
                "p ss 7 4\nx special 7\ns 2 1 2\ns 2 3 4\ns 2 5 6\ns 4 1 3 5 7\n",
            ),
            (["gen", "random-sg", "--n", "3", "--out"], ""),
        ],
        ids=["solve-out", "solve-model", "reduce-map", "gen-out"],
    )
    def test_exit_two_with_one_line(
        self, tmp_path, capsys, monkeypatch, dest, argv, stdout
    ) -> None:
        """An output that cannot be written exits 2 naming it, as an input
        that cannot be read does; `reduce` has written its instance by then.
        Fails if the OSError escapes as a traceback."""
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "p3.sg", P3_TEXT)
        write(tmp_path, "f.cnf", XYZ_TEXT)
        rc, out, err = run(capsys, *argv, dest)
        assert (rc, out) == (2, stdout)
        assert err.startswith(f"error: cannot write {dest}: ") and err.count("\n") == 1


class TestArgparseBehaviour:
    def test_unknown_stage_exits_two(self, capsys) -> None:
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "nonsense", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
