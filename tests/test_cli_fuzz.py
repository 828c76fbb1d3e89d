"""Fuzzing the command line: seeded byte mutations of one valid file per
kind, given to every subcommand, exit 0-4 and never raise out of `main`."""

from __future__ import annotations

import functools
import random
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from lineembed.cli import main
from lineembed.formats import (
    parse_cnf,
    parse_digraph,
    parse_set_system,
    serialize_mapping,
    serialize_ordering_cert,
    serialize_partition_cert,
    serialize_splitter_cert,
)
from lineembed.reductions import (
    Assignment,
    SplitterSolution,
    adp_solution_to_lce_ordering,
    build_partition,
    sat_solution_to_setsplitting,
    setsplitting_solution_to_adp,
    stage_reductions,
)

from test_cli import AS_LIMIT, AS_LIMITED_CLI, run_python

CNF_TEXT = "p cnf 3 2\n1 -2 0\n2 3 0\n"
SS_TEXT = "p ss 3 2\ns 2 1 2\ns 2 2 3\n"
DG_TEXT = "p dg 3 3\na 1 2\na 2 3\na 3 1\n"
# One valid file per kind: instances, a certificate of each kind for them,
# and for each stage its mapping and a certificate of its reduced instance.
BASE_FILES = {
    "p3.sg": "p sg 3 2 1\ne + 1 2\ne + 2 3\ne - 1 3\n",
    "sparse.sg": "p sg 4 2 1\ne + 1 3\ne + 2 4\ne - 2 3\n",
    "p3.o": "o 1 2 3\n",
    "p3.i": "i 1 1/1 9/4\ni 2 2/1 7/2\ni 3 3/1 15/4\n",
    "f.cnf": CNF_TEXT,
    "f.v": "v 1 2 3 0\n",
    "f.ss": SS_TEXT,
    "f.x": "x 2\n",
    "f.dg": DG_TEXT,
    "f.part": "part 1 1 2\npart 2 3\n",
}
# Tokens the mutations insert: out-of-range numbers, a bad fraction, a lone
# carriage return, a NUL and a byte that is not UTF-8, and line kinds.
TOKENS = [
    b"99999999999999999999", b"-1", b"0", b"1/0", b"\r", b"\x00", b"\xff",
    b" ", b"\n", b"p", b"c", b"e", b"+", b"-", b"x", b"s", b"a", b"o", b"i",
    b"v", b"part", b"map",
]


@functools.lru_cache(maxsize=None)
def base_files() -> dict[str, bytes]:
    """BASE_FILES, plus each stage's mapping of the instance of its source
    kind (<stage>.map) and a valid certificate of its reduced instance
    (<stage>.cert), mapped forward from a certificate of the source."""
    files = dict(BASE_FILES)
    source = {
        "sat2ss": parse_cnf(CNF_TEXT),
        "ss2adp": parse_set_system(SS_TEXT),
        "adp2lce": parse_digraph(DG_TEXT),
        "sat2lce": parse_cnf(CNF_TEXT),
    }
    truth = Assignment((True, True, True))
    for stage, instance in source.items():
        mapping = stage_reductions()[stage].reduce(instance)[1]
        files[f"{stage}.map"] = serialize_mapping(mapping)
        if stage == "sat2ss":
            cert = serialize_splitter_cert(sat_solution_to_setsplitting(truth, mapping))
        elif stage == "ss2adp":
            part = setsplitting_solution_to_adp(SplitterSolution(frozenset({2})), mapping)
            cert = serialize_partition_cert(part)
        elif stage == "adp2lce":
            part = build_partition(3, [1, 2])
            cert = serialize_ordering_cert(adp_solution_to_lce_ordering(part, mapping))
        else:
            x = sat_solution_to_setsplitting(truth, mapping.sat2ss)
            part = setsplitting_solution_to_adp(x, mapping.ss2adp)
            ordering = adp_solution_to_lce_ordering(part, mapping.adp2lce)
            cert = serialize_ordering_cert(ordering)
        files[f"{stage}.cert"] = cert
    return {name: text.encode() for name, text in files.items()}


# Command lines over the base files, each with the file its cases mutate.
COMMANDS = [
    *[(["solve", "sparse.sg", "--algo", algo], "sparse.sg") for algo in ("auto", "dp", "brute")],
    *[(["solve", "p3.sg", "--algo", algo], "p3.sg") for algo in ("auto", "complete")],
    (["solve", "p3.sg", "--model", "out.i"], "p3.sg"),
    *[
        (["verify", inst, cert], mutated)
        for inst, cert in [
            ("p3.sg", "p3.o"), ("p3.sg", "p3.i"), ("f.cnf", "f.v"),
            ("f.ss", "f.x"), ("f.dg", "f.part"),
        ]
        for mutated in (inst, cert)
    ],
    *[
        (["reduce", stage, source, "--map", "out.map"], source)
        for stage, source in [
            ("sat2ss", "f.cnf"), ("ss2adp", "f.ss"), ("adp2lce", "f.dg"),
            ("sat2lce", "f.cnf"),
        ]
    ],
    *[
        (["lift", f"{stage}.map", f"{stage}.cert"], mutated)
        for stage in ("sat2ss", "ss2adp", "adp2lce", "sat2lce")
        for mutated in (f"{stage}.map", f"{stage}.cert")
    ],
]
COMMAND_IDS = [f"{'-'.join(argv[:2])}:{mutated}" for argv, mutated in COMMANDS]
CASES_PER_COMMAND = 30


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One to three edits: replace a span with random bytes or a token,
    insert a token, delete a span, or repeat a span."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(data))
        j = min(len(data), i + rng.randint(1, 8))
        op = rng.randrange(5)
        if op == 0:
            data = data[:i] + bytes(rng.randrange(256) for _ in range(j - i)) + data[j:]
        elif op == 1:
            data = data[:i] + rng.choice(TOKENS) + data[j:]
        elif op == 2:
            data = data[:i] + rng.choice(TOKENS) + data[i:]
        elif op == 3:
            data = data[:i] + data[j:]
        else:
            data = data[:j] + data[i:j] + data[j:]
    return data


def prepared(directory: Path, argv: list[str], mutated: str, seed: int) -> tuple[list[str], bytes]:
    """Write the base files into directory, the mutated one edited by the
    seed's mutations; return the command line on those paths and the bytes
    of the mutated file."""
    files = base_files()
    for name, data in files.items():
        (directory / name).write_bytes(data)
    bad = mutate(files[mutated], random.Random(seed))
    (directory / mutated).write_bytes(bad)
    paths = [str(directory / a) if a in files or a.startswith("out.") else a for a in argv]
    return paths, bad


@pytest.mark.parametrize("argv, mutated", COMMANDS, ids=COMMAND_IDS)
def test_mutated_input_exits_zero_to_four(tmp_path, capsys, argv, mutated) -> None:
    """Fails if any exception escapes main, or main returns 5 (a certificate
    this program produced failed its own check) on a mutated input."""
    base = COMMANDS.index((argv, mutated)) * CASES_PER_COMMAND
    for seed in range(base, base + CASES_PER_COMMAND):
        line, bad = prepared(tmp_path, argv, mutated, seed)
        said = f"{' '.join(argv)}, {mutated} = {bad!r}"
        try:
            rc = main(line)
        except Exception as exc:
            raise AssertionError(f"{said}: {exc!r} escaped main") from exc
        capsys.readouterr()
        assert rc in range(5), f"{said}: exit {rc}"


# Under python -O, each in a fresh interpreter: 20 cases over commands
# spread through the list, from seeds no in-process case uses, two at a time.
OPTIMIZED_CASES = [(*COMMANDS[k * len(COMMANDS) // 20], 10**6 + k) for k in range(20)]


def test_mutated_input_under_python_o(tmp_path) -> None:
    """Fails if a fresh `python -O` interpreter prints a traceback or exits
    outside 0-4 on any of the cases."""

    def run_case(k: int) -> str:
        argv, mutated, seed = OPTIMIZED_CASES[k]
        (tmp_path / str(k)).mkdir()
        line, bad = prepared(tmp_path / str(k), argv, mutated, seed)
        proc = run_python(["-O", "-m", "lineembed.cli"], *line)
        if proc.returncode in range(5) and "Traceback" not in proc.stderr:
            return ""
        return f"{' '.join(argv)}, {mutated} = {bad!r}: exit {proc.returncode}, {proc.stderr}"

    with ThreadPoolExecutor(max_workers=2) as pool:
        failed = [said for said in pool.map(run_case, range(len(OPTIMIZED_CASES))) if said]
    assert not failed, "\n".join(failed)


# Each count of each instance header set to 20 digits, one at a time, for
# every `reduce` stage that reads that kind.
HUGE = "99999999999999999999"


def with_huge_field(text: str, i: int) -> str:
    """text with field i of its header line (field 0 is `p`) made HUGE."""
    header, rest = text.split("\n", 1)
    fields = header.split()
    fields[i] = HUGE
    return " ".join(fields) + "\n" + rest


HEADER_CASES = [
    (stage, with_huge_field(text, i))
    for stages, text in [
        (("sat2ss", "sat2lce"), CNF_TEXT), (("ss2adp",), SS_TEXT), (("adp2lce",), DG_TEXT),
    ]
    for i in (2, 3)
    for stage in stages
]


def test_huge_header_counts_under_python_o(tmp_path) -> None:
    """Fails if a fresh `python -O` interpreter under the refusal tests'
    address-space limit prints a traceback, exits outside 0-4, or takes half
    the 60 s command timeout on any case."""

    def run_case(k: int) -> str:
        stage, text = HEADER_CASES[k]
        path = tmp_path / f"{k}.txt"
        path.write_text(text)
        start = time.perf_counter()
        proc = run_python(["-O"], "-c", AS_LIMITED_CLI, str(AS_LIMIT), "reduce", stage, str(path))
        took = time.perf_counter() - start
        if proc.returncode in range(5) and "Traceback" not in proc.stderr and took < 30:
            return ""
        return f"reduce {stage} on {text!r}: exit {proc.returncode} in {took:.1f} s, {proc.stderr}"

    with ThreadPoolExecutor(max_workers=2) as pool:
        failed = [said for said in pool.map(run_case, range(len(HEADER_CASES))) if said]
    assert not failed, "\n".join(failed)
