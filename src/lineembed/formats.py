"""Text formats for instances, certificates and reduction mappings.

All formats are line-based.  Lines starting with `c` are comments and blank
lines are ignored.  Instance files open with a `p <kind> ...` header (kinds
sg, cnf, ss, dg); certificate files are headerless.  Serializers emit a
canonical form that parses back to an equal object.

The parsers take a str or UTF-8 bytes; a byte that is not UTF-8 is a
ParseError at its line, raised when the parser reads it.  A mapping file
is valid exactly when it is what `reduce --map` writes for the source
instance it carries, so its numbering lives in `reductions` alone.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .core import Ordering, SignedGraph, _build_from_arrays, _pair_array
from .core import _complement_pairs, _refuse_over, is_complete
from .errors import CapExceededError, LineEmbedError, ParseError
from .intervals import IntervalModel
from .reductions import (
    AdpToLceMapping,
    Assignment,
    CnfFormula,
    Digraph,
    Partition,
    SatToLceMapping,
    SatToSsMapping,
    SetSystem,
    SplitterSolution,
    SsToAdpMapping,
    build_cnf,
    build_digraph,
    build_partition,
    build_set_system,
    stage_reductions,
)

AnyMapping = Union[SatToSsMapping, SsToAdpMapping, AdpToLceMapping, SatToLceMapping]
Text = Union[str, bytes]  # bytes are UTF-8, decoded only where read as text

# Peak bytes per negative pair of writing a complete graph, beside its (n + 1)^2
# mask: tracemalloc read 87, 96, 98 in `gen planted-complete` at n = 1k, 2k, 2.5k.
_BYTES_PER_NEG_PAIR = 112


def _tokenized(
    numbered: Iterable[tuple[int, str]],
) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of each content line: one that is not blank and
    whose first token is not `c`.  Lazy, so no token list outlives its line."""
    for no, raw in numbered:
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        yield no, tokens


def _decoded(data: bytes, source: Optional[str], no: int, errors: str = "strict") -> str:
    """data, whose first line is line no, as text; ParseError at the line
    of the first byte that is not UTF-8."""
    try:
        return data.decode("utf-8", errors)
    except UnicodeDecodeError as exc:
        why = f"byte {data[exc.start]:#04x} is not valid UTF-8"
        raise ParseError(why, source, no + data.count(b"\n", 0, exc.start)) from None


def _content_lines(text: Text, source: Optional[str]) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, tokens) of each content line of text.  The text
    is split at newlines, and bytes decoded, about 4 KiB at a time, so a
    reader that stops early leaves the rest of it unsplit."""
    as_bytes = isinstance(text, bytes)
    no, start = 1, 0
    while start <= len(text):
        end = text.find(b"\n" if as_bytes else "\n", start + 4096)
        end = len(text) if end < 0 else end
        block = text[start:end]
        block = (_decoded(block, source, no) if as_bytes else block).split("\n")
        yield from _tokenized(enumerate(block, start=no))
        no, start = no + len(block), end + 1


def _int(token: str, source: Optional[str], line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", source, line)


@contextmanager
def _as_parse_error(source: Optional[str], line: Optional[int]) -> Iterator[None]:
    """Re-raise a LineEmbedError from the block, other than a ParseError or
    a memory refusal (CapExceededError), as a ParseError at source:line."""
    try:
        yield
    except (ParseError, CapExceededError):
        raise
    except LineEmbedError as exc:
        raise ParseError(str(exc), source, line) from exc


def _header(
    lines: Iterator[tuple[int, list[str]]],
    kind: str,
    count: int,
    source: Optional[str],
) -> tuple[int, list[int]]:
    """Read `p <kind>` with `count` integer fields off the front of lines;
    return (line, fields)."""
    first = next(lines, None)
    if first is None:
        raise ParseError("empty input", source, None)
    no, tokens = first
    if tokens[0] != "p" or len(tokens) < 2 or tokens[1] != kind:
        raise ParseError(f"expected 'p {kind}' header", source, no)
    if len(tokens) != 2 + count:
        raise ParseError(
            f"'p {kind}' header wants {count} fields, got {len(tokens) - 2}",
            source,
            no,
        )
    return no, [_int(t, source, no) for t in tokens[2:]]


def instance_kind(text: Text, source: Optional[str] = None) -> str:
    """Kind tag from the first header line: sg, cnf, ss, dg or map."""
    first = next(_content_lines(text, source), None)
    if first is None:
        raise ParseError("empty input", source, None)
    no, tokens = first
    if tokens[0] != "p" or len(tokens) < 2:
        raise ParseError("first content line must be a 'p' header", source, no)
    return tokens[1]


def _instance(text: Text, source: Optional[str], kind: str, noun: str, item, build):
    """Read a `p <kind> <size> <count>` instance: item(no, tokens) reads each
    content line after the header and returns what it adds, or None; the
    count of those is checked against the header, then build(size, items)
    runs with its errors reported at the header line."""
    lines = _content_lines(text, source)
    hdr_no, (size, count) = _header(lines, kind, 2, source)
    items = [x for no, tokens in lines if (x := item(no, tokens)) is not None]
    if len(items) != count:
        raise ParseError(
            f"header declares {count} {noun}, found {len(items)}", source, hdr_no
        )
    with _as_parse_error(source, hdr_no):
        return build(size, items)


# ---------------------------------------------------------------------------
# Signed graphs
# ---------------------------------------------------------------------------


def serialize_signed_graph(g: SignedGraph) -> str:
    """The header, then the `e +` and the `e -` lines, each sign's (u, v),
    u < v, ascending, whatever form the graph holds: edge sets by stable
    sorts keyed on v, then u; edge arrays by one lexsort, without building
    the sets.  A complete graph's `e -` lines walk the complement of its
    positive pairs, so G- is neither built nor sorted.  Each sign's lines
    are formatted in one operation."""
    out = [f"p sg {g.n} {g.m_pos} {g.m_neg}\n"]
    for sign, name in (("+", "pos"), ("-", "neg")):
        if sign == "-" and is_complete(g):
            need = (g.n + 1) ** 2 + _BYTES_PER_NEG_PAIR * g.m_neg
            _refuse_over(need, f"writing a {g.n:,}-vertex complete graph")
            flat = tuple(_complement_pairs(g.n, g.pos_array).ravel().tolist())
        elif name in vars(g):
            edges = sorted(vars(g)[name], key=itemgetter(1))
            flat = tuple(chain.from_iterable(sorted(edges, key=itemgetter(0))))
        else:
            edges = vars(g)[name + "_array"]
            flat = tuple(edges[np.lexsort((edges[:, 1], edges[:, 0]))].ravel().tolist())
        out.append((f"e {sign} %d %d\n" * (len(flat) // 2)) % flat)
    return "".join(out)


# Longest digit run the canonical edge spelling allows: below 10**18 every
# value fits an int64.
_CANONICAL_DIGITS = 18


def _digits_before(data: np.ndarray, end: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Add to `value` the number spelled by the ASCII digits that end just
    before each position in `end`, read backwards one digit place per step
    at all positions at once, and return each run's length: up to 19, so 19
    stands for any longer run.  Reads are clipped into data."""
    length, run = np.zeros(len(end), np.int8), np.ones(len(end), bool)
    term, at = np.empty(len(end), np.int64), end - 1
    for place in range(_CANONICAL_DIGITS + 1):
        digit = np.take(data, at, mode="clip") - np.uint8(ord("0"))
        run &= digit < 10
        if not run.any():
            break
        length += run
        digit *= run
        value += np.multiply(digit, np.int64(10**place), out=term)
        at -= 1
    return length


def _canonical_edge_lines(data: np.ndarray) -> tuple[np.ndarray, ...]:
    """Split UTF-8 bytes into lines and find those spelled exactly
    `e <+|-> <digits> <digits>`, single spaces, 1-18 ASCII digits per number.

    Returns (ends, canon, plus, edges): the position of every newline (line
    i ends at ends[i]; what follows the last one is left to the caller), the
    indices of the canonical lines, and for each its sign and endpoints.
    The scan is anchored on line ends: v is the digit run that ends a line,
    u the one that ends at the space before v and starts after the line's
    first four bytes, `e + ` or `e - `.  Arrays hold an entry per line, not
    per byte.
    """
    ends = np.flatnonzero(data == ord("\n"))
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    edges = np.zeros((len(ends), 2), np.int64)
    v_len = _digits_before(data, ends, edges[:, 1])
    sep = ends - 1 - v_len
    u_len = _digits_before(data, sep, edges[:, 0])
    e, space, sign, space2 = (np.take(data, starts + k, mode="clip") for k in range(4))
    ok = (
        (u_len == sep - starts - 4)
        & (u_len >= 1) & (u_len <= _CANONICAL_DIGITS)
        & (v_len >= 1) & (v_len <= _CANONICAL_DIGITS)
        & (np.take(data, sep, mode="clip") == ord(" "))
        & (e == ord("e")) & (space == ord(" ")) & (space2 == ord(" "))
        & ((sign == ord("+")) | (sign == ord("-")))
    )
    plus = np.compress(ok, sign) == ord("+")
    return ends, np.flatnonzero(ok), plus, np.compress(ok, edges, axis=0)


def _edge(tokens: list[str], source: Optional[str], no: int) -> tuple[str, int, int]:
    """(sign, u, v) of one `e` line, by the per-line rules."""
    if tokens[0] != "e" or len(tokens) != 4:
        raise ParseError("expected 'e <sign> <u> <v>'", source, no)
    sign = tokens[1]
    if sign not in ("+", "-"):
        raise ParseError(f"edge sign must be + or -, got {sign!r}", source, no)
    return sign, _int(tokens[2], source, no), _int(tokens[3], source, no)


def parse_signed_graph(text: Text, source: Optional[str] = None) -> SignedGraph:
    """Parse a `p sg` instance.

    The header is the first content line.  The edge lines after it in
    canonical spelling are converted in one numpy pass, every other line by
    the per-line rules, so errors and their line numbers do not depend on
    which path read a line.  Rows are put in line order, in which the first
    bad pair is named, only when a per-line edge stands before a canonical
    one.  The endpoints are validated as build_signed_graph would.  Bytes
    are read as they are, a str encoded first.
    """
    as_bytes = isinstance(text, bytes)
    encoded = text if as_bytes else text.encode("utf-8", "surrogatepass")
    errors = "strict" if as_bytes else "surrogatepass"
    ends, canon, plus, edges = _canonical_edge_lines(np.frombuffer(encoded, np.uint8))

    def numbered(at: Iterable[int]) -> Iterator[tuple[int, str]]:
        for i in at:
            a = int(ends[i - 1]) + 1 if i else 0
            b = int(ends[i]) if i < len(ends) else len(encoded)
            yield i + 1, _decoded(encoded[a:b], source, i + 1, errors)

    lines = _tokenized(numbered(range(len(ends) + 1)))
    hdr_no, (n, m_pos, m_neg) = _header(lines, "sg", 3, source)
    slow_at = np.ones(len(ends) + 1, bool)
    slow_at[:hdr_no] = slow_at[canon] = False
    lines = _tokenized(numbered(np.flatnonzero(slow_at).tolist()))
    slow = [(no, *_edge(tokens, source, no)) for no, tokens in lines]
    if slow:
        plus = np.append(plus, [row[1] == "+" for row in slow])
        edges = np.concatenate((edges, _pair_array([row[2:] for row in slow])))
        slow_no = np.array([row[0] for row in slow])
        if len(canon) and slow_no[0] <= canon[-1]:
            order = np.argsort(np.append(canon + 1, slow_no), kind="stable")
            plus, edges = plus[order], np.take(edges, order, axis=0)
    pos, neg = (np.compress(keep, edges, axis=0) for keep in (plus, ~plus))
    if (len(pos), len(neg)) != (m_pos, m_neg):
        raise ParseError(
            f"header declares {m_pos}+/{m_neg}- edges, found {len(pos)}+/{len(neg)}-",
            source,
            hdr_no,
        )
    with _as_parse_error(source, hdr_no):
        return _build_from_arrays(n, pos, neg)


# ---------------------------------------------------------------------------
# CNF formulas
# ---------------------------------------------------------------------------


def serialize_cnf(cnf: CnfFormula) -> str:
    out = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    out.extend(" ".join(str(lit) for lit in clause) + " 0" for clause in cnf.clauses)
    return "\n".join(out) + "\n"


def parse_cnf(text: Text, source: Optional[str] = None) -> CnfFormula:
    def clause(no: int, tokens: list[str]) -> tuple[int, ...]:
        lits = [_int(t, source, no) for t in tokens]
        if not lits or lits[-1] != 0:
            raise ParseError("clause line must end with 0", source, no)
        if 0 in lits[:-1]:
            raise ParseError("literal 0 inside a clause", source, no)
        return tuple(lits[:-1])

    return _instance(text, source, "cnf", "clauses", clause, build_cnf)


# ---------------------------------------------------------------------------
# Set systems
# ---------------------------------------------------------------------------


def serialize_set_system(sys: SetSystem) -> str:
    out = [f"p ss {sys.universe_size} {len(sys.sets)}"]
    if sys.special is not None:
        out.append(f"x special {sys.special}")
    out.extend(
        f"s {len(members)} " + " ".join(str(e) for e in members)
        for members in sys.sets
    )
    return "\n".join(out) + "\n"


def parse_set_system(text: Text, source: Optional[str] = None) -> SetSystem:
    special: list[int] = []

    def line(no: int, tokens: list[str]) -> Optional[tuple[int, ...]]:
        if tokens[0] == "x":
            if len(tokens) != 3 or tokens[1] != "special":
                raise ParseError("expected 'x special <element>'", source, no)
            if special:
                raise ParseError("duplicate 'x special' line", source, no)
            special.append(_int(tokens[2], source, no))
            return None
        if tokens[0] != "s":
            raise ParseError(f"unexpected line kind {tokens[0]!r}", source, no)
        if len(tokens) < 2:
            raise ParseError("expected 's <size> <elements...>'", source, no)
        size = _int(tokens[1], source, no)
        members = tuple(_int(t, source, no) for t in tokens[2:])
        if len(members) != size:
            raise ParseError(
                f"set declares {size} elements, lists {len(members)}", source, no
            )
        return members

    def build(universe: int, sets: list[tuple[int, ...]]) -> SetSystem:
        return build_set_system(universe, sets, special=special[0] if special else None)

    return _instance(text, source, "ss", "sets", line, build)


# ---------------------------------------------------------------------------
# Digraphs
# ---------------------------------------------------------------------------


def serialize_digraph(digraph: Digraph) -> str:
    out = [f"p dg {digraph.n} {len(digraph.arcs)}"]
    out.extend(f"a {a} {b}" for a, b in digraph.arcs)
    return "\n".join(out) + "\n"


def parse_digraph(text: Text, source: Optional[str] = None) -> Digraph:
    def arc(no: int, tokens: list[str]) -> tuple[int, int]:
        if tokens[0] != "a" or len(tokens) != 3:
            raise ParseError("expected 'a <from> <to>'", source, no)
        return _int(tokens[1], source, no), _int(tokens[2], source, no)

    return _instance(text, source, "dg", "arcs", arc, build_digraph)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def _single_line(text: Text, kind: str, source: Optional[str]) -> tuple[int, list[str]]:
    """(line number, tokens after the kind) of a certificate that is one
    `<kind> ...` line."""
    lines = _content_lines(text, source)
    first = next(lines, None)
    if first is None or first[1][0] != kind or next(lines, None) is not None:
        raise ParseError(f"expected a single '{kind} ...' line", source, None)
    return first[0], first[1][1:]


def serialize_ordering_cert(ordering: Optional[Ordering]) -> str:
    if ordering is None:
        return "o INFEASIBLE\n"
    return ("o " + " ".join(str(v) for v in ordering)).rstrip() + "\n"


def parse_ordering_cert(
    text: Text, source: Optional[str] = None
) -> Optional[Ordering]:
    no, tokens = _single_line(text, "o", source)
    if tokens == ["INFEASIBLE"]:
        return None
    try:
        seq = list(map(int, tokens))
    except ValueError:  # _int names the first token that is not a number
        seq = [_int(t, source, no) for t in tokens]
    with _as_parse_error(source, no):
        return Ordering.from_seq(seq)


def _fraction(token: str, source: Optional[str], line: int) -> Fraction:
    num, sep, den = token.partition("/")
    if not sep:
        raise ParseError(f"expected <num>/<den>, got {token!r}", source, line)
    d = _int(den, source, line)
    if d <= 0:
        raise ParseError(f"denominator must be positive, got {d}", source, line)
    return Fraction(_int(num, source, line), d)


def serialize_model_cert(model: IntervalModel) -> str:
    out = []
    for v in sorted(model.intervals):
        lo, hi = model.intervals[v]
        out.append(
            f"i {v} {lo.numerator}/{lo.denominator} {hi.numerator}/{hi.denominator}"
        )
    return "\n".join(out) + "\n"


def parse_model_cert(text: Text, source: Optional[str] = None) -> IntervalModel:
    intervals: dict[int, tuple[Fraction, Fraction]] = {}
    for no, tokens in _content_lines(text, source):
        if tokens[0] != "i" or len(tokens) != 4:
            raise ParseError("expected 'i <v> <lo> <hi>'", source, no)
        v = _int(tokens[1], source, no)
        if v in intervals:
            raise ParseError(f"duplicate interval for vertex {v}", source, no)
        intervals[v] = (
            _fraction(tokens[2], source, no),
            _fraction(tokens[3], source, no),
        )
    model = IntervalModel(intervals)
    with _as_parse_error(source, None):
        model.validate()
    return model


def serialize_partition_cert(part: Partition) -> str:
    one = " ".join(str(v) for v in sorted(part.part1))
    two = " ".join(str(v) for v in sorted(part.part2))
    return f"part 1 {one}".rstrip() + "\n" + f"part 2 {two}".rstrip() + "\n"


def parse_partition_cert(text: Text, source: Optional[str] = None) -> Partition:
    parts: dict[int, list[int]] = {}
    for no, tokens in _content_lines(text, source):
        if tokens[0] != "part" or len(tokens) < 2:
            raise ParseError("expected 'part <1|2> <vertices...>'", source, no)
        which = _int(tokens[1], source, no)
        if which not in (1, 2):
            raise ParseError(f"part number must be 1 or 2, got {which}", source, no)
        if which in parts:
            raise ParseError(f"duplicate 'part {which}' line", source, no)
        parts[which] = [_int(t, source, no) for t in tokens[2:]]
    if sorted(parts) != [1, 2]:
        raise ParseError("certificate must list part 1 and part 2", source, None)
    one, two = set(parts[1]), set(parts[2])
    n = len(parts[1]) + len(parts[2])
    if one & two or one | two != set(range(1, n + 1)):
        raise ParseError(
            "parts must be disjoint and cover 1..n exactly once", source, None
        )
    return build_partition(n, one)


def serialize_splitter_cert(x: SplitterSolution) -> str:
    body = " ".join(str(e) for e in sorted(x.chosen))
    return f"x {body}".rstrip() + "\n"


def parse_splitter_cert(
    text: Text, source: Optional[str] = None
) -> SplitterSolution:
    no, tokens = _single_line(text, "x", source)
    elems = [_int(t, source, no) for t in tokens]
    if len(set(elems)) != len(elems):
        raise ParseError("chosen elements repeat", source, no)
    return SplitterSolution(frozenset(elems))


def serialize_assignment_cert(assignment: Assignment) -> str:
    lits = [
        str(i if value else -i)
        for i, value in enumerate(assignment.values, start=1)
    ]
    return "v " + " ".join(lits + ["0"]) + "\n"


def parse_assignment_cert(text: Text, source: Optional[str] = None) -> Assignment:
    no, tokens = _single_line(text, "v", source)
    lits = [_int(t, source, no) for t in tokens]
    if not lits or lits[-1] != 0:
        raise ParseError("assignment line must end with 0", source, no)
    lits = lits[:-1]
    values: dict[int, bool] = {}
    for lit in lits:
        var = abs(lit)
        if lit == 0 or var in values:
            raise ParseError(f"bad or repeated literal {lit}", source, no)
        values[var] = lit > 0
    if sorted(values) != list(range(1, len(values) + 1)):
        raise ParseError(
            "assignment must cover variables 1..n exactly once", source, no
        )
    return Assignment(tuple(values[i] for i in range(1, len(values) + 1)))


# ---------------------------------------------------------------------------
# Reduction mappings
# ---------------------------------------------------------------------------


def _serialize_sat2ss(m: SatToSsMapping) -> list[str]:
    n = m.cnf.num_vars
    out = ["p map sat2ss"]
    out.append(f"x vars {n}")
    out.append(f"x clauses {len(m.cnf.clauses)}")
    out.append(f"x special {m.special}")
    for i in range(1, n + 1):
        out.append(f"map {m.element_of(i)} lit {i}")
        out.append(f"map {m.element_of(-i)} lit {-i}")
    out.extend(f"map {i} varset {i}" for i in range(1, n + 1))
    out.extend(f"map {n + j} clauseset {j}" for j in range(1, len(m.cnf.clauses) + 1))
    for clause in m.cnf.clauses:
        out.append("src " + " ".join(str(lit) for lit in clause) + " 0")
    return out


def _serialize_ss2adp(m: SsToAdpMapping) -> list[str]:
    out = ["p map ss2adp"]
    out.append(f"x universe {m.system.universe_size}")
    for u in range(1, m.system.universe_size + 1):
        out.append(f"map {u} d {u}")
    for vertex, set_idx, elem in m.memberships():
        out.append(f"map {vertex} c {set_idx} {elem}")
    return out


def _serialize_adp2lce(m: AdpToLceMapping) -> list[str]:
    out = ["p map adp2lce"]
    out.append(f"x digraph {m.digraph.n} {len(m.digraph.arcs)}")
    out.append("map 1 s")
    for idx, (a, b) in enumerate(m.digraph.arcs):
        out.append(f"map {m.checker_of(idx)} checker {a} {b}")
    for v in range(1, m.digraph.n + 1):
        out.append(f"map {m.align_of(v)} align {v}")
    return out


def _serialize_sat2lce(m: SatToLceMapping) -> list[str]:
    return (
        _serialize_sat2ss(m.sat2ss)
        + _serialize_ss2adp(m.ss2adp)
        + _serialize_adp2lce(m.adp2lce)
    )


# Mapping class -> its sections' lines.
_MAPPING_LINES = {
    SatToSsMapping: _serialize_sat2ss,
    SsToAdpMapping: _serialize_ss2adp,
    AdpToLceMapping: _serialize_adp2lce,
    SatToLceMapping: _serialize_sat2lce,
}


def serialize_mapping(mapping: AnyMapping) -> str:
    write = _MAPPING_LINES.get(type(mapping))
    if write is None:
        raise TypeError(f"not a mapping object: {mapping!r}")
    return "\n".join(write(mapping)) + "\n"


Section = list[tuple[int, str]]  # (line number, tokens joined by one space)


def _count(token: str, body: Section, source: Optional[str], no: int) -> int:
    """A declared size, refused before a gadget that big is built when the
    section is too short to hold a line per variable, element or vertex."""
    value = _int(token, source, no)
    if value > len(body):
        raise ParseError(
            f"declares {value} items in a section of {len(body)} lines", source, no
        )
    return value


def _cnf_source(body: Section, source: Optional[str]) -> CnfFormula:
    """The formula of a sat2ss section: its `x vars` and `src` lines."""
    num_vars, clauses = 0, []
    for no, line in body:
        tokens = line.split(" ")
        if tokens[:2] == ["x", "vars"] and len(tokens) == 3:
            num_vars = _count(tokens[2], body, source, no)
        elif tokens[0] == "src":
            clauses.append([_int(t, source, no) for t in tokens[1:-1]])
    return build_cnf(num_vars, clauses)


def _set_system_source(body: Section, source: Optional[str]) -> SetSystem:
    """The set system of a ss2adp section: its `x universe` line and the
    (set, element) pair of each `c` line."""
    universe, members = 0, {}
    for no, line in body:
        tokens = line.split(" ")
        if tokens[:2] == ["x", "universe"] and len(tokens) == 3:
            universe = _count(tokens[2], body, source, no)
        elif tokens[0] == "map" and len(tokens) == 5 and tokens[2] == "c":
            elem = _int(tokens[4], source, no)
            members.setdefault(_int(tokens[3], source, no), []).append(elem)
    return build_set_system(universe, [members[i] for i in sorted(members)])


def _digraph_source(body: Section, source: Optional[str]) -> Digraph:
    """The digraph of an adp2lce section: its `x digraph` line and the arcs
    of the `checker` lines, in file order."""
    n, arcs = 0, []
    for no, line in body:
        tokens = line.split(" ")
        if tokens[:2] == ["x", "digraph"] and len(tokens) == 4:
            n = _count(tokens[2], body, source, no)
        elif tokens[0] == "map" and len(tokens) == 5 and tokens[2] == "checker":
            arcs.append((_int(tokens[3], source, no), _int(tokens[4], source, no)))
    return build_digraph(n, arcs)


# Section stage -> how to read its source instance.
_SOURCES = {
    "sat2ss": _cnf_source,
    "ss2adp": _set_system_source,
    "adp2lce": _digraph_source,
}


def read_mapping(
    text: Text, source: Optional[str] = None
) -> tuple[str, object, object, AnyMapping]:
    """Read what `reduce --map` writes: one stage or the sat2lce chain, as
    (stage, source instance, reduced instance, mapping).

    The first section's source (for the chain, the sat2ss formula) is reduced
    again.  A text byte for byte its serialization is read only up to the
    second header; in any other, the content lines, spacing normalized, must
    be the serialization, and the first line that differs is the error."""
    if isinstance(text, bytes):
        text = _decoded(text, source, 1)  # whole, to compare whole texts
    section, _, rest = text.partition("\np ")
    head, _, written = section.partition("\n")
    first = head[6:]
    stage = "sat2lce" if first == "sat2ss" and rest.startswith("map ss2adp\n") else first
    try:
        instance = _SOURCES[first](list(enumerate(written.splitlines(), start=2)), source)
        reduced, mapping = stage_reductions()[stage].reduce(instance)
        if serialize_mapping(mapping) == text:
            return stage, instance, reduced, mapping
    except (KeyError, LineEmbedError):
        pass
    # Strings, not token lists, which the garbage collector would scan.
    lines = [(no, " ".join(tokens)) for no, tokens in _content_lines(text, source)]
    heads = [i for i, (_, line) in enumerate(lines) if line == "p" or line[:2] == "p "]
    if lines and heads[:1] != [0]:
        raise ParseError("content before the first 'p map' header", source, lines[0][0])
    sections: list[tuple[str, int, Section]] = []
    for i, end in zip(heads, heads[1:] + [len(lines)]):
        no, tokens = lines[i][0], lines[i][1].split(" ")
        if len(tokens) != 3 or tokens[1] != "map":
            raise ParseError("expected 'p map <stage>' header", source, no)
        if tokens[2] not in _SOURCES:
            raise ParseError(f"unknown mapping stage {tokens[2]!r}", source, no)
        sections.append((tokens[2], no, lines[i + 1 : end]))
    stages = [stage for stage, _, _ in sections]
    if len(stages) != 1 and stages != ["sat2ss", "ss2adp", "adp2lce"]:
        why = "mapping file must hold one stage or the full sat2ss, ss2adp, adp2lce chain"
        raise ParseError(why, source, sections[-1][1] if sections else None)
    first, hdr_no, body = sections[0]
    stage = first if len(stages) == 1 else "sat2lce"
    with _as_parse_error(source, hdr_no):
        instance = _SOURCES[first](body, source)
        reduced, mapping = stage_reductions()[stage].reduce(instance)
    # None stands for the end of the mapping, so a short or long file differs.
    want = serialize_mapping(mapping).split("\n")[:-1] + [None]
    got = [line for _, line in lines] + [None]
    if got != want:
        i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        said = [repr(x) if x else "the end of the mapping" for x in (want[i], got[i])]
        no = lines[min(i, len(lines) - 1)][0]
        raise ParseError("expected {}, got {}".format(*said), source, no)
    return stage, instance, reduced, mapping
