"""Command line interface.

Subcommands: solve, verify, reduce, lift, gen, bench.  Exit codes: 0 for a
decided instance or a valid certificate, 1 for an invalid certificate, 2
for usage and semantic errors, 3 for malformed input text, 4 when an
instance exceeds a solver cap or the machine's memory, 5 when a certificate
the program produced failed its own check; nothing was written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from .core import is_complete, positive_part
from .errors import (
    CapExceededError,
    InfeasibleOrderingError,
    InternalError,
    LineEmbedError,
    ParseError,
)
from .formats import (
    _content_lines,
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
from .generators import (
    gen_planted_complete,
    gen_random_cnf,
    gen_random_signed_graph,
)
from .intervals import model_intersection_graph, ordering_to_model
from .intervals import ordering_violation, solve_complete
from .reductions import (
    adp_violation,
    falsified_clause,
    stage_reductions,
    unsplit_set_index,
)
from .solvers import run_bench, solve_bruteforce, solve_subset_dp


class UsageError(LineEmbedError):
    """Semantically wrong invocation (wrong kinds, impossible request)."""


def _read(path: str) -> tuple[bytes, str]:
    """(bytes, path) of a file, line ends made `\\n` as text mode would.
    The parsers decode the lines they read as text, and raise a ParseError
    at the line of a byte that is not UTF-8."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data, path


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc}") from exc


def _cert_kind(data: bytes, source: str, empty: Optional[str] = None) -> str:
    """The kind its first content line names, or `empty` when it has none."""
    first = next(_content_lines(data, source), None)
    kind = empty if first is None else first[1][0]
    if kind is None:
        raise ParseError("empty certificate", source)
    if kind not in _certs():
        raise ParseError(f"unknown certificate line kind {kind!r}", source)
    return kind


# ---------------------------------------------------------------------------
# Certificate checks
# ---------------------------------------------------------------------------
#
# One checker per certificate kind.  A checker takes the instance, the
# certificate and the certificate's source name; it raises ParseError when
# the certificate's size does not fit the instance and returns None for a
# valid certificate, else the reason it is invalid.  `verify` prints that
# result, and `solve` and `lift` run the same checker once on every
# certificate they produce, before anything is written.


def _check_ordering(g, ordering, source) -> Optional[str]:
    if ordering is None:
        raise UsageError(
            "an infeasibility claim cannot be checked against the instance"
        )
    if len(ordering) != g.n:
        raise ParseError(
            f"ordering lists {len(ordering)} vertices, instance has {g.n}", source
        )
    vio = ordering_violation(g, ordering)
    if vio is None:
        return None
    return (
        f"vertex {vio.u} sees positive neighbour {vio.u1} beyond "
        f"negative neighbour {vio.u2} on its {vio.side}"
    )


def _check_model(g, model, source) -> Optional[str]:
    if model.n != g.n:
        raise ParseError(f"model covers {model.n} vertices, instance has {g.n}", source)
    if not is_complete(g):
        return "instance is not a complete signed graph"
    model.validate()  # at once for a parsed model, which parse_model_cert validated
    if model_intersection_graph(model) != positive_part(g):
        return "interval intersections do not match the positive edges"
    return None


def _check_splitter(sys_inst, x, source) -> Optional[str]:
    try:
        missed = unsplit_set_index(sys_inst, x)
    except LineEmbedError as exc:
        return str(exc)
    return None if missed is None else f"set {missed} is not split"


def _check_partition(digraph, part, source) -> Optional[str]:
    covered = len(part.part1) + len(part.part2)
    if covered != digraph.n:
        raise ParseError(
            f"partition covers {covered} vertices, instance has {digraph.n}", source
        )
    vio = adp_violation(digraph, part)
    if vio is None:
        return None
    side, cycle = vio
    return f"part {side} contains the cycle " + " ".join(str(v) for v in cycle)


def _check_assignment(cnf, assignment, source) -> Optional[str]:
    if len(assignment.values) != cnf.num_vars:
        raise ParseError(
            f"assignment covers {len(assignment.values)} variables, "
            f"instance has {cnf.num_vars}",
            source,
        )
    idx = falsified_clause(cnf, assignment)
    return None if idx is None else f"clause {idx} is falsified"


class _CertKind(NamedTuple):
    name: str
    instance: str  # the instance kind this certificate kind applies to
    parse_instance: Callable
    serialize_instance: Callable
    parse: Callable
    serialize: Callable
    check: Callable


def _certs() -> dict[str, _CertKind]:
    """Certificate kind -> how to read, write and check it.  Built per call,
    so a function replaced after import (a test fake, a tracer) is used."""
    return {
        "o": _CertKind(
            "ordering", "sg", parse_signed_graph, serialize_signed_graph,
            parse_ordering_cert, serialize_ordering_cert, _check_ordering,
        ),
        "i": _CertKind(
            "interval model", "sg", parse_signed_graph, serialize_signed_graph,
            parse_model_cert, serialize_model_cert, _check_model,
        ),
        "x": _CertKind(
            "splitter", "ss", parse_set_system, serialize_set_system,
            parse_splitter_cert, serialize_splitter_cert, _check_splitter,
        ),
        "part": _CertKind(
            "partition", "dg", parse_digraph, serialize_digraph,
            parse_partition_cert, serialize_partition_cert, _check_partition,
        ),
        "v": _CertKind(
            "assignment", "cnf", parse_cnf, serialize_cnf,
            parse_assignment_cert, serialize_assignment_cert, _check_assignment,
        ),
    }


# Reduction stage -> the certificate kinds of the instances it reads and writes.
_STAGE_KINDS = {
    "sat2ss": ("v", "x"),
    "ss2adp": ("x", "part"),
    "adp2lce": ("part", "o"),
    "sat2lce": ("v", "o"),
}


def _check_out(kind: str, instance, cert) -> None:
    """Raise InternalError unless a certificate this program produced passes
    the check `verify` would run on it."""
    try:
        problem = _certs()[kind].check(instance, cert, None)
    except LineEmbedError as exc:
        problem = str(exc)
    if problem is not None:
        raise InternalError(
            f"the {_certs()[kind].name} certificate this program produced failed "
            f"its check, nothing was written: {problem}"
        )


def _emit_checked(kind: str, instance, cert, out: Optional[str]) -> int:
    _check_out(kind, instance, cert)
    _emit(_certs()[kind].serialize(cert), out)
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.cap is not None and args.cap < 0:
        raise UsageError("--cap must be at least 0")
    cap = {} if args.cap is None else {"cap": args.cap}
    data, source = _read(args.instance)
    g = parse_signed_graph(data, source)
    algo = args.algo
    if algo == "auto":
        algo = "complete" if is_complete(g) else "dp"
    if algo == "complete":
        if not is_complete(g):
            raise UsageError("--algo complete needs a complete signed graph")
        ordering = solve_complete(g)
    elif algo == "brute":
        ordering = solve_bruteforce(g, **cap)
    else:
        ordering = solve_subset_dp(g, **cap)
    if args.model is not None:
        if not is_complete(g):
            raise UsageError("--model needs a complete signed graph")
        if ordering is None:
            raise UsageError("--model needs a feasible instance")
        try:
            model = ordering_to_model(g, ordering)  # the ordering's one check
        except InfeasibleOrderingError:
            _check_out("o", g, ordering)  # fails, naming the violation
            raise
        _emit_checked("i", g, model, args.model)
    elif ordering is not None:
        _check_out("o", g, ordering)
    _emit(serialize_ordering_cert(ordering), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    inst_data, inst_source = _read(args.instance)
    cert_data, cert_source = _read(args.cert)
    kind = instance_kind(inst_data, inst_source)
    # A certificate with no content line is the empty model of an sg instance.
    cert = _cert_kind(cert_data, cert_source, "i" if kind == "sg" else None)
    spec = _certs()[cert]
    if kind != spec.instance:
        raise UsageError(
            f"certificate kind {cert!r} does not apply to instance kind {kind!r}"
        )
    problem = spec.check(
        spec.parse_instance(inst_data, inst_source),
        spec.parse(cert_data, cert_source),
        cert_source,
    )
    print("VALID" if problem is None else f"INVALID: {problem}")
    return 0 if problem is None else 1


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def _cmd_reduce(args: argparse.Namespace) -> int:
    data, source = _read(args.instance)
    kind = instance_kind(data, source)
    reads, writes = (_certs()[cert] for cert in _STAGE_KINDS[args.stage])
    if kind != reads.instance:
        raise UsageError(
            f"stage {args.stage} starts from a {reads.instance} instance, got {kind}"
        )
    reduce = stage_reductions()[args.stage].reduce
    out_obj, mapping = reduce(reads.parse_instance(data, source))
    _emit(writes.serialize_instance(out_obj), args.out)
    if args.map is not None:
        _emit(serialize_mapping(mapping), args.map)
    return 0


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------


def _cmd_lift(args: argparse.Namespace) -> int:
    map_data, map_source = _read(args.mapping)
    cert_data, cert_source = _read(args.cert)
    stage, source_inst, reduced_inst, mapping = read_mapping(map_data, map_source)
    lifted_kind, reduced_kind = _STAGE_KINDS[stage]
    cert = _cert_kind(cert_data, cert_source)
    if cert != reduced_kind:
        raise UsageError(
            f"the {stage} mapping lifts {_certs()[reduced_kind].name} "
            f"certificates ('{reduced_kind}' lines), not '{cert}'"
        )
    spec = _certs()[cert]
    reduced = spec.parse(cert_data, cert_source)
    if reduced is None:
        raise UsageError("an infeasibility claim cannot be lifted")
    problem = spec.check(reduced_inst, reduced, cert_source)
    if problem is not None:
        print(f"INVALID: {problem}")
        return 1
    lift = stage_reductions()[stage].lift
    return _emit_checked(lifted_kind, source_inst, lift(reduced, mapping), args.out)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    # kind -> (generator, serializer, its options in argument order), built
    # per call as _certs() is, so a function replaced after import is used.
    generate, serialize, names = {
        "random-sg": (gen_random_signed_graph, serialize_signed_graph,
                      ("n", "p_pos", "p_neg", "seed")),
        "planted-complete": (gen_planted_complete, serialize_signed_graph,
                             ("n", "spread", "seed")),
        "random-cnf": (gen_random_cnf, serialize_cnf, ("vars", "clauses", "seed")),
    }[args.kind]
    if args.kind == "planted-complete" and args.spread is None:
        args.spread = max(args.n / 4.0, 1.0)
    values = [getattr(args, name) for name in names]
    fields = " ".join(f"{name.replace('_', '-')}={v}" for name, v in zip(names, values))
    _emit(f"c {args.kind} {fields}\n" + serialize(generate(*values)), args.out)
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _cmd_bench(args: argparse.Namespace) -> int:
    """Time the subset DP that `solve` runs on a negative path of each size,
    where every prefix set is reachable, and print the median doubling
    ratio."""
    if args.min_n < 0:
        raise UsageError("--min-n must be at least 0")
    if args.max_n < args.min_n:
        raise UsageError("--max-n must be at least --min-n")
    if args.per_size < 1:
        raise UsageError("--per-size must be at least 1")
    report = run_bench(
        sizes=tuple(range(args.min_n, args.max_n + 1)),
        per_size=args.per_size,
    )
    medians = report.median_seconds()
    for n, times, median in zip(report.sizes, report.per_size_seconds, medians):
        print(
            f"bench n={n} runs={len(times)} "
            f"median_ms={median * 1000:.3f} max_ms={max(times) * 1000:.3f}"
        )
    if len(report.sizes) > 1:
        print(f"bench ratio-median={report.ratio_median():.3f}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lineembed",
        description="Solvers, reductions and certificate tools for line "
        "cluster embeddings of signed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide an instance, print a certificate")
    p_solve.add_argument("instance", help="signed graph file")
    p_solve.add_argument(
        "--algo",
        choices=("auto", "dp", "brute", "complete"),
        default="auto",
        help="auto picks the complete-graph route when it applies, else dp",
    )
    p_solve.add_argument("--cap", type=int, help="override the solver size cap")
    p_solve.add_argument("--out", help="write the ordering certificate here")
    p_solve.add_argument(
        "--model", help="also write an interval model certificate here"
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="check a certificate, exit 0/1")
    p_verify.add_argument("instance", help="instance file")
    p_verify.add_argument("cert", help="certificate file")
    p_verify.set_defaults(func=_cmd_verify)

    p_reduce = sub.add_parser("reduce", help="translate an instance one stage down")
    p_reduce.add_argument("stage", choices=tuple(_STAGE_KINDS))
    p_reduce.add_argument("instance", help="source instance file")
    p_reduce.add_argument("--out", help="write the produced instance here")
    p_reduce.add_argument("--map", help="write the reduction mapping here")
    p_reduce.set_defaults(func=_cmd_reduce)

    p_lift = sub.add_parser(
        "lift", help="pull a certificate back through a reduction mapping"
    )
    p_lift.add_argument("mapping", help="mapping file written by reduce --map")
    p_lift.add_argument("cert", help="certificate for the reduced instance")
    p_lift.add_argument("--out", help="write the lifted certificate here")
    p_lift.set_defaults(func=_cmd_lift)

    p_gen = sub.add_parser("gen", help="generate an instance deterministically")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    g_sg = gen_sub.add_parser("random-sg", help="independent random signed pairs")
    g_sg.add_argument("--n", type=int, required=True)
    g_sg.add_argument("--p-pos", type=float, default=0.25)
    g_sg.add_argument("--p-neg", type=float, default=0.25)
    g_pc = gen_sub.add_parser(
        "planted-complete", help="complete instance with a planted solution"
    )
    g_pc.add_argument("--n", type=int, required=True)
    g_pc.add_argument("--spread", type=float, help="default n/4")
    g_cnf = gen_sub.add_parser("random-cnf", help="random clauses of width 1..3")
    g_cnf.add_argument("--vars", type=int, required=True)
    g_cnf.add_argument("--clauses", type=int, required=True)
    for g_kind in (g_sg, g_pc, g_cnf):
        g_kind.add_argument("--seed", type=int, default=0)
        g_kind.add_argument("--out")
        g_kind.set_defaults(func=_cmd_gen)

    p_bench = sub.add_parser(
        "bench",
        help="time the subset DP on negative paths, which reach every prefix set",
    )
    p_bench.add_argument("--min-n", type=int, default=14)
    p_bench.add_argument("--max-n", type=int, default=20)
    p_bench.add_argument("--per-size", type=int, default=5)
    p_bench.set_defaults(func=_cmd_bench)

    return parser


# Exit code of an error by its kind; any other LineEmbedError exits 2.
_EXIT_CODES = ((ParseError, 3), (CapExceededError, 4), (InternalError, 5))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MemoryError:
        # The subset DP and every reduction predict their size before
        # allocating (core._refuse_over); this is the net for the rest.
        print("error: instance needs more memory than is available", file=sys.stderr)
        return 4
    except LineEmbedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kind, code in _EXIT_CODES if isinstance(exc, kind)), 2)


if __name__ == "__main__":
    sys.exit(main())
