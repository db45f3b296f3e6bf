"""Command-line surface over the library with stable file formats.

Each command is one entry of ``COMMANDS``: its help text, its arguments as
data, each input file with the reader of its format, and a handler
``(args, report)``.  ``construct`` looks its id up in ``CONSTRUCTIONS``.
``run`` builds the parser of the named command only (of every command for
help, no command or an unknown one), once per process: a later call with
the same command reuses it.  It then reads the input files, calls the one
handler and emits the report.

Reports are line-oriented ``KEY: value`` text (or one JSON document with
--json, where a key that occurs more than once maps to the list of its
values in order).  Exit codes: 0 when the command reached its verdict and
every check passed, 1 for domain failures with a diagnosis, 2 for usage
errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import constructions as cons
from . import invariants as inv
from .errors import BadInput, FullShiftError
from .sft import (
    CYLINDER_LIMIT,
    EMPTY_WORD,
    ClopenSet,
    EPPoint,
    TransitionMatrix,
    format_clopen_text,
    format_point,
    format_word,
    is_point_admissible,
    parse_clopen_text,
    parse_matrix_text,
    parse_point,
    parse_word,
)
from .tables import TableMap, format_table_text, parse_table_text

# the most symbols `words` lists in all: every length up to 32 whose word
# count is within CYLINDER_LIMIT still prints, and a slowly growing shift
# cannot fill memory with long words under the count limit
SYMBOL_LIMIT = 32 * CYLINDER_LIMIT


class Report:
    """Accumulates KEY: value lines plus named PASS/FAIL checks."""

    def __init__(self, command: str):
        self.lines: list[tuple[str, str]] = [("COMMAND", command)]
        self.checks: list[tuple[str, bool]] = []
        self.artifacts: list[str] = []

    def add(self, key: str, value) -> None:
        self.lines.append((key, str(value)))

    def emit(self, as_json: bool) -> None:
        if as_json:
            values: dict[str, list[str]] = {}
            for key, value in self.lines:
                values.setdefault(key, []).append(value)
            doc = {
                "report": {key: vs if len(vs) > 1 else vs[0] for key, vs in values.items()},
                "checks": {name: ("PASS" if ok else "FAIL") for name, ok in self.checks},
                "artifacts": self.artifacts,
            }
            print(json.dumps(doc, indent=2, sort_keys=True))
            return
        for key, value in self.lines:
            print(f"{key}: {value}")
        for name, ok in self.checks:
            print(f"CHECK {name}: {'PASS' if ok else 'FAIL'}")


def _reader(parse):
    """The reader, (matrix, path) -> value, of input files in the format
    parse(matrix, text) reads: UTF-8 text.  The matrix is the one the
    command has read already; a matrix reader ignores it."""

    def read(matrix: TransitionMatrix | None, path: str):
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise BadInput(f"{path} is not UTF-8 text (byte {exc.start})") from None
        return parse(matrix, text)

    return read


_read_matrix = _reader(lambda _, text: parse_matrix_text(text))
_read_clopen = _reader(parse_clopen_text)
_read_table = _reader(parse_table_text)


def _read_point(matrix: TransitionMatrix, text: str) -> EPPoint:
    point = parse_point(text)
    if not is_point_admissible(matrix, point):
        raise FullShiftError(f"point {text} is not admissible for this matrix")
    return point


def _write(path: str | None, value: TableMap | ClopenSet, report: Report) -> None:
    """Write a table or a clopen set to path in its file format, if a path
    was given."""
    if path:
        format_text = format_table_text if isinstance(value, TableMap) else format_clopen_text
        Path(path).write_text(format_text(value))
        report.artifacts.append(path)
        report.add("ARTIFACT", path)


def _clopen_summary(c: ClopenSet) -> str:
    if c.is_empty:
        return "EMPTY"
    if c.is_full:
        return "FULL"
    return f"depth {c.depth}: " + " ".join(format_word(w) for w in c.sorted_words())


def _add_support(report: Report, table: TableMap) -> ClopenSet:
    """Report the support and the exact fixed-point set; return the support."""
    support, fixed = table.support_and_fixed()
    report.add("SUPPORT", _clopen_summary(support))
    report.add("FIXED-CLOPEN", _clopen_summary(fixed.clopen_part))
    for pt in fixed.isolated:
        report.add("FIXED-POINT", format_point(pt))
    return support


def _add_cocycles(report: Report, table: TableMap) -> None:
    """One line per code word.  A table read from an ``L`` file is its own
    uniform view, so these are the cocycles of every word of its depth."""
    for w, (k, l) in table.cocycles().items():
        report.add("COCYCLE", f"{format_word(w)} k={k} l={l}")


# constructions: (output path, report, *the values of the options it needs)


def _involution_into(out: str, report: Report, source, target, x) -> None:
    hood, alpha = cons.involution_into(source, target, x)
    report.add("V", _clopen_summary(hood))
    report.checks.extend(cons.check_involution_into(source, target, x, hood, alpha))
    _write(out, alpha, report)


def _swap_involution(out: str, report: Report, u, v, gamma) -> None:
    alpha = cons.swap_involution(u, v, gamma)
    report.checks.extend(cons.check_swap_involution(u, v, alpha))
    _write(out, alpha, report)


def _free_pair(out: str, report: Report, region) -> None:
    psi, phi, base = cons.free_pair(region)
    report.add("F", _clopen_summary(base))
    report.checks.extend(cons.check_free_pair(region, psi, phi, base))
    stem = out.removesuffix(".tbl")
    _write(f"{stem}.psi.tbl", psi, report)
    _write(f"{stem}.phi.tbl", phi, report)
    _write(f"{stem}.F.clo", base, report)


def _localize_conjugate(out: str, report: Report, eta, u, region) -> None:
    gamma = cons.localize_conjugate(eta, u, region)
    report.checks.extend(cons.check_localize_conjugate(eta, u, region, gamma))
    _write(out, gamma, report)


def _cylinder_involution(out: str, report: Report, nu, v) -> None:
    alpha = cons.cylinder_involution(v.matrix, nu, v)
    report.checks.extend(cons.check_cylinder_involution(v.matrix, nu, v, alpha))
    _write(out, alpha, report)


def _clopen_transport(out: str, report: Report, u, w) -> None:
    alpha = cons.clopen_transport(u, w)
    report.checks.extend(cons.check_clopen_transport(u, w, alpha))
    _write(out, alpha, report)


def _paired_transport(out: str, report: Report, region, u, v, w, w2, gamma) -> None:
    us, vs, alphas, betas = cons.paired_transport(region, u, v, w, w2, gamma)
    report.add("PARTS", len(us))
    report.checks.extend(
        cons.check_paired_transport(region, u, v, w, w2, gamma, us, vs, alphas, betas)
    )
    stem = out.removesuffix(".tbl")
    for i, (a, b) in enumerate(zip(alphas, betas), start=1):
        _write(f"{stem}.alpha{i}.tbl", a, report)
        _write(f"{stem}.beta{i}.tbl", b, report)


def _minimality_witness(out: str, report: Report, u, v) -> None:
    gamma = cons.minimality_witness(u, v)
    report.add("EFFECTIVE-SOURCE", _clopen_summary(cons.minimality_source(u, v)))
    report.checks.extend(cons.check_minimality_witness(u, v, gamma))
    _write(out, gamma, report)


# id -> (the options the construction needs, checked in this order; handler)
CONSTRUCTIONS: dict[str, tuple[tuple[str, ...], Callable[..., None]]] = {
    "2.1": (("U", "Y", "x"), _involution_into),
    "2.2": (("U", "V", "witness"), _swap_involution),
    "2.4": (("O",), _free_pair),
    "3.11": (("eta", "U", "O"), _localize_conjugate),
    "4.1": (("nu", "V"), _cylinder_involution),
    "4.3": (("U", "W"), _clopen_transport),
    "4.4": (("O", "U", "V", "W", "W2", "witness"), _paired_transport),
    "4.10": (("U", "V"), _minimality_witness),
}


def _arg(*flags: str, read=None, **options):
    """One argument of a command: the flags and options of add_argument,
    and for an input file its reader."""
    return flags, options, read


# --json may also follow the command; SUPPRESS keeps it from resetting one given before
JSON = _arg(
    "--json", action="store_true", default=argparse.SUPPRESS, help="emit the report as JSON"
)
MATRIX = _arg("matrix", read=_read_matrix)
TABLE = _arg("table", read=_read_table)
OUT = _arg("-o", "--out")


class Command(NamedTuple):
    help: str
    arguments: tuple
    handler: Callable[[argparse.Namespace, Report], None]


COMMANDS: dict[str, Command] = {}  # in the order help lists them


def _command(name: str, help: str, *arguments):
    """Enter the decorated handler in COMMANDS under name."""
    def enter(handler):
        COMMANDS[name] = Command(help, arguments, handler)
        return handler
    return enter


@_command("validate-matrix", "validate a transition matrix file", MATRIX)
def _validate_matrix(args, report: Report) -> None:
    report.add("SIZE", args.matrix.n)
    report.add("RESULT", "valid")


@_command("words", "admissible words of a given length", MATRIX, _arg("length", type=int))
def _words(args, report: Report) -> None:
    count = args.matrix.count_within((EMPTY_WORD,), args.length, CYLINDER_LIMIT)
    if count is None:
        raise BadInput(f"more than {CYLINDER_LIMIT} words of length {args.length}")
    if count * args.length > SYMBOL_LIMIT:
        raise BadInput(
            f"{count} words of length {args.length} hold more than {SYMBOL_LIMIT} symbols"
        )
    report.add("LENGTH", args.length)
    report.add("COUNT", count)
    for w in args.matrix.words(args.length):
        report.add("WORD", format_word(w))


@_command(
    "clopen", "Boolean algebra of clopen sets",
    MATRIX,
    _arg("op", choices=["union", "intersection", "difference", "complement", "canon", "compare"]),
    _arg("first", read=_read_clopen),
    _arg("second", nargs="?", read=_read_clopen),
    OUT,
)
def _clopen(args, report: Report) -> None:
    if args.op == "canon":
        result = args.first
    elif args.op == "complement":
        result = args.first.complement()
    elif args.second is None:
        raise FullShiftError(f"clopen {args.op} needs two operands")
    elif args.op == "compare":
        report.add("RELATION", args.first.compare(args.second))
        return
    else:
        # union, intersection or difference: a ClopenSet method of that name
        result = getattr(args.first, args.op)(args.second)
    report.add("RESULT", _clopen_summary(result))
    _write(args.out, result, report)


@_command("table-validate", "validate a table file", MATRIX, TABLE)
def _table_validate(args, report: Report) -> None:
    report.add("DEPTH", args.table.depth)
    report.add("ENTRIES", args.table.entry_count())
    report.add("RESULT", "valid")


@_command(
    "compose", "compose two tables (outer inner)",
    MATRIX, _arg("outer", read=_read_table), _arg("inner", read=_read_table), OUT,
)
def _compose(args, report: Report) -> None:
    result = args.outer.compose(args.inner)
    report.add("DEPTH", result.depth)
    report.add("IDENTITY", result.is_identity)
    _write(args.out, result, report)


@_command("inverse", "invert a table", MATRIX, TABLE, OUT)
def _inverse(args, report: Report) -> None:
    result = args.table.inverse()
    report.add("DEPTH", result.depth)
    _write(args.out, result, report)


@_command("reduce", "canonical minimal-depth form of a table", MATRIX, TABLE, OUT)
def _reduce(args, report: Report) -> None:
    result = args.table.reduce()
    report.add("DEPTH", result.depth)
    report.add("IDENTITY", result.is_identity)
    _write(args.out, result, report)


@_command(
    "order", "order of a table in the group, within a bound",
    MATRIX, TABLE, _arg("--bound", type=int, default=64),
)
def _order(args, report: Report) -> None:
    order = args.table.order(args.bound)
    report.add("ORDER", order if order is not None else "EXCEEDS-BOUND")


@_command(
    "support", "support and exact fixed-point set",
    MATRIX, TABLE, _arg("-o", "--out", help="write the support clopen set here"),
)
def _support(args, report: Report) -> None:
    _write(args.out, _add_support(report, args.table), report)


@_command("cocycles", "orbit cocycle constants per cylinder", MATRIX, TABLE)
def _cocycles(args, report: Report) -> None:
    report.add("DEPTH", args.table.depth)
    _add_cocycles(report, args.table)


@_command(
    "commutes", "whether two tables commute",
    MATRIX, _arg("first", read=_read_table), _arg("second", read=_read_table),
)
def _commutes(args, report: Report) -> None:
    report.add("COMMUTES", args.first.commutes(args.second))


@_command(
    "local-member", "membership in the local subgroup of a clopen set",
    MATRIX, TABLE, _arg("region", read=_read_clopen),
)
def _local_member(args, report: Report) -> None:
    report.add("MEMBER", args.table.in_local_subgroup(args.region))


@_command(
    "split", "factor a table over an invariant clopen set",
    MATRIX, TABLE, _arg("region", read=_read_clopen), _arg("--out-inside"), _arg("--out-outside"),
)
def _split(args, report: Report) -> None:
    inside, outside = args.table.split_invariant(args.region)
    report.checks.extend(cons.check_split_invariant(args.table, args.region, inside, outside))
    _write(args.out_inside, inside, report)
    _write(args.out_outside, outside, report)


@_command(
    "construct", "run a witness construction and verify it",
    _arg("id", help="construction id: " + " ".join(CONSTRUCTIONS)),
    MATRIX,
    *(_arg(f"--{name}", help="clopen set file", read=_read_clopen)
      for name in ("U", "V", "Y", "W", "W2", "O")),
    _arg("--x", help="point as pre|per", read=_read_point),
    _arg("--nu", help="word, comma separated", read=lambda _, text: parse_word(text)),
    _arg("--eta", help="table file", read=_read_table),
    _arg("--witness", help="table file carrying U onto V", read=_read_table),
    _arg("-o", "--out", help="output path or prefix for witness tables"),
)
def _construct(args, report: Report) -> None:
    if args.id not in CONSTRUCTIONS:
        raise FullShiftError(f"unknown construction id {args.id!r}")
    needs, handler = CONSTRUCTIONS[args.id]
    for name in needs:
        if getattr(args, name) is None:
            raise FullShiftError(f"construction {args.id} needs --{name}")
    handler(args.out or "witness.tbl", report, *(getattr(args, name) for name in needs))


@_command(
    "witness-search", "bounded exhaustive search for a table",
    MATRIX,
    _arg("--depth-bound", type=int, required=True),
    _arg("--image-bound", type=int, required=True),
    _arg("--maps-onto", nargs=2, metavar=("U", "V"), help="clopen set files",
         read=lambda matrix, paths: [_read_clopen(matrix, path) for path in paths]),
    _arg("--order", type=int, help="require this exact order (checked to the bound)"),
    _arg("--support-in", metavar="O", help="clopen set file", read=_read_clopen),
    OUT,
)
def _witness_search(args, report: Report) -> None:
    if args.order is not None and args.order < 1:
        raise BadInput("--order must be at least 1")
    if not (args.maps_onto or args.support_in or args.order is not None):
        raise FullShiftError("witness-search needs at least one condition")
    conditions = []
    if args.support_in:
        conditions.append(lambda t: t.in_local_subgroup(args.support_in))
    if args.order is not None:
        conditions.append(lambda t: t.order(max(args.order, 2)) == args.order)
    found = cons.witness_search(
        args.matrix,
        lambda t: all(c(t) for c in conditions),
        args.depth_bound,
        args.image_bound,
        inv.maps_onto_candidates(*args.maps_onto) if args.maps_onto else None,
    )
    if found is None:
        report.add("RESULT", "EXHAUSTED")
        return
    report.add("RESULT", "FOUND")
    report.add("DEPTH", found.depth)
    _write(args.out, found, report)


@_command("bf", "pointed cokernel invariant of a matrix", MATRIX)
def _bf(args, report: Report) -> None:
    group, unit = inv.bowen_franks(args.matrix)
    report.add("GROUP", group.describe())
    report.add("INVARIANT-FACTORS", " ".join(map(str, group.torsion)) or "none")
    report.add("FREE-RANK", group.free_rank)
    report.add("UNIT-CLASS", " ".join(map(str, unit.coords)))
    report.add("UNIT-ORDER", unit.order() if unit.order() is not None else "infinite")
    report.add("DET", group.shift_determinant)


@_command(
    "decide-iso", "compare the full groups of two matrices",
    _arg("matrix_a", read=_read_matrix), _arg("matrix_b", read=_read_matrix),
)
def _decide_iso(args, report: Report) -> None:
    result = inv.full_group_iso_decide(args.matrix_a, args.matrix_b)
    report.add("GROUP-A", result.group_a.describe())
    report.add("UNIT-A", " ".join(map(str, result.unit_a.coords)))
    report.add("GROUP-B", result.group_b.describe())
    report.add("UNIT-B", " ".join(map(str, result.unit_b.coords)))
    report.add("DET-A", result.det_a)
    report.add("DET-B", result.det_b)
    report.add("POINTED", result.pointed.verdict)
    report.add("VERDICT", result.verdict)
    report.add("REASON", result.reason)


@_command(
    "clopen-class", "cokernel class of a clopen set",
    MATRIX, _arg("clopen", read=_read_clopen),
)
def _clopen_class(args, report: Report) -> None:
    group, _ = inv.bowen_franks(args.matrix)
    report.add("GROUP", group.describe())
    report.add("CLASS", " ".join(map(str, inv.clopen_class(args.clopen, group).coords)))
    report.add("CERTIFICATE", "cokernel class (K-theory identification)")


@_command(
    "gamma-equiv", "decide equivalence of two clopen sets",
    MATRIX,
    _arg("first", read=_read_clopen),
    _arg("second", read=_read_clopen),
    _arg("--depth-bound", type=int, default=2),
    _arg("--image-bound", type=int, default=3),
    _arg("-o", "--out", help="write the witness table here"),
)
def _gamma_equiv(args, report: Report) -> None:
    result = inv.gamma_equivalent(
        args.first, args.second, depth_bound=args.depth_bound, image_bound=args.image_bound
    )
    report.add("STATUS", result.status)
    report.add("REASON", result.reason)
    if result.witness is not None:
        carried = result.witness.image_clopen(args.first) == args.second
        report.checks.extend([("witness carries U onto V", carried)])
        _write(args.out, result.witness, report)


@_command("verify", "revalidate a table and print its full profile", MATRIX, TABLE)
def _verify(args, report: Report) -> None:
    _table_validate(args, report)
    _add_support(report, args.table)
    _add_cocycles(report, args.table)


@functools.cache
def _build_parser(name: str | None) -> argparse.ArgumentParser:
    """The top-level parser with a subcommand parser for the named command
    only, or for every command when name is None.

    Built on the first call for a name and handed back on every later one,
    so a process holds at most one parser per command plus the full one:
    ``parse_args`` leaves a parser unchanged, and each call gets a new
    namespace.  A parser for one command still names them all in its usage
    lines; the full parser keeps argparse's metavar, "command" in errors."""
    parser = argparse.ArgumentParser(
        prog="fullshift",
        description="Exact computations in continuous full groups of one-sided Markov shifts.",
    )
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    metavar = None if name is None else "{" + ",".join(COMMANDS) + "}"
    subparsers = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for key in COMMANDS if name is None else [name]:
        command = COMMANDS[key]
        sub = subparsers.add_parser(key, help=command.help)
        for flags, options, _ in (JSON, *command.arguments):
            sub.add_argument(*flags, **options)
    return parser


def run(argv: list[str]) -> int:
    name = next((token for token in argv if token != "--json"), None)
    parser = _build_parser(name if name in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = COMMANDS[args.command]
    report = Report(args.command)
    try:
        # each input file, in argument order, is replaced by what it holds
        for flags, _, read in command.arguments:
            dest = flags[-1].lstrip("-").replace("-", "_")
            if read is not None and getattr(args, dest) is not None:
                setattr(args, dest, read(getattr(args, "matrix", None), getattr(args, dest)))
        command.handler(args, report)
        failed = not all(ok for _, ok in report.checks)
    except FullShiftError as exc:
        report.add("ERROR", f"{type(exc).__name__}: {exc}")
        failed = True
    except OSError as exc:
        report.add("ERROR", str(exc))
        failed = True
    report.emit(args.json)
    return 1 if failed else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
