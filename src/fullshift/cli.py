"""Command-line surface over the library with stable file formats.

Reports are line-oriented ``KEY: value`` text (or one JSON document with
--json, where a key that occurs more than once maps to the list of its
values in order).  Exit codes: 0 when the command reached its verdict and
every check passed, 1 for domain failures with a diagnosis, 2 for usage
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from . import constructions as cons
from . import invariants as inv
from .errors import BadInput, FullShiftError
from .sft import (
    ClopenSet,
    TransitionMatrix,
    admissible_words,
    boolean_op,
    clopen_compare,
    format_clopen_text,
    format_point,
    format_word,
    is_point_admissible,
    parse_clopen_text,
    parse_matrix_text,
    parse_point,
    parse_word,
)
from .tables import CocycleTable, TableMap, format_table_text, parse_table_text


class Report:
    """Accumulates KEY: value lines plus named PASS/FAIL checks."""

    def __init__(self, command: str):
        self.lines: list[tuple[str, str]] = [("COMMAND", command)]
        self.checks: list[tuple[str, bool]] = []
        self.artifacts: list[str] = []

    def add(self, key: str, value) -> None:
        self.lines.append((key, str(value)))

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, ok))

    def extend_checks(self, checks) -> None:
        self.checks.extend(checks)

    def artifact(self, path: str) -> None:
        self.artifacts.append(path)
        self.lines.append(("ARTIFACT", path))

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok in self.checks)

    def emit(self, as_json: bool) -> None:
        if as_json:
            counts = Counter(key for key, _ in self.lines)
            report: dict[str, str | list[str]] = {}
            for key, value in self.lines:
                if counts[key] > 1:
                    report.setdefault(key, []).append(value)
                else:
                    report[key] = value
            doc = {
                "report": report,
                "checks": {name: ("PASS" if ok else "FAIL") for name, ok in self.checks},
                "artifacts": self.artifacts,
            }
            print(json.dumps(doc, indent=2, sort_keys=True))
            return
        for key, value in self.lines:
            print(f"{key}: {value}")
        for name, ok in self.checks:
            print(f"CHECK {name}: {'PASS' if ok else 'FAIL'}")


def _read_text(path: str) -> str:
    """The contents of an input file, which must be UTF-8 text."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise BadInput(f"{path} is not UTF-8 text (byte {exc.start})") from None


def _read_matrix(path: str) -> TransitionMatrix:
    return parse_matrix_text(_read_text(path))


def _read_clopen(matrix: TransitionMatrix, path: str) -> ClopenSet:
    return parse_clopen_text(matrix, _read_text(path))


def _read_table(matrix: TransitionMatrix, path: str) -> TableMap:
    return parse_table_text(matrix, _read_text(path))


def _write(path: str, text: str, report: Report) -> None:
    Path(path).write_text(text)
    report.artifact(path)


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


def _add_cocycles(report: Report, cocycles: CocycleTable) -> None:
    for w in sorted(cocycles.values):
        k, l = cocycles.values[w]
        report.add("COCYCLE", f"{format_word(w)} k={k} l={l}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fullshift",
        description="Exact computations in continuous full groups of one-sided Markov shifts.",
    )
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="emit the report as JSON",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_command(name, **kwargs):
        return subparsers.add_parser(name, parents=[common], **kwargs)

    p = add_command("validate-matrix", help="validate a transition matrix file")
    p.add_argument("matrix")

    p = add_command("words", help="admissible words of a given length")
    p.add_argument("matrix")
    p.add_argument("length", type=int)

    p = add_command("clopen", help="Boolean algebra of clopen sets")
    p.add_argument("matrix")
    p.add_argument(
        "op", choices=["union", "intersection", "difference", "complement", "canon", "compare"]
    )
    p.add_argument("first")
    p.add_argument("second", nargs="?")
    p.add_argument("-o", "--out")

    p = add_command("table-validate", help="validate a table file")
    p.add_argument("matrix")
    p.add_argument("table")

    p = add_command("compose", help="compose two tables (outer inner)")
    p.add_argument("matrix")
    p.add_argument("outer")
    p.add_argument("inner")
    p.add_argument("-o", "--out")

    p = add_command("inverse", help="invert a table")
    p.add_argument("matrix")
    p.add_argument("table")
    p.add_argument("-o", "--out")

    p = add_command("reduce", help="canonical minimal-depth form of a table")
    p.add_argument("matrix")
    p.add_argument("table")
    p.add_argument("-o", "--out")

    p = add_command("order", help="order of a table in the group, within a bound")
    p.add_argument("matrix")
    p.add_argument("table")
    p.add_argument("--bound", type=int, default=64)

    p = add_command("support", help="support and exact fixed-point set")
    p.add_argument("matrix")
    p.add_argument("table")
    p.add_argument("-o", "--out", help="write the support clopen set here")

    p = add_command("cocycles", help="orbit cocycle constants per cylinder")
    p.add_argument("matrix")
    p.add_argument("table")

    p = add_command("commutes", help="whether two tables commute")
    p.add_argument("matrix")
    p.add_argument("first")
    p.add_argument("second")

    p = add_command("local-member", help="membership in the local subgroup of a clopen set")
    p.add_argument("matrix")
    p.add_argument("table")
    p.add_argument("region")

    p = add_command("split", help="factor a table over an invariant clopen set")
    p.add_argument("matrix")
    p.add_argument("table")
    p.add_argument("region")
    p.add_argument("--out-inside")
    p.add_argument("--out-outside")

    p = add_command("construct", help="run a witness construction and verify it")
    p.add_argument("id", help="construction id: 2.1 2.2 2.4 3.11 4.1 4.3 4.4 4.10")
    p.add_argument("matrix")
    p.add_argument("--U", help="clopen set file")
    p.add_argument("--V", help="clopen set file")
    p.add_argument("--Y", help="clopen set file")
    p.add_argument("--W", help="clopen set file")
    p.add_argument("--W2", help="clopen set file")
    p.add_argument("--O", help="clopen set file")
    p.add_argument("--x", help="point as pre|per")
    p.add_argument("--nu", help="word, comma separated")
    p.add_argument("--eta", help="table file")
    p.add_argument("--witness", help="table file carrying U onto V")
    p.add_argument("-o", "--out", help="output path or prefix for witness tables")

    p = add_command("witness-search", help="bounded exhaustive search for a table")
    p.add_argument("matrix")
    p.add_argument("--depth-bound", type=int, required=True)
    p.add_argument("--image-bound", type=int, required=True)
    p.add_argument("--maps-onto", nargs=2, metavar=("U", "V"), help="clopen set files")
    p.add_argument("--order", type=int, help="require this exact order (checked to the bound)")
    p.add_argument("--support-in", metavar="O", help="clopen set file")
    p.add_argument("-o", "--out")

    p = add_command("bf", help="pointed cokernel invariant of a matrix")
    p.add_argument("matrix")

    p = add_command("decide-iso", help="compare the full groups of two matrices")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")

    p = add_command("clopen-class", help="cokernel class of a clopen set")
    p.add_argument("matrix")
    p.add_argument("clopen")

    p = add_command("gamma-equiv", help="decide equivalence of two clopen sets")
    p.add_argument("matrix")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--depth-bound", type=int, default=2)
    p.add_argument("--image-bound", type=int, default=3)
    p.add_argument("-o", "--out", help="write the witness table here")

    p = add_command("verify", help="revalidate a table and print its full profile")
    p.add_argument("matrix")
    p.add_argument("table")

    return parser


def _cmd_construct(args, report: Report) -> None:
    matrix = _read_matrix(args.matrix)

    def need(name):
        value = getattr(args, name.replace("-", "_"))
        if value is None:
            raise FullShiftError(f"construction {args.id} needs --{name}")
        return value

    out = args.out or "witness.tbl"
    if args.id == "2.1":
        source = _read_clopen(matrix, need("U"))
        target = _read_clopen(matrix, need("Y"))
        x = parse_point(need("x"))
        if not is_point_admissible(matrix, x):
            raise FullShiftError(f"point {need('x')} is not admissible for this matrix")
        hood, alpha = cons.involution_into(source, target, x)
        report.add("V", _clopen_summary(hood))
        report.extend_checks(cons.check_involution_into(source, target, x, hood, alpha))
        _write(out, format_table_text(alpha), report)
    elif args.id == "2.2":
        u = _read_clopen(matrix, need("U"))
        v = _read_clopen(matrix, need("V"))
        gamma = _read_table(matrix, need("witness"))
        alpha = cons.swap_involution(u, v, gamma)
        report.extend_checks(cons.check_swap_involution(u, v, alpha))
        _write(out, format_table_text(alpha), report)
    elif args.id == "4.1":
        nu = parse_word(need("nu"))
        v = _read_clopen(matrix, need("V"))
        alpha = cons.cylinder_involution(matrix, nu, v)
        report.extend_checks(cons.check_cylinder_involution(matrix, nu, v, alpha))
        _write(out, format_table_text(alpha), report)
    elif args.id == "4.3":
        u = _read_clopen(matrix, need("U"))
        w = _read_clopen(matrix, need("W"))
        alpha = cons.clopen_transport(u, w)
        report.extend_checks(cons.check_clopen_transport(u, w, alpha))
        _write(out, format_table_text(alpha), report)
    elif args.id == "4.4":
        region = _read_clopen(matrix, need("O"))
        u = _read_clopen(matrix, need("U"))
        v = _read_clopen(matrix, need("V"))
        w = _read_clopen(matrix, need("W"))
        w2 = _read_clopen(matrix, need("W2"))
        gamma = _read_table(matrix, need("witness"))
        us, vs, alphas, betas = cons.paired_transport(region, u, v, w, w2, gamma)
        report.add("PARTS", len(us))
        report.extend_checks(
            cons.check_paired_transport(region, u, v, w, w2, gamma, us, vs, alphas, betas)
        )
        stem = out[:-4] if out.endswith(".tbl") else out
        for i, (a, b) in enumerate(zip(alphas, betas), start=1):
            _write(f"{stem}.alpha{i}.tbl", format_table_text(a), report)
            _write(f"{stem}.beta{i}.tbl", format_table_text(b), report)
    elif args.id == "4.10":
        u = _read_clopen(matrix, need("U"))
        v = _read_clopen(matrix, need("V"))
        gamma = cons.minimality_witness(u, v)
        report.add("EFFECTIVE-SOURCE", _clopen_summary(cons.minimality_source(u, v)))
        report.extend_checks(cons.check_minimality_witness(u, v, gamma))
        _write(out, format_table_text(gamma), report)
    elif args.id == "2.4":
        region = _read_clopen(matrix, need("O"))
        psi, phi, base = cons.free_pair(region)
        report.add("F", _clopen_summary(base))
        report.extend_checks(cons.check_free_pair(region, psi, phi, base))
        stem = out[:-4] if out.endswith(".tbl") else out
        _write(f"{stem}.psi.tbl", format_table_text(psi), report)
        _write(f"{stem}.phi.tbl", format_table_text(phi), report)
        _write(f"{stem}.F.clo", format_clopen_text(base), report)
    elif args.id == "3.11":
        eta = _read_table(matrix, need("eta"))
        u = _read_clopen(matrix, need("U"))
        region = _read_clopen(matrix, need("O"))
        gamma = cons.localize_conjugate(eta, u, region)
        report.extend_checks(cons.check_localize_conjugate(eta, u, region, gamma))
        _write(out, format_table_text(gamma), report)
    else:
        raise FullShiftError(f"unknown construction id {args.id!r}")


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    report = Report(args.command)
    try:
        if args.command == "validate-matrix":
            matrix = _read_matrix(args.matrix)
            report.add("SIZE", matrix.n)
            report.add("RESULT", "valid")
        elif args.command == "words":
            matrix = _read_matrix(args.matrix)
            words = admissible_words(matrix, args.length)
            report.add("LENGTH", args.length)
            report.add("COUNT", len(words))
            for w in words:
                report.add("WORD", format_word(w))
        elif args.command == "clopen":
            matrix = _read_matrix(args.matrix)
            first = _read_clopen(matrix, args.first)
            if args.op == "canon":
                result = first
            elif args.op == "complement":
                result = boolean_op("complement", first)
            else:
                if args.second is None:
                    raise FullShiftError(f"clopen {args.op} needs two operands")
                second = _read_clopen(matrix, args.second)
                if args.op == "compare":
                    report.add("RELATION", clopen_compare(first, second))
                    result = None
                else:
                    result = boolean_op(args.op, first, second)
            if result is not None:
                report.add("RESULT", _clopen_summary(result))
                if args.out:
                    _write(args.out, format_clopen_text(result), report)
        elif args.command == "table-validate":
            matrix = _read_matrix(args.matrix)
            table = _read_table(matrix, args.table)
            report.add("DEPTH", table.depth)
            report.add("ENTRIES", table.entry_count())
            report.add("RESULT", "valid")
        elif args.command == "compose":
            matrix = _read_matrix(args.matrix)
            outer = _read_table(matrix, args.outer)
            inner = _read_table(matrix, args.inner)
            result = outer.compose(inner)
            report.add("DEPTH", result.depth)
            report.add("IDENTITY", result.is_identity)
            if args.out:
                _write(args.out, format_table_text(result), report)
        elif args.command == "inverse":
            matrix = _read_matrix(args.matrix)
            table = _read_table(matrix, args.table)
            result = table.inverse()
            report.add("DEPTH", result.depth)
            if args.out:
                _write(args.out, format_table_text(result), report)
        elif args.command == "reduce":
            matrix = _read_matrix(args.matrix)
            table = _read_table(matrix, args.table)
            result = table.reduce()
            report.add("DEPTH", result.depth)
            report.add("IDENTITY", result.is_identity)
            if args.out:
                _write(args.out, format_table_text(result), report)
        elif args.command == "order":
            matrix = _read_matrix(args.matrix)
            table = _read_table(matrix, args.table)
            order = table.order(args.bound)
            report.add("ORDER", order if order is not None else "EXCEEDS-BOUND")
        elif args.command == "support":
            matrix = _read_matrix(args.matrix)
            table = _read_table(matrix, args.table)
            support = _add_support(report, table)
            if args.out:
                _write(args.out, format_clopen_text(support), report)
        elif args.command == "cocycles":
            matrix = _read_matrix(args.matrix)
            table = _read_table(matrix, args.table)
            cocycles = table.cocycles()
            report.add("DEPTH", cocycles.depth)
            _add_cocycles(report, cocycles)
        elif args.command == "commutes":
            matrix = _read_matrix(args.matrix)
            first = _read_table(matrix, args.first)
            second = _read_table(matrix, args.second)
            report.add("COMMUTES", first.commutes(second))
        elif args.command == "local-member":
            matrix = _read_matrix(args.matrix)
            table = _read_table(matrix, args.table)
            region = _read_clopen(matrix, args.region)
            report.add("MEMBER", table.in_local_subgroup(region))
        elif args.command == "split":
            matrix = _read_matrix(args.matrix)
            table = _read_table(matrix, args.table)
            region = _read_clopen(matrix, args.region)
            inside, outside = table.split_invariant(region)
            report.extend_checks(cons.check_split_invariant(table, region, inside, outside))
            if args.out_inside:
                _write(args.out_inside, format_table_text(inside), report)
            if args.out_outside:
                _write(args.out_outside, format_table_text(outside), report)
        elif args.command == "construct":
            _cmd_construct(args, report)
        elif args.command == "witness-search":
            if args.order is not None and args.order < 1:
                raise BadInput("--order must be at least 1")
            matrix = _read_matrix(args.matrix)
            conditions = []
            if args.maps_onto:
                u = _read_clopen(matrix, args.maps_onto[0])
                v = _read_clopen(matrix, args.maps_onto[1])
                conditions.append(lambda t: t.image_clopen(u) == v)
            if args.support_in:
                region = _read_clopen(matrix, args.support_in)
                conditions.append(lambda t: t.support().is_subset_of(region))
            if args.order is not None:
                want = args.order
                conditions.append(lambda t: t.order(max(want, 2)) == want)
            if not conditions:
                raise FullShiftError("witness-search needs at least one condition")
            found = cons.witness_search(
                matrix,
                lambda t: all(c(t) for c in conditions),
                args.depth_bound,
                args.image_bound,
            )
            if found is None:
                report.add("RESULT", "EXHAUSTED")
            else:
                report.add("RESULT", "FOUND")
                report.add("DEPTH", found.depth)
                if args.out:
                    _write(args.out, format_table_text(found), report)
        elif args.command == "bf":
            matrix = _read_matrix(args.matrix)
            group, unit = inv.bowen_franks(matrix)
            report.add("GROUP", group.describe())
            report.add("INVARIANT-FACTORS", " ".join(map(str, group.torsion)) or "none")
            report.add("FREE-RANK", group.free_rank)
            report.add("UNIT-CLASS", " ".join(map(str, unit.coords)))
            report.add("UNIT-ORDER", unit.order() if unit.order() is not None else "infinite")
            report.add("DET", inv.shift_determinant(matrix))
        elif args.command == "decide-iso":
            a = _read_matrix(args.matrix_a)
            b = _read_matrix(args.matrix_b)
            result = inv.full_group_iso_decide(a, b)
            report.add("GROUP-A", result.group_a.describe())
            report.add("UNIT-A", " ".join(map(str, result.unit_a.coords)))
            report.add("GROUP-B", result.group_b.describe())
            report.add("UNIT-B", " ".join(map(str, result.unit_b.coords)))
            report.add("DET-A", result.det_a)
            report.add("DET-B", result.det_b)
            report.add("POINTED", result.pointed.verdict)
            report.add("VERDICT", result.verdict)
            report.add("REASON", result.reason)
        elif args.command == "clopen-class":
            matrix = _read_matrix(args.matrix)
            clopen = _read_clopen(matrix, args.clopen)
            group, unit = inv.bowen_franks(matrix)
            element = inv.clopen_class(clopen, group)
            report.add("GROUP", group.describe())
            report.add("CLASS", " ".join(map(str, element.coords)))
            report.add("CERTIFICATE", "cokernel class (K-theory identification)")
        elif args.command == "gamma-equiv":
            matrix = _read_matrix(args.matrix)
            first = _read_clopen(matrix, args.first)
            second = _read_clopen(matrix, args.second)
            result = inv.gamma_equivalent(
                first, second, depth_bound=args.depth_bound, image_bound=args.image_bound
            )
            report.add("STATUS", result.status)
            report.add("REASON", result.reason)
            if result.witness is not None:
                report.check("witness carries U onto V", result.witness.image_clopen(first) == second)
                if args.out:
                    _write(args.out, format_table_text(result.witness), report)
        elif args.command == "verify":
            matrix = _read_matrix(args.matrix)
            table = _read_table(matrix, args.table)
            report.add("DEPTH", table.depth)
            report.add("ENTRIES", table.entry_count())
            report.add("RESULT", "valid")
            _add_support(report, table)
            _add_cocycles(report, table.cocycles())
        else:  # pragma: no cover - argparse enforces the choices
            raise FullShiftError(f"unknown command {args.command!r}")
    except FullShiftError as exc:
        report.add("ERROR", f"{type(exc).__name__}: {exc}")
        report.emit(args.json)
        return 1
    except OSError as exc:
        report.add("ERROR", str(exc))
        report.emit(args.json)
        return 1
    report.emit(args.json)
    return 0 if report.all_pass else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
