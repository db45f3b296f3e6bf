"""The benchmark's traced run (bench/spans.py) wraps library functions by
name.  A traced call in each layer must still reach its counter, so a
rename that the tracer would miss fails here rather than in ``--trace 1``."""

import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import fullshift.constructions as cons
import fullshift.invariants as inv
import fullshift.sft as sft
from fullshift.sft import cylinder

from helpers import (
    FULL2,
    FULL3,
    GOLDEN,
    cylinder_swap,
    random_matrix,
    shift_determinant_oracle,
    table_from,
)

BENCH = str(Path(__file__).resolve().parents[1] / "bench")


@contextmanager
def traced():
    """Run the block under the installed tracer; yields the tracer."""
    sys.path.insert(0, BENCH)
    try:
        import spans
    finally:
        sys.path.remove(BENCH)
    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.active = True
    try:
        yield tracer
    finally:
        tracer.active = False
        tracer.uninstall()


def test_tracer_counts_words_extensions_and_search():
    with traced() as tracer:
        swap = cylinder_swap(FULL2, (1,), (2,))
        assert swap.compose(swap).is_identity
        assert swap.order(4) == 2
        assert len(GOLDEN.words(4)) == 8
        assert len(list(GOLDEN.extensions((1,), 4))) == 5
        assert cons.witness_search(FULL2, lambda t: not t.is_identity, 1, 1) is not None
        inv.gamma_equivalent(cylinder(FULL2, (1,)), cylinder(FULL2, (2,)))
    counters = tracer.counters
    assert counters["sft.words.calls"] > 0
    assert counters["sft.extensions.words"] > 0
    assert counters["constructions.search.tables_visited"] > 0


def test_tracer_sees_every_table_of_an_exhaust():
    # the search hands every table to _run_search's visitor, which the
    # tracer wraps by name: a FULL2 3/3 exhaust visits all 40,443 tables
    with traced() as tracer:
        assert cons.witness_search(FULL2, lambda t: False, 3, 3) is None
    assert tracer.counters["constructions.search.tables_visited"] == 40443


def test_tracer_counts_clopen_canonicalization():
    # the span reads the words of canonicalize_clopen as its second
    # positional argument, which a caller may pass as a generator
    u, v = cylinder(FULL2, (1, 1)), cylinder(FULL2, (2,))
    with traced() as tracer:
        assert u.union(v).complement() == cylinder(FULL2, (1, 2))
        assert cylinder_swap(FULL2, (1,), (2,)).image_clopen(u) == cylinder(FULL2, (2, 1))
        assert sft.canonicalize_clopen(FULL2, (w for w in [(1,), (2,)])).is_full
    assert tracer.totals()["sft.canonicalize_clopen"][0] > 0
    assert tracer.counters["sft.canonicalize_clopen.words_in"] > 0


def test_tracer_spans_table_reduction_apart_from_clopen_canonicalization():
    # reduce sweeps its code with the same function canonicalize_clopen
    # calls, but opens only its own span: tables.reduce.* times table
    # reduction and sft.canonicalize_clopen.* counts clopen sets alone
    split = table_from(FULL2, 2, {(1, 1): (1, 1), (1, 2): (1, 2), (2,): (2,)})
    with traced() as tracer:
        assert cylinder(FULL2, (1,)).union(cylinder(FULL2, (2,))).is_full
        before = tracer.totals()["sft.canonicalize_clopen"][0]
        assert split.reduce().is_identity
        totals = tracer.totals()
    assert totals["tables.reduce"][0] == 1
    assert totals["sft.canonicalize_clopen"][0] == before


def test_tracer_spans_one_table_products_as_builds():
    # clopen_transport and swap_involution build their product of swaps as
    # one table, calling no other wrapped builder; each call must still
    # open its own constructions.build span
    u, w = cylinder(FULL2, (1, 1)).union(cylinder(FULL2, (2, 2))), cylinder(FULL2, (1, 2))
    with traced() as tracer:
        alpha = cons.clopen_transport(u, w)
        before = tracer.totals()["constructions.build"][0]
        v = alpha.image_clopen(u)
        assert cons.swap_involution(u, v, alpha) == alpha
        totals = tracer.totals()
    assert before == 1
    assert totals["constructions.build"][0] == 2


def test_tracer_spans_both_file_writers(tmp_path):
    # the tracer wraps the writers by their names in cli: a command that
    # writes a file opens one cli.format span for Report.emit and one for
    # the writer, tables and clopen sets alike; and each call, the repeated
    # one too, whose parser is reused, opens the two cli.parse spans of
    # _build_parser and parse_args
    import fullshift.cli as cli
    from fullshift.sft import format_matrix_text

    mat, tbl, clo = (tmp_path / name for name in ("full2.mat", "swap.tbl", "u.clo"))
    mat.write_text(format_matrix_text(FULL2))
    tbl.write_text("L 2\n1,1 -> 2,1\n1,2 -> 1,2\n2,1 -> 1,1\n2,2 -> 2,2\n")
    clo.write_text("D 2\n1,2\n")
    commands = [
        ["inverse", str(mat), str(tbl), "-o", str(tmp_path / "inv.tbl")],
        ["clopen", str(mat), "complement", str(clo), "-o", str(tmp_path / "co.clo")],
    ]
    for argv in commands:
        for _ in range(2):
            with traced() as tracer:
                assert cli.run(argv) == 0
            totals = tracer.totals()
            assert totals["cli.format"][0] == 2, argv
            assert totals["cli.parse"][0] == 2, argv


def test_tracer_spans_the_exact_smith_path_of_bowen_franks():
    # a singular M takes the exact path, which is smith_normal_form itself:
    # one invariants.smith_normal_form span; a finite cokernel runs the
    # unchecked elimination modulo |det| and opens none
    singular = next(
        m for m in (random_matrix(random.Random(seed), 5) for seed in range(200))
        if shift_determinant_oracle(m) == 0
    )
    for matrix, spans in ((singular, 1), (FULL3, 0)):
        with traced() as tracer:
            inv.bowen_franks(matrix)
        assert tracer.totals().get("invariants.smith_normal_form", (0,))[0] == spans, matrix


def test_bench_selftest_passes():
    # the harness's own tests: percentiles, self time, failure ratios and
    # instance pools that do not depend on PYTHONHASHSEED
    proc = subprocess.run(
        [sys.executable, str(Path(BENCH) / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
