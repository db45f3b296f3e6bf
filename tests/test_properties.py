"""Property tests: each run draws the same examples (derandomized, no
example database), so a failure reproduces on every run."""

import io
import random
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fullshift import FullShiftError, canonicalize_clopen
from fullshift.cli import run
from fullshift.constructions import enumerate_tables
from fullshift.sft import (
    format_clopen_text,
    format_matrix_text,
    format_point,
    parse_clopen_text,
    parse_matrix_text,
    parse_point,
)
from fullshift.tables import format_table_text, parse_table_text

from helpers import FULL2, GOLDEN, POOL, enumerate_points, random_matrix, random_table

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=300)

TABLES = [t for m in (FULL2, GOLDEN) for t in enumerate_tables(m, 2, 3)]


@st.composite
def admissible_word_lists(draw):
    matrix = draw(st.sampled_from(POOL))

    def word(length):
        out = ()
        for _ in range(length):
            follow = matrix.successors(out[-1]) if out else matrix.symbols()
            out += (draw(st.sampled_from(follow)),)
        return out

    lengths = draw(st.lists(st.integers(0, 4), max_size=8))
    return matrix, [word(k) for k in lengths]


@SEEDED
@given(admissible_word_lists())
def test_trusted_canonical_form_equals_checked(case):
    matrix, words = case
    canon = canonicalize_clopen(matrix, words, trusted=True)
    assert canon == canonicalize_clopen(matrix, words)
    if not words:
        return
    # the same cylinders, at the least uniform depth
    top = max(map(len, words))
    assert canon.refine(top) == {x for w in words for x in matrix.extensions(w, top)}
    if canon.depth:
        families = {}
        for w in canon.words:
            families.setdefault(w[:-1], set()).add(w[-1])
        assert any(
            kids != set(matrix.successors(p[-1]) if p else matrix.symbols())
            for p, kids in families.items()
        )


@SEEDED
@given(st.sampled_from(TABLES), st.sampled_from(TABLES))
def test_support_equals_support_and_fixed(a, b):
    if a.matrix != b.matrix:
        b = a.inverse()
    for t in (a, a.inverse(), a.compose(b)):
        support = t.support()
        assert support == t.support_and_fixed()[0]
        # read off the uniform view instead of the code
        moved = [w for w, image in t.entries.items() if image != w]
        assert support == canonicalize_clopen(t.matrix, moved)


# format then parse is the identity, and parse then format gives the text back

SEEDS = st.integers(0, 2**32 - 1)


@SEEDED
@given(st.one_of(
    st.sampled_from(POOL),
    st.builds(lambda seed, n: random_matrix(random.Random(seed), n), SEEDS, st.integers(2, 6)),
))
def test_matrix_text_round_trips(matrix):
    text = format_matrix_text(matrix)
    assert parse_matrix_text(text) == matrix
    assert format_matrix_text(parse_matrix_text(text)) == text


@SEEDED
@given(admissible_word_lists())
def test_clopen_text_round_trips(case):
    matrix, words = case
    clopen = canonicalize_clopen(matrix, words)
    text = format_clopen_text(clopen)
    assert parse_clopen_text(matrix, text) == clopen
    assert format_clopen_text(parse_clopen_text(matrix, text)) == text


@SEEDED
@given(st.sampled_from(POOL), SEEDS)
def test_table_text_round_trips(matrix, seed):
    table = random_table(random.Random(seed), matrix)
    text = format_table_text(table)
    back = parse_table_text(matrix, text)
    assert back == table  # equal tables have equal depths
    assert format_table_text(back) == text


POINTS = [point for m in POOL for point in enumerate_points(m, 2, 3)]


@SEEDED
@given(st.sampled_from(POINTS))
def test_point_text_round_trips(point):
    text = format_point(point)
    assert parse_point(text) == point
    assert format_point(parse_point(text)) == text


CLI_CASES = [
    ("matrix", lambda mat, bad: ["validate-matrix", bad]),
    ("matrix", lambda mat, bad: ["words", bad, "2"]),
    ("matrix", lambda mat, bad: ["bf", bad]),
    ("clopen", lambda mat, bad: ["clopen", mat, "canon", bad]),
    ("clopen", lambda mat, bad: ["clopen-class", mat, bad]),
    ("clopen", lambda mat, bad: ["construct", "4.10", mat, "--U", bad, "--V", bad]),
    ("table", lambda mat, bad: ["table-validate", mat, bad]),
    ("table", lambda mat, bad: ["verify", mat, bad]),
    ("table", lambda mat, bad: ["order", mat, bad]),
]


def _parses(kind: str, text: str) -> bool:
    try:
        if kind == "matrix":
            parse_matrix_text(text)
        elif kind == "clopen":
            parse_clopen_text(FULL2, text)
        else:
            parse_table_text(FULL2, text)
    except FullShiftError:
        return False
    return True


@SEEDED
@given(st.sampled_from(CLI_CASES), st.binary(max_size=64))
def test_arbitrary_bytes_in_input_files_are_diagnosed(case, data):
    kind, argv = case
    try:
        valid = _parses(kind, data.decode("utf-8"))
    except UnicodeDecodeError:
        valid = False
    assume(not valid)
    with tempfile.TemporaryDirectory() as tmp:
        mat = Path(tmp) / "full2.mat"
        mat.write_text(format_matrix_text(FULL2))
        bad = Path(tmp) / "input"
        bad.write_bytes(data)
        out = io.StringIO()
        with redirect_stdout(out):
            code = run(argv(str(mat), str(bad)))
    assert code == 1
    assert "ERROR: " in out.getvalue()
