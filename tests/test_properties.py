"""Property tests: each run draws the same examples (derandomized, no
example database), so a failure reproduces on every run."""

import io
import random
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fullshift import BadInput, FullShiftError, canonicalize_clopen
from fullshift.cli import run
from fullshift.constructions import search_tables
from fullshift.errors import ImagesDontCover
from fullshift.sft import (
    cut,
    empty_set,
    format_clopen_text,
    format_matrix_text,
    format_point,
    full_space,
    parse_clopen_text,
    parse_matrix_text,
    parse_point,
)
from fullshift.tables import TableMap, format_table_text, parse_table_text, validate_images

from helpers import (
    FULL2,
    GOLDEN,
    POOL,
    assert_sorted_form,
    clopen_relations_oracle,
    clopen_text_oracle,
    enumerate_points,
    images_cover_oracle,
    maps_agree_oracle,
    random_clopen,
    random_matrix,
    random_table,
    table_text_oracle,
    uniform_clopen_oracle,
    uniform_form,
    uniform_view_oracle,
    words_oracle,
)

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=300)

SEEDS = st.integers(0, 2**32 - 1)

TABLES = [t for m in (FULL2, GOLDEN) for t in search_tables(m, 2, 3)]


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
    assert uniform_form(canon) == uniform_clopen_oracle(matrix, words)
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


@st.composite
def clopen_pairs(draw):
    """Two clopen sets over one matrix: empty, full, or the cylinders of
    words of one depth or of mixed lengths up to it, canonicalized; the
    second is drawn at the first one's depth half of the time."""
    matrix = draw(st.sampled_from(POOL))

    def clopen(depth=None):
        kind = draw(st.sampled_from(["empty", "full", "uniform", "mixed"]))
        if kind == "empty":
            return empty_set(matrix)
        if kind == "full":
            return full_space(matrix)
        depth = depth or draw(st.integers(1, 4))
        lengths = [depth] if kind == "uniform" else range(1, depth + 1)
        pool = [w for k in lengths for w in matrix.words(k)]
        return canonicalize_clopen(matrix, draw(st.lists(st.sampled_from(pool), max_size=12)))

    x = clopen()
    return x, clopen(x.depth if x.depth and draw(st.booleans()) else None)


@SEEDED
@given(clopen_pairs())
def test_clopen_relations_agree_with_common_depth_oracle(pair):
    for x, y in (pair, pair[::-1]):
        expected = clopen_relations_oracle(x, y)
        assert x.compare(y) == expected["compare"]
        assert x.is_subset_of(y) == expected["is_subset_of"]
        assert uniform_form(x.union(y)) == expected["union"]
        assert uniform_form(x.intersection(y)) == expected["intersection"]
        assert uniform_form(x.difference(y)) == expected["difference"]


@st.composite
def cut_cases(draw):
    """A sorted prefix code (a clopen set's code or a table's domain) and
    an admissible word of length 0-5 to cut along it."""
    matrix = draw(st.sampled_from(POOL))
    rng = random.Random(draw(SEEDS))
    if draw(st.booleans()):
        code = random_clopen(rng, matrix, max_depth=4).code
    else:
        code = random_table(rng, matrix).domain
    word = ()
    for _ in range(draw(st.integers(0, 5))):
        word += (draw(st.sampled_from(matrix.successors(word[-1] if word else 0))),)
    return matrix, code, word


@SEEDED
@given(cut_cases())
def test_cut_pieces_partition_the_cylinder_and_are_maximal(case):
    matrix, code, word = case
    pieces = cut(matrix, code, word)

    def prefix(a, b):
        return b[: len(a)] == a

    words = [w for w, _ in pieces]
    # sorted and prefix-free: in sorted order a prefix would come right before
    assert all(a < b and not prefix(a, b) for a, b in zip(words, words[1:]))
    depth = max(map(len, [word, *code, *words]))
    view = [x for w in words for x in matrix.extensions(w, depth)]
    assert view == list(matrix.extensions(word, depth))
    for w, i in pieces:
        holders = [j for j, c in enumerate(code) if prefix(c, w)]
        if i >= 0:
            assert holders == [i]
        else:
            assert not holders and not any(prefix(w, c) for c in code)
        if w != word:
            # a piece is cut from its parent only when the parent straddles
            parent = w[:-1]
            assert not any(prefix(c, parent) for c in code)
            assert any(prefix(parent, c) for c in code)


@SEEDED
@given(st.sampled_from(POOL), SEEDS, st.sampled_from(["drop", "extend", "shorten"]))
def test_image_cover_sweep_agrees_with_counting_oracle(matrix, seed, how):
    rng = random.Random(seed)
    table = random_table(rng, matrix)
    code = dict(table.refine_to(max(table.depth, 1)).entries)
    nu = rng.choice(sorted(code))
    rho = code[nu]
    if how == "drop" and len(code) > 1:
        del code[nu]
    elif how == "extend":
        row = [b for b in matrix.successors(rho[-1]) if matrix.row(b) == matrix.row(nu[-1])]
        if row:
            code[nu] = rho + (rng.choice(row),)
    elif how == "shorten" and len(rho) > 1 and matrix.row(rho[-2]) == matrix.row(nu[-1]):
        code[nu] = rho[:-1]
    images = sorted(code.values())
    try:
        validate_images(matrix, tuple(code), tuple(code.values()))
    except ImagesDontCover as exc:
        assert not images_cover_oracle(matrix, images)
        gap = tuple(int(a) for a in str(exc).rsplit(" ", 1)[1].split(","))
        assert matrix.is_admissible(gap)
        assert all(r[: len(gap)] != gap[: len(r)] for r in images)
        # every point before the gap is covered
        top = max(len(gap), *map(len, images))
        for w in matrix.words(top):
            if w[: len(gap)] >= gap:
                break
            assert any(w[: len(r)] == r for r in images)
    except FullShiftError:
        return
    else:
        assert images_cover_oracle(matrix, images)


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


@SEEDED
@given(st.sampled_from(POOL), SEEDS, SEEDS)
def test_same_map_agrees_with_pointwise_oracle(matrix, seed_a, seed_b):
    a = random_table(random.Random(seed_a), matrix, max_depth=2, max_image=3)
    b = random_table(random.Random(seed_b), matrix, max_depth=2, max_image=3)
    ab, ba = a.compose(b), b.compose(a)
    pairs = [
        (a, b),
        (ab, ba),
        (ab, ab.refine_to(ab.depth + 1)),  # one map, two depths
        (ab.inverse(), b.inverse().compose(a.inverse())),
        (ab.compose(ba), a),
    ]
    for x, y in pairs:
        assert x.same_map(y) == maps_agree_oracle(x, y)


def test_extensions_and_words_agree_with_level_oracle():
    # the one enumerator against words grown a level at a time from
    # matrix.arc alone, order included
    rng = random.Random(61)
    matrices = POOL + [random_matrix(rng, rng.randint(2, 5)) for _ in range(20)]
    for matrix in matrices:
        for k in range(7):
            assert list(matrix.words(k)) == words_oracle(matrix, (), k)
        for start in (w for k in range(4) for w in words_oracle(matrix, (), k)):
            for target in range(len(start), 7):
                assert list(matrix.extensions(start, target)) == words_oracle(
                    matrix, start, target
                )


def test_uniform_view_readers_agree_with_oracle_view():
    # entries, the L text and the cocycles all read the view computed from
    # the code; the oracle maps every oracle word through its code prefix
    rng = random.Random(67)
    for matrix in POOL:
        prev = TableMap.identity(matrix)
        for _ in range(30):
            t = random_table(rng, matrix)
            for x in (t, t.inverse(), t.refine_to(t.depth + 2), t.compose(prev), prev.compose(t)):
                assert_sorted_form(x)
                view = uniform_view_oracle(x)
                assert x.entries == view
                assert format_table_text(x) == table_text_oracle(x)
                assert x.cocycles().values == {w: (len(v), x.depth) for w, v in view.items()}
            prev = t


# format then parse is the identity, and parse then format gives the text back


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
    assert text == clopen_text_oracle(matrix, words)
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


def _parse(kind: str, text: str):
    if kind == "matrix":
        return parse_matrix_text(text)
    if kind == "clopen":
        return parse_clopen_text(FULL2, text)
    return parse_table_text(FULL2, text)


def _parses(kind: str, text: str) -> bool:
    try:
        _parse(kind, text)
    except FullShiftError:
        return False
    return True


READER_MESSAGES = [
    ("matrix", "", "empty matrix file"),
    ("matrix", " \n\t\n", "empty matrix file"),
    ("matrix", "two\n1 1\n1 1\n", "first line must be the size, got 'two'"),
    ("matrix", "2\n1 1\n", "expected 2 matrix rows, got 1"),
    ("matrix", "2\n1 1\n1 x\n", "bad matrix row '1 x'"),
    ("clopen", "", "empty clopen file"),
    ("clopen", "\n  \n", "empty clopen file"),
    ("clopen", "L 1\n1\n", "bad clopen header 'L 1'"),
    ("clopen", "D\n1\n", "bad clopen header 'D'"),
    ("clopen", "D 1 2\n1\n", "bad clopen header 'D 1 2'"),
    ("clopen", "D one\n1\n", "bad clopen depth 'one'"),
    ("clopen", "D 2\n1,x\n", "bad word '1,x'"),
    ("clopen", "D 2\n1,1\n2\n", "clopen words must all have the declared depth"),
    ("table", "", "empty table file"),
    ("table", "\n\n", "empty table file"),
    ("table", "D 1\n1 -> 2\n2 -> 1\n", "bad table header 'D 1'"),
    ("table", "L\n1 -> 2\n", "bad table header 'L'"),
    ("table", "L 1 1\n1 -> 2\n", "bad table header 'L 1 1'"),
    ("table", "L x\n1 -> 2\n", "bad table depth 'x'"),
    ("table", "L 1\n1 2\n2 -> 1\n", "bad table line '1 2'"),
    ("table", "L 1\n1 -> 2,y\n2 -> 1\n", "bad word '2,y'"),
    ("table", "L 1\n1 -> 2\n2 -> 1\n1 -> 1\n", "domain word 1 appears twice"),
    ("table", "L 2\n1 -> 2\n2 -> 1\n", "declared depth 2 but entries have depth 1"),
]


def test_reader_messages_are_pinned():
    # every reader diagnosis, word for word: the three readers share their
    # line and header reading, and no message may drift when they do
    for kind, text, message in READER_MESSAGES:
        try:
            _parse(kind, text)
        except BadInput as exc:
            assert type(exc) is BadInput and str(exc) == message, (kind, text, str(exc))
        else:
            raise AssertionError(f"{kind} text {text!r} was accepted")


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
