"""Property tests: each run draws the same examples (derandomized, no
example database), so a failure reproduces on every run."""

from hypothesis import given, settings
from hypothesis import strategies as st

from fullshift import canonicalize_clopen
from fullshift.constructions import enumerate_tables

from helpers import FULL2, GOLDEN, POOL

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
