"""Shift-space core: matrix validation, words, clopen algebra, paths."""

import random

import pytest

from fullshift import (
    ConditionIFails,
    EPPoint,
    InadmissibleWord,
    NotEssential,
    NotIrreducible,
    admissible_words,
    boolean_op,
    canonicalize_clopen,
    clopen_compare,
    connect_path,
    cylinder,
    distinct_path_pair,
    empty_set,
    full_space,
    validate_matrix,
)
from fullshift.sft import (
    format_clopen_text,
    format_matrix_text,
    format_point,
    is_point_admissible,
    parse_clopen_text,
    parse_matrix_text,
    parse_point,
    point_in,
)

from helpers import (
    FULL2,
    GOLDEN,
    POOL,
    ep_apply_oracle,
    ep_oracle,
    ep_prefix_oracle,
    ep_shift_oracle,
    random_clopen,
    random_matrix,
    random_table,
)


def test_validate_matrix_accepts_standard_examples():
    assert validate_matrix([[1, 1], [1, 1]]).n == 2
    assert validate_matrix([[1, 1], [1, 0]]).n == 2


def test_validate_matrix_rejects_permutation():
    with pytest.raises(ConditionIFails):
        validate_matrix([[0, 1], [1, 0]])


def test_permutation_matrix_has_finitely_many_points():
    # oracle for the rejection: the alleged shift space of [[0,1],[1,0]]
    # has exactly the two alternating sequences of period <= 2
    entries = [[0, 1], [1, 0]]
    seqs = set()
    for start in (1, 2):
        seq = [start]
        for _ in range(8):
            nxt = [j + 1 for j, v in enumerate(entries[seq[-1] - 1]) if v]
            assert len(nxt) == 1
            seq.append(nxt[0])
        seqs.add(tuple(seq))
    assert len(seqs) == 2


def test_validate_matrix_rejects_zero_row_and_column():
    with pytest.raises(NotEssential):
        validate_matrix([[0, 0], [1, 1]])
    with pytest.raises(NotEssential):
        validate_matrix([[1, 0], [1, 0]])


def test_validate_matrix_rejects_reducible():
    with pytest.raises(NotIrreducible):
        validate_matrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])


def test_admissible_words_full_shift():
    assert admissible_words(FULL2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert admissible_words(FULL2, 0) == [()]


def test_admissible_words_golden_mean():
    assert admissible_words(GOLDEN, 2) == [(1, 1), (1, 2), (2, 1)]
    assert len(admissible_words(GOLDEN, 3)) == 5


def fib(n):
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_golden_mean_word_counts_are_fibonacci():
    # transfer-matrix oracle: |B_k| = fib(k+2) for the golden-mean shift
    for k in range(9):
        assert len(admissible_words(GOLDEN, k)) == fib(k + 1)


def test_words_are_admissible_everywhere():
    rng = random.Random(11)
    for _ in range(20):
        matrix = random_matrix(rng, rng.choice([2, 3, 4]))
        k = rng.randint(0, 4)
        words = admissible_words(matrix, k)
        assert words == sorted(words)
        assert all(matrix.is_admissible(w) for w in words)
        assert len(words) == matrix.word_count(k)


def test_canonicalize_merges_full_family():
    assert canonicalize_clopen(FULL2, [(1,), (2,)]).is_full
    assert canonicalize_clopen(FULL2, [(1, 1), (1, 2)]) == cylinder(FULL2, (1,))
    assert canonicalize_clopen(GOLDEN, [(1, 1), (1, 2)]) == cylinder(GOLDEN, (1,))


def test_canonicalize_rejects_inadmissible():
    with pytest.raises(InadmissibleWord):
        canonicalize_clopen(GOLDEN, [(2, 2)])


def test_canonicalize_idempotent_and_denotation_preserving():
    rng = random.Random(5)
    for _ in range(80):
        matrix = rng.choice(POOL)
        x = random_clopen(rng, matrix, max_depth=3)
        again = canonicalize_clopen(matrix, x.words)
        assert again == x
        # membership at depth D+3 is unchanged by canonicalization
        probe = matrix.words(x.depth + 3)
        raw = random_clopen(rng, matrix, max_depth=2)
        deep = canonicalize_clopen(matrix, raw.refine(raw.depth + 2))
        assert deep == raw
        assert all(raw.contains_word(w) == deep.contains_word(w) for w in probe[:40])


def test_boolean_ops_spec_cases():
    u1 = cylinder(FULL2, (1,))
    assert boolean_op("complement", u1) == cylinder(FULL2, (2,))
    assert boolean_op("intersection", u1, cylinder(FULL2, (2,))).is_empty
    diff = boolean_op("difference", full_space(GOLDEN), cylinder(GOLDEN, (1, 1)))
    assert diff.depth == 2 and diff.words == frozenset({(1, 2), (2, 1)})


def test_boolean_algebra_laws_randomized():
    rng = random.Random(23)
    for _ in range(120):
        matrix = rng.choice(POOL)
        x = random_clopen(rng, matrix)
        y = random_clopen(rng, matrix)
        assert x.union(y) == y.union(x)
        assert x.intersection(y) == y.intersection(x)
        assert x.difference(x).is_empty
        # De Morgan
        assert x.union(y).complement() == x.complement().intersection(y.complement())
        assert x.intersection(y).complement() == x.complement().union(y.complement())
        assert x.complement().complement() == x


def test_clopen_compare_cases():
    assert clopen_compare(cylinder(FULL2, (1, 1)), cylinder(FULL2, (1,))) == "subset"
    assert clopen_compare(cylinder(FULL2, (1,)), cylinder(FULL2, (2,))) == "disjoint"
    mixed = cylinder(FULL2, (1, 2)).union(cylinder(FULL2, (2, 1)))
    assert clopen_compare(mixed, cylinder(FULL2, (1,))) == "overlapping"
    assert clopen_compare(cylinder(FULL2, (1,)), cylinder(FULL2, (1,))) == "equal"
    assert clopen_compare(cylinder(FULL2, (1,)), cylinder(FULL2, (1, 1))) == "superset"


def test_connect_path_spec_cases():
    assert connect_path(FULL2, 1, 2) == ()
    assert connect_path(GOLDEN, 2, 2) == (1,)
    assert connect_path(GOLDEN, 1, 1) == ()


def test_connect_path_postconditions_randomized():
    rng = random.Random(3)
    for _ in range(40):
        matrix = random_matrix(rng, rng.choice([2, 3, 4]))
        u = rng.randint(1, matrix.n)
        v = rng.randint(1, matrix.n)
        xi = connect_path(matrix, u, v)
        chain = (u,) + xi + (v,)
        assert matrix.is_admissible(chain)


def test_distinct_path_pair_spec_cases():
    assert distinct_path_pair(FULL2, 1) == ((1,), (2,), 1)
    assert distinct_path_pair(GOLDEN, 1) == ((1,), (2,), 1)
    s, sp, u = distinct_path_pair(GOLDEN, 2)
    assert s != sp and len(s) == len(sp)
    assert GOLDEN.arc(2, s[0]) and GOLDEN.arc(2, sp[0])
    assert GOLDEN.arc(s[-1], u) and GOLDEN.arc(sp[-1], u)


def test_distinct_path_pair_postconditions_randomized():
    rng = random.Random(17)
    for _ in range(40):
        matrix = random_matrix(rng, rng.choice([2, 3, 4]))
        frm = rng.randint(1, matrix.n)
        s, sp, u = distinct_path_pair(matrix, frm)
        assert s != sp and len(s) == len(sp)
        assert matrix.is_admissible((frm,) + s + (u,))
        assert matrix.is_admissible((frm,) + sp + (u,))


def test_eppoint_canonical_form():
    assert EPPoint.make((1, 1, 1), (1,)) == EPPoint.make((), (1,))
    assert EPPoint.make((), (1, 2, 1, 2)) == EPPoint.make((), (1, 2))
    assert EPPoint.make((2,), (1,)) != EPPoint.make((), (1,))
    p = EPPoint.make((2, 1), (1, 2))
    assert p.prefix(5) == (2, 1, 1, 2, 1)
    assert p.shift(2) == EPPoint.make((), (1, 2))
    assert p.shift(3) == EPPoint.make((), (2, 1))


def test_point_admissibility_and_membership():
    x = EPPoint.make((), (2, 1))
    assert is_point_admissible(GOLDEN, x)
    assert not is_point_admissible(GOLDEN, EPPoint.make((), (2,)))
    assert cylinder(GOLDEN, (2, 1)).contains_point(x)
    assert not cylinder(GOLDEN, (1,)).contains_point(x)


def test_point_in_every_random_clopen():
    rng = random.Random(31)
    for _ in range(60):
        matrix = rng.choice(POOL)
        c = random_clopen(rng, matrix, max_depth=3)
        x = point_in(c)
        assert is_point_admissible(matrix, x)
        assert c.contains_point(x)


def test_matrix_text_round_trip():
    for matrix in POOL:
        assert parse_matrix_text(format_matrix_text(matrix)) == matrix


def test_clopen_text_round_trip():
    rng = random.Random(41)
    for _ in range(40):
        matrix = rng.choice(POOL)
        c = random_clopen(rng, matrix, max_depth=3)
        assert parse_clopen_text(matrix, format_clopen_text(c)) == c
    assert parse_clopen_text(FULL2, "EMPTY\n") == empty_set(FULL2)
    assert parse_clopen_text(FULL2, "FULL\n") == full_space(FULL2)


def test_point_text_round_trip():
    for text in ["1,2|2,1", "|1", "2|1,2"]:
        p = parse_point(text)
        assert parse_point(format_point(p)) == p


def test_eventually_periodic_points_match_oracle():
    # make, prefix, shift and TableMap.apply against the scan-and-roll
    # oracle; periods are often powers, preperiods often roll into them
    rng = random.Random(4242)
    tables = [random_table(rng, FULL2) for _ in range(20)]
    for i in range(20_000):
        alphabet = rng.choice((2, 3))
        base = tuple(rng.randint(1, alphabet) for _ in range(rng.randint(1, 3)))
        per = base * rng.randint(1, 3)
        pre = tuple(rng.randint(1, alphabet) for _ in range(rng.randint(0, 6))) + base[-2:]
        x = EPPoint.make(pre, per)
        assert x == ep_oracle(pre, per)
        k = rng.randint(0, 11)
        assert x.prefix(k) == ep_prefix_oracle(x, k)
        assert x.shift(k) == ep_shift_oracle(x, k)
        if alphabet == 2:
            table = tables[i % len(tables)]
            assert table.apply(x) == ep_apply_oracle(table, x)
