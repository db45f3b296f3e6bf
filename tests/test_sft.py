"""Shift-space core: matrix validation, words, clopen algebra, paths."""

import random
import time
import tracemalloc
from itertools import product
from math import inf

import pytest

from fullshift import (
    BadInput,
    ConditionIFails,
    EPPoint,
    InadmissibleWord,
    MatrixMismatch,
    NotEssential,
    NotIrreducible,
    SearchLimitExceeded,
    canonicalize_clopen,
    connect_path,
    cylinder,
    distinct_path_pair,
    empty_set,
    full_space,
    validate_matrix,
)
from fullshift.sft import (
    TransitionMatrix,
    first_return,
    format_clopen_text,
    format_matrix_text,
    format_point,
    is_point_admissible,
    parse_clopen_text,
    parse_matrix_text,
    parse_point,
    point_in,
    second_return,
)

from helpers import (
    FULL2,
    FULL3,
    FULL4,
    GOLDEN,
    POOL,
    RING3,
    connect_path_oracle,
    distinct_path_pair_oracle,
    ep_apply_oracle,
    ep_oracle,
    ep_prefix_oracle,
    ep_shift_oracle,
    first_return_oracle,
    long_cycle,
    random_clopen,
    random_complete_code,
    random_matrix,
    random_table,
    second_return_oracle,
    uniform_clopen_oracle,
    uniform_form,
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
    assert list(FULL2.words(2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert list(FULL2.words(0)) == [()]


def test_admissible_words_golden_mean():
    assert list(GOLDEN.words(2)) == [(1, 1), (1, 2), (2, 1)]
    assert len(list(GOLDEN.words(3))) == 5


def fib(n):
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_golden_mean_word_counts_are_fibonacci():
    # transfer-matrix oracle: |B_k| = fib(k+2) for the golden-mean shift
    for k in range(9):
        assert len(list(GOLDEN.words(k))) == fib(k + 1)


def test_words_are_admissible_everywhere():
    rng = random.Random(11)
    for _ in range(20):
        matrix = random_matrix(rng, rng.choice([2, 3, 4]))
        k = rng.randint(0, 4)
        words = list(matrix.words(k))
        assert words == sorted(words)
        assert all(matrix.is_admissible(w) for w in words)
        assert len(words) == matrix.count_within([()], k, inf)


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


def test_clopen_set_keeps_its_value_contract():
    # two matrices validated separately from the same rows are equal, not
    # the same object, and so are the sets over them
    twin = validate_matrix([[1, 1], [1, 1]])
    assert twin is not FULL2
    x, y = cylinder(FULL2, (1, 2)), cylinder(twin, (1, 2))
    assert x == y and not x != y and hash(x) == hash(y) == hash((FULL2, ((1, 2),)))
    # equal codes over different matrices are different sets
    assert cylinder(FULL2, (1,)).code == cylinder(GOLDEN, (1,)).code
    assert cylinder(FULL2, (1,)) != cylinder(GOLDEN, (1,))
    # a set is never equal to its code, or to anything but a set
    assert cylinder(FULL2, (1,)) != ((1,),) and not cylinder(FULL2, (1,)) == ((1,),)
    assert full_space(FULL2) != "FULL"
    assert repr(cylinder(FULL2, (1,))) == "ClopenSet(matrix=TransitionMatrix(2x2), code=((1,),))"
    assert repr(empty_set(GOLDEN)) == "ClopenSet(matrix=TransitionMatrix(2x2), code=())"
    assert empty_set(FULL2).depth == 0 and full_space(FULL2).depth == 0
    mixed = canonicalize_clopen(FULL2, [(1,), (2, 1, 1)])
    assert mixed.depth == 3 and mixed.depth == 3  # the second read is the kept value
    assert cylinder(FULL2, (1,) * 40).complement().depth == 40
    # equal sets are one key
    assert len({x, y, cylinder(FULL2, (1, 2)), cylinder(FULL2, (1,))}) == 2
    assert {x: 1, y: 2} == {cylinder(FULL2, (1, 2)): 2}


def test_trusted_canonical_form_matches_the_oracle_on_union_inputs():
    # the words union passes, two codes one after the other, with nested and
    # repeated words added, in any order
    rng = random.Random(2503)
    for matrix in POOL + [FULL3]:
        for _ in range(30):
            x = random_clopen(rng, matrix, max_depth=3)
            y = random_clopen(rng, matrix, max_depth=3)
            words = list(x.code + y.code)
            for w in rng.sample(words, min(3, len(words))):
                words.append(w)
                words.append(w + (rng.choice(matrix.successors(w[-1] if w else 0)),))
            rng.shuffle(words)
            canon = canonicalize_clopen(matrix, words, trusted=True)
            assert uniform_form(canon) == uniform_clopen_oracle(matrix, words), words
            assert canon == x.union(y)


def test_canonical_form_merges_families_up_to_the_empty_word():
    # a complete code under a word merges back into that word's cylinder,
    # and a complete code of the space cascades up to the empty word
    rng = random.Random(2504)
    for matrix in POOL + [FULL3]:
        for _ in range(20):
            code = random_complete_code(rng, matrix, (), rng.randint(1, 12))
            assert canonicalize_clopen(matrix, code, trusted=True).is_full, code
            assert uniform_clopen_oracle(matrix, code) == (0, frozenset({()}))
            stem = rng.choice(matrix.words(rng.randint(1, 3)))
            code = random_complete_code(rng, matrix, stem, rng.randint(1, 10))
            # a sibling before the family keeps the cascade from stopping at
            # a run of one
            words = code + [w for w in matrix.words(len(stem)) if w < stem]
            canon = canonicalize_clopen(matrix, words, trusted=True)
            assert uniform_form(canon) == uniform_clopen_oracle(matrix, words), words


def test_canonical_form_follows_chains_of_forced_symbols():
    # on GOLDEN, 2 has the one follower 1; on RING3, 1 and 2 have one each,
    # so the words through a chain merge one level per forced symbol
    for matrix in (GOLDEN, RING3):
        for length in range(1, 7):
            for words in [
                [w for w in matrix.words(length) if w[0] == start] for start in matrix.symbols()
            ] + [list(matrix.words(length))]:
                canon = canonicalize_clopen(matrix, words, trusted=True)
                assert uniform_form(canon) == uniform_clopen_oracle(matrix, words), words
    assert canonicalize_clopen(RING3, [(1, 2, 3, 1), (1, 2, 3, 2)]) == cylinder(RING3, (1,))
    assert canonicalize_clopen(GOLDEN, [(2, 1, 1), (2, 1, 2)]) == cylinder(GOLDEN, (2,))


def test_boolean_ops_spec_cases():
    u1 = cylinder(FULL2, (1,))
    assert u1.complement() == cylinder(FULL2, (2,))
    assert u1.intersection(cylinder(FULL2, (2,))).is_empty
    diff = full_space(GOLDEN).difference(cylinder(GOLDEN, (1, 1)))
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


def test_deep_complement_is_exact_and_its_view_is_refused():
    # 40 code words; at one depth the complement would be 2^40 - 1 words
    deep = cylinder(FULL2, (1,) * 40)
    rest = deep.complement()
    assert len(rest.code) == 40 and rest.depth == 40
    assert rest.union(deep).is_full and rest.intersection(deep).is_empty
    assert rest.compare(deep) == "disjoint"
    with pytest.raises(BadInput, match="at depth 40 spans more than"):
        rest.words
    with pytest.raises(MatrixMismatch):
        rest.union(cylinder(GOLDEN, (1,)))


def test_clopen_compare_cases():
    assert cylinder(FULL2, (1, 1)).compare(cylinder(FULL2, (1,))) == "subset"
    assert cylinder(FULL2, (1,)).compare(cylinder(FULL2, (2,))) == "disjoint"
    mixed = cylinder(FULL2, (1, 2)).union(cylinder(FULL2, (2, 1)))
    assert mixed.compare(cylinder(FULL2, (1,))) == "overlapping"
    assert cylinder(FULL2, (1,)).compare(cylinder(FULL2, (1,))) == "equal"
    assert cylinder(FULL2, (1,)).compare(cylinder(FULL2, (1, 1))) == "superset"


def test_count_at_matches_refine():
    rng = random.Random(19)
    for matrix in POOL:
        for _ in range(6):
            x = random_clopen(rng, matrix, max_depth=3)
            for gap in range(5):
                assert x.count_at(x.depth + gap) == len(x.refine(x.depth + gap)), x
        for x in (full_space(matrix), empty_set(matrix)):
            for depth in range(5):
                assert x.count_at(depth) == len(x.refine(depth)), (x, depth)


def test_deep_compare_memory():
    # the full set against a deep cylinder lists and counts no words of the
    # cylinder's depth, so memory stays small
    matrix = parse_matrix_text(format_matrix_text(FULL2))
    tracemalloc.start()
    try:
        assert full_space(matrix).compare(cylinder(matrix, (1,) * 10000)) == "superset"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


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


def test_connect_path_matches_enumeration_oracle():
    rng = random.Random(24)
    matrices = POOL + [FULL3] + [random_matrix(rng, rng.randint(2, 7)) for _ in range(60)]
    for matrix in matrices:
        for u in matrix.symbols():
            for v in matrix.symbols():
                assert connect_path(matrix, u, v) == connect_path_oracle(matrix, u, v)


def test_first_return_reaches_its_bound():
    # RING3 is 1 -> 2 -> 3 -> 1 with 3 -> 2: the return at 1 takes all
    # min_len + n - 1 = 3 symbols the search allows
    assert first_return(RING3, 1) == (2, 3, 1)
    assert first_return(RING3, 1, min_len=4) == (2, 3, 2, 3, 1)
    # an unvalidated reducible matrix: 2 never reaches 1, and the refusal
    # names the bound that stopped the search
    with pytest.raises(SearchLimitExceeded, match=r"within min_len \+ n - 1 = 2$"):
        connect_path(TransitionMatrix(((1, 1), (0, 1))), 2, 1)


def test_first_return_matches_enumeration_oracle():
    for matrix in POOL + [FULL3, FULL4]:
        for sym in matrix.symbols():
            for min_len in range(1, 5):
                ret = first_return(matrix, sym, min_len)
                assert ret == first_return_oracle(matrix, sym, min_len)
                assert min_len <= len(ret) <= min_len + matrix.n - 1 and ret[-1] == sym
                assert matrix.is_admissible((sym,) + ret)


def test_first_return_through_a_full_block():
    # 1 -> 2, a full block on 2..7, then the chain 7 -> 8 -> ... -> 14 -> 1:
    # the words leaving 1 multiply by six per step inside the block, so an
    # enumeration of whole words cannot reach the return at length 10
    rows = [[0] * 14 for _ in range(14)]
    rows[0][1] = 1
    for i in range(1, 7):
        rows[i][1:7] = [1] * 6
    for i in range(6, 13):
        rows[i][i + 1] = 1
    rows[13][0] = 1
    matrix = validate_matrix(rows)
    assert first_return(matrix, 1) == (2, 7, 8, 9, 10, 11, 12, 13, 14, 1)
    assert first_return(matrix, 8) == (9, 10, 11, 12, 13, 14, 1, 2, 7, 8)
    assert first_return(matrix, 2, min_len=2) == (2, 2)


def test_second_return_matches_enumeration_oracle():
    rng = random.Random(29)
    matrices = POOL + [FULL3, FULL4] + [random_matrix(rng, rng.randint(2, 6)) for _ in range(40)]
    for matrix in matrices:
        for sym in matrix.symbols():
            for min_len in range(2, 6):
                ret = first_return(matrix, sym, min_len)
                other = second_return(matrix, sym, ret)
                assert other == second_return_oracle(matrix, sym, ret)
                assert len(other) >= 3 and other[-1] == sym
                assert matrix.is_admissible((sym,) + other)
                k = min(len(other), len(ret))
                assert other[:k] != ret[:k]


def test_second_return_leaves_a_long_return_word():
    # the 14-symbol matrix with a full 6-block: from 1 every word runs
    # through the block, so whole-word enumeration grows sixfold per step
    rows = [[0] * 14 for _ in range(14)]
    rows[0][1] = 1
    for i in range(1, 7):
        rows[i][1:7] = [1] * 6
    for i in range(6, 13):
        rows[i][i + 1] = 1
    rows[13][0] = 1
    matrix = validate_matrix(rows)
    ret = first_return(matrix, 8)
    assert second_return(matrix, 8, ret) == (9, 10, 11, 12, 13, 14, 1, 2, 2, 7, 8)


def test_count_within_has_no_recursion_limit():
    assert FULL2.count_within([(1,)], 1201, inf) == 2 ** 1200
    assert GOLDEN.count_within([(2,)], 31, inf) == GOLDEN.count_within([(1,)], 30, inf)
    for matrix in POOL:
        for k in range(6):
            assert matrix.count_within([()], k, inf) == len(matrix.words(k))
            for sym in matrix.symbols():
                assert matrix.count_within([(sym,)], k + 1, inf) == len(
                    list(matrix.extensions((sym,), k + 1))
                )


def test_words_past_the_recursion_limit():
    # one generator frame per padded symbol once overflowed the stack here
    matrix = long_cycle(1100)
    deep = tuple(range(2, 1101)) + (1, 1)
    start = time.perf_counter()
    assert list(matrix.extensions((1, 2), 1101)) == [(1,) + tuple(range(2, 1101)) + (1,)]
    union = canonicalize_clopen(matrix, [(1, 2), deep])
    assert time.perf_counter() - start < 2.0
    assert union.depth == 1101
    assert union.words == {(1,) + tuple(range(2, 1101)) + (1,), deep}


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


def test_distinct_path_pair_matches_enumeration_oracle():
    # the least word per end symbol is every word of each level it tries
    rng = random.Random(675)
    matrices = list(POOL) + [random_matrix(rng, n) for n in range(2, 8) for _ in range(25)]
    for matrix in matrices:
        for frm in matrix.symbols():
            expected = distinct_path_pair_oracle(matrix, frm)
            assert distinct_path_pair(matrix, frm) == expected, (matrix.entries, frm)


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


def test_point_admissibility_matches_the_oracle_prefix():
    # pre.per.per.per[0] holds every arc of the point at least once
    def admissible(matrix, pre, per):
        x = EPPoint.make(pre, per)
        expected = matrix.is_admissible(x.prefix(len(x.pre) + 2 * len(x.per) + 1))
        assert is_point_admissible(matrix, x) == expected, (matrix.entries, x)
        return expected

    seen = set()
    for matrix in POOL:
        words = [w for k in range(4) for w in product(matrix.symbols(), repeat=k)]
        seen |= {admissible(matrix, pre, per) for pre in words for per in words if per}
        for bad in (0, matrix.n + 1):
            assert not admissible(matrix, (bad,), (1, 2))
            assert not admissible(matrix, (1,), (bad,))
            assert not admissible(matrix, (), (1, bad))
    assert seen == {True, False}
    # only pre[-1] -> per[0] fails, then only per[-1] -> per[0]
    assert not admissible(GOLDEN, (2,), (2, 1))
    assert not admissible(GOLDEN, (), (2, 1, 1, 2))
    assert admissible(GOLDEN, (1,), (2, 1))


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
