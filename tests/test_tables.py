"""Full-group tables: validation, arithmetic, supports, cocycles."""

import gc
import random
import time
import tracemalloc
from collections import Counter

import pytest

from fullshift import (
    BadInput,
    EPPoint,
    MatrixMismatch,
    NotInvariant,
    RowMismatch,
    TableMap,
    cylinder,
    empty_set,
    full_space,
    validate_table,
)
from fullshift.constructions import (
    cylinder_permutation,
    cylinder_swap,
    free_pair,
    involution_into,
    search_tables,
)
from fullshift.errors import BadDomain, ImagesDontCover, ImagesOverlap
from fullshift.sft import CYLINDER_LIMIT, canonicalize_clopen, point_in
from fullshift.tables import format_table_text, parse_table_text

from helpers import (
    DENSE3,
    DENSE4,
    FULL2,
    FULL3,
    GOLDEN,
    GOLDEN_REV,
    POOL,
    RING3,
    RING4,
    code_of,
    completion_points,
    domain_word_at,
    enumerate_points,
    image_clopen_oracle,
    maps_agree_oracle,
    merge_families_oracle,
    random_clopen,
    random_complete_code,
    random_cycles,
    random_general_table,
    random_swap,
    random_table,
    table_from,
    uniform_clopen_oracle,
    uniform_compose_oracle,
    uniform_form,
    uniform_inverse_oracle,
    uniform_order_oracle,
    uniform_reduce_oracle,
    uniform_view_oracle,
)

SWAP = validate_table(FULL2, {(1,): (2,), (2,): (1,)})
WORKED = validate_table(
    FULL2, {(1, 1): (1, 1, 1), (1, 2): (1, 1, 2), (2, 1): (1, 2), (2, 2): (2,)}
)


def test_validate_table_spec_cases():
    assert SWAP.depth == 1
    assert WORKED.depth == 2
    with pytest.raises(RowMismatch):
        validate_table(GOLDEN, {(1,): (2,), (2,): (1,)})


def test_validate_table_partition_failures():
    with pytest.raises(ImagesOverlap):
        validate_table(FULL2, {(1,): (1,), (2,): (1, 2)})
    with pytest.raises(ImagesDontCover):
        validate_table(FULL2, {(1,): (1, 1), (2,): (2, 1)})
    with pytest.raises(BadDomain):
        validate_table(GOLDEN, {(1, 1): (1, 1), (1, 2): (1, 2), (2, 2): (2, 1)})


def test_validate_table_names_least_missing_word_without_listing_words():
    ones = (1,) * 40
    with pytest.raises(BadDomain, match=r"domain misses word (1,){39}2$"):
        validate_table(FULL2, {ones: ones})


def test_validate_table_domain_diagnosis_matches_set_difference():
    rng = random.Random(53)
    for matrix in POOL:
        for depth in (1, 2, 3):
            words = list(matrix.words(depth))
            for _ in range(20):
                kept = rng.sample(words, rng.randint(1, len(words)))
                bad = [w[:-1] + (matrix.n + 1,) for w in rng.sample(words, rng.randint(0, 2))]
                domain = set(kept) | set(bad)
                missing = sorted(set(words) - domain)
                extra = sorted(domain - set(words))
                expected = (
                    f"domain misses word {','.join(map(str, missing[0]))}" if missing
                    else f"domain has bad word {','.join(map(str, extra[0]))}" if extra
                    else None
                )
                try:
                    validate_table(matrix, {w: w for w in domain})
                    message = None
                except BadDomain as exc:
                    message = str(exc)
                assert message == expected


def test_apply_spec_cases():
    one = EPPoint.make((), (1,))
    assert SWAP.apply(one) == EPPoint.make((2,), (1,))
    assert WORKED.apply(one) == one
    ident = TableMap.identity(FULL2)
    x = EPPoint.make((2, 1), (1, 2))
    assert ident.apply(x) == x


def test_compose_spec_cases():
    assert SWAP.compose(SWAP).is_identity
    assert WORKED.inverse().compose(WORKED).is_identity
    assert WORKED.compose(WORKED.inverse()).is_identity


def test_compose_matches_sequential_application():
    comp = SWAP.compose(WORKED)
    for x in enumerate_points(FULL2, 4, 4):
        assert comp.apply(x) == SWAP.apply(WORKED.apply(x))


def test_inverse_spec_case():
    inv = WORKED.inverse()
    assert inv.depth == 3
    assert inv.entries[(1, 1, 1)] == (1, 1)
    assert inv.entries[(1, 1, 2)] == (1, 2)
    assert inv.entries[(1, 2, 1)] == (2, 1, 1)
    assert inv.entries[(2, 1, 1)] == (2, 2, 1, 1)
    assert SWAP.inverse() == SWAP
    assert TableMap.identity(FULL2).inverse().is_identity


def test_inverse_laws_keep_the_code():
    # an inverse's depth is its longest domain word, the longest image of
    # the table it inverts: inverting twice gives the code back, an
    # involution is its own inverse, and no inversion widens the view
    rng = random.Random(1919)
    involutions, permutations, others = [], [], []
    for matrix in POOL + [FULL3]:
        psi, phi, _ = free_pair(cylinder(matrix, (1,)))
        involutions.append(psi)
        others.append(phi)
        for _ in range(12):
            cycles = random_cycles(rng, matrix)
            if cycles is not None:
                permutations.append(cylinder_permutation(matrix, cycles))
                # one swap from each cycle: disjoint swaps, an involution
                swaps = cylinder_permutation(matrix, [c[:2] for c in cycles])
                involutions.append(swaps)
                permutations.append(swaps)
            product = TableMap.identity(matrix)
            for _ in range(rng.randint(2, 4)):
                product = product.compose(random_swap(rng, matrix))
            others.append(product)
    involutions.append(cylinder_swap(FULL2, (1,), (2, 1)))
    others += search_tables(FULL2, 2, 3)
    assert len(permutations) >= 100 and len(others) >= 200
    for t in involutions + permutations + others:
        inverse = t.inverse()
        assert inverse.depth == max(map(len, t.images))
        twice = inverse.inverse()
        assert twice == t and (twice.domain, twice.images) == (t.domain, t.images)
        x = t
        for _ in range(6):
            x = x.inverse()
        assert x.entry_count() == t.entry_count()
    for s in involutions:
        inverse = s.inverse()
        assert inverse == s and inverse.depth == s.depth
    for t in permutations:
        assert t.inverse().entry_count() == t.entry_count()


def test_canonical_reduce_spec_cases():
    deep_id = TableMap.identity(FULL2).refine_to(2)
    assert deep_id.reduce().depth == 0
    assert SWAP.refine_to(2).reduce() == SWAP
    # the worked table does not merge to a shallower table: its canonical
    # depth stays 2
    reduced = WORKED.reduce()
    assert reduced == WORKED and reduced.depth == WORKED.depth == 2
    again = WORKED.reduce().reduce()
    assert again == WORKED.reduce()


def test_order_spec_cases():
    assert SWAP.order(10) == 2
    assert TableMap.identity(FULL2).order(5) == 1
    assert WORKED.order(64) is None


def test_support_and_fixed_worked_example():
    support, fixed = WORKED.support_and_fixed()
    assert support.is_full
    assert fixed.clopen_part.is_empty
    assert fixed.isolated == (EPPoint.make((), (1,)), EPPoint.make((), (2,)))


def test_support_identity_and_swap():
    support, fixed = TableMap.identity(FULL2).support_and_fixed()
    assert support.is_empty and fixed.clopen_part.is_full and fixed.isolated == ()
    support, fixed = SWAP.support_and_fixed()
    assert support.is_full and fixed.clopen_part.is_empty and fixed.isolated == ()


def test_cocycles_spec_cases():
    assert TableMap.identity(FULL2).cocycles() == {(): (0, 0)}
    assert SWAP.cocycles() == {(1,): (1, 1), (2,): (1, 1)}
    assert WORKED.cocycles() == {
        (1, 1): (3, 2),
        (1, 2): (3, 2),
        (2, 1): (2, 2),
        (2, 2): (1, 2),
    }


def test_cocycles_come_in_sorted_order():
    # the CLI prints the cocycle lines in the order of the dict: the domain's
    rng = random.Random(135)
    for matrix in POOL:
        for _ in range(20):
            table = random_table(rng, matrix)
            for t in (table, table.inverse(), table.refine_to(table.depth + 2)):
                words = list(t.cocycles())
                assert words == list(t.domain) == sorted(words)


def test_cocycle_equation_on_points():
    for table in (SWAP, WORKED, WORKED.inverse()):
        cocycles = table.cocycles()
        for x in enumerate_points(FULL2, 4, 3):
            k, l = cocycles[domain_word_at(table, x)]
            assert table.apply(x).shift(k) == x.shift(l)


def test_commutes_cases():
    assert WORKED.commutes(TableMap.identity(FULL2))
    assert WORKED.commutes(WORKED)
    assert not SWAP.commutes(WORKED)


def test_disjoint_support_involutions_commute():
    u1 = cylinder(FULL2, (1,))
    u2 = cylinder(FULL2, (2,))
    _, alpha = involution_into(u1, u1, point_in(u1))
    _, beta = involution_into(u2, u2, point_in(u2))
    assert alpha.support().intersection(beta.support()).is_empty
    assert alpha.commutes(beta)


def test_in_local_subgroup_cases():
    assert TableMap.identity(FULL2).in_local_subgroup(empty_set(FULL2))
    assert not SWAP.in_local_subgroup(cylinder(FULL2, (1,)))
    inner = cylinder_swap(GOLDEN, (1, 1), (2, 1))
    region = cylinder(GOLDEN, (1, 1)).union(cylinder(GOLDEN, (2, 1)))
    assert inner.in_local_subgroup(region)
    assert not inner.in_local_subgroup(cylinder(GOLDEN, (1,)))


def test_image_clopen_cases():
    assert SWAP.image_clopen(cylinder(FULL2, (1,))) == cylinder(FULL2, (2,))
    assert WORKED.image_clopen(full_space(FULL2)).is_full
    assert WORKED.image_clopen(cylinder(FULL2, (1, 1))) == cylinder(FULL2, (1, 1, 1))
    with pytest.raises(MatrixMismatch):
        SWAP.image_clopen(cylinder(GOLDEN, (1,)))


def test_image_clopen_matches_the_view_oracle():
    # seeded tables against seeded sets on every pool matrix and FULL3: set
    # words inside domain cylinders, domain cylinders inside set words, and
    # the empty and the full set
    rng = random.Random(2161)
    for matrix in POOL + [FULL3]:
        sets = [empty_set(matrix), full_space(matrix)]
        sets += [random_clopen(rng, matrix, rng.randint(1, 4)) for _ in range(10)]
        for _ in range(12):
            table = random_table(rng, matrix)
            for u in sets:
                image = table.image_clopen(u)
                assert uniform_form(image) == image_clopen_oracle(table, u), (table, u.code)


def test_image_clopen_runs_match_the_view_oracle_at_the_domain_ends():
    # tables written at one depth, so that a set word shorter than every
    # domain word is a run of them; a set word ending in symbol n, or the
    # greatest word of its length, bounds its run by w followed by n + 1,
    # and the greatest word's run ends at the end of the domain
    rng = random.Random(2505)
    for matrix in POOL + [FULL3]:
        n = matrix.n
        tables = [TableMap.identity(matrix)]
        tables += [TableMap.identity(matrix).refine_to(d) for d in (1, 2, 3)]
        for _ in range(6):
            table = random_table(rng, matrix)
            tables.append(table.refine_to(table.depth + 1))
        for table in tables:
            sets = [empty_set(matrix), full_space(matrix)]
            for k in range(1, table.depth):
                words = matrix.words(k)
                sets += [cylinder(matrix, w) for w in words if w[-1] == n]
                sets.append(cylinder(matrix, words[-1]))
                sets.append(canonicalize_clopen(matrix, [words[0], words[-1]]))
            for u in sets:
                image = table.image_clopen(u)
                assert uniform_form(image) == image_clopen_oracle(table, u), (table, u.code)
                if table.is_identity:
                    assert image == u


def test_reduce_cascades_to_the_empty_word_as_the_oracle_merges():
    # the identity written on a random complete code merges level by level
    # into the one word EMPTY; moved codes split the same way merge back into
    # their table, through families of one child on GOLDEN and RING3
    rng = random.Random(2506)
    for matrix in POOL + [FULL3]:
        for _ in range(15):
            code = random_complete_code(rng, matrix, (), rng.randint(1, 12))
            fixed = {w: w for w in code}
            table = table_from(matrix, max(map(len, code)), fixed)
            assert table.reduce().is_identity and table.reduce().domain == ((),)
            assert merge_families_oracle(matrix, fixed) == {(): ()}
            swap = random_swap(rng, matrix).reduce()
            split = swap.refine_to(swap.depth + rng.randint(1, 2))
            assert code_of(split.reduce()) == code_of(swap)
            assert merge_families_oracle(matrix, code_of(split)) == code_of(swap)


# U and V of the search workload's far pairs, which no FULL2 table within
# bounds 3/3 carries one onto the other
FAR_SETS = [
    canonicalize_clopen(FULL2, words)
    for words in ([(1, 1)], [(2, 2, 2, 2)], [(1, 2)], [(1, 1, 1, 1), (2, 2, 2, 2)],
                  [(1,)], [(2, 1), (1, 1, 1)])
]


def test_image_clopen_matches_the_oracle_on_every_full2_3x3_table():
    # one oracle view per table, at depth 4: every table's depth and every
    # set's depth is at most 4
    count = 0
    for table in search_tables(FULL2, 3, 3):
        view = uniform_view_oracle(table, 4)
        for u in FAR_SETS:
            image = table.image_clopen(u)
            assert uniform_form(image) == image_clopen_oracle(table, u, view), (table, u.code)
        count += 1
    assert count == 40443


def test_deep_swap_support_is_two_code_words():
    # the support of the swap of [1] and [2^18] is two cylinders; padded to
    # one depth it was 2^17 + 1 words
    swap = cylinder_swap(FULL2, (1,), (2,) * 18)
    start = time.perf_counter()
    support = swap.support()
    assert time.perf_counter() - start < 0.1
    assert support.code == ((1,), (2,) * 18)
    tracemalloc.start()
    try:
        swap.support()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_image_clopen_under_a_deep_swap():
    # padded to the image's depth, the whole space would be 2^40 words
    swap = cylinder_swap(FULL2, (1,), (2,) * 40)
    start = time.perf_counter()
    assert swap.image_clopen(full_space(FULL2)) == full_space(FULL2)
    assert swap.image_clopen(cylinder(FULL2, (1,))) == cylinder(FULL2, (2,) * 40)
    assert swap.image_clopen(cylinder(FULL2, (2,))).complement() == cylinder(FULL2, (2,) * 40)
    assert time.perf_counter() - start < 1.0


def test_uniform_view_writers_refuse_a_huge_view_at_once():
    # 2^40 entries at depth 41: the count stops past the limit, no line is built
    swap = cylinder_swap(FULL2, (1,), (2,) * 41)
    message = f"the table at depth 41 spans more than {CYLINDER_LIMIT} cylinders"
    start = time.perf_counter()
    with pytest.raises(BadInput, match=message):
        format_table_text(swap)
    with pytest.raises(BadInput, match=message):
        swap.refine_to(41)
    # the cocycles live on the code: one pair per code word, no view
    cocycles = swap.cocycles()
    assert len(cocycles) == len(swap.domain) == 42
    assert cocycles[(1,)] == (41, 1) and cocycles[(2,) * 41] == (1, 41)
    assert time.perf_counter() - start < 1.0
    # below the limit the view is still listed
    small = cylinder_swap(FULL2, (1,), (2,) * 15)
    assert format_table_text(small).count("\n") - 1 == small.entry_count() == 2**15


def test_repr_names_the_code_not_the_view():
    # the view has 2^2199 + 1 entries, a count of 662 decimal digits; a
    # repr that printed it raised past Python's digit limit (4300 digits
    # by default, from depth 14,286) and was slow well before that
    swap = cylinder_swap(FULL2, (1,), (2,) * 2200)
    assert repr(swap) == "TableMap(depth=2200, 2201 code words)"
    assert repr(TableMap.identity(FULL2)) == "TableMap(identity)"


def test_split_invariant_cases():
    region = cylinder(FULL2, (1,))
    ident = TableMap.identity(FULL2)
    part_in, part_out = ident.split_invariant(region)
    assert part_in.is_identity and part_out.is_identity

    inner = cylinder_swap(FULL2, (1, 1), (1, 2))
    part_in, part_out = inner.split_invariant(region)
    assert part_in == inner and part_out.is_identity

    outer = cylinder_swap(FULL2, (2, 1), (2, 2))
    both = inner.compose(outer)
    part_in, part_out = both.split_invariant(region)
    assert part_in == inner and part_out == outer
    assert part_in.compose(part_out) == both

    with pytest.raises(NotInvariant):
        SWAP.split_invariant(region)


def test_group_laws_randomized_small():
    rng = random.Random(97)
    for matrix in POOL:
        tables = [random_table(rng, matrix) for _ in range(6)]
        for a, b, c in zip(tables, tables[1:], tables[2:]):
            assert a.compose(b).compose(c) == a.compose(b.compose(c))
        for t in tables:
            assert t.compose(t.inverse()).is_identity
            assert t.inverse().compose(t).is_identity
            assert t.inverse().inverse() == t
            assert t.reduce().reduce() == t.reduce()


def test_canonical_equality_agrees_with_pointwise_oracle():
    rng = random.Random(13)
    pairs = 0
    for matrix in [FULL2, GOLDEN, DENSE3]:
        tables = [random_table(rng, matrix, max_depth=2, max_image=3) for _ in range(8)]
        for i, a in enumerate(tables):
            for b in tables[i:]:
                assert (a == b) == maps_agree_oracle(a, b)
                pairs += 1
    assert pairs > 60


def test_equal_tables_are_one_element_whatever_their_depth():
    # a refined code and a code inverted twice denote the same element, so
    # they hash alike and a set holds them once
    rng = random.Random(71)
    for matrix in POOL:
        for _ in range(10):
            t = random_table(rng, matrix)
            refined = t.refine_to(t.depth + 2)
            assert refined.depth == t.depth + 2
            assert len({t, refined, t.inverse().inverse()}) == 1


def test_table_text_round_trip():
    rng = random.Random(59)
    for matrix in POOL:
        for _ in range(5):
            t = random_table(rng, matrix)
            parsed = parse_table_text(matrix, format_table_text(t))
            # the same element, written as its own uniform view
            assert parsed == t and parsed.depth == t.depth
            assert all(len(w) == t.depth for w in parsed.domain)
    ident = TableMap.identity(FULL2)
    parsed = parse_table_text(FULL2, format_table_text(ident))
    assert parsed == ident and code_of(parsed) == code_of(ident)


def test_support_laws_randomized():
    rng = random.Random(71)
    for _ in range(40):
        matrix = rng.choice(POOL)
        g = random_table(rng, matrix)
        d = random_table(rng, matrix)
        assert g.inverse().support() == g.support()
        prod_support = g.compose(d).support()
        assert prod_support.is_subset_of(g.support().union(d.support()))
        region = random_clopen(rng, matrix)
        if g.in_local_subgroup(region):
            assert g.image_clopen(region) == region


def test_reduce_stops_at_structurally_unmergeable_families():
    # the family over prefix (1,) merges cleanly, but 21 -> 1 could only
    # merge to an empty image, and the depth-1 candidate {1 -> 21, 2 -> 1}
    # is no table at all: symbol 1 allows continuations symbol 2 forbids
    table = validate_table(
        GOLDEN, {(1, 1): (2, 1, 1), (1, 2): (2, 1, 2), (2, 1): (1,)}
    )
    reduced = table.reduce()
    assert reduced == table and reduced.depth == table.depth == 2
    assert code_of(reduced) == {(1,): (2, 1), (2, 1): (1,)}
    with pytest.raises(RowMismatch):
        validate_table(GOLDEN, {(1,): (2, 1), (2,): (1,)})


def test_reduce_exhaustive_on_small_tables():
    # reduction must preserve the map and stay valid, for every valid
    # table within small bounds
    from fullshift.constructions import search_tables

    for matrix in (FULL2, GOLDEN):
        for t in search_tables(matrix, 2, 2):
            r = t.reduce()
            # reducing a fresh copy of the reduced code changes nothing
            assert code_of(validate_table(matrix, r.entries).reduce()) == code_of(r)
            assert maps_agree_oracle(t, r)


def test_reduce_merges_one_child_families():
    # symbol 1 has one follower on RING3, so 12 -> 12 merges into 1 -> 1
    # and the code keeps its size
    table = table_from(RING3, 2, {(1, 2): (1, 2), (2,): (3, 2), (3, 1): (3, 1), (3, 2): (2,)})
    reduced = {(1,): (1,), (2,): (3, 2), (3, 1): (3, 1), (3, 2): (2,)}
    assert code_of(table.reduce()) == reduced == merge_families_oracle(RING3, code_of(table))
    assert table.reduce().depth == 2


def test_reduce_undoes_random_splits_exactly():
    # splitting code words into their children, each image extended by the
    # same symbol, leaves the map alone, so reduction must undo every split,
    # including a merge left above the deepest word
    rng = random.Random(71)
    for matrix in POOL + [FULL3]:
        for _ in range(25):
            table = random_table(rng, matrix).reduce()
            code = code_of(table)
            for _ in range(rng.randint(1, 6)):
                nu = rng.choice(sorted(code))
                rho = code.pop(nu)
                for a in matrix.successors(nu[-1] if nu else 0):
                    code[nu + (a,)] = rho + (a,)
            items = list(code.items())
            rng.shuffle(items)
            split = table_from(matrix, max(map(len, code)), dict(items))
            assert code_of(split.reduce()) == code_of(table), (matrix, code)
            assert split.reduce().depth == table.depth
            assert merge_families_oracle(matrix, dict(items)) == code_of(table)


def _assert_matches_oracle(table, depth, entries):
    assert table.depth == depth
    assert table.entries == entries
    oracle = validate_table(table.matrix, entries) if depth else TableMap.identity(table.matrix)
    assert format_table_text(table) == format_table_text(oracle)
    if depth <= 4:
        assert maps_agree_oracle(table, oracle)
    else:
        # words of length 2 * depth + 2 are too many: test every cylinder
        for w in entries:
            for x in completion_points(table.matrix, w):
                assert table.apply(x) == oracle.apply(x)


def _assert_order_matches_oracle_at_every_bound(table):
    """order(b) for b = 1..6, below, at and above the order, against the
    oracle, on the table as given, its reduced code and an unreduced
    refinement; returns the oracle's answer at 6."""
    forms = (table, table.reduce(), table.refine_to(table.depth + 1))
    for bound in range(1, 7):
        expected = uniform_order_oracle(table, bound)
        assert [t.order(bound) for t in forms] == [expected] * 3, (table, bound)
    return expected


def test_sparse_arithmetic_matches_uniform_oracle_on_enumerated_tables():
    from fullshift.constructions import search_tables

    rng = random.Random(31)
    orders = set()
    for matrix in (FULL2, GOLDEN):
        tables = list(search_tables(matrix, 2, 3))
        for t in tables:
            _assert_matches_oracle(
                t.reduce(), *uniform_reduce_oracle(matrix, t.depth, dict(t.entries))
            )
            _assert_matches_oracle(t.inverse(), *uniform_inverse_oracle(t))
            orders.add(_assert_order_matches_oracle_at_every_bound(t))
        for _ in range(150):
            a, b = rng.choice(tables), rng.choice(tables)
            _assert_matches_oracle(a.compose(b), *uniform_compose_oracle(a, b))
    assert {1, 2, 3, None} <= orders


def test_sparse_arithmetic_matches_uniform_oracle_on_free_pairs():
    pool = [FULL2, GOLDEN, GOLDEN_REV, FULL3, RING3, DENSE3, RING4, DENSE4]
    for matrix in pool:
        psi, phi, _ = free_pair(cylinder(matrix, (1,)))
        for t in (psi, phi):
            _assert_matches_oracle(
                t.reduce(), *uniform_reduce_oracle(matrix, t.depth, dict(t.entries))
            )
            inverse = t.inverse()
            _assert_matches_oracle(inverse, *uniform_inverse_oracle(t))
            assert inverse.compose(t).is_identity
        _assert_matches_oracle(psi.compose(phi), *uniform_compose_oracle(psi, phi))
        _assert_matches_oracle(phi.compose(phi), *uniform_compose_oracle(phi, phi))
        assert psi.order(3) == uniform_order_oracle(psi, 3) == 2
        assert phi.order(4) == 3 == uniform_order_oracle(phi, 4)


def test_order_matches_the_oracle_on_elements_beyond_products_of_swaps():
    # two random complete codes paired row by row; an image that properly
    # extends its domain word nests a cylinder strictly inside itself under
    # every power, so such an element has infinite order
    rng = random.Random(26)
    orders, nesting = Counter(), 0
    for matrix in POOL + [FULL3]:
        for _ in range(20):
            t = random_general_table(rng, matrix)
            orders[_assert_order_matches_oracle_at_every_bound(t)] += 1
            if any(len(rho) > len(nu) and rho[: len(nu)] == nu for nu, rho in code_of(t).items()):
                nesting += 1
                assert t.order(6) is None
    assert nesting >= 10 and orders[None] > nesting
    assert all(orders[k] for k in (1, 2, 3, 4))


def test_order_2_builds_no_table(monkeypatch):
    # an unreduced code of an involution and of an element of order 3:
    # the square is asked of its pieces, never composed or reduced
    rng = random.Random(8)
    tables = [random_swap(rng, m).refine_to(3) for m in (FULL2, GOLDEN, FULL3)]
    tables.append(cylinder_permutation(FULL3, [((1,), (2,), (3,))]))
    built = []

    def counted(name):
        orig = getattr(TableMap, name)

        def wrapper(*args):
            built.append(name)
            return orig(*args)
        return wrapper

    for name in ("compose", "reduce"):
        monkeypatch.setattr(TableMap, name, counted(name))
    assert [t.order(2) for t in tables] == [2, 2, 2, None]
    assert built == []
    assert tables[-1].order(3) == 3 and built


def test_in_local_subgroup_matches_the_uniform_oracle():
    # at d = max(table depth, region depth) every moved word of the
    # table's uniform view lies in the region's least uniform form
    rng = random.Random(2626)
    seen = Counter()
    for matrix in POOL + [FULL3]:
        for _ in range(25):
            t = rng.choice([random_table, random_general_table])(rng, matrix)
            region = rng.choice([
                empty_set(matrix),
                full_space(matrix),
                random_clopen(rng, matrix, 3),
                t.support().union(random_clopen(rng, matrix, 3)),
                t.support().difference(random_clopen(rng, matrix, 3)),
            ])
            depth, words = uniform_clopen_oracle(matrix, region.code)
            view = uniform_view_oracle(t, max(t.depth, region.depth))
            expected = all(rho == w or w[:depth] in words for w, rho in view.items())
            for form in (t, t.refine_to(t.depth + 1)):
                assert form.in_local_subgroup(region) == expected, (t, region)
            seen[expected, len({len(w) for w in region.code}) > 1] += 1
    assert all(seen[case] for case in [(True, False), (False, False), (True, True), (False, True)])
    with pytest.raises(MatrixMismatch):
        SWAP.in_local_subgroup(full_space(GOLDEN))


def test_reduced_tables_hold_no_reference_cycle():
    # a reduced table is marked without a reference to itself, so tables
    # that are built, reduced and dropped leave no cyclic garbage behind
    a, b = cylinder_swap(FULL2, (1,), (2, 1)), cylinder_swap(FULL2, (1, 1), (2,))
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            c = a.compose(b)
            assert c.reduce() is c.reduce()
            c.order(8)
        del c
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
