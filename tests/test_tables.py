"""Full-group tables: validation, arithmetic, supports, cocycles."""

import random

import pytest

from fullshift import (
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
from fullshift.constructions import cylinder_swap, involution_into
from fullshift.errors import BadDomain, ImagesDontCover, ImagesOverlap
from fullshift.sft import point_in
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
    completion_points,
    enumerate_points,
    maps_agree_oracle,
    random_clopen,
    random_table,
    uniform_compose_oracle,
    uniform_inverse_oracle,
    uniform_order_oracle,
    uniform_reduce_oracle,
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


def test_canonical_reduce_spec_cases():
    deep_id = TableMap.identity(FULL2).refine_to(2)
    assert deep_id.reduce().depth == 0
    assert SWAP.refine_to(2).reduce() == SWAP
    # the worked table does not merge: its canonical depth stays 2
    assert WORKED.reduce() == WORKED
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
    assert TableMap.identity(FULL2).cocycles().values == {(): (0, 0)}
    assert SWAP.cocycles().values == {(1,): (1, 1), (2,): (1, 1)}
    assert WORKED.cocycles().values == {
        (1, 1): (3, 2),
        (1, 2): (3, 2),
        (2, 1): (2, 2),
        (2, 2): (1, 2),
    }


def test_cocycle_equation_on_points():
    for table in (SWAP, WORKED):
        cocycles = table.cocycles()
        for x in enumerate_points(FULL2, 4, 3):
            k, l = cocycles.pair(x.prefix(table.depth))
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


def test_split_invariant_cases():
    region = cylinder(FULL2, (1,))
    ident = TableMap.identity(FULL2)
    part_in, part_out = ident.split_invariant(region)
    assert part_in.is_identity and part_out.is_identity

    inner = cylinder_swap(FULL2, (1, 1), (1, 2))
    part_in, part_out = inner.split_invariant(region)
    assert part_in.same_map(inner) and part_out.is_identity

    outer = cylinder_swap(FULL2, (2, 1), (2, 2))
    both = inner.compose(outer)
    part_in, part_out = both.split_invariant(region)
    assert part_in.same_map(inner) and part_out.same_map(outer)
    assert part_in.compose(part_out).same_map(both)

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
            assert t.inverse().inverse().same_map(t)
            assert t.reduce().reduce() == t.reduce()


def test_canonical_equality_agrees_with_pointwise_oracle():
    rng = random.Random(13)
    pairs = 0
    for matrix in [FULL2, GOLDEN, DENSE3]:
        tables = [random_table(rng, matrix, max_depth=2, max_image=3) for _ in range(8)]
        for i, a in enumerate(tables):
            for b in tables[i:]:
                assert a.same_map(b) == maps_agree_oracle(a, b)
                pairs += 1
    assert pairs > 60


def test_table_text_round_trip():
    rng = random.Random(59)
    for matrix in POOL:
        for _ in range(5):
            t = random_table(rng, matrix)
            assert parse_table_text(matrix, format_table_text(t)) == t
    ident = TableMap.identity(FULL2)
    assert parse_table_text(FULL2, format_table_text(ident)) == ident


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
    assert table.reduce() == table
    with pytest.raises(RowMismatch):
        validate_table(GOLDEN, {(1,): (2, 1), (2,): (1,)})


def test_reduce_exhaustive_on_small_tables():
    # reduction must preserve the map and stay valid, for every valid
    # table within small bounds
    from fullshift.constructions import enumerate_tables

    for matrix in (FULL2, GOLDEN):
        for t in enumerate_tables(matrix, 2, 2):
            r = t.reduce()
            validate_table(matrix, r.entries)
            assert r.reduce() == r
            assert maps_agree_oracle(t, r)


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


def test_sparse_arithmetic_matches_uniform_oracle_on_enumerated_tables():
    from fullshift.constructions import enumerate_tables

    rng = random.Random(31)
    for matrix in (FULL2, GOLDEN):
        tables = list(enumerate_tables(matrix, 2, 3))
        for t in tables:
            _assert_matches_oracle(
                t.reduce(), *uniform_reduce_oracle(matrix, t.depth, dict(t.entries))
            )
            _assert_matches_oracle(t.inverse(), *uniform_inverse_oracle(t))
            assert t.order(6) == uniform_order_oracle(t, 6)
        for _ in range(150):
            a, b = rng.choice(tables), rng.choice(tables)
            _assert_matches_oracle(a.compose(b), *uniform_compose_oracle(a, b))


def test_sparse_arithmetic_matches_uniform_oracle_on_free_pairs():
    from fullshift.constructions import free_pair

    pool = [FULL2, GOLDEN, GOLDEN_REV, FULL3, RING3, DENSE3, RING4, DENSE4]
    for matrix in pool:
        psi, phi, _ = free_pair(cylinder(matrix, (1,)))
        for t in (psi, phi):
            _assert_matches_oracle(
                t.reduce(), *uniform_reduce_oracle(matrix, t.depth, dict(t.entries))
            )
            inverse = t.inverse()
            # the uniform inverse of phi has 3^12 words on FULL3: too big to write out
            if inverse.entry_count() <= 20_000:
                _assert_matches_oracle(inverse, *uniform_inverse_oracle(t))
            assert inverse.compose(t).is_identity
        _assert_matches_oracle(psi.compose(phi), *uniform_compose_oracle(psi, phi))
        _assert_matches_oracle(phi.compose(phi), *uniform_compose_oracle(phi, phi))
        assert psi.order(3) == uniform_order_oracle(psi, 3) == 2
        # phi^2 has 3^8 uniform entries on FULL3, past the oracle's default cap
        assert phi.order(4) == 3 == uniform_order_oracle(phi, 4, entry_cap=6 * phi.entry_count())
