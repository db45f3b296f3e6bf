"""Witness constructions: every output is checked against the displayed
conditions of the statement it realizes."""

import random

import pytest

from fullshift import (
    BadInput,
    EPPoint,
    NotDisjoint,
    PreconditionFailed,
    TableMap,
    cylinder,
    full_space,
)
from fullshift.constructions import (
    check_clopen_transport,
    check_cylinder_involution,
    check_free_pair,
    check_involution_into,
    check_localize_conjugate,
    check_minimality_witness,
    check_paired_transport,
    check_split_invariant,
    check_swap_involution,
    clopen_transport,
    cylinder_involution,
    cylinder_swap,
    enumerate_tables,
    free_pair,
    involution_into,
    localize_conjugate,
    minimality_witness,
    paired_transport,
    search_tables,
    swap_involution,
    witness_search,
)
from fullshift.sft import point_in
from fullshift.tables import validate_table

from helpers import (
    DENSE3,
    FULL2,
    FULL3,
    GOLDEN,
    GOLDEN_REV,
    SMALL_POOL,
    random_clopen,
    search_order_oracle,
)


def assert_all(checks):
    failed = [name for name, ok in checks if not ok]
    assert not failed, f"failed: {failed}"


def test_involution_into_examples():
    u1, u2 = cylinder(FULL2, (1,)), cylinder(FULL2, (2,))
    one = EPPoint.make((), (1,))
    hood, alpha = involution_into(u1, u2, one)
    assert_all(check_involution_into(u1, u2, one, hood, alpha))

    hood, alpha = involution_into(full_space(FULL2), full_space(FULL2), one)
    assert hood.contains_point(one)
    assert_all(
        check_involution_into(full_space(FULL2), full_space(FULL2), one, hood, alpha)
    )

    x = EPPoint.make((), (2, 1))
    src, tgt = cylinder(GOLDEN, (2,)), cylinder(GOLDEN, (1, 1))
    hood, alpha = involution_into(src, tgt, x)
    assert_all(check_involution_into(src, tgt, x, hood, alpha))


def test_involution_into_is_deterministic():
    u1, u2 = cylinder(FULL2, (1,)), cylinder(FULL2, (2,))
    one = EPPoint.make((), (1,))
    first = involution_into(u1, u2, one)
    second = involution_into(u1, u2, one)
    assert first == second


def test_swap_involution_examples():
    u1, u2 = cylinder(FULL2, (1,)), cylinder(FULL2, (2,))
    swap = validate_table(FULL2, {(1,): (2,), (2,): (1,)})
    alpha = swap_involution(u1, u2, swap)
    assert alpha.same_map(swap)
    assert_all(check_swap_involution(u1, u2, alpha))

    a, b = cylinder(FULL2, (1, 1)), cylinder(FULL2, (1, 2))
    gamma = cylinder_swap(FULL2, (1, 1), (1, 2))
    alpha = swap_involution(a, b, gamma)
    assert_all(check_swap_involution(a, b, alpha))
    assert alpha.support().is_subset_of(a.union(b))

    with pytest.raises(NotDisjoint):
        swap_involution(u1, u1, swap)


def test_cylinder_involution_examples():
    alpha = cylinder_involution(FULL2, (1, 1), cylinder(FULL2, (2,)))
    assert_all(check_cylinder_involution(FULL2, (1, 1), cylinder(FULL2, (2,)), alpha))
    alpha = cylinder_involution(GOLDEN, (1, 2), cylinder(GOLDEN, (2, 1)))
    assert_all(check_cylinder_involution(GOLDEN, (1, 2), cylinder(GOLDEN, (2, 1)), alpha))
    with pytest.raises(BadInput):
        cylinder_involution(FULL2, (1, 1), cylinder(FULL2, (1, 1)))
    with pytest.raises(BadInput):
        cylinder_involution(FULL2, (1,), cylinder(FULL2, (2,)))


def test_clopen_transport_examples():
    u, w = cylinder(FULL2, (1,)), cylinder(FULL2, (2,))
    alpha = clopen_transport(u, w)
    assert_all(check_clopen_transport(u, w, alpha))

    u = cylinder(FULL2, (1, 1)).union(cylinder(FULL2, (2, 2)))
    w = cylinder(FULL2, (1, 2))
    alpha = clopen_transport(u, w)
    assert_all(check_clopen_transport(u, w, alpha))

    with pytest.raises(NotDisjoint):
        clopen_transport(cylinder(FULL2, (1,)), cylinder(FULL2, (1,)))


def test_clopen_transport_order_insensitive():
    # the per-cylinder involutions have disjoint supports, so the composite
    # is the same element however they are multiplied
    u = cylinder(FULL2, (1, 1)).union(cylinder(FULL2, (1, 2)))
    w = cylinder(FULL2, (2,))
    alpha = clopen_transport(u, w)
    from fullshift.constructions import _disjoint_corners

    words = sorted(u.refine(2))
    pieces = [
        cylinder_involution(FULL2, word, corner)
        for word, corner in zip(words, _disjoint_corners(w, len(words)))
    ]
    supports = [p.support() for p in pieces]
    assert all(
        supports[i].intersection(supports[j]).is_empty
        for i in range(len(pieces))
        for j in range(i + 1, len(pieces))
    )
    reversed_product = TableMap.identity(FULL2)
    for piece in reversed(pieces):
        reversed_product = reversed_product.compose(piece)
    assert reversed_product.same_map(alpha)


def test_paired_transport_example():
    region = cylinder(FULL2, (1,))
    u, v = cylinder(FULL2, (1, 1)), cylinder(FULL2, (2, 1))
    w, w2 = cylinder(FULL2, (1, 2)), cylinder(FULL2, (2, 2))
    gamma = cylinder_swap(FULL2, (1, 1), (2, 1))
    us, vs, alphas, betas = paired_transport(region, u, v, w, w2, gamma)
    assert len(us) >= 1
    assert_all(
        check_paired_transport(region, u, v, w, w2, gamma, us, vs, alphas, betas)
    )
    with pytest.raises(PreconditionFailed):
        paired_transport(region, u, cylinder(FULL2, (1, 2)), w, w2, gamma)


def test_minimality_witness_examples():
    u, v = cylinder(FULL2, (1, 1)), cylinder(FULL2, (2, 2))
    gamma = minimality_witness(u, v)
    assert_all(check_minimality_witness(u, v, gamma))
    assert minimality_witness(full_space(FULL2), full_space(FULL2)).is_identity
    u, v = cylinder(GOLDEN, (2,)), cylinder(GOLDEN, (1, 1))
    gamma = minimality_witness(u, v)
    assert_all(check_minimality_witness(u, v, gamma))


def test_minimality_witness_overlapping():
    u = full_space(FULL2)
    v = cylinder(FULL2, (1, 1))
    gamma = minimality_witness(u, v)
    assert_all(check_minimality_witness(u, v, gamma))


def test_free_pair_examples():
    for region in [full_space(FULL2), cylinder(FULL2, (1,)), cylinder(GOLDEN, (2,))]:
        psi, phi, base = free_pair(region)
        assert_all(check_free_pair(region, psi, phi, base))


def test_localize_conjugate_examples():
    region = cylinder(FULL2, (1,))
    eta = cylinder_swap(FULL2, (1, 1), (1, 2))
    gamma = localize_conjugate(eta, cylinder(FULL2, (1, 1)), region)
    assert gamma.is_identity  # eta already moves the set
    assert_all(check_localize_conjugate(eta, cylinder(FULL2, (1, 1)), region, gamma))

    eta = cylinder_swap(FULL2, (1, 1, 1), (1, 1, 2))
    u = cylinder(FULL2, (1, 2))
    gamma = localize_conjugate(eta, u, region)
    assert not gamma.is_identity
    assert_all(check_localize_conjugate(eta, u, region, gamma))

    with pytest.raises(PreconditionFailed):
        localize_conjugate(TableMap.identity(FULL2), u, region)


def test_witness_search_finds_swap():
    u1, u2 = cylinder(FULL2, (1,)), cylinder(FULL2, (2,))
    found = witness_search(FULL2, lambda t: t.image_clopen(u1) == u2, 1, 1)
    assert found is not None
    assert found.entries == {(1,): (2,), (2,): (1,)}


def test_witness_search_exhausts():
    assert witness_search(FULL2, lambda t: t.order(4) == 3, 1, 1) is None


def test_witness_search_deterministic():
    u1, u2 = cylinder(FULL2, (1,)), cylinder(FULL2, (2,))
    runs = [
        witness_search(FULL2, lambda t: t.image_clopen(u1) == u2, 2, 2)
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_witness_search_order_three_in_cylinder():
    # a 3-cycle of subcylinders of U_1 exists within bounds (3, 4)
    def predicate(t):
        moved = [nu for nu, rho in t.entries.items() if rho != nu]
        if not moved or any(nu[0] != 1 for nu in moved):
            return False
        return t.order(4) == 3

    found = witness_search(FULL2, predicate, 3, 4)
    assert found is not None
    assert found.order(4) == 3
    assert found.support().is_subset_of(cylinder(FULL2, (1,)))


def test_enumerate_tables_all_valid():
    tables = list(enumerate_tables(GOLDEN, 2, 3))
    assert len(tables) > 1
    for t in tables:
        validate_table(t.matrix, t.entries)
    # deterministic order
    again = list(enumerate_tables(GOLDEN, 2, 3))
    assert tables == again


def test_search_tables_order_matches_oracle():
    # the pruned generator visits exactly the tables of plain backtracking,
    # in the same order; DENSE3 is a 3-state matrix that is not full
    cases = [
        (FULL2, 2, 3), (FULL2, 2, 5), (FULL2, 3, 3), (GOLDEN, 3, 4),
        (GOLDEN_REV, 3, 4), (FULL3, 1, 3), (DENSE3, 2, 4),
    ]
    for matrix, depth, image in cases:
        got = [(t.depth, t.code) for t in search_tables(matrix, depth, image)]
        want = [(t.depth, t.code) for t in search_order_oracle(matrix, depth, image)]
        assert got == want, (matrix, depth, image)


def test_split_invariant_randomized():
    rng = random.Random(7)
    from helpers import swap_inside

    for _ in range(30):
        matrix = rng.choice(SMALL_POOL)
        region = random_clopen(rng, matrix, proper=True)
        inner = swap_inside(rng, region)
        outer = swap_inside(rng, region.complement())
        if inner is None or outer is None:
            continue
        gamma = inner.compose(outer)
        part_in, part_out = gamma.split_invariant(region)
        assert_all(check_split_invariant(gamma, region, part_in, part_out))
