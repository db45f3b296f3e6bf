"""Cokernel invariants: Smith form, pointed groups, equivalence decisions."""

import random

from fullshift import (
    bowen_franks,
    clopen_class,
    cylinder,
    empty_set,
    full_group_iso_decide,
    full_space,
    gamma_equivalent,
    pointed_iso_decide,
    smith_normal_form,
    validate_matrix,
)
from fullshift.invariants import (
    BFGroup,
    determinant,
    maps_onto_candidates,
    shift_determinant,
)

from helpers import (
    FULL2,
    DENSE3,
    FULL3,
    GOLDEN,
    POOL,
    cokernel_orders,
    group_element_orders,
    hom_count,
    invariant_factor_lists,
    pointed_match_oracle,
    random_clopen,
    random_matrix,
    search_order_oracle,
)


def full_shift(n):
    return validate_matrix([[1] * n for _ in range(n)])


def test_smith_normal_form_randomized():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        mat = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        s, p, q = smith_normal_form(mat)  # re-checks its own identities
        diag = [s[i][i] for i in range(min(n, m))]
        nonzero = [d for d in diag if d]
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(4)

    def cofactor_det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        return sum(
            (-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1 :] for row in m[1:]])
            for j in range(n)
        )

    for _ in range(40):
        n = rng.randint(1, 4)
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert determinant(mat) == cofactor_det(mat)


def test_bowen_franks_spec_examples():
    group, unit = bowen_franks(FULL2)
    assert group.is_trivial and unit.is_zero()
    group, unit = bowen_franks(full_shift(3))
    assert group.torsion == (2,) and group.free_rank == 0
    assert unit.order() == 2
    group, unit = bowen_franks(GOLDEN)
    assert group.is_trivial and unit.is_zero()
    assert shift_determinant(GOLDEN) == -1
    assert shift_determinant(FULL2) == -1


def test_bowen_franks_full_shifts_against_enumeration_oracle():
    # independent cross-check: enumerate the cokernel directly
    for n in range(2, 5):
        group, unit = bowen_franks(full_shift(n))
        mat = [[1 - (i == j) for j in range(n)] for i in range(n)]
        order, orders, unit_order = cokernel_orders(mat)
        assert group.order() == order
        assert group_element_orders(group.torsion) == orders
        assert (unit.order() or 1) == unit_order


def test_bowen_franks_random_matrices_against_oracle():
    rng = random.Random(9)
    done = 0
    for _ in range(60):
        matrix = random_matrix(rng, rng.choice([2, 3, 4]))
        n = matrix.n
        mat = [
            [matrix.arc(j + 1, i + 1) - (i == j) for j in range(n)] for i in range(n)
        ]
        if determinant(mat) == 0 or abs(determinant(mat)) > 600:
            continue
        group, unit = bowen_franks(matrix)
        order, orders, unit_order = cokernel_orders(mat)
        assert group.order() == order
        assert group_element_orders(group.torsion) == orders
        assert (unit.order() or 1) == unit_order
        done += 1
    assert done >= 15


def test_clopen_class_spec_examples():
    f3 = full_shift(3)
    group, unit = bowen_franks(f3)
    assert clopen_class(full_space(f3), group) == unit
    u1 = clopen_class(cylinder(f3, (1,)), group)
    assert u1.order() == 2
    both = clopen_class(cylinder(f3, (1,)).union(cylinder(f3, (2,))), group)
    assert both.is_zero()
    assert clopen_class(empty_set(f3), group).is_zero()


def test_clopen_class_well_defined_under_refinement():
    rng = random.Random(15)
    for _ in range(50):
        matrix = rng.choice(POOL)
        group, _ = bowen_franks(matrix)
        c = random_clopen(rng, matrix)
        deeper = c.refine(c.depth + rng.randint(1, 2))
        from fullshift.sft import ClopenSet

        reclass = clopen_class(ClopenSet(matrix, c.depth + 0, c.words), group)
        refined = clopen_class(ClopenSet(matrix, len(next(iter(deeper))), frozenset(deeper)), group)
        assert reclass == refined


def test_clopen_class_additive_and_invariant():
    rng = random.Random(25)
    from helpers import random_table

    for _ in range(40):
        matrix = rng.choice(POOL)
        group, _ = bowen_franks(matrix)
        c = random_clopen(rng, matrix)
        table = random_table(rng, matrix)
        assert clopen_class(table.image_clopen(c), group) == clopen_class(c, group)


def test_pointed_iso_decide_spec_examples():
    trivial = BFGroup(1, (1,), ((1,),))
    assert pointed_iso_decide(trivial, trivial.zero(), trivial, trivial.zero()).verdict == "isomorphic"
    z2 = BFGroup(1, (2,), ((1,),))
    z3 = BFGroup(1, (3,), ((1,),))
    assert pointed_iso_decide(z2, z2.element([1]), z3, z3.element([1])).verdict == "not_isomorphic"
    z4 = BFGroup(1, (4,), ((1,),))
    assert pointed_iso_decide(z4, z4.element([2]), z4, z4.element([1])).verdict == "not_isomorphic"
    assert pointed_iso_decide(z4, z4.element([1]), z4, z4.element([3])).verdict == "isomorphic"


def test_pointed_iso_decide_against_hom_matrix_oracle():
    # every invariant-factor list with group order <= 200; pairs whose
    # row-constrained matrix space exceeds the leaf cap are exercised on
    # the oracle's fast paths only (identity pairs and the zero dichotomy)
    rng = random.Random(33)
    checked = 0
    capped = 0
    for factors in invariant_factor_lists(200):
        if not factors:
            continue
        n = len(factors)
        group = BFGroup(n, tuple(factors), tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
        elems = [tuple(rng.randrange(d) for d in factors) for _ in range(4)]
        elems.append(tuple(0 for _ in factors))
        elems.append(tuple(1 % d for d in factors))
        for u in elems:
            for v in elems:
                want = pointed_match_oracle(factors, u, v, leaf_cap=300_000)
                if want is None:
                    capped += 1
                    continue
                got = pointed_iso_decide(group, group.element(list(u)), group, group.element(list(v)))
                assert got.verdict == ("isomorphic" if want else "not_isomorphic"), (
                    factors,
                    u,
                    v,
                    got,
                )
                checked += 1
    assert checked >= 2000
    # the capped pairs sit in a handful of large 2-group shapes
    assert capped < checked // 10


def test_pointed_iso_free_rank_paths():
    # rank one: only sign flips are available on the free side
    z = BFGroup(1, (0,), ((1,),))
    assert pointed_iso_decide(z, z.element([2]), z, z.element([-2])).verdict == "isomorphic"
    assert pointed_iso_decide(z, z.element([2]), z, z.element([3])).verdict == "not_isomorphic"
    assert pointed_iso_decide(z, z.element([0]), z, z.element([2])).verdict == "not_isomorphic"
    # rank two: any two vectors of equal content match
    z2 = BFGroup(2, (0, 0), ((1, 0), (0, 1)))
    assert pointed_iso_decide(z2, z2.element([2, 4]), z2, z2.element([0, 2])).verdict == "isomorphic"
    assert pointed_iso_decide(z2, z2.element([2, 4]), z2, z2.element([1, 1])).verdict == "not_isomorphic"
    # mixed free and torsion with matching data stays decided or undecided,
    # never wrongly negative
    mixed = BFGroup(2, (2, 0), ((1, 0), (0, 1)))
    res = pointed_iso_decide(mixed, mixed.element([1, 1]), mixed, mixed.element([0, 1]))
    assert res.verdict in ("isomorphic", "undecided")


def test_full_group_iso_decide_spec_examples():
    assert full_group_iso_decide(FULL2, GOLDEN).verdict == "ISOMORPHIC"
    assert full_group_iso_decide(full_shift(3), full_shift(4)).verdict == "NOT_ISOMORPHIC"
    assert full_group_iso_decide(full_shift(5), full_shift(5)).verdict == "ISOMORPHIC"


def test_gamma_equivalent_spec_examples():
    f3 = FULL3
    u1, u11 = cylinder(f3, (1,)), cylinder(f3, (1, 1))
    result = gamma_equivalent(u1, u11, depth_bound=2, image_bound=3)
    assert result.status == "equivalent"
    assert result.witness.image_clopen(u1) == u11

    both = cylinder(f3, (1,)).union(cylinder(f3, (2,)))
    result = gamma_equivalent(u1, both)
    assert result.status == "not_equivalent"

    result = gamma_equivalent(u1, u1)
    assert result.status == "equivalent" and result.witness.is_identity

    assert gamma_equivalent(empty_set(f3), empty_set(f3)).status == "equivalent"
    assert gamma_equivalent(empty_set(f3), u1).status == "not_equivalent"


def test_gamma_equivalent_negative_backed_by_search():
    # when the class certificate refutes equivalence, the raw bounded search
    # at the same bounds indeed finds nothing
    from fullshift.constructions import witness_search

    f3 = FULL3
    u1 = cylinder(f3, (1,))
    both = cylinder(f3, (1,)).union(cylinder(f3, (2,)))
    result = gamma_equivalent(u1, both, depth_bound=1, image_bound=2)
    assert result.status == "not_equivalent"
    found = witness_search(f3, lambda t: t.image_clopen(u1) == both, 1, 2)
    assert found is None


def test_gamma_equivalent_witnesses_verify():
    rng = random.Random(77)
    for _ in range(12):
        matrix = rng.choice([FULL2, GOLDEN])
        u = random_clopen(rng, matrix)
        v = random_clopen(rng, matrix)
        result = gamma_equivalent(u, v, depth_bound=2, image_bound=3)
        if result.status == "equivalent":
            assert result.witness.image_clopen(u) == v


def test_gamma_equivalent_witness_matches_search_oracle():
    # the first table of the documented order that carries u onto v, among
    # those the maps-onto filter admits; a class certificate means there is none
    rng = random.Random(91)
    seen = set()
    for _ in range(40):
        # FULL3 has a nontrivial cokernel, so some of its pairs are refuted
        matrix, depth, image = rng.choice(
            [(FULL2, 2, 3), (GOLDEN, 2, 3), (DENSE3, 2, 3), (FULL3, 1, 2)]
        )
        u = random_clopen(rng, matrix)
        v = random_clopen(rng, matrix)
        if u == v:
            continue
        result = gamma_equivalent(u, v, depth_bound=depth, image_bound=image)
        seen.add(result.status)
        oracle = search_order_oracle(matrix, depth, image, maps_onto_candidates(u, v, image))
        want = next((t for t in oracle if t.image_clopen(u) == v), None)
        if result.status == "equivalent":
            assert want is not None and result.witness.code == want.code
        else:
            assert want is None
    assert seen == {"equivalent", "not_equivalent", "undecided"}


def test_basis_class_equals_row_class():
    # the class of a unit vector equals the class of its matrix row: the
    # relation defining the cokernel, checked directly per symbol
    rng = random.Random(55)
    for _ in range(30):
        matrix = random_matrix(rng, rng.choice([2, 3, 4]))
        group, _ = bowen_franks(matrix)
        n = matrix.n
        for i in range(1, n + 1):
            unit_vec = [int(j + 1 == i) for j in range(n)]
            row_vec = [matrix.arc(i, j + 1) for j in range(n)]
            assert group.element(unit_vec) == group.element(row_vec)
