"""Witness constructions: every output is checked against the displayed
conditions of the statement it realizes."""

import random
import time
import tracemalloc
from collections import Counter
from math import inf

import pytest

from fullshift import (
    BadInput,
    EPPoint,
    InadmissibleWord,
    NotDisjoint,
    PreconditionFailed,
    TableMap,
    canonicalize_clopen,
    cylinder,
    empty_set,
    full_space,
    validate_matrix,
)
from fullshift.constructions import (
    MASK_BIT_LIMIT,
    _candidate_images,
    _disjoint_corners,
    _disjoint_moved_cylinder,
    _landing_word,
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
    cylinder_permutation,
    cylinder_swap,
    free_pair,
    involution_into,
    localize_conjugate,
    matched_partition,
    minimality_source,
    minimality_witness,
    paired_transport,
    search_tables,
    swap_involution,
    witness_search,
)
from fullshift.invariants import maps_onto_candidates
from fullshift.sft import TransitionMatrix, first_return, format_word, least_gap
from fullshift.tables import format_table_text, validate_images, validate_table

from helpers import (
    DENSE3,
    DENSE4,
    FULL2,
    FULL3,
    GOLDEN,
    GOLDEN_REV,
    POOL,
    RING3,
    SMALL_POOL,
    assert_sorted_form,
    code_of,
    enumerate_points,
    ep_apply_oracle,
    landing_word_oracle,
    localize_conjugate_oracle,
    long_cycle,
    matched_partition_oracle,
    minimality_source_oracle,
    moved_cylinder_oracle,
    product_fold_oracle,
    proper_subcylinder_oracle,
    random_clopen,
    random_cycles,
    random_general_table,
    random_matrix,
    random_table,
    search_order_oracle,
    swap_inside,
    table_from,
    uniform_compose_oracle,
    uniform_inverse_oracle,
    uniform_view_oracle,
    words_oracle,
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


def _inside_cylinder(target, nu) -> bool:
    """Whether the target lies in the cylinder of nu: every extension of
    its code words to length len(nu) and beyond starts with nu."""
    matrix = target.matrix
    return all(
        w[: len(nu)] == nu
        for c in target.code
        for w in words_oracle(matrix, c, max(len(c), len(nu)))
    )


def test_involution_into_is_the_cylinder_involution_at_a_prefix_of_x():
    rng = random.Random(21)
    deeper = 0
    for _ in range(240):
        matrix = rng.choice(POOL + [FULL3])
        source = random_clopen(rng, matrix, max_depth=3)
        target = random_clopen(rng, matrix, max_depth=3)
        word = rng.choice(source.code)
        for _ in range(rng.randint(1, 4)):
            word += (rng.choice(matrix.successors(word[-1] if word else 0)),)
        x = EPPoint.make(word, first_return(matrix, word[-1]))
        start = max(source.depth, 2)
        m = start
        while _inside_cylinder(target, x.prefix(m)):
            m += 1
        assert m <= max(start, target.depth + matrix.n), (source, target, x)
        deeper += m > start
        nu = x.prefix(m)
        hood, alpha = involution_into(source, target, x)
        assert hood == cylinder(matrix, nu)
        assert alpha == cylinder_involution(matrix, nu, target)
        assert_all(check_involution_into(source, target, x, hood, alpha))
    assert deeper > 0


def test_involution_into_past_forced_symbols():
    # in GOLDEN 2 is always followed by 1, so cyl(1,2) = cyl(1,2,1) and
    # the prefixes of (12)^inf hold the target up to length 3
    target = cylinder(GOLDEN, (1, 2))
    x = EPPoint.make((), (1, 2))
    hood, alpha = involution_into(full_space(GOLDEN), target, x)
    nu = (1, 2, 1, 2)
    assert len(nu) == target.depth + GOLDEN.n
    assert hood == cylinder(GOLDEN, nu)
    assert alpha == cylinder_involution(GOLDEN, nu, target)
    assert_all(check_involution_into(full_space(GOLDEN), target, x, hood, alpha))


def test_swap_involution_examples():
    u1, u2 = cylinder(FULL2, (1,)), cylinder(FULL2, (2,))
    swap = validate_table(FULL2, {(1,): (2,), (2,): (1,)})
    alpha = swap_involution(u1, u2, swap)
    assert alpha == swap
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


def test_landing_word_matches_the_former_walk():
    # the cut along nu finds the partner the former walk over every target
    # word of each depth found
    rng = random.Random(16)
    seen = 0
    for matrix in POOL + [FULL3]:
        words = [w for k in (2, 3) for w in matrix.words(k)]
        for _ in range(40):
            nu = rng.choice(words)
            target = random_clopen(rng, matrix, max_depth=rng.choice([1, 2, 4]))
            if target.is_subset_of(cylinder(matrix, nu)):
                continue
            want = landing_word_oracle(matrix, nu, target)
            assert _landing_word(matrix, nu, target) == want, (matrix, nu, target)
            seen += 1
    assert seen > 200


def test_cylinder_involution_lands_without_walking_the_target(monkeypatch):
    # the target misses only [2^40]; listing its words of depth 40 to find
    # one that misses nu = 1,1 would pass the 2^38 words under nu first
    extensions = TransitionMatrix.extensions
    yielded = 0

    def bounded(self, word, target_len):
        nonlocal yielded
        for w in extensions(self, word, target_len):
            yielded += 1
            if yielded > 10_000:
                raise AssertionError("more than 10,000 words enumerated")
            yield w

    monkeypatch.setattr(TransitionMatrix, "extensions", bounded)
    target = cylinder(FULL2, (2,) * 40).complement()
    alpha = cylinder_involution(FULL2, (1, 1), target)
    assert alpha.word_image((1, 1)) == (1, 2) + (1,) * 39
    monkeypatch.undo()
    assert_all(check_cylinder_involution(FULL2, (1, 1), target, alpha))


def test_cylinder_permutation_examples_and_diagnoses():
    swap = validate_table(FULL2, {(1,): (2,), (2,): (1,)})
    assert cylinder_permutation(FULL2, [((1,), (2,))]) == swap
    # two cycles whose rows differ from each other, each row-equal inside
    cycles = [((1, 1, 1), (2, 1, 1)), ((1, 2), (2, 1, 2))]
    table = cylinder_permutation(GOLDEN, cycles)
    assert_sorted_form(table)
    validate_table(GOLDEN, table.entries)
    swaps = [cylinder_swap(GOLDEN, a, b) for a, b in cycles]
    assert (table.depth, uniform_view_oracle(table)) == product_fold_oracle(GOLDEN, swaps)
    three = cylinder_permutation(FULL2, [((1, 1), (1, 2), (2,))])
    assert three.order(4) == 3

    def raised(cycles, matrix=FULL2):
        with pytest.raises(Exception) as info:
            cylinder_permutation(matrix, cycles)
        return info.type, str(info.value)

    assert raised([((1, 1),)])[0] is BadInput
    assert raised([])[0] is BadInput
    # 1 ends in the row (1, 1) of GOLDEN, 2 in the row (1, 0)
    assert raised([((1,), (2,))], GOLDEN)[0] is BadInput
    # nested words in two different cycles, named in sorted order
    assert raised([((1,), (2, 1)), ((2, 2), (1, 2))]) == (
        NotDisjoint, "cylinders 1 and 1,2 intersect"
    )
    assert raised([((2, 2), (1, 2))], GOLDEN)[0] is InadmissibleWord


def test_cylinder_permutation_rejects_out_of_range_symbols():
    # the row check used to index an out-of-range symbol before anything
    # checked admissibility: n + 1 raised IndexError, 0 read the last row
    for matrix in (FULL2, FULL3):
        for base in (((1, 1), (2, 2)), ((1, 1), (1, 2), (2, 1))):
            for bad in (0, matrix.n + 1, -1):
                for i, word in enumerate(base):
                    for j in range(len(word)):
                        wrong = word[:j] + (bad,) + word[j + 1 :]
                        cycle = base[:i] + (wrong,) + base[i + 1 :]
                        with pytest.raises(InadmissibleWord) as info:
                            cylinder_permutation(matrix, [cycle])
                        assert str(info.value) == f"image {format_word(wrong)} is not admissible"


def test_cylinder_permutation_runs_no_cover_check(monkeypatch):
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return least_gap(*args)

    monkeypatch.setattr("fullshift.tables.least_gap", counting)
    cylinder_permutation(FULL2, [((1, 1), (1, 2), (2,))])
    cylinder_permutation(GOLDEN, [((1, 1, 1), (2, 1, 1)), ((1, 2), (2, 1, 2))])
    cylinder_swap(DENSE3, (1,), (3, 1))
    assert calls == 0
    # the counter sees the check where it still runs
    validate_table(FULL2, {(1,): (2,), (2,): (1,)})
    assert calls > 0


def test_cylinder_permutation_is_a_valid_product_of_swaps():
    # the image check is gone from the construction; the images still pass
    # it, and the table is the product of the swaps along each cycle
    rng = random.Random(1717)
    built = 0
    for matrix in POOL:
        for _ in range(30):
            cycles = random_cycles(rng, matrix)
            if cycles is None:
                continue
            table = cylinder_permutation(matrix, cycles)
            validate_images(matrix, table.domain, table.images)
            assert_sorted_form(table)
            assert table.depth == max(len(w) for cycle in cycles for w in cycle)
            # w0 -> w1 -> ... -> w0 is swap(w0, w1) after swap(w1, w2) after ...
            swaps = [cylinder_swap(matrix, a, b) for c in cycles for a, b in zip(c, c[1:])]
            reduced = table.reduce()
            got = (reduced.depth, uniform_view_oracle(reduced))
            assert got == product_fold_oracle(matrix, swaps), (matrix, cycles)
            built += 1
    assert built >= 100


def test_one_table_products_match_the_compose_fold():
    # swap_involution, clopen_transport and minimality_witness build their
    # product of disjoint swaps as one table; folding the swaps one compose
    # at a time gives the same reduced code
    rng = random.Random(16)

    def matches(table, factors):
        got = (table.depth, uniform_view_oracle(table))
        return got == product_fold_oracle(table.matrix, factors)

    def transport_swaps(source, target):
        # the source's code words, each shorter than 2 replaced by its children
        matrix = source.matrix
        words = [v for w in source.code for v in (matrix.extensions(w, 2) if len(w) < 2 else [w])]
        corners = _disjoint_corners(target, len(words))
        return [cylinder_involution(matrix, w, c) for w, c in zip(words, corners)]

    # 40 sources of depth up to 3 per matrix, code words of mixed lengths
    # among them, each carried into its complement
    for matrix in (POOL + [FULL3]) * 40:
        u = random_clopen(rng, matrix, 3, proper=True)
        w = u.complement()
        alpha = clopen_transport(u, w)
        assert_all(check_clopen_transport(u, w, alpha))
        assert matches(alpha, transport_swaps(u, w)), (matrix, u)

        gamma = random_table(rng, matrix)
        if not gamma.image_clopen(u).intersection(u).is_empty:
            gamma = alpha
        v = gamma.image_clopen(u)
        swaps = [cylinder_swap(matrix, nu, rho) for nu, rho in matched_partition(gamma, u)]
        assert matches(swap_involution(u, v, gamma), swaps), (matrix, u, gamma)

        x = random_clopen(rng, matrix)
        source = minimality_source(u, x)
        swaps = [] if u.is_subset_of(x) else transport_swaps(source, x)
        assert matches(minimality_witness(u, x), swaps), (matrix, u, x)


def test_clopen_transport_of_many_pieces_composes_nothing(monkeypatch):
    # [1] - [1^12] has 2,047 cylinders at depth 12; folding their swaps one
    # compose at a time grew faster than quadratically in the pieces
    compose = TableMap.compose
    calls = 0

    def counting(self, inner):
        nonlocal calls
        calls += 1
        return compose(self, inner)

    monkeypatch.setattr(TableMap, "compose", counting)
    u = cylinder(FULL2, (1,)).difference(cylinder(FULL2, (1,) * 12))
    w = cylinder(FULL2, (2,))
    alpha = clopen_transport(u, w)
    assert calls == 0
    monkeypatch.undo()
    assert len(list(u.view(12))) == 2047
    assert_all(check_clopen_transport(u, w, alpha))


def test_clopen_transport_cuts_the_code_not_the_view(monkeypatch):
    # [1] - [1^16] is 15 code words but 32,767 cylinders at depth 16; the
    # transport swaps one cylinder per code word into its own corner
    corners = _disjoint_corners
    counts = []

    def recording(target, count):
        counts.append(count)
        return corners(target, count)

    monkeypatch.setattr("fullshift.constructions._disjoint_corners", recording)
    u = cylinder(FULL2, (1,)).difference(cylinder(FULL2, (1,) * 16))
    w = cylinder(FULL2, (2,))
    alpha = clopen_transport(u, w)
    assert counts == [len(u.code)] == [15]
    monkeypatch.undo()
    assert_all(check_clopen_transport(u, w, alpha))

    # at k = 200 the view would have 2^199 - 1 cylinders
    u = cylinder(FULL2, (1,)).difference(cylinder(FULL2, (1,) * 200))
    alpha = clopen_transport(u, w)
    assert len(alpha.domain) <= 4 * 200
    assert_all(check_clopen_transport(u, w, alpha))


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
    assert reversed_product == alpha


def test_first_branching_cylinder_matches_oracle():
    rng = random.Random(43)
    matrices = POOL + [FULL3] + [random_matrix(rng, rng.randint(2, 6)) for _ in range(20)]
    for matrix in matrices:
        sets = [full_space(matrix)]
        sets += [cylinder(matrix, w) for k in (1, 2, 3) for w in matrix.words(k)]
        sets += [random_clopen(rng, matrix, max_depth=3) for _ in range(10)]
        for x in sets:
            assert _disjoint_corners(x, 2)[0] == proper_subcylinder_oracle(x)


def test_disjoint_corners_branch_far_below_the_target():
    matrix = long_cycle(80)
    corners = _disjoint_corners(cylinder(matrix, (3,)), 2)
    track = tuple(range(3, 81)) + (1,)
    assert [c.sorted_words() for c in corners] == [[track + (1,)], [track + (2,)]]
    assert corners[0] == proper_subcylinder_oracle(cylinder(matrix, (3,)))


def test_disjoint_corners_of_a_deep_target_count_only_what_they_need(monkeypatch):
    # the corners ask only whether a depth has `count` cylinders: an exact
    # count works with 20,000-bit integers and, traced, takes longer than
    # the budget, and a per-length count table took 56 MB; every count
    # they ask for must carry a finite limit, whatever the clock says
    matrix = validate_matrix([[1, 1], [1, 1]])
    deep = cylinder(matrix, (1, 1)).union(cylinder(matrix, (2,) * 20_000))
    limits = []
    count_within = TransitionMatrix.count_within

    def recording(self, words, k, limit):
        limits.append(limit)
        return count_within(self, words, k, limit)

    monkeypatch.setattr(TransitionMatrix, "count_within", recording)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        corners = _disjoint_corners(deep, 3)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 2**23, peak
    assert limits and all(limit < inf for limit in limits), limits
    ones = (1,) * 19_998
    assert [c.code for c in corners] == [
        (ones + (1, 1),), (ones + (1, 2),), (ones + (2, 1),)
    ]


def test_moved_cylinder_matches_oracle():
    rng = random.Random(47)
    tables = [t for m in (FULL2, GOLDEN, GOLDEN_REV) for t in search_tables(m, 2, 3)]
    tables += [t.inverse() for t in tables]
    for _ in range(20):
        matrix = random_matrix(rng, rng.randint(2, 5))
        tables += list(search_tables(matrix, 1, 2))
    for t in tables:
        if not t.reduce().is_identity:
            assert _disjoint_moved_cylinder(t) == moved_cylinder_oracle(t)


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


def test_paired_transport_swaps_are_the_cylinder_involutions_into_the_corners():
    # each alpha_i and beta_i is built as a swap, without the input checks
    # of cylinder_involution; it is that involution of the piece into its
    # corner, the corners of _disjoint_corners taken in order
    rng = random.Random(44)
    checked = several = 0
    while checked < 120:
        matrix = rng.choice(POOL + [FULL3])
        region = random_clopen(rng, matrix, 2, proper=True)
        complement = region.complement()
        u = random_clopen(rng, matrix, 2).intersection(region)
        if u.is_empty or u == region:
            continue
        w = random_clopen(rng, matrix, 2).intersection(region).difference(u)
        w = w if not w.is_empty else region.difference(u)
        gamma = clopen_transport(u, complement)
        v = gamma.image_clopen(u)
        w2 = complement.difference(v)
        if w2.is_empty:
            continue
        us, vs, alphas, betas = paired_transport(region, u, v, w, w2, gamma)
        pairs = matched_partition(gamma, u)
        corners, corners2 = (_disjoint_corners(t, len(pairs)) for t in (w, w2))
        expected = [cylinder_involution(matrix, a, c) for (a, _), c in zip(pairs, corners)]
        assert alphas == expected, (matrix, region, u, w)
        expected = [cylinder_involution(matrix, b, c) for (_, b), c in zip(pairs, corners2)]
        assert betas == expected, (matrix, region, u, w2)
        assert_all(check_paired_transport(region, u, v, w, w2, gamma, us, vs, alphas, betas))
        checked += 1
        several += len(pairs) > 1
    assert several > 40


def test_minimality_witness_examples():
    u, v = cylinder(FULL2, (1, 1)), cylinder(FULL2, (2, 2))
    gamma = minimality_witness(u, v)
    assert_all(check_minimality_witness(u, v, gamma))
    assert minimality_witness(full_space(FULL2), full_space(FULL2)).is_identity
    u, v = cylinder(GOLDEN, (2,)), cylinder(GOLDEN, (1, 1))
    gamma = minimality_witness(u, v)
    assert_all(check_minimality_witness(u, v, gamma))


def test_minimality_source_matches_the_relation_oracle():
    rng = random.Random(41)
    seen = set()
    for _ in range(400):
        matrix = rng.choice(POOL)
        u, v = random_clopen(rng, matrix), random_clopen(rng, matrix)
        seen.add(u.compare(v))
        assert minimality_source(u, v) == minimality_source_oracle(u, v), (u, v)
        assert minimality_witness(u, v).is_identity == u.is_subset_of(v)
    assert seen == {"equal", "subset", "superset", "disjoint", "overlapping"}


def test_minimality_witness_overlapping():
    u = full_space(FULL2)
    v = cylinder(FULL2, (1, 1))
    gamma = minimality_witness(u, v)
    assert_all(check_minimality_witness(u, v, gamma))


def test_free_pair_examples():
    for region in [full_space(FULL2), cylinder(FULL2, (1,)), cylinder(GOLDEN, (2,))]:
        psi, phi, base = free_pair(region)
        assert_all(check_free_pair(region, psi, phi, base))


def test_moved_cylinder_and_its_image_stay_in_an_invariant_support():
    # localize_conjugate moves U's pieces straight into Y and eta(Y): U
    # misses the support S, Y lies inside S, and eta(S) = S, since a point
    # is moved exactly when its image is
    rng = random.Random(17)
    checked = 0
    for _ in range(60):
        matrix = rng.choice(POOL)
        region = random_clopen(rng, matrix, max_depth=2)
        first, second = swap_inside(rng, region), swap_inside(rng, region)
        if first is None or second is None:
            continue
        for eta in (first, first.compose(second)):
            if eta.reduce().is_identity:
                continue
            support = eta.support()
            y = _disjoint_moved_cylinder(eta)
            assert y.is_subset_of(support), (eta, y)
            assert eta.image_clopen(support) == support, eta
            assert eta.image_clopen(y).intersection(y).is_empty, (eta, y)
            for x in enumerate_points(matrix, 3, 2):
                image = ep_apply_oracle(eta, x)
                assert support.contains_point(image) == support.contains_point(x)
                if not support.contains_point(x):
                    assert image == x
            checked += 1
    assert checked > 40


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


def _localize_cases(rng, count, miss_support=True):
    """Seeded 3.11 inputs (eta, U, O) over POOL and FULL3: eta a swap inside
    O or a product of two, U a random set inside O, drawn outside the
    support of eta when miss_support is set, so that a conjugator is built."""
    cases = []
    while len(cases) < count:
        matrix = rng.choice(POOL + [FULL3])
        region = random_clopen(rng, matrix, max_depth=2)
        first, second = swap_inside(rng, region), swap_inside(rng, region)
        if first is None:
            continue
        eta = first if second is None or rng.random() < 0.5 else first.compose(second)
        if eta.is_identity:
            continue
        u = random_clopen(rng, matrix, max_depth=3).intersection(region)
        if miss_support:
            u = u.difference(eta.support())
        if not u.is_empty:
            cases.append((eta, u, region))
    return cases


def test_localize_conjugate_is_the_former_compose_of_two_involutions():
    # the conjugator is one table permuting four disjoint cylinders; the
    # former recipe composed two involution_into results, and gives the
    # same element with the same reduced code, so the same text
    for eta, u, region in _localize_cases(random.Random(311), 160):
        gamma = localize_conjugate(eta, u, region)
        expected = localize_conjugate_oracle(eta, u)
        assert not gamma.is_identity
        assert gamma == expected, (eta, u)
        assert format_table_text(gamma) == format_table_text(expected), (eta, u)
        assert_all(check_localize_conjugate(eta, u, region, gamma))


def test_localize_check_answers_what_the_built_conjugate_does():
    # "conjugate moves points of U" asks whether gamma(U) meets a moved
    # code word of eta; the oracle builds gamma^-1 eta gamma from uniform
    # views and intersects its support with U
    rng = random.Random(3110)
    seen = Counter()
    cases = _localize_cases(rng, 60) + _localize_cases(rng, 60, miss_support=False)
    for eta, u, region in cases:
        matrix = eta.matrix
        gammas = [random_table(rng, matrix), random_general_table(rng, matrix)]
        gammas.append(localize_conjugate(eta, u, region))
        for gamma in gammas:
            inverse = table_from(matrix, *uniform_inverse_oracle(gamma))
            after = table_from(matrix, *uniform_compose_oracle(eta, gamma))
            conj = code_of(table_from(matrix, *uniform_compose_oracle(inverse, after)))
            support = canonicalize_clopen(matrix, [w for w, r in conj.items() if r != w])
            got = dict(check_localize_conjugate(eta, u, region, gamma))
            assert got["conjugate moves points of U"] == (not support.intersection(u).is_empty)
            seen[got["conjugate moves points of U"]] += 1
    assert seen[True] > 50 and seen[False] > 50, seen


def test_localize_conjugate_and_its_check_compose_nothing(monkeypatch):
    cases = _localize_cases(random.Random(12), 40)
    calls = Counter()
    for name in ("compose", "inverse"):
        def counting(self, *args, _name=name, _method=getattr(TableMap, name)):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(TableMap, name, counting)
    for eta, u, region in cases:
        gamma = localize_conjugate(eta, u, region)
        assert not gamma.is_identity
        assert_all(check_localize_conjugate(eta, u, region, gamma))
    assert calls == Counter()


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
    tables = list(search_tables(GOLDEN, 2, 3))
    assert len(tables) > 1
    for t in tables:
        assert_sorted_form(t)
        validate_table(t.matrix, t.entries)
    # deterministic order
    again = list(search_tables(GOLDEN, 2, 3))
    assert tables == again


def test_search_tables_order_matches_oracle():
    # the pruned generator visits exactly the tables of plain backtracking,
    # in the same order; DENSE3 is a 3-state matrix that is not full
    cases = [
        (FULL2, 2, 3), (FULL2, 2, 5), (FULL2, 3, 3), (GOLDEN, 3, 4),
        (GOLDEN_REV, 3, 4), (FULL3, 1, 3), (DENSE3, 2, 4), (RING3, 4, 5),
        (DENSE4, 2, 4),
    ]
    counts = {}
    for matrix, depth, image in cases:
        got = [(t.depth, t.domain, t.images) for t in search_tables(matrix, depth, image)]
        want = [(t.depth, t.domain, t.images) for t in search_order_oracle(matrix, depth, image)]
        assert got == want, (matrix, depth, image)
        counts[matrix, depth, image] = len(got)
    assert counts[FULL2, 3, 3] == 40443
    assert counts[DENSE3, 2, 4] == 58
    # with the candidate filter of a maps-onto search, which may leave the
    # second-to-last domain word of a depth no candidate at all
    rng = random.Random(7)
    emptied = False
    for matrix, depth, image in [(FULL2, 3, 3), (GOLDEN, 3, 4)]:
        for _ in range(3):
            u = random_clopen(rng, matrix, proper=True)
            v = random_clopen(rng, matrix, proper=True)
            narrow = maps_onto_candidates(u, v)
            got = [(t.depth, t.domain, t.images)
                   for t in search_tables(matrix, depth, image, narrow)]
            want = [(t.depth, t.domain, t.images)
                    for t in search_order_oracle(matrix, depth, image, narrow)]
            assert got == want, (matrix, u, v)
            penults = [matrix.words(d)[-2] for d in range(1, depth + 1)]
            emptied |= any(
                not narrow(nu, _candidate_images(matrix, nu[-1], image)) for nu in penults
            )
    assert emptied


def test_search_keeps_the_identity_exactly_when_it_carries_u_onto_v():
    # the identity is the depth-0 table and passes through the filter like
    # any other; the maps-onto filter keeps it exactly when u == v
    rng = random.Random(29)
    kept = 0
    for _ in range(300):
        matrix = rng.choice(POOL)
        sets = [empty_set(matrix), full_space(matrix)] + [
            random_clopen(rng, matrix, max_depth=rng.choice([1, 2, 3])) for _ in range(4)
        ]
        u = rng.choice(sets)
        v = u if rng.random() < 0.25 else rng.choice(sets)
        first = next(search_tables(matrix, 1, 1, maps_onto_candidates(u, v)), None)
        carries = TableMap.identity(matrix).image_clopen(u) == v
        assert (first is not None and first.depth == 0) == carries, (matrix, u, v)
        kept += carries
    assert 50 < kept < 250
    assert next(search_tables(FULL2, 1, 1)).depth == 0


def test_search_stops_at_the_first_depth_with_more_words_than_leaves():
    # no table has more domain words than the image bound has leaves, so a
    # depth bound of 40 with image bound 2 searches depths 1 and 2 only; the
    # plain search doubled its cost with each depth on FULL2
    for matrix in (FULL2, GOLDEN):
        assert len(matrix.words(3)) > len(matrix.words(2))
        start = time.perf_counter()
        deep = [(t.depth, t.domain, t.images) for t in search_tables(matrix, 40, 2)]
        assert witness_search(matrix, lambda t: False, 40, 2) is None
        assert time.perf_counter() - start < 1.0
        assert deep == [(t.depth, t.domain, t.images) for t in search_tables(matrix, 2, 2)]


def test_search_mask_bound_admits_image_bound_15_on_full2():
    # a filter that keeps nothing builds no mask, so this checks the bound
    # alone: 2^16 - 2 words of length 1..15 x 2^15 leaves / 2 bits fit, and
    # twice as many words over twice as many leaves do not
    assert list(search_tables(FULL2, 1, 15, lambda nu, cands: [])) == []
    with pytest.raises(BadInput, match=f"more than {MASK_BIT_LIMIT}; search bookkeeping"):
        list(search_tables(FULL2, 1, 16, lambda nu, cands: []))


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


def test_matched_partition_matches_walk_oracle():
    # the pairs fix the swap-involution and paired-transport witnesses; the
    # cut along gamma's domain gives the pairs the former root walk found
    rng = random.Random(12)
    for _ in range(300):
        matrix = rng.choice(POOL)
        u = random_clopen(rng, matrix, max_depth=rng.choice([1, 2, 4]))
        gamma = random_table(rng, matrix)
        assert matched_partition(gamma, u) == matched_partition_oracle(gamma, u), (matrix, u, gamma)
    full = full_space(FULL2)
    identity = TableMap.identity(FULL2)
    assert matched_partition(identity, full) == matched_partition_oracle(identity, full)
