"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines stream.
Every tolerance and instance count is fixed here; nothing is calibrated at
run time.  The randomized suites draw from seeded generators over valid
matrices of size at most 4, so every run checks the identical instances.
"""

import random
import time
import zlib

from fullshift import (
    EPPoint,
    bowen_franks,
    cylinder,
    full_group_iso_decide,
    gamma_equivalent,
    validate_matrix,
    validate_table,
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
    free_pair,
    involution_into,
    localize_conjugate,
    minimality_witness,
    paired_transport,
    swap_involution,
)
from fullshift.sft import point_in

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
    cokernel_orders,
    domain_word_at,
    enumerate_points,
    group_element_orders,
    random_clopen,
    random_swap,
    random_table,
    swap_inside,
)


def report(name, failures, elapsed=None, budget=None):
    ok = not failures and (budget is None or elapsed < budget)
    tail = f" ({elapsed:.2f}s / {budget}s)" if budget is not None else ""
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert not failures, f"{name}: {failures[:5]}"
    if budget is not None:
        assert elapsed < budget, f"{name}: took {elapsed:.2f}s, budget {budget}s"


def full_shift(n):
    return validate_matrix([[1] * n for _ in range(n)])


def test_full_shift_classification():
    """Full N-shift vs full M-shift, N, M in 2..8: isomorphic iff N = M."""
    start = time.perf_counter()
    failures = []
    for n in range(2, 9):
        for m in range(2, 9):
            verdict = full_group_iso_decide(full_shift(n), full_shift(m)).verdict
            want = "ISOMORPHIC" if n == m else "NOT_ISOMORPHIC"
            if verdict != want:
                failures.append((n, m, verdict))
    report("full-shift classification (49 cases)", failures, time.perf_counter() - start, 1.0)


def test_pointed_invariant_values():
    """bowen_franks(full N) = (Z/(N-1), generator), enumeration-checked."""
    failures = []
    for n in range(2, 9):
        group, unit = bowen_franks(full_shift(n))
        if group.free_rank != 0:
            failures.append((n, "free rank", group.free_rank))
        want_torsion = (n - 1,) if n >= 3 else ()
        if group.torsion != want_torsion:
            failures.append((n, "torsion", group.torsion))
        if (unit.order() or 1) != max(n - 1, 1):
            failures.append((n, "unit order", unit.order()))
    # independent cross-check by direct cokernel enumeration
    for n in range(2, 5):
        group, unit = bowen_franks(full_shift(n))
        mat = [[1 - (i == j) for j in range(n)] for i in range(n)]
        order, orders, unit_order = cokernel_orders(mat)
        if group.order() != order:
            failures.append((n, "oracle order", order))
        if group_element_orders(group.torsion) != orders:
            failures.append((n, "oracle element orders", orders))
        if (unit.order() or 1) != unit_order:
            failures.append((n, "oracle unit order", unit_order))
    report("pointed invariants of full shifts", failures)


def test_determinant_condition_corollary():
    """Full 2-shift vs golden mean: trivial pointed groups, det product 1."""
    failures = []
    result = full_group_iso_decide(FULL2, GOLDEN)
    if result.verdict != "ISOMORPHIC":
        failures.append(result.verdict)
    if result.det_a * result.det_b < 0:
        failures.append((result.det_a, result.det_b))
    if not result.group_a.is_trivial or not result.group_b.is_trivial:
        failures.append("groups not trivial")
    report("determinant-condition corollary (full2 vs golden)", failures)


def test_group_law_suite():
    """1000 random tables: associativity, inverses, canonical reduction,
    pointwise agreement on all points with preperiod and period <= 5."""
    start = time.perf_counter()
    rng = random.Random(2024)
    failures = []
    count = 0
    while count < 1000:
        matrix = POOL[count % len(POOL)]
        points = enumerate_points(matrix, 5, 5)
        prev = None
        prev2 = None
        batch = min(1000 - count, 8)
        for _ in range(batch):
            t = random_table(rng, matrix)
            count += 1
            r = t.reduce()
            if r.reduce() != r:
                failures.append(("reduce not idempotent", count))
            if r is not t and not all(t.apply(x) == r.apply(x) for x in points):
                failures.append(("reduce changed the map", count))
            if not t.compose(t.inverse()).is_identity:
                failures.append(("right inverse", count))
            if not t.inverse().compose(t).is_identity:
                failures.append(("left inverse", count))
            if prev is not None:
                comp = prev.compose(t)
                if not all(comp.apply(x) == prev.apply(t.apply(x)) for x in points):
                    failures.append(("composition pointwise", count))
                if prev2 is not None:
                    if prev2.compose(prev).compose(t) != prev2.compose(prev.compose(t)):
                        failures.append(("associativity", count))
            prev2 = prev
            prev = t
            if failures:
                break
        if failures:
            break
    report("group laws on 1000 random tables", failures, time.perf_counter() - start, 60.0)


def test_cocycle_equation():
    """500 random (table, point) pairs: shifting the image by k equals
    shifting the point by l, exactly."""
    rng = random.Random(404)
    failures = []
    for i in range(500):
        matrix = POOL[i % len(POOL)]
        t = random_table(rng, matrix)
        points = enumerate_points(matrix, 4, 4)
        x = points[rng.randrange(len(points))]
        k, l = t.cocycles()[domain_word_at(t, x)]
        if t.apply(x).shift(k) != x.shift(l):
            failures.append((i, x))
    report("cocycle equation on 500 pairs", failures)


CONSTRUCTION_POOL = [FULL2, GOLDEN, GOLDEN_REV, FULL3, RING3, DENSE3, RING4, DENSE4]


def _construction_failures(rng, name, runner, instances=200):
    failures = []
    for i in range(instances):
        matrix = CONSTRUCTION_POOL[i % len(CONSTRUCTION_POOL)]
        checks = runner(rng, matrix)
        if checks is None:
            checks = [("instance generation", False)]
        bad = [c for c, ok in checks if not ok]
        if bad:
            failures.append((name, i, bad))
    return failures


def _depth_cap(matrix):
    return 2 if matrix.n <= 3 else 1


def _run_involution_into(rng, matrix):
    source = random_clopen(rng, matrix, max_depth=_depth_cap(matrix))
    target = random_clopen(rng, matrix, max_depth=_depth_cap(matrix))
    x = point_in(source)
    hood, alpha = involution_into(source, target, x)
    return check_involution_into(source, target, x, hood, alpha)


def _run_swap_involution(rng, matrix):
    u = random_clopen(rng, matrix, max_depth=_depth_cap(matrix), proper=True)
    w = u.complement()
    gamma = clopen_transport(u, w)
    v = gamma.image_clopen(u)
    alpha = swap_involution(u, v, gamma)
    return check_swap_involution(u, v, alpha)


def _run_cylinder_involution(rng, matrix):
    depth = rng.randint(2, 3)
    nu = rng.choice(matrix.words(depth))
    for _ in range(50):
        target = random_clopen(rng, matrix, max_depth=_depth_cap(matrix))
        if not target.is_subset_of(cylinder(matrix, nu)):
            break
    else:
        return None
    alpha = cylinder_involution(matrix, nu, target)
    return check_cylinder_involution(matrix, nu, target, alpha)


def _run_clopen_transport(rng, matrix):
    for _ in range(80):
        u = random_clopen(rng, matrix, max_depth=_depth_cap(matrix), proper=True)
        w = random_clopen(rng, matrix, max_depth=_depth_cap(matrix), proper=True)
        if u.intersection(w).is_empty:
            break
    else:
        return None
    alpha = clopen_transport(u, w)
    return check_clopen_transport(u, w, alpha)


def _run_paired_transport(rng, matrix):
    for _ in range(120):
        region = random_clopen(rng, matrix, max_depth=_depth_cap(matrix), proper=True)
        complement = region.complement()
        u = random_clopen(rng, matrix, max_depth=_depth_cap(matrix) + 1)
        u = u.intersection(region)
        if u.is_empty or u == region:
            continue
        w = region.difference(u)
        if w.is_empty:
            continue
        target = random_clopen(rng, matrix, max_depth=_depth_cap(matrix)).intersection(complement)
        if target.is_empty:
            continue
        gamma = clopen_transport(u, target)
        v = gamma.image_clopen(u)
        w2 = complement.difference(v)
        if w2.is_empty:
            continue
        us, vs, alphas, betas = paired_transport(region, u, v, w, w2, gamma)
        return check_paired_transport(region, u, v, w, w2, gamma, us, vs, alphas, betas)
    return None


def _run_split_invariant(rng, matrix):
    for _ in range(60):
        region = random_clopen(rng, matrix, max_depth=_depth_cap(matrix), proper=True)
        inner = swap_inside(rng, region)
        outer = swap_inside(rng, region.complement())
        if inner is None or outer is None:
            continue
        gamma = inner.compose(outer)
        part_in, part_out = gamma.split_invariant(region)
        return check_split_invariant(gamma, region, part_in, part_out)
    return None


def _run_minimality(rng, matrix):
    u = random_clopen(rng, matrix, max_depth=_depth_cap(matrix))
    v = random_clopen(rng, matrix, max_depth=_depth_cap(matrix))
    gamma = minimality_witness(u, v)
    return check_minimality_witness(u, v, gamma)


def _run_localize(rng, matrix):
    for _ in range(60):
        region = random_clopen(rng, matrix, max_depth=_depth_cap(matrix))
        eta = swap_inside(rng, region)
        if eta is None:
            continue
        u = random_clopen(rng, matrix, max_depth=_depth_cap(matrix)).intersection(region)
        if u.is_empty:
            continue
        gamma = localize_conjugate(eta, u, region)
        return check_localize_conjugate(eta, u, region, gamma)
    return None


def test_construction_postcondition_suites():
    """200 randomized instances per witness construction; every output
    passes all of its displayed conditions."""
    start = time.perf_counter()
    failures = []
    runners = [
        ("involution-into", _run_involution_into),
        ("swap-involution", _run_swap_involution),
        ("cylinder-involution", _run_cylinder_involution),
        ("clopen-transport", _run_clopen_transport),
        ("paired-transport", _run_paired_transport),
        ("split-invariant", _run_split_invariant),
        ("minimality-witness", _run_minimality),
        ("localize-conjugate", _run_localize),
    ]
    for name, runner in runners:
        rng = random.Random(zlib.crc32(name.encode()) & 0xFFFF)
        failures.extend(_construction_failures(rng, name, runner))
    report(
        "witness construction suites (8 x 200)", failures, time.perf_counter() - start, 120.0
    )


def test_order_two_three_pair_geometry():
    """50 random regions: psi of order 2, phi of order 3, supports inside,
    and phi(F), phi^2(F) disjoint inside psi(F)."""
    rng = random.Random(24)
    failures = []
    for i in range(50):
        matrix = CONSTRUCTION_POOL[i % len(CONSTRUCTION_POOL)]
        region = random_clopen(rng, matrix)
        psi, phi, base = free_pair(region)
        bad = [c for c, ok in check_free_pair(region, psi, phi, base) if not ok]
        if bad:
            failures.append((i, bad))
    report("order-2/order-3 contracting pairs (50 regions)", failures)


def test_support_and_fixed_sets():
    """The worked example exactly, plus 200 random tables whose structural
    support equals the closure of the sampled moved set."""
    start = time.perf_counter()
    failures = []
    worked = validate_table(
        FULL2, {(1, 1): (1, 1, 1), (1, 2): (1, 1, 2), (2, 1): (1, 2), (2, 2): (2,)}
    )
    support, fixed = worked.support_and_fixed()
    if not support.is_full or not fixed.clopen_part.is_empty:
        failures.append("worked example clopen parts")
    if fixed.isolated != (EPPoint.make((), (1,)), EPPoint.make((), (2,))):
        failures.append("worked example isolated points")

    rng = random.Random(808)
    pool = [FULL2] * 4 + [DENSE3] * 3 + [DENSE4] * 2 + [FULL3]
    for i in range(200):
        matrix = pool[i % len(pool)]
        if matrix is FULL3:
            t = random_swap(rng, matrix)  # depth <= 2 keeps the sample space sane
        else:
            t = random_table(rng, matrix)
        support, fixed = t.support_and_fixed()
        bound = t.depth + 3
        points = enumerate_points(matrix, bound, bound)
        is_fixed = [t.apply(x) == x for x in points]
        moved = [x for x, f in zip(points, is_fixed) if not f]
        isolated = set(fixed.isolated)
        for x, f in zip(points, is_fixed):
            if f:
                if not fixed.clopen_part.contains_point(x) and x not in isolated:
                    failures.append((i, "fixed point unaccounted", x))
                    break
            elif not support.contains_point(x):
                failures.append((i, "moved point outside support", x))
                break
        if support.is_empty:
            if moved:
                failures.append((i, "moved points with empty support"))
        else:
            covered = {x.prefix(support.depth) for x in moved}
            if covered != set(support.words):
                failures.append((i, "support not the closure of the moved set"))
        if failures:
            break
    report("support and fixed sets (worked + 200)", failures, time.perf_counter() - start, 60.0)


def test_gamma_equivalence_soundness():
    """Full 3-shift: U_1 equivalent to U_11 with a verified witness; U_1 not
    equivalent to U_1 + U_2; returned witnesses re-verify."""
    failures = []
    u1, u11 = cylinder(FULL3, (1,)), cylinder(FULL3, (1, 1))
    result = gamma_equivalent(u1, u11, depth_bound=2, image_bound=3)
    if result.status != "equivalent":
        failures.append(("U1 ~ U11", result.status))
    elif result.witness.image_clopen(u1) != u11:
        failures.append("witness fails to verify")
    both = cylinder(FULL3, (1,)).union(cylinder(FULL3, (2,)))
    result = gamma_equivalent(u1, both)
    if result.status != "not_equivalent":
        failures.append(("U1 ~ U1+U2", result.status))
    same = gamma_equivalent(u1, u1)
    if same.status != "equivalent" or same.witness.image_clopen(u1) != u1:
        failures.append("identity witness")
    report("clopen equivalence on the full 3-shift", failures)
