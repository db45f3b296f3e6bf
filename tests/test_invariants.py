"""Cokernel invariants: Smith form, pointed groups, equivalence decisions."""

import os
import random
import subprocess
import sys
import time
from itertools import product
from math import gcd, prod
from pathlib import Path

import pytest

from fullshift import (
    TableMap,
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
from fullshift.sft import format_matrix_text
from fullshift.cli import run
from fullshift.constructions import _candidate_images
from fullshift.invariants import (
    BFGroup,
    _check_cokernel,
    _check_snf,
    _smith_normal_form,
    _torsion_match,
    determinant,
    maps_onto_candidates,
)

from helpers import (
    FULL2,
    DENSE3,
    FULL3,
    GOLDEN,
    POOL,
    block_presentation,
    code_of,
    cokernel_orders,
    group_element_orders,
    invariant_factor_lists,
    maps_onto_filter_oracle,
    out_split,
    pointed_match_oracle,
    primary_orbit_oracle,
    random_clopen,
    random_matrix,
    random_table,
    search_order_oracle,
    shift_determinant_oracle,
    smith_normal_form_oracle,
    torsion_match_oracle,
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


def test_smith_normal_form_matches_oracle_on_random_matrices():
    # the transforms, not only S, must be the oracle's: printed
    # coordinates are read through P
    rng = random.Random(31)
    for _ in range(300):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        mat = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        if rng.random() < 0.25:
            mat[rng.randrange(n)] = [0] * m
        if rng.random() < 0.25:
            j = rng.randrange(m)
            for row in mat:
                row[j] = 0
        assert smith_normal_form(mat) == smith_normal_form_oracle(mat), mat


def test_smith_normal_form_matches_oracle_on_shift_matrices():
    rng = random.Random(32)
    for n in range(2, 17):
        for _ in range(10):
            entries = random_matrix(rng, n).entries
            mat = [[entries[j][i] - (i == j) for j in range(n)] for i in range(n)]
            assert smith_normal_form(mat) == smith_normal_form_oracle(mat), entries


def test_check_snf_catches_transforms_that_are_not_unimodular():
    # doubling the last row of P and of S keeps P * M * Q = S, the
    # diagonal and its chain, but makes det P = +-2
    # a nonsingular input takes the one-determinant path, a singular one
    # computes det P and det Q
    regular = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    singular = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert determinant(regular) != 0 and determinant(singular) == 0
    for mat in (regular, singular):
        s, p, q = smith_normal_form(mat)
        _check_snf(mat, s, p, q)
        s[-1] = [2 * a for a in s[-1]]
        p[-1] = [2 * a for a in p[-1]]
        with pytest.raises(AssertionError, match="not unimodular"):
            _check_snf(mat, s, p, q)


def _shift_matrix(matrix):
    """A^t - I, the matrix whose cokernel ``bowen_franks`` presents."""
    n = matrix.n
    return [[matrix.arc(j + 1, i + 1) - (i == j) for j in range(n)] for i in range(n)]


def _modular_corpus():
    rng = random.Random(28)
    yield from POOL + [FULL3]
    for n in [*range(2, 17), 24, 32, 48, 64]:
        for _ in range(6 if n <= 16 else 2):
            yield random_matrix(rng, n)
    for _ in range(40):
        a = random_matrix(rng, rng.randint(2, 5))
        yield a
        yield block_presentation(a, rng.choice([2, 3]))
        state = rng.choice([s for s in a.symbols() if len(a.successors(s)) >= 2])
        followers = a.successors(state)
        yield out_split(a, state, set(rng.sample(followers, rng.randint(1, len(followers) - 1))))


def test_modular_path_agrees_with_the_exact_path():
    # the pivot rule reads only S, so reducing P modulo |det| changes
    # neither S nor any live row of P modulo its diagonal entry
    oracle_checked = trivial = 0
    for matrix in _modular_corpus():
        m = _shift_matrix(matrix)
        det = determinant(m)
        if not det:
            continue
        s, p, inverse_columns = _smith_normal_form(m, abs(det))
        _check_cokernel(m, s, p, inverse_columns, abs(det))
        exact_s, exact_p, exact_q = _smith_normal_form(m)
        _check_snf(m, exact_s, exact_p, exact_q)
        if matrix.n <= 12:
            assert (exact_s, exact_p, exact_q) == smith_normal_form_oracle(m)
            oracle_checked += 1
        assert s == exact_s, matrix.entries
        diag = [s[i][i] for i in range(matrix.n)]
        for row, exact_row, d in zip(p, exact_p, diag):
            assert all(0 <= a < abs(det) for a in row)
            if d >= 2:
                assert [a % d for a in row] == [a % d for a in exact_row], matrix.entries
        exact_group = BFGroup(matrix.n, tuple(diag), tuple(map(tuple, exact_p)), det)
        group, unit = bowen_franks(matrix)
        assert group.diag == exact_group.diag and group.det == det
        assert unit.coords == exact_group.element([1] * matrix.n).coords
        for i in range(matrix.n):
            basis = [int(i == j) for j in range(matrix.n)]
            assert group.element(basis).coords == exact_group.element(basis).coords
        trivial += abs(det) == 1
    assert oracle_checked > 100 and trivial


def _live_case():
    """A^t - I of a seeded matrix whose cokernel has a trivial and a live
    coordinate, with its modular Smith form."""
    rng = random.Random(5)
    while True:
        m = _shift_matrix(random_matrix(rng, 6))
        det = abs(determinant(m))
        if det >= 6:
            s, p, inverse_columns = _smith_normal_form(m, det)
            _check_cokernel(m, s, p, inverse_columns, det)
            return m, s, p, inverse_columns, det


def test_check_cokernel_rejects_mutants():
    m, s, p, inverse_columns, det = _live_case()
    n = len(m)
    diag = [s[i][i] for i in range(n)]
    live = [i for i, d in enumerate(diag) if d >= 2]
    i = live[-1]

    def rejects(s=s, p=p, inverse_columns=inverse_columns, modulus=det, match=""):
        with pytest.raises(AssertionError, match=match):
            _check_cokernel(m, s, p, inverse_columns, modulus)

    # a trivial row of P is a row of a unimodular matrix times P M, whose
    # entries have gcd 1: added once to a live row, it survives mod d_i
    bad = [list(r) for r in p]
    bad[i] = [(a + b) % det for a, b in zip(p[i], p[0])]
    rejects(p=bad, match="does not vanish")
    # a live column of P^-1 moved off its basis vector
    c = next(c for c, a in enumerate(p[i]) if a % diag[i])
    bad = [list(r) for r in inverse_columns]
    bad[i][c] += 1
    rejects(inverse_columns=bad, match="not onto")
    # a zeroed live row vanishes on the image but hits nothing
    bad = [list(r) for r in p]
    bad[i] = [0] * n
    rejects(p=bad, match="not onto")
    # a diagonal whose product is not |det M|, chain kept
    bad = [list(r) for r in s]
    bad[i][i] *= 2
    rejects(s=bad, match="multiply")
    rejects(modulus=2 * det, match="multiply")
    # a broken divisibility chain, product kept
    bad = [list(r) for r in s]
    bad[i - 1][i - 1], bad[i][i] = bad[i][i], bad[i - 1][i - 1]
    assert bad[i][i] == 1
    rejects(s=bad, match="divisibility")


def test_bowen_franks_checks_a_finite_cokernel_without_q(monkeypatch):
    # a finite cokernel runs the modular path and its certificate, with no
    # exact product P M Q; a singular one keeps the exact check
    import fullshift.invariants as inv

    checks = []
    monkeypatch.setattr(inv, "_check_snf", lambda *args: checks.append("snf"))
    monkeypatch.setattr(
        inv, "_check_cokernel", lambda *args: checks.append(("cokernel", args[-1]))
    )
    bowen_franks(FULL3)
    assert checks == [("cokernel", 2)]
    singular = next(
        m for m in (random_matrix(random.Random(seed), 5) for seed in range(200))
        if shift_determinant_oracle(m) == 0
    )
    checks.clear()
    group, _ = bowen_franks(singular)
    assert checks == ["snf"] and group.free_rank


def test_bf_on_112_states_within_budget(tmp_path, capsys):
    # the exact transforms took about 19 s here, their entries thousands of
    # digits long; modulo |det| they stay below it
    matrix = random_matrix(random.Random(4), 112)
    path = tmp_path / "a.mat"
    path.write_text(format_matrix_text(matrix))
    start = time.perf_counter()
    assert run(["bf", str(path)]) == 0
    assert time.perf_counter() - start < 10.0
    out = capsys.readouterr().out
    assert f"DET: {shift_determinant_oracle(matrix)}\n" in out


def test_decide_iso_with_a_large_prime_in_the_torsion_within_budget(tmp_path):
    # the torsion of this 64-state draw has a prime factor above 10^18, so
    # factoring it by trial division would not finish; a subprocess with a
    # timeout turns such a hang into a failure
    matrix = random_matrix(random.Random(1), 64)
    group, _ = bowen_franks(matrix)
    rough = group.torsion[-1]
    for p in range(2, 10**4):
        while rough % p == 0:
            rough //= p
    assert rough > 10**18 and pow(2, rough - 1, rough) == 1
    perm = list(range(matrix.n))
    random.Random(2).shuffle(perm)
    conjugate = validate_matrix(
        [[matrix.entries[perm[i]][perm[j]] for j in range(matrix.n)] for i in range(matrix.n)]
    )
    paths = []
    for name, m in (("a.mat", matrix), ("b.mat", conjugate)):
        paths.append(tmp_path / name)
        paths[-1].write_text(format_matrix_text(m))
    src = str(Path(bowen_franks.__code__.co_filename).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "fullshift", "decide-iso", *map(str, paths)],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert "VERDICT: ISOMORPHIC\n" in proc.stdout


def test_torsion_match_against_trial_division_oracle():
    # chains over small primes and a few larger ones, elements drawn freely
    # or as unit multiples, moduli from 0, divisors of the factors and
    # free draws: the coprime base must decide as the primes do
    rng = random.Random(81)
    primes = [2, 3, 5, 7, 101, 9973]
    seen = set()
    for _ in range(6000):
        chain, d = [], 1
        for _ in range(rng.randint(1, 3)):
            d *= prod(rng.choice(primes) for _ in range(rng.randint(1, 3)))
            chain.append(d)
        torsion = tuple(chain)
        a = tuple(rng.randrange(d) * rng.choice([1, 1, 2, 3, 4, 9]) for d in torsion)
        if rng.random() < 0.5:
            b = tuple(rng.randrange(d) for d in torsion)
        else:
            unit = next(u for u in iter(lambda: rng.randrange(1, 10**6), 0) if gcd(u, torsion[-1]) == 1)
            b = tuple(c * unit for c in a)
        modulus = rng.choice([0, 0, torsion[0], rng.randrange(1, 50), rng.choice(primes) ** 2])
        want = torsion_match_oracle(torsion, a, b, modulus)
        assert _torsion_match(torsion, a, b, modulus=modulus) == want, (torsion, a, b, modulus)
        seen.add(want)
    assert seen == {True, False}


def test_torsion_match_without_factoring():
    # cyclic groups whose factors trial division would not reach: of order
    # 3 * 4967 * 4516963039493, and a product of two primes near 10^18
    start = time.perf_counter()
    d = 3 * 4967 * 4516963039493
    assert _torsion_match((d,), (1,), (d - 1,), modulus=0)
    assert not _torsion_match((d,), (1,), (3,), modulus=0)
    # modulo 3T only the 3-part is left, where 3 is 0 and 1 is not;
    # modulo (d/3) T the 3-part drops and 3 is a unit elsewhere
    assert not _torsion_match((d,), (1,), (3,), modulus=3)
    assert _torsion_match((d,), (1,), (3,), modulus=d // 3)
    p, q = 10**18 + 9, 10**18 + 3
    d = p * q
    assert _torsion_match((d,), (1,), (3,), modulus=0)
    assert _torsion_match((d,), (p,), (5 * p,), modulus=0)
    # p and q are each 0 in one primary part and a unit in the other
    assert not _torsion_match((d,), (p,), (q,), modulus=0)
    assert not _torsion_match((d,), (p,), (q,), modulus=p)
    assert _torsion_match((d,), (p,), (q,), modulus=1)
    # both of order q in the q-part Z/q + Z/q, and 0 in the p-part
    assert _torsion_match((q, d), (0, p), (p, 0), modulus=0)
    assert time.perf_counter() - start < 0.5


def test_smith_normal_form_matches_sympy():
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import Matrix

    def sympy_diag(mat):
        s = normalforms.smith_normal_form(Matrix(mat))
        return [abs(int(s[i, i])) for i in range(min(s.shape))]

    rng = random.Random(12)
    mats = []
    for _ in range(60):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        mats.append([[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)])
    for _ in range(40):
        matrix = random_matrix(rng, rng.randint(2, 8))
        n = matrix.n
        mats.append([[matrix.arc(j + 1, i + 1) - (i == j) for j in range(n)] for i in range(n)])
    for mat in mats:
        s, _, _ = smith_normal_form(mat)
        assert [s[i][i] for i in range(min(len(s), len(s[0])))] == sympy_diag(mat), mat


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
    assert shift_determinant_oracle(GOLDEN) == -1
    assert shift_determinant_oracle(FULL2) == -1
    assert shift_determinant_oracle(full_shift(3)) == -2  # det(I - A), not det(A - I)


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
    # the class read off the reduced code equals the class summed over the
    # words of a deeper uniform view
    rng = random.Random(15)
    for _ in range(50):
        matrix = rng.choice(POOL)
        group, _ = bowen_franks(matrix)
        c = random_clopen(rng, matrix)
        vec = [0] * matrix.n
        for w in c.refine(c.depth + rng.randint(1, 2)):
            vec[w[-1] - 1] += 1
        assert clopen_class(c, group) == group.element(vec)


def test_clopen_class_additive_and_invariant():
    rng = random.Random(25)
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
    # mixed free and torsion: the torsion parts match modulo the free content
    mixed = BFGroup(2, (2, 0), ((1, 0), (0, 1)))
    res = pointed_iso_decide(mixed, mixed.element([1, 1]), mixed, mixed.element([0, 1]))
    assert res.verdict == "isomorphic"
    z4z = BFGroup(2, (4, 0), ((1, 0), (0, 1)))
    res = pointed_iso_decide(z4z, z4z.element([1, 2]), z4z, z4z.element([2, 2]))
    assert res.verdict == "not_isomorphic"


def _partitions(k, largest):
    if k == 0:
        yield ()
    for first in range(min(k, largest), 0, -1):
        for rest in _partitions(k - first, first):
            yield rest + (first,)


def test_torsion_match_against_orbit_oracle():
    # every p-primary group of order <= 2^7, 3^4, 5^2, every element, every
    # modulus p^v (v = 0..max e) and no modulus: b matches a exactly when b
    # lies in Aut(T).a + p^v T, the oracle's orbit reduced modulo p^v
    for p, top in ((2, 7), (3, 4), (5, 2)):
        for k in range(1, top + 1):
            for exps in _partitions(k, k):
                torsion = tuple(p**e for e in exps)
                elems = list(product(*map(range, torsion)))
                orbit_of = {}
                for x in elems:
                    if x not in orbit_of:
                        orbit = frozenset(primary_orbit_oracle(p, exps, x))
                        orbit_of.update(dict.fromkeys(orbit, orbit))
                for v in [*range(max(exps) + 1), None]:
                    def reduce(x):
                        if v is None:
                            return x
                        return tuple(c % p ** min(v, e) for c, e in zip(x, exps))

                    modulus = 0 if v is None else p**v
                    rep_of = {}
                    for x in elems:
                        cls = frozenset(map(reduce, orbit_of[x]))
                        rep = rep_of.setdefault(cls, x)
                        assert _torsion_match(torsion, x, rep, modulus=modulus)
                    for cls, rep in rep_of.items():
                        for b in elems:
                            want = reduce(b) in cls
                            got = _torsion_match(torsion, rep, b, modulus=modulus)
                            assert got == want, (torsion, rep, b, modulus)


def test_two_block_presentations_are_isomorphic():
    # conjugate one-sided shifts whose matrix sizes differ in parity
    two_block = block_presentation(GOLDEN, 2)
    assert two_block.entries == ((1, 1, 0), (0, 0, 1), (1, 1, 0))
    assert full_group_iso_decide(GOLDEN, two_block).verdict == "ISOMORPHIC"
    assert block_presentation(GOLDEN, 3).n == 5
    rng = random.Random(7)
    for _ in range(300):
        a = random_matrix(rng, rng.randint(2, 5))
        for k in (2, 3):
            b = block_presentation(a, k)
            assert shift_determinant_oracle(a) == shift_determinant_oracle(b)
            assert full_group_iso_decide(a, b).verdict == "ISOMORPHIC", (k, a.entries)


def test_out_splittings_are_isomorphic():
    # an out-splitting is one symbol larger, so det(I - A) must survive a
    # flip of size parity
    rng = random.Random(41)
    nonzero = 0
    for _ in range(300):
        a = random_matrix(rng, rng.randint(2, 6))
        state = rng.choice([s for s in a.symbols() if len(a.successors(s)) >= 2])
        followers = a.successors(state)
        part = set(rng.sample(followers, rng.randint(1, len(followers) - 1)))
        b = out_split(a, state, part)  # validate_matrix accepts it
        assert b.n == a.n + 1
        result = full_group_iso_decide(a, b)
        assert result.verdict == "ISOMORPHIC", (a.entries, state, part)
        assert result.det_a == result.det_b
        nonzero += result.det_a != 0
    assert nonzero > 200


def test_group_determinant_matches_shift_determinant():
    # the Smith form's check hands on det(A^t - I); shift_determinant_oracle
    # is the independent Bareiss of I - A
    rng = random.Random(62)
    singular = 0
    for matrix in POOL + [random_matrix(rng, rng.randint(2, 8)) for _ in range(200)]:
        group, _ = bowen_franks(matrix)
        assert group.shift_determinant == shift_determinant_oracle(matrix), matrix.entries
        singular += group.det == 0
    assert singular


def test_decide_iso_runs_one_determinant_per_matrix(monkeypatch):
    import fullshift.invariants as inv

    calls = []

    def counting(mat):
        calls.append(mat)
        return determinant(mat)

    monkeypatch.setattr(inv, "determinant", counting)
    a, b = full_shift(3), DENSE3
    result = full_group_iso_decide(a, b)
    assert result.det_a and result.det_b  # both nonsingular
    assert len(calls) == 2
    assert result.det_a == shift_determinant_oracle(a)
    assert result.det_b == shift_determinant_oracle(b)


def test_full_group_iso_decide_spec_examples():
    assert full_group_iso_decide(FULL2, GOLDEN).verdict == "ISOMORPHIC"
    assert full_group_iso_decide(full_shift(3), full_shift(4)).verdict == "NOT_ISOMORPHIC"
    assert full_group_iso_decide(full_shift(5), full_shift(5)).verdict == "ISOMORPHIC"
    # the full 2-shift class against Cuntz's 2- class: both groups are
    # trivial, and only det(I - A) = -1 against det(I - B) = +1 tells them apart
    a = validate_matrix([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    b = validate_matrix([[0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1]])
    result = full_group_iso_decide(a, b)
    assert (result.det_a, result.det_b) == (-1, 1)
    assert result.pointed.verdict == "isomorphic"
    assert result.verdict == "NOT_ISOMORPHIC"
    assert "det(I-A) != det(I-B)" in result.reason


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


def test_gamma_equivalent_whole_space_only_to_itself(monkeypatch):
    # a group element maps the space onto itself, so the whole space
    # against a proper set is refuted before any class or search
    monkeypatch.setattr(
        "fullshift.invariants.witness_search",
        lambda *args: pytest.fail("the whole space needs no search"),
    )
    rng = random.Random(24)
    for matrix in (FULL2, GOLDEN, DENSE3, FULL3):
        whole = full_space(matrix)
        for proper in (cylinder(matrix, (1,)), random_clopen(rng, matrix, 3, proper=True)):
            for u, v in ((whole, proper), (proper, whole)):
                result = gamma_equivalent(u, v)
                assert result.status == "not_equivalent" and result.witness is None
                assert result.reason == "only the whole space is equivalent to the whole space"
        assert gamma_equivalent(whole, whole).status == "equivalent"
        for _ in range(10):
            assert random_table(rng, matrix).image_clopen(whole) == whole


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


def test_gamma_equivalent_trusts_its_filter(monkeypatch):
    # the filter admits only tables carrying u onto v, so no image is taken
    image_clopen = TableMap.image_clopen
    calls = 0

    def counting(self, clopen):
        nonlocal calls
        calls += 1
        return image_clopen(self, clopen)

    monkeypatch.setattr(TableMap, "image_clopen", counting)
    u, v = cylinder(FULL2, (1,)), cylinder(FULL2, (2,))
    result = gamma_equivalent(u, v)
    assert calls == 0
    assert result.status == "equivalent"
    assert image_clopen(result.witness, u) == v


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
        oracle = search_order_oracle(matrix, depth, image, maps_onto_candidates(u, v))
        want = next((t for t in oracle if t.image_clopen(u) == v), None)
        if result.status == "equivalent":
            assert want is not None and code_of(result.witness) == code_of(want)
        else:
            assert want is None
    assert seen == {"equivalent", "not_equivalent", "undecided"}


def test_maps_onto_filter_matches_padded_oracle():
    # each piece of the domain cylinder, cut along u's code, is tested once;
    # the former filter tested every extension at u's depth
    rng = random.Random(23)
    straddled = 0
    for _ in range(150):
        matrix = rng.choice(POOL)
        u = random_clopen(rng, matrix, max_depth=rng.choice([1, 3, 5]))
        v = random_clopen(rng, matrix, max_depth=rng.choice([1, 3, 5]))
        image = rng.choice([2, 3])
        got = maps_onto_candidates(u, v)
        want = maps_onto_filter_oracle(u, v, image)
        for depth in (1, 2, 3):
            for nu in matrix.words(depth):
                cands = _candidate_images(matrix, nu[-1], image)
                assert got(nu, cands) == want(nu), (matrix, u, v, nu)
                straddled += u.meets_word(nu) and not u.contains_word(nu)
    assert straddled > 100


def test_gamma_equivalent_deep_cylinders_within_budget():
    # the swap of [1] and [2] carries [1^24] onto [2 1^23]; the filter cuts
    # the depth-1 domain cylinders into 24 pieces, where padding to u's
    # depth listed 2^23 extensions of each
    k = 24
    u = cylinder(FULL2, (1,) * k)
    v = cylinder(FULL2, (2,) + (1,) * (k - 1))
    start = time.perf_counter()
    result = gamma_equivalent(u, v)
    assert time.perf_counter() - start < 2.0
    assert result.status == "equivalent"
    assert result.witness.image_clopen(u) == v


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
