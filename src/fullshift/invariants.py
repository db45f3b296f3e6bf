"""The pointed cokernel invariant and the decisions built on it.

For an ambient matrix A of size N the group is the cokernel of A^t - I_N
acting on integer vectors, computed exactly through a Smith normal form
P (A^t - I_N) Q = S: P is kept, to read coordinates; Q is checked, and the
check's determinant gives det(I - A).  The class of the all-ones vector is
distinguished: full groups of two shifts are isomorphic exactly when the
pointed groups match and det(I - A) = det(I - B).  The source paper shows
that the full groups are isomorphic exactly when the one-sided shifts are
continuously orbit equivalent, and Matsumoto-Matui (Kyoto J. Math. 54,
2014) classify that by these two invariants.

Classes of clopen sets live in the same cokernel (the class of a cylinder
is the basis class of its final symbol), giving the cheap negative
certificate for equivalence of clopen sets under the group action.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, inf, lcm, prod
from operator import mul
from typing import Callable

from .constructions import _run_search
from .errors import BadInput, MatrixMismatch
from .sft import ClopenSet, TransitionMatrix, Word, cut
from .tables import TableMap


# ---------------------------------------------------------------------------
# exact integer linear algebra


def smith_normal_form(
    mat: list[list[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Diagonalize an integer matrix by unimodular row and column moves.

    Returns (S, P, Q) with P * mat * Q = S, S diagonal with each entry
    dividing the next, zeros last, and P and Q of determinant +-1.  Exact
    arithmetic throughout.

    The elimination is part of the contract, because the coordinates that
    :meth:`BFGroup.element` prints are read through P.  Step t pivots on
    the first entry of least absolute value in row-major order among rows
    and columns >= t, clears column t by ``row_i -= k row_t`` and row t by
    ``col_j -= k col_t`` with k the floor quotient by the pivot, and while
    some entry below and right of the pivot is not divisible by it, adds
    the first such row to row t and starts the step again.  A negative
    diagonal entry has its row negated.  Any other order of the same moves
    can give another valid (P, Q) and other printed coordinates.

    Every call re-checks the result exactly, see :func:`_check_snf`.
    """
    s, p, q, _ = _smith_normal_form(mat)
    return s, p, q


def _smith_normal_form(mat: list[list[int]]):
    """:func:`smith_normal_form` and det(mat), which its check computes
    (None for a non-square input)."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    s = [list(r) for r in mat]
    p = [[int(i == j) for j in range(rows)] for i in range(rows)]
    q = [[int(i == j) for j in range(cols)] for i in range(cols)]
    for t in range(min(rows, cols)):
        while True:
            # first entry of least absolute value; nothing is less than 1
            pivot = None
            for i in range(t, rows):
                row = s[i]
                for j in range(t, cols):
                    if row[j] and (pivot is None or abs(row[j]) < least):
                        pivot, least = (i, j), abs(row[j])
                        if least == 1:
                            break
                else:
                    continue
                break
            if pivot is None:
                break
            i, j = pivot
            if i != t:
                s[t], s[i] = s[i], s[t]
                p[t], p[i] = p[i], p[t]
            if j != t:
                for r in s:
                    r[t], r[j] = r[j], r[t]
                for r in q:
                    r[t], r[j] = r[j], r[t]
            st, pt = s[t], p[t]
            d = st[t]
            dirty = False
            for i in range(t + 1, rows):
                k = s[i][t] // d
                if k:
                    s[i] = [a - k * b for a, b in zip(s[i], st)]
                    p[i] = [a - k * b for a, b in zip(p[i], pt)]
                if s[i][t]:
                    dirty = True
            # column t stays as it is while the columns right of it are
            # reduced, so every multiple can be read before any move
            moves = [(j, k) for j in range(t + 1, cols) if (k := st[j] // d)]
            if moves:
                for r in s + q:
                    c = r[t]
                    if c:
                        for j, k in moves:
                            r[j] -= k * c
            if dirty or any(st[t + 1 :]):
                continue
            if d in (1, -1):  # a unit divides every entry
                break
            offender = next(
                (i for i in range(t + 1, rows) if any(a % d for a in s[i][t + 1 :])), None
            )
            if offender is None:
                break
            so, po = s[offender], p[offender]
            s[t] = [a + b for a, b in zip(st, so)]
            p[t] = [a + b for a, b in zip(pt, po)]
        if s[t][t] < 0:
            s[t] = [-a for a in s[t]]
            p[t] = [-a for a in p[t]]
    return s, p, q, _check_snf(mat, s, p, q)


def _check_snf(mat, s, p, q):
    """Raise AssertionError unless P * mat * Q = S, S is diagonal with a
    divisibility chain and its zeros last, and P and Q are unimodular;
    return det(mat) for a square input, else None.

    P * mat * Q = S gives det P * det mat * det Q = d_1 ... d_r for a
    square input.  So when that product is nonzero, |d_1 ... d_r| =
    |det mat| forces |det P| = |det Q| = 1, and one determinant of the
    input certifies both transforms.  Singular and non-square inputs have
    det P and det Q computed; a square one then has det mat = 0, because
    S has a zero on its diagonal and P and Q are invertible."""
    rows, cols = len(mat), len(mat[0]) if mat else 0
    if _mat_mul(_mat_mul(p, mat), q) != s:
        raise AssertionError("smith normal form transform identity failed")
    if any(v for i, r in enumerate(s) for j, v in enumerate(r) if i != j):
        raise AssertionError("smith normal form is not diagonal")
    diag = [s[i][i] for i in range(min(rows, cols))]
    for a, b in zip(diag, diag[1:]):
        if a and b % a:
            raise AssertionError("smith normal form divisibility chain failed")
        if a == 0 and b != 0:
            raise AssertionError("smith normal form zero ordering failed")
    product = prod(diag)
    if rows == cols and product:
        det = determinant(mat)
        unimodular = abs(product) == abs(det)
    else:
        det = 0 if rows == cols else None
        unimodular = abs(determinant(p)) == 1 and abs(determinant(q)) == 1
    if not unimodular:
        raise AssertionError("smith normal form transforms are not unimodular")
    return det


def _mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def determinant(mat: list[list[int]]) -> int:
    """Exact integer determinant, by fraction-free elimination."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(r) for r in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot, tail = a[k][k], a[k][k + 1 :]
        for i in range(k + 1, n):
            row = a[i]
            c = row[k]
            row[k + 1 :] = [(x * pivot - c * y) // prev for x, y in zip(row[k + 1 :], tail)]
        prev = pivot
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# the pointed group


@dataclass(frozen=True)
class BFGroup:
    """Cokernel of A^t - I_N in Smith normal form.

    `diag` is the full diagonal; entries equal to 1 are trivial, entries
    >= 2 are the invariant factors, zeros contribute free rank.  `p_rows`
    is the row transform P of the Smith form P (A^t - I) Q; it carries an
    integer vector to its coordinates in the new basis.
    `det` is det(A^t - I), read off the Smith form's check, so
    det(I - A) = (-1)^n det; None for a group not built from a matrix.
    """

    n: int
    diag: tuple[int, ...]
    p_rows: tuple[tuple[int, ...], ...]
    det: int | None = None

    @property
    def shift_determinant(self) -> int:
        """det(I - A) of the matrix the group was built from."""
        return -self.det if self.n % 2 else self.det

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.diag if d >= 2)

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.diag if d == 0)

    @property
    def is_trivial(self) -> bool:
        return not self.torsion and self.free_rank == 0

    def order(self) -> int | None:
        """Group order; None when infinite."""
        return None if self.free_rank else prod(self.torsion)

    def element(self, vector: list[int] | tuple[int, ...]) -> "GroupElement":
        if len(vector) != self.n:
            raise BadInput(f"vector length {len(vector)} != {self.n}")
        coords = []
        for row, d in zip(self.p_rows, self.diag):
            c = sum(r * v for r, v in zip(row, vector))
            if d == 1:
                c = 0
            elif d > 1:
                c %= d
            coords.append(c)
        return GroupElement(self, tuple(coords))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.n)

    def describe(self) -> str:
        parts = [f"Z/{d}" for d in self.torsion] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class GroupElement:
    """An element of a BFGroup in diagonal coordinates: torsion coordinates
    reduced into [0, d), free coordinates exact integers."""

    group: BFGroup
    coords: tuple[int, ...]

    def torsion_part(self) -> tuple[int, ...]:
        return tuple(c for c, d in zip(self.coords, self.group.diag) if d >= 2)

    def free_part(self) -> tuple[int, ...]:
        return tuple(c for c, d in zip(self.coords, self.group.diag) if d == 0)

    def order(self) -> int | None:
        if any(self.free_part()):
            return None
        return lcm(*(d // gcd(d, c) for c, d in zip(self.coords, self.group.diag) if d >= 2))

    def is_zero(self) -> bool:
        return not any(self.coords)


def bowen_franks(matrix: TransitionMatrix) -> tuple[BFGroup, GroupElement]:
    """The cokernel of A^t - I_N with the class of the all-ones vector."""
    n = matrix.n
    m = [[v - (i == j) for j, v in enumerate(col)] for i, col in enumerate(zip(*matrix.entries))]
    s, p, _, det = _smith_normal_form(m)
    diag = tuple(s[i][i] for i in range(n))
    group = BFGroup(n, diag, tuple(tuple(r) for r in p), det)
    unit = group.element([1] * n)
    return group, unit


def clopen_class(clopen: ClopenSet, group: BFGroup) -> GroupElement:
    """The cokernel class of a clopen set in the group of its matrix: sum
    over its cylinders of the basis class of each cylinder's last symbol;
    the whole space gets the all-ones class.  Additive over disjoint unions
    and invariant under the group action."""
    matrix = clopen.matrix
    if group.n != matrix.n:
        raise MatrixMismatch("group and clopen set have different ambient sizes")
    vec = [0] * matrix.n
    if clopen.is_full:
        vec = [1] * matrix.n
    else:
        for w in clopen.code:
            vec[w[-1] - 1] += 1
    return group.element(vec)


# ---------------------------------------------------------------------------
# pointed isomorphism decisions


@dataclass(frozen=True)
class PointedDecision:
    verdict: str  # isomorphic | not_isomorphic
    reason: str


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _torsion_match(
    torsion: tuple[int, ...],
    a: tuple[int, ...],
    b: tuple[int, ...],
    modulus: int,
) -> bool:
    """Whether some automorphism of the torsion group T carries a to b, up
    to multiples of `modulus` (exactly when `modulus` is 0): b lies in
    Aut(T).a + gT for g = `modulus`.

    Decided prime by prime by a closed-form orbit invariant (Miller 1905;
    Dutta-Prasad, J. Group Theory 14 (2011)).  In the p-primary part
    T_p = sum of Z/p^e_i a component x_i != 0 has the pair
    (w_i, e_i) = (v_p(x_i), e_i); a homomorphism Z/p^e -> Z/p^e' can carry
    p^w onto p^w' exactly when (w, e) dominates (w', e'), that is
    w <= w' and e - w >= e' - w'.  The Aut(T_p)-orbit of x is therefore
    determined by the pairs of its components that no other pair
    dominates.  Modulo gT, with v = v_p(g) (infinite when g = 0), the
    components with w_i >= v lie in p^v T_p and drop out; every pair they
    dominate also has w >= v, so the undominated pairs with w_i < v decide
    the orbit of x + p^v T_p.
    """
    for p in {p for d in torsion for p in _prime_factors(d)}:
        v = _vp(modulus, p) if modulus else inf
        if _primary_type(torsion, a, p, v) != _primary_type(torsion, b, p, v):
            return False
    return True


def _primary_type(torsion: tuple[int, ...], x: tuple[int, ...], p: int, v: float) -> set:
    """The undominated pairs (v_p(x_i), e_i), e_i = v_p(torsion[i]), of the nonzero
    p-primary components x_i = x mod p^e_i of x with v_p(x_i) < v."""
    kept = set()
    for d, c in zip(torsion, x):
        e = _vp(d, p)
        c %= p**e  # 0 when p does not divide d
        if c and (w := _vp(c, p)) < v:
            kept.add((w, e))
    return {
        (w, e)
        for w, e in kept
        if not any((w2, e2) != (w, e) and w2 <= w and e2 - w2 >= e - w for w2, e2 in kept)
    }


def pointed_iso_decide(
    group_a: BFGroup,
    unit_a: GroupElement,
    group_b: BFGroup,
    unit_b: GroupElement,
) -> PointedDecision:
    """Decide whether an isomorphism of the groups can match the two
    distinguished elements; the decision is exact.

    Write each group as T + Z^r with the element (t, f).  Since
    Hom(T, Z) = 0 every automorphism is block triangular,
    (t, f) -> (alpha t + beta f, gamma f) with alpha in Aut(T), beta in
    Hom(Z^r, T) and gamma in GL_r(Z).  gamma f runs over the vectors of the
    same content g = gcd(f), and beta f over gT.  So the orbit of (t, f) is
    (Aut(T).t + gT, content g): the free ranks, invariant factors and
    contents must agree, and the torsion parts must match modulo g (g = 0
    without free rank or with zero free image), see :func:`_torsion_match`.
    """
    if group_a.free_rank != group_b.free_rank:
        return PointedDecision("not_isomorphic", "free ranks differ")
    if group_a.torsion != group_b.torsion:
        return PointedDecision(
            "not_isomorphic",
            f"invariant factors differ: {group_a.torsion} vs {group_b.torsion}",
        )
    ga, gb = gcd(*unit_a.free_part()), gcd(*unit_b.free_part())
    if (ga == 0) != (gb == 0):
        return PointedDecision("not_isomorphic", "free images differ (zero vs nonzero)")
    if ga != gb:
        return PointedDecision("not_isomorphic", f"free image contents differ: {ga} vs {gb}")
    if not group_a.free_rank:
        reasons = (
            "distinguished elements lie in one orbit",
            "no automorphism matches the distinguished elements",
        )
    elif ga == 0:
        reasons = (
            "zero free image, torsion parts in one orbit",
            "zero free image, torsion parts in different orbits",
        )
    else:
        reasons = (
            "free images match and torsion parts agree modulo the free content",
            "free images match but torsion parts differ modulo the free content",
        )
    if _torsion_match(group_a.torsion, unit_a.torsion_part(), unit_b.torsion_part(), modulus=ga):
        return PointedDecision("isomorphic", reasons[0])
    return PointedDecision("not_isomorphic", reasons[1])


@dataclass(frozen=True)
class IsoReport:
    """Verdict of the full-group comparison together with everything the
    verdict was read off from."""

    verdict: str  # ISOMORPHIC | NOT_ISOMORPHIC
    reason: str
    group_a: BFGroup
    unit_a: GroupElement
    group_b: BFGroup
    unit_b: GroupElement
    det_a: int
    det_b: int
    pointed: PointedDecision


def full_group_iso_decide(matrix_a: TransitionMatrix, matrix_b: TransitionMatrix) -> IsoReport:
    """Decide whether the full groups of two shifts are isomorphic; the
    verdict is exact.

    The full groups are isomorphic exactly when the one-sided shifts are
    continuously orbit equivalent (the source paper), and Matsumoto-Matui
    (Kyoto J. Math. 54, 2014) prove that happens exactly when an
    isomorphism coker(I - A^t) -> coker(I - B^t) carries [1_A] to [1_B]
    and det(I - A) = det(I - B).  A pointed mismatch therefore refutes
    isomorphism, and after a pointed match, which already makes the
    absolute values of the determinants agree, their equality decides.
    """
    group_a, unit_a = bowen_franks(matrix_a)
    group_b, unit_b = bowen_franks(matrix_b)
    det_a = group_a.shift_determinant
    det_b = group_b.shift_determinant
    pointed = pointed_iso_decide(group_a, unit_a, group_b, unit_b)
    if pointed.verdict == "not_isomorphic":
        verdict, reason = "NOT_ISOMORPHIC", pointed.reason
    elif det_a == det_b:
        verdict, reason = "ISOMORPHIC", (
            "pointed groups match and det(I-A) = det(I-B) (Matsumoto-Matui 2014)"
        )
    else:
        verdict, reason = "NOT_ISOMORPHIC", (
            "pointed groups match but det(I-A) != det(I-B) (Matsumoto-Matui 2014)"
        )
    return IsoReport(
        verdict, reason, group_a, unit_a, group_b, unit_b, det_a, det_b, pointed
    )


# ---------------------------------------------------------------------------
# equivalence of clopen sets under the group action


@dataclass(frozen=True)
class EquivalenceResult:
    status: str  # equivalent | not_equivalent | undecided
    witness: TableMap | None
    reason: str


def maps_onto_candidates(u: ClopenSet, v: ClopenSet) -> Callable[[Word, list[Word]], list[Word]]:
    """The candidate filter of the search for a table carrying u onto v.

    For a domain word nu it keeps, in search order, the candidate images
    that agree with carrying u onto v.  The cylinder of nu is cut along
    u's code: each piece inside u must be carried into v, and each piece
    outside u must be carried off v.
    """
    matrix = u.matrix

    def filtered(nu: Word, cands: list[Word]) -> list[Word]:
        k = len(nu)
        pieces = [(w[k:], i >= 0) for w, i in cut(matrix, u.code, nu)]
        return [
            w
            for w in cands
            if all(
                v.contains_word(w + s) if inside else not v.meets_word(w + s)
                for s, inside in pieces
            )
        ]

    return filtered


def gamma_equivalent(
    u: ClopenSet, v: ClopenSet, depth_bound: int = 2, image_bound: int = 3
) -> EquivalenceResult:
    """Decide whether some group element carries one clopen set onto the
    other, within search bounds.

    Unequal cokernel classes certify a negative (the class is conserved
    by every table since row-compatible symbols share one class).  Equal
    classes launch a constrained exact-cover search for a witness; its
    success is returned with the witness, exhaustion stays undecided.
    """
    if depth_bound < 1 or image_bound < 1:
        raise BadInput("search bounds must be at least 1")
    if u.matrix != v.matrix:
        raise MatrixMismatch("clopen sets live over different matrices")
    matrix = u.matrix
    if u.is_empty or v.is_empty:
        if u.is_empty and v.is_empty:
            return EquivalenceResult("equivalent", TableMap.identity(matrix), "both empty")
        return EquivalenceResult(
            "not_equivalent", None, "only the empty set is equivalent to the empty set"
        )
    if u == v:
        return EquivalenceResult("equivalent", TableMap.identity(matrix), "equal sets")
    group, _ = bowen_franks(matrix)
    cu = clopen_class(u, group)
    cv = clopen_class(v, group)
    if cu != cv:
        return EquivalenceResult(
            "not_equivalent",
            None,
            f"cokernel classes differ: {cu.coords} vs {cv.coords}",
        )

    # the filter is exact: a table passing it carries u into v and the rest
    # off v, so, a bijection, onto v; only the identity skips it, and u != v
    found = _run_search(
        matrix, depth_bound, image_bound, lambda t: None if t.is_identity else t,
        candidate_filter=maps_onto_candidates(u, v),
    )
    if found is not None:
        return EquivalenceResult("equivalent", found, "witness found by bounded search")
    return EquivalenceResult(
        "undecided", None, "classes agree but no witness within the search bounds"
    )
