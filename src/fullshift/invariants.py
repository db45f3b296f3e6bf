"""The pointed cokernel invariant and the decisions built on it.

For an ambient matrix A of size N the group is the cokernel of M = A^t - I_N
acting on integer vectors, computed exactly through a Smith normal form
P M Q = S; rows of P are kept, to read coordinates.  The elimination moves
S alone and logs its row moves; the rows of P and columns of P^-1 a caller
needs are read off the log by replaying it backwards.  det M is computed
first, and gives det(I - A).  When it is nonzero, no Q is kept and only
the live rows of P (those with d_i >= 2) and the same columns of P^-1 are
replayed, modulo D = |det M|; a certificate of those coordinates checks
the result (see :func:`_check_cokernel`).  A singular M, whose cokernel
has free rank, takes the exact path, :func:`smith_normal_form` itself:
Q is kept, every row of P is replayed exactly and P M Q = S is checked
over the integers.  The class of the all-ones vector is distinguished:
full groups of two shifts are isomorphic exactly when the
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

from .constructions import witness_search
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
    s, moves, q = _smith_normal_form(mat, with_q=True)
    p, _ = _replay(moves, len(mat), range(len(mat)))
    _check_snf(mat, s, p, q)
    return s, p, q


def _smith_normal_form(mat: list[list[int]], with_q: bool = False):
    """The elimination of :func:`smith_normal_form`, unchecked.

    Returns (S, moves, Q).  The loop moves S alone, and Q beside it when
    `with_q` is set (otherwise Q is empty).  P is not formed: each row
    move is appended to `moves` instead, as ``(a, k, b)`` for
    ``row_a += k row_b``, ``(a, None, b)`` for a swap of rows a and b, and
    ``(a, -1, None)`` for ``row_a = -row_a``.  :func:`_replay` reads the
    rows of P and the columns of P^-1 that a caller needs off that log,
    walking it backwards.  The pivot rule reads only S, so the moves are
    the same whatever P holds, and the log can be replayed modulo
    |det mat| when that is nonzero: the entries then stay below it instead
    of growing with the elimination (Kannan-Bachem, SIAM J. Comput. 8,
    1979; Domich-Kannan-Trotter, Math. Oper. Res. 12, 1987).  A caller that
    reads one row pays for one row, not for all of P after every move.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    s = [list(r) for r in mat]
    q = [[int(i == j) for j in range(cols)] for i in range(cols)] if with_q else []
    moves = []
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
                moves.append((t, None, i))
            if j != t:
                for r in s + q:
                    r[t], r[j] = r[j], r[t]
            st = s[t]
            d = st[t]
            dirty = False
            for i in range(t + 1, rows):
                k = s[i][t] // d
                if k:
                    s[i] = [a - k * b for a, b in zip(s[i], st)]
                    moves.append((i, -k, t))
                if s[i][t]:
                    dirty = True
            # column t stays as it is while the columns right of it are
            # reduced, so every multiple can be read before any move
            col_moves = [(j, k) for j in range(t + 1, cols) if (k := st[j] // d)]
            if col_moves:
                for r in s + q:
                    x = r[t]
                    if x:
                        for j, k in col_moves:
                            r[j] -= k * x
            if dirty or any(st[t + 1 :]):
                continue
            if d in (1, -1):  # a unit divides every entry
                break
            offender = next(
                (i for i in range(t + 1, rows) if any(a % d for a in s[i][t + 1 :])), None
            )
            if offender is None:
                break
            s[t] = [a + b for a, b in zip(st, s[offender])]
            moves.append((t, 1, offender))
        if s[t][t] < 0:
            s[t] = [-a for a in s[t]]
            moves.append((t, -1, None))
    return s, moves, q


def _replay(moves, n: int, wanted, modulus: int = 0):
    """Rows `wanted` of the P of a logged elimination on n rows, with the
    same columns of P^-1, reduced into [0, `modulus`) unless it is 0.

    Returns two lists of n rows: row i of P, and column i of P^-1 written
    as a row, for each i in `wanted`; every other index holds zeros.  With
    the logged moves E_1, ..., E_m, P = E_m ... E_1, so row i of P is
    e_i E_m ... E_1 and column i of P^-1 is E_1^-1 ... E_m^-1 e_i: both
    apply the moves last to first.  For ``row_a += k row_b`` a row v of P
    takes ``v_b += k v_a`` and a column u of P^-1 takes ``u_a -= k u_b``; a
    swap exchanges two entries of each, and a negation flips one.  Each
    move touches one entry of each vector, so the cost is the number of
    moves times the number of indices wanted.
    """
    p = [[0] * n for _ in range(n)]
    inverse_columns = [[0] * n for _ in range(n)]
    for i in wanted:
        v = p[i]
        u = inverse_columns[i]
        v[i] = u[i] = 1 % modulus if modulus else 1
        for a, k, b in reversed(moves):
            if k is None:
                v[a], v[b] = v[b], v[a]
                u[a], u[b] = u[b], u[a]
            elif b is None:
                v[a] = -v[a] % modulus if modulus else -v[a]
                u[a] = -u[a] % modulus if modulus else -u[a]
            elif modulus:
                v[b] = (v[b] + k * v[a]) % modulus
                u[a] = (u[a] - k * u[b]) % modulus
            else:
                v[b] += k * v[a]
                u[a] -= k * u[b]
    return p, inverse_columns


def _check_snf(mat, s, p, q) -> None:
    """Raise AssertionError unless P * mat * Q = S, S is diagonal with a
    divisibility chain and its zeros last, and P and Q are unimodular.

    P * mat * Q = S gives det P * det mat * det Q = d_1 ... d_r for a
    square input.  So when that product is nonzero, |d_1 ... d_r| =
    |det mat| forces |det P| = |det Q| = 1, and one determinant of the
    input certifies both transforms.  Singular and non-square inputs have
    det P and det Q computed."""
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
        unimodular = abs(product) == abs(determinant(mat))
    else:
        unimodular = abs(determinant(p)) == 1 and abs(determinant(q)) == 1
    if not unimodular:
        raise AssertionError("smith normal form transforms are not unimodular")


def _check_cokernel(mat, s, p, c, modulus: int) -> None:
    """Raise AssertionError unless the diagonal of S and the rows of P
    present coker(mat) for a square mat with |det mat| = `modulus` > 0,
    where the rows of c are the columns of P^-1 mod `modulus`.

    Let phi(x) = (P_i x mod d_i) over the live rows, those with d_i >= 2.
    (a) The d_i are positive, each divides the next, and their product
        is `modulus`.
    (b) P_i mat = 0 mod d_i for each live row, so phi kills the image of
        mat and factors through coker(mat).
    (c) (P P^-1)_ji = delta_ij mod d_j for live i and j, so phi carries
        column i of P^-1 to the i-th basis vector: phi is onto.
    (d) |coker(mat)| = |det mat| = d_1 ... d_n, the order of the sum of
        the Z/d_i, so phi is an isomorphism onto it.
    With k live rows, (b) costs k n^2 and (c) k^2 n; S enters only
    through its diagonal, and no product of n-by-n matrices is formed.
    """
    diag = [s[i][i] for i in range(len(mat))]
    if min(diag, default=1) < 1 or any(b % a for a, b in zip(diag, diag[1:])):
        raise AssertionError("cokernel diagonal is not a positive divisibility chain")
    if prod(diag) != modulus:
        raise AssertionError("cokernel diagonal does not multiply to |det|")
    live = [i for i, d in enumerate(diag) if d >= 2]
    columns = list(zip(*mat))
    for i in live:
        if any(sum(map(mul, p[i], col)) % diag[i] for col in columns):
            raise AssertionError("a cokernel coordinate does not vanish on the image")
    for j in live:
        if any((sum(map(mul, p[j], c[i])) - (i == j)) % diag[j] for i in live):
            raise AssertionError("cokernel coordinates are not onto")


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
    holds rows of the row transform P of the Smith form P (A^t - I) Q; row
    i carries an integer vector to its i-th coordinate in the new basis.
    For a finite cokernel only the live rows (d_i >= 2) are held, modulo
    |det|, which each invariant factor divides, so every torsion
    coordinate is unchanged; a trivial row (d_i = 1) holds zeros, as its
    coordinate in Z/1 is 0 whatever the row.  With free rank every row of
    P is held exactly.
    `det` is det(A^t - I), so det(I - A) = (-1)^n det; None for a group
    not built from a matrix.
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
    """The cokernel of A^t - I_N with the class of the all-ones vector.

    det M, for M = A^t - I_N, is computed first: a nonzero one is the
    modulus of the replayed live rows and of their certificate, and no
    other determinant is computed."""
    n = matrix.n
    m = [[v - (i == j) for j, v in enumerate(col)] for i, col in enumerate(zip(*matrix.entries))]
    det = determinant(m)
    if det:
        s, moves, _ = _smith_normal_form(m)
        live = [i for i in range(n) if s[i][i] >= 2]
        p, inverse_columns = _replay(moves, n, live, abs(det))
        _check_cokernel(m, s, p, inverse_columns, abs(det))
    else:  # a cokernel with free rank has no modulus
        s, p, _ = smith_normal_form(m)
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


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _coprime_base(numbers) -> set[int]:
    """Pairwise coprime integers > 1 such that each of the positive
    `numbers` is a product of their powers, found by gcd refinement: a
    base element b and a number x with g = gcd(b, x) > 1 are replaced by
    b/g, g and x/g, which divides the product of all the numbers held by
    g, so the refinement ends."""
    base = set()
    todo = [x for x in numbers if x > 1]
    while todo:
        x = todo.pop()
        for b in base:
            g = gcd(b, x)
            if g > 1:
                base.remove(b)
                todo.extend(y for y in (b // g, g, x // g) if y > 1)
                break
        else:
            base.add(x)
    return base


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

    No number is factored.  Over a coprime base of the invariant factors,
    the nonzero components and g, a prime p dividing the base element q
    has v_p(x) = v_q(x) v_p(q) for each of those numbers.  Scaling every
    valuation by v_p(q) keeps each comparison above, so the pairs taken
    with v_q decide the orbit for every prime of q at once.
    """
    a = tuple(c % d for c, d in zip(a, torsion))
    b = tuple(c % d for c, d in zip(b, torsion))
    for q in _coprime_base([*torsion, *a, *b, modulus]):
        if any(d % q == 0 for d in torsion):
            v = _vp(modulus, q) if modulus else inf
            if _primary_type(torsion, a, q, v) != _primary_type(torsion, b, q, v):
                return False
    return True


def _primary_type(torsion: tuple[int, ...], x: tuple[int, ...], q: int, v: float) -> set:
    """The undominated pairs (v_q(x_i), e_i), e_i = v_q(torsion[i]), of the
    components x_i of x, reduced into [0, torsion[i]), with
    v_q(x_i) < min(e_i, v); a zero component has no pair."""
    kept = set()
    for d, c in zip(torsion, x):
        e = _vp(d, q)
        if c and (w := _vp(c, q)) < min(e, v):
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
    outside u must be carried off v.  So a table, a bijection, passes at
    every word, the identity at the empty word, iff it carries u onto v.
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

    A group element maps the space onto itself, so the empty set and the
    whole space are each equivalent only to themselves.  Equal sets are
    equivalent by the identity; unequal cokernel classes certify a negative
    (the class is conserved by every table since row-compatible symbols
    share one class).  Equal classes launch :func:`witness_search` with the
    exact maps-onto filter, whose first table is the witness; exhaustion
    stays undecided.
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
    if u.is_full or v.is_full:
        reason = "only the whole space is equivalent to the whole space"
        return EquivalenceResult("not_equivalent", None, reason)
    group, _ = bowen_franks(matrix)
    cu = clopen_class(u, group)
    cv = clopen_class(v, group)
    if cu != cv:
        return EquivalenceResult(
            "not_equivalent",
            None,
            f"cokernel classes differ: {cu.coords} vs {cv.coords}",
        )

    found = witness_search(
        matrix, lambda t: True, depth_bound, image_bound, maps_onto_candidates(u, v)
    )
    if found is not None:
        return EquivalenceResult("equivalent", found, "witness found by bounded search")
    return EquivalenceResult(
        "undecided", None, "classes agree but no witness within the search bounds"
    )
