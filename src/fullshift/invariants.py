"""The pointed cokernel invariant and the decisions built on it.

For an ambient matrix A of size N the group is the cokernel of A^t - I_N
acting on integer vectors, computed exactly through a Smith normal form
with recorded unimodular transforms.  The class of the all-ones vector is
distinguished: full groups of two shifts are isomorphic exactly when the
pointed groups match, granted the determinant condition, and the pointed
group is an unconditional obstruction either way.

Classes of clopen sets live in the same cokernel (the class of a cylinder
is the basis class of its final symbol), giving the cheap negative
certificate for equivalence of clopen sets under the group action.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable

from .errors import BadInput, MatrixMismatch
from .sft import ClopenSet, TransitionMatrix, Word
from .tables import TableMap

ORBIT_CAP = 10**6


# ---------------------------------------------------------------------------
# exact integer linear algebra


def smith_normal_form(
    mat: list[list[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Diagonalize an integer matrix by unimodular row and column moves.

    Returns (S, P, Q) with P * mat * Q = S, S diagonal with each entry
    dividing the next, P and Q of determinant +-1.  The identities are
    re-checked on every call; exact arithmetic throughout.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    s = [list(r) for r in mat]
    p = [[int(i == j) for j in range(rows)] for i in range(rows)]
    q = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, k):  # row_i -= k * row_j
        s[i] = [a - k * b for a, b in zip(s[i], s[j])]
        p[i] = [a - k * b for a, b in zip(p[i], p[j])]

    def col_op(i, j, k):  # col_i -= k * col_j
        for r in s:
            r[i] -= k * r[j]
        for r in q:
            r[i] -= k * r[j]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        p[i], p[j] = p[j], p[i]

    def swap_cols(i, j):
        for r in s:
            r[i], r[j] = r[j], r[i]
        for r in q:
            r[i], r[j] = r[j], r[i]

    for t in range(min(rows, cols)):
        while True:
            pivot = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if s[i][j] and (pivot is None or abs(s[i][j]) < abs(s[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            if pivot != (t, t):
                if pivot[0] != t:
                    swap_rows(t, pivot[0])
                if pivot[1] != t:
                    swap_cols(t, pivot[1])
            dirty = False
            for i in range(t + 1, rows):
                k = s[i][t] // s[t][t]
                if k:
                    row_op(i, t, k)
                if s[i][t]:
                    dirty = True
            for j in range(t + 1, cols):
                k = s[t][j] // s[t][t]
                if k:
                    col_op(j, t, k)
                if s[t][j]:
                    dirty = True
            if dirty:
                continue
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if s[i][j] % s[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)
        if t < rows and t < cols and s[t][t] < 0:
            s[t] = [-a for a in s[t]]
            p[t] = [-a for a in p[t]]
    _check_snf(mat, s, p, q)
    return s, p, q


def _check_snf(mat, s, p, q):
    rows, cols = len(mat), len(mat[0]) if mat else 0
    pm = _mat_mul(p, mat)
    pmq = _mat_mul(pm, q)
    if pmq != s:
        raise AssertionError("smith normal form transform identity failed")
    for i in range(rows):
        for j in range(cols):
            if i != j and s[i][j]:
                raise AssertionError("smith normal form is not diagonal")
    diag = [s[i][i] for i in range(min(rows, cols))]
    for a, b in zip(diag, diag[1:]):
        if a and b % a:
            raise AssertionError("smith normal form divisibility chain failed")
        if a == 0 and b != 0:
            raise AssertionError("smith normal form zero ordering failed")
    if abs(determinant(p)) != 1 or abs(determinant(q)) != 1:
        raise AssertionError("smith normal form transforms are not unimodular")


def _mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


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
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# the pointed group


@dataclass(frozen=True)
class BFGroup:
    """Cokernel of A^t - I_N in Smith normal form.

    `diag` is the full diagonal; entries equal to 1 are trivial, entries
    >= 2 are the invariant factors, zeros contribute free rank.  `p_rows`
    and `q_cols` are the unimodular transforms with P (A^t - I) Q diagonal;
    P carries an integer vector to its coordinates in the new basis.
    """

    n: int
    diag: tuple[int, ...]
    p_rows: tuple[tuple[int, ...], ...]
    q_cols: tuple[tuple[int, ...], ...] = ()

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
        if self.free_rank:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

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
        out = 1
        for c, d in zip(self.coords, self.group.diag):
            if d >= 2 and c:
                out = out * (d // gcd(d, c)) // gcd(out, d // gcd(d, c))
        return out

    def is_zero(self) -> bool:
        return not any(self.coords)


def bowen_franks(matrix: TransitionMatrix) -> tuple[BFGroup, GroupElement]:
    """The cokernel of A^t - I_N with the class of the all-ones vector."""
    n = matrix.n
    m = [
        [matrix.arc(j + 1, i + 1) - (1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    s, p, q = smith_normal_form(m)
    diag = tuple(s[i][i] for i in range(n))
    group = BFGroup(
        n, diag, tuple(tuple(r) for r in p), tuple(tuple(r) for r in q)
    )
    unit = group.element([1] * n)
    return group, unit


def shift_determinant(matrix: TransitionMatrix) -> int:
    """det(A - I_N), the sign side of the classification condition."""
    n = matrix.n
    m = [[matrix.arc(i + 1, j + 1) - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    return determinant(m)


def clopen_class(clopen: ClopenSet, group: BFGroup | None = None) -> GroupElement:
    """The cokernel class of a clopen set: sum over its cylinders of the
    basis class of each cylinder's last symbol; the whole space gets the
    all-ones class.  Additive over disjoint unions and invariant under
    the group action."""
    matrix = clopen.matrix
    if group is None:
        group, _ = bowen_franks(matrix)
    if group.n != matrix.n:
        raise MatrixMismatch("group and clopen set have different ambient sizes")
    vec = [0] * matrix.n
    if clopen.is_full:
        vec = [1] * matrix.n
    else:
        for w in clopen.words:
            vec[w[-1] - 1] += 1
    return group.element(vec)


# ---------------------------------------------------------------------------
# pointed isomorphism decisions


@dataclass(frozen=True)
class PointedDecision:
    verdict: str  # isomorphic | not_isomorphic | undecided
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


def _unit_generators(p: int, e: int) -> list[int]:
    """Generators of the unit group modulo p^e."""
    if e == 0:
        return []
    mod = p**e
    if p == 2:
        if e == 1:
            return []
        if e == 2:
            return [3]
        return [mod - 1, 5]
    # find a primitive root mod p, lift to p^e
    for g in range(2, p + 1):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            break
    else:
        raise AssertionError(f"no primitive root mod {p}")
    if e >= 2 and pow(g, p - 1, p * p) == 1:
        g += p
    return [g % mod]


def _primary_orbit(p: int, exps: list[int], start: tuple[int, ...], cap: int) -> set | None:
    """Orbit of an element of the p-primary part under all automorphisms,
    by closure under elementary generators; None when past the cap."""
    mods = [p**e for e in exps]
    size = 1
    for m in mods:
        size *= m
        if size > cap:
            return None
    k = len(mods)
    gens: list = []
    for i in range(k):
        for u in _unit_generators(p, exps[i]):
            gens.append(("mul", i, u))
    for i in range(k):
        for j in range(k):
            if i != j:
                c = p ** max(0, exps[i] - exps[j])
                gens.append(("add", i, j, c))
    orbit = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for gen in gens:
            if gen[0] == "mul":
                _, i, u = gen
                y = list(x)
                y[i] = y[i] * u % mods[i]
            else:
                _, i, j, c = gen
                y = list(x)
                y[i] = (y[i] + c * x[j]) % mods[i]
            t = tuple(y)
            if t not in orbit:
                orbit.add(t)
                frontier.append(t)
    return orbit


def _primary_split(torsion: tuple[int, ...], part: tuple[int, ...]):
    """Decompose torsion coordinates into primary components per prime."""
    primes = sorted({p for d in torsion for p in _prime_factors(d)})
    out = {}
    for p in primes:
        exps = []
        comps = []
        for d, c in zip(torsion, part):
            e = _vp(d, p)
            if e:
                exps.append(e)
                comps.append(c % p**e)
        out[p] = (exps, tuple(comps))
    return out


def _torsion_match(
    torsion: tuple[int, ...],
    a: tuple[int, ...],
    b: tuple[int, ...],
    cap: int = ORBIT_CAP,
    modulus: int = 0,
) -> bool | None:
    """Whether some automorphism of the torsion group carries a to b,
    optionally only up to multiples of `modulus`.  None when past caps."""
    if not torsion:
        return True
    split_a = _primary_split(torsion, a)
    split_b = _primary_split(torsion, b)
    for p, (exps, comp_a) in split_a.items():
        comp_b = split_b[p][1]
        orbit = _primary_orbit(p, exps, comp_a, cap)
        if orbit is None:
            return None
        if modulus:
            g = p ** _vp(modulus, p) if modulus % p == 0 else 1
            mods = [p**e for e in exps]
            want = {
                tuple(x % gcd(g, m) if gcd(g, m) else x for x, m in zip(t, mods))
                for t in orbit
            }
            have = tuple(
                x % gcd(g, m) if gcd(g, m) else x for x, m in zip(comp_b, mods)
            )
            if have not in want:
                return False
        elif comp_b not in orbit:
            return False
    return True


def pointed_iso_decide(
    group_a: BFGroup,
    unit_a: GroupElement,
    group_b: BFGroup,
    unit_b: GroupElement,
) -> PointedDecision:
    """Decide whether an isomorphism of the groups can match the two
    distinguished elements.

    Finite groups are decided exactly by per-prime automorphism orbits
    (closed under elementary generators, capped at 10^6 per component).
    With free rank the decision is conservative: structural checks plus
    the gcd of the free image are required, a successful bounded search
    confirms a positive, and anything else stays undecided.
    """
    if group_a.free_rank != group_b.free_rank:
        return PointedDecision("not_isomorphic", "free ranks differ")
    if group_a.torsion != group_b.torsion:
        return PointedDecision(
            "not_isomorphic",
            f"invariant factors differ: {group_a.torsion} vs {group_b.torsion}",
        )
    ta, tb = unit_a.torsion_part(), unit_b.torsion_part()
    fa, fb = unit_a.free_part(), unit_b.free_part()
    if group_a.free_rank == 0:
        match = _torsion_match(group_a.torsion, ta, tb)
        if match is None:
            return PointedDecision("undecided", "torsion component exceeds the orbit cap")
        if match:
            return PointedDecision("isomorphic", "distinguished elements lie in one orbit")
        return PointedDecision(
            "not_isomorphic", "no automorphism matches the distinguished elements"
        )
    ga = gcd(*fa) if len(fa) > 1 else abs(fa[0])
    gb = gcd(*fb) if len(fb) > 1 else abs(fb[0])
    if (ga == 0) != (gb == 0):
        return PointedDecision("not_isomorphic", "free images differ (zero vs nonzero)")
    if ga != gb:
        return PointedDecision("not_isomorphic", f"free image contents differ: {ga} vs {gb}")
    if ga == 0:
        match = _torsion_match(group_a.torsion, ta, tb)
        if match is None:
            return PointedDecision("undecided", "torsion component exceeds the orbit cap")
        if match:
            return PointedDecision("isomorphic", "zero free image, torsion parts in one orbit")
        return PointedDecision(
            "not_isomorphic", "zero free image, torsion parts in different orbits"
        )
    match = _torsion_match(group_a.torsion, ta, tb, modulus=ga)
    if match:
        return PointedDecision(
            "isomorphic",
            "free images match and torsion parts agree modulo the free content",
        )
    return PointedDecision("undecided", "free rank present; bounded search found no match")


@dataclass(frozen=True)
class IsoReport:
    """Verdict of the full-group comparison together with everything the
    verdict was read off from."""

    verdict: str  # ISOMORPHIC | NOT_ISOMORPHIC | INCONCLUSIVE
    reason: str
    group_a: BFGroup
    unit_a: GroupElement
    group_b: BFGroup
    unit_b: GroupElement
    det_a: int
    det_b: int
    pointed: PointedDecision


def full_group_iso_decide(matrix_a: TransitionMatrix, matrix_b: TransitionMatrix) -> IsoReport:
    """Compare the full groups of two shifts through the pointed invariant.

    A pointed mismatch refutes isomorphism unconditionally.  A pointed
    match proves it when the two determinants det(A - I) multiply to a
    non-negative number; otherwise the comparison is reported inconclusive.
    """
    group_a, unit_a = bowen_franks(matrix_a)
    group_b, unit_b = bowen_franks(matrix_b)
    det_a = shift_determinant(matrix_a)
    det_b = shift_determinant(matrix_b)
    pointed = pointed_iso_decide(group_a, unit_a, group_b, unit_b)
    if pointed.verdict == "not_isomorphic":
        verdict, reason = "NOT_ISOMORPHIC", pointed.reason
    elif pointed.verdict == "isomorphic":
        if det_a * det_b >= 0:
            verdict, reason = "ISOMORPHIC", "pointed groups match and det(A-I)det(B-I) >= 0"
        else:
            verdict, reason = (
                "INCONCLUSIVE",
                "pointed groups match but det(A-I)det(B-I) < 0",
            )
    else:
        verdict, reason = "INCONCLUSIVE", pointed.reason
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


def maps_onto_candidates(
    u: ClopenSet, v: ClopenSet, image_bound: int
) -> Callable[[Word], list[Word]]:
    """The candidate filter of the search for a table carrying u onto v.

    For a domain word nu it keeps, in search order, the candidate images
    that agree with carrying u onto v: inside u the image cylinder must
    lie inside v, outside u it must miss v, and a cylinder that straddles
    u is checked suffix by suffix at u's depth.
    """
    from .constructions import _candidate_images

    matrix = u.matrix
    base: dict[int, list[Word]] = {}

    def filtered(nu: Word) -> list[Word]:
        cands = base.get(nu[-1])
        if cands is None:
            cands = _candidate_images(matrix, nu[-1], image_bound)
            base[nu[-1]] = cands
        if u.contains_word(nu):
            return [w for w in cands if v.contains_word(w)]
        if not u.meets_word(nu):
            return [w for w in cands if not v.meets_word(w)]
        # the domain cylinder straddles u; constrain suffix by suffix
        need = max(u.depth, len(nu))
        allowed = []
        for w in cands:
            ok = True
            for ext in matrix.extensions(nu, need):
                tail = ext[len(nu):]
                if u.contains_word(ext):
                    if not v.contains_word(w + tail):
                        ok = False
                        break
                elif v.meets_word(w + tail):
                    ok = False
                    break
            if ok:
                allowed.append(w)
        return allowed

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
    from .constructions import _run_search

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

    def visit(t: TableMap):
        if t.image_clopen(u) == v:
            return t
        return None

    found = _run_search(
        matrix, depth_bound, image_bound, visit,
        candidate_filter=maps_onto_candidates(u, v, image_bound),
    )
    if found is not None:
        return EquivalenceResult("equivalent", found, "witness found by bounded search")
    return EquivalenceResult(
        "undecided", None, "classes agree but no witness within the search bounds"
    )
