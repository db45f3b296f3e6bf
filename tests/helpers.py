"""Shared fixtures: deterministic matrix pool, seeded random generators for
clopen sets and tables, and the independent brute-force oracles used to
cross-check the library (pointwise evaluation, cokernel enumeration,
homomorphism-matrix search).  Oracles live here, not in the package."""

from __future__ import annotations

import random
from math import gcd

from fullshift import (
    ClopenSet,
    EPPoint,
    TableMap,
    TransitionMatrix,
    canonicalize_clopen,
    validate_matrix,
)
from fullshift.constructions import cylinder_swap
from fullshift.invariants import determinant
from fullshift.sft import first_return

FULL2 = validate_matrix([[1, 1], [1, 1]])
GOLDEN = validate_matrix([[1, 1], [1, 0]])
GOLDEN_REV = validate_matrix([[0, 1], [1, 1]])
FULL3 = validate_matrix([[1, 1, 1]] * 3)
RING3 = validate_matrix([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
DENSE3 = validate_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
FULL4 = validate_matrix([[1, 1, 1, 1]] * 4)
RING4 = validate_matrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0]])
DENSE4 = validate_matrix([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]])

# keeps point sets small enough for exhaustive pointwise oracles
POOL = [FULL2, GOLDEN, GOLDEN_REV, RING3, DENSE3, RING4, DENSE4]
# every symbol has at least two successors (sampling finds moved points fast)
BRANCHING_POOL = [FULL2, FULL3, DENSE3, DENSE4]
# small spaces for the heavier constructions
SMALL_POOL = [FULL2, GOLDEN, GOLDEN_REV, RING3, DENSE3]


def random_matrix(rng: random.Random, n: int) -> TransitionMatrix:
    """A random valid matrix of size n; falls back to a dense one."""
    for _ in range(60):
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        try:
            return validate_matrix(rows)
        except Exception:
            continue
    return validate_matrix([[1] * n for _ in range(n)])


def random_clopen(
    rng: random.Random,
    matrix: TransitionMatrix,
    max_depth: int = 2,
    proper: bool = False,
) -> ClopenSet:
    """A random nonempty canonical clopen set of bounded depth."""
    for _ in range(200):
        depth = rng.randint(1, max_depth)
        words = list(matrix.words(depth))
        take = rng.randint(1, len(words))
        chosen = rng.sample(words, take)
        result = canonicalize_clopen(matrix, chosen)
        if proper and result.is_full:
            continue
        return result
    raise AssertionError("could not sample a clopen set")


def random_swap(rng: random.Random, matrix: TransitionMatrix, max_len: int = 2) -> TableMap:
    """A random involution exchanging two disjoint row-compatible cylinders."""
    words = [w for k in range(1, max_len + 1) for w in matrix.words(k)]
    for _ in range(300):
        a = rng.choice(words)
        b = rng.choice(words)
        k = min(len(a), len(b))
        if a[:k] == b[:k]:
            continue
        if matrix.row(a[-1]) != matrix.row(b[-1]):
            continue
        return cylinder_swap(matrix, a, b)
    raise AssertionError("could not sample a swap")


def random_table(
    rng: random.Random,
    matrix: TransitionMatrix,
    max_depth: int = 3,
    max_image: int = 5,
) -> TableMap:
    """A random valid table with bounded depth and image length, built from
    products of random cylinder swaps."""
    for _ in range(60):
        k = rng.choice([0, 1, 1, 1, 2, 2, 2, 3])
        table = TableMap.identity(matrix)
        for _ in range(k):
            table = table.compose(random_swap(rng, matrix))
        if table.depth <= max_depth and all(
            len(img) <= max_image for img in table.entries.values()
        ):
            return table
    return random_swap(rng, matrix)


def swap_inside(rng: random.Random, region: ClopenSet, tries: int = 40) -> TableMap | None:
    """A random nontrivial involution whose support lies inside the region."""
    matrix = region.matrix
    depth = max(region.depth, 1)
    for d in range(depth, depth + 6):
        by_row: dict = {}
        for w in matrix.words(d):
            if region.contains_word(w):
                by_row.setdefault(matrix.row(w[-1]), []).append(w)
        groups = [g for g in by_row.values() if len(g) >= 2]
        if groups:
            group = groups[rng.randrange(len(groups))]
            a, b = rng.sample(group, 2)
            return cylinder_swap(matrix, a, b)
    return None


# ---------------------------------------------------------------------------
# pointwise oracles


_POINT_CACHE: dict = {}


def enumerate_points(matrix: TransitionMatrix, max_pre: int, max_per: int):
    """All distinct eventually periodic points with bounded preperiod and
    period, as canonical values."""
    key = (matrix, max_pre, max_per)
    cached = _POINT_CACHE.get(key)
    if cached is not None:
        return cached
    periods = [
        w
        for k in range(1, max_per + 1)
        for w in matrix.words(k)
        if matrix.arc(w[-1], w[0])
    ]
    pres = [w for k in range(max_pre + 1) for w in matrix.words(k)]
    points = set()
    for per in periods:
        for pre in pres:
            if pre and not matrix.arc(pre[-1], per[0]):
                continue
            points.add(EPPoint.make(pre, per))
    result = sorted(points, key=lambda p: (p.pre, p.per))
    _POINT_CACHE[key] = result
    return result


def completion_points(matrix: TransitionMatrix, word):
    """A couple of concrete points extending a word, one per next symbol."""
    out = []
    for a in matrix.successors(word[-1]) if word else matrix.symbols():
        out.append(EPPoint.make(word + (a,), first_return(matrix, a)))
    return out


def ep_oracle(pre, per) -> EPPoint:
    """The canonical point pre.per.per...: the primitive period by a scan
    over every divisor length, then the preperiod rolled in one symbol at a
    time."""
    pre, per = tuple(pre), tuple(per)
    for d in range(1, len(per) + 1):
        if len(per) % d == 0 and per == per[:d] * (len(per) // d):
            per = per[:d]
            break
    while pre and pre[-1] == per[-1]:
        pre = pre[:-1]
        per = per[-1:] + per[:-1]
    return EPPoint(pre, per)


def ep_prefix_oracle(point: EPPoint, k: int):
    """The first k symbols, one index at a time."""
    pre, per = point.pre, point.per
    return tuple(pre[i] if i < len(pre) else per[(i - len(pre)) % len(per)] for i in range(k))


def ep_shift_oracle(point: EPPoint, k: int) -> EPPoint:
    """The point with its first k symbols dropped, canonicalized again."""
    pre, per = point.pre, point.per
    if k <= len(pre):
        return ep_oracle(pre[k:], per)
    j = (k - len(pre)) % len(per)
    return ep_oracle((), per[j:] + per[:j])


def ep_apply_oracle(table: TableMap, point: EPPoint) -> EPPoint:
    """A table's image of a point, read off its uniform view."""
    tail = ep_shift_oracle(point, table.depth)
    image = table.entries[ep_prefix_oracle(point, table.depth)]
    return ep_oracle(image + tail.pre, tail.per)


def maps_agree_oracle(t1: TableMap, t2: TableMap) -> bool:
    """Brute-force pointwise equality of two tables: evaluate on completions
    of every word of length L1 + L2 + 2."""
    matrix = t1.matrix
    depth = t1.depth + t2.depth + 2
    for w in matrix.words(depth):
        for x in completion_points(matrix, w):
            if t1.apply(x) != t2.apply(x):
                return False
    return True


# ---------------------------------------------------------------------------
# uniform-table oracles: group arithmetic written out over every word of one
# depth, as (depth, entries) pairs, independent of the prefix-code form


def uniform_reduce_oracle(matrix: TransitionMatrix, depth: int, entries: dict):
    """Strip whole levels while every sibling family merges."""
    while depth > 0:
        merged: dict = {}
        ok = True
        for nu, rho in entries.items():
            if not rho or rho[-1] != nu[-1]:
                ok = False
                break
            parent, img = nu[:-1], rho[:-1]
            prev = merged.get(parent)
            if prev is None:
                merged[parent] = img
            elif prev != img:
                ok = False
                break
        if not ok:
            break
        if depth == 1:
            if merged != {(): ()}:
                break
        elif any(
            not img or matrix.row(img[-1]) != matrix.row(p[-1]) for p, img in merged.items()
        ):
            break
        entries = merged
        depth -= 1
    return depth, entries


def _uniform_refine(matrix: TransitionMatrix, pairs, depth: int) -> dict:
    out = {}
    for nu, rho in pairs:
        for w in matrix.extensions(nu, depth):
            out[w] = rho + w[len(nu):]
    return out


def uniform_compose_oracle(outer: TableMap, inner: TableMap):
    """outer after inner from the two uniform views, reduced."""
    matrix = outer.matrix
    outer_depth, outer_entries = outer.depth, outer.entries
    flat = []
    for nu, rho in sorted(inner.entries.items()):
        stack = [(nu, rho)]
        while stack:
            n, r = stack.pop()
            if len(r) >= outer_depth:
                flat.append((n, outer_entries[r[:outer_depth]] + r[outer_depth:]))
                continue
            last = r[-1] if r else (n[-1] if n else None)
            succ = matrix.successors(last) if last else matrix.symbols()
            for a in reversed(tuple(succ)):
                stack.append((n + (a,), r + (a,)))
    depth = max(len(n) for n, _ in flat)
    return uniform_reduce_oracle(matrix, depth, _uniform_refine(matrix, flat, depth))


def uniform_inverse_oracle(table: TableMap):
    """The reversed uniform view, refined to the longest image."""
    rev = [(rho, nu) for nu, rho in table.entries.items()]
    depth = max(len(r) for r, _ in rev)
    return depth, _uniform_refine(table.matrix, rev, depth)


def uniform_order_oracle(table: TableMap, bound: int, entry_cap: int = 4096):
    """Least k <= bound with the k-th power trivial, by repeated uniform
    composition, with the same cap on power sizes as TableMap.order."""
    matrix = table.matrix
    g = TableMap(matrix, *uniform_reduce_oracle(matrix, table.depth, dict(table.entries)))
    if all(v == w for w, v in g.entries.items()):
        return 1
    acc = g
    for k in range(2, bound + 1):
        acc = TableMap(matrix, *uniform_compose_oracle(g, acc))
        if all(v == w for w, v in acc.entries.items()):
            return k
        if len(acc.entries) > entry_cap:
            return None
    return None


def search_order_oracle(matrix: TransitionMatrix, depth_bound: int, image_bound: int,
                        candidate_filter=None) -> list[TableMap]:
    """Every valid table within the bounds, in the documented search order,
    by plain recursive backtracking with only suffix-sum cover bounds."""
    def candidate_images(last):
        out = [w for k in range(1, image_bound + 1) for w in matrix.words(k)
               if matrix.row(w[-1]) == matrix.row(last)]
        return sorted(out, key=lambda w: (len(w), w))

    out = [TableMap.identity(matrix)]
    top = image_bound
    leaves = {w: i for i, w in enumerate(matrix.words(top))}
    n_leaves = len(leaves)
    full = (1 << n_leaves) - 1

    def mask_of(word):
        mask = 0
        for w in matrix.extensions(word, top):
            mask |= 1 << leaves[w]
        return mask

    for depth in range(1, depth_bound + 1):
        domain = list(matrix.words(depth))
        n = len(domain)
        per_word = []
        for nu in domain:
            cands = candidate_images(nu[-1]) if candidate_filter is None else candidate_filter(nu)
            per_word.append([(w, mask_of(w)) for w in cands])
        best_cover = [max((m.bit_count() for _, m in c), default=0) for c in per_word]
        suffix_cover = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix_cover[i] = suffix_cover[i + 1] + best_cover[i]
        assignment = [()] * n

        def backtrack(i, used):
            if i == n:
                if used == full:
                    out.append(TableMap(matrix, depth, dict(zip(domain, assignment))))
                return
            free = n_leaves - used.bit_count()
            if free < n - i or free > suffix_cover[i]:
                return
            for word, mask in per_word[i]:
                if not used & mask:
                    assignment[i] = word
                    backtrack(i + 1, used | mask)

        backtrack(0, 0)
    return out


# ---------------------------------------------------------------------------
# cokernel enumeration oracle (independent of elimination)


def _adjugate(m):
    n = len(m)
    if n == 1:
        return [[1]]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [m[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            out[j][i] = (-1) ** (i + j) * determinant(minor)
    return out


def cokernel_orders(m) -> tuple[int, dict[int, int], int]:
    """Brute-force structure of Z^n / m Z^n for det(m) != 0: group order,
    multiset of element orders, and the order of the all-ones class.

    Uses the injective homomorphism v -> adj(m) v mod |det| (its kernel is
    exactly the image lattice), then closes the generator images under
    addition; no elimination involved.
    """
    n = len(m)
    det = determinant(m)
    assert det != 0, "enumeration oracle needs a finite cokernel"
    big = abs(det)
    adj = _adjugate(m)

    def phi(vec):
        return tuple(sum(adj[i][j] * vec[j] for j in range(n)) % big for i in range(n))

    gens = [phi([1 if j == i else 0 for j in range(n)]) for i in range(n)]
    zero = (0,) * n
    elems = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % big for a, b in zip(x, g))
            if y not in elems:
                elems.add(y)
                frontier.append(y)

    def elem_order(x):
        out = 1
        for c in x:
            if c:
                o = big // gcd(big, c)
                out = out * o // gcd(out, o)
        return out

    orders: dict[int, int] = {}
    for x in elems:
        o = elem_order(x)
        orders[o] = orders.get(o, 0) + 1
    return len(elems), orders, elem_order(phi([1] * n))


def group_element_orders(torsion) -> dict[int, int]:
    """Multiset of element orders of a finite sum of cyclic groups."""
    orders: dict[int, int] = {0: 1}
    counts = {1: 1}
    for d in torsion:
        new: dict[int, int] = {}
        for o, c in counts.items():
            for x in range(d):
                oo = d // gcd(d, x) if x else 1
                key = o * oo // gcd(o, oo)
                new[key] = new.get(key, 0) + c
        counts = new
    return counts


# ---------------------------------------------------------------------------
# homomorphism-matrix oracle for pointed isomorphism


def hom_count(factors) -> int:
    total = 1
    for di in factors:
        for dj in factors:
            total *= gcd(di, dj)
    return total


def pointed_match_oracle(factors, u, v, leaf_cap=None):
    """Whether some automorphism of the product of cyclic groups carries u
    to v, by exhausting homomorphism matrices; None when a leaf cap is
    given and the row-constrained search space exceeds it.

    Rows are enumerated against the matching condition (row i must satisfy
    sum_j C_ij u_j = v_i); partial matrices are pruned as soon as the rows
    chosen so far become dependent modulo some prime, which is exactly when
    no completion can be bijective."""
    from itertools import product

    s = len(factors)
    if s == 0:
        return True
    u = tuple(x % d for x, d in zip(u, factors))
    v = tuple(x % d for x, d in zip(v, factors))
    # bijections fix zero and are injective
    if not any(u) or not any(v):
        return not any(u) and not any(v)
    primes = sorted({p for d in factors for p in _prime_list(d)})
    idxs = {p: [i for i in range(s) if factors[i] % p == 0] for p in primes}

    def row_solutions(i):
        d = factors[i]
        choices = [range(0, d, d // gcd(d, factors[j])) for j in range(s)]
        return [
            row
            for row in product(*choices)
            if sum(c * x for c, x in zip(row, u)) % d == v[i]
        ]

    rows = [row_solutions(i) for i in range(s)]
    if any(not r for r in rows):
        return False
    if leaf_cap is not None:
        leaves = 1
        for r in rows:
            leaves *= len(r)
        if leaves > leaf_cap:
            return None

    def reduce_mod(basis, vec, p):
        vec = list(vec)
        for pivot, b in basis:
            if vec[pivot] % p:
                f = vec[pivot] * pow(b[pivot], -1, p) % p
                vec = [(x - f * y) % p for x, y in zip(vec, b)]
        for pos, x in enumerate(vec):
            if x % p:
                return pos, vec
        return None

    def rec(i, bases):
        if i == s:
            return True
        for row in rows[i]:
            new_bases = dict(bases)
            ok = True
            for p in primes:
                if factors[i] % p:
                    continue
                idx = idxs[p]
                scaled = [row[j] * factors[j] // factors[i] % p for j in idx]
                reduced = reduce_mod(bases[p], scaled, p)
                if reduced is None:
                    ok = False
                    break
                new_bases[p] = bases[p] + [reduced]
            if ok and rec(i + 1, new_bases):
                return True
        return False

    return rec(0, {p: [] for p in primes})


def _prime_list(n):
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


def _det_mod_p(mat, p):
    n = len(mat)
    a = [row[:] for row in mat]
    det = 1
    for k in range(n):
        pivot = None
        for i in range(k, n):
            if a[i][k] % p:
                pivot = i
                break
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det = det * a[k][k] % p
        inv = pow(a[k][k], -1, p)
        for i in range(k + 1, n):
            f = a[i][k] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return det % p


def invariant_factor_lists(limit: int):
    """All chains d1 | d2 | ... with product <= limit, entries >= 2."""
    out = [()]

    def rec(prefix, prod):
        last = prefix[-1] if prefix else 1
        d = max(last, 2)
        while prod * d <= limit:
            if d % last == 0:
                chain = prefix + (d,)
                out.append(chain)
                rec(chain, prod * d)
            d += 1

    rec((), 1)
    return out
