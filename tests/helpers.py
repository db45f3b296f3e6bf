"""Shared fixtures: deterministic matrix pool, seeded random generators for
clopen sets and tables, and the independent brute-force oracles used to
cross-check the library (pointwise evaluation, cokernel enumeration,
homomorphism-matrix search, automorphism-orbit closure).  Oracles live
here, not in the package."""

from __future__ import annotations

import random
from collections import Counter
from math import gcd

from fullshift import (
    ClopenSet,
    EPPoint,
    TableMap,
    TransitionMatrix,
    canonicalize_clopen,
    cylinder,
    point_in,
    validate_matrix,
)
from fullshift.constructions import cylinder_swap, involution_into
from fullshift.invariants import determinant
from fullshift.sft import connect_path, first_return, format_word
from fullshift.tables import validate_images

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


def block_presentation(matrix: TransitionMatrix, k: int) -> TransitionMatrix:
    """The k-block presentation: one symbol per admissible k-word, and
    a_1 ... a_k -> a_2 ... a_k+1.  The two one-sided shifts are conjugate,
    and the sizes of the matrices may differ in parity."""
    blocks = matrix.words(k)
    return validate_matrix([[int(u[1:] == v[:-1]) for v in blocks] for u in blocks])


def out_split(matrix: TransitionMatrix, state: int, part) -> TransitionMatrix:
    """The out-splitting of `state`: it keeps its followers in `part` (a
    nonempty proper subset of them), a new state N+1 takes the rest, and
    both copies keep every predecessor of `state`.  A point of the split
    shift is read back by merging the copies, and the copy of each symbol
    is fixed by the next one, so the two one-sided shifts are conjugate;
    the sizes of the matrices differ by one."""
    n, rows = matrix.n, matrix.entries
    origin = list(range(1, n + 1)) + [state]

    def allowed(x: int, y: int) -> bool:
        if x == state:
            return y in part
        if x == n + 1:
            return y not in part
        return True

    return validate_matrix([
        [int(rows[origin[x - 1] - 1][origin[y - 1] - 1] and allowed(x, origin[y - 1]))
         for y in range(1, n + 2)]
        for x in range(1, n + 2)
    ])


def long_cycle(n: int) -> TransitionMatrix:
    """The n-cycle 1 -> 2 -> ... -> n -> 1 with one branch, the loop 1 -> 1:
    below cylinder 3 no word branches before depth n."""
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = 1
    for i in range(n - 1):
        rows[i][i + 1] = 1
    rows[n - 1][0] = 1
    return validate_matrix(rows)


def table_from(matrix: TransitionMatrix, depth: int, mapping: dict) -> TableMap:
    """The table of a dict from domain words to images, given in any order:
    the domain sorted, the images aligned with it.  ``depth`` is the depth
    the caller expects; the table derives its own, and the two must agree."""
    domain = tuple(sorted(mapping))
    table = TableMap(matrix, domain, tuple(mapping[w] for w in domain))
    assert table.depth == depth, (table.depth, depth)
    return table


def code_of(table: TableMap) -> dict:
    """A table's code as a dict from domain words to images."""
    return dict(zip(table.domain, table.images))


def domain_word_at(table: TableMap, point: EPPoint) -> tuple:
    """The domain word whose cylinder holds the point, by a linear scan."""
    return next(nu for nu in table.domain if point.prefix(len(nu)) == nu)


def assert_sorted_form(table: TableMap) -> None:
    """The stored form of a table: a strictly increasing, prefix-free
    domain (in sorted order a prefix would come right before a word that
    extends it) and one image per domain word."""
    domain = table.domain
    assert len(table.images) == len(domain), table
    for a, b in zip(domain, domain[1:]):
        assert a < b and b[: len(a)] != a, (a, b)


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


def random_complete_code(rng: random.Random, matrix: TransitionMatrix, word, rounds: int) -> list:
    """A complete prefix code under word: word split into its one-symbol
    extensions, then a random code word split the same way, rounds times."""
    code = [word]
    for _ in range(rounds):
        w = code.pop(rng.randrange(len(code)))
        code += [w + (a,) for a in matrix.successors(w[-1] if w else 0)]
    return code


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


def random_cycles(rng: random.Random, matrix: TransitionMatrix) -> list | None:
    """Random cycles of pairwise disjoint words of length 1-3, each cycle
    inside one follower row, or None when no row gets two words."""
    words = [w for k in (1, 2, 3) for w in matrix.words(k)]
    rng.shuffle(words)
    size, chosen = rng.randint(2, 7), []
    for w in words:
        if len(chosen) < size and all(w[: len(c)] != c and c[: len(w)] != w for c in chosen):
            chosen.append(w)
    by_row: dict = {}
    for w in chosen:
        by_row.setdefault(matrix.row(w[-1]), []).append(w)
    cycles = []
    for group in by_row.values():
        if len(group) >= 4 and rng.random() < 0.5:
            cycles += [tuple(group[:2]), tuple(group[2:])]
        elif len(group) >= 2:
            cycles.append(tuple(group))
    rng.shuffle(cycles)
    return cycles or None


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


def random_general_table(rng: random.Random, matrix: TransitionMatrix, max_rounds: int = 4) -> TableMap:
    """A random valid table that need not be a product of swaps: two random
    complete codes, drawn until each follower row has as many words in one
    as in the other, paired row by row in a random order."""
    for _ in range(300):
        domain = random_complete_code(rng, matrix, (), rng.randint(2, max_rounds))
        images = random_complete_code(rng, matrix, (), rng.randint(2, max_rounds))
        if Counter(matrix.row(w[-1]) for w in domain) != Counter(matrix.row(w[-1]) for w in images):
            continue
        by_row: dict = {}
        for w in images:
            by_row.setdefault(matrix.row(w[-1]), []).append(w)
        for group in by_row.values():
            rng.shuffle(group)
        pairs = {nu: by_row[matrix.row(nu[-1])].pop() for nu in domain}
        validate_images(matrix, pairs, pairs.values())
        return table_from(matrix, max(map(len, pairs)), pairs)
    raise AssertionError("could not sample a general table")


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


def first_return_oracle(matrix: TransitionMatrix, sym: int, min_len: int = 1):
    """The first return word at sym of length >= min_len, by enumerating
    every admissible word of each length in lexicographic order."""
    frontier = [(a,) for a in matrix.successors(sym)]
    for length in range(1, matrix.n * matrix.n + min_len + 3):
        if length >= min_len:
            for r in frontier:
                if r[-1] == sym:
                    return r
        frontier = [r + (a,) for r in frontier for a in matrix.successors(r[-1])]
    return None


def connect_path_oracle(matrix: TransitionMatrix, u: int, v: int):
    """The least word xi among the shortest with u.xi.v admissible, by
    listing every admissible word leaving u, level by level in
    lexicographic order, and testing each for an arc into v."""
    symbols = range(1, matrix.n + 1)
    level = [()]
    for _ in range(matrix.n):
        for xi in level:
            if matrix.arc(xi[-1] if xi else u, v):
                return xi
        level = [xi + (a,) for xi in level for a in symbols if matrix.arc(xi[-1] if xi else u, a)]
    return None


def second_return_oracle(matrix: TransitionMatrix, sym: int, ret):
    """The first return word at sym of length >= 3 that is prefix-incomparable
    with ret, by enumerating every admissible word of each length in
    lexicographic order (the former library search, without its frontier
    cut)."""
    frontier = [(a,) for a in matrix.successors(sym)]
    for length in range(1, len(ret) + matrix.n * matrix.n + 5):
        if length >= 3:
            for r in frontier:
                k = min(len(r), len(ret))
                if r[-1] == sym and r[:k] != ret[:k]:
                    return r
        frontier = [r + (a,) for r in frontier for a in matrix.successors(r[-1])]
    return None


def distinct_path_pair_oracle(matrix: TransitionMatrix, frm: int):
    """The first two distinct equal-length words leaving frm whose last
    symbols share a follower, with their least common follower, by listing
    every admissible word of each length in lexicographic order and trying
    the pairs in order (the former library search)."""
    symbols = range(1, matrix.n + 1)
    level = [(a,) for a in symbols if matrix.arc(frm, a)]
    for _ in range(matrix.n * matrix.n + matrix.n):
        for i, s in enumerate(level):
            for sp in level[i + 1 :]:
                common = [u for u in symbols if matrix.arc(s[-1], u) and matrix.arc(sp[-1], u)]
                if common:
                    return s, sp, common[0]
        level = [w + (a,) for w in level for a in symbols if matrix.arc(w[-1], a)]
    return None


def uniform_clopen_oracle(matrix: TransitionMatrix, raw) -> tuple[int, frozenset]:
    """The least uniform form (depth, words) of a union of cylinders: words
    padded to the common maximum depth by all admissible extensions, then
    whole levels merged back while every sibling family present is
    complete (the former library canonical form)."""
    words = set(raw)
    if not words:
        return 0, frozenset()
    lengths = set(map(len, words))
    depth = max(lengths)
    if len(lengths) > 1:
        padded = set()
        for w in words:
            padded.update(matrix.extensions(w, depth))
        words = padded
    # each word lies in one sibling family, of at most as many distinct
    # admissible words as its parent has followers; so every family is
    # complete exactly when the followers of the parents add up to the words
    while depth > 1:
        parents = {w[:-1] for w in words}
        if sum([len(matrix.successors(p[-1])) for p in parents]) != len(words):
            break
        words = parents
        depth -= 1
    if depth == 1 and len(words) == matrix.n:
        return 0, frozenset(((),))
    return depth, frozenset(words)


def clopen_text_oracle(matrix: TransitionMatrix, raw) -> str:
    """The ``D depth`` text of the oracle's uniform form, one sorted word a
    line (the former library writer)."""
    depth, words = uniform_clopen_oracle(matrix, raw)
    if not words:
        return "EMPTY\n"
    if not depth:
        return "FULL\n"
    return "\n".join([f"D {depth}"] + [format_word(w) for w in sorted(words)]) + "\n"


def uniform_form(clopen: ClopenSet) -> tuple[int, frozenset]:
    """A library clopen set as (depth, words), to compare with the oracle."""
    return clopen.depth, clopen.words


def clopen_relations_oracle(x: ClopenSet, y: ClopenSet) -> dict:
    """compare, is_subset_of, union, intersection and difference of x and y,
    with both sets refined to the deeper depth (the former library code);
    the three sets as :func:`uniform_clopen_oracle` forms."""
    depth = max(x.depth, y.depth)
    a, b = x.refine(depth), y.refine(depth)
    if a == b:
        relation = "equal"
    elif a <= b:
        relation = "subset"
    elif a >= b:
        relation = "superset"
    elif not a & b:
        relation = "disjoint"
    else:
        relation = "overlapping"
    return {
        "compare": relation,
        "is_subset_of": a <= b,
        "union": uniform_clopen_oracle(x.matrix, a | b),
        "intersection": uniform_clopen_oracle(x.matrix, a & b),
        "difference": uniform_clopen_oracle(x.matrix, a - b),
    }


def images_cover_oracle(matrix: TransitionMatrix, images) -> bool:
    """Whether pairwise disjoint image cylinders cover the space, by listing
    their extensions to the longest image length (the former library check,
    which counted them)."""
    top = max(len(r) for r in images)
    covered = sum(sum(1 for _ in matrix.extensions(r, top)) for r in images)
    return covered == len(matrix.words(top))


def minimality_source_oracle(u: ClopenSet, v: ClopenSet) -> ClopenSet:
    """The minimality witness's source by the relation of u to v (the
    former library function): u itself when it lies inside v or misses it,
    else the first cylinder of u minus v."""
    if u.compare(v) in ("equal", "subset", "disjoint"):
        return u
    rest = u.difference(v)
    return cylinder(u.matrix, next(rest.view(rest.depth)))


def proper_subcylinder_oracle(clopen: ClopenSet) -> ClopenSet:
    """The least cylinder at the first depth >= max(depth, 1) where the set
    has two words, refining one level at a time (the former library loop)."""
    depth = max(clopen.depth, 1)
    while True:
        words = sorted(clopen.refine(depth))
        if len(words) >= 2:
            return canonicalize_clopen(clopen.matrix, [words[0]])
        depth += 1


def moved_cylinder_oracle(table: TableMap, cap: int = 64):
    """A cylinder Y with table(Y) disjoint from Y by the code rule: the
    first moved code word of the reduced table in sorted order, followed
    down its fixed track for up to `cap` more symbols, the least word of
    each length first."""
    g = table.reduce()
    matrix, code = g.matrix, code_of(g)
    word = next(w for w in sorted(code) if code[w] != w)
    for extra in range(cap):
        for t in words_oracle(matrix, word, len(word) + extra):
            moved = code[word] + t[len(word):]
            k = min(len(t), len(moved))
            if t[:k] != moved[:k]:
                return canonicalize_clopen(matrix, [t])
    return None


def localize_conjugate_oracle(eta: TableMap, u: ClopenSet) -> TableMap:
    """The former library recipe for ``constructions.localize_conjugate`` on
    a nonempty u that eta does not move: u's corner U1 and rest U2 each go
    through the public ``involution_into``, U1 into the moved cylinder Y and
    U2 into eta of U1's image, and the two involutions are composed."""
    u1 = proper_subcylinder_oracle(u)
    u2 = u.difference(u1)
    y = moved_cylinder_oracle(eta)
    v1, alpha = involution_into(u1, y, point_in(u1))
    bridge = eta.image_clopen(alpha.image_clopen(v1))
    _, beta = involution_into(u2, bridge, point_in(u2))
    return alpha.compose(beta)


def landing_word_oracle(matrix: TransitionMatrix, nu, target: ClopenSet):
    """The partner of nu in a cylinder involution into the target, by the
    former library walk: the least target word disjoint from nu at the
    least depth from max(target.depth, 1) up, listing every target word of
    each depth, then the connecting path back into nu's last symbol."""
    start = max(target.depth, 1)
    for depth in range(start, max(len(nu), start) + 1):
        for mu in sorted(w for c in target.code for w in words_oracle(matrix, c, depth)):
            if mu[: len(nu)] != nu[: len(mu)]:
                return mu + connect_path(matrix, mu[-1], nu[-1]) + (nu[-1],)
    return None


def matched_partition_oracle(gamma: TableMap, u: ClopenSet, min_len: int = 2):
    """The former library walk for ``constructions.matched_partition``: down
    from the root, a word inside u is taken once it has length >= min_len
    and the reduced code of gamma rewrites it onto an image of length >=
    min_len, and in any case at depth max(gamma.depth, u.depth, min_len);
    pairs whose image is still shorter than min_len are then split into
    their children, one at a time."""
    matrix = gamma.matrix
    g = gamma.reduce()
    depth = max(gamma.depth, u.depth, min_len)
    pairs = {}
    stack = [()]
    while stack:
        nu = stack.pop()
        if not u.meets_word(nu):
            continue
        if len(nu) >= min_len:
            rho = g.word_image(nu)
            if len(nu) == depth or (
                rho is not None and len(rho) >= min_len and u.contains_word(nu)
            ):
                pairs[nu] = rho
                continue
        stack.extend(nu + (a,) for a in (matrix.successors(nu[-1]) if nu else matrix.symbols()))
    while any(len(rho) < min_len for rho in pairs.values()):
        for nu, rho in sorted(pairs.items()):
            if len(rho) < min_len:
                del pairs[nu]
                for a in matrix.successors(nu[-1]):
                    pairs[nu + (a,)] = rho + (a,)
                break
    return sorted(pairs.items())


def maps_onto_filter_oracle(u: ClopenSet, v: ClopenSet, image_bound: int):
    """The former library candidate filter of the maps-onto search, which
    pads: a domain cylinder that straddles u is checked extension by
    extension at u's depth.  Candidates by (length, word), as documented."""
    matrix = u.matrix

    def filtered(nu):
        row = matrix.row(nu[-1])
        cands = [w for k in range(1, image_bound + 1) for w in matrix.words(k)
                 if matrix.row(w[-1]) == row]
        if u.contains_word(nu):
            return [w for w in cands if v.contains_word(w)]
        if not u.meets_word(nu):
            return [w for w in cands if not v.meets_word(w)]
        allowed = []
        for w in cands:
            ok = True
            for ext in matrix.extensions(nu, max(u.depth, len(nu))):
                tail = ext[len(nu):]
                if u.contains_word(ext):
                    ok = v.contains_word(w + tail)
                else:
                    ok = not v.meets_word(w + tail)
                if not ok:
                    break
            if ok:
                allowed.append(w)
        return allowed

    return filtered


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
    """A table's image of a point, read off its oracle uniform view."""
    tail = ep_shift_oracle(point, table.depth)
    image = uniform_view_oracle(table)[ep_prefix_oracle(point, table.depth)]
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
# depth, as (depth, entries) pairs, independent of the prefix-code form and
# of the library's word enumerator


def words_oracle(matrix: TransitionMatrix, word, length: int) -> list:
    """Every admissible extension of word to the given length, in
    lexicographic order, grown one level at a time from ``matrix.arc``."""
    level = [tuple(word)]
    for _ in range(length - len(word)):
        level = [
            w + (b,)
            for w in level
            for b in range(1, matrix.n + 1)
            if not w or matrix.arc(w[-1], b)
        ]
    return level


def uniform_view_oracle(table: TableMap, depth: int | None = None) -> dict:
    """The uniform view of a table at its depth, or at a given greater
    one: each oracle word of that length mapped through the code word that
    is its prefix, in sorted order."""
    code, view = code_of(table), {}
    for w in words_oracle(table.matrix, (), table.depth if depth is None else depth):
        k = next(k for k in range(len(w) + 1) if w[:k] in code)
        view[w] = code[w[:k]] + w[k:]
    return view


def image_clopen_oracle(
    table: TableMap, clopen: ClopenSet, view: dict | None = None
) -> tuple[int, frozenset]:
    """The image of a clopen set as a :func:`uniform_clopen_oracle` form:
    the images of the words of the oracle view at max(table depth, set
    depth) whose cylinders lie in the set, that is, that extend a code word
    of the set.  A caller may pass the view, at any depth at least both."""
    matrix = table.matrix
    if view is None:
        view = uniform_view_oracle(table, max(table.depth, clopen.depth))
    depth = len(next(iter(view)))
    inside = {w for c in clopen.code for w in words_oracle(matrix, c, depth)}
    return uniform_clopen_oracle(matrix, [rho for w, rho in view.items() if w in inside])


def table_text_oracle(table: TableMap) -> str:
    """The ``L depth`` text of the oracle view, one line per sorted entry
    (the former library writer)."""
    lines = [f"L {table.depth}"]
    for nu, rho in sorted(uniform_view_oracle(table).items()):
        lines.append(f"{format_word(nu)} -> {format_word(rho)}")
    return "\n".join(lines) + "\n"


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


def merge_families_oracle(matrix: TransitionMatrix, code: dict) -> dict:
    """The reduced code by a worklist of complete sibling families.

    A family merges into its parent when every child word's image ends in
    the child's last symbol, the images share one parent image, and that
    image ends in a symbol with the parent's follower row; the empty word
    is reached only by the identity.  Merges commute, so the order does
    not matter."""

    def arity(word):
        return len(matrix.successors(word[-1])) if word else matrix.n

    code = dict(code)
    # parent -> its child words whose image ends in the child's last symbol
    families: dict = {}
    for nu, rho in code.items():
        if nu and rho and rho[-1] == nu[-1]:
            families.setdefault(nu[:-1], []).append(nu)
    ready = [p for p, kids in families.items() if len(kids) == arity(p)]
    while ready:
        parent = ready.pop()
        kids = families[parent]
        image = code[kids[0]][:-1]
        if any(code[nu][:-1] != image for nu in kids[1:]):
            continue
        if parent:
            if not image or matrix.row(image[-1]) != matrix.row(parent[-1]):
                continue
        elif image:
            continue
        for nu in kids:
            del code[nu]
        code[parent] = image
        if parent and image[-1] == parent[-1]:
            siblings = families.setdefault(parent[:-1], [])
            siblings.append(parent)
            if len(siblings) == arity(parent[:-1]):
                ready.append(parent[:-1])
    return code


def _uniform_refine(matrix: TransitionMatrix, pairs, depth: int) -> dict:
    out = {}
    for nu, rho in pairs:
        for w in words_oracle(matrix, nu, depth):
            out[w] = rho + w[len(nu):]
    return out


def uniform_compose_oracle(outer: TableMap, inner: TableMap):
    """outer after inner from the two uniform views, reduced."""
    matrix = outer.matrix
    outer_depth, outer_entries = outer.depth, uniform_view_oracle(outer)
    flat = []
    for nu, rho in sorted(uniform_view_oracle(inner).items()):
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


def product_fold_oracle(matrix: TransitionMatrix, factors) -> tuple[int, dict]:
    """The product of tables folded one factor at a time from the identity,
    each step outer-after-inner by :func:`uniform_compose_oracle`, as
    (depth, uniform view); the identity when there is no factor."""
    depth, view = 0, {(): ()}
    for factor in factors:
        depth, view = uniform_compose_oracle(table_from(matrix, depth, view), factor)
    return depth, view


def uniform_inverse_oracle(table: TableMap):
    """The reversed uniform view refined to its longest word, reduced, then
    refined to the table's longest image: the depth of the inverse's code.
    For a uniform table the last two steps give back the first one's view."""
    matrix = table.matrix
    rev = [(rho, nu) for nu, rho in uniform_view_oracle(table).items()]
    depth = max(len(r) for r, _ in rev)
    _, reduced = uniform_reduce_oracle(matrix, depth, _uniform_refine(matrix, rev, depth))
    depth = max(map(len, table.images))
    return depth, _uniform_refine(matrix, reduced.items(), depth)


def uniform_order_oracle(table: TableMap, bound: int, entry_cap: int = 4096):
    """Least k <= bound with the k-th power trivial, by repeated composition
    with the uniform view of the reduced table.  Each power is kept as its
    reduced code, found by :func:`merge_families_oracle`, and the answer is
    None once that code has more than entry_cap words: the cap of
    TableMap.order, which counts the same code.  A power's code word is
    extended only until its image reaches the view's depth, so no view of
    a power is built: an element of infinite order has powers whose
    reduced depth grows with k, and whose views would grow exponentially."""
    matrix = table.matrix
    depth, view = uniform_reduce_oracle(matrix, table.depth, uniform_view_oracle(table))
    if all(v == w for w, v in view.items()):
        return 1
    power = view
    for k in range(2, bound + 1):
        pieces, stack = {}, list(power.items())
        while stack:
            nu, rho = stack.pop()
            if len(rho) >= depth:
                pieces[nu] = view[rho[:depth]] + rho[depth:]
            else:
                succ = matrix.successors(rho[-1]) if rho else matrix.symbols()
                stack.extend((nu + (a,), rho + (a,)) for a in succ)
        power = merge_families_oracle(matrix, pieces)
        if all(v == w for w, v in power.items()):
            return k
        if len(power) > entry_cap:
            return None
    return None


def search_order_oracle(matrix: TransitionMatrix, depth_bound: int, image_bound: int,
                        candidate_filter=None) -> list[TableMap]:
    """Every valid table within the bounds, in the documented search order,
    by plain recursive backtracking with only suffix-sum cover bounds.  The
    identity, the depth-0 table, is kept when the filter keeps the empty
    word as its own image, as the search keeps it."""
    def candidate_images(last):
        out = [w for k in range(1, image_bound + 1) for w in matrix.words(k)
               if matrix.row(w[-1]) == matrix.row(last)]
        return sorted(out, key=lambda w: (len(w), w))

    keep_identity = candidate_filter is None or candidate_filter((), [()])
    out = [TableMap.identity(matrix)] if keep_identity else []
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
            cands = candidate_images(nu[-1])
            if candidate_filter is not None:
                cands = candidate_filter(nu, cands)
            per_word.append([(w, mask_of(w)) for w in cands])
        best_cover = [max((m.bit_count() for _, m in c), default=0) for c in per_word]
        suffix_cover = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix_cover[i] = suffix_cover[i + 1] + best_cover[i]
        assignment = [()] * n

        def backtrack(i, used):
            if i == n:
                if used == full:
                    out.append(table_from(matrix, depth, dict(zip(domain, assignment))))
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
# Smith normal form oracle: the elimination as first written


def smith_normal_form_oracle(mat):
    """(S, P, Q) of the straightforward elimination that
    ``invariants.smith_normal_form`` must reproduce integer for integer:
    pivot on the first entry of least absolute value in row-major order,
    clear its column by row moves and its row by column moves, one
    ``col_i -= k col_j`` at a time, and add an offending row to the pivot
    row when divisibility fails.  Nothing is re-checked."""
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

    for t in range(min(rows, cols)):
        while True:
            pivot = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if s[i][j] and (pivot is None or abs(s[i][j]) < abs(s[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            if pivot[0] != t:
                s[t], s[pivot[0]] = s[pivot[0]], s[t]
                p[t], p[pivot[0]] = p[pivot[0]], p[t]
            if pivot[1] != t:
                for r in s + q:
                    r[t], r[pivot[1]] = r[pivot[1]], r[t]
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
        if s[t][t] < 0:
            s[t] = [-a for a in s[t]]
            p[t] = [-a for a in p[t]]
    return s, p, q


def shift_determinant_oracle(matrix: TransitionMatrix) -> int:
    """det(I_N - A) by a Bareiss elimination of its own, apart from the
    Smith form's check that ``BFGroup.shift_determinant`` reads.

    det(I - A) is a flow-equivalence invariant (Parry-Sullivan), so all
    presentations of one shift share it, whatever their sizes.
    det(A - I_N) = (-1)^N det(I_N - A) is not: it flips sign between
    presentations whose sizes differ in parity."""
    return determinant(
        [[(i == j) - v for j, v in enumerate(row)] for i, row in enumerate(matrix.entries)]
    )


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


def primary_orbit_oracle(p: int, exps, start) -> set:
    """Orbit of an element of the p-group sum of Z/p^e (e in exps) under all
    automorphisms, by closure under elementary generators: a unit multiple
    of one component, and adding to component i a multiple of component j
    scaled so that the map stays a homomorphism."""
    mods = [p**e for e in exps]
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
    start = tuple(start)
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
