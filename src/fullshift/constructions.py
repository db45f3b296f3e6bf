"""Witness-producing constructions inside the full group.

Each function here realizes one constructive statement about the group:
given clopen data it builds an explicit table (or family of tables) whose
defining properties can be machine-checked afterwards.  All choices made
during a construction are the lexicographically least valid ones, so a
given input always produces the same witness; the companion ``check_*``
functions re-derive every displayed condition of the corresponding
statement through public operations only.

The module also hosts the bounded exhaustive search over valid tables,
:func:`search_tables`, a generator in a fixed order whose pruning drops
only dead ends.  It serves as a decision fallback and as an independent
cross-check.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from itertools import combinations, islice
from typing import Callable, Iterator, Sequence

from .errors import (
    BadInput,
    EmptyInput,
    InadmissibleWord,
    NotAWitness,
    NotDisjoint,
    PreconditionFailed,
    SearchLimitExceeded,
)
from .sft import (
    CYLINDER_LIMIT,
    EMPTY_WORD,
    ClopenSet,
    EPPoint,
    TransitionMatrix,
    Word,
    connect_path,
    cut,
    cylinder,
    first_return,
    format_word,
    point_in,
    second_return,
)
from .tables import TableMap


def _incomparable(a: Word, b: Word) -> bool:
    k = min(len(a), len(b))
    return a[:k] != b[:k]


def cylinder_swap(matrix: TransitionMatrix, a: Word, b: Word) -> TableMap:
    """The involution exchanging two disjoint cylinders with row-equal ends."""
    return cylinder_permutation(matrix, [(a, b)])


def cylinder_permutation(matrix: TransitionMatrix, cycles: Sequence[Sequence[Word]]) -> TableMap:
    """The table carrying each word of a cycle onto the next; the other
    pieces of the space, cut along the words, are fixed.  Checked in this
    order: the cycle shapes, that the words are disjoint, each image's
    admissibility in image order, one follower row per cycle.  The table is
    sorted once, returned unreduced and needs no image check: the words are
    admissible and disjoint, so with the pieces of ``cut(matrix, words, ())``
    of index -1 they form a complete prefix code; the images permute that
    code (each cycle rotated, the other pieces fixed), so they are disjoint
    and cover the space; each cycle has one follower row, so every entry's
    rows match; and two disjoint words are never empty, so no image is."""
    if not cycles or any(len(cycle) < 2 for cycle in cycles):
        raise BadInput("need at least one cycle, each of at least two cylinders")
    images = [w for cycle in cycles for w in (*cycle[1:], cycle[0])]
    pairs = sorted(zip((w for cycle in cycles for w in cycle), images))
    words = [w for w, _ in pairs]
    # in sorted order a word comes right before the first word extending it
    for a, b in zip(words, words[1:]):
        if b[: len(a)] == a:
            raise NotDisjoint(f"cylinders {format_word(a)} and {format_word(b)} intersect")
    for rho in images:
        if not matrix.is_admissible(rho):
            raise InadmissibleWord(f"image {format_word(rho)} is not admissible")
    for cycle in cycles:
        if len({matrix.row(w[-1]) for w in cycle}) > 1:
            raise BadInput("cylinder ends have different follower rows")
    pieces = cut(matrix, words, EMPTY_WORD)
    # the given words, not cut's copies of them, so the images share them
    domain = tuple(w if k < 0 else words[k] for w, k in pieces)
    images = tuple(w if k < 0 else pairs[k][1] for w, k in pieces)
    return TableMap(matrix, domain, images)


# ---------------------------------------------------------------------------
# pointed involutions into a target


def _prefix_off_target(source: ClopenSet, target: ClopenSet, x: EPPoint) -> Word:
    """nu = x.prefix(m) for the least m >= max(source.depth, 2) whose cylinder
    does not contain the nonempty target.  Some m <= max(source.depth, 2,
    target.depth + n) qualifies.  Were the target inside the cylinder of
    x.prefix(m) with m >= target.depth + n, the n or more symbols past a
    target code word would be forced, each the only successor of the one
    before.  A forced chain of n steps repeats a symbol; the cycle between,
    which nothing leaves, would hold every symbol of the irreducible
    matrix, making it a permutation."""
    matrix = source.matrix
    start = max(source.depth, 2)
    bound = max(start, target.depth + matrix.n)
    for m in range(start, bound + 1):
        nu = x.prefix(m)
        if not target.is_subset_of(cylinder(matrix, nu)):
            return nu
    raise SearchLimitExceeded(
        f"the target lies in the cylinder of x's prefix of length {bound}; "
        "is the matrix a permutation?"
    )


def involution_into(
    source: ClopenSet, target: ClopenSet, x: EPPoint
) -> tuple[ClopenSet, TableMap]:
    """(V, alpha): V the cylinder of nu = :func:`_prefix_off_target`, around
    x inside the source, and alpha the :func:`cylinder_involution` of nu
    into the target, built as its swap, since nu meets its conditions."""
    if source.is_empty or target.is_empty:
        raise EmptyInput("source and target must be nonempty")
    if not source.contains_point(x):
        raise PreconditionFailed("the marked point does not lie in the source set")
    matrix = source.matrix
    nu = _prefix_off_target(source, target, x)
    return cylinder(matrix, nu), cylinder_swap(matrix, nu, _landing_word(matrix, nu, target))


def check_involution_into(
    source: ClopenSet,
    target: ClopenSet,
    x: EPPoint,
    neighbourhood: ClopenSet,
    alpha: TableMap,
) -> list[tuple[str, bool]]:
    return [
        ("x in V", neighbourhood.contains_point(x)),
        ("V inside source", neighbourhood.is_subset_of(source)),
        *_involution_checks(alpha, neighbourhood, "V", target, "target"),
    ]


def _involution_checks(
    alpha: TableMap, source: ClopenSet, s: str, target: ClopenSet, t: str
) -> list[tuple[str, bool]]:
    """The checks of an involution moving a source into a target, which the
    check names call s and t: the image lies in the target, alpha has order
    2, and it moves only points of the source and of its image."""
    image = alpha.image_clopen(source)
    return [
        (f"alpha({s}) inside {t}", image.is_subset_of(target)),
        ("alpha has order 2", alpha.order(2) == 2),
        (f"support inside {s} and alpha({s})", alpha.in_local_subgroup(source.union(image))),
    ]


# ---------------------------------------------------------------------------
# the canonical involution exchanging two equivalent disjoint clopen sets


def matched_partition(gamma: TableMap, u: ClopenSet) -> list[tuple[Word, Word]]:
    """Cylinder pairs (nu_i, rho_i) with the U_nu_i partitioning u, their
    images U_rho_i the gamma-images, both sides of length >= 2.

    Each code word of u is cut along the domain of gamma's reduced code,
    so every piece lies in one domain cylinder and is carried onto a
    cylinder by a prefix rewrite; a pair with a side shorter than 2 then
    gets the same extensions on both sides.  The pairs are the shallowest
    words inside u with both properties, sorted as ``cut`` and
    ``extensions`` give them.
    """
    matrix = gamma.matrix
    g = gamma.reduce()
    pairs = []
    for c in u.code:
        for nu, i in cut(matrix, g.domain, c):
            rho = g.images[i] + nu[len(g.domain[i]):]
            k = len(nu)
            ext = matrix.extensions(nu, k + max(0, 2 - k, 2 - len(rho)))
            pairs += [(w, rho + w[k:]) for w in ext]
    return pairs


def swap_involution(u: ClopenSet, v: ClopenSet, gamma: TableMap) -> TableMap:
    """Given gamma carrying u onto the disjoint set v, the involution that is
    gamma on u, its inverse on v, and the identity elsewhere.

    Built as one table permuting the cylinder pairs matched by gamma.
    """
    if u.is_empty or v.is_empty:
        raise EmptyInput("both clopen sets must be nonempty")
    if not u.intersection(v).is_empty:
        raise NotDisjoint("the two clopen sets intersect")
    if gamma.image_clopen(u) != v:
        raise NotAWitness("the supplied map does not carry the first set onto the second")
    return cylinder_permutation(u.matrix, matched_partition(gamma, u)).reduce()


def check_swap_involution(
    u: ClopenSet, v: ClopenSet, alpha: TableMap
) -> list[tuple[str, bool]]:
    return [
        ("alpha(U) = V", alpha.image_clopen(u) == v),
        ("alpha has order 2", alpha.order(2) == 2),
        ("identity outside U and V", alpha.in_local_subgroup(u.union(v))),
    ]


# ---------------------------------------------------------------------------
# moving one cylinder into an arbitrary clopen set


def _landing_word(matrix: TransitionMatrix, nu: Word, target: ClopenSet) -> Word:
    """The partner of nu in its cylinder involution into a target not inside
    nu's cylinder: the least target word missing nu, of the least depth
    >= max(target.depth, 1), then a path back into nu's last symbol.  Such
    words extend the pieces of the target's code cut along nu that miss
    nu, so the depth is at least the shortest piece's length."""
    pieces = [w for c in target.code for w, i in cut(matrix, (nu,), c) if i < 0]
    depth = max(target.depth, 1, min(map(len, pieces)))
    mu = next(matrix.extensions(next(p for p in pieces if len(p) <= depth), depth))
    return mu + connect_path(matrix, mu[-1], nu[-1]) + (nu[-1],)


def cylinder_involution(matrix: TransitionMatrix, nu: Word, target: ClopenSet) -> TableMap:
    """An involution sending the cylinder of nu (|nu| > 1) into a clopen set
    not containing it, supported on the cylinder and its image, which is
    the cylinder of :func:`_landing_word`.
    """
    nu = tuple(nu)
    if len(nu) <= 1:
        raise BadInput("the moved cylinder must have depth at least 2")
    if not matrix.is_admissible(nu):
        raise BadInput(f"word {format_word(nu)} is not admissible")
    if target.is_empty:
        raise BadInput("target set is empty")
    if target.is_subset_of(cylinder(matrix, nu)):
        raise BadInput("target set lies inside the moved cylinder")
    return cylinder_swap(matrix, nu, _landing_word(matrix, nu, target))


def check_cylinder_involution(
    matrix: TransitionMatrix, nu: Word, target: ClopenSet, alpha: TableMap
) -> list[tuple[str, bool]]:
    return _involution_checks(alpha, cylinder(matrix, tuple(nu)), "U_nu", target, "V")


# ---------------------------------------------------------------------------
# transporting a clopen set into a disjoint one


def _disjoint_corners(target: ClopenSet, count: int) -> list[ClopenSet]:
    """The `count` least cylinders of the nonempty target at the shallowest
    depth >= max(target.depth, 1) that has that many; they are pairwise
    disjoint.  Each depth's cylinders are counted only until they pass
    count - 1.  Under condition (I) every word has two extensions within n
    more symbols, so the count doubles every n levels and the search stops
    at depth max(target.depth, 1) + n * count."""
    start = max(target.depth, 1)
    matrix = target.matrix
    bound = start + matrix.n * count
    for depth in range(start, bound + 1):
        if matrix.count_within(target.code, depth, count - 1) is None:
            words = islice(target.view(depth), count)
            return [cylinder(matrix, w) for w in words]
    raise SearchLimitExceeded(
        f"target has fewer than {count} cylinders at depth {bound}; condition (I) violated?"
    )


def _landings(words: Sequence[Word], target: ClopenSet) -> list[tuple[Word, Word]]:
    """Each word paired with its :func:`_landing_word` in its own corner of
    the target, the corners of :func:`_disjoint_corners` in order."""
    corners = _disjoint_corners(target, len(words))
    return [(w, _landing_word(target.matrix, w, c)) for w, c in zip(words, corners)]


def clopen_transport(source: ClopenSet, target: ClopenSet) -> TableMap:
    """An involution carrying a whole clopen set into a disjoint clopen set.

    The source splits into the cylinders of its code words, those shorter
    than 2 split into their children, as :func:`matched_partition` splits
    a set carried by the identity; each is swapped, as by a cylinder
    involution, into its own corner of the target, all in one table.
    """
    matrix = source.matrix
    if source.is_empty or target.is_empty:
        raise EmptyInput("source and target must be nonempty")
    if not source.intersection(target).is_empty:
        raise NotDisjoint("source and target intersect")
    sources = [w for w, _ in matched_partition(TableMap.identity(matrix), source)]
    return cylinder_permutation(matrix, _landings(sources, target)).reduce()


def check_clopen_transport(
    source: ClopenSet, target: ClopenSet, alpha: TableMap
) -> list[tuple[str, bool]]:
    return _involution_checks(alpha, source, "U", target, "W")


# ---------------------------------------------------------------------------
# matched transports on the two sides of an invariant region


def paired_transport(
    region: ClopenSet,
    u: ClopenSet,
    v: ClopenSet,
    w: ClopenSet,
    w2: ClopenSet,
    gamma: TableMap,
) -> tuple[list[ClopenSet], list[ClopenSet], list[TableMap], list[TableMap]]:
    """Split equivalent sets u inside a region and v = gamma(u) outside it
    into matched cylinder partitions, with involutions moving the pieces
    into w (inside, staying local to the region) and w2 (outside): each
    piece has length >= 2 and misses its target, so its swap into a corner
    is its cylinder involution.  Returns (u_parts, v_parts, alphas, betas)."""
    matrix = region.matrix
    for name, pred in [
        ("U nonempty", not u.is_empty),
        ("V nonempty", not v.is_empty),
        ("W nonempty", not w.is_empty),
        ("W' nonempty", not w2.is_empty),
        ("U inside O", u.is_subset_of(region)),
        ("V inside complement of O", v.is_subset_of(region.complement())),
        ("W inside O", w.is_subset_of(region)),
        ("W' inside complement of O", w2.is_subset_of(region.complement())),
        ("U disjoint from W", u.intersection(w).is_empty),
        ("V disjoint from W'", v.intersection(w2).is_empty),
        ("gamma(U) = V", gamma.image_clopen(u) == v),
    ]:
        if not pred:
            raise PreconditionFailed(f"precondition failed: {name}")
    pairs = matched_partition(gamma, u)
    u_parts = [cylinder(matrix, a) for a, _ in pairs]
    v_parts = [cylinder(matrix, b) for _, b in pairs]
    alphas = [cylinder_swap(matrix, *p) for p in _landings([a for a, _ in pairs], w)]
    betas = [cylinder_swap(matrix, *p) for p in _landings([b for _, b in pairs], w2)]
    return u_parts, v_parts, alphas, betas


def check_paired_transport(
    region: ClopenSet,
    u: ClopenSet,
    v: ClopenSet,
    w: ClopenSet,
    w2: ClopenSet,
    gamma: TableMap,
    u_parts: Sequence[ClopenSet],
    v_parts: Sequence[ClopenSet],
    alphas: Sequence[TableMap],
    betas: Sequence[TableMap],
) -> list[tuple[str, bool]]:
    def disjoint(sets: Sequence[ClopenSet]) -> bool:
        return all(x.intersection(y).is_empty for x, y in combinations(sets, 2))

    matched = all(
        gamma.image_clopen(u_parts[i]) == v_parts[i] for i in range(len(u_parts))
    )
    a_images = [alphas[i].image_clopen(u_parts[i]) for i in range(len(alphas))]
    b_images = [betas[i].image_clopen(v_parts[i]) for i in range(len(betas))]
    complement = region.complement()
    return [
        ("U parts partition U", reduce(ClopenSet.union, u_parts) == u and disjoint(u_parts)),
        ("V parts partition V", reduce(ClopenSet.union, v_parts) == v and disjoint(v_parts)),
        ("gamma matches the partitions", matched),
        ("alpha_i(U_i) inside W", all(img.is_subset_of(w) for img in a_images)),
        ("beta_i(V_i) inside W'", all(img.is_subset_of(w2) for img in b_images)),
        ("alpha images pairwise disjoint", disjoint(a_images)),
        ("beta images pairwise disjoint", disjoint(b_images)),
        ("alpha_i are involutions", all(a.order(2) == 2 for a in alphas)),
        ("beta_i are involutions", all(b.order(2) == 2 for b in betas)),
        ("alpha_i local to O", all(a.in_local_subgroup(region) for a in alphas)),
        ("beta_i local to complement", all(b.in_local_subgroup(complement) for b in betas)),
    ]


# ---------------------------------------------------------------------------
# minimality witnesses: any nonempty set reaches into any other


def minimality_source(u: ClopenSet, v: ClopenSet) -> ClopenSet:
    """The effective source set the minimality witness acts on.

    When the source already sits inside the target nothing needs moving,
    and a source disjoint from it is moved whole; when they overlap
    otherwise, the first cylinder of the difference is moved instead, which
    still exhibits a point of the target's side.
    """
    rest = u.difference(v)
    if rest.is_empty or rest == u:
        return u
    return cylinder(u.matrix, next(rest.view(rest.depth)))


def minimality_witness(u: ClopenSet, v: ClopenSet) -> TableMap:
    """The identity when the effective source lies in v, else its transport."""
    if u.is_empty or v.is_empty:
        raise EmptyInput("both clopen sets must be nonempty")
    source = minimality_source(u, v)
    if source.is_subset_of(v):
        return TableMap.identity(u.matrix)
    return clopen_transport(source, v)


def check_minimality_witness(
    u: ClopenSet, v: ClopenSet, gamma: TableMap
) -> list[tuple[str, bool]]:
    source = minimality_source(u, v)
    return [
        ("gamma(U) inside V", gamma.image_clopen(source).is_subset_of(v)),
    ]


# ---------------------------------------------------------------------------
# the order-2 / order-3 pair contracting a cylinder


def free_pair(region: ClopenSet) -> tuple[TableMap, TableMap, ClopenSet]:
    """An involution psi and an order-3 element phi supported in the region,
    with a cylinder F such that phi(F) and phi^2(F) are disjoint subsets
    of psi(F).

    This is the exact geometric configuration that rules out invariant
    probability measures: F would need measure zero.
    """
    matrix = region.matrix
    if region.is_empty:
        raise EmptyInput("region must be nonempty")
    nu = next(region.view(max(region.depth, 1)))
    # u is unique, so a tie never compares the words
    _, u, link, ret = min(
        (len(link) + len(ret), u, link, ret)
        for u in matrix.symbols()
        for link in [connect_path(matrix, nu[-1], u)]
        for ret in [first_return(matrix, u, min_len=2)]
    )
    stem = nu + link + (u,)
    other = second_return(matrix, u, ret)
    base = stem + ret
    psi = cylinder_swap(matrix, base, stem + other)
    phi = cylinder_permutation(
        matrix, [(stem + other + other, stem + other + ret, base)]
    )
    return psi, phi, cylinder(matrix, base)


def check_free_pair(
    region: ClopenSet, psi: TableMap, phi: TableMap, base: ClopenSet
) -> list[tuple[str, bool]]:
    psi_f = psi.image_clopen(base)
    phi_f = phi.image_clopen(base)
    phi2_f = phi.image_clopen(phi_f)
    return [
        ("psi has order 2", psi.order(2) == 2),
        ("phi has order 3", phi.order(3) == 3),
        ("psi supported in O", psi.in_local_subgroup(region)),
        ("phi supported in O", phi.in_local_subgroup(region)),
        ("F nonempty inside O", (not base.is_empty) and base.is_subset_of(region)),
        ("phi(F) and phi^2(F) disjoint", phi_f.intersection(phi2_f).is_empty),
        ("phi(F) and phi^2(F) inside psi(F)", phi_f.union(phi2_f).is_subset_of(psi_f)),
    ]


# ---------------------------------------------------------------------------
# conjugating a nontrivial local element to act on a given set


def _disjoint_moved_cylinder(eta: TableMap) -> ClopenSet:
    """A cylinder Y with eta(Y) disjoint from Y, inside the support of eta.

    Reads the first moved code word nu of the reduced table: the least
    extension of nu, at most |len(rho) - len(nu)| symbols longer, that the
    rewrite to its image rho carries off itself.
    """
    g = eta.reduce()
    matrix = g.matrix
    for nu, rho in zip(g.domain, g.images):
        if rho == nu:
            continue
        # comparable nu and rho fix one point of the cylinder, whose track
        # repeats with period p = |len(rho) - len(nu)|; an unbranched cycle
        # would be a permutation component, so the track branches within p
        for extra in range(abs(len(rho) - len(nu)) + 1):
            for t in matrix.extensions(nu, len(nu) + extra):
                if _incomparable(t, rho + t[len(nu):]):
                    return cylinder(matrix, t)
    raise SearchLimitExceeded("no moved cylinder found; is the element trivial?")


def _moves_points_of(eta: TableMap, clopen: ClopenSet) -> bool:
    """Whether the set meets a moved code word's cylinder, so eta's support."""
    return any(clopen.meets_word(nu) for nu, rho in zip(eta.domain, eta.images) if rho != nu)


def localize_conjugate(eta: TableMap, u: ClopenSet, region: ClopenSet) -> TableMap:
    """A local element gamma such that the conjugate of eta by gamma moves
    points of u.  When eta already moves points of u the identity is a
    legitimate witness.

    Otherwise u misses eta's support S, and Y lies inside S.  eta(S) = S,
    since a point is moved exactly when its image is; so Y and eta(Y)
    miss u, and u's corner U1 and rest U2 serve whole as the sources.
    Words of U1 and U2 go into Y and eta(Y) as in :func:`involution_into`;
    the four cylinders lie in the pairwise disjoint U1, Y, U2 and eta(Y),
    so the two swaps are one table, the reduced code of their composite.
    """
    matrix = eta.matrix
    if u.is_empty:
        raise PreconditionFailed("U must be nonempty")
    if not u.is_subset_of(region):
        raise PreconditionFailed("U must lie inside the region")
    if eta.is_identity:
        raise PreconditionFailed("eta must be nontrivial")
    if not eta.in_local_subgroup(region):
        raise PreconditionFailed("eta must be local to the region")
    if _moves_points_of(eta, u):
        return TableMap.identity(matrix)
    u1 = _disjoint_corners(u, 2)[0]
    u2 = u.difference(u1)
    y = _disjoint_moved_cylinder(eta)
    nu1 = _prefix_off_target(u1, y, point_in(u1))
    lambda1 = _landing_word(matrix, nu1, y)
    bridge = eta.image_clopen(cylinder(matrix, lambda1))
    nu2 = _prefix_off_target(u2, bridge, point_in(u2))
    lambda2 = _landing_word(matrix, nu2, bridge)
    return cylinder_permutation(matrix, [(nu1, lambda1), (nu2, lambda2)]).reduce()


def check_localize_conjugate(
    eta: TableMap, u: ClopenSet, region: ClopenSet, gamma: TableMap
) -> list[tuple[str, bool]]:
    """supp(gamma^-1 eta gamma) = gamma^-1(supp eta), and U is open, so the
    conjugate moves a point of U exactly when gamma(U) meets supp eta."""
    return [
        ("gamma local to the region", gamma.in_local_subgroup(region)),
        ("conjugate moves points of U", _moves_points_of(eta, gamma.image_clopen(u))),
    ]


# ---------------------------------------------------------------------------
# checks for the factorization over an invariant set


def check_split_invariant(
    gamma: TableMap, region: ClopenSet, part_in: TableMap, part_out: TableMap
) -> list[tuple[str, bool]]:
    return [
        ("first factor local to O", part_in.in_local_subgroup(region)),
        ("second factor local to complement", part_out.in_local_subgroup(region.complement())),
        ("factors compose to gamma", part_in.compose(part_out) == gamma),
    ]


# ---------------------------------------------------------------------------
# bounded exhaustive search over valid tables


def _candidate_images(
    matrix: TransitionMatrix, last: int, image_bound: int
) -> list[Word]:
    """Every admissible word of length 1..image_bound whose last symbol has
    the row of `last`, ordered by (length, word)."""
    row = matrix.row(last)
    return [
        w for k in range(1, image_bound + 1) for w in matrix.words(k) if matrix.row(w[-1]) == row
    ]


# the leaf masks of the search take about (words of length 1..image bound)
# x (leaves) / 2 bits, for each mask starts at its first leaf; 2^31 bits,
# 256 MiB, admits image bounds up to 15 on the full 2-shift
MASK_BIT_LIMIT = 1 << 31


def search_tables(
    matrix: TransitionMatrix,
    depth_bound: int,
    image_bound: int,
    candidate_filter: Callable[[Word, list[Word]], list[Word]] | None = None,
) -> Iterator[TableMap]:
    """Every valid table within the bounds whose images pass the filter.

    Tables come in a fixed deterministic order: by increasing depth, the
    domain words assigned images in lexicographic order, with candidate
    images ordered by (length, word); ``candidate_filter(nu, cands)``
    returns the candidates it keeps for domain word nu, in that order; the
    depth-0 identity comes first if it keeps [EMPTY_WORD] for EMPTY_WORD.  A
    depth-d table is a choice of one candidate per depth-d word whose image
    cylinders partition the space; each candidate is a bitset over the
    words of length image_bound (the leaves) it covers, so the choices must
    be pairwise disjoint and cover all n_leaves leaves.  The image
    cylinders are nonempty and disjoint, so no table has more domain words
    than leaves; word counts never fall with length, so the search stops
    at the first depth with more.  Three exact rules cut the backtracking:

    * reach[i] is the bitset of leaf counts that domain words i..n-1 could
      still cover together, one candidate each, ignoring overlaps.  A
      choice at position i is kept only when reach[i+1] holds the number
      of leaves it leaves free.
    * Closing lookup: the last domain word scans no candidates, because
      the leaves still free must be exactly one candidate's cylinder,
      looked up by its bitset.
    * Closing pair: neither does the second-to-last.  Its free leaves fix
      the list of (candidate, closing candidate) pairs that finish the
      table, in candidate order; the list is built the first time those
      free leaves are seen at a depth and looked up after that.

    The rules drop only branches holding no complete table, so the
    sequence of tables is the one plain backtracking would give.  Before
    the first depth, an image bound past ``CYLINDER_LIMIT`` leaves or
    ``MASK_BIT_LIMIT`` bits of leaf masks is refused.
    """
    if candidate_filter is None or candidate_filter(EMPTY_WORD, [EMPTY_WORD]):
        yield TableMap.identity(matrix)
    top = image_bound
    n_leaves = matrix.count_within((EMPTY_WORD,), top, CYLINDER_LIMIT)
    if n_leaves is None:
        raise BadInput(
            f"image bound {top} spans more than {CYLINDER_LIMIT} cylinders; "
            "search bookkeeping would not fit"
        )
    # word counts never fall with length, so none up to top passes n_leaves
    n_words = sum(matrix.count_within((EMPTY_WORD,), k, n_leaves) for k in range(1, top + 1))
    mask_bits = n_words * n_leaves // 2
    if mask_bits > MASK_BIT_LIMIT:
        raise BadInput(
            f"image bound {top} needs about {mask_bits} bits of leaf masks, "
            f"more than {MASK_BIT_LIMIT}; search bookkeeping would not fit"
        )
    leaves = matrix.words(top)
    full = (1 << n_leaves) - 1
    masks: dict[Word, tuple[int, int]] = {}

    def mask_of(word: Word) -> tuple[int, int]:
        """The leaves under word as a bitset, and how many there are: the
        extensions of word to length top are a run of the sorted leaves,
        from word itself to below word followed by a symbol past n."""
        entry = masks.get(word)
        if entry is None:
            lo = bisect_left(leaves, word)
            count = bisect_left(leaves, word + (matrix.n + 1,), lo) - lo
            entry = masks[word] = (((1 << count) - 1) << lo, count)
        return entry

    base: dict[int, list[Word]] = {}
    for depth in range(1, depth_bound + 1):
        if matrix.count_within((EMPTY_WORD,), depth, n_leaves) is None:
            break
        domain = matrix.words(depth)
        n = len(domain)
        per_word: list[list[tuple[Word, int, int]]] = []
        for nu in domain:
            cands = base.get(nu[-1])
            if cands is None:
                cands = base[nu[-1]] = _candidate_images(matrix, nu[-1], image_bound)
            if candidate_filter is not None:
                cands = candidate_filter(nu, cands)
            per_word.append([(w, *mask_of(w)) for w in cands])
        reach = [0] * (n + 1)
        reach[n] = 1
        for i in range(n - 1, -1, -1):
            for size in {size for _, _, size in per_word[i]}:
                reach[i] |= reach[i + 1] << size
            reach[i] &= (full << 1) | 1
        if not reach[0] >> n_leaves & 1:
            continue
        # distinct candidates have distinct cylinders: one cylinder with two
        # row-equal words needs a cycle of forced symbols, which condition
        # (I) rules out; so a leaf set names at most one closing candidate
        closing = {m: w for w, m, _ in per_word[n - 1]}
        # the closing pairs for the last two domain words, by the leaves they
        # must cover together, filled the first time a leaf set is seen
        pairs: dict[int, list[tuple[Word, Word]]] = {}
        # iterative backtracking: position i tries per_word[i] from nxt[i],
        # with used[i] the leaves covered by the choices before it; a valid
        # matrix has at least two words of each depth, so n >= 2
        assignment: list[Word] = [EMPTY_WORD] * (n - 2)
        used = [0] * (n - 1)
        nxt = [0] * (n - 1)
        i = 0
        while i >= 0:
            if i == n - 2:
                free = full ^ used[i]
                found = pairs.get(free)
                if found is None:
                    found = pairs[free] = [
                        (w, closing[free ^ m])
                        for w, m, _ in per_word[i]
                        if not m & ~free and free ^ m in closing
                    ]
                for w, c in found:
                    yield TableMap(matrix, domain, (*assignment, w, c))
                i -= 1
                continue
            cands, taken, fits = per_word[i], used[i], reach[i + 1]
            free = n_leaves - taken.bit_count()
            for j in range(nxt[i], len(cands)):
                w, m, size = cands[j]
                if not taken & m and fits >> (free - size) & 1:
                    assignment[i] = w
                    nxt[i] = j + 1
                    i += 1
                    used[i] = taken | m
                    nxt[i] = 0
                    break
            else:
                i -= 1


def _run_search(
    matrix: TransitionMatrix,
    depth_bound: int,
    image_bound: int,
    visit: Callable[[TableMap], object],
    candidate_filter: Callable[[Word, list[Word]], list[Word]] | None = None,
):
    """The first non-None ``visit(table)`` over :func:`search_tables`, else
    None.  Every search runs here through :func:`witness_search`, so the
    benchmark's traced run (bench/spans.py) wraps this one function."""
    for table in search_tables(matrix, depth_bound, image_bound, candidate_filter):
        result = visit(table)
        if result is not None:
            return result
    return None


def witness_search(
    matrix: TransitionMatrix,
    predicate: Callable[[TableMap], bool],
    depth_bound: int,
    image_bound: int,
    candidate_filter: Callable[[Word, list[Word]], list[Word]] | None = None,
) -> TableMap | None:
    """First valid table satisfying the predicate, a condition on whole
    tables, among those whose images pass the candidate filter, in the
    order of :func:`search_tables`; None when the bounded space is
    exhausted."""
    if depth_bound < 1 or image_bound < 1:
        raise BadInput("search bounds must be at least 1")
    return _run_search(
        matrix, depth_bound, image_bound, lambda t: t if predicate(t) else None, candidate_filter
    )
