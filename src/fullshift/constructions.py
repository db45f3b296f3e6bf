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
from typing import Callable, Iterator, Sequence

from .errors import (
    BadInput,
    EmptyInput,
    NotAWitness,
    NotDisjoint,
    PreconditionFailed,
    SearchLimitExceeded,
)
from .sft import (
    EMPTY_WORD,
    ClopenSet,
    EPPoint,
    TransitionMatrix,
    Word,
    connect_path,
    cylinder,
    distinct_path_pair,
    first_return,
    format_word,
    point_in,
)
from .tables import TableMap, validate_images

_SHRINK_CAP = 64


def _incomparable(a: Word, b: Word) -> bool:
    k = min(len(a), len(b))
    return a[:k] != b[:k]


def _cylinder_table(matrix: TransitionMatrix, moves: dict[Word, Word]) -> TableMap:
    """The table carrying each cylinder in `moves` onto the cylinder of its
    image and fixing the rest.  Its code is the moved words plus, along
    the path to each, the sibling words the path passes."""
    code = dict(moves)
    path = {w[:k] for w in moves for k in range(len(w))}
    for p in path:
        for a in matrix.successors(p[-1]) if p else matrix.symbols():
            w = p + (a,)
            if w not in path and w not in code:
                code[w] = w
    validate_images(matrix, code)
    return TableMap(matrix, max(map(len, moves)), code)


def cylinder_swap(matrix: TransitionMatrix, a: Word, b: Word) -> TableMap:
    """The involution exchanging two disjoint cylinders with row-equal ends."""
    if not _incomparable(a, b):
        raise NotDisjoint(f"cylinders {format_word(a)} and {format_word(b)} intersect")
    if matrix.row(a[-1]) != matrix.row(b[-1]):
        raise BadInput("cylinder ends have different follower rows")
    return _cylinder_table(matrix, {a: b, b: a})


def cylinder_cycle(matrix: TransitionMatrix, words: Sequence[Word]) -> TableMap:
    """The permutation cycling a list of pairwise disjoint cylinders whose
    ending symbols all share one follower row."""
    if len(words) < 2:
        raise BadInput("need at least two cylinders to cycle")
    for i, a in enumerate(words):
        for b in words[i + 1:]:
            if not _incomparable(a, b):
                raise NotDisjoint(f"cylinders {format_word(a)} and {format_word(b)} intersect")
        if matrix.row(a[-1]) != matrix.row(words[0][-1]):
            raise BadInput("cylinder ends have different follower rows")
    return _cylinder_table(
        matrix, {w: words[(i + 1) % len(words)] for i, w in enumerate(words)}
    )


def _proper_subcylinder(clopen: ClopenSet) -> ClopenSet:
    """A nonempty proper clopen subset: the least cylinder at the first
    branching depth.  Exists because no cylinder is a single point."""
    depth = clopen.depth
    for _ in range(_SHRINK_CAP):
        words = sorted(clopen.refine(max(depth, 1)))
        if len(words) >= 2:
            return cylinder(clopen.matrix, words[0])
        depth = max(depth, 1) + 1
    raise SearchLimitExceeded("clopen set failed to branch; condition (I) violated?")


# ---------------------------------------------------------------------------
# pointed involutions into a target


def involution_into(
    source: ClopenSet, target: ClopenSet, x: EPPoint
) -> tuple[ClopenSet, TableMap]:
    """An involution moving a small neighbourhood of x inside `source` into
    `target`, identity elsewhere.

    Returns (V, alpha) with x in V, V inside the source, alpha(V) inside
    the target, alpha an involution supported on V and alpha(V).  The
    witness is assembled from a cylinder inside the target, a pair of
    distinct connecting paths (which exist by non-degeneracy of the
    matrix), and a connecting word back into the chosen neighbourhood.
    """
    matrix = source.matrix
    if source.is_empty or target.is_empty:
        raise EmptyInput("source and target must be nonempty")
    if not source.contains_point(x):
        raise PreconditionFailed("the marked point does not lie in the source set")
    mu = min(target.refine(max(target.depth, 1)))
    s, sp, u = distinct_path_pair(matrix, mu[-1])
    m = max(source.depth, len(mu) + len(s) + 2)
    nu = x.prefix(m)
    xi = connect_path(matrix, u, nu[-1])
    candidates = sorted(
        (mu + branch + (u,) + xi + (nu[-1],) for branch in (s, sp))
    )
    cut = len(mu) + len(s) + 1
    chosen = next(c for c in candidates if c[:cut] != nu[:cut])
    alpha = cylinder_swap(matrix, nu, chosen)
    return cylinder(matrix, nu), alpha


def check_involution_into(
    source: ClopenSet,
    target: ClopenSet,
    x: EPPoint,
    neighbourhood: ClopenSet,
    alpha: TableMap,
) -> list[tuple[str, bool]]:
    image = alpha.image_clopen(neighbourhood)
    return [
        ("x in V", neighbourhood.contains_point(x)),
        ("V inside source", neighbourhood.is_subset_of(source)),
        ("alpha(V) inside target", image.is_subset_of(target)),
        ("alpha has order 2", alpha.order(2) == 2),
        ("support inside V and alpha(V)", alpha.support().is_subset_of(neighbourhood.union(image))),
    ]


# ---------------------------------------------------------------------------
# the canonical involution exchanging two equivalent disjoint clopen sets


def matched_partition(
    gamma: TableMap, u: ClopenSet, min_len: int = 2
) -> list[tuple[Word, Word]]:
    """Cylinder pairs (nu_i, rho_i) with the U_nu_i partitioning u, their
    images U_rho_i the gamma-images, both sides of length >= min_len.

    A table map carries each sufficiently deep cylinder onto a cylinder by
    a prefix rewrite; this extracts that matched family at the shallowest
    depths it holds.  Walking down from the root, a word inside u is taken
    as soon as it has length >= min_len and the reduced code of gamma
    rewrites it onto an image of length >= min_len, and in any case at
    depth max(gamma.depth, u.depth, min_len).  Pairs whose image is still
    shorter than min_len are then split into their children.
    """
    matrix = gamma.matrix
    g = gamma.reduce()
    depth = max(gamma.depth, u.depth, min_len)
    pairs: dict[Word, Word] = {}
    stack = [EMPTY_WORD]
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


def swap_involution(u: ClopenSet, v: ClopenSet, gamma: TableMap) -> TableMap:
    """Given gamma carrying u onto the disjoint set v, the involution that is
    gamma on u, its inverse on v, and the identity elsewhere.

    Built as the product of the cylinder swaps matched by gamma; the
    factors have pairwise disjoint supports inside u and v.
    """
    if u.is_empty or v.is_empty:
        raise EmptyInput("both clopen sets must be nonempty")
    if not u.intersection(v).is_empty:
        raise NotDisjoint("the two clopen sets intersect")
    if gamma.image_clopen(u) != v:
        raise NotAWitness("the supplied map does not carry the first set onto the second")
    result = TableMap.identity(u.matrix)
    for nu, rho in matched_partition(gamma, u):
        result = result.compose(cylinder_swap(u.matrix, nu, rho))
    return result


def check_swap_involution(
    u: ClopenSet, v: ClopenSet, alpha: TableMap
) -> list[tuple[str, bool]]:
    return [
        ("alpha(U) = V", alpha.image_clopen(u) == v),
        ("alpha has order 2", alpha.order(2) == 2),
        ("identity outside U and V", alpha.support().is_subset_of(u.union(v))),
    ]


# ---------------------------------------------------------------------------
# moving one cylinder into an arbitrary clopen set


def cylinder_involution(matrix: TransitionMatrix, nu: Word, target: ClopenSet) -> TableMap:
    """An involution sending the cylinder of nu (|nu| > 1) into a clopen set
    not containing it, supported on the cylinder and its image.

    The image is the cylinder of the least target word disjoint from nu,
    extended by a connecting path back into nu's final symbol so the two
    ends share a follower row.  The target is refined no deeper than
    needed to exhibit a disjoint word.
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
    mu = None
    start = max(target.depth, 1)
    for depth in range(start, max(len(nu), start) + 1):
        for w in sorted(target.refine(depth)):
            k = min(len(w), len(nu))
            if w[:k] != nu[:k]:
                mu = w
                break
        if mu is not None:
            break
    if mu is None:
        raise SearchLimitExceeded("no target word disjoint from the moved cylinder")
    xi = connect_path(matrix, mu[-1], nu[-1])
    return cylinder_swap(matrix, nu, mu + xi + (nu[-1],))


def check_cylinder_involution(
    matrix: TransitionMatrix, nu: Word, target: ClopenSet, alpha: TableMap
) -> list[tuple[str, bool]]:
    source = cylinder(matrix, tuple(nu))
    image = alpha.image_clopen(source)
    return [
        ("alpha(U_nu) inside V", image.is_subset_of(target)),
        ("alpha has order 2", alpha.order(2) == 2),
        ("support inside U_nu and alpha(U_nu)", alpha.support().is_subset_of(source.union(image))),
    ]


# ---------------------------------------------------------------------------
# transporting a clopen set into a disjoint one


def _refined_count(clopen: ClopenSet, depth: int) -> int:
    if clopen.depth == 0:
        return clopen.matrix.word_count(depth) if not clopen.is_empty else 0
    return sum(
        clopen.matrix.continuation_count(w[-1], depth - clopen.depth)
        for w in clopen.words
    )


def _disjoint_corners(target: ClopenSet, count: int) -> list[ClopenSet]:
    """`count` pairwise disjoint cylinders inside the target, found at the
    shallowest refinement with enough branches."""
    depth = max(target.depth, 1)
    for _ in range(_SHRINK_CAP):
        if _refined_count(target, depth) >= count:
            words = sorted(target.refine(depth))
            return [cylinder(target.matrix, w) for w in words[:count]]
        depth += 1
    raise SearchLimitExceeded("target failed to branch; condition (I) violated?")


def clopen_transport(source: ClopenSet, target: ClopenSet) -> TableMap:
    """An involution carrying a whole clopen set into a disjoint clopen set.

    The source splits into cylinders; each is moved by a cylinder
    involution into its own corner of the target, so the pieces have
    pairwise disjoint supports, commute, and multiply to an involution.
    """
    matrix = source.matrix
    if source.is_empty or target.is_empty:
        raise EmptyInput("source and target must be nonempty")
    if not source.intersection(target).is_empty:
        raise NotDisjoint("source and target intersect")
    sources = sorted(source.refine(max(source.depth, 2)))
    corners = _disjoint_corners(target, len(sources))
    result = TableMap.identity(matrix)
    for word, corner in zip(sources, corners):
        result = result.compose(cylinder_involution(matrix, word, corner))
    return result


def check_clopen_transport(
    source: ClopenSet, target: ClopenSet, alpha: TableMap
) -> list[tuple[str, bool]]:
    image = alpha.image_clopen(source)
    return [
        ("alpha(U) inside W", image.is_subset_of(target)),
        ("alpha has order 2", alpha.order(2) == 2),
        ("support inside U and alpha(U)", alpha.support().is_subset_of(source.union(image))),
    ]


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
    into w (inside, staying local to the region) and w2 (outside).

    Returns (u_parts, v_parts, alphas, betas).
    """
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
    corners_w = _disjoint_corners(w, len(pairs))
    corners_w2 = _disjoint_corners(w2, len(pairs))
    alphas = [
        cylinder_involution(matrix, a, corner)
        for (a, _), corner in zip(pairs, corners_w)
    ]
    betas = [
        cylinder_involution(matrix, b, corner)
        for (_, b), corner in zip(pairs, corners_w2)
    ]
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
    matrix = region.matrix
    union_u = u_parts[0]
    for p in u_parts[1:]:
        union_u = union_u.union(p)
    union_v = v_parts[0]
    for p in v_parts[1:]:
        union_v = union_v.union(p)
    disjoint_u = all(
        u_parts[i].intersection(u_parts[j]).is_empty
        for i in range(len(u_parts))
        for j in range(i + 1, len(u_parts))
    )
    disjoint_v = all(
        v_parts[i].intersection(v_parts[j]).is_empty
        for i in range(len(v_parts))
        for j in range(i + 1, len(v_parts))
    )
    matched = all(
        gamma.image_clopen(u_parts[i]) == v_parts[i] for i in range(len(u_parts))
    )
    a_images = [alphas[i].image_clopen(u_parts[i]) for i in range(len(alphas))]
    b_images = [betas[i].image_clopen(v_parts[i]) for i in range(len(betas))]
    a_disjoint = all(
        a_images[i].intersection(a_images[j]).is_empty
        for i in range(len(a_images))
        for j in range(i + 1, len(a_images))
    )
    b_disjoint = all(
        b_images[i].intersection(b_images[j]).is_empty
        for i in range(len(b_images))
        for j in range(i + 1, len(b_images))
    )
    complement = region.complement()
    return [
        ("U parts partition U", union_u == u and disjoint_u),
        ("V parts partition V", union_v == v and disjoint_v),
        ("gamma matches the partitions", matched),
        ("alpha_i(U_i) inside W", all(img.is_subset_of(w) for img in a_images)),
        ("beta_i(V_i) inside W'", all(img.is_subset_of(w2) for img in b_images)),
        ("alpha images pairwise disjoint", a_disjoint),
        ("beta images pairwise disjoint", b_disjoint),
        ("alpha_i are involutions", all(a.order(2) == 2 for a in alphas)),
        ("beta_i are involutions", all(b.order(2) == 2 for b in betas)),
        ("alpha_i local to O", all(a.in_local_subgroup(region) for a in alphas)),
        ("beta_i local to complement", all(b.in_local_subgroup(complement) for b in betas)),
    ]


# ---------------------------------------------------------------------------
# minimality witnesses: any nonempty set reaches into any other


def minimality_source(u: ClopenSet, v: ClopenSet) -> ClopenSet:
    """The effective source set the minimality witness acts on.

    When the source already sits inside the target nothing needs moving;
    when they overlap otherwise, the first cylinder of the difference is
    moved instead, which still exhibits a point of the target's side.
    """
    rel = u.compare(v)
    if rel in ("equal", "subset"):
        return u
    if rel == "disjoint":
        return u
    return cylinder(u.matrix, min(u.difference(v).words))


def minimality_witness(u: ClopenSet, v: ClopenSet) -> TableMap:
    """A group element carrying the effective source into the target set."""
    if u.is_empty or v.is_empty:
        raise EmptyInput("both clopen sets must be nonempty")
    rel = u.compare(v)
    if rel in ("equal", "subset"):
        return TableMap.identity(u.matrix)
    source = minimality_source(u, v)
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
    nu = min(region.refine(max(region.depth, 1)))
    best: tuple[int, int, Word, Word] | None = None
    for u in matrix.symbols():
        link = connect_path(matrix, nu[-1], u)
        ret = first_return(matrix, u, min_len=2)
        key = (len(link) + len(ret), u)
        if best is None or key < (best[0], best[1]):
            best = (len(link) + len(ret), u, link, ret)
    _, u, link, ret = best
    stem = nu + link + (u,)
    other = _second_return(matrix, u, ret)
    base = stem + ret
    psi = cylinder_swap(matrix, base, stem + other)
    phi = cylinder_cycle(
        matrix, [stem + other + other, stem + other + ret, base]
    )
    return psi, phi, cylinder(matrix, base)


def _second_return(matrix: TransitionMatrix, u: int, ret: Word) -> Word:
    """A return word at u of length >= 3, prefix-incomparable with `ret`."""
    frontier: list[Word] = [(a,) for a in matrix.successors(u)]
    length = 1
    cap = len(ret) + matrix.n * matrix.n + 4
    while length <= cap:
        if length >= 3:
            for r in frontier:
                if r[-1] == u and _incomparable(r, ret):
                    return r
        frontier = [r + (a,) for r in frontier for a in matrix.successors(r[-1])]
        length += 1
        if len(frontier) > 200000:
            frontier = frontier[:200000]
    raise SearchLimitExceeded(f"no second return word at {u}; condition (I) violated?")


def check_free_pair(
    region: ClopenSet, psi: TableMap, phi: TableMap, base: ClopenSet
) -> list[tuple[str, bool]]:
    psi_f = psi.image_clopen(base)
    phi_f = phi.image_clopen(base)
    phi2_f = phi.image_clopen(phi_f)
    return [
        ("psi has order 2", psi.order(3) == 2),
        ("phi has order 3", phi.order(4) == 3),
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

    Tries the moved entries of the reduced table's uniform view in
    lexicographic order; they are the extensions of the moved code words.
    """
    g = eta.reduce()
    matrix = g.matrix
    for word in sorted(g.code):
        image = g.code[word]
        if image == word:
            continue
        for nu in matrix.extensions(word, g.depth):
            rho = image + nu[len(word):]
            if _incomparable(nu, rho):
                return cylinder(matrix, nu)
            # the entry fixes one point of the cylinder; move off its track
            for extra in range(1, _SHRINK_CAP):
                found = None
                for t in matrix.extensions(nu, len(nu) + extra):
                    tail = t[len(nu):]
                    if _incomparable(nu + tail, rho + tail):
                        found = nu + tail
                        break
                if found is not None:
                    return cylinder(matrix, found)
    raise SearchLimitExceeded("no moved cylinder found; is the element trivial?")


def localize_conjugate(eta: TableMap, u: ClopenSet, region: ClopenSet) -> TableMap:
    """A local element gamma such that the conjugate of eta by gamma moves
    points of u.  When eta already moves points of u the identity is a
    legitimate witness.
    """
    matrix = eta.matrix
    if u.is_empty:
        raise PreconditionFailed("U must be nonempty")
    if not u.is_subset_of(region):
        raise PreconditionFailed("U must lie inside the region")
    if eta.reduce().is_identity:
        raise PreconditionFailed("eta must be nontrivial")
    if not eta.in_local_subgroup(region):
        raise PreconditionFailed("eta must be local to the region")
    support = eta.support()
    if not support.intersection(u).is_empty:
        return TableMap.identity(matrix)
    words = sorted(u.refine(max(u.depth, 1)))
    for _ in range(_SHRINK_CAP):
        if len(words) >= 2:
            break
        words = sorted(u.refine(len(words[0]) + 1))
    else:
        raise SearchLimitExceeded("U failed to branch; condition (I) violated?")
    u1 = cylinder(matrix, words[0])
    u2 = u.difference(u1)
    y = _disjoint_moved_cylinder(eta)
    for _ in range(_SHRINK_CAP):
        eta_y = eta.image_clopen(y)
        if not u1.difference(eta_y).is_empty and not u2.difference(y).is_empty:
            break
        y = _proper_subcylinder(y)
    else:
        raise SearchLimitExceeded("could not shrink the moved cylinder far enough")
    eta_y = eta.image_clopen(y)
    first_src = u1.difference(eta_y)
    v1, alpha = involution_into(first_src, y, point_in(first_src))
    bridge = eta.image_clopen(alpha.image_clopen(v1))
    second_src = u2.difference(y)
    v2, beta = involution_into(second_src, bridge, point_in(second_src))
    return alpha.compose(beta)


def check_localize_conjugate(
    eta: TableMap, u: ClopenSet, region: ClopenSet, gamma: TableMap
) -> list[tuple[str, bool]]:
    conj = eta.conjugate_by(gamma)
    return [
        ("gamma local to the region", gamma.in_local_subgroup(region)),
        ("conjugate moves points of U", not conj.support().intersection(u).is_empty),
    ]


# ---------------------------------------------------------------------------
# checks for the factorization over an invariant set


def check_split_invariant(
    gamma: TableMap, region: ClopenSet, part_in: TableMap, part_out: TableMap
) -> list[tuple[str, bool]]:
    return [
        ("first factor local to O", part_in.in_local_subgroup(region)),
        ("second factor local to complement", part_out.in_local_subgroup(region.complement())),
        ("factors compose to gamma", part_in.compose(part_out).same_map(gamma)),
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


def search_tables(
    matrix: TransitionMatrix,
    depth_bound: int,
    image_bound: int,
    candidate_filter: Callable[[Word], Sequence[Word]] | None = None,
) -> Iterator[TableMap]:
    """Every valid table within the bounds, the identity first.

    Tables come in a fixed deterministic order: by increasing depth, the
    domain words assigned images in lexicographic order, with candidate
    images ordered by (length, word), or in the order `candidate_filter`
    returns them for a domain word.  A depth-d table is a choice of one
    candidate per depth-d word whose image cylinders partition the space;
    each candidate is a bitset over the words of length image_bound (the
    leaves) it covers, so the choices must be pairwise disjoint and cover
    all n_leaves leaves.  Two exact rules cut the backtracking:

    * reach[i] is the bitset of leaf counts that domain words i..n-1 could
      still cover together, one candidate each, ignoring overlaps.  A
      choice at position i is kept only when reach[i+1] holds the number
      of leaves it leaves free.
    * The last domain word scans no candidates: the leaves still free must
      be exactly one candidate's cylinder, looked up by its bitset.

    Both rules drop only branches holding no complete table, so the
    sequence of tables is the one plain backtracking would give.
    """
    yield TableMap.identity(matrix)
    top = image_bound
    if matrix.word_count(top) > 1_000_000:
        raise BadInput(
            f"image bound {top} spans {matrix.word_count(top)} cylinders; "
            "search bookkeeping would not fit"
        )
    leaves = matrix.words(top)
    n_leaves = len(leaves)
    full = (1 << n_leaves) - 1
    masks: dict[Word, tuple[int, int]] = {}

    def mask_of(word: Word) -> tuple[int, int]:
        """The leaves under word as a bitset, and how many there are: the
        extensions of word to length top are a run of the sorted leaves."""
        entry = masks.get(word)
        if entry is None:
            count = matrix.continuation_count(word[-1], top - len(word))
            entry = masks[word] = (((1 << count) - 1) << bisect_left(leaves, word), count)
        return entry

    base: dict[int, list[Word]] = {}
    for depth in range(1, depth_bound + 1):
        domain = matrix.words(depth)
        n = len(domain)
        per_word: list[list[tuple[Word, int, int]]] = []
        for nu in domain:
            if candidate_filter is not None:
                cands = candidate_filter(nu)
            else:
                cands = base.get(nu[-1])
                if cands is None:
                    cands = base[nu[-1]] = _candidate_images(matrix, nu[-1], image_bound)
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
        # iterative backtracking: position i tries per_word[i] from nxt[i],
        # with used[i] the leaves covered by the choices before it
        assignment: list[Word] = [EMPTY_WORD] * n
        used = [0] * n
        nxt = [0] * n
        i = 0
        while i >= 0:
            if i == n - 1:
                w = closing.get(full ^ used[i])
                if w is not None:
                    assignment[i] = w
                    yield TableMap(matrix, depth, dict(zip(domain, assignment)))
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
    candidate_filter: Callable[[Word], Sequence[Word]] | None = None,
):
    """The first non-None ``visit(table)`` over :func:`search_tables`, else
    None.  :func:`witness_search` and ``invariants.gamma_equivalent`` both
    search through here, so the benchmark's traced run (bench/spans.py)
    wraps this one function to count tables and time the predicates."""
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
) -> TableMap | None:
    """First valid table satisfying the predicate, in the fixed enumeration
    order of :func:`search_tables`; None when the bounded space is
    exhausted.
    """
    if depth_bound < 1 or image_bound < 1:
        raise BadInput("search bounds must be at least 1")
    return _run_search(
        matrix, depth_bound, image_bound, lambda t: t if predicate(t) else None
    )


def enumerate_tables(
    matrix: TransitionMatrix,
    depth_bound: int,
    image_bound: int,
) -> Iterator[TableMap]:
    """All valid tables within the bounds, in the search order, as a
    generator: :func:`search_tables` without a filter."""
    return search_tables(matrix, depth_bound, image_bound)
