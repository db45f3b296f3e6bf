"""Seeded instance pools for the four benchmark workloads.

Every workload is a list of strata.  A stratum is one kind of instance on
one kind of input (say, ``free_pair`` on DENSE4); a round holds one instance
of every stratum, and a pool holds ``rounds`` rounds.  The timed loop runs
whole passes over the pool, so every run of one seed measures exactly the
same multiset of instances, and every seed measures the same mix of strata.

Inputs come only from ``random.Random`` seeded by ``zlib.crc32`` of the
workload, stratum and seed, never from ``hash()`` of a string, so they do
not depend on ``PYTHONHASHSEED``.  Nothing here imports from ``tests/``.

An instance carries:

* ``run()`` -- the timed library work, returning its output;
* ``verify(output)`` -- the untimed correctness check, returning the list
  of failed conditions and the bytes that go into the output digest;
* ``inputs`` -- a text rendering of the generated inputs, for the
  instance digest.

Library functions are looked up through their modules at call time
(``cons.free_pair``, ``inv.smith_normal_form``), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import zlib
from math import gcd
from pathlib import Path

import fullshift.cli as cli
import fullshift.constructions as cons
import fullshift.invariants as inv
from fullshift.errors import FullShiftError
from fullshift.sft import (
    canonicalize_clopen,
    cylinder,
    format_clopen_text,
    format_matrix_text,
    format_point,
    format_word,
    parse_clopen_text,
    point_in,
    validate_matrix,
)
from fullshift.tables import TableMap, format_table_text, parse_table_text, validate_table

# The acceptance-pool matrices, by name.
MATRICES = {
    "FULL2": [[1, 1], [1, 1]],
    "GOLDEN": [[1, 1], [1, 0]],
    "GOLDEN_REV": [[0, 1], [1, 1]],
    "FULL3": [[1, 1, 1]] * 3,
    "RING3": [[0, 1, 0], [0, 0, 1], [1, 1, 0]],
    "DENSE3": [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
    "RING4": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0]],
    "DENSE4": [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]],
}


class Instance:
    __slots__ = ("stratum", "inputs", "run", "verify")

    def __init__(self, stratum, inputs, run, verify):
        self.stratum = stratum
        self.inputs = inputs
        self.run = run
        self.verify = verify


def stable_rng(*parts) -> random.Random:
    """A generator seeded from the parts' text by crc32, stable across runs."""
    return random.Random(zlib.crc32(":".join(map(str, parts)).encode()))


def matrix(name):
    return validate_matrix(MATRICES[name])


# ---------------------------------------------------------------------------
# random inputs


def random_clopen(rng, m, max_depth=2, proper=False):
    """A random nonempty canonical clopen set of depth at most max_depth."""
    while True:
        words = m.words(rng.randint(1, max_depth))
        result = canonicalize_clopen(m, rng.sample(words, rng.randint(1, len(words))))
        if not (proper and result.is_full):
            return result


def random_swap(rng, m, max_len=2):
    """The involution exchanging two random disjoint row-compatible cylinders
    of length at most max_len."""
    words = [w for k in range(1, max_len + 1) for w in m.words(k)]
    while True:
        a, b = rng.choice(words), rng.choice(words)
        k = min(len(a), len(b))
        if a[:k] != b[:k] and m.row(a[-1]) == m.row(b[-1]):
            return cons.cylinder_swap(m, a, b)


def random_table(rng, m, max_depth=3, max_image=3):
    """A random product of 1-3 cylinder swaps within the depth and image
    bounds.  The swapped cylinders are no longer than max_depth, so a draw
    for depth 1 is not rejected nearly every time."""
    while True:
        table = TableMap.identity(m)
        for _ in range(rng.choice((1, 2, 3))):
            table = table.compose(random_swap(rng, m, min(2, max_depth)))
        if table.depth <= max_depth and all(
            len(img) <= max_image for img in table.entries.values()
        ):
            return table


def swap_inside(rng, region):
    """A random nontrivial involution supported inside the region, or None."""
    m = region.matrix
    depth = max(region.depth, 1)
    for d in range(depth, depth + 6):
        by_row = {}
        for w in m.words(d):
            if region.contains_word(w):
                by_row.setdefault(m.row(w[-1]), []).append(w)
        groups = [g for _, g in sorted(by_row.items()) if len(g) >= 2]
        if groups:
            a, b = rng.sample(groups[rng.randrange(len(groups))], 2)
            return cons.cylinder_swap(m, a, b)
    return None


def clo(c):
    return format_clopen_text(c)


def tbl(t):
    return format_table_text(t)


# ---------------------------------------------------------------------------
# construct: every witness construction followed by its check_* functions


def _depth_cap(m):
    return 2 if m.n <= 3 else 1


def _gen_2_1(rng, m):
    source = random_clopen(rng, m, _depth_cap(m))
    target = random_clopen(rng, m, _depth_cap(m))
    x = point_in(source)

    def run():
        hood, alpha = cons.involution_into(source, target, x)
        return [alpha], cons.check_involution_into(source, target, x, hood, alpha)

    return clo(source) + clo(target) + format_point(x), run


# The transport gamma that 2.2 takes as input costs one cylinder involution
# per piece of U at depth 2, on a growing table; it is made during set-up.
# Unbounded, a draw on FULL3 cost anything from 0.01 to 0.4 s, so set-up
# time depended on the seed.  U is kept to SWAP_PIECES pieces.
SWAP_PIECES = 4


def _gen_2_2(rng, m):
    u = random_clopen(rng, m, _depth_cap(m), proper=True)
    while len(u.refine(max(u.depth, 2))) > SWAP_PIECES:
        u = random_clopen(rng, m, _depth_cap(m), proper=True)
    gamma = cons.clopen_transport(u, u.complement())
    v = gamma.image_clopen(u)

    def run():
        alpha = cons.swap_involution(u, v, gamma)
        return [alpha], cons.check_swap_involution(u, v, alpha)

    return clo(u) + clo(v) + tbl(gamma), run


def _gen_2_4(rng, m):
    region = random_clopen(rng, m, 1)

    def run():
        psi, phi, base = cons.free_pair(region)
        return [psi, phi], cons.check_free_pair(region, psi, phi, base)

    return clo(region), run


def _gen_3_11(rng, m):
    while True:
        region = random_clopen(rng, m, _depth_cap(m))
        eta = swap_inside(rng, region)
        if eta is None:
            continue
        u = random_clopen(rng, m, _depth_cap(m)).intersection(region)
        if not u.is_empty:
            break

    def run():
        gamma = cons.localize_conjugate(eta, u, region)
        return [gamma], cons.check_localize_conjugate(eta, u, region, gamma)

    return clo(region) + clo(u) + tbl(eta), run


def _gen_4_1(rng, m):
    while True:
        nu = rng.choice(m.words(rng.randint(2, 3)))
        target = random_clopen(rng, m, _depth_cap(m))
        if not target.is_subset_of(cylinder(m, nu)):
            break

    def run():
        alpha = cons.cylinder_involution(m, nu, target)
        return [alpha], cons.check_cylinder_involution(m, nu, target, alpha)

    return format_word(nu) + "\n" + clo(target), run


def _gen_4_3(rng, m):
    while True:
        u = random_clopen(rng, m, _depth_cap(m), proper=True)
        w = random_clopen(rng, m, _depth_cap(m), proper=True)
        if u.intersection(w).is_empty:
            break

    def run():
        alpha = cons.clopen_transport(u, w)
        return [alpha], cons.check_clopen_transport(u, w, alpha)

    return clo(u) + clo(w), run


# paired_transport costs (pieces of U) x (size of each piece's involution).
# U is kept to PAIRED_PIECES cylinders of depth at most _depth_cap, and the
# transport gamma to depth PAIRED_GAMMA_DEPTH, so that one instance stays
# near 0.1 s: an unbounded draw on FULL3 took 10 s, and a depth-6 gamma on
# DENSE4 gives 1,024-entry involutions and 0.3-0.5 s.
PAIRED_PIECES = 2
PAIRED_GAMMA_DEPTH = 5


def _gen_4_4(rng, m):
    cap = _depth_cap(m)
    while True:
        region = random_clopen(rng, m, cap, proper=True)
        complement = region.complement()
        u = random_clopen(rng, m, cap).intersection(region)
        if u.is_empty or u == region or len(u.words) > PAIRED_PIECES:
            continue
        w = region.difference(u)
        target = random_clopen(rng, m, cap).intersection(complement)
        if target.is_empty:
            continue
        gamma = cons.clopen_transport(u, target)
        v = gamma.image_clopen(u)
        w2 = complement.difference(v)
        if not w2.is_empty and gamma.depth <= PAIRED_GAMMA_DEPTH:
            break

    def run():
        us, vs, alphas, betas = cons.paired_transport(region, u, v, w, w2, gamma)
        checks = cons.check_paired_transport(region, u, v, w, w2, gamma, us, vs, alphas, betas)
        return alphas + betas, checks

    return "".join(map(clo, (region, u, v, w, w2))) + tbl(gamma), run


def _gen_4_10(rng, m):
    u = random_clopen(rng, m, _depth_cap(m))
    v = random_clopen(rng, m, _depth_cap(m))

    def run():
        gamma = cons.minimality_witness(u, v)
        return [gamma], cons.check_minimality_witness(u, v, gamma)

    return clo(u) + clo(v), run


def _gen_split(rng, m):
    while True:
        region = random_clopen(rng, m, _depth_cap(m), proper=True)
        inner = swap_inside(rng, region)
        outer = swap_inside(rng, region.complement())
        if inner is not None and outer is not None:
            break
    gamma = inner.compose(outer)

    def run():
        part_in, part_out = gamma.split_invariant(region)
        return [part_in, part_out], cons.check_split_invariant(gamma, region, part_in, part_out)

    return clo(region) + tbl(gamma), run


CONSTRUCTIONS = {
    "2.1": _gen_2_1,
    "2.2": _gen_2_2,
    "2.4": _gen_2_4,
    "3.11": _gen_3_11,
    "4.1": _gen_4_1,
    "4.3": _gen_4_3,
    "4.4": _gen_4_4,
    "4.10": _gen_4_10,
    "split": _gen_split,
}


def _verify_construction(output):
    tables, checks = output
    digest = "".join(tbl(t) for t in tables) + "".join(f"{n}={ok}\n" for n, ok in checks)
    return [name for name, ok in checks if not ok], digest


# free_pair builds one table of (growth rate)^depth entries: ~0.7 s on
# DENSE4, 20-30 ms on FULL2 and DENSE3, about 1 ms elsewhere.  FULL3 is left
# out of free_pair: its phi has 6,561 entries even for a depth-1 region and
# takes ~2 s, longer than a shared core's speed holds still, so the
# reference timing around it cannot correct it.  The 200 FULL2 instances put the 90th
# percentile in the middle of their block.  The other strata run
# CONSTRUCT_EACH times per pass: many on the small matrices, where they take
# well under a millisecond and set the median, few on the three large ones,
# whose 10-150 ms draws would otherwise make the pass depend on the seed.
CONSTRUCT_EACH = {"FULL3": 4, "DENSE3": 4, "DENSE4": 4}
CONSTRUCT_EACH_SMALL = 36
FREE_PAIR_COUNTS = {"FULL3": 0, "DENSE4": 2, "DENSE3": 10, "FULL2": 200}


def construct_strata(tmpdir):
    strata = []
    for name in MATRICES:
        m = matrix(name)
        each = CONSTRUCT_EACH.get(name, CONSTRUCT_EACH_SMALL)
        for kind, gen in CONSTRUCTIONS.items():
            count = FREE_PAIR_COUNTS.get(name, each) if kind == "2.4" else each
            if count:
                strata.append((f"{kind}/{name}", count, _construction_maker(kind, gen, m)))
    return strata


def _construction_maker(kind, gen, m):
    def make(rng, label):
        inputs, run = gen(rng, m)
        return Instance(label, inputs, run, _verify_construction)
    return make


# ---------------------------------------------------------------------------
# search: witness_search with the CLI's conditions, and gamma_equivalent


def _search_instance(label, m, depth, image, expect, u=None, v=None, region=None, order=None):
    """witness_search with the conditions in the order the CLI adds them.
    expect is the known verdict, "hit" or "exhaust"; the other one fails."""
    conditions = []
    if u is not None:
        conditions.append(lambda t: t.image_clopen(u) == v)
    if region is not None:
        conditions.append(lambda t: t.support().is_subset_of(region))
    if order is not None:
        conditions.append(lambda t: t.order(max(order, 2)) == order)

    def predicate(t):
        return all(c(t) for c in conditions)

    def run():
        return cons.witness_search(m, predicate, depth, image)

    def verify(found):
        if found is None:
            return (["known witness not found"] if expect == "hit" else []), "EXHAUSTED\n"
        bad = [] if expect == "hit" else ["witness found where the search is known to exhaust"]
        again = validate_table(m, found.entries)
        if again != found:
            bad.append("witness does not re-validate")
        if not predicate(again):
            bad.append("witness fails its conditions")
        return bad, "FOUND\n" + tbl(found)

    inputs = f"{format_matrix_text(m)}{depth} {image} {order}\n"
    inputs += "".join(clo(c) for c in (u, v, region) if c is not None)
    return Instance(label, inputs, run, verify)


def _gamma_instance(label, m, u, v):
    """gamma_equivalent at its default bounds 2/3 on V = g(U) with g inside
    them, so a witness must be found."""
    def run():
        return inv.gamma_equivalent(u, v, 2, 3)

    def verify(result):
        if result.status != "equivalent":
            bad = [f"known witness not found: {result.status}"]
        elif validate_table(m, result.witness.entries).image_clopen(u) != v:
            bad = ["witness does not carry U onto V"]
        else:
            bad = []
        text = result.status + "\n" + (tbl(result.witness) if result.witness else "")
        return bad, text

    inputs = format_matrix_text(m) + clo(u) + clo(v)
    return Instance(label, inputs, run, verify)


def _onto_image(rng, m, depth, image):
    """U and V = g(U) for a random g inside the bounds: a witness must exist."""
    g = random_table(rng, m, max_depth=depth, max_image=image)
    u = random_clopen(rng, m, 2)
    return u, g.image_clopen(u)


# maps-onto pairs that FULL2 at bounds 3/3 cannot realize: the whole
# 40,443-table space is searched and every table costs one image_clopen.
# Three exhausts of ~0.5 s keep a pass near 3 s, so a run gets 6 passes.
_FULL2_FAR = [
    ([(1, 1)], [(2, 2, 2, 2)]),
    ([(1, 2)], [(1, 1, 1, 1), (2, 2, 2, 2)]),
    ([(1,)], [(2, 1), (1, 1, 1)]),
]


def _far(m):
    """One instance per far pair, in turn; the seed picks the labelling
    (swapping the two symbols is an automorphism of FULL2)."""
    turn = itertools.count()

    def make(rng, label):
        a, b = _FULL2_FAR[next(turn) % len(_FULL2_FAR)]
        if rng.random() < 0.5:
            a = [tuple(3 - s for s in w) for w in a]
            b = [tuple(3 - s for s in w) for w in b]
        u, v = canonicalize_clopen(m, a), canonicalize_clopen(m, b)
        return _search_instance(label, m, 3, 3, "exhaust", u=u, v=v)
    return make


def _onto(m, depth, image):
    def make(rng, label):
        u, v = _onto_image(rng, m, depth, image)
        return _search_instance(label, m, depth, image, "hit", u=u, v=v)
    return make


def _order_in(m, depth, image, configs):
    """witness-search --support-in O --order k over a fixed catalogue of
    (O, k, verdict), one instance per entry in turn.  The cost of such a
    search is the position of its first hit, which swings by 1000x between
    cylinders, so the catalogue is the same for every seed.  Each verdict
    was found by running the search: "hit" if a witness exists within the
    bounds, "exhaust" if the whole space holds none."""
    turn = itertools.count()

    def make(rng, label):
        words, order, expect = configs[next(turn) % len(configs)]
        region = canonicalize_clopen(m, words)
        return _search_instance(label, m, depth, image, expect, region=region, order=order)
    return make


def _gamma(m):
    def make(rng, label):
        u, v = _onto_image(rng, m, 2, 3)
        return _gamma_instance(label, m, u, v)
    return make


def search_strata(tmpdir):
    """Both regimes of the bounded search.  Predicate-dominated: maps-onto
    exhausts on FULL2 at 3/3 (40,443 tables, each one image_clopen) and
    order hits at 3/3.  Enumeration-dominated: FULL2 at 2/5, where most
    backtracking nodes are dead ends and only 123 tables are complete."""
    full2, golden, golden_rev, full3 = map(matrix, ("FULL2", "GOLDEN", "GOLDEN_REV", "FULL3"))
    u1, u2 = [(1,)], [(2,)]
    HIT, EX = "hit", "exhaust"
    return [
        ("onto-exhaust/FULL2/3x3", len(_FULL2_FAR), _far(full2)),
        ("order-in/FULL2/2x5", 20, _order_in(full2, 2, 5, [
            (u1, 3, EX), (u2, 3, EX), (u1, 2, HIT), (u2, 2, HIT)])),
        ("order-in/FULL2/3x3", 12, _order_in(full2, 3, 3, [
            (u1, 3, HIT), (u2, 3, HIT), ([(1, 1)], 2, HIT), ([(2, 2)], 2, HIT),
            ([(1, 2)], 2, HIT), ([(2, 1)], 2, HIT)])),
        # U_1 with order 3 is left out: its first hit comes after 1.3 s
        ("order-in/FULL3/2x2", 8, _order_in(full3, 2, 2, [
            ([(2,)], 3, HIT), ([(3,)], 3, HIT), ([(1,), (2,)], 3, HIT), ([(1,), (3,)], 3, HIT),
            ([(2,), (3,)], 3, HIT), ([(1,), (2,)], 2, HIT), ([(2,), (3,)], 2, HIT),
            ([(1,), (3,)], 2, HIT)])),
        ("order-in/GOLDEN/3x4", 14, _order_in(golden, 3, 4, [
            (u1, 2, HIT), (u2, 2, EX), (u1, 3, HIT), (u2, 3, EX)])),
        ("order-in/GOLDEN_REV/3x4", 14, _order_in(golden_rev, 3, 4, [
            (u1, 2, EX), (u2, 2, HIT), (u1, 3, EX), (u2, 3, HIT)])),
        ("onto/FULL2/3x3", 5, _onto(full2, 3, 3)),
        ("onto/GOLDEN/4x4", 4, _onto(golden, 4, 4)),
        ("onto/GOLDEN_REV/4x4", 4, _onto(golden_rev, 4, 4)),
        ("onto/FULL3/1x3", 5, _onto(full3, 1, 3)),
        ("gamma/FULL2", 4, _gamma(full2)),
        ("gamma/FULL3", 4, _gamma(full3)),
        ("gamma/GOLDEN", 4, _gamma(golden)),
    ]


# ---------------------------------------------------------------------------
# invariants: the pointed cokernel invariant and the Smith form


def _random_valid(rng, n):
    while True:
        rows = [[int(rng.random() < 0.5) for _ in range(n)] for _ in range(n)]
        try:
            return validate_matrix(rows)
        except FullShiftError:  # not essential, irreducible or condition (I)
            continue


def bareiss_det(rows):
    """Exact determinant by fraction-free elimination, independent of the
    library's own determinant."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _expected_order(m):
    """|det(A - I)|: the cokernel's order when finite, and 0 when not."""
    n = m.n
    return abs(bareiss_det([[m.arc(i + 1, j + 1) - (i == j) for j in range(n)] for i in range(n)]))


def _verify_report(report, det_a, det_b, conjugate):
    bad = []
    for group, det in ((report.group_a, det_a), (report.group_b, det_b)):
        if (group.order() or 0) != det:
            bad.append(f"cokernel order {group.order()} != |det(A-I)| {det}")
    if conjugate and report.verdict != "ISOMORPHIC":
        bad.append(f"conjugate pair came out {report.verdict}")
    if report.verdict not in ("ISOMORPHIC", "NOT_ISOMORPHIC", "INCONCLUSIVE"):
        bad.append(f"unknown verdict {report.verdict}")
    text = f"{report.verdict}\n{report.group_a.describe()}\n{report.group_b.describe()}\n"
    return bad, text


def _pair(n, conjugate):
    def make(rng, label):
        a = _random_valid(rng, n)
        if conjugate:
            perm = list(range(n))
            rng.shuffle(perm)
            b = validate_matrix(
                [[a.entries[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
            )
        else:
            b = _random_valid(rng, n)
        det_a, det_b = _expected_order(a), _expected_order(b)

        def run():
            return inv.full_group_iso_decide(a, b)

        def verify(report):
            return _verify_report(report, det_a, det_b, conjugate)

        return Instance(label, format_matrix_text(a) + format_matrix_text(b), run, verify)
    return make


def _element_order(diag, coords):
    out = 1
    for d, c in zip(diag, coords):
        k = d // gcd(d, c)
        out = out * k // gcd(out, k)
    return out


def _random_automorphism_image(rng, p, diag, x):
    """x moved by random elementary automorphisms of the p-group."""
    x = list(x)
    for _ in range(12):
        i, j = rng.randrange(len(diag)), rng.randrange(len(diag))
        if i == j:
            unit = rng.randrange(1, diag[i])
            while unit % p == 0:
                unit = rng.randrange(1, diag[i])
            x[i] = x[i] * unit % diag[i]
        else:
            scale = max(1, diag[i] // diag[j])  # keeps the map a homomorphism
            x[i] = (x[i] + rng.randrange(diag[i]) * scale * x[j]) % diag[i]
    return tuple(x)


# non-cyclic p-groups of order at most 2^12, where the orbit test runs; on
# larger ones such as (16, 16, 16, 16) the orbit BFS alone takes about 0.7 s
P_GROUPS = [
    (2, (4, 4, 4, 4)),
    (2, (2, 4, 8, 16)),
    (2, (8, 8, 8)),
    (2, (16, 16, 16)),
    (3, (3, 9, 27)),
    (3, (9, 9, 9)),
]


def _pointed():
    """Pointed decisions on the p-groups in turn, with seeded elements: half
    the pairs are automorphic images (isomorphic), half differ in element
    order (not isomorphic)."""
    turn = itertools.count()

    def make(rng, label):
        p, diag = P_GROUPS[next(turn) % len(P_GROUPS)]
        k = len(diag)
        identity = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
        group = inv.BFGroup(k, diag, identity)
        a = tuple(rng.randrange(d) for d in diag)
        if rng.random() < 0.5:
            b, want = _random_automorphism_image(rng, p, diag, a), "isomorphic"
        else:
            b = a
            while _element_order(diag, b) == _element_order(diag, a):
                b = tuple(rng.randrange(d) for d in diag)
            want = "not_isomorphic"
        ea, eb = inv.GroupElement(group, a), inv.GroupElement(group, b)

        def run():
            return inv.pointed_iso_decide(group, ea, group, eb)

        def verify(decision):
            bad = [] if decision.verdict == want else [f"expected {want}, got {decision.verdict}"]
            return bad, decision.verdict + "\n"

        return Instance(label, f"{diag} {a} {b}\n", run, verify)
    return make


INVARIANTS_EACH = 8


def invariants_strata(tmpdir):
    """full_group_iso_decide on random valid matrices of sizes 2-16, half of
    them permutation-conjugate pairs; plus a 12-in-252 (4.8%) minority of
    pointed decisions on non-cyclic p-groups, where the orbit test runs."""
    strata = []
    for n in range(2, 17):
        strata.append((f"conj/{n}", INVARIANTS_EACH, _pair(n, True)))
        strata.append((f"pair/{n}", INVARIANTS_EACH, _pair(n, False)))
    strata.append(("pointed", 2 * len(P_GROUPS), _pointed()))
    return strata


# ---------------------------------------------------------------------------
# cli: in-process fullshift.cli.run calls on small files


CLI_MATRICES = ("FULL2", "GOLDEN", "DENSE3")


class _Files:
    """Input files of one CLI instance.  Every text is drawn up front, so the
    draws do not depend on the command, but a file is written only when the
    command's argv asks for its path.  Input files are named by their
    contents and shared between instances (`input_paths` maps each text to
    its path): only about a quarter of the texts are distinct, and creating
    a file costs more than drawing its text, and varies more."""

    def __init__(self, tmpdir, stem, matrix_path, texts, input_paths):
        self.tmpdir, self.stem, self.texts = tmpdir, stem, texts
        self.input_paths = input_paths
        self.paths = {"mat": matrix_path}
        self.used: list[str] = []

    def __getitem__(self, key):
        if key not in self.paths:
            suffix = {"out_tbl": "out.tbl", "out_clo": "out.clo",
                      "out_in": "in.tbl", "out_out": "outside.tbl"}.get(key)
            if suffix is not None:
                path = os.path.join(self.tmpdir, f"{self.stem}.{suffix}")
            else:
                text = self.texts[key]
                path = self.input_paths.get(text)
                if path is None:
                    path = os.path.join(self.tmpdir, f"in{len(self.input_paths)}.txt")
                    Path(path).write_text(text)
                    self.input_paths[text] = path
                self.used.append(text)
            self.paths[key] = path
        return self.paths[key]


def _cli_files(rng, m, tmpdir, stem, matrix_path, input_paths):
    region = random_clopen(rng, m, 2, proper=True)
    inner = swap_inside(rng, region)
    outer = swap_inside(rng, region.complement())
    while inner is None or outer is None:
        region = random_clopen(rng, m, 2, proper=True)
        inner = swap_inside(rng, region)
        outer = swap_inside(rng, region.complement())
    texts = {
        "t1": tbl(random_table(rng, m)),
        "t2": tbl(random_table(rng, m)),
        "inv": tbl(inner.compose(outer)),
        "region": clo(region),
        "c1": clo(random_clopen(rng, m, 2)),
        "c2": clo(random_clopen(rng, m, 2)),
    }
    return _Files(tmpdir, stem, matrix_path, texts, input_paths)


def _cli_argv(command, rng, f):
    """argv and the artifacts it writes: (path, 'tbl' | 'clo')."""
    mat = f["mat"]
    if command == "table-validate":
        return [command, mat, f["t1"]], []
    if command == "compose":
        return [command, mat, f["t1"], f["t2"], "-o", f["out_tbl"]], [(f["out_tbl"], "tbl")]
    if command in ("inverse", "reduce"):
        return [command, mat, f["t1"], "-o", f["out_tbl"]], [(f["out_tbl"], "tbl")]
    if command == "order":
        return [command, mat, f["t1"], "--bound", "6"], []
    if command == "support":
        return [command, mat, f["t1"], "-o", f["out_clo"]], [(f["out_clo"], "clo")]
    if command in ("cocycles", "verify"):
        return [command, mat, f["t1"]], []
    if command == "commutes":
        return [command, mat, f["t1"], f["t2"]], []
    if command == "local-member":
        return [command, mat, f["t1"], f["region"]], []
    if command == "split":
        argv = [command, mat, f["inv"], f["region"],
                "--out-inside", f["out_in"], "--out-outside", f["out_out"]]
        return argv, [(f["out_in"], "tbl"), (f["out_out"], "tbl")]
    if command == "clopen":
        op = rng.choice(["union", "intersection", "difference", "complement", "canon"])
        argv = [command, mat, op, f["c1"]] + ([] if op in ("complement", "canon") else [f["c2"]])
        return argv + ["-o", f["out_clo"]], [(f["out_clo"], "clo")]
    if command == "bf":
        return [command, mat], []
    if command == "clopen-class":
        return [command, mat, f["c1"]], []
    raise ValueError(command)


CLI_COMMANDS = (
    "table-validate", "compose", "inverse", "reduce", "order", "support", "cocycles",
    "commutes", "local-member", "split", "verify", "clopen", "bf", "clopen-class",
)


def _cli_instance(label, m, argv, artifacts, tmpdir, written):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
        return code, buf.getvalue()

    def verify(output):
        code, out = output
        bad = [] if code == 0 else [f"exit code {code}"]
        texts = []
        for path, kind in artifacts:
            try:
                text = Path(path).read_text()
                if kind == "tbl":
                    parse_table_text(m, text)
                else:
                    parse_clopen_text(m, text)
            except Exception as exc:  # any failure to re-read is a failed instance
                bad.append(f"artifact {os.path.basename(path)} does not re-parse: {exc}")
                continue
            texts.append(text)
        return bad, out.replace(tmpdir, "<tmp>") + "".join(texts)

    inputs = " ".join(a.replace(tmpdir, "<tmp>") for a in argv) + "\n" + written
    return Instance(label, inputs, run, verify)


CLI_EACH = 8


def cli_strata(tmpdir):
    strata, input_paths = [], {}
    for name in CLI_MATRICES:
        m = matrix(name)
        matrix_path = os.path.join(tmpdir, f"{name}.mat")
        Path(matrix_path).write_text(format_matrix_text(m))
        for command in CLI_COMMANDS:
            strata.append(
                (f"{command}/{name}", CLI_EACH,
                 _cli_maker(m, command, tmpdir, matrix_path, input_paths))
            )
    return strata


def _cli_maker(m, command, tmpdir, matrix_path, input_paths):
    turn = itertools.count()

    def make(rng, label):
        stem = f"{label.replace('/', '.')}.{next(turn)}"
        files = _cli_files(rng, m, tmpdir, stem, matrix_path, input_paths)
        argv, artifacts = _cli_argv(command, rng, files)
        written = format_matrix_text(m) + "".join(files.used)
        return _cli_instance(label, m, argv, artifacts, tmpdir, written)
    return make


WORKLOADS = {
    "construct": construct_strata,
    "search": search_strata,
    "invariants": invariants_strata,
    "cli": cli_strata,
}


def iter_pool(workload, seed, tmpdir):
    """Every instance of one pass, stratum by stratum.  Each stratum draws
    from its own generator, so adding a stratum changes no other."""
    for label, count, make in WORKLOADS[workload](tmpdir):
        rng = stable_rng(workload, label, seed)
        for _ in range(count):
            yield make(rng, label)
