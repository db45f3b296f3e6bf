"""Prefix-exchange tables: the full-group elements of a shift space.

A homeomorphism of the shift space that preserves shift orbits with
continuous cocycles acts by prefix exchanges.  A table stores one as a
complete prefix code: a sorted tuple of domain words whose cylinders
partition the space, as a clopen set stores its code, and the aligned
tuple of their images.  The cylinder of a domain word is carried onto the
cylinder of its image, the suffix untouched.  Domain words may have
different lengths, so an element that moves a few small cylinders costs a
few entries, not every word of one depth.  A table is valid when every
image word ends in a symbol with the same follower row as its domain word
and the image cylinders partition the space.

A table's depth is its longest domain word, as a clopen set's is.
Refining every domain word to all of its admissible extensions of that
length gives the uniform view: the form of the ``L depth`` text files.
The code is the only form a table stores; the view is computed from it,
in sorted order, each time it is read, and never kept.
Only an inverse, a validated file and a cylinder permutation sort their
pairs; every other table is built with its domain in order.

Group structure is exact.  Composition and inversion work on the codes,
and reduction merges complete sibling families bottom-up into the unique
reduced code of the homeomorphism (the tree-pair-diagram normal form of
Thompson's group V, in the Cannon-Floyd-Parry sense).  The sweep is
:func:`merge_siblings`, the one that reduces clopen sets: a clopen set is
the case where every word is fixed.  The reduced code's longest domain
word is the minimal depth of any table for the map, so two tables denote
the same homeomorphism exactly when their reduced codes are equal.  The
orbit cocycles are read off the code too: on the cylinder of a domain
word they are constant.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import inf
from typing import Iterable, Iterator, Mapping

from .errors import (
    BadDomain,
    BadInput,
    ImagesDontCover,
    ImagesOverlap,
    InadmissibleWord,
    MatrixMismatch,
    NotInvariant,
    RowMismatch,
)
from .sft import (
    EMPTY_WORD,
    ClopenSet,
    Code,
    EPPoint,
    TransitionMatrix,
    Word,
    canonicalize_clopen,
    check_view_size,
    cut,
    format_word,
    least_gap,
    merge_siblings,
    parse_word,
    text_lines,
    view_header,
)


class TableMap:
    """An element of the continuous full group as a prefix-exchange table.

    ``domain`` is a complete prefix code as a strictly increasing tuple of
    words, and ``images[i]`` is the image of ``domain[i]``; nothing else
    about the element is stored.  ``depth`` is the longest domain word,
    found on first read and then kept, as :attr:`ClopenSet.depth` is.

    The uniform view at ``depth`` is computed from the code on each read.
    Immutable after construction.  Two tables are equal when they are the
    same element: the same matrix and the same reduced code, whatever
    depth each is written at.
    """

    __slots__ = ("matrix", "domain", "images", "_depth", "_reduced")

    def __init__(self, matrix: TransitionMatrix, domain: Code, images: Code):
        self.matrix = matrix
        self.domain = domain
        self.images = images
        self._depth: int | None = None
        self._reduced: TableMap | bool | None = None

    @classmethod
    def identity(cls, matrix: TransitionMatrix) -> "TableMap":
        return cls(matrix, (EMPTY_WORD,), (EMPTY_WORD,))

    @property
    def depth(self) -> int:
        """Found on first read: searches build many tables whose depth is never read."""
        if self._depth is None:
            self._depth = max(map(len, self.domain))
        return self._depth

    @property
    def entries(self) -> dict[Word, Word]:
        """The uniform view: the image of every admissible word of length
        ``depth``, as a new dict built from the code on each read and never
        stored.  The library itself reads the view only through
        :meth:`_uniform_view`."""
        return dict(self._uniform_view(self.depth))

    def _uniform_view(self, depth: int) -> Iterator[tuple[Word, Word]]:
        """The uniform view at a depth of at least ``self.depth``, in sorted
        order: each extension w of a code word nu to that depth, with its
        image rho + w[len(nu):].  The domain is sorted and prefix-free, so
        the extensions of its words come out in sorted order too."""
        extensions = self.matrix.extensions
        for nu, rho in zip(self.domain, self.images):
            k = len(nu)
            for w in extensions(nu, depth):
                yield w, rho + w[k:]

    def entry_count(self) -> int:
        """``len(self.entries)``, counted without building the view."""
        return self.matrix.count_within(self.domain, self.depth, inf)

    def __eq__(self, other):
        if not isinstance(other, TableMap) or self.matrix != other.matrix:
            return False
        if self.domain == other.domain and self.images == other.images:
            return True
        g, h = self.reduce(), other.reduce()
        return g.domain == h.domain and g.images == h.images

    def __hash__(self):
        g = self.reduce()
        return hash((self.matrix, g.domain, g.images))

    def __repr__(self):
        if self.is_identity:
            return "TableMap(identity)"
        return f"TableMap(depth={self.depth}, {len(self.domain)} code words)"

    @property
    def is_identity(self) -> bool:
        """Whether every code word is its own image, on the code as given.

        Exact on any valid code, reduced or not: a pair nu -> rho with rho
        != nu fixes at most one point of the cylinder of nu (nu u u u ...,
        when one of nu and rho is the other followed by u), and under
        condition (I) no cylinder is a single point.
        """
        return self.domain == self.images

    # -- pointwise action ---------------------------------------------------

    def apply(self, point: EPPoint) -> EPPoint:
        """Image of an eventually periodic point; exact."""
        depth = self.depth
        prefix = point.prefix(depth)
        image = self.word_image(prefix)
        if image is None:
            raise InadmissibleWord(f"point prefix {format_word(prefix)} is not admissible")
        tail = point.shift(depth)
        return EPPoint.from_primitive(image + tail.pre, tail.per)

    def word_image(self, word: Word) -> Word | None:
        """Image of the cylinder of word when one domain cylinder holds it:
        only the greatest domain word at most word can be its prefix."""
        i = bisect_right(self.domain, word)
        if i and word[: len(nu := self.domain[i - 1])] == nu:
            return self.images[i - 1] + word[len(nu):]
        return None

    # -- group operations ---------------------------------------------------

    def _pieces_after(self, inner: "TableMap") -> Iterator[tuple[Word, Word]]:
        """A code of self after inner, piece by piece in sorted order: each
        image cylinder of ``inner`` is cut along this table's domain by
        :func:`cut`, which splits a cylinder only where some domain word
        extends it, and each piece is paired with its image."""
        if self.matrix != inner.matrix:
            raise MatrixMismatch("cannot compose tables over different matrices")
        matrix, domain, outer = self.matrix, self.domain, self.images
        for nu, rho in zip(inner.domain, inner.images):
            k = len(rho)
            for w, i in cut(matrix, domain, rho):
                if i < 0:
                    raise InadmissibleWord(f"word {format_word(w)} is not admissible")
                yield nu + w[k:], outer[i] + w[len(domain[i]):]

    def compose(self, inner: "TableMap") -> "TableMap":
        """self after inner, as a reduced table: the pieces of
        :meth:`_pieces_after`, reduced."""
        words, images = [], []
        for w, image in self._pieces_after(inner):
            words.append(w)
            images.append(image)
        return TableMap(self.matrix, tuple(words), tuple(images)).reduce()

    def inverse(self) -> "TableMap":
        """The inverse table: the code reversed, sorted by image.  Its depth
        is this table's longest image, so inverting twice gives this code
        back."""
        domain, images = zip(*sorted(zip(self.images, self.domain)))
        return TableMap(self.matrix, domain, images)

    def reduce(self) -> "TableMap":
        """The reduced code: the unique minimal-depth table denoting the same
        homeomorphism.  :func:`merge_siblings` sweeps the domain with the
        moved words' images, as it sweeps a clopen set's words with every
        word fixed.  Computed once per table; a reduced table stores False,
        not itself, so that no table refers to itself."""
        if self._reduced is None:
            moved = {nu: rho for nu, rho in zip(self.domain, self.images) if rho != nu}
            words = tuple(merge_siblings(self.matrix, self.domain, moved))
            if words == self.domain:
                self._reduced = False
            else:
                images = tuple(moved.get(w, w) for w in words)
                self._reduced = TableMap(self.matrix, words, images)
                self._reduced._reduced = False
        return self._reduced or self

    def order(self, bound: int, entry_cap: int = 4096) -> int | None:
        """Least k <= bound with the k-th power trivial, else None.  Also
        None once a power's reduced code has more than entry_cap words.

        Each power is tested before it is built: g^k is g after g^(k-1),
        and it is the identity when every piece of :meth:`_pieces_after` is
        fixed, as :attr:`is_identity` asks of any code, so the test stops at
        the first moved piece.  Only powers below the bound are built, so
        ``order(2)`` builds no table at all, not even the reduced code; a
        longer search composes with the reduced code, found once and kept.
        """
        if bound < 1:
            raise BadInput("order bound must be at least 1")
        if self.is_identity:
            return 1
        g = power = self
        for k in range(2, bound + 1):
            if all(w == image for w, image in g._pieces_after(power)):
                return k
            if k < bound:
                g = self.reduce()
                power = g.compose(power)
                if len(power.domain) > entry_cap:
                    return None
        return None

    def commutes(self, other: "TableMap") -> bool:
        return self.compose(other) == other.compose(self)

    # -- refinement ---------------------------------------------------------

    def refine_to(self, depth: int) -> "TableMap":
        """The same map as the code of its uniform view at a depth of at
        least its own, counted first as the writers count the view."""
        if depth < self.depth:
            raise BadInput("cannot refine a table to a smaller depth")
        check_view_size(self.matrix, self.domain, depth, "the table")
        domain, images = zip(*self._uniform_view(depth))
        return TableMap(self.matrix, domain, images)

    # -- supports, fixed sets, cocycles --------------------------------------

    def support_and_fixed(self) -> tuple[ClopenSet, "FixedSet"]:
        """The clopen support and the exact fixed-point set.

        The support is the closure of the moved set: the union of domain
        cylinders whose entry is not the identity rewrite.  Inside a moved
        cylinder the only fixed point candidates come from entries whose
        image properly extends or is properly extended by the domain word;
        each contributes a single eventually periodic point when the loop
        it closes is admissible.  Any code of the map gives the same sets,
        reduced or not.
        """
        matrix, pairs = self.matrix, list(zip(self.domain, self.images))
        kept = [nu for nu, rho in pairs if rho == nu]
        fixed_clopen = canonicalize_clopen(matrix, kept, trusted=True)
        isolated = []
        for nu, rho in pairs:
            short, long = (nu, rho) if len(nu) < len(rho) else (rho, nu)
            loop = long[len(short):]
            if loop and long[: len(short)] == short and matrix.arc(loop[-1], loop[0]):
                isolated.append(EPPoint.make(short, loop))
        isolated.sort()
        return self.support(), FixedSet(fixed_clopen, tuple(isolated))

    def support(self) -> ClopenSet:
        """The clopen support alone: the union of the moved domain cylinders."""
        moved = [nu for nu, rho in zip(self.domain, self.images) if rho != nu]
        return canonicalize_clopen(self.matrix, moved, trusted=True)

    def cocycles(self) -> dict[Word, tuple[int, int]]:
        """The orbit cocycle constants (k, l) of each domain word, in domain
        order: on the cylinder of nu -> rho, shifting the image k = len rho
        times gives the point shifted l = len nu times."""
        return {nu: (len(rho), len(nu)) for nu, rho in zip(self.domain, self.images)}

    def in_local_subgroup(self, region: ClopenSet) -> bool:
        """Whether this element fixes the complement of the region pointwise.

        A nonempty clopen set has no isolated points, so it cannot hide in
        finitely many isolated fixed points: the clopen fixed part must
        contain the whole complement, equivalently the support must sit
        inside the region.  The support is the union of the moved domain
        cylinders, so that asks one bisection of each moved code word, as
        :meth:`ClopenSet.contains_word` does, and builds no support set.
        """
        if self.matrix != region.matrix:
            raise MatrixMismatch("region lives over a different matrix")
        inside = region.contains_word
        return all(inside(nu) for nu, rho in zip(self.domain, self.images) if rho != nu)

    def image_clopen(self, clopen: ClopenSet) -> ClopenSet:
        """The image of a clopen set, as a canonical clopen set.  The domain
        is a complete prefix code, so each code word w of the set either
        lies in one domain cylinder, whose word is a prefix of w and whose
        image carries w with its suffix, or is the union of the run of
        domain cylinders whose words extend w, each carried whole.  One
        bisection, from where the previous set word's ended, finds the
        domain cylinder or the start of the run; a second finds its end,
        below w followed by a symbol past n.  The cost follows the set's
        code and the image, not the domain."""
        matrix = self.matrix
        if matrix is not clopen.matrix and matrix != clopen.matrix:
            raise MatrixMismatch("clopen set lives over a different matrix")
        domain, images, out = self.domain, self.images, []
        past, i = (matrix.n + 1,), 0
        for w in clopen.code:
            i = bisect_right(domain, w, i)
            if i and w[: len(nu := domain[i - 1])] == nu:
                out.append(images[i - 1] + w[len(nu):])
                continue
            j = bisect_left(domain, w + past, i)
            out += images[i:j]
            i = j
        return canonicalize_clopen(matrix, out, trusted=True)

    def split_invariant(self, region: ClopenSet) -> tuple["TableMap", "TableMap"]:
        """Factor over an invariant clopen set: a piece supported inside it
        times a piece supported in its complement.  Each domain word is cut
        along the region's code; a piece inside the region moves in the
        first factor, and any other piece in the second."""
        if self.matrix != region.matrix:
            raise MatrixMismatch("region lives over a different matrix")
        if self.image_clopen(region) != region:
            raise NotInvariant("the map does not carry the given clopen set onto itself")
        matrix = self.matrix
        pieces = []
        for nu, rho in zip(self.domain, self.images):
            k = len(nu)
            for w, i in cut(matrix, region.code, nu):
                image = rho + w[k:]
                pieces.append((w, image, w) if i >= 0 else (w, w, image))
        domain, inside, outside = zip(*pieces)
        return tuple(TableMap(matrix, domain, part).reduce() for part in (inside, outside))


@dataclass(frozen=True)
class FixedSet:
    """Exact fixed-point set: a clopen part plus finitely many isolated
    eventually periodic points sitting inside moved cylinders."""

    clopen_part: ClopenSet
    isolated: tuple[EPPoint, ...]


def validate_table(matrix: TransitionMatrix, raw_entries: Mapping) -> TableMap:
    """Check raw entries and return a valid uniform table, or diagnose.

    Checks, in order: the domain is exactly the set of depth-L words (a
    missing word is found by :func:`least_gap`, without counting the
    depth-L words); then the images, as :func:`validate_images` does, in
    the order of ``raw_entries``.  The domain is then sorted.
    """
    entries = {tuple(k): tuple(v) for k, v in raw_entries.items()}
    if not entries:
        raise BadDomain("table has no entries")
    depths = {len(k) for k in entries}
    if len(depths) != 1:
        raise BadDomain(f"domain words have mixed lengths {sorted(depths)}")
    depth = depths.pop()
    if depth == 0:
        if entries != {EMPTY_WORD: EMPTY_WORD}:
            raise BadDomain("a depth-0 table must map the empty word to itself")
        return TableMap.identity(matrix)
    domain = tuple(sorted(w for w in entries if matrix.is_admissible(w)))
    missing = least_gap(matrix, domain)
    if missing is not None:
        while len(missing) < depth:
            missing += (matrix.successors(missing[-1])[0] if missing else 1,)
        raise BadDomain(f"domain misses word {format_word(missing)}")
    if len(domain) < len(entries):
        raise BadDomain(f"domain has bad word {format_word(min(entries.keys() - set(domain)))}")
    validate_images(matrix, entries, entries.values())
    return TableMap(matrix, domain, tuple(entries[w] for w in domain))


def validate_images(
    matrix: TransitionMatrix, domain: Iterable[Word], images: Iterable[Word]
) -> None:
    """Check the images of a complete prefix code of nonempty words, given
    in any order, each image aligned with its domain word, or
    diagnose: each image is admissible, nonempty and row-compatible with
    its domain word, checked in the given order; the image cylinders are
    pairwise disjoint; they cover the whole space, else the diagnosis
    names the gap that :func:`least_gap` finds."""
    for nu, rho in zip(domain, images):
        if not rho:
            raise RowMismatch(f"entry {format_word(nu)} has an empty image")
        if not matrix.is_admissible(rho):
            raise InadmissibleWord(f"image {format_word(rho)} is not admissible")
        if matrix.row(rho[-1]) != matrix.row(nu[-1]):
            raise RowMismatch(
                f"entry {format_word(nu)} -> {format_word(rho)}: "
                f"row of {rho[-1]} differs from row of {nu[-1]}"
            )
    images = sorted(images)
    for a, b in zip(images, images[1:]):
        if b[: len(a)] == a:
            raise ImagesOverlap(f"images {format_word(a)} and {format_word(b)} intersect")
    gap = least_gap(matrix, images)
    if gap is not None:
        raise ImagesDontCover(f"images miss cylinder {format_word(gap)}")


def format_table_text(table: TableMap) -> str:
    """The uniform view as text: ``L depth`` then one line per entry, in
    sorted order, streamed from the domain once its size is checked.  Each
    code word and its image are formatted once; each extension adds the
    text of its suffix, which the domain and the image share: on large
    tables that takes half the time of formatting whole words."""
    depth = table.depth
    check_view_size(table.matrix, table.domain, depth, "the table")
    lines = [f"L {depth}"]
    extensions = table.matrix.extensions
    for nu, rho in zip(table.domain, table.images):
        k = len(nu)
        if k == depth:
            lines.append(f"{format_word(nu)} -> {format_word(rho)}")
            continue
        dom, img = ("".join(f"{s}," for s in x) for x in (nu, rho))
        for w in extensions(nu, depth):
            tail = ",".join(map(str, w[k:]))
            lines.append(f"{dom}{tail} -> {img}{tail}")
    return "\n".join(lines) + "\n"


def parse_table_text(matrix: TransitionMatrix, text: str) -> TableMap:
    lines = text_lines(text, "table")
    depth = view_header(lines[0], "L", "table")
    entries = {}
    for ln in lines[1:]:
        if "->" not in ln:
            raise BadInput(f"bad table line {ln!r}")
        left, right = ln.split("->", 1)
        word = parse_word(left)
        if word in entries:
            raise BadInput(f"domain word {format_word(word)} appears twice")
        entries[word] = parse_word(right)
    table = validate_table(matrix, entries)
    if table.depth != depth:
        raise BadInput(f"declared depth {depth} but entries have depth {table.depth}")
    return table
