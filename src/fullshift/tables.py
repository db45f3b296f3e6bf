"""Prefix-exchange tables: the full-group elements of a shift space.

A homeomorphism of the shift space that preserves shift orbits with
continuous cocycles acts by prefix exchanges.  A table stores one as a
complete prefix code: a finite set of domain words whose cylinders
partition the space, each mapped to an image word.  The cylinder of a
domain word is carried onto the cylinder of its image, the suffix
untouched.  Domain words may have different lengths, so an element that
moves a few small cylinders costs a few entries, not every word of one
depth.  A table is valid when every image word ends in a symbol with the
same follower row as its domain word and the image cylinders partition
the space.

Each table also has a depth, at least its longest domain word.  Refining
every domain word to all of its admissible extensions of that length gives
the uniform view, ``TableMap.entries``: the form of the ``L depth`` text
files and of cocycle tables.  The view is built only when read.

Group structure is exact.  Composition and inversion work on the codes,
and reduction merges complete sibling families bottom-up into the unique
reduced code of the homeomorphism (the tree-pair-diagram normal form of
Thompson's group V, in the Cannon-Floyd-Parry sense).  Its longest domain
word is the minimal depth of any table for the map, so two tables denote
the same homeomorphism exactly when their reduced codes are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

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
    EPPoint,
    TransitionMatrix,
    Word,
    canonicalize_clopen,
    format_word,
    parse_word,
)


class TableMap:
    """An element of the continuous full group as a prefix-exchange table.

    ``code`` maps the words of a complete prefix code to their images;
    ``depth`` is at least its longest word.  Tables built by validation,
    construction, composition or reduction have ``depth`` equal to their
    longest domain word; an inverse keeps the depth of its uniform view.

    Immutable after construction.  Two tables are equal when they have the
    same matrix, the same depth and the same uniform entries; use
    :meth:`same_map` to compare the homeomorphisms alone.
    """

    __slots__ = ("matrix", "depth", "code", "_entries", "_reduced")

    def __init__(self, matrix: TransitionMatrix, depth: int, code: dict[Word, Word]):
        self.matrix = matrix
        self.depth = depth
        self.code = code
        self._entries: dict[Word, Word] | None = None
        self._reduced: TableMap | None = None

    @classmethod
    def identity(cls, matrix: TransitionMatrix) -> "TableMap":
        return cls(matrix, 0, {EMPTY_WORD: EMPTY_WORD})

    @property
    def entries(self) -> dict[Word, Word]:
        """The uniform view: the image of every admissible word of length
        ``depth``.  Built on first use and cached; the group operations
        never read it."""
        if self._entries is None:
            depth = self.depth
            if all(len(nu) == depth for nu in self.code):
                self._entries = self.code
            else:
                extensions = self.matrix.extensions
                view: dict[Word, Word] = {}
                for nu, rho in self.code.items():
                    for w in extensions(nu, depth):
                        view[w] = rho + w[len(nu):]
                self._entries = view
        return self._entries

    def entry_count(self) -> int:
        """``len(self.entries)``, counted without building the view."""
        matrix, depth = self.matrix, self.depth
        return sum(
            matrix.continuation_count(nu[-1], depth - len(nu)) if nu else matrix.word_count(depth)
            for nu in self.code
        )

    def __eq__(self, other):
        return (
            isinstance(other, TableMap)
            and self.matrix == other.matrix
            and self.depth == other.depth
            and (self.code == other.code or self.reduce().code == other.reduce().code)
        )

    def __hash__(self):
        return hash((self.matrix, self.depth, frozenset(self.reduce().code.items())))

    def __repr__(self):
        if self.is_identity:
            return "TableMap(identity)"
        return f"TableMap(depth={self.depth}, {self.entry_count()} entries)"

    @property
    def is_identity(self) -> bool:
        return all(v == k for k, v in self.code.items())

    # -- pointwise action ---------------------------------------------------

    def apply(self, point: EPPoint) -> EPPoint:
        """Image of an eventually periodic point; exact."""
        k = self.depth
        prefix = point.prefix(k)
        code = self.code
        image = code.get(prefix)
        while image is None and k > 0:
            k -= 1
            image = code.get(prefix[:k])
        if image is None:
            raise InadmissibleWord(f"point prefix {format_word(prefix)} is not admissible")
        tail = point.shift(k)
        return EPPoint.from_primitive(image + tail.pre, tail.per)

    def word_image(self, word: Word) -> Word | None:
        """Image of the cylinder of word when one domain cylinder holds it."""
        code = self.code
        for k in range(min(len(word), self.depth), -1, -1):
            rho = code.get(word[:k])
            if rho is not None:
                return rho + word[k:]
        return None

    def _split(self, word: Word) -> list[tuple[Word, Word]]:
        """The cylinder of word cut along the domain code: pairs (s, image)
        whose cylinders word.s partition it, each carried onto image."""
        image = self.word_image(word)
        if image is not None:
            return [(EMPTY_WORD, image)]
        matrix, code, depth = self.matrix, self.code, self.depth
        if len(word) >= depth:
            raise InadmissibleWord(f"word {format_word(word)} is not admissible")
        out = []
        stack = [(a,) for a in (matrix.successors(word[-1]) if word else matrix.symbols())]
        while stack:
            s = stack.pop()
            w = word + s
            rho = code.get(w)
            if rho is not None:
                out.append((s, rho))
            elif len(w) < depth:
                stack.extend(s + (a,) for a in matrix.successors(s[-1]))
            else:
                raise InadmissibleWord(f"word {format_word(w)} is not admissible")
        return out

    # -- group operations ---------------------------------------------------

    def compose(self, inner: "TableMap") -> "TableMap":
        """self after inner, as a reduced table.

        Each image cylinder of ``inner`` is cut along this table's domain
        code only as far as it needs; the pieces form the composed code.
        """
        if self.matrix != inner.matrix:
            raise MatrixMismatch("cannot compose tables over different matrices")
        code: dict[Word, Word] = {}
        for nu, rho in inner.code.items():
            for s, image in self._split(rho):
                code[nu + s] = image
        return TableMap(self.matrix, max(map(len, code)), code).reduce()

    def inverse(self) -> "TableMap":
        """The inverse table: the code reversed.  Its depth is the longest
        image in this table's uniform view, so its uniform view is that
        view reversed and written out at one depth."""
        depth = max(len(rho) + self.depth - len(nu) for nu, rho in self.code.items())
        return TableMap(self.matrix, depth, {rho: nu for nu, rho in self.code.items()})

    def reduce(self) -> "TableMap":
        """The reduced code: the unique minimal-depth table denoting the same
        homeomorphism.  Computed once per table."""
        if self._reduced is None:
            self._reduced = self._merge_families()
            self._reduced._reduced = self._reduced
        return self._reduced

    def _merge_families(self) -> "TableMap":
        """Merge complete sibling families until none is left.

        A family merges into its parent when every child word's image ends
        in the child's last symbol, the images share one parent image, and
        that image ends in a symbol with the parent's follower row; the
        empty word is reached only by the identity.  Merges commute, so
        the order does not matter: the result is the reduced code.
        """
        matrix, code = self.matrix, self.code
        # parent -> its child words whose image ends in the child's last symbol
        families: dict[Word, list[Word]] = {}
        for nu, rho in code.items():
            if nu and rho and rho[-1] == nu[-1]:
                families.setdefault(nu[:-1], []).append(nu)
        ready = [p for p, kids in families.items() if len(kids) == _arity(matrix, p)]
        merged = False
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
            if not merged:
                code = dict(code)
                merged = True
            for nu in kids:
                del code[nu]
            code[parent] = image
            if parent and image[-1] == parent[-1]:
                siblings = families.setdefault(parent[:-1], [])
                siblings.append(parent)
                if len(siblings) == _arity(matrix, parent[:-1]):
                    ready.append(parent[:-1])
        depth = max(map(len, code))
        if not merged and depth == self.depth:
            return self
        return TableMap(matrix, depth, code)

    def same_map(self, other: "TableMap") -> bool:
        return self.reduce().code == other.reduce().code

    def order(self, bound: int, entry_cap: int = 4096) -> int | None:
        """Least k <= bound with the k-th power trivial, else None.  Also
        None once a power's reduced code has more than entry_cap words."""
        if bound < 1:
            raise BadInput("order bound must be at least 1")
        g = self.reduce()
        if g.is_identity:
            return 1
        acc = g
        for k in range(2, bound + 1):
            acc = g.compose(acc)
            if acc.is_identity:
                return k
            if len(acc.code) > entry_cap:
                return None
        return None

    def commutes(self, other: "TableMap") -> bool:
        return self.compose(other).same_map(other.compose(self))

    def conjugate_by(self, gamma: "TableMap") -> "TableMap":
        """gamma^-1 . self . gamma"""
        return gamma.inverse().compose(self).compose(gamma)

    # -- refinement ---------------------------------------------------------

    def refine_to(self, depth: int) -> "TableMap":
        """The same map with its uniform view at a greater depth."""
        if depth < self.depth:
            raise BadInput("cannot refine a table to a smaller depth")
        if depth == self.depth:
            return self
        return TableMap(self.matrix, depth, self.code)

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
        matrix, code = self.matrix, self.code
        kept = [nu for nu, rho in code.items() if rho == nu]
        fixed_clopen = canonicalize_clopen(matrix, kept, trusted=True)
        isolated = []
        for nu, rho in code.items():
            if len(rho) > len(nu) and rho[: len(nu)] == nu:
                loop = rho[len(nu):]
                if matrix.arc(loop[-1], loop[0]):
                    isolated.append(EPPoint.make(nu, loop))
            elif len(nu) > len(rho) and nu[: len(rho)] == rho:
                loop = nu[len(rho):]
                if matrix.arc(loop[-1], loop[0]):
                    isolated.append(EPPoint.make(rho, loop))
        isolated.sort(key=lambda p: p.sort_key())
        return self.support(), FixedSet(fixed_clopen, tuple(isolated))

    def support(self) -> ClopenSet:
        """The clopen support alone: the union of the moved domain cylinders."""
        moved = [nu for nu, rho in self.code.items() if rho != nu]
        return canonicalize_clopen(self.matrix, moved, trusted=True)

    def cocycles(self) -> "CocycleTable":
        return CocycleTable(
            self.depth, {nu: (len(rho), self.depth) for nu, rho in self.entries.items()}
        )

    def in_local_subgroup(self, region: ClopenSet) -> bool:
        """Whether this element fixes the complement of the region pointwise.

        A nonempty clopen set has no isolated points, so it cannot hide in
        finitely many isolated fixed points: the clopen fixed part must
        contain the whole complement, equivalently the support must sit
        inside the region.
        """
        if self.matrix != region.matrix:
            raise MatrixMismatch("region lives over a different matrix")
        return self.support().is_subset_of(region)

    def image_clopen(self, clopen: ClopenSet) -> ClopenSet:
        """The image of a clopen set, as a canonical clopen set."""
        if self.matrix != clopen.matrix:
            raise MatrixMismatch("clopen set lives over a different matrix")
        if clopen.is_empty:
            return clopen
        # each domain cylinder meets the set in whole cylinders: all of it
        # when its word is at least as long as the set's words, else the
        # set's words that extend it
        depth, words = clopen.depth, clopen.words
        out = []
        for nu, rho in self.code.items():
            k = len(nu)
            if k >= depth:
                if nu[:depth] in words:
                    out.append(rho)
            else:
                out.extend(rho + w[k:] for w in words if w[:k] == nu)
        return canonicalize_clopen(self.matrix, out, trusted=True)

    def split_invariant(self, region: ClopenSet) -> tuple["TableMap", "TableMap"]:
        """Factor over an invariant clopen set: a piece supported inside it
        times a piece supported in its complement."""
        if self.matrix != region.matrix:
            raise MatrixMismatch("region lives over a different matrix")
        if self.image_clopen(region) != region:
            raise NotInvariant("the map does not carry the given clopen set onto itself")
        matrix = self.matrix
        inside: dict[Word, Word] = {}
        outside: dict[Word, Word] = {}
        stack = list(self.code.items())
        while stack:
            nu, rho = stack.pop()
            if region.contains_word(nu):
                inside[nu] = rho
                outside[nu] = nu
            elif not region.meets_word(nu):
                inside[nu] = nu
                outside[nu] = rho
            else:
                succ = matrix.successors(nu[-1]) if nu else matrix.symbols()
                stack.extend((nu + (a,), rho + (a,)) for a in succ)
        part_in = TableMap(matrix, max(map(len, inside)), inside).reduce()
        part_out = TableMap(matrix, max(map(len, outside)), outside).reduce()
        return part_in, part_out


def _arity(matrix: TransitionMatrix, word: Word) -> int:
    """Number of one-symbol extensions of word."""
    return len(matrix.successors(word[-1])) if word else matrix.n


@dataclass(frozen=True)
class FixedSet:
    """Exact fixed-point set: a clopen part plus finitely many isolated
    eventually periodic points sitting inside moved cylinders."""

    clopen_part: ClopenSet
    isolated: tuple[EPPoint, ...]


@dataclass
class CocycleTable:
    """Per-cylinder orbit cocycle constants (k, l): shifting the image by k
    equals shifting the point by l, on every point of the cylinder."""

    depth: int
    values: dict[Word, tuple[int, int]]

    def pair(self, word: Word) -> tuple[int, int]:
        return self.values[word]


def validate_table(matrix: TransitionMatrix, raw_entries: Mapping) -> TableMap:
    """Check raw entries and return a valid uniform table, or diagnose.

    Checks, in order: the domain is exactly the set of depth-L words; then
    the images, as :func:`validate_images` does.
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
        return TableMap(matrix, 0, {EMPTY_WORD: EMPTY_WORD})
    expected = set(matrix.words(depth))
    have = set(entries)
    if have != expected:
        missing = sorted(expected - have)
        extra = sorted(have - expected)
        if missing:
            raise BadDomain(f"domain misses word {format_word(missing[0])}")
        raise BadDomain(f"domain has bad word {format_word(extra[0])}")
    validate_images(matrix, entries)
    return TableMap(matrix, depth, entries)


def validate_images(matrix: TransitionMatrix, code: Mapping[Word, Word]) -> None:
    """Check the images of a complete prefix code of nonempty words, or
    diagnose: each image is admissible, nonempty and row-compatible with
    its domain word; the image cylinders are pairwise disjoint; they cover
    the whole space."""
    for nu, rho in code.items():
        if not rho:
            raise RowMismatch(f"entry {format_word(nu)} has an empty image")
        if not matrix.is_admissible(rho):
            raise InadmissibleWord(f"image {format_word(rho)} is not admissible")
        if matrix.row(rho[-1]) != matrix.row(nu[-1]):
            raise RowMismatch(
                f"entry {format_word(nu)} -> {format_word(rho)}: "
                f"row of {rho[-1]} differs from row of {nu[-1]}"
            )
    images = sorted(code.values())
    for a, b in zip(images, images[1:]):
        if b[: len(a)] == a:
            raise ImagesOverlap(f"images {format_word(a)} and {format_word(b)} intersect")
    top = max(len(r) for r in images)
    covered = sum(matrix.continuation_count(r[-1], top - len(r)) for r in images)
    if covered != matrix.word_count(top):
        raise ImagesDontCover(
            f"images cover {covered} of {matrix.word_count(top)} depth-{top} cylinders"
        )


def compose(outer: TableMap, inner: TableMap) -> TableMap:
    return outer.compose(inner)


def format_table_text(table: TableMap) -> str:
    """The uniform view as text: ``L depth`` then one line per entry."""
    lines = [f"L {table.depth}"]
    for nu, rho in sorted(table.entries.items()):
        lines.append(f"{format_word(nu)} -> {format_word(rho)}")
    return "\n".join(lines) + "\n"


def parse_table_text(matrix: TransitionMatrix, text: str) -> TableMap:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise BadInput("empty table file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "L":
        raise BadInput(f"bad table header {lines[0]!r}")
    try:
        depth = int(head[1])
    except ValueError:
        raise BadInput(f"bad table depth {head[1]!r}") from None
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
