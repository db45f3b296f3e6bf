"""Shift spaces over 0-1 transition matrices, exactly.

This module fixes the combinatorial ground the rest of the package stands
on: validated transition matrices, admissible words as plain tuples of
1-based symbols, clopen subsets as reduced prefix codes, and eventually
periodic points as (preperiod, period) pairs.  Everything is an immutable
value and every operation is exact; two clopen sets denote the same
subset of the shift space if and only if they compare equal.  A clopen
set stores its maximal cylinders as a sorted tuple, and ``TableMap`` its
domain beside the aligned images, so a deep cylinder costs one word and
the walks along a code (:func:`cut`, :func:`merge_siblings`) never sort.
The words of one depth are computed when read, for the text formats.
Both codes are reduced by one sweep, :func:`merge_siblings`: a clopen set
is a table whose every word is fixed.  :meth:`TransitionMatrix.count_within`
counts words with one rolling row; no matrix table grows with the length.
The three file readers share :func:`text_lines`, and the ``D`` and ``L``
readers :func:`view_header`; the ``D`` writer prints the view that
:meth:`ClopenSet.sorted_words` lists.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from math import inf
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadInput,
    ConditionIFails,
    InadmissibleWord,
    MatrixMismatch,
    NotEssential,
    NotIrreducible,
    SearchLimitExceeded,
)

Word = tuple[int, ...]
Code = tuple[Word, ...]  # a prefix code: sorted, no word a prefix of another

EMPTY_WORD: Word = ()

# The most cylinders one enumeration may list at a time: the CLI's word
# listing and the table search's leaf bookkeeping both refuse to go past it.
CYLINDER_LIMIT = 1_000_000


class TransitionMatrix:
    """A validated N x N 0-1 matrix: essential, irreducible, not a permutation.

    Symbols are the integers 1..N.  Instances are immutable and hashable;
    use :func:`validate_matrix` to build one from raw rows.  The follower
    relation is stored once: ``_succ[a]`` lists the followers of a in
    increasing order, ``_succ[0]`` every symbol.  Only :meth:`words`
    caches, for short lengths.
    """

    __slots__ = ("n", "entries", "_succ", "_words")

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        self.n = len(entries)
        self.entries = entries
        self._succ = (tuple(range(1, self.n + 1)),) + tuple(
            tuple(j + 1 for j, v in enumerate(row) if v) for row in entries
        )
        self._words: dict[int, tuple[Word, ...]] = {}

    def __eq__(self, other):
        return isinstance(other, TransitionMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"TransitionMatrix({self.n}x{self.n})"

    def arc(self, i: int, j: int) -> int:
        return self.entries[i - 1][j - 1]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i - 1]

    def successors(self, i: int) -> tuple[int, ...]:
        """The followers of symbol i; every symbol for i = 0."""
        return self._succ[i]

    def symbols(self) -> range:
        return range(1, self.n + 1)

    def is_admissible(self, word: Sequence[int]) -> bool:
        for s in word:
            if not 1 <= s <= self.n:
                return False
        return all(self.arc(word[t], word[t + 1]) for t in range(len(word) - 1))

    def count_within(self, words: Iterable[Word], k: int, limit: int) -> int | None:
        """The number of length-k extensions of the given prefix-incomparable
        words, none longer than k, when it is at most limit; else None.

        The one word counter; a limit of ``inf`` gives the exact count,
        uncached.  One sparse rolling row of counts by last symbol (0 for
        the empty word) that each word joins at its length.  Every symbol
        has a follower, so the count never falls, and the loop stops at the
        first length past the limit."""
        if k < 0:
            raise BadInput("word length must be non-negative")
        succ = self._succ
        joins: dict[int, list[int]] = {}
        for w in words:
            joins.setdefault(len(w), []).append(w[-1] if w else 0)
        row: dict[int, int] = {}
        total = 0
        for length in range(min(joins, default=k), k + 1):
            nxt: dict[int, int] = {}
            for a, c in row.items():
                for b in succ[a]:
                    nxt[b] = nxt.get(b, 0) + c
            for a in joins.get(length, ()):
                nxt[a] = nxt.get(a, 0) + 1
            row = nxt
            total = sum(row.values())
            if total > limit:
                return None
        return total

    def words(self, k: int) -> tuple[Word, ...]:
        """All admissible words of length k, lexicographically sorted: the
        extensions of the empty word.  Lengths up to 12 are cached per
        matrix, since callers that draw random words ask for the same
        lengths over and over."""
        if k < 0:
            raise BadInput("word length must be non-negative")
        cached = self._words.get(k)
        if cached is not None:
            return cached
        result = tuple(self.extensions(EMPTY_WORD, k))
        if k <= 12:
            self._words[k] = result
        return result

    def extensions(self, word: Word, target_len: int) -> Iterator[Word]:
        """All admissible extensions of word to exactly target_len, in lex order.

        A depth-first walk over one mutable path, with one follower iterator
        per open position and no recursion, so any length works.  A tuple is
        built only for the path above the last position, which then yields
        its children at once."""
        if target_len < len(word):
            raise BadInput("cannot extend a word to a shorter length")
        gap = target_len - len(word)
        if not gap:
            yield word
            return
        succ = self._succ
        path = list(word)
        # stack[i] iterates the candidates for the symbol at position len(word) + i
        stack = [iter(succ[word[-1] if word else 0])]
        while stack:
            if len(stack) == gap:
                prefix = tuple(path)
                for a in stack.pop():
                    yield prefix + (a,)
            else:
                a = next(stack[-1], 0)  # symbols start at 1
                if a:
                    path.append(a)
                    stack.append(iter(succ[a]))
                    continue
                stack.pop()
            if stack:
                path.pop()


def validate_matrix(raw: Sequence[Sequence[int]]) -> TransitionMatrix:
    """Check a raw 0-1 array and return the ambient matrix, or diagnose.

    The three properties are checked in order: essential (no zero row or
    column), irreducible (every state reaches every state), and the
    Cuntz-Krieger non-degeneracy, which for irreducible matrices amounts
    to not being a permutation matrix.
    """
    n = len(raw)
    if n < 2:
        raise BadInput(f"need at least 2 symbols, got {n}")
    rows = []
    for i, row in enumerate(raw):
        if len(row) != n:
            raise BadInput(f"row {i + 1} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if v not in (0, 1):
                raise BadInput(f"entry ({i + 1},{j + 1}) = {v!r} is not a bit")
        rows.append(tuple(int(v) for v in row))
    entries = tuple(rows)
    for i in range(n):
        if not any(entries[i]):
            raise NotEssential(f"row {i + 1} is zero")
    for j in range(n):
        if not any(entries[i][j] for i in range(n)):
            raise NotEssential(f"column {j + 1} is zero")
    matrix = TransitionMatrix(entries)
    succ = matrix._succ
    pred = (None,) + tuple(tuple(i + 1 for i, v in enumerate(col) if v) for col in zip(*entries))
    # irreducible iff state 1 reaches every state and every state reaches
    # state 1; a reducible matrix is scanned for the first state that fails
    if len(_reached(succ, 1)) != n or len(_reached(pred, 1)) != n:
        for i in matrix.symbols():
            seen = _reached(succ, i)
            if len(seen) != n:
                missing = min(set(matrix.symbols()) - seen)
                raise NotIrreducible(f"state {i} cannot reach state {missing}")
    if all(sum(row) == 1 for row in entries):
        raise ConditionIFails("matrix is a permutation matrix; every point is isolated")
    return matrix


def _reached(succ: Sequence[Sequence[int]], start: int) -> set[int]:
    """The states reached from start along nonempty paths; succ[i] lists
    the followers of state i."""
    seen: set[int] = set()
    frontier = list(succ[start])
    while frontier:
        t = frontier.pop()
        if t not in seen:
            seen.add(t)
            frontier.extend(succ[t])
    return seen


# ---------------------------------------------------------------------------
# clopen sets


def check_view_size(matrix: TransitionMatrix, code: Iterable[Word], depth: int, what: str) -> None:
    """Refuse a uniform view, the extensions of a prefix code's words to
    one depth, of more than ``CYLINDER_LIMIT`` words, before any is listed;
    ``what`` names the viewed value in the message."""
    # at most n ** depth words exist, so a shallow view skips the count
    limit = CYLINDER_LIMIT
    if matrix.n**depth > limit and matrix.count_within(code, depth, limit) is None:
        raise BadInput(f"{what} at depth {depth} spans more than {limit} cylinders")


def cut(matrix: TransitionMatrix, code: Sequence[Word], word: Word) -> list[tuple[Word, int]]:
    """The cylinder of word cut along a sorted prefix code: the pieces in
    sorted order, each with the index of the code word that is its prefix,
    or -1 when it meets no code word.

    Only the greatest code word at most a piece can be its prefix, and the
    code words that extend a piece, if any, follow that one at once; so
    one bisection classifies a piece, and only a piece that some code word
    extends is split into its one-symbol extensions."""
    succ, n = matrix._succ, len(code)
    out: list[tuple[Word, int]] = []
    # children go on in order and come off greatest first, so the pieces
    # come out in reverse sorted order
    stack = [word]
    while stack:
        w = stack.pop()
        i = bisect_right(code, w)
        if i and w[: len(c := code[i - 1])] == c:
            out.append((w, i - 1))
        elif i < n and code[i][: len(w)] == w:
            stack += [w + (a,) for a in succ[w[-1] if w else 0]]
        else:
            out.append((w, -1))
    out.reverse()
    return out


@dataclass(frozen=True)
class ClopenSet:
    """A clopen subset as its reduced prefix code: its maximal cylinders,
    a sorted tuple of prefix-incomparable words with no complete sibling
    family.  The code is unique, so equal sets have equal codes; the empty
    set has no word and the whole space the empty word alone.

    ``depth``, the longest code word (found once), is the least depth at
    which the set is a union of cylinders of one length.  :meth:`view`
    streams the set's words of such a depth in sorted order; ``words``,
    :meth:`refine` and the text format list them once :meth:`_check_view`
    has counted them.  Only the greatest code word at most w can be a
    prefix of w, so membership is one bisection, and the relations are
    built from such lookups without padding any word.
    """

    matrix: TransitionMatrix
    code: Code

    @cached_property
    def depth(self) -> int:
        return max(map(len, self.code)) if self.code else 0

    @property
    def is_empty(self) -> bool:
        return not self.code

    @property
    def is_full(self) -> bool:
        return self.code == (EMPTY_WORD,)

    @property
    def words(self) -> frozenset[Word]:
        """The uniform view at ``depth``."""
        return self.refine(self.depth)

    def view(self, depth: int) -> Iterator[Word]:
        """Every word of the given depth >= self.depth inside the set, in
        sorted order: the code words in order, each extended in order."""
        extensions = self.matrix.extensions
        for w in self.code:
            yield from extensions(w, depth)

    def refine(self, depth: int) -> frozenset[Word]:
        """The same set written as words of the given depth >= self.depth."""
        self._check_view(depth)
        return frozenset(self.view(depth))

    def sorted_words(self) -> list[Word]:
        """The uniform view at ``depth`` as a list, in sorted order."""
        self._check_view(self.depth)
        return list(self.view(self.depth))

    def _check_view(self, depth: int) -> None:
        """Refuse a depth below ``depth``, or one at which the set has more
        than ``CYLINDER_LIMIT`` words, before any word is listed."""
        if depth < self.depth:
            raise BadInput("cannot refine a clopen set to a smaller depth")
        check_view_size(self.matrix, self.code, depth, "the clopen set")

    def count_at(self, depth: int) -> int:
        """``len(self.refine(depth))``, counted without listing the words."""
        if depth < self.depth:
            raise BadInput("cannot refine a clopen set to a smaller depth")
        return self.matrix.count_within(self.code, depth, inf)

    def contains_point(self, point: "EPPoint") -> bool:
        return self.contains_word(point.prefix(self.depth))

    def contains_word(self, word: Word) -> bool:
        """Whether the whole cylinder of the word lies inside this set: the
        greatest code word at most word is a prefix of it."""
        code = self.code
        i = bisect_right(code, word)
        return bool(i) and word[: len(code[i - 1])] == code[i - 1]

    def meets_word(self, word: Word) -> bool:
        """Whether the cylinder of the word intersects this set: a code word
        holds it, or the next code word after word lies in it."""
        code = self.code
        i = bisect_right(code, word)
        if i and word[: len(code[i - 1])] == code[i - 1]:
            return True
        return i < len(code) and code[i][: len(word)] == word

    def complement(self) -> "ClopenSet":
        return full_space(self.matrix).difference(self)

    def union(self, other: "ClopenSet") -> "ClopenSet":
        self._same_matrix(other)
        return canonicalize_clopen(self.matrix, self.code + other.code, trusted=True)

    def intersection(self, other: "ClopenSet") -> "ClopenSet":
        """The deeper word of each nested pair of code words."""
        self._same_matrix(other)
        out = [w for w in self.code if other.contains_word(w)]
        out += [w for w in other.code if self.contains_word(w)]
        return canonicalize_clopen(self.matrix, out, trusted=True)

    def difference(self, other: "ClopenSet") -> "ClopenSet":
        """The pieces of each code word, cut along the other set's code,
        that miss the other set."""
        self._same_matrix(other)
        matrix, code = self.matrix, other.code
        out = [p for w in self.code for p, i in cut(matrix, code, w) if i < 0]
        return canonicalize_clopen(matrix, out, trusted=True)

    def compare(self, other: "ClopenSet") -> str:
        """Exact relation: equal, subset, superset, disjoint or overlapping."""
        self_in, other_in = self.is_subset_of(other), other.is_subset_of(self)
        if self_in and other_in:
            return "equal"
        if self_in:
            return "subset"
        if other_in:
            return "superset"
        return "overlapping" if any(other.meets_word(w) for w in self.code) else "disjoint"

    def is_subset_of(self, other: "ClopenSet") -> bool:
        """Whether each code word lies inside the other set: a cylinder
        inside a set lies inside one of its maximal cylinders."""
        self._same_matrix(other)
        return all(other.contains_word(w) for w in self.code)

    def _same_matrix(self, other: "ClopenSet") -> None:
        if self.matrix != other.matrix:
            raise MatrixMismatch("clopen sets live over different matrices")


def canonicalize_clopen(
    matrix: TransitionMatrix,
    raw: Iterable[Sequence[int]],
    trusted: bool = False,
) -> ClopenSet:
    """The reduced prefix code of a union of cylinders given by any words:
    :func:`merge_siblings` with every word fixed.

    With ``trusted`` the words must already be admissible tuples of ints,
    and are taken as they are; otherwise each is converted and checked.
    """
    if trusted:
        words = sorted(raw)
    else:
        checked = set()
        for w in raw:
            t = tuple(int(s) for s in w)
            if not matrix.is_admissible(t):
                raise InadmissibleWord(f"word {t} is not admissible")
            checked.add(t)
        words = sorted(checked)
    return ClopenSet(matrix, tuple(merge_siblings(matrix, words, {})))


def merge_siblings(
    matrix: TransitionMatrix, words: Sequence[Word], moved: dict[Word, Word]
) -> list[Word]:
    """The reduced prefix code of sorted words, each mapped to its image in
    ``moved`` or else fixed: the one normal form of clopen sets (every word
    fixed) and of tables (the tree-pair normal form of Cannon-Floyd-Parry).

    One sweep keeps the code so far on a stack.  A word inside an earlier
    one (or equal to it) lies inside the top, since every word sorted
    between a word and its extension extends it too, and is dropped.  Any
    other word is pushed with its run: itself and the siblings right below
    it, as siblings sort together.  A run that is a whole family ending in
    its last child is replaced by the parent when the children's images are
    one parent image followed by each child's last symbol, and that image
    is nonempty and ends in a symbol with the parent's follower row (unless
    the parent is empty: then the images cover the space); the parent's
    image then goes into ``moved``.
    """
    succ = matrix._succ
    stack: list[Word] = []
    runs: list[int] = []  # runs[i]: stack[i] and its siblings right below it
    for w in words:
        if stack and w[: len(stack[-1])] == stack[-1]:
            continue
        run = 1
        while w:
            parent = w[:-1]
            top = stack[-1] if stack else EMPTY_WORD
            run = runs[-1] + 1 if len(top) == len(w) and top[:-1] == parent else 1
            up = succ[parent[-1] if parent else 0]
            if up[-1] != w[-1] or run < len(up):
                break  # not the last child, or a sibling is missing
            if moved:  # else every word is fixed, and every family merges
                image = moved.get(w, w)[:-1]
                family = stack[len(stack) + 1 - run :] + [w]
                if any(moved.get(c, c) != image + c[-1:] for c in family):
                    break
                if parent and (not image or matrix.row(image[-1]) != matrix.row(parent[-1])):
                    break
                moved[parent] = image
            del stack[len(stack) + 1 - run :], runs[len(runs) + 1 - run :]
            w = parent
        stack.append(w)
        runs.append(run)
    return stack


def cylinder(matrix: TransitionMatrix, word: Sequence[int]) -> ClopenSet:
    return canonicalize_clopen(matrix, [tuple(word)])


def full_space(matrix: TransitionMatrix) -> ClopenSet:
    return ClopenSet(matrix, (EMPTY_WORD,))


def empty_set(matrix: TransitionMatrix) -> ClopenSet:
    return ClopenSet(matrix, ())


# ---------------------------------------------------------------------------
# eventually periodic points


@dataclass(frozen=True, order=True)
class EPPoint:
    """The eventually periodic sequence preperiod . period . period . ...

    Always stored canonically: the period is primitive and the preperiod
    cannot be rolled into it, so two values are equal exactly when they
    denote the same point.  Build through :meth:`make`.
    """

    pre: Word
    per: Word

    @staticmethod
    def make(pre: Sequence[int], per: Sequence[int]) -> "EPPoint":
        pre = tuple(pre)
        per = tuple(per)
        p = len(per)
        if not p:
            raise BadInput("period must be nonempty")
        for d in range(1, p):
            if p % d == 0 and per == per[:d] * (p // d):
                per = per[:d]
                break
        return EPPoint.from_primitive(pre, per)

    @staticmethod
    def from_primitive(pre: Word, per: Word) -> "EPPoint":
        """The point pre.per.per... for a primitive period ``per``: the
        preperiod is rolled into the period as far as it goes."""
        p, k = len(per), 0
        while k < len(pre) and pre[-1 - k] == per[(-1 - k) % p]:
            k += 1
        if not k:
            return EPPoint(pre, per)
        r = p - k % p
        return EPPoint(pre[: len(pre) - k], per[r:] + per[:r])

    def prefix(self, k: int) -> Word:
        pre = self.pre
        if k <= len(pre):
            return pre[:k]
        reps = -(-(k - len(pre)) // len(self.per))
        return (pre + self.per * reps)[:k]

    def shift(self, k: int) -> "EPPoint":
        """Drop the first k symbols.  A suffix of a canonical preperiod and
        a rotation of a primitive period are still canonical."""
        if k <= len(self.pre):
            return EPPoint(self.pre[k:], self.per)
        j = (k - len(self.pre)) % len(self.per)
        return EPPoint(EMPTY_WORD, self.per[j:] + self.per[:j])

    def __repr__(self):
        return f"EPPoint({format_point(self)})"


def is_point_admissible(matrix: TransitionMatrix, point: EPPoint) -> bool:
    # pre.per.per[0] holds every symbol and arc of the point
    return matrix.is_admissible(point.pre + point.per + point.per[:1])


def first_return(matrix: TransitionMatrix, sym: int, min_len: int = 1) -> Word:
    """Lexicographically least shortest word r with sym.r admissible, r ending
    back at sym, of length >= min_len: :func:`_least_path` from sym to sym."""
    return _least_path(matrix, sym, sym, min_len)


def second_return(matrix: TransitionMatrix, sym: int, ret: Word) -> Word:
    """Lexicographically least shortest word r of length >= 3 with sym.r
    admissible, r ending back at sym and prefix-incomparable with `ret`, a
    return word at sym.

    A breadth-first search over states, like :func:`first_return`, over the
    words that have left `ret`: every extension of such a word has left it
    too, so per length the least one ending at each symbol is enough.  While
    the length is at most len(ret), the one word still on `ret` adds its
    other one-symbol children.  Some symbol along `ret` branches, since an
    unbranched cycle through sym would make the matrix a permutation; so a
    word leaves `ret` within len(ret) symbols and is back at sym within n
    more, and going once more round `ret` reaches length 3.
    """
    best: dict[int, Word] = {}
    cap = len(ret) + matrix.n + 1
    for length in range(1, cap + 1):
        best = _extend_least_words(matrix, best)
        if length <= len(ret):
            stem = ret[: length - 1]
            for a in matrix.successors(stem[-1] if stem else sym):
                w = stem + (a,)
                if a != ret[length - 1] and (a not in best or w < best[a]):
                    best[a] = w
        if length >= 3 and sym in best:
            return best[sym]
    raise SearchLimitExceeded(f"no second return word at {sym} within length {cap}")


def least_gap(matrix: TransitionMatrix, words: list[Word]) -> Word | None:
    """The largest cylinder at the least point that no word covers, or None
    when the words cover the space.  The words are admissible, sorted and
    pairwise prefix-incomparable, so their cylinders are disjoint intervals
    of the lexicographic order on points, in the order of the list.

    One sweep: the point p up to which the words have covered the space is
    g followed by least followers, where g (``gap`` below) is the largest
    cylinder whose least point is p.  The next word must be a prefix of p; it then covers
    up to the end of its cylinder, and the next g is the word cut at its
    last symbol that has a larger sibling, with that sibling.  Otherwise
    the next word starts after p, and p's cylinder of length
    max(len(g), c + 1) is the gap, where c is the length of the common
    prefix of p and the word.  The cost is linear in the total length of
    the words, with no counts.
    """
    succ = matrix._succ
    gap: Word | None = EMPTY_WORD
    for w in words:
        if w[: len(gap)] != gap[: len(w)]:
            return gap
        prev = gap[-1] if gap else 0
        for i in range(len(gap), len(w)):
            least = succ[prev][0]
            prev = w[i]
            if prev != least:
                return w[:i] + (least,)
        gap = None
        for k in range(len(w) - 1, -1, -1):
            up = succ[w[k - 1] if k else 0]
            if (j := bisect_right(up, w[k])) < len(up):
                gap = w[:k] + (up[j],)
                break
    return gap


def point_in(clopen: ClopenSet) -> EPPoint:
    """A concrete eventually periodic point of a nonempty clopen set."""
    if clopen.is_empty:
        raise BadInput("the empty set contains no points")
    word = next(clopen.view(max(clopen.depth, 1)))
    return EPPoint.make(word, first_return(clopen.matrix, word[-1]))


# ---------------------------------------------------------------------------
# path constructions in the transition graph


def _extend_least_words(matrix: TransitionMatrix, best: dict[int, Word]) -> dict[int, Word]:
    """One more symbol on the least words of one length, keyed by last
    symbol: the least extension ending at each symbol.  The least word of
    length k + 1 ending at b extends the least word of length k ending at
    some predecessor of b, so these are again the least words."""
    out: dict[int, Word] = {}
    for a, w in best.items():
        for b in matrix.successors(a):
            nxt = w + (b,)
            if b not in out or nxt < out[b]:
                out[b] = nxt
    return out


def _least_path(matrix: TransitionMatrix, u: int, v: int, min_len: int) -> Word:
    """The least word r among the shortest with len(r) >= min_len, u.r
    admissible and r ending at v, keeping per length the least word that
    ends at each symbol; r is nonempty, so a min_len below 1 counts as 1.
    It has at most min_len + n - 1 symbols: a walk of min_len - 1 symbols
    from u, then the shortest nonempty path on to v, whose symbols differ
    (else a loop could be cut), is such a word."""
    best = {a: (a,) for a in matrix._succ[u]}
    length = 1
    while length < min_len or v not in best:
        if length == (cap := max(min_len, 1) + matrix.n - 1):
            raise SearchLimitExceeded(f"no path from {u} to {v} within min_len + n - 1 = {cap}")
        best = _extend_least_words(matrix, best)
        length += 1
    return best[v]


def connect_path(matrix: TransitionMatrix, u: int, v: int) -> Word:
    """The least among the shortest words xi with u.xi.v admissible:
    :func:`_least_path` from u to v, less its last symbol v."""
    return _least_path(matrix, u, v, 1)[:-1]


def distinct_path_pair(matrix: TransitionMatrix, frm: int) -> tuple[Word, Word, int]:
    """Two distinct equal-length words s, s' leaving `frm` and feeding the
    same symbol u: A(frm,s1) = A(frm,s'1) = A(sk,u) = A(s'k,u) = 1.

    The search tries lengths 1, 2, ... up to n*n + n, each level in sorted
    order, stepping the least word per end symbol by
    :func:`_extend_least_words`; up to the first level holding a pair that
    is every word.  Two words of length k + 1 ending in b have length-k
    prefixes that both feed b, a pair or one word; below the first pair they
    are one, so the two words are equal.  A level before the first pair has
    at most n words, whose ends share no follower, so the next has at least
    as many, and more once a word ends at a branching symbol, which every
    word reaches within n steps; so a level would pass n words, and hold a
    pair, within n*n lengths.
    """
    cap = matrix.n * matrix.n + matrix.n
    best = {a: (a,) for a in matrix.successors(frm)}
    for _ in range(cap):
        level = sorted(best.values())
        for i, s in enumerate(level):
            for sp in level[i + 1 :]:
                common = sorted(set(matrix.successors(s[-1])) & set(matrix.successors(sp[-1])))
                if common:
                    return s, sp, common[0]
        best = _extend_least_words(matrix, best)
    raise SearchLimitExceeded(
        f"no distinct path pair from {frm} within length {cap}; condition (I) violated?"
    )


# ---------------------------------------------------------------------------
# text formats


def format_matrix_text(matrix: TransitionMatrix) -> str:
    lines = [str(matrix.n)]
    lines.extend(" ".join(str(v) for v in row) for row in matrix.entries)
    return "\n".join(lines) + "\n"


def text_lines(text: str, what: str) -> list[str]:
    """The stripped nonblank lines of a text file; a file with none is
    refused, ``what`` naming its format in the message."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise BadInput(f"empty {what} file")
    return lines


def view_header(line: str, tag: str, what: str) -> int:
    """The depth that a uniform view's header line ``tag depth`` declares."""
    head = line.split()
    if len(head) != 2 or head[0] != tag:
        raise BadInput(f"bad {what} header {line!r}")
    try:
        return int(head[1])
    except ValueError:
        raise BadInput(f"bad {what} depth {head[1]!r}") from None


def parse_matrix_text(text: str) -> TransitionMatrix:
    lines = text_lines(text, "matrix")
    try:
        n = int(lines[0])
    except ValueError:
        raise BadInput(f"first line must be the size, got {lines[0]!r}") from None
    if len(lines) != n + 1:
        raise BadInput(f"expected {n} matrix rows, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            rows.append([int(tok) for tok in ln.split()])
        except ValueError:
            raise BadInput(f"bad matrix row {ln!r}") from None
    return validate_matrix(rows)


def format_word(word: Word) -> str:
    return ",".join(str(s) for s in word) if word else "EMPTY"


def parse_word(text: str) -> Word:
    text = text.strip()
    if not text or text == "EMPTY":
        return EMPTY_WORD
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise BadInput(f"bad word {text!r}") from None


def format_clopen_text(clopen: ClopenSet) -> str:
    """``D depth`` then the uniform view, one word a line, as
    :meth:`ClopenSet.sorted_words` lists it once it has checked its size."""
    if clopen.is_empty:
        return "EMPTY\n"
    if clopen.is_full:
        return "FULL\n"
    return "\n".join([f"D {clopen.depth}", *map(format_word, clopen.sorted_words())]) + "\n"


def parse_clopen_text(matrix: TransitionMatrix, text: str) -> ClopenSet:
    lines = text_lines(text, "clopen")
    if lines[0] == "EMPTY":
        return empty_set(matrix)
    if lines[0] == "FULL":
        return full_space(matrix)
    depth = view_header(lines[0], "D", "clopen")
    words = [parse_word(ln) for ln in lines[1:]]
    if any(len(w) != depth for w in words):
        raise BadInput("clopen words must all have the declared depth")
    return canonicalize_clopen(matrix, words)


def format_point(point: EPPoint) -> str:
    pre = ",".join(str(s) for s in point.pre)
    per = ",".join(str(s) for s in point.per)
    return f"{pre}|{per}"


def parse_point(text: str) -> EPPoint:
    if "|" not in text:
        raise BadInput(f"point syntax is pre|per, got {text!r}")
    pre_txt, per_txt = text.split("|", 1)
    try:
        pre = tuple(int(t) for t in pre_txt.split(",") if t.strip())
        per = tuple(int(t) for t in per_txt.split(",") if t.strip())
    except ValueError:
        raise BadInput(f"bad point {text!r}: symbols must be integers") from None
    if not per:
        raise BadInput("period part of a point must be nonempty")
    return EPPoint.make(pre, per)
