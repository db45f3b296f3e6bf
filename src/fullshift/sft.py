"""Shift spaces over 0-1 transition matrices, exactly.

This module fixes the combinatorial ground the rest of the package stands
on: validated transition matrices, admissible words as plain tuples of
1-based symbols, clopen subsets in a canonical uniform-depth form, and
eventually periodic points as (preperiod, period) pairs.  Everything is
an immutable value and every operation is exact; two clopen sets denote
the same subset of the shift space if and only if they compare equal.
Relations between two clopen sets read the deeper set's words against
the shallower set's words, one prefix lookup each, and only a union or
the shallower set minus the deeper one writes words out at the deeper
depth.
"""

from __future__ import annotations

from dataclasses import dataclass
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

EMPTY_WORD: Word = ()

# The most cylinders one enumeration may list at a time: the CLI's word
# listing and the table search's leaf bookkeeping both refuse to go past it.
CYLINDER_LIMIT = 1_000_000


class TransitionMatrix:
    """A validated N x N 0-1 matrix: essential, irreducible, not a permutation.

    Symbols are the integers 1..N.  Instances are immutable and hashable;
    use :func:`validate_matrix` to build one from raw rows.
    """

    __slots__ = ("n", "entries", "_succ", "_after", "_cont", "_words")

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        self.n = len(entries)
        self.entries = entries
        self._succ = (None,) + tuple(
            tuple(j + 1 for j, v in enumerate(row) if v) for row in entries
        )
        # _after[a][b]: the follower of a next after b (the least for b = 0),
        # 0 after the last; a = 0 stands for the empty word.  Built by
        # least_gap on first use.
        self._after: tuple[dict[int, int], ...] | None = None
        # _cont[k][sym]: the number of words of length k that may follow sym
        self._cont: list[tuple[int, ...]] = [(1,) * (self.n + 1)]
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
        return self._succ[i]

    def symbols(self) -> range:
        return range(1, self.n + 1)

    def is_admissible(self, word: Sequence[int]) -> bool:
        for s in word:
            if not 1 <= s <= self.n:
                return False
        return all(self.arc(word[t], word[t + 1]) for t in range(len(word) - 1))

    def continuation_count(self, sym: int, length: int) -> int:
        """Number of admissible words of the given length that may follow sym.

        The counts are a table by length, grown one length at a time, so
        any length costs no recursion."""
        counts = self._cont
        while len(counts) <= length:
            prev = counts[-1]
            counts.append((0,) + tuple(sum(prev[t] for t in succ) for succ in self._succ[1:]))
        return counts[length][sym]

    def word_count(self, k: int) -> int:
        if k < 0:
            raise BadInput("word length must be non-negative")
        if k == 0:
            return 1
        return sum(self.continuation_count(s, k - 1) for s in self.symbols())

    def word_count_within(self, k: int, limit: int) -> int | None:
        """``word_count(k)`` when it is at most limit, else None.

        One rolling row of counts by last symbol, with no table kept.  Every
        symbol has a follower, so the count never falls as the length
        grows, and the loop stops at the first length past the limit."""
        if k < 0:
            raise BadInput("word length must be non-negative")
        if k == 0:
            return 1 if limit >= 1 else None
        row = [0] + [1] * self.n
        total = self.n
        for _ in range(k - 1):
            if total > limit:
                return None
            row = self._longer(row)
            total = sum(row)
        return total if total <= limit else None

    def _longer(self, row: list[int]) -> list[int]:
        """Counts of words by last symbol (``row[sym]``, row[0] unused),
        carried to the words one symbol longer."""
        succ = self._succ
        nxt = [0] * (self.n + 1)
        for a in self.symbols():
            for b in succ[a]:
                nxt[b] += row[a]
        return nxt

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
        stack = [iter(succ[word[-1]] if word else self.symbols())]
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


@dataclass(frozen=True)
class ClopenSet:
    """A clopen subset in canonical form: a set of words of one common depth.

    The canonical form is the unique minimal uniform depth: words are
    padded to a common length and merged back down whenever *every*
    present sibling family is complete.  The empty set is depth 0 with no
    words; the whole space is depth 0 with the empty word.

    The relations go through :meth:`_split`, which sorts the deeper set's
    words into those inside and outside the shallower set.  Comparison,
    inclusion, intersection and the deeper set minus the shallower one
    read that split and list no other words: their cost is linear in the
    deeper set's words, plus at most one count per shallower word.  A
    union, and the shallower set minus the deeper one, expand shallower
    words to the deeper depth, as their result may need.
    """

    matrix: TransitionMatrix
    depth: int
    words: frozenset[Word]

    @property
    def is_empty(self) -> bool:
        return not self.words

    @property
    def is_full(self) -> bool:
        return self.depth == 0 and bool(self.words)

    def refine(self, depth: int) -> frozenset[Word]:
        """The same set written as words of the given depth >= self.depth."""
        if depth < self.depth:
            raise BadInput("cannot refine a clopen set to a smaller depth")
        if depth == self.depth:
            return self.words
        out = []
        for w in self.words:
            out.extend(self.matrix.extensions(w, depth))
        return frozenset(out)

    def contains_point(self, point: "EPPoint") -> bool:
        if self.is_empty:
            return False
        return point.prefix(self.depth) in self.words

    def contains_word(self, word: Word) -> bool:
        """Whether the whole cylinder of the word lies inside this set."""
        if self.is_empty:
            return False
        if len(word) >= self.depth:
            return word[: self.depth] in self.words
        return all(w in self.words for w in self.matrix.extensions(word, self.depth))

    def meets_word(self, word: Word) -> bool:
        """Whether the cylinder of the word intersects this set."""
        if self.is_empty:
            return False
        if len(word) >= self.depth:
            return word[: self.depth] in self.words
        return any(w[: len(word)] == word for w in self.words)

    def complement(self) -> "ClopenSet":
        """Every word of this set's depth not in it, canonicalized.  The
        words are listed, so a depth with more than ``CYLINDER_LIMIT``
        words is refused before any is listed."""
        matrix, depth = self.matrix, self.depth
        # at most n ** depth words exist, so a shallow set skips the count
        if (
            matrix.n ** depth > CYLINDER_LIMIT
            and matrix.word_count_within(depth, CYLINDER_LIMIT) is None
        ):
            raise BadInput(
                f"the complement at depth {depth} spans more than {CYLINDER_LIMIT} cylinders"
            )
        rest = set(matrix.words(depth)) - self.words
        return canonicalize_clopen(matrix, rest)

    def count_at(self, depth: int) -> int:
        """``len(self.refine(depth))``, counted without listing the words:
        one rolling row of counts by last symbol, with no table kept, so a
        deep count costs memory linear in the depth."""
        if depth < self.depth:
            raise BadInput("cannot refine a clopen set to a smaller depth")
        matrix = self.matrix
        if not self.words or depth == 0:
            return len(self.words)
        if self.depth == 0:
            row, start = [0] + [1] * matrix.n, 1
        else:
            row, start = [0] * (matrix.n + 1), self.depth
            for w in self.words:
                row[w[-1]] += 1
        for _ in range(depth - start):
            row = matrix._longer(row)
        return sum(row)

    def union(self, other: "ClopenSet") -> "ClopenSet":
        _, shallow, _, outside = self._split(other)
        return canonicalize_clopen(self.matrix, [*shallow.words, *outside], trusted=True)

    def intersection(self, other: "ClopenSet") -> "ClopenSet":
        _, _, inside, _ = self._split(other)
        return canonicalize_clopen(self.matrix, inside, trusted=True)

    def difference(self, other: "ClopenSet") -> "ClopenSet":
        deep, shallow, inside, outside = self._split(other)
        if deep is self:
            return canonicalize_clopen(self.matrix, outside, trusted=True)
        # a shallower word the deeper set meets loses its inside extensions;
        # the others stay whole
        d, kept = shallow.depth, set(inside)
        met = {w[:d] for w in inside}
        out = [w for w in shallow.words if w not in met]
        for w in met:
            out.extend(x for x in self.matrix.extensions(w, deep.depth) if x not in kept)
        return canonicalize_clopen(self.matrix, out, trusted=True)

    def compare(self, other: "ClopenSet") -> str:
        """Exact relation: equal, subset, superset, disjoint or overlapping."""
        deep, shallow, inside, outside = self._split(other)
        deep_in = not outside
        shallow_in = len(inside) == shallow.count_at(deep.depth)
        self_in, other_in = (deep_in, shallow_in) if deep is self else (shallow_in, deep_in)
        if self_in and other_in:
            return "equal"
        if self_in:
            return "subset"
        if other_in:
            return "superset"
        return "overlapping" if inside else "disjoint"

    def is_subset_of(self, other: "ClopenSet") -> bool:
        deep, shallow, inside, outside = self._split(other)
        if deep is self:
            return not outside
        return len(inside) == shallow.count_at(deep.depth)

    def _split(
        self, other: "ClopenSet"
    ) -> tuple["ClopenSet", "ClopenSet", list[Word], list[Word]]:
        """The deeper operand read against the shallower one's words:
        (deep, shallow, inside, outside), where a word of the deeper set is
        inside when its prefix at the shallower depth is a word of the
        shallower set.  On equal depths self is the deeper one.

        So the inside words are the intersection and the outside words the
        deeper set minus the shallower one, both at the deeper depth; the
        deeper set lies in the shallower one iff nothing is outside, and the
        shallower set lies in the deeper one iff every extension of its
        words to the deeper depth is inside, which :meth:`count_at` counts.
        """
        if self.matrix != other.matrix:
            raise MatrixMismatch("clopen sets live over different matrices")
        deep, shallow = (self, other) if self.depth >= other.depth else (other, self)
        d, words = shallow.depth, shallow.words
        inside: list[Word] = []
        outside: list[Word] = []
        for w in deep.words:
            (inside if w[:d] in words else outside).append(w)
        return deep, shallow, inside, outside

    def sorted_words(self) -> list[Word]:
        return sorted(self.words)

    def __repr__(self):
        if self.is_empty:
            return "ClopenSet(EMPTY)"
        if self.is_full:
            return "ClopenSet(FULL)"
        inner = " ".join(",".join(map(str, w)) for w in self.sorted_words())
        return f"ClopenSet(depth={self.depth}, {{{inner}}})"


def canonicalize_clopen(
    matrix: TransitionMatrix,
    raw: Iterable[Sequence[int]],
    trusted: bool = False,
) -> ClopenSet:
    """Canonical form of a union of cylinders given by arbitrary words.

    With ``trusted`` the words must already be admissible tuples of ints,
    and are taken as they are; otherwise each is converted and checked.
    Words are padded to the common maximum depth by all admissible
    extensions, then whole levels are merged back while every sibling
    family present is complete.  Inputs denoting the same subset always
    produce equal results.
    """
    if trusted:
        words = set(raw)
    else:
        words = set()
        for w in raw:
            t = tuple(int(s) for s in w)
            if not matrix.is_admissible(t):
                raise InadmissibleWord(f"word {t} is not admissible")
            words.add(t)
    if not words:
        return ClopenSet(matrix, 0, frozenset())
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
    succ = matrix._succ
    while depth > 1:
        parents = {w[:-1] for w in words}
        if sum([len(succ[p[-1]]) for p in parents]) != len(words):
            break
        words = parents
        depth -= 1
    if depth == 1 and len(words) == matrix.n:
        return ClopenSet(matrix, 0, frozenset((EMPTY_WORD,)))
    return ClopenSet(matrix, depth, frozenset(words))


def cylinder(matrix: TransitionMatrix, word: Sequence[int]) -> ClopenSet:
    return canonicalize_clopen(matrix, [tuple(word)])


def full_space(matrix: TransitionMatrix) -> ClopenSet:
    return ClopenSet(matrix, 0, frozenset({EMPTY_WORD}))


def empty_set(matrix: TransitionMatrix) -> ClopenSet:
    return ClopenSet(matrix, 0, frozenset())


# ---------------------------------------------------------------------------
# eventually periodic points


@dataclass(frozen=True)
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

    def sort_key(self) -> tuple:
        return (self.pre, self.per)

    def __repr__(self):
        pre = ",".join(map(str, self.pre))
        per = ",".join(map(str, self.per))
        return f"EPPoint({pre}|{per})"


def is_point_admissible(matrix: TransitionMatrix, point: EPPoint) -> bool:
    if not matrix.is_admissible(point.pre) or not matrix.is_admissible(point.per):
        return False
    if point.pre and not matrix.arc(point.pre[-1], point.per[0]):
        return False
    return bool(matrix.arc(point.per[-1], point.per[0]))


def first_return(matrix: TransitionMatrix, sym: int, min_len: int = 1) -> Word:
    """Lexicographically least shortest word r with sym.r admissible, r ending
    back at sym, of length >= min_len.  A breadth-first search over states:
    per length it keeps only the least word ending at each symbol."""
    best = {a: (a,) for a in matrix.successors(sym)}
    cap = matrix.n * matrix.n + min_len + 2
    for length in range(1, cap + 1):
        if length >= min_len and sym in best:
            return best[sym]
        best = _extend_least_words(matrix, best)
    raise SearchLimitExceeded(f"no return word at symbol {sym} within length {cap}")


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
    after = matrix._after
    if after is None:
        rows = (tuple(matrix.symbols()),) + matrix._succ[1:]
        after = matrix._after = tuple(dict(zip((0,) + r, r + (0,))) for r in rows)
    gap: Word | None = EMPTY_WORD
    for w in words:
        if w[: len(gap)] != gap[: len(w)]:
            return gap
        prev = gap[-1] if gap else 0
        for i in range(len(gap), len(w)):
            least = after[prev][0]
            prev = w[i]
            if prev != least:
                return w[:i] + (least,)
        gap = None
        for k in range(len(w) - 1, -1, -1):
            b = after[w[k - 1] if k else 0][w[k]]
            if b:
                gap = w[:k] + (b,)
                break
    return gap


def point_in(clopen: ClopenSet) -> EPPoint:
    """A concrete eventually periodic point of a nonempty clopen set."""
    if clopen.is_empty:
        raise BadInput("the empty set contains no points")
    word = min(clopen.words)
    if not word:
        word = (1,)
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


def connect_path(matrix: TransitionMatrix, u: int, v: int) -> Word:
    """Shortest (possibly empty) word xi with u.xi.v admissible.

    Irreducibility guarantees existence; among shortest solutions the
    lexicographically least is returned.
    """
    if matrix.arc(u, v):
        return EMPTY_WORD
    best = {a: (a,) for a in matrix.successors(u)}
    for _ in range(matrix.n + 1):
        hits = [w for a, w in best.items() if matrix.arc(a, v)]
        if hits:
            return min(hits)
        best = _extend_least_words(matrix, best)
    raise SearchLimitExceeded(f"no path from {u} to {v}; matrix not irreducible?")


def distinct_path_pair(matrix: TransitionMatrix, frm: int) -> tuple[Word, Word, int]:
    """Two distinct equal-length words s, s' leaving `frm` and feeding the
    same symbol u: A(frm,s1) = A(frm,s'1) = A(sk,u) = A(s'k,u) = 1.

    The search tries lengths 1, 2, ... up to n*n + n, every word of each
    length.  A level of more than n words holds two that end in the same
    symbol, and those two are a pair; so every level it extends has at most
    n words, and the next at most n*n.  Every word reaches a branching
    symbol within n steps, so the level size doubles every n lengths and
    exceeds n well within the bound.
    """
    cap = matrix.n * matrix.n + matrix.n
    level: list[Word] = [(a,) for a in matrix.successors(frm)]
    for _ in range(cap):
        for i, s in enumerate(level):
            for sp in level[i + 1 :]:
                common = sorted(set(matrix.successors(s[-1])) & set(matrix.successors(sp[-1])))
                if common:
                    return s, sp, common[0]
        level = sorted(w + (a,) for w in level for a in matrix.successors(w[-1]))
    raise SearchLimitExceeded(
        f"no distinct path pair from {frm} within length {cap}; condition (I) violated?"
    )


# ---------------------------------------------------------------------------
# text formats


def format_matrix_text(matrix: TransitionMatrix) -> str:
    lines = [str(matrix.n)]
    lines.extend(" ".join(str(v) for v in row) for row in matrix.entries)
    return "\n".join(lines) + "\n"


def parse_matrix_text(text: str) -> TransitionMatrix:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise BadInput("empty matrix file")
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
    if clopen.is_empty:
        return "EMPTY\n"
    if clopen.is_full:
        return "FULL\n"
    lines = [f"D {clopen.depth}"]
    lines.extend(format_word(w) for w in clopen.sorted_words())
    return "\n".join(lines) + "\n"


def parse_clopen_text(matrix: TransitionMatrix, text: str) -> ClopenSet:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise BadInput("empty clopen file")
    if lines[0] == "EMPTY":
        return empty_set(matrix)
    if lines[0] == "FULL":
        return full_space(matrix)
    head = lines[0].split()
    if len(head) != 2 or head[0] != "D":
        raise BadInput(f"bad clopen header {lines[0]!r}")
    try:
        depth = int(head[1])
    except ValueError:
        raise BadInput(f"bad clopen depth {head[1]!r}") from None
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
