"""Shift spaces over 0-1 transition matrices, exactly.

This module fixes the combinatorial ground the rest of the package stands
on: validated transition matrices, admissible words as plain tuples of
1-based symbols, clopen subsets in a canonical uniform-depth form, and
eventually periodic points as (preperiod, period) pairs.  Everything is
an immutable value and every operation is exact; two clopen sets denote
the same subset of the shift space if and only if they compare equal.
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


class TransitionMatrix:
    """A validated N x N 0-1 matrix: essential, irreducible, not a permutation.

    Symbols are the integers 1..N.  Instances are immutable and hashable;
    use :func:`validate_matrix` to build one from raw rows.
    """

    __slots__ = ("n", "entries", "_succ", "_cont", "_words")

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        self.n = len(entries)
        self.entries = entries
        self._succ = (None,) + tuple(
            tuple(j + 1 for j, v in enumerate(row) if v) for row in entries
        )
        self._cont: dict[tuple[int, int], int] = {}
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
        """Number of admissible words of the given length that may follow sym."""
        if length == 0:
            return 1
        key = (sym, length)
        cached = self._cont.get(key)
        if cached is None:
            cached = sum(self.continuation_count(t, length - 1) for t in self._succ[sym])
            self._cont[key] = cached
        return cached

    def word_count(self, k: int) -> int:
        if k == 0:
            return 1
        return sum(self.continuation_count(s, k - 1) for s in self.symbols())

    def words(self, k: int) -> tuple[Word, ...]:
        """All admissible words of length k, lexicographically sorted."""
        if k < 0:
            raise BadInput("word length must be non-negative")
        cached = self._words.get(k)
        if cached is not None:
            return cached
        level: list[Word] = [EMPTY_WORD]
        for _ in range(k):
            level = [w + (a,) for w in level for a in (self._succ[w[-1]] if w else self.symbols())]
        result = tuple(level)
        if k <= 12:
            self._words[k] = result
        return result

    def extensions(self, word: Word, target_len: int) -> Iterator[Word]:
        """All admissible extensions of word to exactly target_len, in lex order."""
        if target_len < len(word):
            raise BadInput("cannot extend a word to a shorter length")
        if target_len == len(word):
            yield word
            return
        start = self._succ[word[-1]] if word else self.symbols()
        for a in start:
            yield from self.extensions(word + (a,), target_len)


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
    for i in matrix.symbols():
        seen: set[int] = set()
        frontier = list(matrix.successors(i))
        while frontier:
            t = frontier.pop()
            if t in seen:
                continue
            seen.add(t)
            frontier.extend(matrix.successors(t))
        if len(seen) != n:
            missing = min(set(matrix.symbols()) - seen)
            raise NotIrreducible(f"state {i} cannot reach state {missing}")
    if all(sum(row) == 1 for row in entries):
        raise ConditionIFails("matrix is a permutation matrix; every point is isolated")
    return matrix


def admissible_words(matrix: TransitionMatrix, k: int) -> list[Word]:
    return list(matrix.words(k))


# ---------------------------------------------------------------------------
# clopen sets


@dataclass(frozen=True)
class ClopenSet:
    """A clopen subset in canonical form: a set of words of one common depth.

    The canonical form is the unique minimal uniform depth: words are
    padded to a common length and merged back down whenever *every*
    present sibling family is complete.  The empty set is depth 0 with no
    words; the whole space is depth 0 with the empty word.
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
        rest = set(self.matrix.words(self.depth)) - self.words
        return canonicalize_clopen(self.matrix, rest)

    def union(self, other: "ClopenSet") -> "ClopenSet":
        a, b = self._common(other)
        return canonicalize_clopen(self.matrix, a | b, trusted=True)

    def intersection(self, other: "ClopenSet") -> "ClopenSet":
        a, b = self._common(other)
        return canonicalize_clopen(self.matrix, a & b, trusted=True)

    def difference(self, other: "ClopenSet") -> "ClopenSet":
        a, b = self._common(other)
        return canonicalize_clopen(self.matrix, a - b, trusted=True)

    def compare(self, other: "ClopenSet") -> str:
        """Exact relation: equal, subset, superset, disjoint or overlapping."""
        a, b = self._common(other)
        if a == b:
            return "equal"
        if a <= b:
            return "subset"
        if a >= b:
            return "superset"
        if not a & b:
            return "disjoint"
        return "overlapping"

    def is_subset_of(self, other: "ClopenSet") -> bool:
        return self.compare(other) in ("equal", "subset")

    def _common(self, other: "ClopenSet") -> tuple[frozenset[Word], frozenset[Word]]:
        if self.matrix != other.matrix:
            raise MatrixMismatch("clopen sets live over different matrices")
        d = max(self.depth, other.depth)
        return self.refine(d), other.refine(d)

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
    depth = max(map(len, words))
    if min(map(len, words)) != depth:
        padded = set()
        for w in words:
            padded.update(matrix.extensions(w, depth))
        words = padded
    # each word lies in one sibling family, of at most as many distinct
    # admissible words as its parent has followers; so every family is
    # complete exactly when the followers of the parents add up to the words
    succ = matrix._succ
    while depth > 0:
        parents = {w[:-1] for w in words}
        if depth == 1:
            followers = matrix.n
        else:
            followers = sum(len(succ[p[-1]]) for p in parents)
        if followers != len(words):
            break
        words = parents
        depth -= 1
    return ClopenSet(matrix, depth, frozenset(words))


def cylinder(matrix: TransitionMatrix, word: Sequence[int]) -> ClopenSet:
    return canonicalize_clopen(matrix, [tuple(word)])


def full_space(matrix: TransitionMatrix) -> ClopenSet:
    return ClopenSet(matrix, 0, frozenset({EMPTY_WORD}))


def empty_set(matrix: TransitionMatrix) -> ClopenSet:
    return ClopenSet(matrix, 0, frozenset())


def boolean_op(op: str, x: ClopenSet, y: ClopenSet | None = None) -> ClopenSet:
    """Dispatch for the four Boolean operations, by name."""
    if op == "complement":
        return x.complement()
    if y is None:
        raise BadInput(f"operation {op!r} needs two operands")
    if op == "union":
        return x.union(y)
    if op == "intersection":
        return x.intersection(y)
    if op == "difference":
        return x.difference(y)
    raise BadInput(f"unknown Boolean operation {op!r}")


def clopen_compare(x: ClopenSet, y: ClopenSet) -> str:
    return x.compare(y)


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

    def symbol_at(self, i: int) -> int:
        if i < len(self.pre):
            return self.pre[i]
        return self.per[(i - len(self.pre)) % len(self.per)]

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
    back at sym, of length >= min_len."""
    frontier: list[Word] = [(a,) for a in matrix.successors(sym)]
    length = 1
    cap = matrix.n * matrix.n + min_len + 2
    while length <= cap:
        for r in frontier:
            if length >= min_len and r[-1] == sym:
                return r
        frontier = [r + (a,) for r in frontier for a in matrix.successors(r[-1])]
        length += 1
        if len(frontier) > 200000:
            frontier = frontier[:200000]
    raise SearchLimitExceeded(f"no return word at symbol {sym} within length {cap}")


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


def connect_path(matrix: TransitionMatrix, u: int, v: int) -> Word:
    """Shortest (possibly empty) word xi with u.xi.v admissible.

    Irreducibility guarantees existence; among shortest solutions the
    lexicographically least is returned.
    """
    if matrix.arc(u, v):
        return EMPTY_WORD
    frontier: list[Word] = [(a,) for a in matrix.successors(u)]
    for _ in range(matrix.n + 1):
        hits = [w for w in frontier if matrix.arc(w[-1], v)]
        if hits:
            return min(hits)
        seen_best: dict[int, Word] = {}
        for w in frontier:
            for a in matrix.successors(w[-1]):
                nxt = w + (a,)
                if a not in seen_best or nxt < seen_best[a]:
                    seen_best[a] = nxt
        frontier = sorted(seen_best.values())
    raise SearchLimitExceeded(f"no path from {u} to {v}; matrix not irreducible?")


def distinct_path_pair(matrix: TransitionMatrix, frm: int) -> tuple[Word, Word, int]:
    """Two distinct equal-length words s, s' leaving `frm` and feeding the
    same symbol u: A(frm,s1) = A(frm,s'1) = A(sk,u) = A(s'k,u) = 1.

    The search tries lengths 1, 2, ... up to n*n + n; under the validated
    matrix properties it always succeeds, in practice at tiny length.
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
        if len(level) > 4096:
            level = level[:4096]
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
