"""Cayley permutations, modified ascent sequences, and flat-step surgery.

A word is a tuple of positive integers; positions and values are both
1-based throughout.  A Cayley permutation is a word whose set of values
is exactly {1, ..., max}.  A modified ascent sequence is a Cayley
permutation in which the ascent tops are precisely the leftmost copies
of the values (see `is_modasc`).  Words with no two equal adjacent
letters are called primitive.

Generation works by growing words one letter at a time: a modified
ascent sequence of length n with maximum m has exactly m + 1 extensions
of length n + 1, obtained either by appending a letter at most the last
letter, or by appending a strictly larger letter a and first bumping
every old letter >= a up by one.  `iter_modasc` and `iter_prim` keep
this generation order, which from n = 4 on is not lexicographic.

The children of a word depend only on its label (m, l), its maximum and
its last letter, so the tree is the succession rule

    (0, 0);  (m, l) -> (m, a) for 1 <= a <= l,  (m + 1, a) for l < a <= m + 1,

whose root (0, 0) is the empty word, with a < l in place of a <= l for
the primitive words.  `count_level` counts a level from the labels
alone, without building any word.

`statistics` returns a view whose fields (ascent tops, leftmost copies,
the left-to-right and right-to-left minima and maxima, ascents and
descents) are computed from the word when they are read, so a caller
pays only for the fields it uses.  `is_modasc` reads none of them: it
checks "ascent top if and only if leftmost copy" in one pass.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

Word = tuple[int, ...]

# (index, value) pairs, in index order.
Marked = tuple[tuple[int, int], ...]

#: Largest n for which the endofunction oracle will enumerate [n]^n.
ENDOFUNCTION_CAP = 8


class ConsistencyError(RuntimeError):
    """An internal invariant that should hold by theorem was violated."""


def parse_word(text: str) -> Word:
    """Parse a word from text; '' is the empty word.

    Accepts the canonical space-separated form ("1 3 1 2") and, when
    every value is a single digit, the compact form ("1312").
    """
    text = text.strip()
    if not text:
        return ()
    if " " in text:
        parts = text.split()
    else:
        parts = list(text)
    word = tuple(int(p) for p in parts)
    if any(v < 1 for v in word):
        raise ValueError(f"word values must be positive: {text!r}")
    return word


def format_word(x: Word) -> str:
    """Canonical text form: space-separated values, '' for the empty word."""
    return " ".join(str(v) for v in x)


def is_cayley(x: Word) -> bool:
    """True if every value 1..max(x) occurs in x.  The empty word counts."""
    if not x:
        return True
    return set(x) == set(range(1, max(x) + 1))


def has_flat_steps(x: Word) -> bool:
    return any(a == b for a, b in zip(x, x[1:]))


def _records(x: Word, beats: Callable[[int, int], bool], from_right: bool) -> Marked:
    """(i, x_i) for every letter that beats each letter before it in the
    scan, read from the left or from the right; returned in index order."""
    found: list[tuple[int, int]] = []
    for i in range(len(x) - 1, -1, -1) if from_right else range(len(x)):
        if not found or beats(x[i], found[-1][1]):
            found.append((i + 1, x[i]))
    if from_right:
        found.reverse()
    return tuple(found)


def _record_field(beats: Callable[[int, int], bool], from_right: bool, doc: str) -> property:
    return property(lambda st: _records(st.word, beats, from_right), doc=doc)


class WordStats:
    """Positional statistics of a word, as (index, value) pairs in index
    order, and its numbers of ascents and descents.

    A view of the word: each field is computed from it when read, and
    reading a field twice computes it twice.  It defines no equality or
    hash of its own.
    """

    __slots__ = ("word",)

    def __init__(self, word: Word):
        self.word = word

    @property
    def asctops(self) -> Marked:
        """Ascent tops; the first letter counts as one."""
        x = self.word
        return tuple((i + 1, v) for i, v in enumerate(x) if i == 0 or x[i - 1] < v)

    @property
    def nub(self) -> Marked:
        """The leftmost copy of each value."""
        seen: set[int] = set()
        firsts = []
        for i, v in enumerate(self.word, 1):
            if v not in seen:
                seen.add(v)
                firsts.append((i, v))
        return tuple(firsts)

    lrmin = _record_field(operator.lt, False, "Left-to-right minima.")
    wlrmin = _record_field(operator.le, False, "Weak left-to-right minima.")
    lrmax = _record_field(operator.gt, False, "Left-to-right maxima.")
    wlrmax = _record_field(operator.ge, False, "Weak left-to-right maxima.")
    rlmin = _record_field(operator.lt, True, "Right-to-left minima.")
    wrlmin = _record_field(operator.le, True, "Weak right-to-left minima.")
    rlmax = _record_field(operator.gt, True, "Right-to-left maxima.")
    wrlmax = _record_field(operator.ge, True, "Weak right-to-left maxima.")

    @property
    def asc(self) -> int:
        x = self.word
        return sum(a < b for a, b in zip(x, x[1:]))

    @property
    def des(self) -> int:
        x = self.word
        return sum(a > b for a, b in zip(x, x[1:]))


def statistics(x: Word) -> WordStats:
    """Ascent tops, leftmost copies, the eight min/max statistics, and the
    ascent and descent counts of x, each computed when it is read.

    The first letter is an ascent top by convention.  `nub` marks the
    leftmost copy of each value 1..max; for Cayley permutations it has
    exactly max(x) entries.  The result is a view of x with no equality
    or hash; compare its fields, not the views.
    """
    return WordStats(x)


def is_modasc(x: Word) -> bool:
    """True if x is a Cayley permutation whose ascent tops are exactly
    the leftmost copies of 1..max(x).

    >>> is_modasc((1, 3, 1, 2))
    True
    >>> is_modasc((1, 2, 1, 2))
    False
    """
    if not x:
        return True
    if not is_cayley(x):
        return False
    seen: set[int] = set()
    prev = tops = 0
    for v in x:
        top = prev < v  # the first letter is a top: letters are positive
        if top == (v in seen):
            return False
        tops += top
        seen.add(v)
        prev = v
    # Two facts hold by theorem for every member; check them anyway.
    m = max(x)
    if tops != m:
        raise ConsistencyError(f"repeated ascent-top value in {x}")
    first, copies = x.index(m), x.count(m)
    if x[first:first + copies] != (m,) * copies:
        raise ConsistencyError(f"copies of the maximum not adjacent in {x}")
    return True


def is_prim(x: Word) -> bool:
    """True if x is a modified ascent sequence with no flat step."""
    return not has_flat_steps(x) and is_modasc(x)


def _children(x: Word) -> Iterator[Word]:
    """All one-letter extensions of a modified ascent sequence."""
    if not x:
        yield (1,)
        return
    last = x[-1]
    m = max(x)
    for a in range(1, last + 1):
        yield x + (a,)
    for a in range(last + 1, m + 2):
        yield tuple(v + 1 if v >= a else v for v in x) + (a,)


def _children_prim(x: Word) -> Iterator[Word]:
    """One-letter extensions that keep the word primitive."""
    if not x:
        yield (1,)
        return
    last = x[-1]
    m = max(x)
    for a in range(1, last):
        yield x + (a,)
    for a in range(last + 1, m + 2):
        yield tuple(v + 1 if v >= a else v for v in x) + (a,)


@lru_cache(maxsize=None)
def _level(n: int, prim: bool) -> tuple[Word, ...]:
    if n == 0:
        return ((),)
    prev = _level(n - 1, prim)
    extend = _children_prim if prim else _children
    return tuple(c for w in prev for c in extend(w))


def count_level(n: int, prim: bool) -> int:
    """Number of modified ascent sequences of length n (primitive ones if
    `prim`), summed over the (max, last) labels of the generating tree.

    >>> [count_level(n, False) for n in range(7)]
    [1, 1, 2, 5, 15, 53, 217]
    >>> [count_level(n, True) for n in range(7)]
    [1, 1, 1, 2, 5, 16, 61]
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    labels = Counter({(0, 0): 1})
    for _ in range(n):
        grown: Counter[tuple[int, int]] = Counter()
        for (m, last), c in labels.items():
            for a in range(1, last if prim else last + 1):
                grown[m, a] += c
            for a in range(last + 1, m + 2):
                grown[m + 1, a] += c
        labels = grown
    return sum(labels.values())


def iter_modasc(n: int) -> Iterator[Word]:
    """Stream the modified ascent sequences of length n in generation order."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    return iter(_level(n, False))


def iter_prim(n: int) -> Iterator[Word]:
    """Stream the primitive modified ascent sequences of length n."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    return iter(_level(n, True))


def generate_modasc(n: int) -> list[Word]:
    """All modified ascent sequences of length n, lexicographically sorted.

    >>> generate_modasc(3)
    [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3)]
    """
    return sorted(iter_modasc(n))


def generate_prim(n: int) -> list[Word]:
    """All primitive modified ascent sequences of length n, sorted."""
    return sorted(iter_prim(n))


def iter_cayley(n: int) -> Iterator[Word]:
    """Brute-force oracle: enumerate [n]^n and keep the Cayley permutations.

    Deliberately naive; capped because the candidate pool is n^n.
    """
    if n > ENDOFUNCTION_CAP:
        raise ValueError(f"endofunction oracle capped at n <= {ENDOFUNCTION_CAP}")
    if n == 0:
        yield ()
        return
    values = range(1, n + 1)
    for w in itertools.product(values, repeat=n):
        if is_cayley(w):
            yield w


@dataclass(frozen=True)
class FlatDecomposition:
    """A word split into its primitive core and per-letter multiplicities."""

    primitive: Word
    multiplicities: tuple[int, ...]


def collapse_flats(x: Word) -> FlatDecomposition:
    """Collapse each maximal run of equal letters to a single letter.

    >>> collapse_flats((1, 1, 1, 3, 1, 2, 2, 2, 2, 4, 2, 1, 1))
    FlatDecomposition(primitive=(1, 3, 1, 2, 4, 2, 1), multiplicities=(3, 1, 1, 4, 1, 1, 2))
    """
    if not x:
        raise ValueError("cannot collapse the empty word")
    letters: list[int] = []
    mult: list[int] = []
    for v in x:
        if letters and letters[-1] == v:
            mult[-1] += 1
        else:
            letters.append(v)
            mult.append(1)
    return FlatDecomposition(tuple(letters), tuple(mult))


def insert_flats(d: FlatDecomposition) -> Word:
    """Rebuild a word from a flat decomposition; inverse of collapse_flats."""
    if len(d.primitive) != len(d.multiplicities):
        raise ValueError("primitive word and multiplicities differ in length")
    if any(m <= 0 for m in d.multiplicities):
        raise ValueError("multiplicities must be positive")
    if has_flat_steps(d.primitive):
        raise ValueError("core word must have no flat steps")
    out: list[int] = []
    for v, m in zip(d.primitive, d.multiplicities):
        out.extend([v] * m)
    return tuple(out)
