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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

Word = tuple[int, ...]

# (index, value) pairs, sorted by index.
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


@dataclass(frozen=True)
class WordStats:
    """Positional statistics of a word, all as (index, value) pairs."""

    asctops: Marked
    nub: Marked
    lrmin: Marked
    wlrmin: Marked
    lrmax: Marked
    wlrmax: Marked
    rlmin: Marked
    wrlmin: Marked
    rlmax: Marked
    wrlmax: Marked
    asc: int
    des: int


def statistics(x: Word) -> WordStats:
    """Compute ascent tops, leftmost copies, and the eight min/max statistics.

    The first letter is an ascent top by convention.  `nub` marks the
    leftmost copy of each value 1..max; for Cayley permutations it has
    exactly max(x) entries.
    """
    if not x:
        empty: Marked = ()
        return WordStats(*([empty] * 10), asc=0, des=0)
    n = len(x)
    asctops = [(1, x[0])]
    asc = des = 0
    for i in range(1, n):
        if x[i - 1] < x[i]:
            asctops.append((i + 1, x[i]))
            asc += 1
        elif x[i - 1] > x[i]:
            des += 1
    first_pos: dict[int, int] = {}
    for i, v in enumerate(x):
        if v not in first_pos:
            first_pos[v] = i + 1
    nub = tuple(sorted((first_pos[v], v) for v in first_pos))

    lrmin, wlrmin, lrmax, wlrmax = [], [], [], []
    lo = hi = x[0]
    lrmin.append((1, x[0]))
    wlrmin.append((1, x[0]))
    lrmax.append((1, x[0]))
    wlrmax.append((1, x[0]))
    for i in range(1, n):
        v = x[i]
        if v < lo:
            lrmin.append((i + 1, v))
        if v <= lo:
            wlrmin.append((i + 1, v))
        if v > hi:
            lrmax.append((i + 1, v))
        if v >= hi:
            wlrmax.append((i + 1, v))
        lo = min(lo, v)
        hi = max(hi, v)
    rlmin, wrlmin, rlmax, wrlmax = [], [], [], []
    lo = hi = x[-1]
    rlmin.append((n, x[-1]))
    wrlmin.append((n, x[-1]))
    rlmax.append((n, x[-1]))
    wrlmax.append((n, x[-1]))
    for i in range(n - 2, -1, -1):
        v = x[i]
        if v < lo:
            rlmin.append((i + 1, v))
        if v <= lo:
            wrlmin.append((i + 1, v))
        if v > hi:
            rlmax.append((i + 1, v))
        if v >= hi:
            wrlmax.append((i + 1, v))
        lo = min(lo, v)
        hi = max(hi, v)
    return WordStats(
        asctops=tuple(asctops),
        nub=nub,
        lrmin=tuple(sorted(lrmin)),
        wlrmin=tuple(sorted(wlrmin)),
        lrmax=tuple(sorted(lrmax)),
        wlrmax=tuple(sorted(wlrmax)),
        rlmin=tuple(sorted(rlmin)),
        wrlmin=tuple(sorted(wrlmin)),
        rlmax=tuple(sorted(rlmax)),
        wrlmax=tuple(sorted(wrlmax)),
        asc=asc,
        des=des,
    )


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
    st = statistics(x)
    if st.asctops != st.nub:
        return False
    # Two facts hold by theorem for every member; check them anyway.
    top_values = [v for _, v in st.asctops]
    if len(set(top_values)) != len(top_values):
        raise ConsistencyError(f"repeated ascent-top value in {x}")
    m = max(x)
    max_positions = [i for i, v in enumerate(x) if v == m]
    if max_positions != list(range(max_positions[0], max_positions[-1] + 1)):
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
