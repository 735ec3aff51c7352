"""Cayley permutations, modified ascent sequences, and flat-step surgery.

A word is a tuple of positive integers; positions and values are both
1-based throughout.  A Cayley permutation is a word whose set of values
is exactly {1, ..., max}.  A modified ascent sequence is a Cayley
permutation in which the ascent tops are precisely the leftmost copies
of the values (see `is_modasc`).  Words with no two equal adjacent
letters are called primitive.

Generation grows words one letter at a time by one succession rule.  The
children of a modified ascent sequence depend only on its label (m, l),
its maximum and its last letter, and the empty word has the label (0, 0):

    (m, l) -> (m, a) for 1 <= a <= l,  (m + 1, a) for l < a <= m + 1,

with 1 <= a < l in the first range for the primitive words.  A letter
a <= l is appended as it is; a larger one is a new value, appended after
every old letter >= a is bumped up by one.  `_letters` states the rule,
`_grow` applies it to words and `count_level` to the labels alone.
Since the children depend only on the label, `_grow` expands all the
words of one label at once: it holds them as byte strings, one byte per
letter (so n <= KEY_CAP = 255), and makes the children that end with a
letter a by one C-level `map` of `bytes.translate` over the group, each
key with a byte 0 appended, through one table that writes a in place of
the 0 and bumps the old letters.  The table keeps the order of the
keys, so a sorted group gives sorted runs of children.

`sorted_keys` hands out every level: it groups the cached level n - 2
by label, grows it into level n - 1, sorts each group of that, and
grows it into level n, which it sorts as one list of ascending runs;
levels n - 1 and n are never cached and never held as tuples.
`_level(n)` caches the tuples of `sorted_keys(n)`, so levels grow two at
a time and the cache holds levels n - 2, n - 4, ..., each in
lexicographic order.
`generate_modasc` and `generate_prim` are the tuples of `sorted_keys`.
`patterns` builds and hands out its avoider levels by the same `_grow`,
leaving out the letters a pattern forbids.

`statistics` returns a view whose fields (ascent tops, the
left-to-right and right-to-left minima and maxima, ascents and
descents) are computed from the word when they are read, so a caller
pays only for the fields it uses.  `is_modasc` reads none of them: it
checks "ascent top if and only if leftmost copy" in one pass.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple

Word = tuple[int, ...]

# (index, value) pairs, in index order.
Marked = tuple[tuple[int, int], ...]

#: Largest n for which the endofunction oracle will enumerate [n]^n.
ENDOFUNCTION_CAP = 8


class ConsistencyError(RuntimeError):
    """An internal invariant that should hold by theorem was violated."""


def check_length(n: int) -> None:
    """Raise ValueError if the length n is negative."""
    if n < 0:
        raise ValueError("length must be nonnegative")


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
    try:
        word = tuple(int(p) for p in parts)
        if min(word) < 1:
            raise ValueError
    except ValueError:
        raise ValueError(f"word letters must be positive integers: {text!r}") from None
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

    lrmin = _record_field(operator.lt, False, "Left-to-right minima.")
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
    """Ascent tops, the left-to-right and right-to-left minima and maxima
    (and their weak forms, save the weak left-to-right minima), and the
    ascent and descent counts of x, each computed when it is read.

    The first letter is an ascent top by convention.  The result is a
    view of x with no equality or hash; compare its fields, not the views.
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


def _letters(m: int, last: int, prim: bool) -> tuple[range, range]:
    """The letters that end the children of a word with maximum m and
    last letter `last`, by the rule above: those appended as they are,
    and those appended after a bump.  The empty word has m = last = 0.

    >>> [list(r) for r in _letters(3, 2, False)]  # children of 1 3 1 2
    [[1, 2], [3, 4]]
    >>> [list(r) for r in _letters(0, 0, True)]  # the empty word's child (1,)
    [[], [1]]
    """
    return range(1, last if prim else last + 1), range(last + 1, m + 2)


def count_level(n: int, prim: bool) -> int:
    """Number of modified ascent sequences of length n (primitive ones if
    `prim`), summed over the (max, last) labels of the rule above.

    >>> [count_level(n, False) for n in range(7)]
    [1, 1, 2, 5, 15, 53, 217]
    >>> [count_level(n, True) for n in range(7)]
    [1, 1, 1, 2, 5, 16, 61]
    """
    check_length(n)
    labels = Counter({(0, 0): 1})
    for _ in range(n):
        grown: Counter[tuple[int, int]] = Counter()
        for (m, last), c in labels.items():
            kept, bumped = _letters(m, last, prim)
            for a in kept:
                grown[m, a] += c
            for a in bumped:
                grown[m + 1, a] += c
        labels = grown
    return sum(labels.values())


#: Largest length whose words fit in byte strings: a letter is at most n.
KEY_CAP = 255


def _check_key_length(n: int) -> None:
    """Raise ValueError unless 0 <= n <= KEY_CAP."""
    check_length(n)
    if n > KEY_CAP:
        raise ValueError(f"length {n} exceeds {KEY_CAP}: a letter must fit in a byte")


#: A label of `_grow`: maximum, last letter, the letters (as bits) left
#: out of the children, and those left out below each child, at the
#: index of its last letter (None if none are).
Label = tuple[int, int, int, tuple[int, ...] | None]


def _grow(groups: dict[Label, list[bytes]], prim: bool) -> Iterator[tuple[Label, int, list[bytes]]]:
    """Expand the words of `groups`, which maps a label (m, last, bad,
    below) to the byte strings of words of length at most KEY_CAP - 1
    with maximum m and last letter `last`, and yield (label, a,
    children) for each letter a of the rule above that is not a bit of
    `bad`, emptying `groups` one label at a time.  The table of a maps
    the appended 0 to a and, if a is bumped, every v >= a to v + 1.

    >>> groups = {(3, 2, 1 << 4, None): [bytes((1, 3, 1, 2))], (2, 2, 0, None): [b"\\x01\\x02"]}
    >>> [(label[:3], a, [tuple(c) for c in run]) for label, a, run in _grow(groups, True)]
    [((2, 2, 0), 1, [(1, 2, 1)]), ((2, 2, 0), 3, [(1, 2, 3)]), ((3, 2, 16), 1, [(1, 3, 1, 2, 1)]), ((3, 2, 16), 3, [(1, 4, 1, 2, 3)])]
    >>> groups
    {}
    """
    same = bytes(range(1, 256))
    while groups:
        label, keys = groups.popitem()
        m, last, bad, _ = label
        padded = list(map(bytes.__add__, keys, itertools.repeat(b"\0")))
        del keys  # the group is freed; its padded copy is expanded
        kept, bumped = _letters(m, last, prim)
        tables = [(a, bytes((a,)) + same) for a in kept]
        tables += [(a, bytes((a,)) + same[:a - 1] + same[a:] + b"\xff") for a in bumped]
        for a, table in tables:
            if not bad >> a & 1:
                yield label, a, list(map(bytes.translate, padded, itertools.repeat(table)))


def _regroup(grown: Iterable[tuple[Label, int, list[bytes]]]) -> dict[Label, list[bytes]]:
    """The children `_grow` yields, grouped by their own labels, each
    group sorted: a child that ends with a letter a has `below[a]` of
    its parent's label as its `bad` (0 if `below` is None), and None
    below it.  A group is a few ascending runs, which the sort merges."""
    groups: dict[Label, list[bytes]] = {}
    for (m, last, _, below), a, run in grown:
        groups.setdefault((m + (a > last), a, below[a] if below else 0, None), []).extend(run)
    for run in groups.values():
        run.sort()
    return groups


def _sorted_children(groups: dict[Label, list[bytes]], prim: bool) -> list[bytes]:
    """Every child `_grow` makes of `groups`, in lexicographic order: its
    runs, ascending if each group is, extend one list sorted in place."""
    keys: list[bytes] = []
    for _, _, run in _grow(groups, prim):
        keys += run
    keys.sort()
    return keys


@lru_cache(maxsize=None)
def _level(n: int, prim: bool) -> tuple[Word, ...]:
    """Level n of the generating tree above, in lexicographic order: the
    tuples of `sorted_keys(n, prim)`, so levels n - 2, n - 4, ... are
    cached with it, and level n - 1 is not."""
    if n == 0:
        return ((),)
    return tuple(map(tuple, sorted_keys(n, prim)))


def sorted_keys(n: int, prim: bool) -> list[bytes]:
    """Level n (the primitive words if `prim`) as byte strings, one byte
    per letter, in lexicographic order.  The cached level n - 2 (level 0
    itself for n = 1) is grouped by label and grown by `_grow` into
    level n - 1, whose groups are sorted, and that into level n, sorted
    as one list of ascending runs; neither is cached or held as tuples.
    Byte strings of equal length sort like the tuples.  Raises
    ValueError unless 0 <= n <= KEY_CAP, before any level is built.

    >>> sorted_keys(3, True)
    [b'\\x01\\x02\\x01', b'\\x01\\x02\\x03']
    """
    _check_key_length(n)
    if n == 0:
        return [b""]
    groups: dict[Label, list[bytes]] = {}
    for w in _level(max(n - 2, 0), prim):
        groups.setdefault((max(w, default=0), w[-1] if w else 0, 0, None), []).append(bytes(w))
    if n >= 2:
        groups = _regroup(_grow(groups, prim))
    return _sorted_children(groups, prim)


def generate_modasc(n: int) -> list[Word]:
    """All modified ascent sequences of length n, lexicographically sorted
    as the byte strings of `sorted_keys`, which expands them from the
    cached level n - 2; levels n - 1 and n are not cached.

    >>> generate_modasc(3)
    [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3)]
    """
    return list(map(tuple, sorted_keys(n, False)))


def generate_prim(n: int) -> list[Word]:
    """All primitive modified ascent sequences of length n, sorted as the
    byte strings of `sorted_keys`, which expands them from the cached
    level n - 2; levels n - 1 and n are not cached."""
    return list(map(tuple, sorted_keys(n, True)))


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


class FlatDecomposition(NamedTuple):
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
