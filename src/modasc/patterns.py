"""Pattern containment and avoidance for words and permutations.

A classical pattern is itself a Cayley permutation; a word contains it
if some subsequence is order isomorphic to it, where equalities must be
matched by equalities.  Three special patterns on permutations are
supported by name:

* ``omega``  - an adjacent descent p_i > p_{i+1} whose bottom value is
  followed, at least two positions later, by the next smaller value
  (p_{i+1} = p_j + 1).
* ``zeta``   - contained exactly by the permutations that do not start
  with 1.
* ``32-1``   - an adjacent descent followed, at least two positions
  later, by a value below both legs (p_i > p_{i+1} > p_k).

Avoider levels are the levels of the generating tree of `words` (its
module docstring states the succession rule) with the letters a pattern
forbids left out: extending a modified ascent sequence relabels the old
letters in an order-preserving way, so containment is inherited by
every extension and any new occurrence must use the appended letter.
So each parent w is searched once per pattern y, for the distinct value
tuples of the occurrences of y[:-1].  Such a tuple has a lower bound
(its largest value below y's last), an upper bound (its smallest value
above) and maybe a value tied with y's last.  It forbids the child
letter equal to the tied value if that letter is appended as it is, or
with no tied value every appended a with lower < a < upper and every
bumped a (a new value, the only copy of itself) with lower < a <= upper.

The search follows a plan made once per pattern for a level or a count
(`_plan`): each step of y is compared only with the earlier step of the
nearest value below it and the one of the nearest value above, or, if
an earlier step is tied with it, is placed at the next copy of that
step's value.  The same plan gives the bounds and the tied value above.
A step whose value no later step reads is placed at its first fit only.

`count_avoiders` counts lengths n - 1 and n in one pass over the
grandparents at level n - 2, so levels 0..n - 2 are built and cached
and levels n - 1 and n are not.  The same search of a grandparent g
(`_occurrences`) also records the value tuples of the occurrences of
y[:-2], reduced to what steps k - 2 and k - 1 of y read.  The tuples of
y[:-1] in a child g a are then g's own, bumped if a is a new value, and
those of y[:-2] that step k - 2 extends by a (`_child_masks`), so no
child is searched; the letters it forbids are a bit mask, and its
allowed letters are counted by popcount.  The counts of a pass are kept
in a small table of ints, so a repeated count searches nothing.
`count_avoiders_upto` takes the shorter lengths from the levels that
pass builds.  `contains` shares none of this; it is the oracle the
search is tested against.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .words import (
    Word,
    _check_key_length,
    _children,
    _letters,
    is_cayley,
    sorted_children,
)

Perm = tuple[int, ...]

# Per step of a pattern: the earlier steps below, above and tied (`_plan`).
Plan = tuple[tuple[int, int, int], ...]

SPECIAL_PATTERNS = ("omega", "zeta", "32-1")


def parse_pattern(text: str) -> Word:
    from .words import parse_word

    y = parse_word(text)
    if not y:
        raise ValueError("a pattern must be nonempty")
    if not is_cayley(y):
        raise ValueError(f"pattern {text!r} is not a Cayley permutation")
    return y


def contains(x: Word, y: Word) -> bool:
    """True if some subsequence of x is order isomorphic to y.

    Equal pattern values must map to equal word values.

    >>> contains((1, 1, 1, 3, 1, 2, 2, 2, 2, 4, 2, 1, 1), (2, 3, 2, 1))
    True
    >>> contains((1, 2, 3, 4, 3, 2, 5, 6, 1, 7, 6, 1, 8, 9, 7), (3, 1, 2))
    False
    """
    k = len(y)
    n = len(x)
    if k == 0:
        return True
    if k > n:
        return False
    chosen = [0] * k

    def extend(s: int, start: int) -> bool:
        ys = y[s]
        for i in range(start, n - (k - s) + 1):
            v = x[i]
            ok = True
            for t in range(s):
                yt = y[t]
                vt = chosen[t]
                if yt < ys:
                    if vt >= v:
                        ok = False
                        break
                elif yt == ys:
                    if vt != v:
                        ok = False
                        break
                elif vt <= v:
                    ok = False
                    break
            if ok:
                chosen[s] = v
                if s + 1 == k or extend(s + 1, i + 1):
                    return True
        return False

    return extend(0, 0)


def _plan(y: Word) -> Plan:
    """For each step s of y, the earlier steps its value is compared with:
    one with the nearest value below y[s], one with the nearest value above
    and one tied with it.  A missing step is -2 below, -1 above and -1
    tied: `_occurrences` reads the bounds of a missing step from two
    sentinel slots at the end of its list of chosen values.

    Occurrences of a Cayley permutation are order isomorphic on every
    prefix, so these two (or one) comparisons imply all the others.

    >>> _plan((2, 3, 2, 1))
    ((-2, -1, -1), (0, -1, -1), (-2, 1, 0), (-2, 0, -1))
    """
    plan = []
    for s, ys in enumerate(y):
        earlier = range(s)
        below = max((t for t in earlier if y[t] < ys), key=y.__getitem__, default=-2)
        above = min((t for t in earlier if y[t] > ys), key=y.__getitem__, default=-1)
        first = y.index(ys)
        tied = first if first < s else -1
        plan.append((below, above, tied))
    return tuple(plan)


def _forbidden_letters(w: Word, plan: Plan) -> set[int]:
    """The letters a whose child of w has an occurrence of the pattern y
    of `plan = _plan(y)` that ends at a, by the rule above; if w avoids
    y, the letters whose child contains y.

    >>> sorted(_forbidden_letters((1, 2), _plan((1, 2, 2))))  # 1 2 2
    [2]
    >>> sorted(_forbidden_letters((1, 2, 1), _plan((1, 3, 2))))  # 1 3 1 2
    [2]
    """
    return _forbidden(w, [plan])


@lru_cache(maxsize=256)
def _layout(plan: Plan) -> tuple[frozenset[int], tuple[bool, ...]]:
    """The steps of y whose values a later step of `plan` reads (the tied
    one, or else the ones below and above), and for each step of y[:-2]
    whether steps k - 2 or k - 1 read it: a stem keeps only those.

    >>> _layout(_plan((2, 3, 2, 1)))
    (frozenset({0}), (True, False))
    """

    def reads(steps: Plan) -> set[int]:
        return {i for below, above, tied in steps
                for i in ((tied,) if tied >= 0 else (below, above)) if i >= 0}

    last_two = reads(plan[-2:])
    return frozenset(reads(plan)), tuple(i in last_two for i in range(len(plan) - 2))


def _occurrences(
    w: Word, plan: Plan, with_stems: bool = True
) -> tuple[set, set | None]:
    """The occurrences in w of y[:-1] and of y[:-2], for the pattern y of
    `plan = _plan(y)`, as two sets of value tuples, found by one search
    (the second is None unless `with_stems`).  Building a level
    (`_forbidden`) needs no stems; without them the search window is one
    position narrower and no stem tuples are made, which takes a tenth to
    a fifth off the wall time of `generate --n 10 --avoid 2321` (2-vCPU
    VM).

    An end (an occurrence of y[:-1]) keeps only what y's last step reads:
    the tied value, or else the pair (lower, upper).  A stem (one of
    y[:-2]) keeps the values of its steps that steps k - 2 and k - 1 of
    y read, with 0 in the others (`_layout`).  Values are w's; a missing
    bound is 0 below and max(w) + 1 above.  A step whose value no later
    step reads is placed at its first fit only.

    >>> _occurrences((1, 2, 1), _plan((2, 3, 2, 1)))  # y[:-1] = 2 3 2
    ({(0, 1)}, {(1, 0)})
    """
    k = len(plan)
    reads, keep = _layout(plan)
    chosen = [0] * (k - 1) + [0, max(w, default=0) + 1]
    ends: set = set()
    stems = set() if with_stems else None
    # Step s of y[:-2] may sit at position len(w) - k + 2 + s, one further
    # right than in y[:-1].
    stop = len(w) - k + 2 + with_stems
    _place(w, plan, reads, keep, chosen, 0, 0, stop, ends, stems)
    return ends, stems


def _place(
    w: Word,
    plan: Plan,
    reads: frozenset[int],
    keep: tuple[bool, ...],
    chosen: list[int],
    s: int,
    start: int,
    stop: int,
    ends: set,
    stems: set | None,
) -> None:
    """Extend the occurrence of y[:s] in `chosen` by step s, at a position
    in range(start, stop) of w, recording it in `stems` at s = k - 2 and
    in `ends` at s = k - 1."""
    below, above, tied = plan[s]
    k = len(plan)
    if s == k - 1:
        ends.add(chosen[tied] if tied >= 0 else (chosen[below], chosen[above]))
        return
    if s == k - 2:
        if stems is not None:
            stems.add(tuple(v if kept else 0 for v, kept in zip(chosen, keep)))
        stop = len(w)
    if tied >= 0:
        # The leftmost copy of the tied value reaches every later occurrence.
        v = chosen[tied]
        try:
            i = w.index(v, start, stop)
        except ValueError:
            return
        chosen[s] = v
        _place(w, plan, reads, keep, chosen, s + 1, i + 1, stop + 1, ends, stems)
        return
    lo, hi = chosen[below], chosen[above]
    seen = set()
    # Likewise for each value between the bounds: one visit per value tuple,
    # and only the first if no later step reads the value.
    for i in range(start, stop):
        v = w[i]
        if lo < v < hi and v not in seen:
            chosen[s] = v
            _place(w, plan, reads, keep, chosen, s + 1, i + 1, stop + 1, ends, stems)
            if s not in reads:
                return
            seen.add(v)


def _end_mask(ends: set, plan: Plan, last: int) -> int:
    """The letters (as bits) that complete one of the ends of y[:-1] in a
    word with last letter `last`, by the rule above: a tied value if it is
    appended as it is, else every a with lower < a < upper, and the upper
    bound too when it is a new value."""
    mask = 0
    if plan[-1][2] >= 0:
        for v in ends:
            if v <= last:
                mask |= 1 << v
    else:
        for lo, hi in ends:
            mask |= (1 << hi) - (1 << (lo + 1)) | (1 << hi if hi > last else 0)
    return mask


def _child_masks(plan: Plan, ends: set, stems: set, m: int, last: int) -> list[int]:
    """`_end_mask` of each child of a word with maximum m and last letter
    `last`, at the index of the child's last letter a, from the word's
    `_occurrences` alone: the child's ends are the word's, bumped if a is
    a new value, and the stems that step k - 2 extends by a.

    >>> plan = _plan((1, 2, 1))
    >>> _occurrences((1, 2), plan)
    ({1}, {(1,), (2,)})
    >>> _child_masks(plan, *_occurrences((1, 2), plan), 2, 2)  # 1 2 a b
    [0, 2, 2, 6]
    """
    tied_end = plan[-1][2] >= 0
    extended: list[list] = [[] for _ in range(m + 2)]
    if len(plan) > 1:
        below, above, tied = plan[-2]
        below1, above1, tied1 = plan[-1]
        for stem in stems:
            # Slot -3 of `vals` is step k - 2, the child's last letter.  The
            # letters it accepts follow the rule of `_end_mask`, written out
            # here: a call per stem made `count --avoid` about 5 % slower
            # (2-vCPU VM).
            vals = [*stem, 0, 0, m + 1]
            if tied >= 0:
                letters = (vals[tied],) if vals[tied] <= last else ()
            else:
                lo, hi = vals[below], vals[above]
                letters = range(lo + 1, hi + (hi > last))
            for a in letters:
                bump = a > last
                vals = [v + (bump and v >= a) for v in stem]
                vals += (a, 0, m + 1 + bump)
                extended[a].append(
                    vals[tied1] if tied1 >= 0 else (vals[below1], vals[above1])
                )
    masks = [0] * (m + 2)
    for a in range(1, m + 2):
        if a <= last:
            child = [*ends]
        elif tied_end:
            child = [v + (v >= a) for v in ends]
        else:
            child = [(lo + (lo >= a), hi + (hi >= a)) for lo, hi in ends]
        masks[a] = _end_mask(child + extended[a], plan, a)
    return masks


@lru_cache(maxsize=4096)
def _letter_mask(m: int, last: int, prim: bool) -> int:
    """The letters of `words._letters(m, last, prim)` as bits.

    >>> bin(_letter_mask(3, 2, True))  # children of 1 3 1 2: 1, 3 and 4
    '0b11010'
    """
    return sum((1 << r.stop) - (1 << r.start) for r in _letters(m, last, prim) if r)


def _forbidden(w: Word, plans: list[Plan]) -> set[int]:
    """The union of `_forbidden_letters(w, plan)` over the plans."""
    last = w[-1] if w else 0
    mask = 0
    for plan in plans:
        mask |= _end_mask(_occurrences(w, plan, False)[0], plan, last)
    return {a for a in range(mask.bit_length()) if mask >> a & 1}


#: The number of avoiders of each (length, patterns, class) counted or
#: built so far: ints, not words, so a repeated count searches nothing.
_COUNTS: dict[tuple[int, frozenset[Word], str], int] = {}


@lru_cache(maxsize=None)
def _avoider_level(n: int, pats: frozenset[Word], cls: str) -> tuple[Word, ...]:
    """Level n of the class's generating tree (see `words`) with, below
    each parent, the children that contain a pattern left out.  Its
    length goes into `_COUNTS`."""
    if n == 0:
        return ((),)
    plans = [_plan(y) for y in pats]
    level = tuple(
        c
        for w in _avoider_level(n - 1, pats, cls)
        for c in _children(w, cls == "prim", _forbidden(w, plans))
    )
    _COUNTS[n, pats, cls] = len(level)
    return level


def _checked(n: int, patterns: Iterable[Word], cls: str) -> frozenset[Word]:
    """The patterns as a set, after checking the class, the length and them."""
    if cls not in ("modasc", "prim"):
        raise ValueError(f"unknown class {cls!r}; expected 'modasc' or 'prim'")
    if n < 0:
        raise ValueError("length must be nonnegative")
    pats = frozenset(patterns)
    for y in pats:
        if not y:
            raise ValueError("patterns must be nonempty")
        if not is_cayley(y):
            raise ValueError(f"pattern {y} is not a Cayley permutation")
    return pats


def _checked_level(n: int, patterns: Iterable[Word], cls: str) -> tuple[Word, ...]:
    """`_avoider_level` after checking the class, the length and the patterns."""
    return _avoider_level(n, _checked(n, patterns, cls), cls)


def avoiders(n: int, patterns: Iterable[Word], cls: str = "modasc") -> list[Word]:
    """All length-n members of the class avoiding every given pattern.

    >>> avoiders(3, [(1, 2, 2)])
    [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 3)]
    """
    return sorted(_checked_level(n, patterns, cls))


def sorted_avoider_keys(
    n: int, patterns: Iterable[Word], cls: str = "modasc"
) -> list[bytes]:
    """`avoiders(n, patterns, cls)` as byte strings, one byte per letter,
    expanded from the parents at level n - 1 by `words.sorted_children`;
    level n is not cached.  Raises ValueError unless n <= `words.KEY_CAP`,
    before any level is built.

    >>> [list(k) for k in sorted_avoider_keys(3, [(1, 2, 2)])]
    [[1, 1, 1], [1, 1, 2], [1, 2, 1], [1, 2, 3]]
    """
    pats = _checked(n, patterns, cls)
    _check_key_length(n)
    if n == 0:
        return [b""]
    plans = [_plan(y) for y in pats]
    parents = _avoider_level(n - 1, pats, cls)
    return sorted_children(parents, n, cls == "prim", lambda w: _forbidden(w, plans))


def count_avoiders(n: int, patterns: Iterable[Word], cls: str = "modasc") -> int:
    """Number of length-n members of the class avoiding every given
    pattern, counted with length n - 1 from their grandparents: levels
    0..n - 2 are built (and kept in the cache of `_avoider_level`),
    levels n - 1 and n are not.  A length counted or built before is
    read from `_COUNTS`, with no search.

    >>> [count_avoiders(n, [(2, 3, 2, 1)]) for n in range(8)]  # Bell numbers
    [1, 1, 2, 5, 15, 52, 203, 877]
    >>> count_avoiders(6, [(2, 3, 2, 1)], "prim")
    52
    """
    return _count(n, _checked(n, patterns, cls), cls)


def count_avoiders_upto(
    n: int, patterns: Iterable[Word], cls: str = "modasc"
) -> list[int]:
    """`[count_avoiders(k, patterns, cls) for k in range(n + 1)]`, with
    each level searched once: lengths 0..n - 2 are the lengths of the
    levels built to count lengths n - 1 and n from their grandparents.

    >>> count_avoiders_upto(7, [(2, 3, 2, 1)])  # Bell numbers
    [1, 1, 2, 5, 15, 52, 203, 877]
    """
    pats = _checked(n, patterns, cls)
    top = _count(n, pats, cls)
    return [_count(k, pats, cls) for k in range(n)] + [top]


def _count(n: int, pats: frozenset[Word], cls: str) -> int:
    """`count_avoiders` of the checked patterns: from `_COUNTS`, else from
    level n (n < 2) or a pass over the grandparents at level n - 2."""
    key = (n, pats, cls)
    if key not in _COUNTS:
        if n < 2:
            _COUNTS[key] = len(_avoider_level(n, pats, cls))
        else:
            _COUNTS[n - 1, pats, cls], _COUNTS[key] = _count_last_two(n - 2, pats, cls)
    return _COUNTS[key]


def _count_last_two(n: int, pats: frozenset[Word], cls: str) -> tuple[int, int]:
    """The numbers of avoiders of the checked patterns of lengths n + 1 and
    n + 2, counted from their grandparents at level n: each is searched
    once per pattern (`_occurrences`), its children's forbidden letters
    come from that search (`_child_masks`), and each allowed letter is a
    bit."""
    prim = cls == "prim"
    plans = [_plan(y) for y in pats]
    parents = children = 0
    for g in _avoider_level(n, pats, cls):
        m = max(g, default=0)
        last = g[-1] if g else 0
        allowed = _letter_mask(m, last, prim)
        bad = [0] * (m + 2)
        for plan in plans:
            ends, stems = _occurrences(g, plan)
            allowed &= ~_end_mask(ends, plan, last)
            for a, mask in enumerate(_child_masks(plan, ends, stems, m, last)):
                bad[a] |= mask
        parents += allowed.bit_count()
        for a in range(1, m + 2):
            if allowed >> a & 1:
                letters = _letter_mask(m + (a > last), a, prim)
                children += (letters & ~bad[a]).bit_count()
    return parents, children


def _is_permutation(p: Perm) -> bool:
    return set(p) == set(range(1, len(p) + 1))


def contains_special(p: Perm, name: str) -> bool:
    """Containment of one of the named special patterns in a permutation."""
    if not _is_permutation(p):
        raise ValueError(f"{p} is not a permutation")
    if name == "zeta":
        return bool(p) and p[0] != 1
    if name == "omega":
        pos = {v: i for i, v in enumerate(p)}
        for i in range(len(p) - 1):
            if p[i] > p[i + 1] and p[i + 1] > 1:
                if pos[p[i + 1] - 1] > i + 1:
                    return True
        return False
    if name == "32-1":
        n = len(p)
        # suffix_min[i] = min of p[i:]
        suffix_min = [0] * (n + 1)
        if n:
            suffix_min[n] = n + 1
            for i in range(n - 1, -1, -1):
                suffix_min[i] = min(p[i], suffix_min[i + 1])
        for i in range(n - 1):
            if p[i] > p[i + 1] and i + 2 < n and suffix_min[i + 2] < p[i + 1]:
                return True
        return False
    raise ValueError(f"unknown special pattern {name!r}")


def in_omega(p: Perm) -> bool:
    """True if p starts with 1 and avoids the omega pattern.

    The empty permutation is a member.
    """
    if not p:
        return True
    return p[0] == 1 and not contains_special(p, "omega")


@lru_cache(maxsize=None)
def generate_omega(n: int) -> tuple[Perm, ...]:
    """All members of the omega class of length n, in lexicographic order."""
    import itertools

    if n == 0:
        return ((),)
    out = []
    for rest in itertools.permutations(range(2, n + 1)):
        p = (1,) + rest
        if not contains_special(p, "omega"):
            out.append(p)
    return tuple(out)


def equal_avoidance_sets(
    y1: Word, y2: Word, cls: str = "modasc", n_max: int = 9
) -> bool:
    """True if the two patterns have identical avoider sets up to n_max."""
    return avoidance_witness(y1, y2, cls, n_max) is None


def avoidance_witness(
    y1: Word, y2: Word, cls: str = "modasc", n_max: int = 9
) -> tuple[int, Word] | None:
    """Smallest word avoiding exactly one of the two patterns, or None.

    >>> avoidance_witness((1, 2, 2), (1, 2, 3, 2), n_max=5)
    (3, (1, 2, 2))
    """
    for n in range(n_max + 1):
        a = _checked_level(n, [y1], cls)
        b = _checked_level(n, [y2], cls)
        if a != b:
            sa, sb = set(a), set(b)
            return n, min(sa.symmetric_difference(sb))
    return None
