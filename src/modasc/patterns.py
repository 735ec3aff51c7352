"""Pattern containment and avoidance for words and permutations.

A classical pattern is itself a Cayley permutation; a word contains it
if some subsequence is order isomorphic to it, where equalities must be
matched by equalities.  Two special patterns on permutations are
supported by name:

* ``omega``  - an adjacent descent p_i > p_{i+1} whose bottom value is
  followed, at least two positions later, by the next smaller value
  (p_{i+1} = p_j + 1).
* ``32-1``   - an adjacent descent followed, at least two positions
  later, by a value below both legs (p_i > p_{i+1} > p_k).

The omega class (permutations that start with 1 and avoid omega, the
bivincular class of Bousquet-Mélou, Claesson, Dukes and Kitaev, "(2+2)-free
posets, ascent sequences and pattern avoiding permutations", 2010) and
Sym(32-1) (Claesson, "Generalized pattern avoidance", 2001) grow on one
tree (`grow_perms`): a child of p bumps the old values >= a by one and
appends a, so only occurrences that end with a are new.  For omega, a >= 2
keeps 1 first and skips p's descent bottoms b (the bumped b + 1 would be a
descent bottom followed by b); for 32-1, a is above them all.

Avoider levels are the levels of the generating tree of `words` (its
module docstring states the succession rule) with the letters a pattern
forbids left out: extending a modified ascent sequence relabels the old
letters in an order-preserving way, so containment is inherited by
every extension and any new occurrence must use the appended letter.
So each word w is searched once per pattern y (`_occurrences`), for the
distinct value tuples of the occurrences of y[:-1] (its ends) and of
y[:-2] (its stems).  An end has a lower bound (its largest value below
y's last), an upper bound (its smallest value above) and maybe a value
tied with y's last.  It forbids the child letter equal to the tied
value if that letter is appended as it is, or with no tied value every
appended a with lower < a < upper and every bumped a (a new value, the
only copy of itself) with lower < a <= upper (`_end_mask`).  The ends
of a child w a are w's own, bumped if a is a new value, and the stems
that step k - 2 of y accepts with a, extended by a (`_child_masks`).
So the one search of w gives, as bit masks, the letters its children
may not end with and those each child's children may not end with
(`_grown`); no child is searched.  The masks depend on w only through
its occurrence state: its maximum, its last letter and its ends and
stems.  Far fewer states than words occur (195 among the 4,140 avoiders
of 2321 of length 8), so the masks are worked out once per distinct
state of a level, and `count_avoiders` counts once per distinct state,
weighted by the number of words in it.

Levels thus grow two steps at a time: level n is expanded from level
n - 2 (level 1 from level 0), and only levels n - 2, n - 4, ... below it
are built and cached.  `count_avoiders` counts lengths n - 1 and n from
level n - 2 by popcount, building no word of either, and
`sorted_avoider_keys` (and `avoiders`, its tuples) turns the children of
level n - 2 straight into byte strings; none caches level n - 1 or n.
Every level, cached or handed out, is expanded by `words._child_keys`,
so a length above `words.KEY_CAP` is refused before any level is built.
The lengths of the levels built or counted are kept in a small table of
ints, so a repeated count searches nothing.

The search follows a plan made once per pattern for a level or a count
(`_plan`): each step of y is compared only with the earlier step of the
nearest value below it and the one of the nearest value above, or, if
an earlier step is tied with it, is placed at the next copy of that
step's value.  The same plan gives the bounds and the tied value above.
A step whose value no later step reads is placed at its first fit only.
`contains` shares none of this; it is the oracle the search is tested
against.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator

from .words import (
    Word,
    _check_key_length,
    _child_keys,
    _letters,
    check_length,
    is_cayley,
)

Perm = tuple[int, ...]

# Per step of a pattern: the earlier steps below, above and tied (`_plan`).
Plan = tuple[tuple[int, int, int], ...]


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


def _occurrences(w: Word, plan: Plan) -> tuple[set, set]:
    """The occurrences in w of y[:-1] and of y[:-2], for the pattern y of
    `plan = _plan(y)`, as two sets of value tuples, found by one search.

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
    stems: set = set()
    # Step s of y[:-2] may sit at position len(w) - k + 2 + s, one further
    # right than in y[:-1].
    _place(w, plan, reads, keep, chosen, 0, 0, len(w) - k + 3, ends, stems)
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
    stems: set,
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


def _end_mask(ends: Iterable, tied: bool, last: int) -> int:
    """The letters (as bits) that complete one of `ends` in a word with
    last letter `last`, by the rule above.  An end is what a step of a
    pattern reads of the earlier steps: a tied value if `tied`, which
    only itself appended as it is completes, else a pair (lower, upper),
    which every a with lower < a < upper completes, and the upper bound
    too when a is a new value.

    >>> bin(_end_mask([(1, 3)], False, 2)), _end_mask([2], True, 1)
    ('0b1100', 0)
    """
    mask = 0
    if tied:
        for v in ends:
            if v <= last:
                mask |= 1 << v
    else:
        for lo, hi in ends:
            mask |= (1 << hi + (hi > last)) - (2 << lo)
    return mask


def _child_masks(
    plan: Plan, ends: set, stems: set, m: int, last: int, allowed: int
) -> list[int]:
    """`_end_mask` of each child of a word with maximum m and last letter
    `last`, at the index of the child's last letter a, for the letters
    `allowed` (as bits) and 0 at the others, from the word's
    `_occurrences` alone: the child's ends are the word's, bumped if a is
    a new value, and the stems that step k - 2 extends by a.

    >>> plan = _plan((1, 2, 1))
    >>> _occurrences((1, 2), plan)
    ({1}, {(1,), (2,)})
    >>> _child_masks(plan, *_occurrences((1, 2), plan), 2, 2, 0b1100)  # 1 2 a b, a > 1
    [0, 0, 2, 6]
    """
    tied_end = plan[-1][2] >= 0
    extended: list[list] = [[] for _ in range(m + 2)]
    if len(plan) > 1:
        below, above, tied = plan[-2]
        below1, above1, tied1 = plan[-1]
        for stem in stems:
            # Slot -3 of `vals` is step k - 2, the child's last letter.
            vals = [*stem, 0, 0, m + 1]
            end = vals[tied] if tied >= 0 else (vals[below], vals[above])
            letters = _end_mask((end,), tied >= 0, last) & allowed
            while letters:
                a = letters.bit_length() - 1
                letters ^= 1 << a
                bump = a > last
                vals = [v + (bump and v >= a) for v in stem]
                vals += (a, 0, m + 1 + bump)
                extended[a].append(
                    vals[tied1] if tied1 >= 0 else (vals[below1], vals[above1])
                )
    masks = [0] * (m + 2)
    while allowed:
        a = allowed.bit_length() - 1
        allowed ^= 1 << a
        if a <= last:
            child = [*ends]
        elif tied_end:
            child = [v + (v >= a) for v in ends]
        else:
            child = [(lo + (lo >= a), hi + (hi >= a)) for lo, hi in ends]
        masks[a] = _end_mask(child + extended[a], tied_end, a)
    return masks


@lru_cache(maxsize=4096)
def _letter_mask(m: int, last: int, prim: bool) -> int:
    """The letters of `words._letters(m, last, prim)` as bits.

    >>> bin(_letter_mask(3, 2, True))  # children of 1 3 1 2: 1, 3 and 4
    '0b11010'
    """
    return sum((1 << r.stop) - (1 << r.start) for r in _letters(m, last, prim) if r)


def _grown(
    parents: Iterable[Word], plans: list[Plan], prim: bool
) -> Iterator[tuple[Word, int, tuple[int, ...]]]:
    """Each parent w with the letters (as bits) its children may not end
    with and, at the index of each child's last letter, the letters that
    child's own children may not end with: one search of w per plan
    (`_occurrences`), and none of a child.

    Both follow from w's occurrence state alone: its maximum, its last
    letter and, per plan, its ends and stems.  So the masks are worked out
    once per distinct state of the call (`_state_masks`) and shared by
    every parent in it; the memo is freed when the call returns."""
    tied = [plan[-1][2] >= 0 for plan in plans]
    memo: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
    for w in parents:
        m = max(w, default=0)
        last = w[-1] if w else 0
        # The state as a flat tuple of small ints, which is canonical and
        # far smaller than a tuple of sets: m, last and, per plan, the
        # sorted ends and the sorted stems, each set closed by -1.  A
        # plan's ends and stems have a fixed width, so it is injective.
        state = [m, last]
        found = []
        for plan, t in zip(plans, tied):
            ends, stems = occurrences = _occurrences(w, plan)
            found.append(occurrences)
            state += sorted(ends) if t else chain.from_iterable(sorted(ends))
            state.append(-1)
            state += chain.from_iterable(sorted(stems))
            state.append(-1)
        key = tuple(state)
        masks = memo.get(key)
        if masks is None:
            masks = memo[key] = _state_masks(plans, found, m, last, prim)
        yield w, *masks


def _state_masks(
    plans: list[Plan], found: list[tuple[set, set]], m: int, last: int, prim: bool
) -> tuple[int, tuple[int, ...]]:
    """The masks `_grown` gives a word with maximum m, last letter `last`
    and `found = [_occurrences(w, plan) for plan in plans]`."""
    bad = 0
    for plan, (ends, _) in zip(plans, found):
        bad |= _end_mask(ends, plan[-1][2] >= 0, last)
    allowed = _letter_mask(m, last, prim) & ~bad
    below = [0] * (m + 2)
    for plan, (ends, stems) in zip(plans, found):
        for a, mask in enumerate(_child_masks(plan, ends, stems, m, last, allowed)):
            below[a] |= mask
    return bad, tuple(below)


#: The number of avoiders of each (length, patterns, class) counted or
#: built so far: ints, not words, so a repeated count searches nothing.
_COUNTS: dict[tuple[int, frozenset[Word], str], int] = {}


@lru_cache(maxsize=None)
def _avoider_level(n: int, pats: frozenset[Word], cls: str) -> tuple[Word, ...]:
    """Level n of the class's generating tree (see `words`) with, below
    each parent, the children that contain a pattern left out, grown from
    level n - 2 (`_parents`).  The lengths of levels n - 1 and n go into
    `_COUNTS`."""
    if n == 0:
        return ((),)
    parents = list(_parents(n, pats, cls))
    level = tuple(map(tuple, _child_keys(parents, cls == "prim")))
    _COUNTS[n - 1, pats, cls] = len(parents)
    _COUNTS[n, pats, cls] = len(level)
    return level


def _parents(n: int, pats: frozenset[Word], cls: str) -> Iterator[tuple[Word | bytes, int]]:
    """The avoiders of length n - 1 (n >= 1), each with the letters (as
    bits) its children may not end with: the children of the cached level
    n - 2 (level 0 itself for n = 1) as byte strings, which are not
    cached."""
    plans = [_plan(y) for y in pats]
    prim = cls == "prim"
    if n == 1:
        return ((w, bad) for w, bad, _ in _grown(_avoider_level(0, pats, cls), plans, prim))
    return (
        (c, below[c[-1]])
        for g, bad, below in _grown(_avoider_level(n - 2, pats, cls), plans, prim)
        for c in _child_keys(((g, bad),), prim)
    )


def _checked(n: int, patterns: Iterable[Word], cls: str) -> frozenset[Word]:
    """The patterns as a set, after checking the class, the length (at
    most `words.KEY_CAP`) and them."""
    if cls not in ("modasc", "prim"):
        raise ValueError(f"unknown class {cls!r}; expected 'modasc' or 'prim'")
    _check_key_length(n)
    pats = frozenset(patterns)
    for y in pats:
        if not y:
            raise ValueError("patterns must be nonempty")
        if not is_cayley(y):
            raise ValueError(f"pattern {y} is not a Cayley permutation")
    return pats


def avoiders(n: int, patterns: Iterable[Word], cls: str = "modasc") -> list[Word]:
    """All length-n members of the class avoiding every given pattern, in
    lexicographic order: the tuples of `sorted_avoider_keys`.

    >>> avoiders(3, [(1, 2, 2)])
    [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 3)]
    """
    return list(map(tuple, sorted_avoider_keys(n, patterns, cls)))


def sorted_avoider_keys(
    n: int, patterns: Iterable[Word], cls: str = "modasc"
) -> list[bytes]:
    """The length-n avoiders of every given pattern in the class as sorted
    byte strings, expanded from the parents at level n - 1 by
    `words._child_keys` and sorted; levels n - 1 and n are not cached.
    Raises ValueError unless n <= `words.KEY_CAP`, before any level is
    built.

    >>> [list(k) for k in sorted_avoider_keys(3, [(1, 2, 2)])]
    [[1, 1, 1], [1, 1, 2], [1, 2, 1], [1, 2, 3]]
    """
    pats = _checked(n, patterns, cls)
    if n == 0:
        return [b""]
    return sorted(_child_keys(_parents(n, pats, cls), cls == "prim"))


def count_avoiders(n: int, patterns: Iterable[Word], cls: str = "modasc") -> int:
    """Number of length-n members of the class avoiding every given
    pattern, counted with length n - 1 from their grandparents: levels
    n - 2, n - 4, ... are built (and kept in the cache of
    `_avoider_level`), levels n - 1 and n are not.  A length counted or
    built before is read from `_COUNTS`, with no search.  Raises
    ValueError unless n <= `words.KEY_CAP`, before any level is built.

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
    each level searched once: each level built to count lengths n - 1
    and n from their grandparents records its own length and its
    parents', which gives lengths 0..n - 2.

    >>> count_avoiders_upto(7, [(2, 3, 2, 1)])  # Bell numbers
    [1, 1, 2, 5, 15, 52, 203, 877]
    """
    pats = _checked(n, patterns, cls)
    top = _count(n, pats, cls)
    return [_count(k, pats, cls) for k in range(n)] + [top]


def _count(n: int, pats: frozenset[Word], cls: str) -> int:
    """`count_avoiders` of the checked patterns: the length of level n if
    n < 2, else from `_COUNTS` or, with length n - 1, from the
    grandparents at level n - 2 (`_grown`), each allowed letter a bit.
    The letters are counted once per distinct occurrence state (the last
    letter and masks `_grown` shares among its grandparents), weighted by
    the number of grandparents in it."""
    if n < 2:
        return len(_avoider_level(n, pats, cls))
    key = (n, pats, cls)
    if key in _COUNTS:
        return _COUNTS[key]
    prim = cls == "prim"
    grandparents = _avoider_level(n - 2, pats, cls)
    states = Counter(
        (g[-1] if g else 0, bad, below)
        for g, bad, below in _grown(grandparents, [_plan(y) for y in pats], prim)
    )
    parents = children = 0
    for (last, bad, below), weight in states.items():
        m = len(below) - 2
        allowed = _letter_mask(m, last, prim) & ~bad
        parents += weight * allowed.bit_count()
        for a in range(1, m + 2):
            if allowed >> a & 1:
                letters = _letter_mask(m + (a > last), a, prim)
                children += weight * (letters & ~below[a]).bit_count()
    _COUNTS[n - 1, pats, cls], _COUNTS[key] = parents, children
    return children


def _is_permutation(p: Perm) -> bool:
    return set(p) == set(range(1, len(p) + 1))


def contains_special(p: Perm, name: str) -> bool:
    """Containment of one of the named special patterns in a permutation."""
    if not _is_permutation(p):
        raise ValueError(f"{p} is not a permutation")
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


def grow_perms(n: int, name: str) -> list[Perm]:
    """Level n of the tree of the omega class (`name` "omega") or of
    Sym(32-1) ("32-1"), by the rule of the module docstring, in tree order.

    >>> grow_perms(3, "omega"), len(grow_perms(4, "32-1"))
    ([(1, 3, 2), (1, 2, 3)], 15)
    """
    check_length(n)
    if name not in ("omega", "32-1"):
        raise ValueError(f"unknown permutation class {name!r}; expected 'omega' or '32-1'")
    omega = name == "omega"
    level: list[Perm] = [()]
    for size in range(1, n + 1):
        grown = []
        for p in level:
            bottoms = {b for t, b in zip(p, p[1:]) if t > b}
            floor = (2 if p else 1) if omega else max(bottoms, default=0) + 1
            grown += [tuple(v + (v >= a) for v in p) + (a,)
                      for a in range(floor, size + 1) if a not in bottoms]
        level = grown
    return level


@lru_cache(maxsize=None)
def generate_omega(n: int) -> tuple[Perm, ...]:
    """All members of the omega class of length n, in lexicographic order:
    level n of its tree (`grow_perms`), sorted.  A child of p appends a >= 2
    (1 stays first) that is not a descent bottom of p: a new omega occurrence
    ends with a, after the descent bottom a + 1 that p's bottom a became."""
    return tuple(sorted(grow_perms(n, "omega")))
