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
So each word w is read once per pattern y, for the distinct value
tuples of the occurrences of y[:-1] (its ends) and of y[:-2] (its
stems).  An end has a lower bound (its largest value below y's last),
an upper bound (its smallest value above) and maybe a value tied with
y's last.  It forbids the child letter equal to the tied
value if that letter is appended as it is, or with no tied value every
appended a with lower < a < upper and every bumped a (a new value, the
only copy of itself) with lower < a <= upper (`_end_mask`).  The ends
of a child w a are w's own, bumped if a is a new value, and the stems
that step k - 2 of y accepts with a, extended by a (`_child_masks`).
So the one reading of w gives, as bit masks, the letters its children
may not end with and those each child's children may not end with
(`_grown`); no child is read.  The masks depend on w only through
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
Every level, cached or handed out, is grown by `words._grow`, as in
`words.sorted_keys`: the words of level n - 2 are grouped by their
maximum, last letter and `_grown` masks, so a group's children that end
with a letter a all leave out the same letters below them.  The groups
grow into level n - 1, grouped and sorted again, and that into level n,
sorted as one list of runs.  So a length above `words.KEY_CAP` is
refused before any level is built, and every level is in lexicographic
order.
The lengths of the levels built or counted are kept in a small table of
ints, so a repeated count reads no word.

The reading follows a plan made once per pattern for a level or a count
(`_plan`): each step of y is compared only with the earlier step of the
nearest value below it and the one of the nearest value above, or, if
an earlier step is tied with it, with that step's value.  The same plan
gives the bounds and the tied value above.  The words of a level are
read by one automaton per plan (`_automaton`), in the spirit of Vatter,
"Finitely labeled generating trees and restricted permutations" (2006).
Its state after some letters holds, for each prefix y[:j] (1 <= j < k),
the distinct occurrences of y[:j] in them, kept only at the steps that
a later step reads (`_layout`), so that occurrences which differ
elsewhere are one.  A transition (state, letter) extends by the letter
each occurrence of y[:j - 1] whose step j - 1 accepts it; it is worked
out once (`_advance`) and then looked up by every word that takes it,
and a word's ends and stems are projected from its last state and its
maximum, once per such pair (`_found`, `_key`).  The occurrences and
the sets of them are interned, and an automaton that holds more than
`_STATES` states is replaced by a new one before the next word, so its
memory is bounded whatever the level.  `contains` shares none of this;
it is the oracle the reading is tested against.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator

from .words import (
    Label,
    Word,
    _check_key_length,
    _grow,
    _letters,
    _regroup,
    _sorted_children,
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
    tied: `_child_masks` reads the bounds of a missing step from two
    sentinel slots at the end of its list of values.

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
def _layout(plan: Plan) -> tuple[tuple[int, ...], ...]:
    """For each prefix y[:j] of the pattern of `plan` (1 <= j < k), the
    slot an occurrence of it is kept by for each of its steps: the step
    itself if a step from j on reads it (the tied one, or else the ones
    below and above), else -1, a slot that holds 0.  Occurrences that
    differ only in the steps not kept are then one.

    >>> _layout(_plan((2, 3, 2, 1)))
    ((0,), (0, -1), (0, -1, -1))
    >>> _layout(_plan((1, 2, 1, 2)))  # step 3 reads step 1 alone
    ((0,), (0, 1), (-1, 1, -1))
    """
    reads = [{tied} if tied >= 0 else {below, above} - {-2, -1}
             for below, above, tied in plan]
    return tuple(
        tuple(t if any(t in r for r in reads[j:]) else -1 for t in range(j))
        for j in range(1, len(plan))
    )


#: The most states an automaton of `_grown` holds between words: one that
#: holds more is replaced by a new one before the next word.
_STATES = 4096


def _automaton(plan: Plan) -> tuple[Plan, list, dict, dict, list, dict, dict]:
    """A new occurrence automaton of `plan`, as (plan, states, ids, nexts,
    sets, interned, keys).

    A state is a tuple holding, for j = 0, ..., k - 1, the id of the set
    of distinct occurrences of y[:j] in the letters read so far, each
    occurrence kept by its slots of `_layout`.  `states` lists the states
    by id, state 0 (the empty word) first, and `ids` numbers them.
    `nexts` holds each transition worked out so far, from state s on
    letter v, at v << 32 | s.  `sets` lists the sets by id, each a sorted
    tuple, and `interned` holds the occurrences (each itself) and the sets
    (each its id).  `keys` holds the keys `_grown` packed, by state and
    maximum."""
    start = (0, *[1] * (len(plan) - 1))
    return plan, [start], {start: 0}, {}, [((),), ()], {((),): 0, (): 1}, {}


def _run(automaton: tuple, w: Word) -> int:
    """The state of `automaton` after reading the letters of w, each
    transition looked up once it is worked out."""
    nexts = automaton[3]
    s = 0
    for v in w:
        t = nexts.get(v << 32 | s)
        s = _advance(automaton, s, v) if t is None else t
    return s


def _advance(automaton: tuple, s: int, v: int) -> int:
    """The state after reading v in state s, worked out, added to the
    automaton if new and recorded as the transition (s, v): each
    occurrence of y[:j - 1] that step j - 1 of the plan accepts v after
    (v tied with it, or between its bounds, a missing bound being no
    bound) gives one of y[:j], kept by its slots of `_layout`."""
    plan, states, ids, nexts, sets, interned, _ = automaton
    old = states[s]
    new = list(old)
    for j, ((below, above, tied), slots) in enumerate(zip(plan, _layout(plan)), 1):
        before = sets[old[j - 1]]
        if not before:
            break  # nor are there occurrences of y[:j] or longer prefixes
        if tied >= 0:
            grown = {tuple(map((*o, v, 0).__getitem__, slots))
                     for o in before if o[tied] == v}
        else:
            grown = {tuple(map((*o, v, 0).__getitem__, slots)) for o in before
                     if (below < 0 or o[below] < v) and (above < 0 or v < o[above])}
        known = sets[old[j]]
        grown.difference_update(known)
        if grown:
            grown = tuple(sorted([*known, *map(interned.setdefault, grown, grown)]))
            new[j] = interned.setdefault(grown, len(sets))
            if new[j] == len(sets):
                sets.append(grown)
    state = tuple(new)
    t = ids.setdefault(state, len(states))
    if t == len(states):
        states.append(state)
    nexts[v << 32 | s] = t
    return t


def _found(automaton: tuple, s: int, m: int) -> tuple[set, set]:
    """The ends and stems (see `_occurrences`) of a word with maximum m in
    state s: what step k - 1 reads of each occurrence of y[:-1], with a
    missing bound 0 below and m + 1 above, and the occurrences of
    y[:-2]."""
    plan, states, _, _, sets, _, _ = automaton
    state = states[s]
    below, above, tied = plan[-1]
    if tied >= 0:
        ends = {o[tied] for o in sets[state[-1]]}
    else:
        ends = {(o[below] if below >= 0 else 0, o[above] if above >= 0 else m + 1)
                for o in sets[state[-1]]}
    return ends, set(sets[state[-2]]) if len(plan) > 1 else set()


def _key(automaton: tuple, s: int, m: int) -> str:
    """The ends and stems of a word with maximum m in state s (`_found`)
    packed into a string of one character per int, which is canonical
    and far smaller than a pair of sets: the number of stems, the sorted
    stems and the sorted ends.  Both have a fixed width, so it is
    injective.  Each key is packed once and kept by the automaton."""
    keys = automaton[6]
    key = keys.get(m << 32 | s)
    if key is None:
        ends, stems = _found(automaton, s, m)
        ends = sorted(ends)
        if automaton[0][-1][2] < 0:  # pairs (lower, upper)
            ends = chain.from_iterable(ends)
        key = keys[m << 32 | s] = "".join(
            map(chr, (len(stems), *chain.from_iterable(sorted(stems)), *ends))
        )
    return key


def _occurrences(w: Word, plan: Plan) -> tuple[set, set]:
    """The occurrences in w of y[:-1] and of y[:-2], for the pattern y of
    `plan = _plan(y)`, as two sets of value tuples, read by a new
    automaton of the plan (`_automaton`).

    An end (an occurrence of y[:-1]) keeps only what y's last step reads:
    the tied value, or else the pair (lower, upper).  A stem (one of
    y[:-2]) keeps the values of its steps that steps k - 2 and k - 1 of
    y read, with 0 in the others (`_layout`).  Values are w's; a missing
    bound is 0 below and max(w) + 1 above.

    >>> _occurrences((1, 2, 1), _plan((2, 3, 2, 1)))  # y[:-1] = 2 3 2
    ({(0, 1)}, {(1, 0)})
    """
    automaton = _automaton(plan)
    return _found(automaton, _run(automaton, w), max(w, default=0))


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
    child's own children may not end with: w is read by one automaton per
    plan (`_automaton`), shared by every parent, and no child is read.

    Both follow from w's occurrence state alone: its maximum, its last
    letter and, per plan, its ends and stems.  So the masks are worked out
    once per distinct state of the call (`_state_masks`) and shared by
    every parent in it; the memo and the automata are freed when the call
    returns, and an automaton that holds more than `_STATES` states starts
    again before the next parent."""
    automata = [_automaton(plan) for plan in plans]
    memo: dict[tuple, tuple[int, tuple[int, ...]]] = {}
    shared: dict[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]] = {}
    for w in parents:
        m = max(w, default=0)
        last = w[-1] if w else 0
        read = []
        for i, plan in enumerate(plans):
            if len(automata[i][1]) > _STATES:
                automata[i] = _automaton(plan)
            read.append((automata[i], _run(automata[i], w)))
        state = (m, last, *[_key(automaton, s, m) for automaton, s in read])
        masks = memo.get(state)
        if masks is None:
            found = [_found(automaton, s, m) for automaton, s in read]
            masks = _state_masks(plans, found, m, last, prim)
            # few distinct pairs: the memo holds one copy of each
            masks = memo[state] = shared.setdefault(masks, masks)
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
    each parent, the children that contain a pattern left out, in
    lexicographic order: the tuples of `sorted_avoider_keys`."""
    if n == 0:
        return ((),)
    return tuple(map(tuple, sorted_avoider_keys(n, pats, cls)))


def _parents(n: int, pats: frozenset[Word], cls: str) -> dict[Label, list[bytes]]:
    """The avoiders of length n - 1 (n >= 1) as byte strings, grouped by
    label for `words._grow`: the cached level n - 2 (level 0 itself for
    n = 1) grouped by its `_grown` masks, and for n >= 2 grown once more,
    so that a child ending with a letter a leaves out `below[a]` of its
    group.  The children are not cached."""
    prim = cls == "prim"
    groups: dict[Label, list[bytes]] = {}
    level = _avoider_level(max(n - 2, 0), pats, cls)
    for g, bad, below in _grown(level, [_plan(y) for y in pats], prim):
        label = (len(below) - 2, g[-1] if g else 0, bad, below)
        groups.setdefault(label, []).append(bytes(g))
    return groups if n == 1 else _regroup(_grow(groups, prim))


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
    byte strings, grown from their parents at level n - 1 (`_parents`)
    by `words._grow` and sorted as one list of ascending runs; levels
    n - 1 and n are not cached, but their lengths go into `_COUNTS`.
    Raises ValueError unless n <= `words.KEY_CAP`, before any level is
    built.

    >>> [list(k) for k in sorted_avoider_keys(3, [(1, 2, 2)])]
    [[1, 1, 1], [1, 1, 2], [1, 2, 1], [1, 2, 3]]
    """
    pats = _checked(n, patterns, cls)
    if n == 0:
        return [b""]
    groups = _parents(n, pats, cls)
    _COUNTS[n - 1, pats, cls] = sum(map(len, groups.values()))
    keys = _sorted_children(groups, cls == "prim")
    _COUNTS[n, pats, cls] = len(keys)
    return keys


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
