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
`count_avoiders` counts level n from its parents: it builds level
n - 1 and adds, for each parent, the letters that no pattern forbids.
`count_avoiders_upto` counts every length up to n by the same search,
taking the shorter lengths from the levels that search builds.
`contains` shares none of this; it is the oracle the search is tested
against.
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
    tied: `_forbidden_letters` reads the bounds of a missing step from two
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
    kept, bumped = _letters(max(w, default=0), w[-1] if w else 0, False)
    k = len(plan) - 1
    # chosen[-2] and chosen[-1] bound a step with no earlier step below or
    # above it: 0 and the largest letter a child may end with.
    chosen = [0] * k + [0, bumped[-1]]
    bad: set[int] = set()
    _search(w, plan, chosen, 0, 0, len(w) - k + 1, kept, bad)
    return bad


def _search(
    w: Word,
    plan: Plan,
    chosen: list[int],
    s: int,
    start: int,
    stop: int,
    kept: range,
    bad: set[int],
) -> None:
    """Extend the occurrence of y[:s] in `chosen` by step s, at a position
    in range(start, stop) of w, and add to `bad` the letters that complete
    one to y once all of y[:-1] is placed."""
    below, above, tied = plan[s]
    if s == len(plan) - 1:
        if tied >= 0:
            if chosen[tied] in kept:
                bad.add(chosen[tied])
        else:
            lo, hi = chosen[below], chosen[above]
            # a = upper completes y only as a new value: bumped, not kept.
            bad.update(range(lo + 1, hi if hi in kept else hi + 1))
        return
    if tied >= 0:
        # The leftmost copy of the tied value reaches every later occurrence.
        v = chosen[tied]
        try:
            i = w.index(v, start, stop)
        except ValueError:
            return
        chosen[s] = v
        _search(w, plan, chosen, s + 1, i + 1, stop + 1, kept, bad)
        return
    lo, hi = chosen[below], chosen[above]
    seen = set()
    # Likewise for each value between the bounds: one visit per value tuple.
    for i in range(start, stop):
        v = w[i]
        if lo < v < hi and v not in seen:
            seen.add(v)
            chosen[s] = v
            _search(w, plan, chosen, s + 1, i + 1, stop + 1, kept, bad)


def _forbidden(w: Word, plans: list[Plan]) -> set[int]:
    """The union of `_forbidden_letters(w, plan)` over the plans."""
    return set().union(*(_forbidden_letters(w, plan) for plan in plans))


@lru_cache(maxsize=None)
def _avoider_level(n: int, pats: frozenset[Word], cls: str) -> tuple[Word, ...]:
    """Level n of the class's generating tree (see `words`) with, below
    each parent, the children that contain a pattern left out."""
    if n == 0:
        return ((),)
    plans = [_plan(y) for y in pats]
    return tuple(
        c
        for w in _avoider_level(n - 1, pats, cls)
        for c in _children(w, cls == "prim", _forbidden(w, plans))
    )


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
    pattern, counted from their parents: level n - 1 is built (and kept
    in the cache of `_avoider_level`), level n is not.  Each parent adds
    its children's letters that no pattern forbids.

    >>> [count_avoiders(n, [(2, 3, 2, 1)]) for n in range(8)]  # Bell numbers
    [1, 1, 2, 5, 15, 52, 203, 877]
    >>> count_avoiders(6, [(2, 3, 2, 1)], "prim")
    52
    """
    return _count_from_parents(n, _checked(n, patterns, cls), cls)


def count_avoiders_upto(
    n: int, patterns: Iterable[Word], cls: str = "modasc"
) -> list[int]:
    """`[count_avoiders(k, patterns, cls) for k in range(n + 1)]`, with
    each level searched once: the lengths below n are the lengths of the
    levels that counting length n from its parents builds anyway.

    >>> count_avoiders_upto(7, [(2, 3, 2, 1)])  # Bell numbers
    [1, 1, 2, 5, 15, 52, 203, 877]
    """
    pats = _checked(n, patterns, cls)
    below = [len(_avoider_level(k, pats, cls)) for k in range(n)]
    return below + [_count_from_parents(n, pats, cls)]


def _count_from_parents(n: int, pats: frozenset[Word], cls: str) -> int:
    """Length n's avoiders of the checked patterns, counted from the
    parents at level n - 1."""
    if n == 0:
        return 1
    plans = [_plan(y) for y in pats]
    total = 0
    for w in _avoider_level(n - 1, pats, cls):
        bad = _forbidden(w, plans)
        for letters in _letters(max(w, default=0), w[-1] if w else 0, cls == "prim"):
            total += sum(a not in bad for a in letters)
    return total


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
