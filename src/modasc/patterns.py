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

Avoider sets are generated by growing words level by level and pruning:
extending a modified ascent sequence relabels the old letters in an
order-preserving way, so containment is inherited by every extension
and any new occurrence must use the appended letter.  So each parent w
is searched once per pattern y, for the distinct value tuples of the
occurrences of y[:-1].  Such a tuple has a lower bound (its largest
value below y's last), an upper bound (its smallest value above) and
maybe a value tied with y's last.  It forbids the child letter equal to
the tied value if that letter is appended as is (a <= w[-1]), or with
no tied value every appended a with lower < a < upper and every bumped
a (a new value, the only copy of itself) with lower < a <= upper.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .words import Word, is_cayley

Perm = tuple[int, ...]

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


def _forbidden_letters(w: Word, y: Word) -> set[int]:
    """The letters whose child of w contains y, by the rule above.

    >>> sorted(_forbidden_letters((1, 2), (1, 2, 2)))  # 1 2 2
    [2]
    >>> sorted(_forbidden_letters((1, 2, 1), (1, 3, 2)))  # 1 3 1 2
    [2]
    """
    k = len(y) - 1
    last = w[-1] if w else 0
    top = max(w, default=0) + 1
    ylast = y[-1]
    chosen = [0] * k
    bad: set[int] = set()

    def extend(s: int, start: int, lo: int, hi: int, tied: int) -> None:
        if s == k:
            if tied:
                if tied <= last:
                    bad.add(tied)
            else:
                bad.update(range(lo + 1, min(hi, last + 1)))
                bad.update(range(max(lo, last) + 1, min(hi, top) + 1))
            return
        ys = y[s]
        seen = set()
        # The leftmost copy of a value reaches every later occurrence, so
        # each distinct value tuple is visited once.
        for i in range(start, len(w) - (k - s) + 1):
            v = w[i]
            if v in seen:
                continue
            seen.add(v)
            for t in range(s):
                yt = y[t]
                vt = chosen[t]
                if (vt >= v) if yt < ys else (vt != v) if yt == ys else (vt <= v):
                    break
            else:
                chosen[s] = v
                if ys < ylast:
                    extend(s + 1, i + 1, max(lo, v), hi, tied)
                elif ys > ylast:
                    extend(s + 1, i + 1, lo, min(hi, v), tied)
                else:
                    extend(s + 1, i + 1, lo, hi, v)

    extend(0, 0, 0, top, 0)
    return bad


@lru_cache(maxsize=None)
def _avoider_level(n: int, pats: frozenset[Word], cls: str) -> tuple[Word, ...]:
    if n == 0:
        return ((),)
    out = []
    for w in _avoider_level(n - 1, pats, cls):
        bad = set().union(*(_forbidden_letters(w, y) for y in pats))
        last = w[-1] if w else 0
        for a in range(1, last if cls == "prim" else last + 1):
            if a not in bad:
                out.append(w + (a,))
        for a in range(last + 1, max(w, default=0) + 2):
            if a not in bad:
                out.append(tuple(v + 1 if v >= a else v for v in w) + (a,))
    return tuple(out)


def _checked_level(n: int, patterns: Iterable[Word], cls: str) -> tuple[Word, ...]:
    """`_avoider_level` after checking the class, the length and the patterns."""
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
    return _avoider_level(n, pats, cls)


def avoiders(n: int, patterns: Iterable[Word], cls: str = "modasc") -> list[Word]:
    """All length-n members of the class avoiding every given pattern.

    >>> avoiders(3, [(1, 2, 2)])
    [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 3)]
    """
    return sorted(_checked_level(n, patterns, cls))


def count_avoiders(n: int, patterns: Iterable[Word], cls: str = "modasc") -> int:
    return len(_checked_level(n, patterns, cls))


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
