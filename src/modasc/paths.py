"""Dyck paths as step strings, and the subclass with no dudu factor.

A path is a string over 'u' and 'd', nonnegative as a prefix sum and
balanced overall.  The forbidden configuration is the factor "dudu" of
four consecutive steps; checking it is a plain substring scan.

Splitting a path at its returns to the axis writes it as
u Q1 d u Q2 d ... u Qk d; `decompose_returns` gives the tuple of the
Qi and `assemble_factors` joins it back.  A path avoids dudu exactly
when every Qi avoids dudu and no interior Qi (1 < i < k) is empty,
which is how `generate_dudu_avoiders` builds the class without
post-filtering.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

from .words import check_length

_STEP_ORDER = str.maketrans("ud", "ab")  # sort with u before d


def assemble_factors(factors: tuple[str, ...]) -> str:
    return "".join("u" + q + "d" for q in factors)


def is_dyck(path: str) -> bool:
    """True for a balanced nonnegative step string; '' counts."""
    h = 0
    for c in path:
        if c == "u":
            h += 1
        elif c == "d":
            h -= 1
            if h < 0:
                return False
        else:
            return False
    return h == 0


def avoids_dudu(path: str) -> bool:
    """
    >>> avoids_dudu("uududd")
    True
    >>> avoids_dudu("ududud")
    False
    """
    if not is_dyck(path):
        raise ValueError(f"{path!r} is not a Dyck path")
    return "dudu" not in path


def path_sort_key(path: str) -> str:
    return path.translate(_STEP_ORDER)


@lru_cache(maxsize=None)
def generate_dyck(n: int) -> tuple[str, ...]:
    """All Dyck paths of semilength n, u-before-d order."""
    check_length(n)
    if n == 0:
        return ("",)
    out = []
    for first in range(1, n + 1):
        for q in generate_dyck(first - 1):
            head = "u" + q + "d"
            for rest in generate_dyck(n - first):
                out.append(head + rest)
    return tuple(sorted(out, key=path_sort_key))


def _factor_lengths(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Compositions of n into k parts, interior parts at least 2."""
    if k == 1:
        yield (n,)
        return
    mins = [1] + [2] * (k - 2) + [1]
    spare = n - sum(mins)
    if spare < 0:
        return
    for extra in itertools.product(range(spare + 1), repeat=k - 1):
        used = sum(extra)
        if used <= spare:
            parts = list(extra) + [spare - used]
            yield tuple(m + e for m, e in zip(mins, parts))


@lru_cache(maxsize=None)
def generate_dudu_avoiders(n: int) -> tuple[str, ...]:
    """All dudu-avoiding Dyck paths of semilength n, u-before-d order.

    >>> generate_dudu_avoiders(2)
    ('uudd', 'udud')
    """
    check_length(n)
    if n == 0:
        return ("",)
    out = []
    for k in range(1, n + 1):
        for lengths in _factor_lengths(n, k):
            pools = [generate_dudu_avoiders(s - 1) for s in lengths]
            for combo in itertools.product(*pools):
                out.append(assemble_factors(combo))
    return tuple(sorted(out, key=path_sort_key))


def decompose_returns(path: str) -> tuple[str, ...]:
    """The inner parts Q1..Qk of a dudu-avoiding path split at its
    returns to the axis.

    >>> decompose_returns("udud")
    ('', '')
    """
    if not path:
        raise ValueError("cannot decompose the empty path")
    if not avoids_dudu(path):
        raise ValueError(f"{path!r} contains dudu")
    factors = []
    h = 0
    start = 0
    for i, c in enumerate(path):
        h += 1 if c == "u" else -1
        if h == 0:
            factors.append(path[start + 1 : i])
            start = i + 1
    return tuple(factors)
