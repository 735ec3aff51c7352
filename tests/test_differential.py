"""Differential tests of the pattern engine against oracles that share no
code with it."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from modasc import checks, counting, patterns, words


def standardize(values):
    ranks = {v: r for r, v in enumerate(sorted(set(values)), start=1)}
    return tuple(ranks[v] for v in values)


def brute_contains(x, y):
    """Try every choice of len(y) positions of x."""
    return any(
        standardize(tuple(x[i] for i in positions)) == y
        for positions in itertools.combinations(range(len(x)), len(y))
    )


CAYLEY_PATTERNS = tuple(
    y
    for k in range(1, 5)
    for y in itertools.product(range(1, k + 1), repeat=k)
    if set(y) == set(range(1, max(y) + 1))
)


def test_cayley_pattern_list():
    # 1, 3, 13 and 75 Cayley permutations of lengths 1 to 4 (the Fubini numbers)
    assert len(CAYLEY_PATTERNS) == 1 + 3 + 13 + 75


@settings(max_examples=300)
@given(st_.lists(st_.integers(min_value=1, max_value=6), max_size=8))
def test_contains_matches_brute_force(x):
    x = tuple(x)
    for y in CAYLEY_PATTERNS:
        assert patterns.contains(x, y) == brute_contains(x, y), (x, y)


def _pattern_sets():
    texts = {p for row in counting.TABLE1 for p in row.patterns}
    texts |= {text for text, _ in counting.TABLE2}
    sets = [(text,) for text in sorted(texts)]
    sets += [pair for pair, _, _ in checks.JOINT_EQUIVALENCES]
    return sets


@pytest.mark.parametrize("texts", _pattern_sets(), ids=",".join)
def test_avoider_level_matches_filtered_level(texts):
    ys = [patterns.parse_pattern(t) for t in texts]
    for cls in ("modasc", "prim"):
        for n in range(9):
            level = patterns._avoider_level(n, frozenset(ys), cls)
            filtered = tuple(
                x
                for x in words._level(n, cls == "prim")
                if not any(patterns.contains(x, y) for y in ys)
            )
            assert level == filtered, (texts, cls, n)
