"""Exact counting: named sequences, closed forms, and generating functions.

Every count is an arbitrary-precision integer.  Counts for a pattern and
class come from up to three independent routes that the test suite pits
against each other:

* the oracle (explicit generation and filtering), `oracle_counts`,
* a closed formula per pattern, `formula_counts`, and
* a truncated power series, one of the paper's generating functions
  `series_f` (with `series_f_second_form`), `series_modasc122`,
  `series_g`, `series_d`, `series_modasc312` and `series_motzkin`.

For a primitive pattern y the counts over the full class are the
binomial transform of the counts over primitive words, equivalently the
substitution t -> t/(1-t) on the ordinary generating function.  The
transform is false for non-primitive patterns (repeating a letter can
create an occurrence), which is why 112, 122 and 221 carry their own
formulas.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Mapping, NamedTuple

from . import patterns as _patterns
from .series import IntSeries
from .words import Word, check_length, generate_prim, has_flat_steps, is_prim, parse_word, statistics

#: Largest n for which set partitions are enumerated explicitly.
PARTITION_CAP = 12


class NoClosedFormError(ValueError):
    """No closed formula is on record for this pattern and class."""


# ---------------------------------------------------------------------------
# named sequences


@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def motzkin(n: int) -> int:
    check_length(n)
    if n <= 1:
        return 1
    return motzkin(n - 1) + sum(
        motzkin(k) * motzkin(n - 2 - k) for k in range(n - 1)
    )


@lru_cache(maxsize=None)
def fibonacci(n: int) -> int:
    check_length(n)
    if n < 2:
        return n
    a, b = 0, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return b


@lru_cache(maxsize=None)
def bell(n: int) -> int:
    check_length(n)
    if n == 0:
        return 1
    return sum(comb(n - 1, k) * bell(k) for k in range(n))


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind; 0 for k outside 0..n."""
    check_length(n)
    if n == k:
        return 1
    if k <= 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def dudu_count(n: int) -> int:
    """Number of dudu-avoiding Dyck paths of semilength n, by the
    coefficient-extraction sum (no paths are generated)."""
    check_length(n)
    if n == 0:
        return 1
    total = Fraction(0)
    for j in range(n // 2 + 1):
        inner = sum(
            comb(n - 2 * j, i) * comb(j + i, n - 2 * j - i + 1)
            for i in range(n - 2 * j + 1)
        )
        total += Fraction(comb(n - j, j) * inner, n - j)
    if total.denominator != 1:
        raise ArithmeticError(f"non-integer path count at n={n}")
    return int(total)


# ---------------------------------------------------------------------------
# closed formulas per pattern, n >= 1


def _sum_kpow(n: int) -> int:
    return sum(k ** (n - k) for k in range(1, n + 1))


def _prim122(n: int) -> int:
    return sum(
        factorial(k - 1) * stirling2(n - k + 1, k) for k in range(1, n + 1)
    )


def _modasc221(n: int) -> int:
    return sum(
        stirling2(k - 1, i - 1) * comb(n - 1 - k + i, i - 1)
        for k in range(1, n + 1)
        for i in range(1, k + 1)
    )


def _transform(prim: Callable[[int], int]) -> Callable[[int], int]:
    def modasc(n: int) -> int:
        return sum(comb(n - 1, k - 1) * prim(k) for k in range(1, n + 1))

    return modasc


FAMILIES: dict[str, Callable[[int], int]] = {
    "ones": lambda n: 1,
    "zero_from_2": lambda n: 1 if n == 1 else 0,
    "powers_of_two": lambda n: 2 ** (n - 1),
    "fibonacci": fibonacci,
    "odd_fibonacci": lambda n: fibonacci(2 * n - 1),
    "catalan": catalan,
    "catalan_shift": lambda n: catalan(n - 1),
    "motzkin_shift": lambda n: motzkin(n - 1),
    "bell": bell,
    "bell_shift": lambda n: bell(n - 1),
    "binomial_catalan": lambda n: sum(comb(n - 1, j) * catalan(j) for j in range(n)),
    "sum_k_pow": _sum_kpow,
    "prim122": _prim122,
    "dudu_shift": lambda n: dudu_count(n - 1),
    "modasc312": _transform(lambda k: dudu_count(k - 1)),
    "modasc1232": _transform(_prim122),
    "modasc221": _modasc221,
}


class Table1Row(NamedTuple):
    patterns: tuple[str, ...]
    modasc: str | None  # family key, None when only numeric data is known
    prim: str | None


TABLE1: tuple[Table1Row, ...] = (
    Table1Row(("11",), "ones", "ones"),
    Table1Row(("12",), "ones", "zero_from_2"),
    Table1Row(("21", "121"), "powers_of_two", "ones"),
    Table1Row(("112",), "powers_of_two", "fibonacci"),
    Table1Row(("122",), "sum_k_pow", "prim122"),
    Table1Row(("123",), "powers_of_two", "ones"),
    Table1Row(("132",), "odd_fibonacci", "fibonacci"),
    Table1Row(("212", "1212"), "bell", "bell_shift"),
    Table1Row(("213", "1213"), "catalan", "motzkin_shift"),
    Table1Row(("221",), "modasc221", "bell_shift"),
    Table1Row(("231",), "catalan", "motzkin_shift"),
    Table1Row(("312", "1312"), "modasc312", "dudu_shift"),
    Table1Row(("321",), "binomial_catalan", "catalan_shift"),
    Table1Row(("1123",), "catalan", None),
    Table1Row(("1232",), "modasc1232", "prim122"),
    Table1Row(("1234",), "catalan", "motzkin_shift"),
    Table1Row(("2132",), "bell", "bell_shift"),
    Table1Row(("2213",), "bell", None),
    Table1Row(("2231",), "bell", None),
    Table1Row(("2321",), "bell", "bell_shift"),
)

#: Numeric rows of the open-problem table, lengths 1 upward.
TABLE2: dict[tuple[str, str], tuple[int, ...] | None] = {
    ("111", "modasc"): (1, 2, 4, 10, 29, 97, 367, 1550),
    ("111", "prim"): (1, 1, 2, 5, 14, 46, 172, 718, 3317, 16796),
    ("211", "modasc"): None,
    ("211", "prim"): (1, 1, 2, 5, 14, 44, 153, 581, 2385),
    ("4321", "modasc"): (1, 2, 5, 15, 53, 217, 1008, 5188),
    ("4321", "prim"): (1, 1, 2, 5, 16, 61, 265, 1267),
    ("1324", "modasc"): None,
    ("1324", "prim"): None,
    ("1342", "modasc"): None,
    ("1342", "prim"): None,
}

#: Sequences quoted in full in the text, keyed by (pattern, class); the
#: second entry is the length-0 offset of the first value.
PRINTED_SEQUENCES: dict[tuple[str, str], tuple[int, tuple[int, ...]]] = {
    ("312", "modasc"): (
        0,
        (1, 1, 2, 5, 14, 43, 142, 495, 1796, 6715, 25692),
    ),
    ("221", "modasc"): (0, (1, 1, 2, 5, 14, 44, 155, 607, 2617)),
}


def _pattern_text(pattern) -> str:
    """Label of a pattern given as text or as a tuple of values: its digits
    run together when every value is below 10, else space-separated, so
    that `parse_word` reads the label back as the same pattern.

    >>> _pattern_text((2, 3, 2, 1)), _pattern_text("2 3 2 1")
    ('2321', '2321')
    >>> _pattern_text((1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
    '1 2 3 4 5 6 7 8 9 10'
    """
    if isinstance(pattern, str):
        values = pattern.split()
        if len(values) == 1:
            values = list(values[0])
    else:
        values = [str(v) for v in pattern]
    return ("" if all(len(v) == 1 for v in values) else " ").join(values)


def _family_for(pattern, cls: str) -> Callable[[int], int]:
    text = _pattern_text(pattern)
    for row in TABLE1:
        if text in row.patterns:
            key = row.modasc if cls == "modasc" else row.prim
            if key is None:
                raise NoClosedFormError(f"no formula for {text} over {cls}")
            return FAMILIES[key]
    if text == "12132":  # same avoiders as 212
        return _family_for("212", cls)
    raise NoClosedFormError(f"no formula for {text} over {cls}")


def closed_counts(pattern, cls: str, n: int) -> int:
    """Closed-form count of length-n avoiders of a single pattern.

    >>> closed_counts("2321", "modasc", 5)
    52
    """
    if cls not in ("modasc", "prim"):
        raise ValueError(f"unknown class {cls!r}")
    check_length(n)
    fam = _family_for(pattern, cls)
    if n == 0:
        return 1
    return fam(n)


def has_closed_form(pattern, cls: str) -> bool:
    try:
        _family_for(pattern, cls)
    except NoClosedFormError:
        return False
    return True


# ---------------------------------------------------------------------------
# count routes and the binomial transform


def oracle_counts(pattern, cls: str, top: int) -> list[int]:
    """Avoiders of one pattern counted by explicit generation, by length
    from 0 to `top`.

    >>> oracle_counts((2, 3, 2, 1), "prim", 5)
    [1, 1, 1, 2, 5, 15]
    """
    pat = _patterns.parse_pattern(_pattern_text(pattern))
    return _patterns.count_avoiders_upto(top, (pat,), cls)


def formula_counts(pattern, cls: str, top: int) -> list[int]:
    """`closed_counts` of one pattern, by length from 0 to `top`."""
    check_length(top)
    return [closed_counts(pattern, cls, n) for n in range(top + 1)]


def binomial_transform_count(prim_counts: Mapping[int, int], n: int) -> int:
    """Pass from primitive counts to full-class counts for a primitive
    pattern: sum over k of C(n-1, k-1) * prim_counts[k]."""
    if n < 1:
        raise ValueError("length must be at least 1")
    missing = [k for k in range(1, n + 1) if k not in prim_counts]
    if missing:
        raise ValueError(f"missing primitive counts for lengths {missing}")
    return sum(comb(n - 1, k - 1) * prim_counts[k] for k in range(1, n + 1))


def ogf_substitute(prim_series: IntSeries, order: int) -> IntSeries:
    """Substitute t/(1-t) into a primitive-count generating function."""
    if prim_series[0] != 1:
        raise ValueError("primitive series must start with 1 (the empty word)")
    if prim_series.order < order:
        raise ValueError(
            f"series order {prim_series.order} below requested {order}"
        )
    t = IntSeries.t(order)
    inner = t.divide(IntSeries.one(order) - t)
    return prim_series.truncate(order).compose(inner)


def is_primitive_pattern(pattern) -> bool:
    """True if the pattern, as text or as a tuple, has no flat step.

    >>> is_primitive_pattern((1, 10, 2, 3, 4, 5, 6, 7, 8, 9))
    True
    """
    word = parse_word(pattern) if isinstance(pattern, str) else tuple(pattern)
    return not has_flat_steps(word)


# ---------------------------------------------------------------------------
# the generating functions of the 122 and 312 solutions, each truncated at
# `order`; a negative order raises ValueError


def _prod_term(order: int, k: int) -> IntSeries:
    """Product over j <= k of j*t^2/(1-j*t), truncated."""
    one = IntSeries.one(order)
    t = IntSeries.t(order)
    term = one
    for j in range(1, k + 1):
        term = (term * j).shift(2).divide(one - t * j)
    return term


def series_f(order: int) -> IntSeries:
    """F as the sum over k of prod_{j<=k} j t^2 / (1 - j t).

    >>> series_f(6).coeffs
    (1, 0, 1, 1, 3, 7, 21)
    """
    total = IntSeries.zero(order)
    for k in range(order // 2 + 1):
        total = total + _prod_term(order, k)
    return total


def series_f_second_form(order: int) -> IntSeries:
    """F as the sum over i of t^i / ((1 + t)^(i+1) (1 - i t)).

    The second form of `series_f`; `checks.check_series_f` compares the
    two.
    """
    one = IntSeries.one(order)
    t = IntSeries.t(order)
    total = IntSeries.zero(order)
    power = one
    for i in range(order + 1):
        power = power * (one + t)
        total = total + one.divide(power * (one - t * i)).shift(i)
    return total


def series_modasc122(order: int) -> IntSeries:
    """122-avoiding modified ascent sequences by length: the sum over k
    of t^k / (1 - k t)."""
    one = IntSeries.one(order)
    t = IntSeries.t(order)
    total = IntSeries.zero(order)
    for k in range(order + 1):
        total = total + one.divide(one - t * k).shift(k)
    return total


def series_g(order: int) -> IntSeries:
    """G, the primitive 122 counts shifted down by one length: the sum
    over k of prod_{j<=k} j t^2 / (1 - j t) times 1 / (1 - (k + 1) t)."""
    one = IntSeries.one(order)
    t = IntSeries.t(order)
    total = IntSeries.zero(order)
    for k in range(order // 2 + 1):
        total = total + _prod_term(order, k).divide(one - t * (k + 1))
    return total


def _fixed_point(one: IntSeries, step: Callable[[IntSeries], IntSeries]) -> IntSeries:
    """Apply `step` from `one` until the truncated series stops changing;
    each step fixes at least one more coefficient."""
    s = one
    for _ in range(one.order + 2):
        nxt = step(s)
        if nxt == s:
            break
        s = nxt
    return s


def series_d(order: int) -> IntSeries:
    """D = 1 + tD + (tD)^2 / (1 - tD + t), the dudu-avoiding Dyck paths
    by semilength.

    >>> series_d(5).coeffs
    (1, 1, 2, 4, 10, 26)
    """
    one = IntSeries.one(order)
    t = IntSeries.t(order)

    def step(d: IntSeries) -> IntSeries:
        td = t * d
        return one + td + (td * td).divide(one - (td - t))

    return _fixed_point(one, step)


def series_modasc312(order: int) -> IntSeries:
    """312-avoiding modified ascent sequences by length: 1 + t D(t),
    which counts the primitive ones, under t -> t/(1-t)."""
    prim = IntSeries.one(order) + series_d(order).shift(1)
    return ogf_substitute(prim, order)


def series_motzkin(order: int) -> IntSeries:
    """M = 1 + tM + t^2 M^2, the Motzkin numbers."""
    one = IntSeries.one(order)
    t = IntSeries.t(order)
    return _fixed_point(one, lambda m: one + t * m + t * t * m * m)


# ---------------------------------------------------------------------------
# partitions by non-singleton blocks, and the Stirling identity


@lru_cache(maxsize=None)
def p_coefficients(n: int) -> tuple[int, ...]:
    """(p_{n,0}, ..., p_{n,floor(n/2)}): partitions of [n] counted by the
    number of non-singleton blocks, brute-forced over all partitions.

    Elements are placed one at a time, each into an existing block or a
    new one.  The last element is placed by a loop over the blocks of
    each partition of [n - 1]: joining a singleton adds a non-singleton
    block, joining a larger block or starting a new one does not.  Each
    partition of [n] is still counted on its own.
    """
    check_length(n)
    if n > PARTITION_CAP:
        raise ValueError(f"partition enumeration capped at n <= {PARTITION_CAP}")
    if n == 0:
        return (1,)
    counts = [0] * (n // 2 + 1)
    sizes: list[int] = []

    def place(i: int, nonsingle: int) -> None:
        if i == n - 1:
            for size in sizes:
                counts[nonsingle + (size == 1)] += 1
            counts[nonsingle] += 1
            return
        for b in range(len(sizes)):
            sizes[b] += 1
            place(i + 1, nonsingle + (sizes[b] == 2))
            sizes[b] -= 1
        sizes.append(1)
        place(i + 1, nonsingle)
        sizes.pop()

    place(0, 0)
    return tuple(counts)


def stirling_identity_check(n: int, h: int) -> bool:
    """Test S(n, n-h) == sum over i of C(n-1, n-i) * p_{i-1, i-1-h}."""
    if not 0 <= h < n:
        raise ValueError("need 0 <= h < n")
    lhs = stirling2(n, n - h)
    rhs = 0
    for i in range(h + 1, n + 1):
        row = p_coefficients(i - 1)
        j = i - 1 - h
        if 0 <= j < len(row):
            rhs += comb(n - 1, n - i) * row[j]
    return lhs == rhs


# ---------------------------------------------------------------------------
# statistics over avoider classes


def ascent_distribution(pattern, cls: str, n: int) -> dict[int, int]:
    """Histogram of the ascent count over length-n avoiders.

    >>> ascent_distribution("2321", "modasc", 4)
    {0: 1, 1: 6, 2: 7, 3: 1}
    """
    pat = _patterns.parse_pattern(_pattern_text(pattern))
    hist: dict[int, int] = {}
    for w in _patterns.avoiders(n, (pat,), cls):
        a = statistics(w).asc
        hist[a] = hist.get(a, 0) + 1
    return dict(sorted(hist.items()))


def active_sites_221(w: Word) -> frozenset[int]:
    """Positions of a 221-avoiding primitive word where a letter may be
    doubled without creating a 221: exactly the weak right-to-left minima.

    >>> sorted(active_sites_221((1, 2, 1)))
    [1, 3]
    """
    if not is_prim(w) or _patterns.contains(w, (2, 2, 1)):
        raise ValueError(f"{w} is not a 221-avoiding primitive sequence")
    return frozenset(i for i, _ in statistics(w).wrlmin)


def modasc221_by_insertion(n: int) -> int:
    """Count 221-avoiders of length n by choosing a primitive core and a
    multiset of flat-step insertions at its active sites.  The cores are
    the primitive words that `active_sites_221` accepts, tested for 221 by
    `patterns.contains`, not read from the oracle's levels."""
    if n < 1:
        raise ValueError("length must be at least 1")
    total = 0
    for k in range(1, n + 1):
        for w in generate_prim(k):
            try:
                sites = active_sites_221(w)
            except ValueError:  # w contains 221
                continue
            total += comb(n - 1 - k + len(sites), n - k)
    return total
