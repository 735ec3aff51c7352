"""Exact counting: named sequences, closed forms, and generating functions.

Every count is an arbitrary-precision integer.  Counts for a pattern and
class come from up to three independent routes that the test suite pits
against each other:

* the oracle (explicit generation and filtering),
* a closed formula per pattern, and
* a truncated power series.

For a primitive pattern y the counts over the full class are the
binomial transform of the counts over primitive words, equivalently the
substitution t -> t/(1-t) on the ordinary generating function.  The
transform is false for non-primitive patterns (repeating a letter can
create an occurrence), which is why 112, 122 and 221 carry their own
formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Mapping

from . import patterns as _patterns
from .series import IntSeries
from .words import Word, statistics, is_prim, has_flat_steps, parse_word

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
    if n <= 1:
        return 1
    return motzkin(n - 1) + sum(
        motzkin(k) * motzkin(n - 2 - k) for k in range(n - 1)
    )


@lru_cache(maxsize=None)
def fibonacci(n: int) -> int:
    if n < 2:
        return n
    a, b = 0, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return b


@lru_cache(maxsize=None)
def bell(n: int) -> int:
    if n == 0:
        return 1
    return sum(comb(n - 1, k) * bell(k) for k in range(n))


@lru_cache(maxsize=None)
def fubini(n: int) -> int:
    if n == 0:
        return 1
    return sum(comb(n, k) * fubini(n - k) for k in range(1, n + 1))


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if k <= 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def dudu_count(n: int) -> int:
    """Number of dudu-avoiding Dyck paths of semilength n, by the
    coefficient-extraction sum (no paths are generated)."""
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


def named_sequence(name: str, n: int, k: int | None = None) -> int:
    """Look up a classical sequence value by name."""
    if name == "stirling2":
        if k is None:
            raise ValueError("stirling2 needs the block count k")
        return stirling2(n, k)
    table: dict[str, Callable[[int], int]] = {
        "catalan": catalan,
        "motzkin": motzkin,
        "fibonacci": fibonacci,
        "bell": bell,
        "fubini": fubini,
    }
    if name not in table:
        raise ValueError(f"unknown sequence {name!r}")
    return table[name](n)


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


@dataclass(frozen=True)
class Table1Row:
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
    if isinstance(pattern, str):
        return "".join(pattern.split())
    return "".join(str(v) for v in pattern)


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
    if n < 0:
        raise ValueError("length must be nonnegative")
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
# count tables and the binomial transform


@dataclass(frozen=True)
class CountTable:
    """A labelled run of counts n -> a(n) with its provenance."""

    label: str
    values: tuple[tuple[int, int], ...]  # (n, count), increasing n
    provenance: str  # "oracle" | "formula" | "series"

    def value(self, n: int) -> int:
        for m, c in self.values:
            if m == n:
                return c
        raise KeyError(f"{self.label} has no entry for n={n}")

    @property
    def offset(self) -> int | None:
        return self.values[0][0] if self.values else None

    def to_bfile(self) -> str:
        return "".join(f"{n} {c}\n" for n, c in self.values)

    def to_json_obj(self) -> dict:
        return {
            "label": self.label,
            "offset": self.offset,
            "values": [c for _, c in self.values],
        }

    def to_csv(self) -> str:
        return "n,count\n" + "".join(f"{n},{c}\n" for n, c in self.values)


def oracle_table(pattern, cls: str, n_max: int) -> CountTable:
    """Counts by explicit generation, lengths 1..n_max."""
    pat = _patterns.parse_pattern(_pattern_text(pattern))
    vals = tuple(
        (n, _patterns.count_avoiders(n, (pat,), cls)) for n in range(1, n_max + 1)
    )
    return CountTable(f"{_pattern_text(pattern)}-{cls}", vals, "oracle")


def formula_table(pattern, cls: str, n_max: int) -> CountTable:
    vals = tuple((n, closed_counts(pattern, cls, n)) for n in range(1, n_max + 1))
    return CountTable(f"{_pattern_text(pattern)}-{cls}", vals, "formula")


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


#: Patterns whose full-class counts are the binomial transform of their
#: primitive counts (single-pattern Table 1 entries with no flat step).
TRANSFORMABLE = tuple(
    p
    for row in TABLE1
    for p in row.patterns
    if row.prim is not None and is_primitive_pattern(p)
)


# ---------------------------------------------------------------------------
# special series


def _prod_term(order: int, k: int) -> IntSeries:
    """Product over j <= k of j*t^2/(1-j*t), truncated."""
    one = IntSeries.one(order)
    t = IntSeries.t(order)
    term = one
    for j in range(1, k + 1):
        term = (term * j).shift(2).divide(one - t * j)
    return term


def _series_F(order: int) -> IntSeries:
    one = IntSeries.one(order)
    t = IntSeries.t(order)
    total_a = IntSeries.zero(order)
    for k in range(order // 2 + 1):
        total_a = total_a + _prod_term(order, k)
    total_b = IntSeries.zero(order)
    pow1pt = one
    for i in range(order + 1):
        pow1pt = pow1pt * (one + t) if i else (one + t)
        den = pow1pt * (one - t * i)
        total_b = total_b + one.divide(den).shift(i)
    if total_a != total_b:
        raise ArithmeticError("the two forms of F disagree")
    return total_a


def _series_modasc122(order: int) -> IntSeries:
    one = IntSeries.one(order)
    t = IntSeries.t(order)
    total = IntSeries.zero(order)
    for k in range(order + 1):
        total = total + one.divide(one - t * k).shift(k)
    return total


def _series_G(order: int) -> IntSeries:
    one = IntSeries.one(order)
    t = IntSeries.t(order)
    total = IntSeries.zero(order)
    for k in range(order // 2 + 1):
        total = total + _prod_term(order, k).divide(one - t * (k + 1))
    return total


def _series_D(order: int) -> IntSeries:
    one = IntSeries.one(order)
    t = IntSeries.t(order)
    d = one
    for _ in range(order + 2):
        nxt = one + t * d + (t * d * (t * d)).divide(one - (t * d - t))
        if nxt == d:
            break
        d = nxt
    return d


def _series_motzkin(order: int) -> IntSeries:
    one = IntSeries.one(order)
    t = IntSeries.t(order)
    m = one
    for _ in range(order + 2):
        nxt = one + t * m + t * t * m * m
        if nxt == m:
            break
        m = nxt
    return m


def prim312_series(order: int) -> IntSeries:
    """1 + t*D(t): counts of 312-avoiding primitive words by length."""
    return IntSeries.one(order) + _series_D(order).shift(1)


def special_series(name: str, order: int) -> IntSeries:
    """The generating functions appearing in the 122 and 312 solutions.

    >>> special_series("D", 5).coeffs
    (1, 1, 2, 4, 10, 26)
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if name == "F":
        return _series_F(order)
    if name == "PrimOGF122":
        one = IntSeries.one(order)
        return (one + IntSeries.t(order)) * _series_F(order)
    if name == "ModascOGF122":
        return _series_modasc122(order)
    if name == "G":
        return _series_G(order)
    if name == "D":
        return _series_D(order)
    if name == "Modasc312":
        return ogf_substitute(prim312_series(order), order)
    if name == "Motzkin_eq":
        return _series_motzkin(order)
    raise ValueError(f"unknown series {name!r}")


# ---------------------------------------------------------------------------
# partitions by non-singleton blocks, and the Stirling identity


@lru_cache(maxsize=None)
def p_coefficients(n: int) -> tuple[int, ...]:
    """(p_{n,0}, ..., p_{n,floor(n/2)}): partitions of [n] counted by the
    number of non-singleton blocks, brute-forced over all partitions."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > PARTITION_CAP:
        raise ValueError(f"partition enumeration capped at n <= {PARTITION_CAP}")
    counts = [0] * (n // 2 + 1)
    sizes: list[int] = []

    def place(i: int, nonsingle: int) -> None:
        if i == n:
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
    multiset of flat-step insertions at its active sites."""
    if n < 1:
        raise ValueError("length must be at least 1")
    total = 0
    for k in range(1, n + 1):
        for w in _patterns.avoiders(k, ((2, 2, 1),), "prim"):
            i = len(active_sites_221(w))
            total += comb(n - 1 - k + i, n - k)
    return total
