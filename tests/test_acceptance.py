"""Acceptance suite: nine criteria, each printed as one PASS/FAIL line.

Every expected number here is an exact integer; comparisons carry no
tolerance.  Lines are written to the real stdout so they stay visible
under pytest's capture.
"""

import sys

from modasc import checks, counting, maps, paths, patterns, words

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]

X14 = words.parse_word("1 5 6 8 1 2 1 3 7 3 2 1 4 3")
P14 = (1, 11, 12, 14, 2, 5, 3, 7, 13, 8, 6, 4, 10, 9)
X15 = words.parse_word("1 2 3 4 3 2 5 6 1 7 6 1 8 9 7")
PATH15 = "uuududduuudddd" + "uududd" + "uuuddudd"

#: Patterns whose full-class counts are the binomial transform of their
#: primitive counts (single-pattern Table 1 entries with no flat step).
TRANSFORMABLE = tuple(
    p
    for row in counting.TABLE1
    for p in row.patterns
    if row.prim is not None and counting.is_primitive_pattern(p)
)


def _report(num: int, label: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"{verdict} criterion {num}: {label}", file=sys.__stdout__)
    assert not failures, failures[:5]


def _default_table(kinds):
    """The rows of the default `modasc table` (n_max 9, cap 10) of the given
    kinds, and those of them that did not hold."""
    rows = list(checks.table_rows(kinds, 9, 10))
    return rows, [r for r in rows if r.verdict not in ("ok", "data")]


def test_criterion_1_family_table():
    rows, failures = _default_table(("families",))
    assert len(rows) == 2 * len(counting.TABLE1)
    _report(1, "table of closed-form families, lengths 1..9", failures)


def test_criterion_2_printed_sequences():
    rows, failures = _default_table(("golden", "quoted"))
    assert {(r.patterns, r.cls) for r in rows if r.verdict == "ok"} == {
        key for key, pinned in counting.TABLE2.items() if pinned
    } | set(counting.PRINTED_SEQUENCES)
    _report(2, "quoted and pinned sequences at their printed lengths", failures)


def test_criterion_3_standardization_transport():
    failures = []
    for n in range(1, 10):
        prims = words.generate_prim(n)
        omega = patterns.generate_omega(n)
        image = [maps.standardize(w) for w in prims]
        if sorted(image) != sorted(omega):
            failures.append(("image", n))
        if any(maps.omega_to_prim(maps.standardize(w)) != w for w in prims):
            failures.append(("left inverse", n))
        if any(maps.standardize(maps.omega_to_prim(p)) != p for p in omega):
            failures.append(("right inverse", n))
        for text in ("213", "231"):
            pat = patterns.parse_pattern(text)
            prim_count = patterns.count_avoiders(n, (pat,), "prim")
            omega_count = sum(1 for p in omega if not patterns.contains(p, pat))
            if prim_count != omega_count:
                failures.append((text, n, prim_count, omega_count))
        got321 = patterns.count_avoiders(n, ((3, 2, 1),), "prim")
        if got321 != counting.catalan(n - 1):
            failures.append(("321", n, got321))
    _report(3, "standardization is a bijection onto the omega class", failures)


def test_criterion_4_path_bijection():
    failures = []
    for n in range(10):
        sources = patterns.avoiders(n + 1, ((3, 1, 2),), "prim")
        image = {maps.phi_312(w) for w in sources}
        targets = set(paths.generate_dudu_avoiders(n))
        if len(image) != len(sources) or image != targets:
            failures.append(("bijection", n))
        if any(maps.phi_inverse(maps.phi_312(w)) != w for w in sources):
            failures.append(("inverse", n))
    if maps.phi_312(X15) != PATH15:
        failures.append(("worked example", maps.phi_312(X15)))
    if maps.phi_inverse(PATH15) != X15:
        failures.append(("worked example inverse",))
    _report(4, "flat-free 312-avoiders onto dudu-free paths", failures)


def test_criterion_5_bell_count_and_histogram():
    failures = []
    for n in range(1, 11):
        hist = counting.ascent_distribution("2321", "modasc", n)
        if sum(hist.values()) != BELL[n]:
            failures.append(("total", n, sum(hist.values())))
        for h, got in hist.items():
            if got != counting.stirling2(n, n - h):
                failures.append(("histogram", n, h, got))
    _report(5, "2321-avoider counts are Bell, ascents are Stirling", failures)


def test_criterion_6_series_identities():
    failures = []
    order = 20
    f = counting.series_f(order)
    if f != counting.series_f_second_form(order):
        failures.append(("two forms of F",))
    one_plus_t = counting.IntSeries((1, 1), order)
    if (one_plus_t * f).coeffs != tuple(counting.formula_counts("122", "prim", order)):
        failures.append(("prim 122 series",))
    modasc122 = counting.series_modasc122(order)
    for n in range(order + 1):
        want = 1 if n == 0 else sum(k ** (n - k) for k in range(1, n + 1))
        if modasc122[n] != want:
            failures.append(("modasc 122 series", n))
    assert "112" not in TRANSFORMABLE and "132" in TRANSFORMABLE
    for text in TRANSFORMABLE:
        prim = {k: counting.closed_counts(text, "prim", k) for k in range(order + 1)}
        series = counting.ogf_substitute(
            counting.IntSeries([prim[k] for k in range(order + 1)], order), order
        )
        for n in range(1, order + 1):
            by_sum = counting.binomial_transform_count(prim, n)
            by_formula = counting.closed_counts(text, "modasc", n)
            if series[n] != by_sum or by_sum != by_formula:
                failures.append(("transform", text, n))
    d = counting.series_d(12)
    for n in range(13):
        filtered = sum(1 for p in paths.generate_dyck(n) if paths.avoids_dudu(p))
        if not d[n] == counting.dudu_count(n) == filtered:
            failures.append(("dudu series", n, d[n], filtered))
    _report(6, "series identities agree to order 20", failures)


def test_criterion_7_equivalences():
    failures = []
    for a, b, cls in checks.EQUIVALENCES:
        pa = (patterns.parse_pattern(a),)
        pb = (patterns.parse_pattern(b),)
        for n in range(1, 10):
            if patterns.avoiders(n, pa, cls) != patterns.avoiders(n, pb, cls):
                failures.append((a, b, cls, n))
    for pair, solo, cls in checks.JOINT_EQUIVALENCES:
        pp = tuple(patterns.parse_pattern(t) for t in pair)
        ps = (patterns.parse_pattern(solo),)
        for n in range(1, 10):
            if patterns.avoiders(n, pp, cls) != patterns.avoiders(n, ps, cls):
                failures.append((pair, solo, cls, n))
    _report(7, "avoidance-set equivalences, lengths 1..9", failures)


def test_criterion_8_stirling_identity():
    failures = []
    for n in range(1, 13):
        for h in range(n):
            if not counting.stirling_identity_check(n, h):
                failures.append((n, h))
    for n in range(13):
        if sum(counting.p_coefficients(n)) != counting.bell(n):
            failures.append(("row sum", n))
    _report(8, "partition-block identity for all 0 <= h < n <= 12", failures)


def test_criterion_9_worked_examples():
    failures = []
    examples = (
        (
            maps.standardize(words.parse_word("312112341")),
            (7, 1, 5, 2, 3, 6, 8, 9, 4),
        ),
        (maps.standardize((1, 3, 1, 2)), (1, 4, 2, 3)),
        (maps.burge_fishburn((1, 3, 1, 2), tiebreak="ascending"), (1, 3, 4, 2)),
        (
            words.collapse_flats(words.parse_word("1113122224211")),
            words.FlatDecomposition((1, 3, 1, 2, 4, 2, 1), (3, 1, 1, 4, 1, 1, 2)),
        ),
        (
            maps.modasc122_to_partition(words.parse_word("134112561")),
            ((1, 6, 7), (2,), (3, 5, 8, 9), (4,)),
        ),
        (
            maps.claesson(((1, 3, 6), (2, 7), (4,), (5, 8, 9))),
            (3, 6, 1, 7, 2, 4, 8, 9, 5),
        ),
        (maps.standardize(X14), P14),
        (maps.omega_to_prim(P14), X14),
    )
    for i, (got, want) in enumerate(examples):
        if got != want:
            failures.append((i, got, want))
    _report(9, "worked micro-examples", failures)
