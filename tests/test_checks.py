from collections import Counter

import pytest

from modasc import checks, counting, maps, paths, patterns, words
from modasc.series import IntSeries

SMALL = checks.Caps(words=6)


def test_all_suites_pass_at_small_depth():
    results = checks.run_suite("all", SMALL)
    assert len(results) == sum(
        len(fns) for name, fns in checks.SUITES.items() if name != "all"
    )
    failing = [(r.tag, r.witness) for r in results if not r.passed]
    assert failing == []
    assert len({r.tag for r in results}) == len(results)


def test_all_suites_build_no_level_above_n_minus_2(monkeypatch):
    # Every level a check walks is expanded from the cached level n - 2,
    # and the level it walks is not cached.
    built = []
    for module, name in ((words, "_level"), (patterns, "_avoider_level")):
        level = getattr(module, name)
        level.cache_clear()

        def spy(n, *args, level=level):
            built.append(n)
            return level(n, *args)

        monkeypatch.setattr(module, name, spy)
    patterns._COUNTS.clear()
    results = checks.run_suite("all", checks.Caps(6))
    assert [(r.tag, r.witness) for r in results if not r.passed] == []
    assert max(built) == 4


def test_named_suites_are_subsets():
    all_tags = {r.tag for r in checks.run_suite("all", SMALL)}
    for name in ("bijections", "transport", "equivalences", "identities"):
        tags = {r.tag for r in checks.run_suite(name, SMALL)}
        assert tags <= all_tags


def test_unknown_suite():
    with pytest.raises(ValueError):
        checks.run_suite("everything", SMALL)


def test_printed_sequences_check_returns_a_witness(broken_tables):
    witness = checks.check_printed_sequences(SMALL)
    assert witness == "221/modasc formula differs at n=8; quoted 1,1,2,5,14,44,155,607,2618"


def test_printed_sequences_check_asks_only_for_quoted_rows(monkeypatch):
    asked = []
    table_rows = checks.table_rows

    def spy(kinds, n_max, cap):
        asked.append(tuple(kinds))
        return table_rows(kinds, n_max, cap)

    monkeypatch.setattr(checks, "table_rows", spy)
    assert checks.check_printed_sequences(SMALL) is None
    assert asked == [("quoted",)]


def test_caps_derive_paths_and_partitions():
    assert SMALL.paths == 9
    assert checks.Caps(words=10).paths == 12
    with pytest.raises(TypeError):
        checks.Caps(words=6, paths=8)


# the check, the function it asks for each length, and the position of the
# length among that function's arguments
LENGTH_ASKED = {
    "dyck.312": (patterns, "avoiders", 0),
    "omega.size": (patterns, "generate_omega", 0),
    "series.G": (counting, "oracle_counts", 2),
    "equiv.single": (patterns, "count_avoiders_upto", 0),
    "equiv.joint": (patterns, "count_avoiders_upto", 0),
}


@pytest.mark.parametrize(
    "tag, top",
    [("dyck.312", 0), ("dyck.312", 6), ("dyck.312", 8), ("omega.size", 10), ("series.G", 11),
     ("equiv.single", 0), ("equiv.single", 9), ("equiv.joint", 9)],
)
def test_checks_reach_the_word_cap(monkeypatch, tag, top):
    where, name, at = LENGTH_ASKED[tag]
    # the closed form stands in for the oracle, which would grow Prim_11(122)
    answer = counting.formula_counts if tag == "series.G" else getattr(where, name)
    asked = []

    def spy(*args):
        asked.append(args[at])
        return answer(*args)

    monkeypatch.setattr(where, name, spy)
    check = next(fn for t, _, fn in checks.SUITES["all"] if t == tag)
    assert check(checks.Caps(top)) is None
    assert max(asked, default=0) == top


def test_agree_needs_two_routes_at_every_length():
    assert checks.agree(range(3), series=[1, 1, 2], oracle=[1, 1, 2, 5]) is None
    with pytest.raises(ValueError, match="n=2"):
        checks.agree(range(3), series=[1, 1, 2], oracle=[1, 1])


COUNT_CHECKS = {
    tag: fn
    for tag, _, fn in checks.SUITES["all"]
    if tag in {
        "omega.size", "series.prim122", "series.modasc122", "series.G", "transform.eq",
        "series.D", "series.modasc312", "series.motzkin", "insertion.221",
    }
}


# (where, name, the arguments after n, n, the checks that must fail): the
# route `where[name]` or `where.name` is made one too large at n alone.
ROUTES_OFF_BY_ONE = [
    (counting.FAMILIES, "sum_k_pow", (), 15, {"series.modasc122"}),
    (counting.FAMILIES, "prim122", (), 15, {"series.prim122", "transform.eq"}),
    (counting.FAMILIES, "modasc221", (), 5, {"insertion.221"}),
    (counting.FAMILIES, "modasc312", (), 15, {"series.modasc312", "transform.eq"}),
    (counting, "dudu_count", (), 20, {"series.D"}),
    (counting, "motzkin", (), 20, {"series.motzkin"}),
    (words, "count_level", (True,), 5, {"omega.size"}),
]


@pytest.mark.parametrize(
    "where, name, extra, n, failing", ROUTES_OFF_BY_ONE, ids=[r[1] for r in ROUTES_OFF_BY_ONE]
)
def test_count_checks_catch_one_route_off_by_one(monkeypatch, where, name, extra, n, failing):
    if isinstance(where, dict):
        route = where[name]
        put = monkeypatch.setitem
    else:
        route = getattr(where, name)
        put = monkeypatch.setattr
    put(where, name, lambda m, *rest: route(m, *rest) + (m == n and rest == extra))
    assert len(COUNT_CHECKS) == 9
    witnesses = {tag: fn(SMALL) for tag, fn in COUNT_CHECKS.items()}
    assert {tag for tag, w in witnesses.items() if w is not None} == failing
    for tag in failing:
        head, _, named = witnesses[tag].partition(": ")
        counts = {int(part.rsplit(" ", 1)[1]) for part in named.split(" for ")[0].split(", ")}
        assert head == f"n={n}", tag
        assert len(counts) == 2 and max(counts) - min(counts) == 1, witnesses[tag]


# (name, n, the checks that must fail, the transport check's witness): the
# whole suite runs with `counting.<name>` one too large at n alone.
TRANSPORT_COUNTS_OFF_BY_ONE = [
    ("catalan", 3, {"transport.321"},
     ("transport.321", "|Prim_n((3, 2, 1))| != Catalan shift at n=4")),
    # transform.eq reads motzkin too, through the primitive family of 213,
    # 231, 1213 and 1234, and compares it with their full-class formula.
    ("motzkin", 3, {"transport.213-231", "series.motzkin", "transform.eq"},
     ("transport.213-231", "|Prim_n((2, 1, 3))| != Motzkin at n=4")),
]


@pytest.mark.parametrize(
    "name, n, failing, witness", TRANSPORT_COUNTS_OFF_BY_ONE,
    ids=[r[0] for r in TRANSPORT_COUNTS_OFF_BY_ONE],
)
def test_transport_checks_read_their_own_counts(monkeypatch, name, n, failing, witness):
    counts = [getattr(counting, name)(m) for m in range(checks.SERIES_ORDER + 1)]
    monkeypatch.setattr(counting, name, lambda m: counts[m] + (m == n))
    witnesses = {r.tag: r.witness for r in checks.run_suite("all", SMALL) if not r.passed}
    assert set(witnesses) == failing
    tag, text = witness
    assert witnesses[tag] == text


# Each series function, and the witness prefix of each check that fails
# when its coefficient 4 is one too large.
WRONG_SERIES = {
    # series.prim122 multiplies both forms of F by (1 + t)
    "series_f": {"series.F": "n=4: first_form ", "series.prim122": "n=4: series "},
    "series_f_second_form": {"series.F": "n=4: first_form ", "series.prim122": "n=4: series "},
    "series_modasc122": {"series.modasc122": "n=4: series "},
    "series_g": {"series.G": "n=4: G "},
    # series_modasc312 substitutes into 1 + t D(t), one length on
    "series_d": {"series.D": "n=4: series ", "series.modasc312": "n=5: series "},
    "series_modasc312": {"series.modasc312": "n=4: series "},
    "series_motzkin": {"series.motzkin": "n=4: fixed_point "},
}


@pytest.mark.parametrize("name", WRONG_SERIES)
def test_a_wrong_series_fails_the_checks_that_read_it(monkeypatch, name):
    # Coefficient 4 lies below SMALL.words, so series.G, which compares
    # only lengths below it, reads the bumped coefficient too.
    right = getattr(counting, name)

    def off_by_one(order):
        coeffs = list(right(order).coeffs)
        coeffs[4] += 1
        return IntSeries(coeffs)

    monkeypatch.setattr(counting, name, off_by_one)
    witnesses = {r.tag: r.witness for r in checks.run_suite("identities", SMALL) if not r.passed}
    prefixes = WRONG_SERIES[name]
    assert set(witnesses) == set(prefixes)
    for tag, prefix in prefixes.items():
        assert witnesses[tag].startswith(prefix), witnesses[tag]


def test_insertion_221_grows_no_avoider_level(monkeypatch):
    # The oracle route of insertion.221 grows its levels through `_grown`;
    # the insertion route filters primitive words by `contains` instead.
    def refuse(*args):
        raise AssertionError("the insertion route grew an avoider level")

    monkeypatch.setattr(patterns, "_grown", refuse)
    patterns._avoider_level.cache_clear()
    patterns._COUNTS.clear()
    lengths = range(1, 8)
    assert [counting.modasc221_by_insertion(n) for n in lengths] == [
        counting.closed_counts("221", "modasc", n) for n in lengths
    ]


EQUIVALENCE_CHECKS = {tag: fn for tag, _, fn in checks.SUITES["equivalences"]}


@pytest.mark.parametrize(
    "table, row, witness",
    [
        ("EQUIVALENCES", ("12", "21", "modasc"), "12 vs 21 over modasc: n=2: 12 1, 12,21 1, 21 2"),
        # the union is the left side, so it is named and counted once
        ("JOINT_EQUIVALENCES", (("12", "21"), "21", "modasc"), "12,21 vs 21 over modasc: n=2: 12,21 1, 21 2"),
    ],
    ids=["single", "joint"],
)
def test_equivalence_checks_report_a_false_row(monkeypatch, table, row, witness):
    monkeypatch.setattr(checks, table, getattr(checks, table) + (row,))
    failing = {r.tag: r.witness for r in checks.run_suite("equivalences", checks.Caps(5)) if not r.passed}
    tag = "equiv.single" if table == "EQUIVALENCES" else "equiv.joint"
    assert failing == {tag: witness}


@pytest.mark.parametrize("tag", sorted(EQUIVALENCE_CHECKS))
def test_equivalence_checks_build_no_level_above_n_minus_2(monkeypatch, tag):
    # Counting lengths n - 1 and n needs only the levels up to n - 2.
    level = patterns._avoider_level
    built = []

    def spy(n, pats, cls):
        built.append(n)
        return level(n, pats, cls)

    monkeypatch.setattr(patterns, "_avoider_level", spy)
    for n in range(9):
        level.cache_clear()
        patterns._COUNTS.clear()
        built.clear()
        assert EQUIVALENCE_CHECKS[tag](checks.Caps(n)) is None
        assert max(built) <= max(n - 2, 1), n


BIJECTION_CHECKS = {
    tag: fn for tag, _, fn in checks.SUITES["bijections"] if tag != "flats.roundtrip"
}


def _broken_at(fn, at, value):
    """`fn`, except that the arguments `at` give `value`."""
    return lambda *args: value if args == at else fn(*args)


def test_bijects_witness_forms():
    square = lambda x: x * x  # noqa: E731
    assert checks.bijects(range(4), range, square, target=lambda n: [m * m for m in range(n)]) is None
    assert checks.bijects(range(3), lambda n: range(-n, n), square) == "-1, 1 -> 1"
    assert checks.bijects(range(3), range, square, lambda y: y // 2) == "1 -> 1 -> 0"
    assert checks.bijects(range(3), range, square, target=lambda n: range(n + 1)) == "n=0: 0 is missed"
    assert checks.bijects(range(4), range, square, target=range) == "n=3: 4 is outside the target"

    def odd_refused(x):
        if x % 2:
            raise ValueError(f"{x} is odd")
        return x

    assert checks.bijects(range(3), range, odd_refused) == "1: 1 is odd"
    assert checks.bijects(range(3), range, lambda x: x + 1, odd_refused) == "0: 1 is odd"


# (the check, the map, one object, an image of it that the inverse
# refuses): the refusal is the check's witness, not a ValueError
REFUSED_IMAGES = [
    ("dyck.312", "phi_312", (1, 2, 3, 1), "ududud", "'ududud' contains dudu"),
    ("part.122", "modasc122_to_partition", (1, 2, 1), ((1, 5), (2,)),
     "((1, 5), (2,)) is not a partition of an initial segment"),
    ("comp.112", "modasc112_to_composition", (1, 1, 1), (3, 0), "parts must be positive"),
]


@pytest.mark.parametrize(
    "tag, name, x, y, refusal", REFUSED_IMAGES, ids=[r[0] for r in REFUSED_IMAGES]
)
def test_bijection_checks_report_a_refused_image(monkeypatch, tag, name, x, y, refusal):
    monkeypatch.setattr(maps, name, _broken_at(getattr(maps, name), (x,), y))
    assert BIJECTION_CHECKS[tag](SMALL) == f"{x}: {refusal}"


# (id, where, name, the arguments it is broken at, what it gives there,
# the checks that must fail, the bijection check's witness)
BROKEN_ROUTES = [
    ("std.bijection", maps, "omega_to_prim", ((1, 3, 2),), (1, 2, 2),
     {"std.bijection", "omega.chains"}, "(1, 2, 1) -> (1, 3, 2) -> (1, 2, 2)"),
    ("burge.ascending", maps, "burge_fishburn", ((1, 2, 1), "ascending"), (1, 2, 3),
     {"burge.ascending"}, "(1, 2, 1), (1, 2, 3) -> (1, 2, 3)"),
    ("burge.descending-shared", maps, "burge_fishburn", ((1, 1, 1), "descending"), (2, 1, 3),
     {"burge.descending"}, "(1, 1, 1), (1, 1, 2) -> (2, 1, 3)"),
    ("burge.descending-law", maps, "burge_fishburn", ((1, 1, 2), "descending"), (1, 1, 3),
     {"burge.descending"}, "(1, 1, 2): the transpose is not a permutation"),
    ("comp.112", maps, "composition_to_modasc112", ((2, 1),), (1, 1, 2),
     {"comp.112"}, "(1, 2, 1) -> (2, 1) -> (1, 1, 2)"),
    # the inverse sorts the blocks back, so only the target sees the swap
    ("part.122", maps, "modasc122_to_partition", ((1, 2, 1),), ((2,), (1, 3)),
     {"part.122"}, "n=3: ((2,), (1, 3)) is outside the target"),
    ("dyck.312", paths, "generate_dudu_avoiders", (3,), ("uuuddd", "uududd", "uuddud"),
     {"dyck.312", "series.D"}, "n=4: uduudd is outside the target"),
    ("claesson.32-1", maps, "claesson_inverse", ((3, 1, 2),), ((2,), (1, 3)),
     {"claesson.32-1"}, "((1, 3), (2,)) -> (3, 1, 2) -> ((2,), (1, 3))"),
    # the descent law is checked on the pair before the inverse runs
    ("claesson.32-1-law", maps, "claesson", (((1, 2),),), (1, 2),
     {"claesson.32-1"}, "((1, 2),): descent law failed"),
]


@pytest.mark.parametrize(
    "where, name, at, value, failing, witness", [r[1:] for r in BROKEN_ROUTES],
    ids=[r[0] for r in BROKEN_ROUTES],
)
def test_bijection_checks_catch_one_map_wrong_at_one_object(
    monkeypatch, where, name, at, value, failing, witness
):
    for n in range(13):  # cached first, so no level is grown from the broken one
        paths.generate_dudu_avoiders(n)
    monkeypatch.setattr(where, name, _broken_at(getattr(where, name), at, value))
    witnesses = {r.tag: r.witness for r in checks.run_suite("all", SMALL) if not r.passed}
    assert set(witnesses) == failing
    (tag,) = failing & set(BIJECTION_CHECKS)
    assert witnesses[tag] == witness


MAPS = (
    "standardize", "omega_to_prim", "burge_fishburn", "modasc112_to_composition",
    "composition_to_modasc112", "modasc122_to_partition", "partition_to_modasc122",
    "phi_312", "phi_inverse", "claesson", "claesson_inverse",
)


@pytest.mark.parametrize("tag", sorted(BIJECTION_CHECKS))
def test_bijection_checks_call_each_map_once_per_object(monkeypatch, tag):
    assert len(BIJECTION_CHECKS) == 7
    # calls from the check, not those a map makes to itself or to another map
    calls = Counter()
    inside = []

    def counted(name, fn):
        def call(*args):
            if not inside:
                calls[name, args] += 1
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return call

    for name in MAPS:
        monkeypatch.setattr(maps, name, counted(name, getattr(maps, name)))
    assert BIJECTION_CHECKS[tag](SMALL) is None
    assert calls and max(calls.values()) == 1, calls.most_common(1)


def test_claesson_check_tests_each_image_for_32_1_once(monkeypatch):
    # the inverse's own test is the only one: no pre-check in the check
    calls = Counter()
    contains_special = patterns.contains_special

    def counted(p, name):
        calls[name] += 1
        return contains_special(p, name)

    monkeypatch.setattr(patterns, "contains_special", counted)
    monkeypatch.setattr(maps, "contains_special", counted)
    assert checks.check_claesson(SMALL) is None
    assert calls == {"32-1": sum(counting.bell(n) for n in range(1, SMALL.words + 1))}
