import pytest

from modasc import checks, counting, patterns, words
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
    assert (SMALL.paths, SMALL.partitions) == (9, 9)
    assert (checks.Caps(words=10).paths, checks.Caps(words=10).partitions) == (12, 12)
    with pytest.raises(TypeError):
        checks.Caps(words=6, paths=8)


@pytest.mark.parametrize("top", [0, 6, 8])
def test_dyck_312_stops_at_the_word_cap(monkeypatch, top):
    asked = []
    avoiders = patterns.avoiders

    def spy(n, pats, cls):
        asked.append(n)
        return avoiders(n, pats, cls)

    monkeypatch.setattr(patterns, "avoiders", spy)
    caps = checks.Caps(top)
    assert checks.check_dyck_312(caps) is None
    assert max(asked, default=0) == caps.words


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


def test_second_form_of_f_is_the_product_route(monkeypatch):
    # series.prim122's product route is (1 + t) times the second form of F,
    # so a wrong second form fails it as well as series.F.
    second_form = counting.series_f_second_form

    def off_by_one(order):
        coeffs = list(second_form(order).coeffs)
        coeffs[7] += 1
        return IntSeries(coeffs)

    monkeypatch.setattr(counting, "series_f_second_form", off_by_one)
    witnesses = {r.tag: r.witness for r in checks.run_suite("identities", SMALL) if not r.passed}
    assert set(witnesses) == {"series.F", "series.prim122"}
    assert witnesses["series.prim122"].startswith("n=7: series ")


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
