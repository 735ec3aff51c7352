import json

import pytest

from modasc import counting, patterns
from modasc.series import IntSeries

# frozen small prefixes; every value here was reproduced by at least two
# independent routes before being written down
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
MOTZKIN = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
FIBONACCI = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
DUDU = [1, 1, 2, 4, 10, 26, 72, 206, 606, 1820, 5558]
F_COEFFS = (1, 0, 1, 1, 3, 7, 21, 67, 237, 907)


def test_named_sequences():
    for n in range(11):
        assert counting.named_sequence("catalan", n) == CATALAN[n]
        assert counting.named_sequence("motzkin", n) == MOTZKIN[n]
        assert counting.named_sequence("bell", n) == BELL[n]
        assert counting.named_sequence("fibonacci", n) == FIBONACCI[n]
    assert counting.named_sequence("stirling2", 4, 2) == 7
    assert counting.named_sequence("fubini", 3) == 13
    with pytest.raises(ValueError):
        counting.named_sequence("lucas", 3)


def test_stirling_row():
    assert [counting.stirling2(5, k) for k in range(6)] == [0, 1, 15, 25, 10, 1]
    assert sum(counting.stirling2(6, k) for k in range(7)) == counting.bell(6)


def test_dudu_count():
    for n, want in enumerate(DUDU):
        assert counting.dudu_count(n) == want


def test_closed_counts_sampled_rows():
    # one representative length per family, against the oracle
    for text in ("11", "112", "122", "132", "213", "221", "312", "321", "2321"):
        pat = patterns.parse_pattern(text)
        for cls in ("modasc", "prim"):
            for n in range(8):
                assert counting.closed_counts(text, cls, n) == \
                    patterns.count_avoiders(n, (pat,), cls), (text, cls, n)


def test_closed_counts_unsupported():
    with pytest.raises(counting.NoClosedFormError):
        counting.closed_counts("211", "modasc", 4)
    with pytest.raises(counting.NoClosedFormError):
        counting.closed_counts("1123", "prim", 4)
    assert counting.has_closed_form("1123", "modasc")
    assert not counting.has_closed_form("1123", "prim")
    with pytest.raises(ValueError):
        counting.closed_counts("122", "words", 4)


def test_pattern_argument_forms():
    assert counting.closed_counts((1, 2, 2), "modasc", 5) == \
        counting.closed_counts("122", "modasc", 5) == \
        counting.closed_counts("1 2 2", "modasc", 5) == 23


def test_table2_pins():
    assert counting.TABLE2[("4321", "modasc")] == (1, 2, 5, 15, 53, 217, 1008, 5188)
    assert counting.TABLE2[("211", "modasc")] is None


def test_count_table_serializations():
    table = counting.formula_table("312", "modasc", 4)
    assert table.value(3) == 5
    assert table.offset == 1
    assert table.to_bfile() == "1 1\n2 2\n3 5\n4 14\n"
    assert table.to_csv() == "n,count\n1,1\n2,2\n3,5\n4,14\n"
    obj = table.to_json_obj()
    assert obj == {"label": "312-modasc", "offset": 1, "values": [1, 2, 5, 14]}
    json.dumps(obj)  # stays serializable
    with pytest.raises(KeyError):
        table.value(9)


def test_empty_table():
    table = counting.formula_table("312", "modasc", 0)
    assert table.values == ()
    assert table.offset is None
    assert table.to_bfile() == ""
    assert table.to_csv() == "n,count\n"


def test_binomial_transform():
    prim = {k: counting.closed_counts("132", "prim", k) for k in range(9)}
    for n in range(1, 9):
        assert counting.binomial_transform_count(prim, n) == \
            counting.closed_counts("132", "modasc", n)
    with pytest.raises(ValueError):
        counting.binomial_transform_count({1: 1}, 3)
    with pytest.raises(ValueError):
        counting.binomial_transform_count(prim, 0)


def test_transform_needs_primitive_pattern():
    # the transform recovers class counts only for flat-step-free patterns;
    # 112 is the smallest counterexample
    prim = {k: counting.closed_counts("112", "prim", k) for k in range(4)}
    assert counting.binomial_transform_count(prim, 3) == 5
    assert counting.closed_counts("112", "modasc", 3) == 4
    assert not counting.is_primitive_pattern("112")
    assert counting.is_primitive_pattern("2321")


def test_primitive_pattern_reads_multi_digit_values():
    # joined as text, 1 10 2 ... would read as 1 1 0 2 ...
    assert counting.is_primitive_pattern((1, 10, 2, 3, 4, 5, 6, 7, 8, 9))
    assert counting.is_primitive_pattern("1 10 2 3 4 5 6 7 8 9")
    assert not counting.is_primitive_pattern((1, 10, 10, 2, 3, 4, 5, 6, 7, 8, 9))
    assert "112" not in counting.TRANSFORMABLE
    assert "132" in counting.TRANSFORMABLE


def test_ogf_substitute_matches_transform():
    prim = [counting.closed_counts("321", "prim", k) for k in range(13)]
    series = counting.ogf_substitute(IntSeries(prim, 12), 12)
    lookup = dict(enumerate(prim))
    for n in range(1, 13):
        assert series[n] == counting.binomial_transform_count(lookup, n)
    with pytest.raises(ValueError):
        counting.ogf_substitute(IntSeries([2, 1], 5), 5)
    with pytest.raises(ValueError):
        counting.ogf_substitute(IntSeries([1, 1], 3), 9)


def test_special_series_prefixes():
    assert counting.special_series("F", 9).coeffs == F_COEFFS
    assert counting.special_series("D", 10).coeffs == tuple(DUDU)
    assert counting.special_series("Motzkin_eq", 10).coeffs == tuple(MOTZKIN)
    got = counting.special_series("Modasc312", 10).coeffs
    assert got == counting.PRINTED_SEQUENCES[("312", "modasc")][1]
    with pytest.raises(ValueError):
        counting.special_series("H", 5)


def test_series_g_shifts_prim122():
    g = counting.special_series("G", 12)
    for n in range(12):
        assert g[n] == counting.closed_counts("122", "prim", n + 1)


def test_p_coefficients():
    assert counting.p_coefficients(0) == (1,)
    assert counting.p_coefficients(3) == (1, 4)
    assert counting.p_coefficients(4) == (1, 11, 3)
    for n in range(9):
        assert sum(counting.p_coefficients(n)) == counting.bell(n)
    with pytest.raises(ValueError):
        counting.p_coefficients(counting.PARTITION_CAP + 1)


def test_stirling_identity():
    for n in range(1, 10):
        for h in range(n):
            assert counting.stirling_identity_check(n, h)
    # the smallest non-trivial instance, by hand: S(4,2) = 7 = 3*1 + 4
    assert counting.stirling2(4, 2) == 7
    with pytest.raises(ValueError):
        counting.stirling_identity_check(3, 3)


def test_ascent_distribution():
    assert counting.ascent_distribution("2321", "modasc", 4) == {0: 1, 1: 6, 2: 7, 3: 1}
    assert counting.ascent_distribution("2321", "modasc", 5) == {
        0: 1,
        1: 10,
        2: 25,
        3: 15,
        4: 1,
    }
    hist = counting.ascent_distribution("2321", "prim", 5)
    assert hist == {2: 3, 3: 11, 4: 1}
    assert sum(hist.values()) == counting.bell(4)


def test_active_sites():
    assert sorted(counting.active_sites_221((1, 2, 1))) == [1, 3]
    assert sorted(counting.active_sites_221((1,))) == [1]
    assert sorted(counting.active_sites_221((1, 2, 3))) == [1, 2, 3]
    with pytest.raises(ValueError):
        counting.active_sites_221((1, 1, 2))
    with pytest.raises(ValueError):
        counting.active_sites_221((1, 2, 2, 1))


def test_modasc221_by_insertion():
    for n in range(1, 9):
        assert counting.modasc221_by_insertion(n) == \
            counting.closed_counts("221", "modasc", n)
