import importlib.util
import itertools
import json
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st_

import modasc
from modasc import cli, patterns, words
from modasc.counting import binomial_transform_count
from modasc.series import IntSeries

# counts of modified ascent sequences and of the primitive ones, n = 0..9,
# frozen from the recursive generator and cross-checked against the
# endofunction oracle below
MODASC_COUNTS = [1, 1, 2, 5, 15, 53, 217, 1014, 5335, 31240]
PRIM_COUNTS = [1, 1, 1, 2, 5, 16, 61, 271, 1372, 7795]
# the Bell numbers, n = 0..10: the 2321-avoiders of each length
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def test_parse_word_forms():
    assert words.parse_word("1 3 1 2") == (1, 3, 1, 2)
    assert words.parse_word("1312") == (1, 3, 1, 2)
    assert words.parse_word("") == ()
    with pytest.raises(ValueError):
        words.parse_word("1 0 2")


def test_format_word_roundtrip():
    for text in ("", "1", "1 3 1 2", "1 2 2 1 3"):
        assert words.format_word(words.parse_word(text)) == text


def test_is_cayley():
    assert words.is_cayley(())
    assert words.is_cayley((1, 2, 1, 3))
    assert not words.is_cayley((2, 3))  # misses the value 1
    assert not words.is_cayley((1, 3))  # gap at 2


def test_statistics_by_hand():
    st = words.statistics((1, 3, 1, 2))
    assert st.asc == 2 and st.des == 1
    assert st.asctops == ((1, 1), (2, 3), (4, 2))
    assert st.lrmin == ((1, 1),)
    assert st.rlmax == ((2, 3), (4, 2))
    assert st.wrlmax == ((2, 3), (4, 2))
    assert st.rlmin == ((3, 1), (4, 2))
    assert st.wrlmin == ((1, 1), (3, 1), (4, 2))


def test_statistics_empty():
    st = words.statistics(())
    assert st.asc == 0 and st.des == 0 and st.asctops == ()


# Brute-force statistics written from their definitions, sharing no code
# with `words`: a letter is marked when it compares as asked with every
# letter on the named side of it (the first or last letter always is).
BRUTE_RECORDS = {
    "lrmin": (False, lambda v, others: v < min(others)),
    "lrmax": (False, lambda v, others: v > max(others)),
    "wlrmax": (False, lambda v, others: v >= max(others)),
    "rlmin": (True, lambda v, others: v < min(others)),
    "wrlmin": (True, lambda v, others: v <= min(others)),
    "rlmax": (True, lambda v, others: v > max(others)),
    "wrlmax": (True, lambda v, others: v >= max(others)),
}


def brute_statistics(x):
    n = len(x)
    out = {
        "asctops": tuple((i + 1, x[i]) for i in range(n) if i == 0 or x[i - 1] < x[i]),
        "nub": tuple((i + 1, x[i]) for i in range(n) if x[i] not in x[:i]),
        "asc": len([i for i in range(1, n) if x[i - 1] < x[i]]),
        "des": len([i for i in range(1, n) if x[i - 1] > x[i]]),
    }
    for name, (from_right, beats) in BRUTE_RECORDS.items():
        out[name] = tuple(
            (i + 1, x[i])
            for i in range(n)
            if not (others := x[i + 1:] if from_right else x[:i]) or beats(x[i], others)
        )
    return out


def brute_is_modasc(x):
    stats = brute_statistics(x)
    return sorted(set(x)) == list(range(1, len(set(x)) + 1)) and stats["asctops"] == stats["nub"]


# `nub`, the leftmost copy of each value, serves only `brute_is_modasc`.
STAT_FIELDS = ("asctops", "asc", "des", *BRUTE_RECORDS)


def assert_statistics_match(x):
    st = words.statistics(x)
    brute = brute_statistics(x)
    for name in STAT_FIELDS:
        assert getattr(st, name) == brute[name], (x, name)
    assert words.is_modasc(x) == brute_is_modasc(x), x


def test_statistics_match_brute_force_exhaustively():
    for k in range(6):
        for x in itertools.product(range(1, k + 1), repeat=k):
            assert_statistics_match(x)


@given(st_.lists(st_.integers(1, 6), max_size=12).map(tuple))
def test_statistics_match_brute_force(x):
    assert_statistics_match(x)


def test_is_modasc_counts_cayley_permutations():
    for n in range(7):
        assert sum(words.is_modasc(x) for x in words.iter_cayley(n)) == MODASC_COUNTS[n]


def test_is_modasc_examples():
    assert words.is_modasc((1,))
    assert words.is_modasc((1, 1, 2))
    assert words.is_modasc((1, 3, 1, 2))
    assert not words.is_modasc((1, 2, 1, 2))  # second 2 is an ascent top
    assert not words.is_modasc((2, 1))  # leftmost 1 is not an ascent top
    assert not words.is_modasc((1, 3))  # not a Cayley permutation


def test_generation_counts():
    for n, want in enumerate(MODASC_COUNTS):
        assert len(words.generate_modasc(n)) == want
        assert words.count_level(n, False) == want
    for n, want in enumerate(PRIM_COUNTS):
        assert len(words.generate_prim(n)) == want
        assert words.count_level(n, True) == want


def fishburn_series(order):
    """Zagier's form of the Fishburn series, the sum over k of the
    product of 1 - (1 - t)^i for i = 1..k; the k-th term starts at t^k."""
    one, t = IntSeries.one(order), IntSeries.t(order)
    total = term = power = one
    for _ in range(order):
        power = power * (one - t)
        term = term * (one - power)
        total = total + term
    return total


def test_count_level_matches_level_length():
    for n in range(11):
        for prim in (False, True):
            assert words.count_level(n, prim) == len(words._level(n, prim))


def test_count_level_fishburn_series():
    fishburn = fishburn_series(20)
    assert [words.count_level(n, False) for n in range(21)] == list(fishburn.coeffs)


def test_count_level_flat_collapse_transform():
    prim = {k: words.count_level(k, True) for k in range(21)}
    for n in range(1, 21):
        assert words.count_level(n, False) == binomial_transform_count(prim, n)


def test_count_level_rejects_negative_length():
    for prim in (False, True):
        with pytest.raises(ValueError):
            words.count_level(-1, prim)


def test_count_builds_no_level(capsys):
    for cls in ("modasc", "prim"):
        words._level.cache_clear()
        assert cli.main(["count", "--class", cls, "--n", "9"]) == 0
        assert words._level.cache_info().currsize == 0
    assert capsys.readouterr().out == f"{MODASC_COUNTS[9]}\n{PRIM_COUNTS[9]}\n"


def assert_cached_avoider_levels(lengths, pats, cls="modasc"):
    """The cache of `patterns._avoider_level` holds exactly these lengths of
    the avoiders of `pats`: as many entries, and each of them a hit."""
    before = patterns._avoider_level.cache_info()
    assert before.currsize == len(lengths)
    for n in lengths:
        patterns._avoider_level(n, frozenset(pats), cls)
    after = patterns._avoider_level.cache_info()
    assert (after.hits, after.misses) == (before.hits + len(lengths), before.misses)


def test_count_avoid_builds_no_level_n(capsys):
    for n, lengths in ((9, {0, 1, 3, 5, 7}), (10, {0, 2, 4, 6, 8})):
        patterns._avoider_level.cache_clear()
        patterns._COUNTS.clear()
        assert cli.main(["count", "--n", str(n), "--avoid", "2321"]) == 0
        assert capsys.readouterr().out == f"{BELL[n]}\n"
        # lengths n - 1 and n are counted from level n - 2, grown from n - 4
        assert_cached_avoider_levels(lengths, [(2, 3, 2, 1)])


def test_count_avoiders_upto_builds_no_level_n_minus_1():
    patterns._avoider_level.cache_clear()
    patterns._COUNTS.clear()
    assert patterns.count_avoiders_upto(9, [(2, 3, 2, 1)]) == BELL[:10]
    assert_cached_avoider_levels({0, 1, 3, 5, 7}, [(2, 3, 2, 1)])


def test_repeated_count_searches_nothing(monkeypatch):
    # n = 8 and n = 9 grow from levels of both parities
    patterns._COUNTS.clear()
    firsts = {
        (n, cls): patterns.count_avoiders_upto(n, [(2, 1, 3, 2)], cls)
        for n in (8, 9)
        for cls in ("modasc", "prim")
    }

    def searched(*args):
        raise AssertionError("a repeated count searched again")

    monkeypatch.setattr(patterns, "_occurrences", searched)
    for (n, cls), first in firsts.items():
        assert patterns.count_avoiders_upto(n, [(2, 1, 3, 2)], cls) == first
        assert patterns.count_avoiders(n, [(2, 1, 3, 2)], cls) == first[n]


def test_generated_levels_are_the_sorted_levels():
    for n in range(9):
        for prim, generate in ((False, words.generate_modasc), (True, words.generate_prim)):
            level = sorted(words._level(n, prim))
            assert words.sorted_keys(n, prim) == [bytes(w) for w in level]
            assert generate(n) == level


@pytest.mark.parametrize("prim", [False, True])
def test_sorted_children_matches_children(prim, tuple_children):
    rng = random.Random(22)
    reference = [()]
    for n in range(1, 9):
        level = words._level(n - 1, prim)
        assert level == tuple(reference), (n - 1, prim)
        reference = [c for w in reference for c in tuple_children(w, prim)]
        full = (1 << (n + 1)) - 1  # every letter 1..n forbidden
        odd = full // 3  # bits 0, 2, 4, ...
        # parents of one (max, last) label take turns between two
        # forbidden sets, so a table kept per label alone goes stale
        turns = []
        seen: Counter[tuple[int, int]] = Counter()
        for w in level:
            label = (max(w, default=0), w[-1] if w else 0)
            turns.append(odd if seen[label] % 2 else full - odd)
            seen[label] += 1
        assert n < 5 or max(seen.values()) > 1
        masks = [
            [0] * len(level),
            [full] * len(level),
            [rng.getrandbits(n + 1) for _ in level],
            turns,
        ]
        for bads in masks:
            parents = list(zip(level, bads))
            want = sorted(
                bytes(c) for w, bad in parents for c in tuple_children(w, prim, bad)
            )
            assert sorted(words._child_keys(parents, prim)) == want, (n, prim, bads[:3])
            keyed = [(bytes(w), bad) for w, bad in parents]
            assert sorted(words._child_keys(keyed, prim)) == want, (n, prim, bads[:3])
    assert words._level(8, prim) == tuple(reference)


def test_sorted_levels_reject_negative_length():
    for sort in (words.generate_modasc, words.generate_prim):
        with pytest.raises(ValueError):
            sort(-1)
    for prim in (False, True):
        with pytest.raises(ValueError):
            words.sorted_keys(-1, prim)


def test_sorted_keys_reject_letters_beyond_a_byte():
    words._level.cache_clear()
    patterns._avoider_level.cache_clear()
    for sort in (words.generate_modasc, words.generate_prim):
        with pytest.raises(ValueError):
            sort(words.KEY_CAP + 1)
    for prim in (False, True):
        with pytest.raises(ValueError):
            words.sorted_keys(words.KEY_CAP + 1, prim)
    for by_patterns in (
        patterns.sorted_avoider_keys,
        patterns.avoiders,
        patterns.count_avoiders,
        patterns.count_avoiders_upto,
    ):
        with pytest.raises(ValueError):
            by_patterns(words.KEY_CAP + 1, [(2, 3, 2, 1)])
    assert words._level.cache_info().currsize == 0
    assert patterns._avoider_level.cache_info().currsize == 0


def test_generate_avoid_caches_levels_below_n(capsys):
    patterns._avoider_level.cache_clear()
    assert cli.main(["generate", "--n", "9", "--avoid", "2321"]) == 0
    # level 9 is sorted from the children of level 7, and neither is cached
    assert_cached_avoider_levels({0, 1, 3, 5, 7}, [(2, 3, 2, 1)])
    assert len(capsys.readouterr().out.splitlines()) == BELL[9]


@pytest.mark.parametrize("cls", ["modasc", "prim"])
def test_generate_caches_levels_below_n(capsys, monkeypatch, cls):
    level = words._level
    level.cache_clear()
    built = []

    def spy(n, prim):
        built.append(n)
        return level(n, prim)

    monkeypatch.setattr(words, "_level", spy)
    assert cli.main(["generate", "--class", cls, "--n", "9"]) == 0
    info = level.cache_info()
    # levels 0..7: levels 8 and 9 are expanded as byte strings from
    # level 7, and no word of length 8 is built as a tuple
    assert info.currsize == 8
    assert info.hits + info.misses > 0
    assert max(built) == 7
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == words.count_level(9, cls == "prim")


@pytest.mark.parametrize("workload", ["avoid", "enumerate"])
def test_traced_pass_reads_no_null(workload):
    # A traced pass that loses a cache, or fills one with something other
    # than tuples of words, reads null in its counters and still exits 0.
    # In both workloads the tracer is built before `checks` and `counting`
    # are first imported.
    child = pathlib.Path(__file__).parents[1] / "benchmark" / "child.py"
    done = subprocess.run(
        [sys.executable, str(child), workload, "0", "0", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["failed"] == 0, report["failures"]
    layers = report["layers"]
    assert layers
    bad = {k: v for k, v in layers.items() if not isinstance(v, (int, float))}
    assert not bad


def test_traced_caches_exist():
    # The benchmark reads the counters of these caches; one that is gone
    # reads null there, so its loss must fail here first.
    path = pathlib.Path(__file__).parents[1] / "benchmark" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, name in tracer.CACHES:
        cache = getattr(getattr(modasc, module), name)
        assert callable(cache.cache_info), (module, name)


def test_generate_modasc_order():
    assert words.generate_modasc(3) == [
        (1, 1, 1),
        (1, 1, 2),
        (1, 2, 1),
        (1, 2, 2),
        (1, 2, 3),
    ]
    assert words.generate_prim(0) == [()]
    assert words.generate_prim(3) == [(1, 2, 1), (1, 2, 3)]


def test_generation_matches_endofunction_oracle():
    # [n]^n in lexicographic order, filtered, is each level in sorted order
    for n, fubini in enumerate([1, 1, 3, 13, 75, 541]):  # OEIS A000670
        cayley = list(words.iter_cayley(n))
        assert len(cayley) == fubini
        assert [x for x in cayley if words.is_modasc(x)] == words.generate_modasc(n)
        assert [x for x in cayley if words.is_prim(x)] == words.generate_prim(n)


def test_iter_cayley_cap():
    with pytest.raises(ValueError):
        next(words.iter_cayley(words.ENDOFUNCTION_CAP + 1))


def test_collapse_flats_example():
    d = words.collapse_flats(words.parse_word("1113122224211"))
    assert d.primitive == (1, 3, 1, 2, 4, 2, 1)
    assert d.multiplicities == (3, 1, 1, 4, 1, 1, 2)
    assert words.insert_flats(d) == words.parse_word("1113122224211")


def test_collapse_flats_roundtrip_small():
    for n in range(1, 7):
        for x in words.generate_modasc(n):
            d = words.collapse_flats(x)
            assert words.is_prim(d.primitive)
            assert words.insert_flats(d) == x


def test_insert_flats_validation():
    from modasc.words import FlatDecomposition

    with pytest.raises(ValueError):
        words.insert_flats(FlatDecomposition((1, 2), (1,)))
    with pytest.raises(ValueError):
        words.insert_flats(FlatDecomposition((1, 2), (1, 0)))
    with pytest.raises(ValueError):
        words.insert_flats(FlatDecomposition((1, 1), (1, 1)))
