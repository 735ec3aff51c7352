"""Differential tests of the pattern engine against oracles that share no
code with it."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from modasc import checks, cli, counting, maps, patterns, words


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


def brute_ends_with(x, y):
    """Try every choice of len(y) positions of x that ends at its last."""
    last = len(x) - 1
    return any(
        standardize(tuple(x[i] for i in positions) + (x[last],)) == y
        for positions in itertools.combinations(range(last), len(y) - 1)
    )


def bits(mask):
    return {a for a in range(mask.bit_length()) if mask >> a & 1}


def test_forbidden_letters_match_brute_force(tuple_children):
    # A child without its last letter is order isomorphic to its parent, so
    # on a parent that avoids y these are the letters whose child contains y.
    for n in range(6):
        for y in CAYLEY_PATTERNS:
            plans = [patterns._plan(y)]
            for w, bad, _ in patterns._grown(words._level(n, False), plans, False):
                children = tuple_children(w, False)
                want = {c[-1] for c in children if brute_ends_with(c, y)}
                assert bits(bad) == want, (w, y)


def brute_endings(x):
    """The patterns of length <= 4 that `brute_ends_with(x, y)` accepts, by
    the same enumeration of positions, for all of them at once."""
    last = len(x) - 1
    return {
        standardize(tuple(x[i] for i in positions) + (x[last],))
        for j in range(4)
        for positions in itertools.combinations(range(last), j)
    }


def test_child_step_matches_searching_the_child(tuple_children):
    # The step of the grandparent count: the letters a child forbids come
    # from its parent's occurrences of y[:-1] and y[:-2], with no search of
    # the child itself.  The step reads the parent's label, not its class,
    # and every primitive child is a child of the same modasc word, so the
    # modasc levels cover both classes.  Every letter is asked for, also
    # those whose child contains y, which `_grown` leaves out.
    plans = {y: [patterns._plan(y)] for y in CAYLEY_PATTERNS}
    for n in range(7):
        for w in words._level(n, False):
            m, last = max(w, default=0), w[-1] if w else 0
            letters = patterns._letter_mask(m, last, False)
            steps = []
            for y, plan in plans.items():
                if not patterns.contains(w, y):
                    found = patterns._occurrences(w, plan[0])
                    below = patterns._child_masks(plan[0], *found, m, last, letters)
                    steps.append((y, plan, below))
            for c in tuple_children(w, False):
                kids = [(x[-1], brute_endings(x)) for x in tuple_children(c, False)]
                for y, plan, below in steps:
                    [(_, searched, _)] = patterns._grown([c], plan, False)
                    got = bits(below[c[-1]])
                    assert got == bits(searched), (w, c, y)
                    assert got == {a for a, ys in kids if y in ys}, (w, c, y)


def _pattern_sets():
    texts = {p for row in counting.TABLE1 for p in row.patterns}
    texts |= {text for text, _ in counting.TABLE2}
    sets = [(text,) for text in sorted(texts)]
    sets += [pair for pair, _, _ in checks.JOINT_EQUIVALENCES]
    return sets


def _word_masks(w, plans, prim):
    """`_grown`'s masks of w from w's own search, with no memo: the masks
    of every letter 1..m + 1, kept for the letters that make a child."""
    m, last = max(w, default=0), w[-1] if w else 0
    found = [patterns._occurrences(w, plan) for plan in plans]
    bad = 0
    for plan, (ends, _) in zip(plans, found):
        bad |= patterns._end_mask(ends, plan[-1][2] >= 0, last)
    every = (1 << m + 2) - 2
    below = [0] * (m + 2)
    for plan, (ends, stems) in zip(plans, found):
        masks = patterns._child_masks(plan, ends, stems, m, last, every)
        below = [b | mask for b, mask in zip(below, masks)]
    allowed = patterns._letter_mask(m, last, prim) & ~bad
    return bad, tuple(b if allowed >> a & 1 else 0 for a, b in enumerate(below))


@pytest.mark.parametrize(
    "texts", _pattern_sets() + [("2321", "1212")], ids=",".join
)
def test_grown_matches_each_words_own_masks(texts):
    # `_grown` works the masks out once per occurrence state and shares
    # them; each word's own search must give the same ones.
    ys = frozenset(patterns.parse_pattern(t) for t in texts)
    plans = [patterns._plan(y) for y in ys]
    for cls in ("modasc", "prim"):
        prim = cls == "prim"
        for n in range(8):
            level = patterns._avoider_level(n, ys, cls)
            grown = list(patterns._grown(level, plans, prim))
            assert [w for w, _, _ in grown] == list(level), (texts, cls, n)
            for w, bad, below in grown:
                assert (bad, below) == _word_masks(w, plans, prim), (texts, cls, w)


def test_count_works_out_each_state_once(monkeypatch):
    # Of the 4,140 grandparents at level 8, far fewer have distinct
    # occurrence states, and only those run `_child_masks`.
    y = (2, 3, 2, 1)
    plan = patterns._plan(y)
    calls = []
    child_masks = patterns._child_masks

    def counted(*args):
        calls.append(1)
        return child_masks(*args)

    monkeypatch.setattr(patterns, "_child_masks", counted)
    patterns._COUNTS.clear()
    patterns._avoider_level.cache_clear()
    assert patterns.count_avoiders(10, [y]) == 115975
    # The passes over levels 0, 2, 4 and 6 build levels 2 to 8; the one
    # over level 8 counts lengths 9 and 10.
    states = 0
    for n in range(0, 9, 2):
        level = patterns._avoider_level(n, frozenset([y]), "modasc")
        states += len({
            (max(w, default=0), w[-1] if w else 0,
             *map(frozenset, patterns._occurrences(w, plan)))
            for w in level
        })
    assert len(level) == 4140
    assert len(calls) == states < len(level) // 10


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


@pytest.mark.parametrize("texts", _pattern_sets(), ids=",".join)
def test_generate_avoid_prints_the_avoiders(capsys, texts):
    ys = [patterns.parse_pattern(t) for t in texts]
    avoid = ",".join(texts)
    for cls in ("modasc", "prim"):
        for n in range(8):
            argv = ["generate", "--class", cls, "--n", str(n), "--avoid", avoid]
            assert cli.main(argv) == 0
            level = patterns.avoiders(n, ys, cls)
            want = "".join(words.format_word(w) + "\n" for w in level)
            assert capsys.readouterr().out == want, (texts, cls, n)


@pytest.mark.parametrize("texts", _pattern_sets(), ids=",".join)
def test_count_avoiders_matches_level_length(texts):
    ys = [patterns.parse_pattern(t) for t in texts]
    for cls in ("modasc", "prim"):
        for n in range(10):
            # `_avoider_level` records its length in `_COUNTS`; clear it so
            # the count comes from its own pass.
            patterns._COUNTS.clear()
            got = patterns.count_avoiders(n, ys, cls)
            want = len(patterns._avoider_level(n, frozenset(ys), cls))
            assert got == want, (texts, cls, n)


@pytest.mark.parametrize("texts", _pattern_sets(), ids=",".join)
def test_count_avoiders_upto_matches_count_avoiders(texts):
    ys = [patterns.parse_pattern(t) for t in texts]
    for cls in ("modasc", "prim"):
        want = []
        for k in range(9):
            patterns._COUNTS.clear()  # count each length by its own pass
            want.append(patterns.count_avoiders(k, ys, cls))
        for top in range(9):
            patterns._COUNTS.clear()
            got = patterns.count_avoiders_upto(top, ys, cls)
            assert got == want[: top + 1], (texts, cls, top)


def test_count_avoiders_matches_level_length_every_short_pattern():
    for y in CAYLEY_PATTERNS:
        for cls in ("modasc", "prim"):
            for n in range(8):
                patterns._COUNTS.clear()  # count by a pass, not the level's length
                got = patterns.count_avoiders(n, [y], cls)
                want = len(patterns._avoider_level(n, frozenset([y]), cls))
                assert got == want, (y, cls, n)


@pytest.mark.parametrize(
    "texts", [("1",), ("12",), ("11",), ("12345", "2132")], ids=",".join
)
def test_count_avoiders_matches_filtered_level(texts):
    # Patterns of length 1 and 2 have an empty y[:-2]; the last set mixes lengths.
    ys = [patterns.parse_pattern(t) for t in texts]
    for cls in ("modasc", "prim"):
        want = [
            sum(
                not any(patterns.contains(x, y) for y in ys)
                for x in words._level(n, cls == "prim")
            )
            for n in range(9)
        ]
        assert patterns.count_avoiders_upto(8, ys, cls) == want, (texts, cls)
        for n in range(9):
            patterns._COUNTS.clear()  # count each length by its own pass
            assert patterns.count_avoiders(n, ys, cls) == want[n], (texts, cls, n)


@pytest.mark.parametrize("cls", ["modasc", "prim"])
def test_avoider_level_of_no_pattern_is_level(cls):
    for n in range(10):
        assert patterns._avoider_level(n, frozenset(), cls) == words._level(
            n, cls == "prim"
        ), (cls, n)


def _filtered_perms(n, name):
    """The permutations of 1..n (for omega, 1 followed by those of 2..n)
    without the named pattern, in lexicographic order."""
    if name == "omega":
        perms = (((1, *rest) for rest in itertools.permutations(range(2, n + 1)))
                 if n else [()])
    else:
        perms = itertools.permutations(range(1, n + 1))
    return [p for p in perms if not patterns.contains_special(p, name)]


@pytest.mark.parametrize("name", ["32-1", "omega"])
def test_tree_matches_filter(name):
    for n in range({"32-1": 9, "omega": 10}[name]):
        want = _filtered_perms(n, name)
        assert sorted(patterns.grow_perms(n, name)) == want, (name, n)
        if name == "omega":
            assert patterns.generate_omega(n) == tuple(want), n


def test_omega_321_avoiders_are_1_plus_321_avoiders():
    # An omega occurrence is a 321, so Ω_n ∩ Av(321) = 1 ⊕ Sym_{n-1}(321),
    # the image `transport.321` once built from all (n - 1)! permutations.
    for n in range(1, 9):
        direct = {
            (1,) + tuple(v + 1 for v in q)
            for q in itertools.permutations(range(1, n))
            if not patterns.contains(q, (3, 2, 1))
        }
        omega = {p for p in patterns.generate_omega(n) if not patterns.contains(p, (3, 2, 1))}
        assert omega == direct, n


#: st(Prim_n(y)) = Ω_n ∩ Av(z), as pattern y: z, seen for n <= 8.  The rows
#: of 3214, 3241, 3421 and 4321 are coincidences seen that far, not
#: theorems; 121 and 1213 follow from the EQUIVALENCES rows 21 ~ 121 and
#: 213 ~ 1213, and 11 leaves only the increasing word.
TRANSPORT_CENSUS = {
    "1": "1", "12": "12", "21": "21", "213": "213", "231": "231", "321": "321",
    "3214": "3214", "3241": "3241", "3421": "3421", "4321": "4321",
    "11": "21", "121": "21", "1213": "213",
}


def _transport_holds(y, z, n):
    y, z = patterns.parse_pattern(y), patterns.parse_pattern(z)
    image = {maps.standardize(x) for x in patterns.avoiders(n, (y,), "prim")}
    return image == {p for p in patterns.generate_omega(n) if not patterns.contains(p, z)}


def test_transport_census():
    for y, z in TRANSPORT_CENSUS.items():
        for n in range(9):
            assert _transport_holds(y, z, n), (y, z, n)
    first_failures = {
        y: next(n for n in range(9) if not _transport_holds(y, y, n))
        for y in ("123", "132", "312")
    }
    assert first_failures == {"123": 4, "132": 3, "312": 5}
