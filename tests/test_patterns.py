import pytest

from modasc import patterns, words


def test_parse_pattern():
    assert patterns.parse_pattern("2321") == (2, 3, 2, 1)
    assert patterns.parse_pattern("1 2 2") == (1, 2, 2)
    with pytest.raises(ValueError):
        patterns.parse_pattern("")
    with pytest.raises(ValueError):
        patterns.parse_pattern("13")  # not Cayley


def test_contains_worked_examples():
    x = words.parse_word("1113122224211")
    assert patterns.contains(x, (2, 3, 2, 1))
    assert patterns.contains(x, (3, 1, 2))  # 3,1,2 sits at positions 4,5,6
    assert not patterns.contains(words.parse_word("123432561761897"), (3, 1, 2))
    assert patterns.contains((1, 3, 1, 2), (1, 2))
    assert not patterns.contains((1,), (1, 1))
    assert patterns.contains(x, x)


def test_contains_trivial():
    assert patterns.contains((1, 2, 1), (1,))
    assert not patterns.contains((), (1,))


def test_avoiders_sorted_and_counted():
    assert patterns.avoiders(3, [(1, 2, 2)]) == [
        (1, 1, 1),
        (1, 1, 2),
        (1, 2, 1),
        (1, 2, 3),
    ]
    assert patterns.count_avoiders(0, [(1, 2, 2)]) == 1
    assert patterns.avoiders(2, [(1, 2)], "prim") == []


def test_avoiders_match_naive_filter():
    cases = [("122",), ("212",), ("2321",), ("312",), ("11",), ("122", "212")]
    for texts in cases:
        ys = tuple(patterns.parse_pattern(t) for t in texts)
        for cls, gen in (("modasc", words.iter_modasc), ("prim", words.iter_prim)):
            for n in range(6):
                naive = sorted(
                    x
                    for x in gen(n)
                    if not any(patterns.contains(x, y) for y in ys)
                )
                assert naive == patterns.avoiders(n, ys, cls), (texts, cls, n)


def test_avoiders_rejects_bad_input():
    with pytest.raises(ValueError):
        patterns.avoiders(3, [(1, 2)], "perm")
    with pytest.raises(ValueError):
        patterns.avoiders(3, [()])
    with pytest.raises(ValueError):
        patterns.avoiders(-1, [(1, 2)])


def test_count_avoiders_rejects_bad_input():
    with pytest.raises(ValueError):
        patterns.count_avoiders(-1, [(1, 2)])
    with pytest.raises(ValueError):
        patterns.count_avoiders(3, [(1, 2)], "perm")
    with pytest.raises(ValueError):
        patterns.count_avoiders(3, [(1, 3)])


def test_containment_hereditary():
    # once a pattern occurs it survives every one-letter extension, which
    # is what justifies pruning the generation tree at the first occurrence
    from modasc.words import _children

    y = (2, 3, 1)
    for n in range(1, 6):
        for x in words.iter_modasc(n):
            if patterns.contains(x, y):
                for c in _children(x):
                    assert patterns.contains(c, y)


def test_special_omega():
    # a descent whose bottom value reappears one lower later on
    assert patterns.contains_special((1, 4, 3, 5, 2), "omega")
    assert not patterns.contains_special((1, 3, 2, 4), "omega")
    assert not patterns.contains_special((1,), "omega")
    with pytest.raises(ValueError):
        patterns.contains_special((1, 1), "omega")
    with pytest.raises(ValueError):
        patterns.contains_special((1, 2), "nope")


def test_special_zeta():
    assert patterns.contains_special((2, 3, 1), "zeta")
    assert not patterns.contains_special((1, 2, 3), "zeta")


def test_special_32_1():
    assert patterns.contains_special((3, 2, 4, 1), "32-1")
    assert patterns.contains_special((3, 2, 1), "32-1")
    assert not patterns.contains_special((2, 1, 3), "32-1")
    assert not patterns.contains_special((1, 2, 3), "32-1")
    # the adjacency matters: 3 and 2 split apart kills the occurrence
    assert not patterns.contains_special((3, 1, 4, 2), "32-1")


def test_omega_class():
    assert patterns.in_omega(())
    assert patterns.in_omega((1,))
    assert patterns.in_omega((1, 2, 3))
    assert not patterns.in_omega((2, 1))
    # the omega class is equinumerous with the primitive words
    for n in range(8):
        assert len(patterns.generate_omega(n)) == len(words.generate_prim(n))


def test_avoidance_witness():
    assert patterns.avoidance_witness((1, 2, 2), (1, 2, 3, 2), n_max=5) == (
        3,
        (1, 2, 2),
    )
    assert patterns.avoidance_witness((2, 1, 3), (1, 2, 1, 3), n_max=6) is None
    assert patterns.equal_avoidance_sets((3, 1, 2), (1, 3, 1, 2), n_max=6)
    assert not patterns.equal_avoidance_sets((1, 2, 2), (2, 1, 1), n_max=6)
