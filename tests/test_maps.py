import pytest

from modasc import maps, patterns, words

X14 = words.parse_word("1 5 6 8 1 2 1 3 7 3 2 1 4 3")
P14 = (1, 11, 12, 14, 2, 5, 3, 7, 13, 8, 6, 4, 10, 9)


def test_standardize_worked_examples():
    assert maps.standardize(words.parse_word("312112341")) == (7, 1, 5, 2, 3, 6, 8, 9, 4)
    assert maps.standardize((1, 3, 1, 2)) == (1, 4, 2, 3)
    assert maps.standardize(()) == ()
    assert maps.standardize(X14) == P14


def test_omega_to_prim_worked_example():
    assert maps.omega_to_prim(P14) == X14
    assert maps.omega_to_prim((1,)) == (1,)
    assert maps.omega_to_prim(()) == ()


def test_chains_worked_example():
    long_chains = [c for c in maps.chains(P14) if c[1] >= 2]
    assert long_chains == [(1, 4), (5, 2), (7, 3)]


def test_standardize_omega_roundtrip():
    for n in range(8):
        seen = set()
        for x in words.generate_prim(n):
            p = maps.standardize(x)
            assert patterns.in_omega(p)
            assert maps.omega_to_prim(p) == x
            seen.add(p)
        assert seen == set(patterns.generate_omega(n))


def test_omega_to_prim_chain_agreement():
    for n in range(8):
        for p in patterns.generate_omega(n):
            assert maps.omega_to_prim(p) == maps.omega_to_prim_by_chains(p)


def test_burge_worked_examples():
    assert maps.burge_fishburn((1, 3, 1, 2), "ascending") == (1, 3, 4, 2)
    assert maps.burge_fishburn((1, 3, 1, 2), "descending") == (3, 1, 4, 2)
    with pytest.raises(ValueError):
        maps.burge_fishburn((1, 1, 2), "ascending")  # not primitive
    with pytest.raises(ValueError):
        maps.burge_fishburn((1, 2, 1), "sideways")


def test_burge_ascending_hits_omega():
    for n in range(7):
        image = {maps.burge_fishburn(x, "ascending") for x in words.generate_prim(n)}
        assert image == set(patterns.generate_omega(n))


def test_composition_encoding():
    assert maps.modasc112_to_composition((1, 2, 3, 3, 2, 2, 1)) == (2, 3, 2)
    assert maps.composition_to_modasc112((2, 3, 2)) == (1, 2, 3, 3, 2, 2, 1)
    for n in range(1, 8):
        avs = patterns.avoiders(n, [(1, 1, 2)])
        comps = [maps.modasc112_to_composition(x) for x in avs]
        assert all(sum(c) == n for c in comps)
        assert len(set(comps)) == len(avs) == 2 ** (n - 1)
        for x, c in zip(avs, comps):
            assert maps.composition_to_modasc112(c) == x


def test_partition_encoding_worked_example():
    beta = maps.modasc122_to_partition(words.parse_word("134112561"))
    assert beta == ((1, 6, 7), (2,), (3, 5, 8, 9), (4,))
    assert maps.partition_to_modasc122(beta) == words.parse_word("134112561")


def test_partition_encoding_roundtrip():
    for n in range(1, 8):
        for x in patterns.avoiders(n, [(1, 2, 2)]):
            beta = maps.modasc122_to_partition(x)
            k = len(beta)
            assert [b[0] for b in beta] == list(range(1, k + 1))
            assert maps.partition_to_modasc122(beta) == x


def test_claesson_worked_example():
    beta = ((1, 3, 6), (2, 7), (4,), (5, 8, 9))
    p = maps.claesson(beta)
    assert p == (3, 6, 1, 7, 2, 4, 8, 9, 5)
    assert maps.claesson_inverse(p) == beta


def test_claesson_singletons():
    assert maps.claesson(((1,), (2,))) == (1, 2)
    assert maps.claesson(((1, 2),)) == (2, 1)
    assert maps.claesson_inverse((2, 1)) == ((1, 2),)
    assert maps.claesson_inverse((1, 2)) == ((1,), (2,))
    assert maps.claesson(()) == ()
    with pytest.raises(ValueError):
        maps.claesson_inverse((3, 2, 1))  # contains 32-1


def test_phi_worked_example():
    x = words.parse_word("123432561761897")
    path = maps.phi_312(x)
    assert path == "uuududduuudddd" + "uududd" + "uuuddudd"
    assert maps.phi_inverse(path) == x


def test_phi_small_cases():
    assert maps.phi_312((1,)) == ""
    assert maps.phi_312((1, 2)) == "ud"
    assert maps.phi_312((1, 2, 1)) == "udud"
    assert maps.phi_312((1, 2, 3)) == "uudd"
    assert maps.phi_inverse("") == (1,)
    with pytest.raises(ValueError):
        maps.phi_312((1, 1, 2))  # flat step
    with pytest.raises(ValueError):
        maps.phi_312((1, 2, 3, 1, 2))  # contains 312
    with pytest.raises(ValueError):
        maps.phi_312(())


def test_phi_bijection_small():
    from modasc.paths import generate_dudu_avoiders

    for n in range(1, 9):
        avs = patterns.avoiders(n, [(3, 1, 2)], "prim")
        image = {maps.phi_312(x) for x in avs}
        assert image == set(generate_dudu_avoiders(n - 1))
        for x in avs:
            assert maps.phi_inverse(maps.phi_312(x)) == x
