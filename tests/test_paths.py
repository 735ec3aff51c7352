import pytest

from modasc import paths
from modasc.counting import catalan

# dudu-avoiding path counts by semilength, frozen from three agreeing
# routes: substring filter, factor generation, coefficient sum
DUDU_COUNTS = [1, 1, 2, 4, 10, 26, 72, 206, 606, 1820]


def test_is_dyck():
    assert paths.is_dyck("")
    assert paths.is_dyck("uudd")
    assert not paths.is_dyck("du")
    assert not paths.is_dyck("uud")
    assert not paths.is_dyck("uxd")


def test_avoids_dudu():
    assert paths.avoids_dudu("uudd")
    assert paths.avoids_dudu("")
    assert not paths.avoids_dudu("ududud")
    assert paths.avoids_dudu("udud")  # four steps cannot fit d-u-d-u
    with pytest.raises(ValueError):
        paths.avoids_dudu("uudx")
    with pytest.raises(ValueError):
        paths.avoids_dudu("ud" * 3 + "u")


def test_generate_dyck_counts():
    for n in range(9):
        assert len(paths.generate_dyck(n)) == catalan(n)
    assert paths.generate_dyck(0) == ("",)
    assert set(paths.generate_dyck(2)) == {"uudd", "udud"}


def test_generate_dudu_avoiders_counts():
    for n, want in enumerate(DUDU_COUNTS):
        assert len(paths.generate_dudu_avoiders(n)) == want


def test_generate_dudu_avoiders_match_filter():
    for n in range(8):
        brute = {p for p in paths.generate_dyck(n) if "dudu" not in p}
        assert set(paths.generate_dudu_avoiders(n)) == brute


def test_generation_is_sorted_u_before_d():
    for n in range(2, 7):
        got = list(paths.generate_dudu_avoiders(n))
        assert got == sorted(got, key=paths.path_sort_key)
        assert got[0] == "u" * n + "d" * n


def test_decompose_returns():
    f = paths.decompose_returns("udud")
    assert f == ("", "")
    assert len(f) == 2
    assert paths.assemble_factors(f) == "udud"
    assert paths.decompose_returns("uuddud") == ("ud", "")
    long = "uuududduuudddd" + "uududd" + "uuuddudd"
    assert tuple(len(q) // 2 + 1 for q in paths.decompose_returns(long)) == (7, 3, 4)
    with pytest.raises(ValueError):
        paths.decompose_returns("")
    with pytest.raises(ValueError):
        paths.decompose_returns("ududud")  # contains dudu


def test_interior_factors_never_empty():
    for n in range(2, 8):
        for p in paths.generate_dudu_avoiders(n):
            fs = paths.decompose_returns(p)
            assert all(fs[i] for i in range(1, len(fs) - 1))
            assert paths.assemble_factors(fs) == p
