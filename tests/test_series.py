import pytest

from modasc.series import IntSeries


def test_construction_and_access():
    s = IntSeries([1, 2, 3], 5)
    assert s.coeffs == (1, 2, 3, 0, 0, 0)
    assert s[2] == 3 and s[5] == 0
    with pytest.raises(IndexError):
        s[6]
    with pytest.raises(TypeError):
        IntSeries([1.5], 2)


def test_basic_arithmetic():
    t = IntSeries.t(6)
    one = IntSeries.one(6)
    assert (one + t).coeffs == (1, 1, 0, 0, 0, 0, 0)
    assert (t * t).coeffs == (0, 0, 1, 0, 0, 0, 0)
    assert (t * 3).coeffs == (0, 3, 0, 0, 0, 0, 0)
    assert ((one + t) * (one - t)).coeffs == (1, 0, -1, 0, 0, 0, 0)
    assert (one - one) == IntSeries.zero(6)


def test_geometric_series():
    one = IntSeries.one(8)
    t = IntSeries.t(8)
    assert one.divide(one - t).coeffs == (1,) * 9
    assert one.divide(one - t * 2).coeffs == tuple(2 ** n for n in range(9))


def test_divide_exact():
    one = IntSeries.one(10)
    t = IntSeries.t(10)
    # 1/(1-t)^2 has coefficients n+1
    s = one.divide((one - t) * (one - t))
    assert s.coeffs == tuple(n + 1 for n in range(11))
    with pytest.raises(ValueError):
        one.divide(t)  # no constant term
    with pytest.raises(ValueError):
        one.divide(one * 2)  # unit constant required for integer output


def test_shift():
    t = IntSeries.t(4)
    s = IntSeries([1, 1, 1], 4).shift(2)
    assert s.coeffs == (0, 0, 1, 1, 1)
    assert (t.shift(4)).coeffs == (0, 0, 0, 0, 0)


def test_compose():
    one = IntSeries.one(8)
    t = IntSeries.t(8)
    inner = t.divide(one - t)  # t + t^2 + t^3 + ...
    # substituting into 1/(1-t) gives 1/(1-2t) shifted: coefficients 2^(n-1)
    outer = one.divide(one - t)
    s = outer.compose(inner)
    assert s.coeffs == (1,) + tuple(2 ** (n - 1) for n in range(1, 9))
    with pytest.raises(ValueError):
        outer.compose(one)  # inner constant term must vanish


def test_truncation_on_mixed_orders():
    a = IntSeries([1, 1, 1, 1], 3)
    b = IntSeries([1, 2], 5)
    assert (a + b).order == 3
    assert (a * b).order == 3


def test_equality_and_hash():
    assert IntSeries([1, 2], 4) == IntSeries([1, 2, 0], 4)
    assert IntSeries([1], 2) != IntSeries([1], 3)
    assert hash(IntSeries([1, 2], 4)) == hash(IntSeries([1, 2, 0], 4))
