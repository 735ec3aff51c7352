"""Truncated power series with exact integer coefficients.

A series carries its coefficients up to a fixed order N.  Binary
operations truncate to the smaller order of the two operands.  Division
requires a unit constant term (+1 or -1) so every computation stays in
the integers; there is no floating point anywhere.
"""

from __future__ import annotations


class IntSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order: int | None = None):
        coeffs = list(coeffs)
        if order is not None:
            if order < 0:
                raise ValueError("order must be nonnegative")
            coeffs = coeffs[: order + 1] + [0] * (order + 1 - len(coeffs))
        elif not coeffs:
            raise ValueError("need at least the constant coefficient")
        if not all(isinstance(c, int) for c in coeffs):
            raise TypeError("coefficients must be integers")
        self.coeffs = tuple(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order: int) -> IntSeries:
        return cls([0], order)

    @classmethod
    def one(cls, order: int) -> IntSeries:
        return cls([1], order)

    @classmethod
    def t(cls, order: int) -> IntSeries:
        return cls([0, 1], order)

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntSeries({list(self.coeffs)})"

    def truncate(self, order: int) -> IntSeries:
        return IntSeries(self.coeffs, order)

    def _common(self, other) -> int:
        if not isinstance(other, IntSeries):
            raise TypeError("expected an IntSeries")
        return min(self.order, other.order)

    def __add__(self, other) -> IntSeries:
        n = self._common(other)
        return IntSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    def __sub__(self, other) -> IntSeries:
        n = self._common(other)
        return IntSeries([self.coeffs[i] - other.coeffs[i] for i in range(n + 1)])

    def __mul__(self, other) -> IntSeries:
        if isinstance(other, int):
            return IntSeries([c * other for c in self.coeffs])
        n = self._common(other)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a:
                for j in range(n + 1 - i):
                    out[i + j] += a * other.coeffs[j]
        return IntSeries(out)

    __rmul__ = __mul__

    def shift(self, m: int) -> IntSeries:
        """Multiply by t^m, keeping the order."""
        if m < 0:
            raise ValueError("shift must be nonnegative")
        return IntSeries([0] * m + list(self.coeffs), self.order)

    def divide(self, other: IntSeries) -> IntSeries:
        """Exact division by a series with constant term +1 or -1."""
        n = self._common(other)
        b0 = other.coeffs[0]
        if b0 not in (1, -1):
            raise ValueError("divisor must have unit constant term")
        out = [0] * (n + 1)
        for i in range(n + 1):
            acc = self.coeffs[i]
            for j in range(1, i + 1):
                acc -= other.coeffs[j] * out[i - j]
            out[i] = acc * b0
        return IntSeries(out)

    def compose(self, inner: IntSeries) -> IntSeries:
        """Substitute a series with zero constant term for the variable."""
        if inner.coeffs[0] != 0:
            raise ValueError("inner series must have zero constant term")
        n = self._common(inner)
        acc = IntSeries.zero(n)
        for c in reversed(self.coeffs[: n + 1]):
            acc = acc * inner.truncate(n) + IntSeries([c], n)
        return acc
