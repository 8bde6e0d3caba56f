"""Exact real scalars of the form (a + b*sqrt(2)) / 2^h.

The ring of such numbers is closed under addition, subtraction and
multiplication, and it contains every matrix entry of the gate set used
here (0, +-1, +-1/sqrt(2), powers of 1/2).  Tracking amplitudes in this
ring allows zero-tolerance equality checks; integers are Python ints, so
nothing ever overflows.
"""

from __future__ import annotations

import math
import operator

SQRT2 = math.sqrt(2)  # 1.4142135623730951


class DyadicReal:
    """Value (a + b*sqrt(2)) / 2^h with integer a, b and h >= 0; a
    non-integer part raises TypeError.

    Kept in canonical form: h == 0, or a and b not both even.  Since
    sqrt(2) is irrational the canonical triple is unique, so ``==`` on
    triples is exact value equality.  Instances are treated as immutable.
    """

    __slots__ = ("a", "b", "h")

    def __init__(self, a: int, b: int, h: int = 0) -> None:
        a, b, h = operator.index(a), operator.index(b), operator.index(h)
        if h < 0:
            raise ValueError(f"denominator exponent must be >= 0, got {h}")
        while h > 0 and a & 1 == 0 and b & 1 == 0:
            a >>= 1
            b >>= 1
            h -= 1
        if a == 0 and b == 0:
            h = 0
        self.a = a
        self.b = b
        self.h = h

    @classmethod
    def from_int(cls, x: int) -> DyadicReal:
        """x as a ring element; TypeError unless x is an integer."""
        return cls(x, 0)

    def __add__(self, other: int | DyadicReal) -> DyadicReal:
        if isinstance(other, int):
            other = DyadicReal.from_int(other)
        elif not isinstance(other, DyadicReal):
            return NotImplemented
        if self.h >= other.h:
            s = 1 << (self.h - other.h)
            return DyadicReal(self.a + other.a * s, self.b + other.b * s, self.h)
        s = 1 << (other.h - self.h)
        return DyadicReal(self.a * s + other.a, self.b * s + other.b, other.h)

    def __radd__(self, other: int | DyadicReal) -> DyadicReal:
        return self + other

    def __sub__(self, other: int | DyadicReal) -> DyadicReal:
        return self + (-other)

    def __rsub__(self, other: int | DyadicReal) -> DyadicReal:
        return (-self) + other

    def __neg__(self) -> DyadicReal:
        return DyadicReal(-self.a, -self.b, self.h)

    def __mul__(self, other: int | DyadicReal) -> DyadicReal:
        if isinstance(other, int):
            other = DyadicReal.from_int(other)
        elif not isinstance(other, DyadicReal):
            return NotImplemented
        # (a1 + b1 r)(a2 + b2 r) = (a1 a2 + 2 b1 b2) + (a1 b2 + a2 b1) r
        return DyadicReal(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.h + other.h,
        )

    def __rmul__(self, other: int | DyadicReal) -> DyadicReal:
        return self * other

    def __abs__(self) -> DyadicReal:
        return -self if self.sign() < 0 else self

    def sign(self) -> int:
        """Exact sign of the value: -1, 0 or +1."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return (self.b > 0) - (self.b < 0)
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # Mixed signs: compare a^2 against 2 b^2 (never equal: sqrt(2) is
        # irrational, so a + b*sqrt(2) = 0 only for a = b = 0).
        if self.a > 0:
            return 1 if self.a * self.a > 2 * self.b * self.b else -1
        return 1 if self.a * self.a < 2 * self.b * self.b else -1

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.a == other and self.b == 0 and self.h == 0
        if isinstance(other, DyadicReal):
            return self.a == other.a and self.b == other.b and self.h == other.h
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.h))

    def __bool__(self) -> bool:
        return not self.is_zero

    def to_float(self) -> float:
        return math.ldexp(self.a + self.b * SQRT2, -self.h)

    def __float__(self) -> float:
        return self.to_float()

    def __repr__(self) -> str:
        return f"DyadicReal({self.a}, {self.b}, {self.h})"

    def __str__(self) -> str:
        num = f"({self.a}{self.b:+}√2)"
        if self.h == 0:
            return num
        if self.h == 1:
            return f"{num}/2"
        return f"{num}/2^{self.h}"
