import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from compsearch.dyadic import SQRT2, DyadicReal

ZERO = DyadicReal(0, 0)
ONE = DyadicReal(1, 0)
INV_SQRT2 = DyadicReal(0, 1, 1)


def as_triple(x: DyadicReal) -> tuple[int, int, int]:
    return (x.a, x.b, x.h)

ints = st.integers(min_value=-(2**16), max_value=2**16)
exps = st.integers(min_value=0, max_value=32)
dyadics = st.builds(DyadicReal, ints, ints, exps)


class TestCanonicalForm:
    def test_reduces_common_twos(self):
        assert as_triple(DyadicReal(2, 0, 1)) == (1, 0, 0)
        assert as_triple(DyadicReal(0, 2, 2)) == (0, 1, 1)
        assert as_triple(DyadicReal(4, 8, 3)) == (1, 2, 1)

    def test_zero_collapses(self):
        assert as_triple(DyadicReal(0, 0, 7)) == (0, 0, 0)

    def test_odd_part_stops_reduction(self):
        assert as_triple(DyadicReal(2, 1, 3)) == (2, 1, 3)

    def test_negative_h_rejected(self):
        with pytest.raises(ValueError):
            DyadicReal(1, 0, -1)
        # Non-integer parts are refused too.
        for a, b, h in ((1, 0, 1.5), (0.5, 0, 0), (1, 0.5, 0)):
            with pytest.raises(TypeError):
                DyadicReal(a, b, h)

    def test_hash_follows_value(self):
        assert hash(DyadicReal(2, 2, 3)) == hash(DyadicReal(1, 1, 2))


class TestArithmetic:
    def test_additive_inverse(self):
        assert DyadicReal(1, 0, 0) + DyadicReal(-1, 0, 0) == ZERO

    def test_add_canonicalizes(self):
        # 1/sqrt(2) + 1/sqrt(2) = sqrt(2)
        assert INV_SQRT2 + INV_SQRT2 == DyadicReal(0, 1, 0)

    def test_add_mixed_denominators(self):
        # (1+sqrt2)/4 + (1-sqrt2)/2 = (3-sqrt2)/4
        got = DyadicReal(1, 1, 2) + DyadicReal(1, -1, 1)
        assert got == DyadicReal(3, -1, 2)
        assert got.to_float() == pytest.approx((3 - math.sqrt(2)) / 4, rel=1e-15)

    def test_mul_inv_sqrt2_squared(self):
        assert INV_SQRT2 * INV_SQRT2 == DyadicReal(1, 0, 1)

    def test_mul_identity(self):
        x = DyadicReal(3, -5, 4)
        assert ONE * x == x
        assert x * ONE == x

    def test_mul_conjugates(self):
        # (1+sqrt2)(1-sqrt2) = -1
        assert DyadicReal(1, 1, 0) * DyadicReal(1, -1, 0) == DyadicReal(-1, 0, 0)

    def test_int_mixing(self):
        assert 1 + INV_SQRT2 == DyadicReal(2, 1, 1)
        assert 2 * DyadicReal(1, 1, 1) == DyadicReal(1, 1, 0)
        assert sum([INV_SQRT2, INV_SQRT2]) == DyadicReal(0, 1, 0)

    def test_sub_and_neg(self):
        x = DyadicReal(5, -3, 2)
        assert x - x == ZERO
        assert -(-x) == x
        assert 0 - x == -x


class TestFloatConversion:
    @pytest.mark.parametrize(
        "triple,expected",
        [((1, 0, 1), 0.5), ((0, 1, 1), 0.7071067811865476), ((-1, 0, 2), -0.25)],
    )
    def test_values(self, triple, expected):
        assert DyadicReal(*triple).to_float() == expected

    def test_dunder_float(self):
        assert float(DyadicReal(1, 0, 2)) == 0.25

    def test_large_h_does_not_overflow(self):
        assert DyadicReal(1, 0, 300).to_float() == math.ldexp(1, -300)


class TestOrdering:
    def test_sign_mixed_coefficients(self):
        assert DyadicReal(1, -1, 0).sign() == -1  # 1 - sqrt2 < 0
        assert DyadicReal(3, -2, 0).sign() == 1  # 3 - 2 sqrt2 > 0
        assert DyadicReal(-1, 1, 0).sign() == 1
        assert DyadicReal(-3, 2, 0).sign() == -1
        assert ZERO.sign() == 0

    def test_abs(self):
        assert abs(DyadicReal(1, -1, 0)) == DyadicReal(-1, 1, 0)
        assert abs(ONE) == ONE


class TestFormatting:
    def test_str_matches_contract(self):
        assert str(DyadicReal(0, 1, 1)) == "(0+1√2)/2"
        assert str(DyadicReal(1, -1, 2)) == "(1-1√2)/2^2"
        assert str(DyadicReal(3, 0, 0)) == "(3+0√2)"

    def test_repr_roundtrip(self):
        x = DyadicReal(3, -1, 2)
        assert eval(repr(x)) == x


class TestRandomizedAgainstFloats:
    """Randomized float-consistency checks on |a|,|b| <= 2^16, h <= 32."""

    N_CASES = 10_000

    @staticmethod
    def _random(rng):
        return DyadicReal(
            int(rng.integers(-(2**16), 2**16 + 1)),
            int(rng.integers(-(2**16), 2**16 + 1)),
            int(rng.integers(0, 33)),
        )

    def test_add_and_mul_track_floats(self):
        # Tolerance is 1e-12 relative to the operand scale: when x + y
        # nearly cancels it is the float sum that loses the digits, so a
        # result-relative bound would be unsatisfiable by any exact path.
        rng = np.random.Generator(np.random.PCG64(20240917))
        for _ in range(self.N_CASES):
            x, y = self._random(rng), self._random(rng)
            fx, fy = x.to_float(), y.to_float()
            scale = max(1.0, abs(fx), abs(fy))
            assert abs((x + y).to_float() - (fx + fy)) <= 1e-12 * scale
            assert abs((x * y).to_float() - fx * fy) <= 1e-12 * max(scale, abs(fx * fy))

    def test_equality_iff_floats_close(self):
        # Unique canonical form: equal values have identical floats, and on
        # this bounded random domain (pinned seed) distinct values are never
        # within 1e-9 of each other.
        rng = np.random.Generator(np.random.PCG64(555))
        for _ in range(self.N_CASES):
            x, y = self._random(rng), self._random(rng)
            close = abs(x.to_float() - y.to_float()) <= 1e-9
            assert (x == y) == close
        for _ in range(100):
            x = self._random(rng)
            k = int(rng.integers(0, 4))
            same = DyadicReal(x.a << k, x.b << k, x.h + k)
            assert same == x and same.to_float() == x.to_float()


@given(dyadics, dyadics, dyadics)
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(dyadics)
def test_neg_abs_sign(x):
    assert x + (-x) == ZERO
    assert abs(x).sign() in (0, 1)
    assert (x.sign() == 0) == x.is_zero
    if not x.is_zero:
        assert abs(x) == (x if x.sign() > 0 else -x)


@given(dyadics)
def test_float_image_of_canonical_form(x):
    assert x.to_float() == pytest.approx(
        (x.a + x.b * SQRT2) * 2.0**-x.h, rel=1e-12, abs=1e-300
    )
