import math

import numpy as np
import pytest

import compsearch as cs
from compsearch import BooleanOracle, Distribution, DyadicReal, StateVector
from compsearch.dyadic import SQRT2
from compsearch import gates, state
from compsearch.circuit import build_grover, grover_optimal_iterations, run, simulate
from conftest import (
    EXACT_MATRICES,
    basis_state,
    constant_oracle,
    exact_apply,
    exact_phase_oracle,
    inv_sqrt2_pow,
    random_exact_state,
    tensor,
    to_float,
)

INV = DyadicReal(0, 1, 1)  # 1/sqrt(2)
HALF = DyadicReal(1, 0, 1)


class TestBooleanOracle:
    def test_marked_set_normalizes_to_table(self):
        f = BooleanOracle.from_marked(2, [1, 3])
        assert f.table == 0b1010
        assert [f(k) for k in range(4)] == [0, 1, 0, 1]
        assert f.marked() == (1, 3)
        assert f == BooleanOracle(2, 0xA)

    def test_constant(self):
        assert constant_oracle(2, 0).table == 0
        assert constant_oracle(2, 1).table == 0b1111

    def test_truth_values_and_signs(self):
        f = BooleanOracle(3, 0b10110100)
        signs = f.sign_array()
        assert signs.dtype == np.int64
        assert signs.tolist() == [1 - 2 * ((f.table >> k) & 1) for k in range(8)]

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            BooleanOracle(2, 1 << 16)
        with pytest.raises(ValueError):
            BooleanOracle.from_marked(2, [4])
        with pytest.raises(ValueError):
            BooleanOracle(2, 0)(4)
        with pytest.raises(ValueError, match=r"^oracle arity must be >= 1, got 0$"):
            BooleanOracle(0, 0)

    def test_non_integer_arguments_rejected(self):
        # Refused at once: an oracle with a float table would fail later,
        # in repr, sign_array and every call.
        for n, table in ((2, 1.5), (2.0, 1), (2, "0x6")):
            with pytest.raises(TypeError):
                BooleanOracle(n, table)
        f = BooleanOracle(np.int64(2), np.int64(6))
        assert type(f.n) is type(f.table) is int
        assert repr(f) == "BooleanOracle(n=2, table=0x6)"

    def test_random_oracle_seeded(self):
        a = cs.random_oracle(5, np.random.Generator(np.random.PCG64(9)))
        b = cs.random_oracle(5, np.random.Generator(np.random.PCG64(9)))
        assert a == b


class TestStateVector:
    def test_zero_state(self):
        s = StateVector(3)
        assert s.amplitude(0) == 1
        assert all(s.amplitude(x) == 0 for x in range(1, 8))
        assert s.norm_squared() == 1

    def test_basis_state_uses_msb_convention(self):
        # |10> means qubit 1 = 1, qubit 2 = 0, i.e. index 2.
        s = basis_state(2, 0b10)
        assert s.amplitude(2) == 1
        assert s.amplitude(0) == 0

    def test_from_amplitudes_exact_aligns_denominators(self):
        s = StateVector.from_amplitudes([INV, -INV, 0, 0])
        assert s.amplitude(0) == INV
        assert s.amplitude(1) == -INV
        assert s.norm_squared() == 1

    def test_from_amplitudes_exact_refuses_two_forms(self):
        # Each entry must be an integer times one power of 1/sqrt(2): not
        # (1 + sqrt2)/2, and not 1/2 beside 1/sqrt(2).
        want = "exact amplitudes must be integers times one power of 1/sqrt(2)"
        for amps in ([DyadicReal(1, 1, 1), DyadicReal(1, -1, 1)], [HALF, HALF, INV, 0]):
            with pytest.raises(ValueError) as info:
                StateVector.from_amplitudes(amps)
            assert str(info.value) == want

    def test_from_amplitudes_exact_takes_one_power(self):
        # c / sqrt(2)^e: 1/sqrt(2) is c = 1 at e = 1, 2 sqrt(2)/4 is the
        # same, and sqrt(2) is c = 2 at e = 1.
        for amps, plane, e in (
            ([INV, INV], [1, 1], 1),
            ([DyadicReal(0, 2, 2), DyadicReal(0, -2, 2)], [1, -1], 1),
            ([DyadicReal(0, 1, 0), 0], [2, 0], 1),
            ([HALF, 0, 0, -HALF], [1, 0, 0, -1], 2),
        ):
            s = StateVector.from_amplitudes(amps)
            assert s._plane.tolist() == plane and s._e == e
            assert s.amplitudes() == amps

    def test_from_amplitudes_float(self):
        s = StateVector.from_amplitudes([0.6, -0.8], cs.FLOAT)
        assert s.backend == cs.FLOAT
        assert s.amplitude(1) == -0.8
        assert s.norm_squared() == pytest.approx(1.0)
        # Complex input is taken when its imaginary part is zero.
        t = StateVector.from_amplitudes(np.array([0.6 + 0j, -0.8 + 0j]), cs.FLOAT)
        assert t == s

    @pytest.mark.parametrize("amps", [np.array([0.6, 0.8j]), [0.6, 0.8j], [INV, 0.8j]])
    def test_from_amplitudes_float_rejects_imaginary_parts(self, amps):
        with pytest.raises(ValueError, match="imaginary"):
            StateVector.from_amplitudes(amps, cs.FLOAT)

    def test_float_amplitudes_are_real(self):
        s = to_float(StateVector.from_amplitudes([INV, -INV]))
        assert type(s.amplitude(1)) is float
        assert all(type(a) is float for a in s.amplitudes())

    @pytest.mark.parametrize("backend", cs.BACKENDS)
    def test_to_float_array_is_float64(self, backend):
        s = StateVector.from_amplitudes([INV, 0, 0, -INV])
        if backend == cs.FLOAT:
            s = to_float(s)
        assert s.to_float_array().dtype == np.float64
        assert s.to_float_array().tolist() == [2**-0.5, 0.0, 0.0, -(2**-0.5)]

    def test_norm_uniform_two_qubits(self):
        half = DyadicReal(1, 0, 1)
        s = StateVector.from_amplitudes([half] * 4)
        assert s.norm_squared() == 1

    def test_norm_with_sqrt2_parts(self):
        s = StateVector.from_amplitudes([INV, INV])
        assert s.norm_squared() == 1
        t = StateVector.from_amplitudes([DyadicReal(0, 3, 3), DyadicReal(0, -1, 3)])
        # |3 sqrt2/8|^2 + |-sqrt2/8|^2 = 18/64 + 2/64
        assert t.norm_squared() == DyadicReal(5, 0, 4)

    def test_equality_is_value_equality(self):
        a = StateVector.from_amplitudes([INV, -INV])
        b = StateVector.from_amplitudes([DyadicReal(0, 2, 2), DyadicReal(0, -2, 2)])
        assert a == b
        assert a != StateVector.from_amplitudes([INV, INV])
        # H twice leaves |0> at a larger e than StateVector(1)'s 0.
        twice = cs.apply_gate1(cs.apply_gate1(StateVector(1), 1, cs.hadamard()), 1, cs.hadamard())
        assert twice._e > 0
        assert twice == StateVector(1) and StateVector(1) == twice
        assert twice != StateVector.from_amplitudes([0, 1])

    def test_zero_states_are_equal_at_any_e(self):
        # A gate at e = 1 whose second row is zero clears |0> - |1>; a
        # zero plane below e = 2 keeps its e, while from_amplitudes puts
        # zeros at e = 0.
        gate = cs.Gate("sum", ((INV, INV), (0, 0)))
        zeroed = cs.apply_gate1(StateVector.from_amplitudes([1, -1]), 1, gate)
        zeros = StateVector.from_amplitudes([0, 0])
        assert (zeroed._e, zeros._e) == (1, 0) and not zeroed._plane.any()
        assert zeroed == zeros and zeros == zeroed
        assert zeroed != StateVector.from_amplitudes([0, 1])

    def test_equality_leaves_both_operands_canonical(self):
        # H H on one qubit, and on two, leave |00> at e = 2 and e = 4;
        # == reduces both to e = 0 and changes no amplitude.
        def hh(*qubits):
            s = StateVector(2)
            for q in qubits:
                for _ in range(2):
                    cs.apply_gate1(s, q, cs.hadamard())
            return s

        for a, b in ((hh(1), hh(1, 2)), (hh(1, 2), hh(2))):
            values = a.amplitudes(), b.amplitudes()
            assert (a._e, b._e) != (0, 0)
            assert a == b and b == a
            assert (a._e, b._e) == (0, 0)
            assert (a.amplitudes(), b.amplitudes()) == values
            for s in (a, b):
                assert s._bound >= int(np.abs(s._plane).max())

    def test_copy_is_independent(self):
        s = StateVector(2)
        t = s.copy()
        cs.apply_gate1(t, 1, cs.hadamard())
        assert s.amplitude(0) == 1
        assert t != s

    @pytest.mark.parametrize("backend", cs.BACKENDS)
    def test_copy_keeps_value_and_bound(self, backend):
        # H on qubit 1 of |000> leaves e odd; H on qubits 1 and 2 leaves
        # it even, and H H on qubit 3 leaves it above its minimum.
        odd = cs.apply_gate1(StateVector(3, backend), 1, cs.hadamard())
        even = cs.apply_gate1(odd.copy(), 2, cs.hadamard())
        wide = cs.apply_gate1(cs.apply_gate1(even.copy(), 3, cs.hadamard()), 3, cs.hadamard())
        if backend == cs.EXACT:
            assert (odd._e, even._e, wide._e) == (1, 2, 4)
        for s in (odd, even, wide):
            t = s.copy()
            assert t == s
            assert not np.shares_memory(s._plane, t._plane)
            assert t._bound >= int(np.abs(t._plane).max())
            # At minimal e: e < 2, or some integer is odd.
            assert t._e < 2 or int(np.bitwise_or.reduce(t._plane)) & 1
            cs.apply_gate1(t, 2, cs.hadamard())
            assert t != s

    def test_to_float_array(self):
        s = StateVector.from_amplitudes([INV, -INV])
        np.testing.assert_allclose(
            s.to_float_array(), [2**-0.5, -(2**-0.5)], rtol=0, atol=1e-15
        )
        f = to_float(s)
        assert f.backend == cs.FLOAT
        assert s.max_abs_diff(f) < 1e-15

    def test_tensor(self):
        zero = basis_state(1, 0)
        one = basis_state(1, 1)
        assert tensor(zero, one) == basis_state(2, 0b01)
        plus = StateVector.from_amplitudes([INV, INV])
        both = tensor(plus, one)
        assert both.amplitude(0b01) == INV
        assert both.amplitude(0b11) == INV
        assert both.amplitude(0b00) == 0

    def test_amplitudes_and_terms(self):
        s = StateVector.from_amplitudes([INV, 0, 0, -INV])
        assert s.amplitudes() == [INV, DyadicReal(0, 0), DyadicReal(0, 0), -INV]
        assert "|00>" in s.terms() and "|11>" in s.terms()

    def test_validation(self):
        with pytest.raises(ValueError):
            StateVector(0)
        with pytest.raises(ValueError):
            StateVector(2, "decimal")
        with pytest.raises(ValueError):
            StateVector.from_amplitudes([1, 0, 0])
        with pytest.raises(TypeError):
            StateVector.from_amplitudes([0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            StateVector.from_amplitudes([np.nan, 1.0], cs.FLOAT)
        with pytest.raises(ValueError, match="finite"):
            StateVector.from_amplitudes([np.inf, 0.0], cs.FLOAT)
        with pytest.raises(ValueError):
            StateVector(2).amplitude(4)
        with pytest.raises(ValueError, match=r"^unknown backend 'bogus'$"):
            StateVector.from_amplitudes([1, 0], "bogus")

    @pytest.mark.parametrize("backend", cs.BACKENDS)
    def test_size_and_kind_are_read_from_the_plane(self, backend):
        s = StateVector(3, backend)
        assert (s.num_qubits, s.num_states, s.backend) == (3, 8, backend)
        for name in ("num_qubits", "backend"):
            with pytest.raises(AttributeError):
                setattr(s, name, getattr(s, name))
        # A float plane reads float, whatever state it came from.
        t = StateVector._from_plane(s.to_float_array())
        assert (t.num_qubits, t.backend) == (3, cs.FLOAT)

    def test_int64_conversion_overflow_detected(self):
        with pytest.raises(OverflowError):
            StateVector.from_amplitudes([DyadicReal(1 << 70, 0, 0), 0])

    def test_gate_growth_guard(self):
        big = DyadicReal(1 << 61, 0, 0)
        for width, apply in (
            (1, lambda s: cs.apply_gate1(s, 1, cs.hadamard())),
            (2, lambda s: cs.apply_gate2(s, 1, 2, cs.comparison_gate())),
        ):
            s = StateVector.from_amplitudes([big] + [0] * ((1 << width) - 1))
            before = s.copy()
            with pytest.raises(OverflowError):
                apply(s)
            assert s == before
        # The same guard at odd e, where no factor of 2 can be divided out.
        big_odd = DyadicReal(0, 1 << 61, 1)
        for width, apply in (
            (1, lambda s: cs.apply_gate1(s, 1, cs.hadamard())),
            (2, lambda s: cs.apply_gate2(s, 1, 2, cs.comparison_gate())),
        ):
            s = StateVector.from_amplitudes([big_odd] + [0] * ((1 << width) - 1))
            assert (s._e, s._bound) == (1, 1 << 61)
            before = s.copy()
            with pytest.raises(OverflowError):
                apply(s)
            assert s == before

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(StateVector(1))


# Gates of each growth factor (the most nonzero entries of a row), with
# the qubits of a 3-qubit state that they act on here.
GROWING = {
    "H": (cs.hadamard(), (2,), 2),
    "C": (cs.comparison_gate(), (3, 1), 2),
    "HH": (cs.Gate("HH", EXACT_MATRICES["HH"]), (1, 3), 4),
}


def _bounded(dtype, bound: int, e: int, odd_entry: bool = False) -> StateVector:
    """A 3-qubit exact state of ``dtype`` at exponent e (not reduced, as a
    gate kernel leaves it) whose largest integer magnitude is ``bound``;
    one entry 1 if ``odd_entry``, so that no factor of 2 divides out."""
    plane = np.array([bound, -bound, 0, bound, -bound, bound, 0, -bound], dtype)
    plane[2] = odd_entry
    s = StateVector._from_plane(plane)
    s._e = e
    return s


class TestPlaneWidths:
    """An exact plane starts as int8 and widens to int16, int32 and int64
    only when a gate could leave it no headroom; its integers never
    wrap, and its width never shows in a value."""

    @pytest.mark.parametrize("name", sorted(GROWING))
    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
    def test_width_boundary_matches_exact_reference(self, dtype, name):
        gate, qubits, growth = GROWING[name]
        safe = 1 << (8 * np.dtype(dtype).itemsize - 2)
        wider = np.dtype(f"i{2 * np.dtype(dtype).itemsize}")
        info = np.iinfo(dtype)
        # (bound, e, odd entry, widens): just below the bound the gate
        # fits; at it, a reduction of e makes room only when every
        # integer is even and e >= 2; at the dtype's own limits an
        # unwidened gate would wrap.
        cases = [
            (safe // growth - 1, 1, False, False),
            (safe // growth - 1, 2, True, False),
            (safe // growth, 2, False, False),
            (safe // growth, 1, False, True),
            (safe // growth, 2, True, True),
            (safe // growth, 3, True, True),
            (info.max, 1, False, True),
        ]
        for bound, e, odd_entry, widens in cases:
            s = _bounded(dtype, bound, e, odd_entry)
            if bound == info.max:
                s._plane[1] = info.min
                s._bound = -info.min
            ref = exact_apply(s.amplitudes(), EXACT_MATRICES[name], qubits, 3)
            gates._apply(s, qubits, gate)
            case = (bound, e, odd_entry)
            assert s._plane.dtype == (wider if widens else dtype), case
            assert s.amplitudes() == ref, case
            assert s == StateVector.from_amplitudes(ref), case
            assert s._bound >= int(np.abs(s._plane).max()), case

    @pytest.mark.parametrize("name", sorted(GROWING))
    def test_int64_at_the_bound_raises_and_keeps_the_state(self, name):
        gate, qubits, growth = GROWING[name]
        s = _bounded(np.int64, (1 << 62) // growth, 1)
        before = s.copy()
        with pytest.raises(OverflowError):
            gates._apply(s, qubits, gate)
        assert s == before
        # Where e can be reduced, the same bound leaves room.
        s = _bounded(np.int64, (1 << 62) // growth, 2)
        ref = exact_apply(s.amplitudes(), EXACT_MATRICES[name], qubits, 3)
        gates._apply(s, qubits, gate)
        assert s._plane.dtype == np.int64 and s.amplitudes() == ref

    def test_int64_sign_flip_past_the_bound_raises_and_keeps_the_state(self):
        # -(-2^63) is 2^63, which int64 would wrap back to -2^63.
        s = StateVector.from_amplitudes([-(1 << 63), 0])
        before = s._plane.copy()
        with pytest.raises(OverflowError):
            cs.apply_phase_oracle(s, BooleanOracle(1, 1), 1)
        assert s._plane.dtype == np.int64 and np.array_equal(s._plane, before)

    def test_circuit_state_equals_closed_form_across_widths(self):
        # After H on every qubit, the oracle and the first comparison
        # gate, the kernel leaves {0, +-2} in int8 at e = 2n + 1; the
        # closed form holds {0, +-1} in int64 at e = 2n - 1.
        n, f = 3, BooleanOracle(3, 0x5A)
        s = StateVector(2 * n)
        for q in range(1, 2 * n + 1):
            cs.apply_gate1(s, q, cs.hadamard())
        cs.apply_phase_oracle(s, f, n + 1)
        cs.apply_gate2(s, n, 2 * n, cs.comparison_gate())
        closed = cs.psi2a(n, f)
        assert (s._plane.dtype, s._e) == (np.int8, 2 * n + 1)
        assert (closed._plane.dtype, closed._e) == (np.int64, 2 * n - 1)
        assert s == closed and closed == s
        # A shift of 8 bits or more: the multiple-of-2^shift mask is out
        # of int8's range, and only zero rows can be equal.
        s = StateVector(17)
        for q in range(2, 18):
            cs.apply_gate1(s, q, cs.hadamard())
        assert (s._plane.dtype, s._e) == (np.int8, 16)
        other = StateVector._from_plane(np.eye(1, 1 << 17, dtype=np.int64)[0])
        assert other._e == 0
        assert s != other and other != s
        # Where qubit 1 reads 1 both are zero, and equal at a shift of 8.
        lower = [t.copy() for t in (s, other)]
        for t in lower:
            t._plane[: 1 << 16] = 0
        assert (lower[0]._e, lower[1]._e) == (16, 0)
        assert lower[0] == lower[1] and lower[1] == lower[0]

    def test_squares_of_an_int8_plane_sum_past_int8(self):
        # 2^8 squares of 1 sum to 256, and a marginal sums 128 of them.
        s = StateVector(8)
        for q in range(1, 9):
            cs.apply_gate1(s, q, cs.hadamard())
        assert s._plane.dtype == np.int8
        assert s.norm_squared() == 1 and s.is_normalized()
        assert [cs.distribution(s, 1, 1)[x] for x in range(2)] == [HALF, HALF]
        full = cs.distribution(s)
        assert all(full[x] == DyadicReal(1, 0, 8) for x in range(256))

    def test_signs_on_an_int8_plane(self):
        # One oracle, then two at once on a trailing row qubit; the int64
        # sign table flips the int8 plane in place.
        f = BooleanOracle(2, 0b0110)
        s = StateVector(3)
        for q in range(1, 4):
            cs.apply_gate1(s, q, cs.hadamard())
        plane = s._plane
        ref = exact_phase_oracle(s.amplitudes(), f, 2, 3)
        gates._apply_signs(s, f.sign_array()[None], 2)
        assert s._plane is plane and plane.dtype == np.int8
        assert s.amplitudes() == ref
        signs = np.array([[1, -1, -1, 1], [-1, 1, 1, 1]], np.int64)
        s = StateVector(4)
        for q in range(1, 5):
            cs.apply_gate1(s, q, cs.hadamard())
        gates._apply_signs(s, signs, 2)
        assert s._plane.dtype == np.int8
        assert s._plane.tolist() == [signs[x & 1, (x >> 1) & 3] for x in range(16)]

    @pytest.mark.parametrize("n, dtype", [(2, np.int8), (4, np.int16), (6, np.int32)])
    def test_exact_grover_widens_as_needed(self, n, dtype):
        # The same circuit from an int64 start gives identical values.
        circuit = build_grover(n, BooleanOracle.from_marked(n, [1]), grover_optimal_iterations(n, 1))
        s = simulate(circuit)
        assert s._plane.dtype == dtype
        start = StateVector._from_plane(np.eye(1, 1 << n, dtype=np.int64)[0])
        wide = run(circuit, start)
        assert wide._plane.dtype == np.int64
        assert s == wide and s.amplitudes() == wide.amplitudes()

    def test_exact_grover_past_int64_raises(self):
        for n in (8, 10):
            circuit = build_grover(n, BooleanOracle.from_marked(n, [1]), grover_optimal_iterations(n, 1))
            with pytest.raises(OverflowError):
                simulate(circuit)


def literal_float(plane, e: int) -> bytes:
    """An integer plane at e as float64 bytes, entry by entry, by the
    formulas written out in full: fl(c) / 2^(e/2) for even e, and
    fl(sqrt2 * fl(c)) / 2^((e + 1)/2) for odd e."""
    if e % 2:
        floats = [math.ldexp(SQRT2 * float(int(c)), -((e + 1) // 2)) for c in np.ravel(plane)]
    else:
        floats = [math.ldexp(float(int(c)), -(e // 2)) for c in np.ravel(plane)]
    return np.array(floats, dtype=np.float64).tobytes()


def literal_value(c, e: int) -> DyadicReal:
    """The integer c times 1/sqrt(2)^e, by ring multiplication."""
    return DyadicReal.from_int(int(c)) * inv_sqrt2_pow(e)


def same(x, y) -> bool:
    """Same type and, for DyadicReals, the same canonical triple."""
    if isinstance(x, DyadicReal):
        return type(y) is DyadicReal and (x.a, x.b, x.h) == (y.a, y.b, y.h)
    return type(x) is type(y) and x == y


class TestOneReader:
    """Entries of states and tables are read, and converted to float, by
    one routine each, from one plane and its exponent e in powers of
    1/sqrt(2); a table at h passes 2h.  These pin what they give, bit for
    bit, against the formulas written out by hand.  Integers past 2^53
    round when they become floats, so a change in the order of rounding
    would show."""

    # Per plane width, entries that reach its ends; the int64 and object
    # ones pass 2^53, and the object ones pass int64.
    ENTRIES = {
        np.int8: [-128, 127, -1, 0, 1, 90],
        np.int16: [-(2**15), 2**15 - 1, -3, 0, 1, 12345],
        np.int32: [-(2**31), 2**31 - 1, -5, 0, 1, 2**30 + 7],
        np.int64: [-(2**63), 2**63 - 1, 2**53 + 1, -(2**60) - 1, 0, 2**57 + 3],
        object: [2**200 + 3, -(2**90) - 1, 2**64 + 1, 0, 2**53 + 1, -(2**54) - 3],
    }

    @pytest.mark.parametrize("e", [0, 1, 2, 7, 120, 121])
    @pytest.mark.parametrize("dtype", list(ENTRIES), ids=lambda d: np.dtype(d).name)
    def test_planes_of_every_width(self, dtype, e):
        plane = np.array(self.ENTRIES[dtype], dtype=dtype)
        assert state._as_float(plane, e).tobytes() == literal_float(plane, e)
        for x, c in enumerate(plane):
            assert same(state._value(plane, e, x), literal_value(c, e))
        # Any shape: a plane of two rows converts entry for entry.
        rows = plane.reshape(2, -1)
        got = state._as_float(rows, e)
        assert got.shape == rows.shape and got.tobytes() == literal_float(rows, e)

    @pytest.mark.parametrize(
        "p, h",
        [([2**60 - 1, 1], 60), ([2**79 + 12345, 2**79 - 12345], 80), ([2**200 + 3, 2**200 - 3], 201)],
    )
    def test_python_int_table(self, p, h):
        d = Distribution(p, h)
        assert d.plane.dtype == object
        assert d.as_float_array().tobytes() == literal_float(p, 2 * h)
        for x in range(len(d)):
            assert same(d[x], DyadicReal(p[x], 0, h))
        total = state._value(d.plane.sum(axis=-1, keepdims=True), 2 * d.h, 0)
        assert same(total, DyadicReal(1, 0))

    def test_int64_row_table(self):
        # Entries below 2^58, so that a row of 8 sums within int64.
        rng = np.random.Generator(np.random.PCG64(8))
        plane = rng.integers(-(1 << 58), 1 << 58, size=(4, 8))
        h = 70
        table = Distribution._of(plane, h)
        assert table.as_float_array().tobytes() == literal_float(plane, 2 * h)
        totals = table.plane.sum(axis=-1)
        assert len(totals) == 4
        for r in range(4):
            row = table._row(r)
            for x in range(8):
                assert same(row[x], DyadicReal(int(plane[r, x]), 0, h))
            total = state._value(totals, 2 * table.h, r)
            assert same(total, DyadicReal(sum(int(v) for v in plane[r]), 0, h))

    def test_float_table(self):
        plane = np.array([0.1, 0.2, 0.3, 0.4])
        d = Distribution._of(plane)
        assert d.as_float_array() is plane
        assert [d[x] for x in range(4)] == plane.tolist()
        assert all(type(d[x]) is float for x in range(4))
        total = state._value(d.plane.sum(axis=-1, keepdims=True), 2 * d.h, 0)
        assert same(total, float(plane.sum()))

    @pytest.mark.parametrize("big", [False, True])
    def test_exact_state(self, big):
        if big:
            # Integers past 2^53, squares past int64, at odd and even e.
            c = np.array([2**60 - 1, -(2**58) - 1, 2**57 + 3, 2**55 + 1])
            states = [StateVector._from_plane(c.copy(), e) for e in (121, 122)]
            assert [s._e for s in states] == [121, 122]
        else:
            states = [random_exact_state(4, np.random.Generator(np.random.PCG64(9)), depth=20)]
        for s in states:
            c, e = s._plane, s._e
            assert s.to_float_array().tobytes() == literal_float(c, e)
            amps = [literal_value(c[x], e) for x in range(s.num_states)]
            assert all(same(s.amplitude(x), amp) for x, amp in enumerate(amps))
            assert same(s.norm_squared(), sum((amp * amp for amp in amps), DyadicReal(0, 0)))

    def test_float_state(self):
        s = to_float(random_exact_state(3, np.random.Generator(np.random.PCG64(10))))
        plane = s._plane
        assert all(same(s.amplitude(x), float(plane[x])) for x in range(s.num_states))
        assert same(s.norm_squared(), float(np.square(plane).sum()))
