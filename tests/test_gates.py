import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import compsearch as cs
from compsearch import BooleanOracle, DyadicReal, StateVector, gates
from conftest import (
    EXACT_MATRICES,
    apply_ancilla_oracle,
    basis_state,
    constant_oracle,
    dense_one_qubit,
    dense_phase_oracle,
    dense_two_qubit,
    discard_minus_ancilla,
    exact_apply,
    exact_phase_oracle,
    identity_gate1,
    identity_gate2,
    is_unitary,
    minus_state,
    pauli_x,
    pauli_z,
    random_exact_state,
    random_float_state,
    swapped,
    tensor,
    to_float,
)

INV = DyadicReal(0, 1, 1)


def bell_plus() -> StateVector:
    return StateVector.from_amplitudes([INV, 0, 0, INV])


class TestGate:
    @pytest.mark.parametrize("rows", [
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),  # 3x3
        ((1, 0), (0, 1, 0)),  # ragged
        ((1, 0, 0, 0), (0, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)),  # ragged 4-row
        tuple(tuple(int(i == j) for j in range(8)) for i in range(8)),  # 8x8
    ])
    def test_rejects_bad_shapes(self, rows):
        with pytest.raises(ValueError):
            cs.Gate("bad", rows)

    def test_rejects_non_integer_entries(self):
        # Caught when the gate is built, not at its first application.
        with pytest.raises(TypeError):
            cs.Gate("bad", ((0.5, 0), (0, 1)))
        with pytest.raises(TypeError):
            cs.Gate("bad", ((DyadicReal(0.5, 0), 0), (0, 1)))

    def test_one_magnitude_of_entries(self):
        # A gate is (1/sqrt(2))^e times a matrix of 0 and +-1, for one
        # e >= 0: controlled-H and M mix magnitudes 1 and 1/sqrt(2), and
        # sqrt(2) I would need e = -1.
        refused = {
            "CH": EXACT_MATRICES["CH"],
            "M": ((1, -1), (INV, INV)),
            "sqrt2 I": ((DyadicReal(0, 1), 0), (0, DyadicReal(0, 1))),
        }
        for name, rows in refused.items():
            want = f"gate {name!r} needs every nonzero entry to be +-(1/sqrt(2))^e for one e >= 0"
            with pytest.raises(ValueError) as info:
                cs.Gate(name, rows)
            assert str(info.value) == want
        for name, rows, e in (("P0", ((1, 0), (0, 0)), 0), ("X", EXACT_MATRICES["X"], 0),
                              ("HH", EXACT_MATRICES["HH"], 2)):
            assert cs.Gate(name, rows)._e == e


class TestHadamard:
    def test_matrix_entries(self):
        H = cs.hadamard().matrix
        assert H[0][0] == H[0][1] == H[1][0] == INV
        assert H[1][1] == -INV

    def test_on_basis_states(self):
        s0 = cs.apply_gate1(basis_state(1, 0), 1, cs.hadamard())
        assert s0 == StateVector.from_amplitudes([INV, INV])
        s1 = cs.apply_gate1(basis_state(1, 1), 1, cs.hadamard())
        assert s1 == StateVector.from_amplitudes([INV, -INV])

    def test_involution_exact(self):
        rng = np.random.Generator(np.random.PCG64(1))
        for _ in range(20):
            s = random_exact_state(3, rng)
            t = s.copy()
            cs.apply_gate1(t, 2, cs.hadamard())
            cs.apply_gate1(t, 2, cs.hadamard())
            assert t == s

    def test_long_run_returns_exactly(self):
        # H^200 is the identity; the kernel must not raise OverflowError
        # on the way, however loosely it tracks integer growth.
        rng = np.random.Generator(np.random.PCG64(3))
        s = random_exact_state(3, rng)
        t = s.copy()
        for _ in range(200):
            cs.apply_gate1(t, 2, cs.hadamard())
        assert t == s
        assert t.amplitudes() == s.amplitudes()

    def test_unitary_exact(self):
        assert is_unitary(cs.hadamard())


class TestComparisonGate:
    def test_columns(self):
        C = cs.comparison_gate()

        def col(k):
            return cs.apply_gate2(basis_state(2, k), 1, 2, C)

        assert col(0b00) == StateVector.from_amplitudes([INV, 0, -INV, 0])
        assert col(0b01) == StateVector.from_amplitudes([0, INV, 0, INV])
        assert col(0b10) == StateVector.from_amplitudes([INV, 0, INV, 0])
        assert col(0b11) == StateVector.from_amplitudes([0, -INV, 0, INV])

    def test_per_qubit_action_closed_form(self):
        # C|j>|k> = (-1)^(jk) (|0> + (-1)^(1+j+k)|1>)/sqrt(2) (x) |k>,
        # checked exactly on all four basis inputs.
        C = cs.comparison_gate()
        for j in (0, 1):
            for k in (0, 1):
                got = cs.apply_gate2(basis_state(2, 2 * j + k), 1, 2, C)
                outer = 1 if (j * k) % 2 == 0 else -1
                inner = 1 if (1 + j + k) % 2 == 0 else -1
                amps = [DyadicReal(0, 0)] * 4
                amps[0b00 | k] = outer * INV
                amps[0b10 | k] = outer * inner * INV
                assert got == StateVector.from_amplitudes(amps)

    def test_unitary_exact(self):
        assert is_unitary(cs.comparison_gate())
        assert is_unitary(identity_gate2())
        assert is_unitary(pauli_x())
        assert is_unitary(pauli_z())


class TestApplyGate1:
    def test_h_on_first_qubit_of_00(self):
        s = cs.apply_gate1(StateVector(2), 1, cs.hadamard())
        assert s == StateVector.from_amplitudes([INV, 0, INV, 0])

    def test_identity_is_noop(self):
        rng = np.random.Generator(np.random.PCG64(2))
        s = random_exact_state(3, rng)
        assert cs.apply_gate1(s.copy(), 2, identity_gate1()) == s

    def test_h_on_every_qubit_gives_uniform(self):
        s = StateVector(2)
        cs.apply_gate1(s, 1, cs.hadamard())
        cs.apply_gate1(s, 2, cs.hadamard())
        half = DyadicReal(1, 0, 1)
        assert s == StateVector.from_amplitudes([half] * 4)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cs.apply_gate1(StateVector(2), 0, cs.hadamard())
        with pytest.raises(ValueError):
            cs.apply_gate1(StateVector(2), 3, cs.hadamard())

    def test_zero_row_writes_zeros(self):
        # A projector's all-zero row must clear its slot on both backends.
        p0 = cs.Gate("P0", ((1, 0), (0, 0)))
        s = cs.apply_gate1(StateVector.from_amplitudes([INV, INV, INV, -INV]), 2, p0)
        assert s == StateVector.from_amplitudes([INV, 0, INV, 0])
        f = cs.apply_gate1(StateVector.from_amplitudes([1, 2, 3, 4], cs.FLOAT), 2, p0)
        assert f.to_float_array().tolist() == [1, 0, 3, 0]

    def test_float_matches_exact(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for q in (1, 2, 3):
            s = random_exact_state(3, rng)
            f = to_float(s)
            cs.apply_gate1(s, q, cs.hadamard())
            cs.apply_gate1(f, q, cs.hadamard())
            assert s.max_abs_diff(f) <= 1e-12


class TestApplyGate2:
    def test_comparison_on_uniform_gives_bell(self):
        half = DyadicReal(1, 0, 1)
        s = StateVector.from_amplitudes([half] * 4)
        cs.apply_gate2(s, 1, 2, cs.comparison_gate())
        assert s == bell_plus()

    def test_identity_is_noop(self):
        rng = np.random.Generator(np.random.PCG64(4))
        s = random_exact_state(4, rng)
        assert cs.apply_gate2(s.copy(), 2, 4, identity_gate2()) == s

    def test_swapped_pair_relabeling(self):
        # Applying C to (p, q) equals applying the bit-relabeled matrix to
        # (q, p), for every 4-qubit basis input.
        C = cs.comparison_gate()
        Cs = swapped(C)
        for x in range(16):
            a = cs.apply_gate2(basis_state(4, x), 2, 4, C)
            b = cs.apply_gate2(basis_state(4, x), 4, 2, Cs)
            assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            cs.apply_gate2(StateVector(3), 2, 2, cs.comparison_gate())
        with pytest.raises(ValueError):
            cs.apply_gate2(StateVector(3), 1, 4, cs.comparison_gate())
        # A gate whose size does not match its qubit count (2x2 on a pair,
        # 4x4 on one qubit) is refused before any write, on both backends.
        exact = random_exact_state(3, np.random.Generator(np.random.PCG64(22)))
        for s in (exact, to_float(exact)):
            before = s.copy()
            with pytest.raises(ValueError):
                cs.apply_gate2(s, 1, 2, cs.hadamard())
            with pytest.raises(ValueError):
                cs.apply_gate1(s, 2, cs.comparison_gate())
            assert s == before

    def test_nonadjacent_matches_dense_matrix(self):
        G = DENSE["C"]
        rng = np.random.Generator(np.random.PCG64(5))
        for p, q in [(1, 3), (1, 4), (2, 4), (3, 1), (4, 2)]:
            s = random_float_state(4, rng)
            expected = dense_two_qubit(G, p, q, 4) @ s.to_float_array()
            cs.apply_gate2(s, p, q, cs.comparison_gate())
            assert np.max(np.abs(s.to_float_array() - expected)) <= 1e-12

    def test_disjoint_pairs_commute_exactly(self):
        rng = np.random.Generator(np.random.PCG64(6))
        C = cs.comparison_gate()
        for _ in range(25):
            s = random_exact_state(4, rng)
            a = s.copy()
            cs.apply_gate2(a, 1, 3, C)
            cs.apply_gate2(a, 2, 4, C)
            b = s.copy()
            cs.apply_gate2(b, 2, 4, C)
            cs.apply_gate2(b, 1, 3, C)
            assert a == b


class TestPhaseOracle:
    def test_zero_oracle_is_noop(self):
        rng = np.random.Generator(np.random.PCG64(7))
        s = random_exact_state(3, rng)
        assert cs.apply_phase_oracle(s.copy(), constant_oracle(3, 0), 1) == s

    def test_flips_plus_to_minus(self):
        s = StateVector.from_amplitudes([INV, INV])
        cs.apply_phase_oracle(s, BooleanOracle.from_marked(1, [1]), 1)
        assert s == StateVector.from_amplitudes([INV, -INV])

    def test_involution(self):
        rng = np.random.Generator(np.random.PCG64(8))
        f = BooleanOracle(2, 0b0110)
        s = random_exact_state(4, rng)
        t = s.copy()
        cs.apply_phase_oracle(t, f, 2)
        cs.apply_phase_oracle(t, f, 2)
        assert t == s

    def test_window_semantics(self):
        # Oracle on qubits 2..3 of a 4-qubit basis state flips the sign
        # iff those two bits are marked; other qubits are ignored.
        f = BooleanOracle.from_marked(2, [0b10])
        for x in range(16):
            s = basis_state(4, x)
            cs.apply_phase_oracle(s, f, 2)
            window = (x >> 1) & 0b11
            want = -1 if window == 0b10 else 1
            assert s.amplitude(x) == want

    def test_window_out_of_range(self):
        with pytest.raises(ValueError):
            cs.apply_phase_oracle(StateVector(3), constant_oracle(2, 0), 3)

    def test_unitary_as_explicit_matrix(self):
        # Diagonal +-1 matrix at n <= 3: columns are orthonormal exactly.
        for n in (1, 2, 3):
            f = BooleanOracle(n, 0b10110100 & ((1 << (1 << n)) - 1))
            cols = []
            for x in range(1 << n):
                s = cs.apply_phase_oracle(basis_state(n, x), f, 1)
                cols.append([int(a.a) for a in s.amplitudes()])
            M = np.array(cols).T
            assert np.array_equal(M.T @ M, np.eye(1 << n, dtype=int))


class TestAncillaOracle:
    def test_zero_oracle_is_noop(self):
        rng = np.random.Generator(np.random.PCG64(9))
        s = random_exact_state(3, rng)
        assert apply_ancilla_oracle(s, constant_oracle(2, 0)) == s

    def test_xor_semantics(self):
        f = BooleanOracle.from_marked(1, [1])
        s = basis_state(2, 0b10)  # |1>|0>
        assert apply_ancilla_oracle(s, f) == basis_state(2, 0b11)

    def test_phase_kickback_on_minus(self):
        for n in (1, 2):
            f = BooleanOracle(n, 0b0110 & ((1 << (1 << n)) - 1))
            for k in range(1 << n):
                s = apply_ancilla_oracle(tensor(basis_state(n, k), minus_state()), f)
                want = tensor(basis_state(n, k), minus_state())
                if f(k):
                    want = StateVector.from_amplitudes([-a for a in want.amplitudes()])
                assert s == want

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            apply_ancilla_oracle(StateVector(3), constant_oracle(3, 0))

    def test_unitary_as_explicit_matrix(self):
        # Permutation matrix at n <= 3 (acting on n+1 qubits).
        for n in (1, 2, 3):
            f = BooleanOracle(n, 0b01101001 & ((1 << (1 << n)) - 1))
            dim = 1 << (n + 1)
            cols = []
            for x in range(dim):
                s = apply_ancilla_oracle(basis_state(n + 1, x), f)
                cols.append([int(a.a) for a in s.amplitudes()])
            M = np.array(cols).T
            assert np.array_equal(M.T @ M, np.eye(dim, dtype=int))


class TestKickbackEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_oracles(self, n):
        # Ancilla prepared in |->, XOR oracle applied, ancilla discarded
        # equals the phase oracle, exactly, for every f.
        rng = np.random.Generator(np.random.PCG64(10 + n))
        states = [random_exact_state(n, rng) for _ in range(2)]
        uniform = StateVector(n)
        for q in range(1, n + 1):
            cs.apply_gate1(uniform, q, cs.hadamard())
        states.append(uniform)
        for f in (cs.BooleanOracle(n, t) for t in range(1 << (1 << n))):
            for s in states:
                with_ancilla = apply_ancilla_oracle(tensor(s, minus_state()), f)
                reduced = discard_minus_ancilla(with_ancilla)
                assert reduced == cs.apply_phase_oracle(s.copy(), f, 1)

    def test_discard_rejects_entangled_state(self):
        with pytest.raises(ValueError):
            discard_minus_ancilla(bell_plus())


class TestNormPreservation:
    def test_exact_gates_preserve_norm(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(10):
            s = random_exact_state(4, rng)
            assert s.norm_squared() == 1
            cs.apply_gate1(s, int(rng.integers(1, 5)), cs.hadamard())
            assert s.norm_squared() == 1
            cs.apply_gate2(s, 1, 3, cs.comparison_gate())
            assert s.norm_squared() == 1
            cs.apply_phase_oracle(s, BooleanOracle(2, 0b0110), 2)
            assert s.norm_squared() == 1
            s = apply_ancilla_oracle(s, BooleanOracle(3, 0b10011001))
            assert s.norm_squared() == 1

    def test_float_gates_preserve_norm(self):
        rng = np.random.Generator(np.random.PCG64(12))
        for _ in range(10):
            s = random_float_state(4, rng)
            cs.apply_gate1(s, int(rng.integers(1, 5)), cs.hadamard())
            cs.apply_gate2(s, 2, 4, cs.comparison_gate())
            assert abs(s.norm_squared() - 1.0) <= 1e-12

    def test_float_kernels_reject_nonfinite(self):
        # Finite amplitudes whose sum would overflow to inf inside the
        # kernel: the gate is refused before any write, so no overflow
        # warning is raised and the plane keeps its values.
        big = 1.7e308
        for amps, apply in [
            ([big, big], lambda s: cs.apply_gate1(s, 1, cs.hadamard())),
            ([big, 0.0, big, 0.0], lambda s: cs.apply_gate2(s, 1, 2, cs.comparison_gate())),
        ]:
            s = StateVector.from_amplitudes(amps, cs.FLOAT)
            with pytest.raises(OverflowError, match="non-finite"):
                apply(s)
            assert s._plane.tolist() == amps

    def test_float_gates_take_amplitudes_up_to_2_1000(self):
        # A gate grows amplitudes at most fourfold, so amplitudes of at most
        # 2^1000 are never refused, however far the tracked bound has grown
        # since its last scan.  Scaling by 2^1000 is exact, so each gate's
        # result is bitwise 2^1000 times its result on the unscaled state.
        rng = np.random.Generator(np.random.PCG64(21))
        amps = rng.choice([-1.0, 1.0], 8) * rng.uniform(0.5, 1.0, 8)
        small = StateVector.from_amplitudes(amps, cs.FLOAT)
        big = StateVector.from_amplitudes(np.ldexp(amps, 1000), cs.FLOAT)
        placements = [(q,) for q in range(1, 4)]
        placements += [(p, q) for p in range(1, 4) for q in range(1, 4) if p != q]
        for _ in range(10):
            for qubits in placements:
                gate = cs.hadamard() if len(qubits) == 1 else cs.comparison_gate()
                for s in (small, big):
                    gates._apply(s, qubits, gate)
                assert np.array_equal(np.ldexp(small._plane, 1000), big._plane), qubits
                _check_bound(big)

    def test_float_bound_rescans_on_long_words(self):
        # Each H grows the tracked bound by sqrt(2) while H H leaves the
        # amplitudes as they were, so 3000 of them take the bound past
        # 2^1022 many times over: the state rescans rather than refusing.
        s = StateVector(1, cs.FLOAT)
        for _ in range(3000):
            cs.apply_gate1(s, 1, cs.hadamard())
            _check_bound(s)
            assert s._bound < 2.0**1022
        assert s.max_abs_diff(StateVector(1, cs.FLOAT)) <= 1e-12


R = 1 / np.sqrt(2)
# Literal matrices, independent of the library's gate definitions.
DENSE = {
    "H": np.array([[R, R], [R, -R]]),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
    "C": R * np.array([[1, 0, 1, 0], [0, 1, 0, -1], [-1, 0, 1, 0], [0, 1, 0, 1]]),
}
LIBRARY = {
    "H": cs.hadamard(),
    "X": pauli_x(),
    "Z": pauli_z(),
    "C": cs.comparison_gate(),
    "HH": cs.Gate("HH", EXACT_MATRICES["HH"]),
}


# Start amplitudes at even and at odd e: 1 and 1/sqrt(2).
STARTS = (1, INV)


@st.composite
def gate_words(draw, kinds=("H", "X", "Z", "C", "O"), min_size=1, max_size=12, starts=(1,)):
    """A width m, an input index, its amplitude drawn from ``starts`` (every
    other amplitude is 0) and a word drawn from ``kinds``: H/X/Z on any
    qubit, C or HH (H (x) H) on any ordered pair (nonadjacent and
    reversed included) and phase oracles ("O") on any window."""
    m = draw(st.integers(2, 5))
    ops = []
    for _ in range(draw(st.integers(min_size, max_size))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("C", "HH"):
            p, q = draw(st.permutations(range(1, m + 1)))[:2]
            ops.append((kind, p, q))
        elif kind == "O":
            n = draw(st.integers(1, m))
            start = draw(st.integers(1, m - n + 1))
            f = BooleanOracle(n, draw(st.integers(0, (1 << (1 << n)) - 1)))
            ops.append(("O", f, start))
        else:
            ops.append((kind, draw(st.integers(1, m))))
    return m, draw(st.integers(0, (1 << m) - 1)), draw(st.sampled_from(starts)), ops


class TestKernelDifferential:
    @settings(max_examples=80, deadline=None)
    @given(gate_words())
    def test_both_backends_match_dense_reference(self, word):
        m, index, _, ops = word
        exact = basis_state(m, index)
        flt = basis_state(m, index, cs.FLOAT)
        ref = np.zeros(1 << m)
        ref[index] = 1.0
        for op in ops:
            if op[0] == "O":
                _, f, start = op
                ref = dense_phase_oracle(f, start, m) @ ref
                for s in (exact, flt):
                    cs.apply_phase_oracle(s, f, start)
            elif op[0] == "C":
                _, p, q = op
                ref = dense_two_qubit(DENSE["C"], p, q, m) @ ref
                for s in (exact, flt):
                    cs.apply_gate2(s, p, q, LIBRARY["C"])
            else:
                name, q = op
                ref = dense_one_qubit(DENSE[name], q, m) @ ref
                for s in (exact, flt):
                    cs.apply_gate1(s, q, LIBRARY[name])
        assert exact.norm_squared() == 1
        for s in (exact, flt):
            assert np.max(np.abs(s.to_float_array() - ref)) <= 1e-12


def float_reference(amps: np.ndarray, G: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """The float kernel's result by numpy slices alone: out_i is the sum,
    left to right, over nonzero G[i, j] of fl(G[i, j] * x_j), where slot
    j has the bit of qubits[t] at position k - 1 - t.  A row of two terms
    adds its own slot first, though that sum does not depend on the
    order; a longer row adds in column order.  An all-zero row writes
    fl(0 * x_0), from slot 0's input, so its zeros take that input's
    signs."""
    m, k = len(amps).bit_length() - 1, len(qubits)
    axes = [q - 1 for q in qubits]
    x = np.moveaxis(amps.reshape((2,) * m), axes, range(k)).reshape(1 << k, -1)
    out = np.empty_like(x)
    for i in range(1 << k):
        cols = [j for j in range(1 << k) if G[i, j] != 0] or [0]
        if len(cols) <= 2:
            cols.sort(key=lambda j: j != i)
        out[i] = G[i, cols[0]] * x[cols[0]]
        for j in cols[1:]:
            out[i] = out[i] + G[i, j] * x[j]
    return np.moveaxis(out.reshape((2,) * m), range(k), axes).reshape(-1)


def signed_zero_state(m: int, rng: np.random.Generator) -> np.ndarray:
    """Float amplitudes with many +0.0, -0.0 and repeated values, so that
    sums of two scaled slots hit signed zeros and exact cancellations."""
    v = rng.normal(size=1 << m)
    kind = rng.permutation(np.arange(v.size) % 4)
    v[kind == 0] = 0.0
    v[kind == 1] = -0.0
    v[kind == 2] = rng.choice([-1.5, -0.5, 0.5, 1.5], size=int((kind == 2).sum()))
    return v


# A projector with an all-zero row.
P0 = cs.Gate("P0", ((1, 0), (0, 0)))
# The rows of H and C sum two terms, and those of H (x) H four; X and Z
# have rows of one term, and P0 an all-zero row.
BITWISE_GATES = {1: (cs.hadamard(), pauli_x(), pauli_z(), P0),
                 2: (cs.comparison_gate(), LIBRARY["HH"])}


def assert_float_kernel_bitwise(amps: np.ndarray, qubits: tuple[int, ...], kernels=None) -> None:
    """The float kernel bit for bit against :func:`float_reference`, for
    each gate of ``kernels`` (by default those of ``BITWISE_GATES``)."""
    m = len(amps).bit_length() - 1
    for gate in kernels or BITWISE_GATES[len(qubits)]:
        s = StateVector.from_amplitudes(amps, cs.FLOAT)
        assert np.array_equal(np.signbit(s._plane), np.signbit(amps))
        got = gates._apply(s, qubits, gate)._plane
        G = np.array([[e.to_float() for e in row] for row in gate.matrix])
        want = float_reference(amps, G, qubits)
        assert np.array_equal(got, want), (gate, qubits, m)
        assert np.array_equal(np.signbit(got), np.signbit(want)), (gate, qubits, m)


class TestFloatKernelBitwise:
    """The float kernel against :func:`float_reference`, bit for bit and
    sign of zero for sign of zero."""

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_every_placement(self, m):
        rng = np.random.Generator(np.random.PCG64(40 + m))
        amps = signed_zero_state(m, rng)
        for q in range(1, m + 1):
            assert_float_kernel_bitwise(amps, (q,))
        for p in range(1, m + 1):
            for q in range(1, m + 1):
                if p != q:
                    assert_float_kernel_bitwise(amps, (p, q))

    def test_zero_row_reads_slot_zero(self):
        # P0's second row writes 0 * x_0, so its zeros take the signs of
        # slot 0's inputs, -1 and 3, rather than those of its own, 2 and -4.
        s = StateVector.from_amplitudes([-1.0, 2.0, 3.0, -4.0], cs.FLOAT)
        got = gates._apply(s, (2,), P0)._plane
        assert got.tolist() == [-1.0, 0.0, 3.0, 0.0]
        assert np.signbit(got).tolist() == [True, True, False, False]

    def test_chunked_and_run_walks(self):
        # 2^17 amplitudes: gates on low, middle and high qubits walk the
        # plane in chunks, and those whose lowest qubit has a post axis
        # under _SHORT amplitudes walk contiguous runs.
        m = 17
        placements = [(1,), (9,), (17,), (1, 2), (2, 1), (8, 10), (9, 3),
                      (16, 17), (17, 16), (1, 17), (17, 1)]
        layouts = [gates._layout(m, qubits, 8) for qubits in placements]
        assert any(len(chunks) > 1 for _, _, chunks, _ in layouts)
        plans = {q: gates._plan(BITWISE_GATES[len(q)][0]._signs, m, q, False) for q in placements}
        assert {q for q, plan in plans.items() if plan[1] > 1} == {
            (17,), (8, 10), (16, 17), (17, 16), (1, 17), (17, 1)}
        amps = signed_zero_state(m, np.random.Generator(np.random.PCG64(57)))
        for qubits in placements:
            assert_float_kernel_bitwise(amps, qubits)


# The least width of the planes that the run walk is checked on.
RUN_WIDTH = 18


def run_width(itemsize: int) -> int:
    """The smallest width of at least ``RUN_WIDTH`` qubits whose plane of
    ``itemsize``-byte amplitudes every run walk takes in several chunks:
    a slot of a two-qubit gate with one axis qubit holds half the plane,
    which must exceed one chunk."""
    return max(RUN_WIDTH, (gates._CHUNK // itemsize).bit_length() + 1)


def assert_run_walk(gate: cs.Gate, m: int, qubits: tuple[int, ...], itemsize: int) -> None:
    """``gate`` on ``qubits`` of m takes the run walk, in several chunks."""
    axes, period = gates._plan(gate._signs, m, qubits, False)[:2]
    assert period > 1, qubits
    assert len(gates._layout(m, axes, itemsize, period)[2]) > 1, qubits


def run_placements(m: int) -> list[tuple[int, ...]]:
    """Every qubit and ordered pair of m qubits whose lowest qubit has a
    post axis under ``gates._SHORT`` amplitudes, so that H or C on it
    takes the run walk."""
    short = [q for q in range(1, m + 1) if 1 << (m - q) < gates._SHORT]
    pairs = [(p, q) for p in range(1, m + 1) for q in range(1, m + 1)
             if p != q and max(p, q) in short]
    return [(q,) for q in short] + pairs


def sparse_exact_state(m: int, dtype, bound: int, rng: np.random.Generator) -> StateVector:
    """An m-qubit exact state of ``dtype`` at e = 1 with up to 128 random
    integers of magnitude at most ``bound``, +-bound among them, at
    random places and zeros elsewhere, so that an amplitude-by-amplitude
    reference stays quick."""
    plane = np.zeros(1 << m, dtype)
    where = rng.integers(1 << m, size=128)
    plane[where] = rng.integers(-bound, bound, size=128, endpoint=True)
    plane[where[:2]] = bound, -bound
    s = StateVector._from_plane(plane, bound=bound)
    s._e = 1
    return s


class TestRunWalk:
    """Gates whose lowest qubit has a short post axis walk contiguous runs
    (``gates._plan``); on planes that span several chunks, they must
    match the references on every such placement."""

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_exact_matches_reference(self, dtype):
        # Each width takes every fourth placement, with integers just
        # below the bound at which H or C would widen the plane.  The
        # reference applies the gate to each group of 2^k amplitudes that
        # differ only in the gate's qubits and hold a nonzero input.
        width = np.dtype(dtype).itemsize
        m = run_width(width)
        bound = (1 << (8 * width - 2)) // 2 - 1
        rng = np.random.Generator(np.random.PCG64(60 + width))
        for qubits in run_placements(m)[[1, 2, 4, 8].index(width)::4]:
            name = "H" if len(qubits) == 1 else "C"
            gate = LIBRARY[name]
            assert_run_walk(gate, m, qubits, width)
            k = len(qubits)
            # Gate slot r's amplitudes sit at offset[r] from their group.
            offset = [sum((r >> (k - 1 - t) & 1) << (m - q) for t, q in enumerate(qubits))
                      for r in range(1 << k)]
            s = sparse_exact_state(m, dtype, bound, rng)
            groups = {x & ~offset[-1] for x in np.flatnonzero(s._plane).tolist()}
            before = {g: [s.amplitude(g | d) for d in offset] for g in groups}
            gates._apply(s, qubits, gate)
            assert s._plane.dtype == dtype, qubits
            for g, amps in before.items():
                ref = exact_apply(amps, EXACT_MATRICES[name], tuple(range(1, k + 1)), k)
                assert [s.amplitude(g | d) for d in offset] == ref, (qubits, g)
            # No amplitude outside those groups may turn nonzero.
            assert {x & ~offset[-1] for x in np.flatnonzero(s._plane).tolist()} <= groups
            assert s._bound >= int(np.abs(s._plane).max()), qubits

    def test_float_bitwise(self):
        m = run_width(8)
        amps = signed_zero_state(m, np.random.Generator(np.random.PCG64(58)))
        for qubits in run_placements(m):
            gate = LIBRARY["H" if len(qubits) == 1 else "C"]
            assert_run_walk(gate, m, qubits, 8)
            assert_float_kernel_bitwise(amps, qubits, (gate,))

    def test_one_term_flipping_two_short_bits(self):
        # Each row of the anti-diagonal XX is one term that flips both
        # gate bits, so the run walk swaps an array's blocks into itself
        # (gates._partner with its input as its output).
        anti = [[int(i + j == 3) for j in range(4)] for i in range(4)]
        gate, G = cs.Gate("XX", anti), np.array(anti, dtype=float)
        matrix = tuple(tuple(DyadicReal(v, 0) for v in row) for row in anti)
        m = 10
        rng = np.random.Generator(np.random.PCG64(62))
        amps = rng.standard_normal(1 << m)
        ints = rng.integers(-3, 4, 1 << m).astype(np.int8)
        for qubits in ((9, 10), (10, 9), (8, 10)):
            assert gates._plan(gate._signs, m, qubits, False)[1] > 1, qubits
            got = gates._apply(StateVector.from_amplitudes(amps, cs.FLOAT), qubits, gate)
            want = (dense_two_qubit(G, *qubits, m) @ amps).real
            assert np.array_equal(got._plane, want), qubits
            s = gates._apply(StateVector._from_plane(ints.copy()), qubits, gate)
            assert s._plane.dtype == np.int8, qubits
            ref = exact_apply([DyadicReal(int(c), 0) for c in ints], matrix, qubits, m)
            assert s.amplitudes() == ref, qubits

    def test_buffers_stay_about_one_chunk(self):
        # The run walk's buffers and coefficient vectors are about one
        # chunk long, whatever the plane's size.
        m = 20
        s = StateVector(m)
        for qubits, gate in (((m,), cs.hadamard()), ((m // 2, m), cs.comparison_gate())):
            tracemalloc.start()
            try:
                gates._apply(s, qubits, gate)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert s._plane.dtype == np.int8
            assert peak < 1 << 20, (qubits, peak)


def plan_of(gate: cs.Gate, m: int, qubits: tuple[int, ...], box: bool = False) -> tuple:
    """How the kernel applies ``gate`` to ``qubits`` of an m-qubit plane,
    on its box walk if ``box``: ``(axes, period, buffers, names)``, the
    walk's axis qubits and period (1 on the slot walk), the number of
    slot-sized buffers that each chunk fills, and the names of the steps
    in order, "copy" for a copy of a slot into a buffer."""
    axes, period, steps, temps, _ = gates._plan(gate._signs, m, qubits, box)
    names = tuple("copy" if step[0] is gates._copy else step[0].__name__ for step in steps)
    return axes, period, temps, names


# The plans of H and C, as (buffers, names) (see :func:`plan_of`).
SLOT_H = (1, ("copy", "add", "subtract"))
SLOT_C = (2, ("copy", "copy", "add", "subtract", "subtract", "add"))
RUN_H = (1, ("_partner", "_times", "add"))
RUN_C = (2, ("_times", "_times", "add", "subtract"))
# Per H or C placement that the benchmark workloads run: (m, qubits,
# axes, period, plan).
WORKLOAD_PLANS = [
    # compare_grover at n = 12: the comparison circuit on 24 qubits...
    *[(24, (q,), (q,), 1, SLOT_H) for q in range(1, 17)],
    *[(24, (q,), (), 2 << (24 - q), RUN_H) for q in range(17, 25)],
    *[(24, (i, i + 12), (i, i + 12), 1, SLOT_C) for i in range(1, 5)],
    *[(24, (i, i + 12), (i,), 2 << (12 - i), RUN_C) for i in range(5, 13)],
    # ...and Grover's Hadamards on 12.
    *[(12, (q,), (q,), 1, SLOT_H) for q in range(1, 5)],
    *[(12, (q,), (), 2 << (12 - q), RUN_H) for q in range(5, 13)],
    # One sweep batch at n = 4: 8 circuit qubits and 512 rows.
    *[(17, (q,), (q,), 1, SLOT_H) for q in range(1, 9)],
    *[(17, (i, i + 4), (i, i + 4), 1, SLOT_C) for i in range(1, 5)],
]


def test_workload_plans_pinned():
    # Each plan fixes the passes that a gate makes over the plane, so a
    # change to the step compiler that adds one shows here.
    assert len(WORKLOAD_PLANS) == 60
    for m, qubits, axes, period, (buffers, names) in WORKLOAD_PLANS:
        gate = cs.hadamard() if len(qubits) == 1 else cs.comparison_gate()
        assert plan_of(gate, m, qubits) == (axes, period, buffers, names), (m, qubits)
        # Where other qubits known to read 0 leave a small box, the gate
        # walks that box on the slot walk.
        slot = SLOT_H if len(qubits) == 1 else SLOT_C
        assert plan_of(gate, m, qubits, box=True) == (qubits, 1, *slot), (m, qubits)


def _run_word(word, backend: str = cs.EXACT, check=None, narrow: bool = False) -> StateVector:
    """Run ``word`` (see :func:`gate_words`) on the library kernels and
    return the state; on the exact backend, also require zero-tolerance
    agreement with ``conftest.exact_apply``.  ``check``, if given, sees
    the state after every op.  ``narrow`` starts an exact plane as int8,
    as ``StateVector(m)`` does, rather than as ``from_amplitudes``'
    int64."""
    m, index, start, ops = word
    ref = [DyadicReal.from_int(0)] * (1 << m)
    ref[index] = start if isinstance(start, DyadicReal) else DyadicReal.from_int(start)
    s = StateVector.from_amplitudes(ref, backend)
    if narrow:
        s._plane = s._plane.astype(np.int8)
    for op in ops:
        if op[0] == "O":
            _, f, start = op
            ref = exact_phase_oracle(ref, f, start, m)
            cs.apply_phase_oracle(s, f, start)
        elif len(op) == 3:
            name, p, q = op
            ref = exact_apply(ref, EXACT_MATRICES[name], (p, q), m)
            cs.apply_gate2(s, p, q, LIBRARY[name])
        else:
            name, q = op
            ref = exact_apply(ref, EXACT_MATRICES[name], (q,), m)
            cs.apply_gate1(s, q, LIBRARY[name])
        if check is not None:
            check(s)
    if backend == cs.EXACT:
        assert s.amplitudes() == ref
        assert s == StateVector.from_amplitudes(ref)
    return s


def _check_bound(s: StateVector) -> None:
    """The plane's tracked bound covers its magnitudes, integers or floats."""
    assert s._bound >= max(map(abs, s._plane.tolist()))


class TestExactKernelDifferential:
    @settings(max_examples=80, deadline=None)
    @given(gate_words(kinds=("H", "X", "Z", "C", "HH", "O"), starts=STARTS))
    def test_words_match_exact_reference(self, word):
        _run_word(word, check=_check_bound)
        _run_word(word, cs.FLOAT, check=_check_bound)

    @settings(max_examples=25, deadline=None)
    @given(gate_words(kinds=("H", "C", "HH"), min_size=40, max_size=64, starts=STARTS))
    def test_long_words_match_exact_reference(self, word):
        # Each of these gates may grow an integer fourfold, so 40 of them
        # leave int64's checked range unless the kernel reduces on the way,
        # and leave int8's unless it also widens.  A float state's bound
        # grows by the same factors times (1/sqrt(2))^e.
        _run_word(word, check=_check_bound)
        _run_word(word, check=_check_bound, narrow=True)
        _run_word(word, cs.FLOAT, check=_check_bound)

    @settings(max_examples=60, deadline=None)
    @given(gate_words(kinds=("H", "X", "Z", "C", "HH", "O"), max_size=20, starts=STARTS))
    def test_chunked_walk_matches(self, word):
        # Large states are walked in chunks.  Chunks of two bytes per slot
        # (one or two amplitudes, or one period of a run) take that path
        # at any width, on the run walk and, with _SHORT = 1, on the slot
        # walk alone: exact results must still match the reference, and
        # float results must be bitwise those of the unchunked walk.
        flat = _run_word(word, cs.FLOAT)._plane
        for short in (gates._SHORT, 1):
            with mock.patch.object(gates, "_CHUNK", 2), mock.patch.object(gates, "_SHORT", short):
                gates._layout.cache_clear()
                gates._plan.cache_clear()
                try:
                    _run_word(word)
                    chunked = _run_word(word, cs.FLOAT)._plane
                finally:
                    gates._layout.cache_clear()
                    gates._plan.cache_clear()
            assert chunked.tobytes() == flat.tobytes(), short

    def test_four_term_rows(self):
        # H (x) H sums four unit terms a row, at even and at odd e (after
        # H or C, or from a start amplitude 1/sqrt(2)), on adjacent,
        # reversed and nonadjacent pairs; the parity of e follows the
        # gates' own e, 2 for H (x) H and 1 for H and C.
        ops = [("HH", 1, 2), ("H", 4), ("HH", 4, 2), ("C", 3, 1), ("HH", 1, 3), ("H", 2),
               ("HH", 2, 4)]
        parities = [0, 1, 1, 0, 0, 1, 1]
        for start, flip in ((1, 0), (INV, 1)):
            seen = []
            _run_word((4, 6, start, ops), check=lambda s: seen.append(s._e & 1))
            assert seen == [p ^ flip for p in parities]


def seeded_word(m: int, backend: str, seed: int):
    """Yield the state after every gate of a seeded word of 300 H and C
    gates on |0...0>."""
    rng = np.random.Generator(np.random.PCG64(seed))
    s = StateVector(m, backend)
    for _ in range(300):
        if rng.integers(2):
            cs.apply_gate1(s, int(rng.integers(1, m + 1)), cs.hadamard())
        else:
            p, q = rng.choice(m, size=2, replace=False) + 1
            cs.apply_gate2(s, int(p), int(q), cs.comparison_gate())
        yield s


def value_trail(m: int, backend: str, seed: int) -> str:
    """sha256 over public reads after every gate of :func:`seeded_word`:
    the bytes of ``to_float_array()`` and, on the exact backend, the
    canonical (a, b, h) of every amplitude."""
    trail = hashlib.sha256()
    for s in seeded_word(m, backend, seed):
        trail.update(s.to_float_array().tobytes())
        if backend == cs.EXACT:
            amps = [(v.a, v.b, v.h) for v in s.amplitudes()]
            trail.update(repr(amps).encode())
    return trail.hexdigest()


# The value trail per (width, backend): a change in any amplitude's
# value, or in its float conversion, changes it.
VALUE_TRAILS = {
    (3, cs.EXACT):
        "1202e3604610f2ea072fad0c1031a7f97521c833f6096dfa4d2d6684bb2a8838",
    (5, cs.EXACT):
        "662079a03fdba604cd84139753fd30394ba31786572e6799c2a2f65af12bcb46",
    (8, cs.EXACT):
        "9dbed9503bd4152652ffaf4e960fb1c01162f7f6d4711892443efd5c31ac9bd8",
    (3, cs.FLOAT):
        "65104344f58343302d9fe6bb271b91b8b739404cce3d0b01b56c417686222e81",
    (5, cs.FLOAT):
        "4709508c2030f32705d258facea39d410668217fd5ef2d9b6df4aba422b1acaf",
    (8, cs.FLOAT):
        "490642943ba2867fdb0ebaddfae254acc85d338b7960295a0ea927c9a79645a8",
}


def test_kernel_value_trail_pinned():
    for (m, backend), digest in VALUE_TRAILS.items():
        assert value_trail(m, backend, seed=70 + m) == digest, (m, backend)


# Known zeros: StateVector(m) marks every qubit as reading 0, and a
# batch start (rows on the trailing qubits) marks the circuit's qubits;
# a gate then walks only the box where the other marked qubits read 0,
# when that box holds at most 1/gates._BOX of the plane.


def batch_start(width: int, lanes: int, backend: str) -> StateVector:
    """|0...0> of ``width`` circuit qubits once per row of 2^lanes rows on
    the trailing qubits, as ``circuit._simulate_rows`` seeds it."""
    s = StateVector(width + lanes, backend)
    s._plane[: 1 << lanes] = 1
    s._zeros = ((1 << width) - 1) << lanes
    return s


def assert_known_zeros(s: StateVector) -> None:
    """Every marked qubit reads 0 on every nonzero amplitude; on a float
    plane the amplitudes where one reads 1 are +0.0, not -0.0."""
    outside = s._plane[(np.arange(s.num_states) & s._zeros) != 0]
    assert not outside.any()
    assert not np.signbit(outside).any()


def row_signs(signs: np.ndarray, reg_start: int, m: int) -> np.ndarray:
    """Per basis index x of an m-qubit state whose trailing log2 R qubits
    read the row r, signs[r, k] for the window k at ``reg_start``."""
    rows, size = signs.shape
    n = size.bit_length() - 1
    x = np.arange(1 << m)
    window = (x >> (m - (reg_start + n - 1))) & (size - 1)
    return signs[x & (rows - 1), window]


@st.composite
def masked_words(draw):
    """A width of circuit qubits, a lane count (0 for ``StateVector(m)``,
    else rows on that many trailing qubits) and a word of H and Z on any
    circuit qubit, C on any ordered pair of them and phase oracles on any
    window of them, one sign row per row.  Z has a row of only negative
    entries, so on a float plane it turns +0.0 into -0.0."""
    width = draw(st.integers(1, 7))
    lanes = draw(st.integers(0, 2))
    ops = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from("HZCO" if width > 1 else "HZO"))
        if kind == "C":
            ops.append(("C", tuple(draw(st.permutations(range(1, width + 1)))[:2])))
        elif kind in "HZ":
            ops.append((kind, (draw(st.integers(1, width)),)))
        else:
            n = draw(st.integers(1, width))
            start = draw(st.integers(1, width - n + 1))
            tables = draw(st.lists(st.integers(0, (1 << (1 << n)) - 1),
                                   min_size=1 << lanes, max_size=1 << lanes))
            oracles = [BooleanOracle(n, t) for t in tables]
            ops.append(("O", (start, oracles)))
    return width, lanes, ops


def run_masked_word(word, backend: str) -> list[int]:
    """Run ``word`` (see :func:`masked_words`) from its start and check
    the state after every op: exact values against ``exact_apply``,
    float planes bit for bit and sign of zero for sign of zero against
    :func:`float_reference`, and the known zeros.  Returns, per gate, the
    number of marked qubits other than its own before it."""
    width, lanes, ops = word
    m = width + lanes
    s = StateVector(m, backend) if not lanes else batch_start(width, lanes, backend)
    exact = backend == cs.EXACT
    if exact:
        ref = [DyadicReal.from_int(int(c)) for c in s._plane]
    else:
        ref = s._plane.copy()
    others = []
    for kind, args in ops:
        if kind == "O":
            start, oracles = args
            signs = np.stack([f.sign_array() for f in oracles])
            if lanes:
                gates._apply_signs(s, signs, start)
            else:
                cs.apply_phase_oracle(s, oracles[0], start)
            flips = row_signs(signs, start, m)
            ref = [-a if f < 0 else a for a, f in zip(ref, flips)] if exact else ref * flips
        else:
            own = sum(1 << (m - q) for q in args)
            others.append((s._zeros & ~own).bit_count())
            gate = LIBRARY[kind]
            (cs.apply_gate1 if len(args) == 1 else cs.apply_gate2)(s, *args, gate)
            if exact:
                ref = exact_apply(ref, EXACT_MATRICES[kind], args, m)
            else:
                G = np.array([[e.to_float() for e in row] for row in gate.matrix])
                ref = float_reference(ref, G, args)
        if exact:
            assert s.amplitudes() == ref, (kind, args)
        else:
            assert np.array_equal(s._plane, ref), (kind, args)
            assert np.array_equal(np.signbit(s._plane), np.signbit(ref)), (kind, args)
        assert_known_zeros(s)
    return others


class TestKnownZeros:
    @settings(max_examples=80, deadline=None)
    @given(masked_words())
    def test_words_match_references(self, word):
        for backend in cs.BACKENDS:
            run_masked_word(word, backend)

    # A word that runs gates with every qubit but their own marked (one
    # amplitude per slot at m = 5), then with 3, 2, 1 and 0 other marked
    # qubits, on both sides of the 1/8 cut-off.
    WORD = (5, 0, [
        ("H", (1,)), ("H", (2,)), ("H", (3,)), ("C", (4, 1)),
        ("O", (2, [BooleanOracle(3, 0xA5)])), ("H", (5,)),
    ])

    @pytest.mark.parametrize("backend", cs.BACKENDS)
    @pytest.mark.parametrize("lanes", [0, 2])
    def test_box_walk_on_both_sides_of_the_cut_off(self, backend, lanes):
        width, _, ops = self.WORD
        if lanes:
            # One oracle per row.
            ops = [(k, (a[0], [BooleanOracle(3, 0xA5 ^ r) for r in range(4)])) if k == "O"
                   else (k, a) for k, a in ops]
        with mock.patch.object(gates, "_layout", wraps=gates._layout) as layout:
            others = run_masked_word((width, lanes, ops), backend)
        assert others == [4, 3, 2, 1, 0]
        # Exactly the gates with three or more other marked qubits walk
        # their box alone.
        boxes = [c.kwargs["zeros"] for c in layout.call_args_list if c.kwargs.get("zeros")]
        assert [z.bit_count() for z in boxes] == [4, 3]

    @pytest.mark.parametrize("lanes", [0, 2])
    def test_float_oracle_clears_the_mask(self, lanes):
        # The oracle turns every +0.0 into -0.0; H on qubit 1 then turns
        # some of those back into +0.0, where the qubits it would leave
        # out as marked read 1.
        width = 5
        word = (width, lanes, [("O", (1, [constant_oracle(width, 1)] * (1 << lanes))),
                               ("H", (1,))])
        assert run_masked_word(word, cs.FLOAT) == [0]

    def test_check_fails_when_a_gate_leaves_its_qubits_marked(self):
        apply = gates._apply

        def stale(s, qubits, gate):
            zeros = s._zeros
            apply(s, qubits, gate)
            s._zeros = zeros
            return s

        for backend in cs.BACKENDS:
            with mock.patch.object(gates, "_apply", stale), pytest.raises(AssertionError):
                run_masked_word(self.WORD, backend)

    def test_float_gate_with_a_negative_row_clears_the_mask(self):
        # Z writes -x to the slot where its qubit reads 1, so the full walk
        # turns +0.0 elsewhere into -0.0: no amplitude may be skipped.
        s = StateVector(5, cs.FLOAT)
        gates._apply(s, (1,), cs.hadamard())
        want = float_reference(s._plane.copy(), np.diag([1.0, -1.0]), (2,))
        gates._apply(s, (2,), pauli_z())
        assert s._zeros == 0
        assert np.array_equal(np.signbit(s._plane), np.signbit(want))
        assert np.signbit(s._plane).any()
