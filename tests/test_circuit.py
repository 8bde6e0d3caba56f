import math
import re

import numpy as np
import pytest

import compsearch as cs
from compsearch import BooleanOracle, DyadicReal, StateVector, circuit
from compsearch.circuit import Checkpoint, Circuit, GatePlacement, PhaseOraclePlacement
from conftest import basis_state, constant_oracle, grover_success_dense

INV = DyadicReal(0, 1, 1)
F0_1 = constant_oracle(1, 0)


def bell_plus() -> StateVector:
    return StateVector.from_amplitudes([INV, 0, 0, INV])


class TestBuildComparisonSearch:
    def test_n1_op_sequence(self):
        c = cs.build_comparison_search(1, F0_1)
        # Gate placements are told apart by their qubit count and gate.
        kinds = [
            op.label if isinstance(op, Checkpoint)
            else (len(op.qubits), op.gate.name) if isinstance(op, GatePlacement)
            else type(op).__name__
            for op in c.ops
        ]
        assert kinds == [
            "psi0",
            (1, "H"),
            (1, "H"),
            "psi1",
            "PhaseOraclePlacement",
            "psi2",
            (2, "C"),
            "psi2a",
            "psi3",
        ]
        assert c.width == 2
        oracle_op = c.ops[4]
        assert oracle_op.reg_start == 2

    def test_n2_gate_count(self):
        c = cs.build_comparison_search(2, constant_oracle(2, 0))
        assert sum(not isinstance(op, Checkpoint) for op in c.ops) == 4 + 1 + 2
        labels = tuple(op.label for op in c.ops if isinstance(op, Checkpoint))
        assert labels == cs.CHECKPOINT_LABELS

    def test_n3_comparison_placements_descending(self):
        c = cs.build_comparison_search(3, constant_oracle(3, 0))
        pairs = [
            op.qubits for op in c.ops if isinstance(op, GatePlacement) and len(op.qubits) == 2
        ]
        assert pairs == [(3, 6), (2, 5), (1, 4)]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match=r"^register size must be >= 1, got 0$"):
            cs.build_comparison_search(0, F0_1)
        with pytest.raises(ValueError, match=r"^oracle arity 1 does not match n=2$"):
            cs.build_comparison_search(2, F0_1)


class TestRun:
    def test_empty_circuit(self):
        s = basis_state(2, 0b01)
        assert cs.run(Circuit(2, ()), s) == s

    def test_n1_unmarked_gives_bell(self):
        out = cs.run(cs.build_comparison_search(1, F0_1), StateVector(2))
        assert out == bell_plus()

    def test_n1_marked_one_flips_sign(self):
        f = BooleanOracle.from_marked(1, [1])
        out = cs.run(cs.build_comparison_search(1, f), StateVector(2))
        assert out == StateVector.from_amplitudes([INV, 0, 0, -INV])

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            cs.run(cs.build_comparison_search(1, F0_1), StateVector(3))

    def test_unnormalized_input_rejected(self):
        bad = StateVector.from_amplitudes([1, 1, 0, 0])
        with pytest.raises(ValueError):
            cs.run(cs.build_comparison_search(1, F0_1), bad)

    def test_input_state_not_mutated(self):
        s = StateVector(2)
        cs.run(cs.build_comparison_search(1, F0_1), s)
        assert s == StateVector(2)


class TestTrace:
    def test_checkpoints_for_trivial_oracle(self):
        tr = cs.run_with_trace(cs.build_comparison_search(1, F0_1), StateVector(2))
        half = DyadicReal(1, 0, 1)
        assert tr["psi0"] == StateVector(2)
        assert tr["psi1"] == StateVector.from_amplitudes([half] * 4)
        assert tr["psi2"] == tr["psi1"]
        assert tr["psi2a"] == bell_plus()
        assert tr["psi3"] == bell_plus()

    def test_final_matches_run(self):
        f = BooleanOracle(2, 0b0110)
        c = cs.build_comparison_search(2, f)
        tr = cs.run_with_trace(c, StateVector(4))
        assert tr.final == cs.run(c, StateVector(4))
        assert tr.final == tr["psi3"]

    def test_reordering_comparison_gates_is_invariant(self):
        # The comparison gates act on disjoint pairs, so any order gives
        # the same output, exactly.
        rng = np.random.Generator(np.random.PCG64(13))
        f = BooleanOracle(3, 0b10110100)
        base = cs.build_comparison_search(3, f)
        reference = cs.run(base, StateVector(6))
        two = [isinstance(op, GatePlacement) and len(op.qubits) == 2 for op in base.ops]
        others = [op for op, is_pair in zip(base.ops, two) if not is_pair]
        pairs = [op for op, is_pair in zip(base.ops, two) if is_pair]
        for _ in range(5):
            perm = list(rng.permutation(len(pairs)))
            shuffled = Circuit(6, tuple(others + [pairs[i] for i in perm]))
            assert cs.run(shuffled, StateVector(6)) == reference


class TestGrover:
    def test_zero_iterations_is_uniform(self):
        f = BooleanOracle.from_marked(3, [5])
        out = cs.simulate(cs.build_grover(3, f, 0), cs.FLOAT)
        probs = np.abs(out.to_float_array()) ** 2
        np.testing.assert_allclose(probs, 1 / 8, atol=1e-14)

    def test_n2_single_marked_one_iteration_is_certain(self):
        f = BooleanOracle.from_marked(2, [1])
        out = cs.simulate(cs.build_grover(2, f, 1), cs.FLOAT)
        p = abs(out.amplitude(1)) ** 2
        assert abs(p - 1.0) <= 1e-12

    def test_n3_two_iterations_frozen_value(self):
        # Dense-matrix oracle gives 121/128 = sin^2(5 asin(1/sqrt(8))).
        f = BooleanOracle.from_marked(3, [6])
        out = cs.simulate(cs.build_grover(3, f, 2), cs.FLOAT)
        p = abs(out.amplitude(6)) ** 2
        dense = grover_success_dense(3, 6, 2)
        assert abs(p - dense) <= 1e-12
        assert p == pytest.approx(0.9453125, abs=1e-12)
        assert p == pytest.approx(math.sin(5 * math.asin(1 / math.sqrt(8))) ** 2, abs=1e-12)

    def test_matches_dense_matrix_simulation(self):
        rng = np.random.Generator(np.random.PCG64(14))
        for n in (2, 3, 4):
            marked = int(rng.integers(1 << n))
            iters = cs.grover_optimal_iterations(n, 1)
            f = BooleanOracle.from_marked(n, [marked])
            out = cs.simulate(cs.build_grover(n, f, iters), cs.FLOAT)
            p = abs(out.amplitude(marked)) ** 2
            assert abs(p - grover_success_dense(n, marked, iters)) <= 1e-12

    @pytest.mark.parametrize(
        "n,f,iterations,message",
        [
            (0, F0_1, 1, "register size must be >= 1, got 0"),
            (2, F0_1, 1, "oracle arity 1 does not match n=2"),
            (1, F0_1, -1, "iteration count must be >= 0"),
        ],
    )
    def test_rejects_bad_input(self, n, f, iterations, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cs.build_grover(n, f, iterations)

    def test_exact_backend_agrees(self):
        f = BooleanOracle.from_marked(2, [3])
        exact = cs.simulate(cs.build_grover(2, f, 1))
        assert exact.amplitude(3) in (DyadicReal(1, 0, 0), DyadicReal(-1, 0, 0))


class TestGroverOptimalIterations:
    @pytest.mark.parametrize("n,m,want", [(2, 1, 1), (4, 1, 3), (10, 1, 25)])
    def test_values(self, n, m, want):
        assert cs.grover_optimal_iterations(n, m) == want

    def test_rejects_zero_marked(self):
        with pytest.raises(ValueError):
            cs.grover_optimal_iterations(3, 0)

    def test_rejects_empty_register(self):
        with pytest.raises(ValueError, match=r"^register size must be >= 1, got 0$"):
            cs.grover_optimal_iterations(0, 1)


class TestCircuitValidation:
    def test_rejects_empty_width(self):
        with pytest.raises(ValueError, match=r"^circuit width must be >= 1, got 0$"):
            Circuit(0, ())

    def test_rejects_unknown_op(self):
        with pytest.raises(TypeError, match=r"^unknown op 'x'$"):
            Circuit(1, ("x",))

    def test_duplicate_checkpoint_labels(self):
        with pytest.raises(ValueError):
            Circuit(1, (Checkpoint("a"), Checkpoint("a")))

    def test_out_of_range_ops(self):
        with pytest.raises(ValueError):
            Circuit(2, (GatePlacement((3,), cs.hadamard()),))
        with pytest.raises(ValueError):
            Circuit(2, (GatePlacement((1, 1), cs.comparison_gate()),))
        # A gate's size must match its qubit count.
        with pytest.raises(ValueError):
            Circuit(2, (GatePlacement((1,), cs.comparison_gate()),))
        with pytest.raises(ValueError):
            Circuit(2, (GatePlacement((1, 2), cs.hadamard()),))
        with pytest.raises(ValueError):
            Circuit(2, (PhaseOraclePlacement(2, constant_oracle(2, 0)),))
        with pytest.raises(ValueError):
            Circuit(2, (PhaseOraclePlacement(0, constant_oracle(1, 0)),))


class TestKnownZeros:
    """``_zeros`` marks the qubits known to read 0 on every nonzero
    amplitude: every qubit of |0...0>, none of a state built from a plane."""

    F = BooleanOracle(2, 0b0110)

    @pytest.mark.parametrize("backend", cs.BACKENDS)
    def test_states_from_planes_mark_no_qubit(self, backend):
        n = 2
        built = [
            StateVector.from_amplitudes([1, 0, 0, 0], backend),
            StateVector._from_plane(StateVector(2, backend)._plane.copy()),
            cs.psi1(n, backend),
            cs.psi2(n, self.F, backend),
            cs.psi2a(n, self.F, backend),
            cs.psi3(n, self.F, backend),
            cs.target_output(n, self.F, backend),
            circuit._simulate_rows(cs.build_comparison_search(n, self.F),
                                   np.ones((4, 1 << n), np.int64), backend),
        ]
        assert [s._zeros for s in built] == [0] * len(built)
        # |0...0> itself, psi0 among its forms, marks every qubit.
        assert (StateVector(3, backend)._zeros, cs.psi0(n, backend)._zeros) == (0b111, 0b1111)

    @pytest.mark.parametrize("backend", cs.BACKENDS)
    def test_copies_and_checkpoints_keep_the_mask(self, backend):
        s = cs.apply_gate1(StateVector(4, backend), 2, cs.hadamard())
        assert s._zeros == s.copy()._zeros == 0b1011
        trace = cs.run_with_trace(cs.build_comparison_search(2, self.F), StateVector(4, backend))
        masks = {label: trace[label]._zeros for label in trace.checkpoints}
        assert masks == {"psi0": 0b1111, "psi1": 0, "psi2": 0, "psi2a": 0, "psi3": 0}

    def test_hadamard_layer_neither_reduces_nor_rescans(self):
        # Every Hadamard of the layer acts on qubits known to read 0, so no
        # integer grows: the plane stays int8 with bound 1.
        c = cs.build_comparison_search(6, BooleanOracle(6, 0x5A))
        s = StateVector(c.width)
        for op in c.ops[1:c.ops.index(Checkpoint("psi1"))]:
            cs.apply_gate1(s, *op.qubits, op.gate)
        assert s._plane.dtype == np.int8
        assert (s._bound, s._e, s._zeros) == (1, 12, 0)
        assert s == cs.psi1(6)
