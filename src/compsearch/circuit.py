"""Circuit construction and execution with checkpoint capture.

The comparison-search circuit acts on two n-qubit registers (width 2n):
a Hadamard on every qubit, a phase oracle on the second register, then
one comparison gate per qubit pair (i, i+n) for i = n down to 1.  Named
checkpoints psi0 .. psi3 bracket each stage so intermediate states can
be compared against their closed forms.

A small Grover builder is included as the contrast case: oracle plus
diffusion (Hadamard layer, phase flip on every nonzero state, Hadamard
layer) repeated a chosen number of times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gates
from .state import EXACT, BooleanOracle, StateVector, _check_register, _qubit_range

PSI0, PSI1, PSI2, PSI2A, PSI3 = "psi0", "psi1", "psi2", "psi2a", "psi3"
CHECKPOINT_LABELS = (PSI0, PSI1, PSI2, PSI2A, PSI3)


@dataclass(frozen=True)
class GatePlacement:
    """``gate`` on the ordered ``qubits``: one qubit for a 2x2 gate, two
    for a 4x4 one."""

    qubits: tuple[int, ...]
    gate: gates.Gate


@dataclass(frozen=True)
class PhaseOraclePlacement:
    reg_start: int
    oracle: BooleanOracle


@dataclass(frozen=True)
class Checkpoint:
    label: str


CircuitOp = GatePlacement | PhaseOraclePlacement | Checkpoint


@dataclass(frozen=True)
class Circuit:
    width: int
    ops: tuple[CircuitOp, ...]

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"circuit width must be >= 1, got {self.width}")
        seen = set()
        for op in self.ops:
            if isinstance(op, GatePlacement):
                gates._check_placement(self.width, op.qubits, op.gate.dim)
            elif isinstance(op, PhaseOraclePlacement):
                _qubit_range(self.width, op.reg_start, op.reg_start + op.oracle.n - 1)
            elif isinstance(op, Checkpoint):
                if op.label in seen:
                    raise ValueError(f"duplicate checkpoint label {op.label!r}")
                seen.add(op.label)
            else:
                raise TypeError(f"unknown op {op!r}")


@dataclass
class Trace:
    """Snapshots captured at each checkpoint, plus the final state."""

    checkpoints: dict[str, StateVector] = field(default_factory=dict)
    final: StateVector | None = None

    def __getitem__(self, label: str) -> StateVector:
        return self.checkpoints[label]


def build_comparison_search(n: int, f: BooleanOracle) -> Circuit:
    """The two-register comparison-search circuit for an n-bit oracle.

    Width 2n.  Sequence: psi0; H on qubits 1..2n; psi1; phase oracle on
    the second register (qubits n+1..2n); psi2; comparison gate on
    (n, 2n); psi2a; comparison gates on (n-1, 2n-1), ..., (1, n+1); psi3.
    For n = 1 the single comparison gate makes psi2a and psi3 coincide;
    both labels are still emitted.
    """
    _check_register(n, f)
    ops: list[CircuitOp] = [Checkpoint(PSI0)]
    ops += [GatePlacement((q,), gates.hadamard()) for q in range(1, 2 * n + 1)]
    ops.append(Checkpoint(PSI1))
    ops.append(PhaseOraclePlacement(n + 1, f))
    ops.append(Checkpoint(PSI2))
    ops.append(GatePlacement((n, 2 * n), gates.comparison_gate()))
    ops.append(Checkpoint(PSI2A))
    for i in range(n - 1, 0, -1):
        ops.append(GatePlacement((i, i + n), gates.comparison_gate()))
    ops.append(Checkpoint(PSI3))
    return Circuit(2 * n, tuple(ops))


def _nonzero_marker(n: int) -> BooleanOracle:
    """Oracle marking every k != 0; used for the diffusion phase flip."""
    return BooleanOracle(n, ((1 << (1 << n)) - 1) & ~1)


def build_grover(n: int, f: BooleanOracle, iterations: int) -> Circuit:
    """Grover search: H layer, then ``iterations`` rounds of oracle plus
    diffusion (H layer, phase flip on all nonzero states, H layer)."""
    _check_register(n, f)
    if iterations < 0:
        raise ValueError("iteration count must be >= 0")
    h_layer = [GatePlacement((q,), gates.hadamard()) for q in range(1, n + 1)]
    flip = PhaseOraclePlacement(1, _nonzero_marker(n))
    ops: list[CircuitOp] = list(h_layer)
    for _ in range(iterations):
        ops.append(PhaseOraclePlacement(1, f))
        ops += h_layer
        ops.append(flip)
        ops += h_layer
    return Circuit(n, tuple(ops))


def grover_optimal_iterations(n: int, num_marked: int) -> int:
    """floor((pi/4) * sqrt(2^n / num_marked))."""
    _check_register(n)
    if not 1 <= num_marked <= (1 << n):
        raise ValueError(f"marked count {num_marked} out of range for n={n}")
    return math.floor((math.pi / 4) * math.sqrt((1 << n) / num_marked))


def _start_state(circuit: Circuit, s0: StateVector) -> StateVector:
    if s0.num_qubits != circuit.width:
        raise ValueError(
            f"state has {s0.num_qubits} qubits, circuit needs {circuit.width}"
        )
    if not s0.is_normalized():
        raise ValueError("initial state is not normalized")
    return s0.copy()


def _run(
    circuit: Circuit,
    state: StateVector,
    trace: Trace | None = None,
    signs: np.ndarray | None = None,
) -> StateVector:
    """Apply the circuit to ``state`` in place, snapshotting it into
    ``trace`` at every checkpoint when one is given.  With a sign table
    ``signs``, the state holds one row per row of the table on its
    trailing qubits, and each gate acts on its own qubits of every row
    (see :func:`_simulate_rows`)."""
    for op in circuit.ops:
        if isinstance(op, Checkpoint):
            if trace is not None:
                trace.checkpoints[op.label] = state.copy()
        elif isinstance(op, GatePlacement):
            # Through the module, so that wrappers of these names see the call.
            apply = gates.apply_gate1 if len(op.qubits) == 1 else gates.apply_gate2
            apply(state, *op.qubits, op.gate)
        elif signs is None:
            gates.apply_phase_oracle(state, op.oracle, op.reg_start)
        else:
            gates._apply_signs(state, signs, op.reg_start)
    state._canonical_reduce()
    return state


def run(circuit: Circuit, s0: StateVector) -> StateVector:
    """Execute the circuit on a copy of ``s0`` and return the final state."""
    return _run(circuit, _start_state(circuit, s0))


def run_with_trace(circuit: Circuit, s0: StateVector) -> Trace:
    """Like :func:`run`, also snapshotting the state at every checkpoint."""
    trace = Trace()
    trace.final = _run(circuit, _start_state(circuit, s0), trace)
    return trace


def simulate(circuit: Circuit, backend: str = EXACT) -> StateVector:
    """Run the circuit from |0...0> on the chosen backend."""
    return _run(circuit, StateVector(circuit.width, backend))


def _simulate_rows(circuit: Circuit, signs: np.ndarray, backend: str) -> StateVector:
    """Run the circuit from |0...0> once per row of the sign table
    ``signs``, all at once: in run r every phase oracle of the circuit
    multiplies by signs[r] (see :func:`gates._apply_signs`) in place of
    its own oracle's signs.

    The runs go as one state of width + log2 R qubits, for R = len(signs)
    a power of two, with run r where its trailing log2 R qubits read r.
    A gate on qubit q of a run is then the same gate on qubit q of that
    state, whose long inner axis keeps the kernels fast, and the kernels
    need no batch axis.  The result keeps that layout: run r's final
    state is column r of ``plane.reshape(-1, R)``.  The circuit's qubits
    start known to read 0, as in one run from |0...0>.
    """
    rows = len(signs)
    lanes = rows.bit_length() - 1
    state = StateVector(lanes + circuit.width, backend)
    state._plane[:rows] = 1
    state._zeros = ((1 << circuit.width) - 1) << lanes
    return _run(circuit, state, signs=signs)
