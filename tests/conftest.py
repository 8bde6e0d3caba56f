"""Shared helpers: independent dense-matrix oracles, an exact
amplitude-by-amplitude reference, the ancilla form of the phase oracle,
and random states.

The dense-matrix routines build full 2^m x 2^m operators with plain
numpy and serve as independent references for the reshape-based kernels
and for Grover success probabilities; they share no code with the
library's gate application paths.  The exact reference applies
DyadicReal matrices one amplitude at a time, and the ancilla helpers work
amplitude by amplitude through the public API, for the same reason.  The
X, Z and identity gates, the pair-reversed gate, basis states, the tensor
product, the unitarity check, sampling, empirical distributions,
constant oracles and float copies of states are built on the public
API too: the library itself needs none of them.  ``delta_identity`` sums
the parity identity that psi3 collapses by, literally.  ``report_dict``
renders a sweep report as one dict, the reference that the streamed
report is checked against, and ``sweep_report`` builds a report from
given columns.
"""

from __future__ import annotations

import numpy as np

import compsearch as cs


def dense_one_qubit(G: np.ndarray, q: int, m: int) -> np.ndarray:
    """Embed a 2x2 matrix acting on qubit q (1-based, MSB-first)."""
    N = 1 << m
    U = np.zeros((N, N), dtype=complex)
    shift = m - q
    for x in range(N):
        bq = (x >> shift) & 1
        for row in range(2):
            y = (x & ~(1 << shift)) | (row << shift)
            U[y, x] += G[row, bq]
    return U


def dense_two_qubit(G: np.ndarray, p: int, q: int, m: int) -> np.ndarray:
    """Embed a 4x4 matrix on the ordered pair (p, q), nonadjacent allowed."""
    N = 1 << m
    U = np.zeros((N, N), dtype=complex)
    sp, sq = m - p, m - q
    for x in range(N):
        col = 2 * ((x >> sp) & 1) + ((x >> sq) & 1)
        base = x & ~(1 << sp) & ~(1 << sq)
        for row in range(4):
            y = base | ((row >> 1) << sp) | ((row & 1) << sq)
            U[y, x] += G[row, col]
    return U


def dense_phase_oracle(f: cs.BooleanOracle, reg_start: int, m: int) -> np.ndarray:
    """Diagonal (-1)^f(k) matrix, k read from qubits reg_start .. reg_start + f.n - 1."""
    shift = m - (reg_start + f.n - 1)
    window = (np.arange(1 << m) >> shift) & ((1 << f.n) - 1)
    return np.diag([(-1.0) ** f(int(k)) for k in window])


_R = cs.DyadicReal(0, 1, 1)  # 1/sqrt(2)
_O = cs.DyadicReal(0, 0)
_I = cs.DyadicReal(1, 0)

# Literal DyadicReal matrices, independent of the library's gate
# definitions; basis |b_p b_q> for the two-qubit ones.
EXACT_MATRICES = {
    "H": ((_R, _R), (_R, -_R)),
    "X": ((_O, _I), (_I, _O)),
    "Z": ((_I, _O), (_O, -_I)),
    "C": ((_R, _O, _R, _O), (_O, _R, _O, -_R), (-_R, _O, _R, _O), (_O, _R, _O, _R)),
    # Controlled-H mixes entries with and without sqrt(2).
    "CH": ((_I, _O, _O, _O), (_O, _I, _O, _O), (_O, _O, _R, _R), (_O, _O, _R, -_R)),
    # H (x) H: every row has four nonzero entries, +-1/2.
    "HH": tuple(tuple(_R * _R * (-1) ** (i & j).bit_count() for j in range(4)) for i in range(4)),
}


def exact_apply(amps: list, matrix, qubits: tuple[int, ...], m: int) -> list:
    """Apply a k-qubit DyadicReal ``matrix`` to the ordered ``qubits``
    (first qubit most significant in the matrix index) of an m-qubit
    amplitude list, one amplitude at a time; returns a new list."""
    k = len(qubits)
    shifts = [m - q for q in qubits]
    mask = sum(1 << s for s in shifts)
    out = [_O] * len(amps)
    for x, amp in enumerate(amps):
        if amp == 0:
            continue
        col = sum(((x >> s) & 1) << (k - 1 - t) for t, s in enumerate(shifts))
        for row in range(1 << k):
            entry = matrix[row][col]
            if entry == 0:
                continue
            y = (x & ~mask) | sum(((row >> (k - 1 - t)) & 1) << s for t, s in enumerate(shifts))
            out[y] = out[y] + entry * amp
    return out


def exact_phase_oracle(amps: list, f: cs.BooleanOracle, reg_start: int, m: int) -> list:
    """(-1)^f(k) times each amplitude, k read from qubits reg_start .. reg_start + f.n - 1."""
    shift = m - (reg_start + f.n - 1)
    return [-amp if f((x >> shift) & ((1 << f.n) - 1)) else amp for x, amp in enumerate(amps)]


def grover_success_dense(n: int, marked: int, iterations: int) -> float:
    """Success probability from a dense-matrix Grover simulation."""
    N = 1 << n
    H1 = np.array([[1, 1], [1, -1]], dtype=float) / np.sqrt(2)
    H = np.array([[1.0]])
    for _ in range(n):
        H = np.kron(H, H1)
    oracle = np.eye(N)
    oracle[marked, marked] = -1.0
    flip_nonzero = -np.eye(N)
    flip_nonzero[0, 0] = 1.0
    step = H @ flip_nonzero @ H @ oracle
    state = H[:, 0].copy()
    for _ in range(iterations):
        state = step @ state
    return float(abs(state[marked]) ** 2)


def random_exact_state(num_qubits: int, rng: np.random.Generator, depth: int = 12) -> cs.StateVector:
    """Exactly normalized random state: a random gate word on a random
    basis state (every gate preserves the exact norm)."""
    s = basis_state(num_qubits, int(rng.integers(1 << num_qubits)))
    for _ in range(depth):
        kind = int(rng.integers(3)) if num_qubits >= 2 else int(rng.integers(2))
        if kind == 0:
            cs.apply_gate1(s, int(rng.integers(1, num_qubits + 1)), cs.hadamard())
        elif kind == 1:
            cs.apply_gate1(s, int(rng.integers(1, num_qubits + 1)), pauli_x())
        else:
            p, q = rng.choice(num_qubits, size=2, replace=False) + 1
            cs.apply_gate2(s, int(p), int(q), cs.comparison_gate())
    return s


def random_float_state(num_qubits: int, rng: np.random.Generator) -> cs.StateVector:
    """A random real unit vector (float amplitudes are real)."""
    v = rng.normal(size=1 << num_qubits)
    v /= np.linalg.norm(v)
    return cs.StateVector.from_amplitudes(v, cs.FLOAT)


def minus_state() -> cs.StateVector:
    """(|0> - |1>)/sqrt(2) in the exact backend."""
    inv = cs.DyadicReal(0, 1, 1)
    return cs.StateVector.from_amplitudes([inv, -inv])


def apply_ancilla_oracle(state: cs.StateVector, f: cs.BooleanOracle) -> cs.StateVector:
    """XOR-oracle form |k>|b> -> |k>|b xor f(k)>, ancilla the last qubit;
    returns a new state."""
    if state.num_qubits != f.n + 1:
        raise ValueError(
            f"ancilla oracle needs {f.n + 1} qubits, state has {state.num_qubits}"
        )
    amps = state.amplitudes()
    return cs.StateVector.from_amplitudes(
        [amps[x ^ f(x >> 1)] for x in range(len(amps))], state.backend
    )


def discard_minus_ancilla(state: cs.StateVector) -> cs.StateVector:
    """Drop a last qubit that is exactly |-> = (|0> - |1>)/sqrt(2) from an
    exact state.  Raises ValueError unless amp(x1) = -amp(x0) for every
    x, i.e. unless the ancilla is unentangled in that state."""
    if state.num_qubits < 2:
        raise ValueError("need at least two qubits to discard one")
    amps = state.amplitudes()
    if any(a1 != -a0 for a0, a1 in zip(amps[0::2], amps[1::2])):
        raise ValueError("ancilla is not exactly |-> (state is entangled or rotated)")
    sqrt2 = cs.DyadicReal(0, 1, 0)
    return cs.StateVector.from_amplitudes([a0 * sqrt2 for a0 in amps[0::2]])


_PAULI_X = cs.Gate("X", ((0, 1), (1, 0)))
_PAULI_Z = cs.Gate("Z", ((1, 0), (0, -1)))


def pauli_x() -> cs.Gate:
    return _PAULI_X


def pauli_z() -> cs.Gate:
    return _PAULI_Z


def identity_gate1() -> cs.Gate:
    return cs.Gate("I", ((1, 0), (0, 1)))


def identity_gate2() -> cs.Gate:
    return cs.Gate("I2", tuple(tuple(int(i == j) for j in range(4)) for i in range(4)))


def swapped(gate: cs.Gate) -> cs.Gate:
    """The same operator expressed for the reversed pair (q, p)."""
    perm = (0, 2, 1, 3)  # swap the two bits of each basis index
    rows = tuple(tuple(gate.matrix[perm[i]][perm[j]] for j in range(4)) for i in range(4))
    return cs.Gate(gate.name + "_swapped", rows)


def is_unitary(gate: cs.Gate) -> bool:
    """Exact check of G^T G = I (all gates here are real)."""
    n = gate.dim
    for i in range(n):
        for j in range(n):
            acc = _O
            for k in range(n):
                acc = acc + gate.matrix[k][i] * gate.matrix[k][j]
            if acc != (1 if i == j else 0):
                return False
    return True


def basis_state(num_qubits: int, index: int, backend: str = cs.EXACT) -> cs.StateVector:
    """|index> on ``num_qubits`` qubits."""
    if not 0 <= index < 1 << num_qubits:
        raise ValueError(f"basis index {index} out of range")
    return cs.StateVector.from_amplitudes(
        [int(x == index) for x in range(1 << num_qubits)], backend
    )


def sample(state: cs.StateVector, count: int, seed: int = 0) -> np.ndarray:
    """Measure ``state`` ``count`` times in the computational basis."""
    return cs.sample_distribution(cs.distribution(state), count, seed)


def empirical_distribution(counts: np.ndarray, num_qubits: int) -> cs.Distribution:
    """Normalized counts as a float distribution."""
    if len(counts) != 1 << num_qubits:
        raise ValueError("count table size does not match qubit count")
    total = int(counts.sum())
    if total < 1:
        raise ValueError("empty counts")
    return cs.Distribution(counts.astype(np.float64) / total)


def tensor(s: cs.StateVector, t: cs.StateVector) -> cs.StateVector:
    """Kronecker product; ``s``'s qubits become the high bits."""
    if s.backend != t.backend:
        raise ValueError("backends differ")
    return cs.StateVector.from_amplitudes(
        [x * y for x in s.amplitudes() for y in t.amplitudes()], s.backend
    )


def constant_oracle(n: int, value: int) -> cs.BooleanOracle:
    """f(k) = value for every n-bit k."""
    if value not in (0, 1):
        raise ValueError("constant oracle value must be 0 or 1")
    return cs.BooleanOracle(n, ((1 << (1 << n)) - 1) if value else 0)


def to_float(s: cs.StateVector) -> cs.StateVector:
    """``s`` as a float state, amplitudes as by ``to_float_array``."""
    return cs.StateVector.from_amplitudes(s.to_float_array(), cs.FLOAT)


def delta_identity(n: int, k: int, l: int) -> int:
    """sum_j (-1)^(j.(k xor l)) by direct summation over all n-bit j.

    Equals 2^n when k = l and 0 otherwise; the summation is deliberately
    literal so that the identity is verified rather than assumed.
    """
    if n < 1:
        raise ValueError(f"width must be >= 1, got {n}")
    for name, v in (("k", k), ("l", l)):
        if not 0 <= v < (1 << n):
            raise ValueError(f"{name}={v} out of range for width {n}")
    d = k ^ l
    total = 0
    for j in range(1 << n):
        total += -1 if (j & d).bit_count() & 1 else 1
    return total


def report_dict(report: cs.SweepReport) -> dict:
    """The sweep report's summary plus one dict per verdict, keyed as the
    JSON report's ``results`` is."""
    return {
        **report.summary(),
        "verdicts": [
            {
                "oracle_id": v.oracle_id,
                "table": format(v.table, "#x"),
                "exact_match": v.exact_match,
                "max_dev": v.max_deviation,
                "tv_to_first": v.tv_to_first,
            }
            for v in report.verdicts
        ],
    }


def sweep_report(rows, **fields) -> cs.SweepReport:
    """A sweep report whose columns hold ``rows``, a list of ``(table,
    exact_match, max_deviation, tv_to_first)``: tables as uint64, or as
    Python ints where one of them passes 64 bits."""
    tables, match, dev, tv = zip(*rows) if rows else ((), (), (), ())
    wide = any(t >> 64 for t in tables)
    return cs.SweepReport(**fields, columns=(
        np.array(tables, dtype=object if wide else np.uint64),
        np.array(match, dtype=bool),
        np.array(dev, dtype=np.float64),
        np.array(tv, dtype=np.float64),
    ))
