"""Gate definitions and application kernels.

Single-qubit gates are 2x2 matrices over the dyadic sqrt(2) ring; the
two-qubit comparison gate couples a first-register qubit i with its
partner i+n in the second register.  Basis order inside a two-qubit gate
applied to the ordered pair (p, q) is |b_p b_q>, i.e. row index
2*(bit at p) + (bit at q); the comparison gate's matrix is only
consistent with its per-qubit action formula under this first-qubit-major
order (checked column by column in the tests).

Every gate compiles once per backend into rows over the state's planes
(see :mod:`compsearch.state`), and one kernel applies those rows for
both backends and both arities.  Kernels mutate the state in place and
return it.  Oracles are applied as diagonal sign flips over a register
window rather than materialized matrices, so every application is
O(2^m).
"""

from __future__ import annotations

import functools

import numpy as np

from .dyadic import DyadicReal
from .state import EXACT, FLOAT, BooleanOracle, StateVector


class _GateBase:
    """Shared plumbing for small dyadic gate matrices."""

    __slots__ = ("name", "matrix", "_cache")

    def __init__(self, name: str, rows) -> None:
        self.name = name
        self.matrix = tuple(
            tuple(e if isinstance(e, DyadicReal) else DyadicReal.from_int(e) for e in row)
            for row in rows
        )
        self._cache = {}

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def float_matrix(self) -> np.ndarray:
        return np.array(
            [[e.to_float() for e in row] for row in self.matrix], dtype=np.complex128
        )

    def _compiled(self, backend: str) -> tuple[list, int, int]:
        """The gate as ``(rows, g, growth)`` over ``backend``'s planes.

        Each row ``(out_plane, out_slot, ((coef, in_plane, in_slot), ...))``
        writes one output slot as a sum over input slots, zero
        coefficients dropped; a slot is a basis index of the gate.  The
        state's exponent grows by ``g`` and no integer grows by more than
        the factor ``growth``, the largest row 1-norm.  Cached per backend.
        """
        if backend not in self._cache:
            dim = range(self.dim)
            if backend == FLOAT:
                G = self.float_matrix()
                g, rows = 0, [(0, i, [(G[i, j], 0, j) for j in dim]) for i in dim]
            else:
                # entry (A + B sqrt2) / 2^g times amplitude (a + b sqrt2)
                # is (A a + 2 B b) + (B a + A b) sqrt2, over 2^g.
                g = max(e.h for row in self.matrix for e in row)
                rows = []
                for i, row in enumerate(self.matrix):
                    A = [e.a << (g - e.h) for e in row]
                    B = [e.b << (g - e.h) for e in row]
                    a = [(A[j], 0, j) for j in dim] + [(2 * B[j], 1, j) for j in dim]
                    b = [(A[j], 1, j) for j in dim] + [(B[j], 0, j) for j in dim]
                    rows += [(0, i, a), (1, i, b)]
            # An all-zero row keeps one zero term, so that it writes zeros.
            rows = [
                (plane, i, tuple(t for t in terms if t[0] != 0) or terms[:1])
                for plane, i, terms in rows
            ]
            growth = max(sum(abs(t[0]) for t in terms) for _, _, terms in rows)
            self._cache[backend] = (rows, g, growth)
        return self._cache[backend]

    def is_unitary(self) -> bool:
        """Exact check of G^T G = I (all gates here are real)."""
        n = self.dim
        for i in range(n):
            for j in range(n):
                acc = DyadicReal(0, 0)
                for k in range(n):
                    acc = acc + self.matrix[k][i] * self.matrix[k][j]
                if acc != (1 if i == j else 0):
                    return False
        return True

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class Gate1(_GateBase):
    """A 2x2 gate; basis order |0>, |1>."""

    def __init__(self, name: str, rows) -> None:
        super().__init__(name, rows)
        if self.dim != 2 or any(len(r) != 2 for r in self.matrix):
            raise ValueError("Gate1 needs a 2x2 matrix")


class Gate2(_GateBase):
    """A 4x4 gate on an ordered qubit pair (p, q); basis |b_p b_q>."""

    def __init__(self, name: str, rows) -> None:
        super().__init__(name, rows)
        if self.dim != 4 or any(len(r) != 4 for r in self.matrix):
            raise ValueError("Gate2 needs a 4x4 matrix")

    def swapped(self) -> Gate2:
        """The same operator expressed for the reversed pair (q, p)."""
        perm = (0, 2, 1, 3)  # swap the two bits of each basis index
        rows = tuple(
            tuple(self.matrix[perm[i]][perm[j]] for j in range(4)) for i in range(4)
        )
        return Gate2(self.name + "_swapped", rows)


_C = DyadicReal(0, 1, 1)  # 1/sqrt(2)

_HADAMARD = Gate1("H", ((_C, _C), (_C, -_C)))
_PAULI_X = Gate1("X", ((0, 1), (1, 0)))
_PAULI_Z = Gate1("Z", ((1, 0), (0, -1)))
_IDENTITY1 = Gate1("I", ((1, 0), (0, 1)))
_COMPARISON = Gate2(
    "C",
    (
        (_C, 0, _C, 0),
        (0, _C, 0, -_C),
        (-_C, 0, _C, 0),
        (0, _C, 0, _C),
    ),
)
_IDENTITY2 = Gate2("I2", tuple(tuple(int(i == j) for j in range(4)) for i in range(4)))


def hadamard() -> Gate1:
    """(1/sqrt(2)) [[1, 1], [1, -1]]."""
    return _HADAMARD


def pauli_x() -> Gate1:
    return _PAULI_X


def pauli_z() -> Gate1:
    return _PAULI_Z


def identity_gate1() -> Gate1:
    return _IDENTITY1


def identity_gate2() -> Gate2:
    return _IDENTITY2


def comparison_gate() -> Gate2:
    """The register-comparison coupling gate

        (1/sqrt(2)) [[ 1, 0, 1, 0],
                     [ 0, 1, 0,-1],
                     [-1, 0, 1, 0],
                     [ 0, 1, 0, 1]]

    acting on (first-register qubit i, second-register qubit i+n)."""
    return _COMPARISON


def _check_qubit(state: StateVector, q: int) -> None:
    if not 1 <= q <= state.num_qubits:
        raise ValueError(f"qubit {q} out of range 1..{state.num_qubits}")


def _apply(state: StateVector, qubits: tuple[int, ...], gate: _GateBase) -> StateVector:
    """Apply ``gate`` to the ordered ``qubits`` of ``state``, in place.

    Gate slot r has the bit of qubits[t] at position len(qubits) - 1 - t
    (first qubit most significant).  Each plane is viewed as
    (pre, 2, [mid, 2,] post) around the sorted qubits, the input slots
    are copied, and each compiled row is written into its output slot.
    """
    rows, g, growth = gate._compiled(state.backend)
    exact = state.backend == EXACT
    if exact:
        state._guard_growth(growth)
    shape, slots = _layout(state.num_qubits, qubits)
    views = [p.reshape(shape) for p in state._planes]
    inputs = [[view[index].copy() for index in slots] for view in views]
    for out_plane, out_slot, terms in rows:
        out = views[out_plane][slots[out_slot]]
        (coef, plane, slot), *rest = terms
        np.multiply(inputs[plane][slot], coef, out=out)
        for coef, plane, slot in rest:
            x = inputs[plane][slot]
            if coef == 1:
                out += x
            elif coef == -1:
                out -= x
            else:
                # In-place add, so the product is freed before the next term.
                out += coef * x
    if exact:
        state._h += g
        state._canonical_reduce()
    else:
        state._check_finite()
    return state


@functools.lru_cache(maxsize=1024)
def _layout(m: int, qubits: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """Plane view shape around the sorted ``qubits`` and, per gate slot,
    the index of that slot's amplitudes in the view."""
    order = sorted(qubits)
    shape = []
    for prev, q in zip([0] + order, order):
        shape += [1 << (q - prev - 1), 2]
    shape.append(1 << (m - order[-1]))
    k = len(qubits)
    slots = []
    for r in range(1 << k):
        index = [slice(None)]
        for q in order:
            index += [(r >> (k - 1 - qubits.index(q))) & 1, slice(None)]
        slots.append(tuple(index))
    return tuple(shape), tuple(slots)


def apply_gate1(state: StateVector, q: int, gate: Gate1) -> StateVector:
    """Mix the amplitude pairs that differ in bit q by ``gate``."""
    _check_qubit(state, q)
    return _apply(state, (q,), gate)


def apply_gate2(state: StateVector, p: int, q: int, gate: Gate2) -> StateVector:
    """Apply ``gate`` to the ordered (possibly nonadjacent) pair (p, q)."""
    _check_qubit(state, p)
    _check_qubit(state, q)
    if p == q:
        raise ValueError("two-qubit gate needs distinct qubits")
    return _apply(state, (p, q), gate)


def apply_phase_oracle(state: StateVector, f: BooleanOracle, reg_start: int) -> StateVector:
    """Multiply every basis state whose window bits read k by (-1)^f(k).

    The window is qubits reg_start .. reg_start + n - 1.
    """
    m = state.num_qubits
    if not (1 <= reg_start and reg_start + f.n - 1 <= m):
        raise ValueError(
            f"oracle window {reg_start}..{reg_start + f.n - 1} out of range 1..{m}"
        )
    pre = 1 << (reg_start - 1)
    post = 1 << (m - (reg_start + f.n - 1))
    signs = f.sign_array()[None, :, None]
    for plane in state._planes:
        view = plane.reshape(pre, 1 << f.n, post)
        view *= signs
    return state
