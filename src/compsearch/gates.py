"""Gate definitions and application kernels.

A :class:`Gate` is one named matrix over the dyadic sqrt(2) ring, 2x2
for a gate on one qubit or 4x4 for a gate on an ordered pair; the paper
needs two, the Hadamard and the comparison gate, which couples a
first-register qubit i with its partner i+n in the second register.
Basis order inside a two-qubit gate applied to the ordered pair (p, q)
is |b_p b_q>, i.e. row index 2*(bit at p) + (bit at q); the comparison
gate's matrix is only consistent with its per-qubit action formula under
this first-qubit-major order (checked column by column in the tests).
One check, :func:`_check_placement`, guards both the kernel and
:class:`~compsearch.circuit.Circuit`: the qubits must be distinct and in
range, and a gate applied to k of them must be 2^k square, or it raises
ValueError before any write.  A phase oracle's register window has one
check too, :func:`compsearch.state._qubit_range`, which the kernel and
circuits share with the probability tables.

Every gate is (1/sqrt(2))^e times a matrix S of 0 and +-1, for one
e >= 0, and compiles once, when it is built, into in-place ufunc steps
that apply S to one plane (see :mod:`compsearch.state`); a row of two
terms is one add or subtract.  One kernel runs those steps on the plane
of either backend, for both arities.  A float chunk is first scaled by
s = (1/sqrt(2))^e.  As fl(+-s x) = +-fl(s x) and fl(a + (-b)) =
fl(a - b), signed zeros included, each amplitude is bit for bit the sum
of fl(G[i, j] x_j) that unscaled steps would give.  An exact plane
takes S as it is, and the state's exponent grows by e.  Kernels mutate
the state in place and return it.  Oracles are applied as diagonal
sign flips over a register window rather than materialized matrices, so
every application is O(2^m).
"""

from __future__ import annotations

import functools

import numpy as np

from .dyadic import DyadicReal
from .state import EXACT, BooleanOracle, StateVector, _qubit_range


def _compile(signs) -> tuple:
    """The steps that apply the 0/+-1 matrix ``signs`` to one plane:
    ``(steps, saves, growth)``.

    The kernel lists the plane's slot arrays (gate slot j at j), then
    copies of the ``saves`` slots, which some row reads after an earlier
    row overwrote them.  Each step ``(ufunc, x, y, y_is_slot, out)`` is
    one call ``ufunc(arrays[x], arrays[y] if y_is_slot else y,
    out=arrays[out])``.  No integer grows by more than the factor
    ``growth``, the most nonzero entries of a row.
    """
    dim = len(signs)
    written, saves, steps = set(), [], []

    def slot(j: int) -> int:
        if j not in written:
            return j
        if j not in saves:
            saves.append(j)
        return dim + saves.index(j)

    for i, row in enumerate(signs):
        # An all-zero row keeps one zero term, so that it writes zeros.
        terms = [(c, j) for j, c in enumerate(row) if c] or [(0, 0)]
        if len(terms) <= 2:
            # Reading the output's own slot first saves copying it; a sum
            # of two terms is unchanged by the order, signed zeros included.
            terms.sort(key=lambda t: t[1] != i)
        units = [c for c, _ in terms[:2]]
        if len(units) == 2 and units != [-1, -1]:
            # c0 x0 + c1 x1 with unit coefficients is one add or subtract.
            x0, x1 = (slot(j) for _, j in terms[:2])
            if units[0] == -1:
                x0, x1 = x1, x0
            steps.append((np.add if units[0] == units[1] else np.subtract, x0, x1, True, i))
            rest = terms[2:]
        else:
            (c, j), *rest = terms
            x = slot(j)
            if not (x == i and c == 1):
                steps.append((np.multiply, x, c, False, i))
        written.add(i)
        for c, j in rest:
            steps.append((np.add if c == 1 else np.subtract, i, slot(j), True, i))
    growth = max(sum(map(abs, row)) for row in signs)
    return tuple(steps), tuple(saves), growth


class Gate:
    """A named 2x2 or 4x4 matrix over the dyadic sqrt(2) ring: a gate on
    one qubit (basis |0>, |1>) or on an ordered pair (p, q) (basis
    |b_p b_q>).  Entries are DyadicReal or int, and every nonzero one is
    +-(1/sqrt(2))^e for one e >= 0: the gate is (1/sqrt(2))^e times a
    matrix of 0 and +-1.  Any other shape or matrix raises ValueError,
    and a non-integer entry TypeError."""

    __slots__ = ("name", "matrix", "dim", "_e", "_scale", "_steps")

    def __init__(self, name: str, rows) -> None:
        self.name = name
        self.matrix = tuple(
            tuple(e if isinstance(e, DyadicReal) else DyadicReal.from_int(e) for e in row)
            for row in rows
        )
        self.dim = len(self.matrix)
        if self.dim not in (2, 4) or any(len(row) != self.dim for row in self.matrix):
            raise ValueError(f"gate {name!r} needs a 2x2 or 4x4 matrix")
        units = {abs(e) for row in self.matrix for e in row if e} or {DyadicReal(1, 0)}
        unit = units.pop()
        # 1/sqrt(2)^e is 1/2^h for e = 2h, and sqrt(2)/2^h for e = 2h - 1.
        self._e = 2 * unit.h - unit.b
        if units or (unit.a, unit.b) not in ((1, 0), (0, 1)) or self._e < 0:
            raise ValueError(
                f"gate {name!r} needs every nonzero entry to be +-(1/sqrt(2))^e for one e >= 0"
            )
        self._scale = unit.to_float()
        self._steps = _compile([[e.sign() for e in row] for row in self.matrix])

    def __repr__(self) -> str:
        return f"Gate({self.name})"


_C = DyadicReal(0, 1, 1)  # 1/sqrt(2)

_HADAMARD = Gate("H", ((_C, _C), (_C, -_C)))
_COMPARISON = Gate(
    "C",
    (
        (_C, 0, _C, 0),
        (0, _C, 0, -_C),
        (-_C, 0, _C, 0),
        (0, _C, 0, _C),
    ),
)


def hadamard() -> Gate:
    """(1/sqrt(2)) [[1, 1], [1, -1]]."""
    return _HADAMARD


def comparison_gate() -> Gate:
    """The register-comparison coupling gate

        (1/sqrt(2)) [[ 1, 0, 1, 0],
                     [ 0, 1, 0,-1],
                     [-1, 0, 1, 0],
                     [ 0, 1, 0, 1]]

    acting on (first-register qubit i, second-register qubit i+n)."""
    return _COMPARISON


def _apply(state: StateVector, qubits: tuple[int, ...], gate: Gate) -> StateVector:
    """Apply ``gate`` to the ordered ``qubits`` of ``state``, in place.

    Raises ValueError, before any write, unless the qubits are distinct
    and in range and the gate's matrix is 2^len(qubits) square.
    Gate slot r has the bit of qubits[t] at position len(qubits) - 1 - t
    (first qubit most significant).  The state's plane is viewed as
    (pre, 2, [mid, 2,] post) around the sorted qubits and walked chunk
    by chunk (see :func:`_layout`).  A float chunk is first scaled by
    (1/sqrt(2))^e; then the slots that a row reads after an earlier row
    overwrote them are copied, and the compiled steps write each output
    slot in place by ufuncs with ``out=``.  An exact state's exponent
    then grows by e.  Exact integers are checked against the state's
    tracked bound, so a gate raises OverflowError before any write.
    """
    _check_placement(state.num_qubits, qubits, gate.dim)
    steps, saves, growth = gate._steps
    exact = state.backend == EXACT
    if exact:
        state._make_room(growth)
    scale = 1 if exact else gate._scale
    shape, slots, chunks, perm = _layout(state.num_qubits, qubits)
    view = state._plane.reshape(shape)
    for chunk in chunks:
        region = view[chunk] if chunk else view
        if scale != 1:
            np.multiply(region, scale, out=region)
        arrays = [region[i] for i in slots]
        if perm:
            arrays = [a.transpose(perm) for a in arrays]
        arrays += [arrays[j].copy() for j in saves]
        for ufunc, x, y, y_is_slot, out in steps:
            ufunc(arrays[x], arrays[y] if y_is_slot else y, out=arrays[out], order="C")
    if exact:
        state._e += gate._e
        state._bound *= growth
    elif not np.isfinite(state._plane).all():
        raise ArithmeticError("non-finite amplitude in float backend")
    return state


@functools.lru_cache(maxsize=1024)
def _check_placement(m: int, qubits: tuple[int, ...], dim: int) -> None:
    """Raise ValueError unless ``qubits`` are distinct qubits of 1..m and
    a dim x dim gate acts on that many: dim = 2^len(qubits).  The one
    check of a gate's qubits, for the kernel and for circuits; cached, as
    they repeat a few placements many times."""
    for q in qubits:
        if not 1 <= q <= m:
            raise ValueError(f"qubit {q} out of range 1..{m}")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"gate qubits {qubits} are not distinct")
    if dim != 1 << len(qubits):
        raise ValueError(f"a {dim}x{dim} gate cannot act on {len(qubits)} qubit(s)")


# Amplitudes per slot that one chunk of a gate covers, so that every
# step of the chunk runs in cache, and the inner-axis length below which
# a chunk's slots are iterated along their longest axis instead.
_CHUNK = 1 << 14
_SHORT_INNER = 8


@functools.lru_cache(maxsize=1024)
def _layout(m: int, qubits: tuple[int, ...]) -> tuple:
    """How the kernel walks a plane for a gate on ``qubits``:
    ``(shape, slots, chunks, perm)``.

    ``shape`` views a plane as (pre, 2, [mid, 2,] post) around the sorted
    qubits; ``slots`` holds, per gate slot, the index of that slot's
    amplitudes in the view or in a chunk of it.  ``chunks`` index the
    view, each keeping the gate axes whole and covering about ``_CHUNK``
    amplitudes per slot: whole outer indices while the rest is larger,
    then a slice of the next axis.  ``perm``, when set, reorders the axes
    of a chunk's slots so that their longest one is innermost; ufuncs
    then run in that (C) order, as numpy would otherwise loop innermost
    over a short post axis.
    """
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
    chunks = [()]
    dims = shape[::2]
    inner = 1 << (m - k)
    for axis in range(0, len(shape), 2):
        if inner <= _CHUNK:
            break
        inner //= shape[axis]
        step = max(1, _CHUNK // inner)
        dims[axis // 2] = step
        gap = (slice(None),) if axis else ()
        cuts = [slice(i, i + step) for i in range(0, shape[axis], step)]
        chunks = [c + gap + (cut,) for c in chunks for cut in cuts]
    perm = None
    longest = max(range(len(dims)), key=dims.__getitem__)
    if len(chunks) > 1 and dims[-1] < _SHORT_INNER and longest != len(dims) - 1:
        perm = tuple(t for t in range(len(dims)) if t != longest) + (longest,)
    return tuple(shape), tuple(slots), tuple(chunks), perm


def apply_gate1(state: StateVector, q: int, gate: Gate) -> StateVector:
    """Mix the amplitude pairs that differ in bit q by the 2x2 ``gate``."""
    return _apply(state, (q,), gate)


def apply_gate2(state: StateVector, p: int, q: int, gate: Gate) -> StateVector:
    """Apply the 4x4 ``gate`` to the ordered (possibly nonadjacent) pair (p, q)."""
    return _apply(state, (p, q), gate)


def apply_phase_oracle(state: StateVector, f: BooleanOracle, reg_start: int) -> StateVector:
    """Multiply every basis state whose window bits read k by (-1)^f(k).

    The window is qubits reg_start .. reg_start + n - 1.
    """
    return _apply_signs(state, f.sign_array()[None], reg_start)


def _apply_signs(state: StateVector, signs: np.ndarray, reg_start: int) -> StateVector:
    """The phase oracles of R oracles on n bits at once, in place: in row
    r of ``state``, multiply every basis state whose window bits read k
    by signs[r, k], for a sign table of shape (R, 2^n).

    R and 2^n must be powers of two, or ValueError is raised before any
    write.  Row r is the part of the state whose trailing log2 R qubits
    read r, and the window is qubits reg_start .. reg_start + n - 1 of
    the leading qubits, so R = 1 is one oracle on the whole state.
    """
    rows, size = signs.shape
    if rows < 1 or size < 1 or rows & (rows - 1) or size & (size - 1):
        raise ValueError(f"sign table shape {signs.shape} is not a power of two by 2^n")
    n = size.bit_length() - 1
    m = state.num_qubits - (rows.bit_length() - 1)
    pre, _, post = _qubit_range(m, reg_start, reg_start + n - 1)
    view = state._plane.reshape(pre, size, post, rows)
    view *= signs.T[None, :, None, :]
    return state
