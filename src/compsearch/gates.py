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

Every gate compiles once per backend into in-place ufunc steps over the
state's planes (see :mod:`compsearch.state`), and on the exact backend
once per pattern of zero planes, whose steps it leaves out.  A float
gate whose nonzero entries share one magnitude s != 1 (H and C) compiles
as G / s, whose entries are +-1: the kernel scales each chunk by s once,
and a row of two terms is then one add or subtract.  As
fl(+-s x) = +-fl(s x) and fl(a + (-b)) = fl(a - b), signed zeros
included, each amplitude is bit for bit the sum of fl(G[i, j] x_j) that
the unscaled steps give.  One kernel runs those steps for both backends
and both arities.  Kernels mutate the state in place and return it.
Oracles are applied as diagonal sign flips over a register window
rather than materialized matrices, so every application is O(2^m).
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .dyadic import DyadicReal
from .state import EXACT, FLOAT, BooleanOracle, StateVector, _qubit_range


class Gate:
    """A named 2x2 or 4x4 matrix over the dyadic sqrt(2) ring: a gate on
    one qubit (basis |0>, |1>) or on an ordered pair (p, q) (basis
    |b_p b_q>).  Entries are DyadicReal or int; any other shape raises
    ValueError, and a non-integer entry TypeError."""

    __slots__ = ("name", "matrix", "dim", "_cache")

    def __init__(self, name: str, rows) -> None:
        self.name = name
        self.matrix = tuple(
            tuple(e if isinstance(e, DyadicReal) else DyadicReal.from_int(e) for e in row)
            for row in rows
        )
        self.dim = len(self.matrix)
        if self.dim not in (2, 4) or any(len(row) != self.dim for row in self.matrix):
            raise ValueError(f"gate {name!r} needs a 2x2 or 4x4 matrix")
        self._cache = {}

    def float_matrix(self) -> np.ndarray:
        return np.array([[e.to_float() for e in row] for row in self.matrix])

    def _compiled(self, key) -> tuple:
        """The gate as ``(steps, saves, scratch, g, growth, swap, cross, scale)``,
        cached per ``key``: ``FLOAT``, or for an exact state the pair of
        flags saying which of its two planes is nonzero.

        The kernel lists the flat planes, the slot arrays of every plane
        (plane p, gate slot j at ``planes + p * dim + j``), copies of the
        ``saves`` slots, which some row reads after an earlier row
        overwrote them, and last, if ``scratch``, one scratch slot.  Each
        step ``(ufunc, x, y, y_is_slot, out)`` is one call
        ``ufunc(arrays[x], arrays[y] if y_is_slot else y, out=arrays[out])``.
        The exponent grows by ``g``, no integer grows by more than the
        factor ``growth``, and ``swap`` says the two exact planes trade
        places afterwards.  The steps and saved slots that write a zero
        exact plane are left out, as that plane stays zero, unless
        ``cross``: some row reads a plane other than the one it writes
        (controlled-H), and then every step runs.  The kernel multiplies
        each chunk by ``scale`` before it copies the saved slots; it is 1
        unless the float matrix was divided by its one magnitude.
        """
        if key not in self._cache:
            self._cache[key] = _compile(self, key)
        return self._cache[key]

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


def _compile(gate: Gate, key) -> tuple:
    """See :meth:`Gate._compiled`."""
    matrix = gate.matrix
    dim = range(gate.dim)
    exact = key != FLOAT
    live = key if exact else (True,)
    swap, scale = False, 1.0
    if not exact:
        G = gate.float_matrix()
        magnitudes = set(np.abs(G[G != 0]).tolist())
        if len(magnitudes) == 1:
            scale = magnitudes.pop()
            G = G / scale  # exactly +-1 where nonzero
        g, rows = 0, [(0, i, [(G[i, j], 0, j) for j in dim]) for i in dim]
    else:
        # entry (A + B sqrt2) / 2^g times amplitude (a + b sqrt2)
        # is (A a + 2 B b) + (B a + A b) sqrt2, over 2^g.
        g = max(e.h for row in matrix for e in row)
        A = [[e.a << (g - e.h) for e in row] for row in matrix]
        B = [[e.b << (g - e.h) for e in row] for row in matrix]
        swap = not any(map(any, A))
        rows = []
        for i in dim:
            if swap:
                # All A = 0: the new a = 2 B b overwrites b and the new
                # b = B a overwrites a, each plane mixed on its own.
                rows += [(0, i, [(B[i][j], 0, j) for j in dim]),
                         (1, i, [(2 * B[i][j], 1, j) for j in dim])]
            else:
                a = [(A[i][j], 0, j) for j in dim] + [(2 * B[i][j], 1, j) for j in dim]
                b = [(A[i][j], 1, j) for j in dim] + [(B[i][j], 0, j) for j in dim]
                rows += [(0, i, a), (1, i, b)]
    size = gate.dim
    planes = 2 if exact else 1
    first_saved = planes + planes * size
    written, saves, steps, shifts, growth = set(), [], [], {}, 1
    cross = any(p != plane for plane, _, terms in rows for c, p, _ in terms if c)

    def slot(p: int, j: int) -> int:
        if (p, j) not in written:
            return planes + p * size + j
        if (p, j) not in saves:
            saves.append((p, j))
        return first_saved + saves.index((p, j))

    for plane, i, terms in rows:
        # An all-zero row keeps one zero term, so that it writes zeros.
        terms = [t for t in terms if t[0] != 0] or terms[:1]
        shift = 0
        if exact:
            # Pull the terms' common power of two out as a final shift.
            common = functools.reduce(operator.or_, (c for c, _, _ in terms))
            shift = (common & -common).bit_length() - 1 if common else 0
            terms = [(c >> shift, p, j) for c, p, j in terms]
            growth = max(growth, sum(abs(c) for c, _, _ in terms) << shift)
        if not (cross or live[plane]):
            # A zero plane that no other plane feeds stays zero.  Its rows
            # still count in growth, so the int64 guard is the same for
            # every pattern of zero planes.
            continue
        if exact or len(terms) <= 2:
            # Reading the output's own slot first saves copying it; integer
            # sums and two-term float sums are unchanged by the order.
            terms.sort(key=lambda t: (t[1], t[2]) != (plane, i))
        out = planes + plane * size + i
        units = [c for c, _, _ in terms[:2]]
        if len(units) == 2 and set(units) <= {1, -1} and units != [-1, -1]:
            # c0 x0 + c1 x1 with unit coefficients is one add or subtract.
            x0, x1 = (slot(p, j) for _, p, j in terms[:2])
            if units[0] == -1:
                x0, x1 = x1, x0
            steps.append((np.add if units[0] == units[1] else np.subtract, x0, x1, True, out))
            rest = terms[2:]
        else:
            (c, p, j), *rest = terms
            x = slot(p, j)
            if not (x == out and c == 1):
                steps.append((np.multiply, x, c, False, out))
        written.add((plane, i))
        for c, p, j in rest:
            x = slot(p, j)
            if c == 1 or c == -1:
                steps.append((np.add if c == 1 else np.subtract, out, x, True, out))
            else:
                steps += [(np.multiply, x, c, False, -1), (np.add, out, -1, True, out)]
        shifts.setdefault(plane, {})[out] = shift
    # Shifts go last, as no row reads a live slot once it is written; a
    # plane whose rows all shift alike shifts whole, which stays
    # contiguous however low the gate's qubits are.
    for plane, by_out in shifts.items():
        common = set(by_out.values())
        if common == {0}:
            continue
        if len(common) == 1:
            steps.append((np.left_shift, plane, common.pop(), False, plane))
        else:
            steps += [(np.left_shift, out, k, False, out) for out, k in by_out.items() if k]
    scratch = any(step[4] == -1 for step in steps)
    saves = tuple(planes + p * size + j for p, j in saves)
    return tuple(steps), saves, scratch, g, growth, swap, cross, scale


def _apply(state: StateVector, qubits: tuple[int, ...], gate: Gate) -> StateVector:
    """Apply ``gate`` to the ordered ``qubits`` of ``state``, in place.

    Raises ValueError, before any write, unless the qubits are distinct
    and in range and the gate's matrix is 2^len(qubits) square.
    Gate slot r has the bit of qubits[t] at position len(qubits) - 1 - t
    (first qubit most significant).  Each plane is viewed as
    (pre, 2, [mid, 2,] post) around the sorted qubits and walked chunk
    by chunk (see :func:`_layout`); each chunk is scaled by the gate's
    float scale, if any, then the slots that a row reads after an
    earlier row overwrote them are copied, and the compiled steps write
    each output slot in place by ufuncs with ``out=``.  Exact integers
    are checked against the state's tracked bounds, so a gate raises
    OverflowError before any write, and a plane whose bound is 0 is
    neither read nor written unless the gate crosses planes.
    """
    _check_placement(state.num_qubits, qubits, gate.dim)
    exact = state.backend == EXACT
    key = tuple(bound > 0 for bound in state._bounds) if exact else FLOAT
    steps, saves, scratch, g, growth, swap, cross, scale = gate._compiled(key)
    if exact:
        state._make_room(growth)
    shape, slots, chunks, perm = _layout(state.num_qubits, qubits)
    views = [p.reshape(shape) for p in state._planes]
    for chunk in chunks:
        regions = [v[chunk] for v in views] if chunk else views
        if scale != 1:
            for region in regions:
                np.multiply(region, scale, out=region)
        arrays = regions + [r[i] for r in regions for i in slots]
        if perm:
            arrays[len(regions):] = [a.transpose(perm) for a in arrays[len(regions):]]
        arrays += [arrays[src].copy() for src in saves]
        if scratch:
            arrays.append(np.empty(arrays[-1].shape, arrays[-1].dtype))
        for ufunc, x, y, y_is_slot, out in steps:
            ufunc(arrays[x], arrays[y] if y_is_slot else y, out=arrays[out], order="C")
    if exact:
        state._h += g
        bounds = tuple(b * growth for b in state._bounds)
        if cross:
            bounds = (max(bounds),) * 2
        elif swap:
            bounds, state._planes = bounds[::-1], state._planes[::-1]
        state._bounds = bounds
    elif not np.isfinite(state._planes[0]).all():
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
    signs = signs.T[None, :, None, :]
    for plane, bound in zip(state._planes, state._bounds):
        if bound:  # a zero plane stays zero
            view = plane.reshape(pre, size, post, rows)
            view *= signs
    return state
