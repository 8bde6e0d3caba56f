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
e >= 0.  One compiler, :func:`_plan`, turns S, once per placement, into
in-place ufunc steps over one plane (see :mod:`compsearch.state`), and
one kernel runs them on the plane of either backend, for both arities,
chunk by chunk.  On the slot walk each slot is a strided view of the
plane, and a row of two terms is one add or subtract.  Where the lowest
qubit of a placement has a short post axis, such views would loop over
a few amplitudes at a time; there the steps walk contiguous runs
instead: each output is a +-1 coefficient vector times a run, plus at
most one more such term, which may read the run's partner, its
amplitudes with one short qubit's bit flipped.  Either walk fills a few
slot-sized buffers from a chunk's inputs before it writes any output in
place.  A float chunk is first scaled by
s = (1/sqrt(2))^e.  As fl(+-s x) = +-fl(s x) and fl(a + (-b)) =
fl(a - b), signed zeros included, each amplitude is, on either walk,
bit for bit the sum of fl(G[i, j] x_j) that unscaled steps would give.
An exact plane takes S as it is, and the state's exponent grows by e.
On both backends the state's tracked bound is checked before any write
(see :meth:`~compsearch.state.StateVector._make_room`), so a gate or
oracle raises OverflowError rather than wrap an integer or leave a
float amplitude non-finite, and no plane is scanned after a gate.
A state marks the qubits known to read 0 on every nonzero amplitude
(see :mod:`compsearch.state`), as all of |0...0> does.  A gate on
marked qubits alone meets only gate slot 0, so no integer grows, and
the Hadamard layer that opens each circuit never reduces or rescans.
Where the other marked qubits leave a box of at most 1/``_BOX`` of the
plane, the slot walk covers only that box: the same steps on the same
values, as the amplitudes outside it are 0 and stay so.  On a float
plane they are +0.0; a float phase oracle, or a float gate with a row of
only negative entries, would turn some into -0.0, and clears the mask
instead.  A gate then unmarks its own qubits.
Kernels mutate the state in place and return it.  Oracles are applied
as diagonal sign flips over a register window rather than materialized
matrices, so every application is O(2^m).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .dyadic import DyadicReal
from .state import EXACT, BooleanOracle, StateVector, _qubit_range


class Gate:
    """A named 2x2 or 4x4 matrix over the dyadic sqrt(2) ring: a gate on
    one qubit (basis |0>, |1>) or on an ordered pair (p, q) (basis
    |b_p b_q>).  Entries are DyadicReal or int, and every nonzero one is
    +-(1/sqrt(2))^e for one e >= 0: the gate is (1/sqrt(2))^e times a
    matrix of 0 and +-1.  Any other shape or matrix raises ValueError,
    and a non-integer entry TypeError."""

    __slots__ = ("name", "matrix", "dim", "_e", "_scale", "_signs", "_growth", "_keeps_zero")

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
        self._signs = tuple(tuple(e.sign() for e in row) for row in self.matrix)
        # No integer grows by more than the most nonzero entries of a row.
        self._growth = max(sum(map(abs, row)) for row in self._signs)
        # A float sum of signed zeros is -0.0 only when every term is, so
        # the gate leaves +0.0 amplitudes +0.0 unless a row has nonzero
        # entries and none of them is positive.
        self._keeps_zero = all(max(row) > 0 or not any(row) for row in self._signs)

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
    (pre, 2, [mid, 2,] post) around its axis qubits and walked chunk by
    chunk (see :func:`_layout`), by the one plan that :func:`_plan`
    makes for the placement.  The axis qubits are the gate's qubits,
    unless the plan takes the gate's short-post qubits inside contiguous
    runs; then they are the rest.  Where the state's other qubits known
    to read 0 leave a box of at most 1/``_BOX`` of the plane, the slot
    walk covers that box alone, as the amplitudes outside it are 0 and
    stay so.  A float chunk is first scaled by (1/sqrt(2))^e.  The steps
    then fill the plan's buffers, allocated once per call, and write
    each output in place by ufuncs with ``out=``.  An exact state's
    exponent then grows by e.  On either backend the state's tracked
    bound is checked first, so a gate raises OverflowError before any
    write, and then grows by the gate's growth times (1/sqrt(2))^e on a
    float plane; when every gate qubit is known to read 0, only gate
    slot 0 holds nonzero amplitudes, and none grows.  The gate's qubits
    are then no longer known to read 0.
    """
    m = state.num_qubits
    bits = _check_placement(m, qubits, gate.dim)
    exact = state.backend == EXACT
    # The full walk turns some +0.0 outside the box into -0.0.
    zeros = state._zeros if exact or gate._keeps_zero else 0
    growth = gate._growth if bits & ~zeros else 1
    state._make_room(growth)
    scale = 1 if exact else gate._scale
    plane = state._plane
    others = zeros & ~bits
    box = 1 << others.bit_count() >= _BOX
    axes, period, steps, temps, periods = _plan(gate._signs, m, qubits, box)
    shape, slots, chunks, dims = _layout(
        m, axes, plane.itemsize, period, zeros=others if box else 0
    )
    extra = [_pattern(p, dims[-1], plane.dtype) for p in periods]
    extra += [np.empty(dims, plane.dtype) for _ in range(temps)]
    view = plane.reshape(shape)
    for chunk in chunks:
        region = view[chunk] if chunk else view
        if scale != 1:
            np.multiply(region, scale, out=region)
        arrays = [region[i] for i in slots] + extra
        for ufunc, x, y, y_is_slot, out in steps:
            ufunc(arrays[x], arrays[y] if y_is_slot else y, out=arrays[out], order="C")
    state._zeros = zeros & ~bits
    state._bound *= growth * scale
    if exact:
        state._e += gate._e
    return state


@functools.lru_cache(maxsize=1024)
def _check_placement(m: int, qubits: tuple[int, ...], dim: int) -> int:
    """Raise ValueError unless ``qubits`` are distinct qubits of 1..m and
    a dim x dim gate acts on that many: dim = 2^len(qubits).  The one
    check of a gate's qubits, for the kernel and for circuits; cached, as
    they repeat a few placements many times.  Returns the qubits' mask,
    bit m - q for qubit q, as a state's ``_zeros`` marks qubits."""
    for q in qubits:
        if not 1 <= q <= m:
            raise ValueError(f"qubit {q} out of range 1..{m}")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"gate qubits {qubits} are not distinct")
    if dim != 1 << len(qubits):
        raise ValueError(f"a {dim}x{dim} gate cannot act on {len(qubits)} qubit(s)")
    return sum(1 << (m - q) for q in qubits)


# Bytes per slot that one chunk of a gate covers, so that every step of
# the chunk runs in cache; the post-axis length, in amplitudes, below
# which a gate qubit is taken inside contiguous runs; the bytes that one
# coefficient vector of a run covers; and the share of the plane, as
# 1/_BOX, that the box of amplitudes not known to be 0 may hold at most
# for a gate to walk that box alone, as its strided views cost more per
# amplitude than the full walk.
_CHUNK = 1 << 17
_SHORT = 256
_PATTERN = 1 << 12
_BOX = 8


@functools.lru_cache(maxsize=1024)
def _layout(
    m: int, qubits: tuple[int, ...], itemsize: int, period: int = 1, zeros: int = 0
) -> tuple:
    """How the kernel walks a plane of ``itemsize``-byte amplitudes around
    the axis ``qubits``: ``(shape, slots, chunks, dims)``.

    ``shape`` views a plane as (pre, 2, [mid, 2,] post) around the sorted
    qubits, or as (2^m,) around none; ``slots`` holds, per slot, the
    index of that slot's amplitudes in a chunk of the view, the bit of
    qubits[t] at position len(qubits) - 1 - t.  ``chunks`` index the
    view, each keeping the qubit axes whole and covering about
    ``_CHUNK`` bytes, and at least ``period`` amplitudes, per slot: whole
    outer indices while the rest is larger, then a slice of the next
    axis.  All chunks are alike, and ``dims`` is the shape of one of a
    chunk's slots.

    ``zeros`` marks qubits other than ``qubits`` (bit m - q for qubit q)
    whose amplitudes where they read 1 are left out: pre, mid and post
    split into one axis per run of marked and of unmarked qubits, and
    every chunk takes index 0 of each marked run, so that the chunks
    cover only the box where the marked qubits read 0.
    """
    order = sorted(qubits)
    # Per axis its length, and whether it is a qubit axis (None) or a
    # run of marked (True) or unmarked (False) qubits.
    shape, kinds = [], []
    for prev, q in zip([0] + order, order + [m + 1]):
        gap = [bool(zeros >> (m - p) & 1) for p in range(prev + 1, q)]
        for marked, run in [(b, len(list(g))) for b, g in itertools.groupby(gap)] or [(False, 0)]:
            shape.append(1 << run)
            kinds.append(marked)
        if q <= m:
            shape.append(2)
            kinds.append(None)
    k = len(qubits)
    axes = [a for a, kind in enumerate(kinds) if kind is None]
    slots = []
    for r in range(1 << k):
        index = [slice(None)] * len(shape)
        for q, axis in zip(order, axes):
            index[axis] = (r >> (k - 1 - qubits.index(q))) & 1
        slots.append(tuple(index))
    size = max(_CHUNK // itemsize, period)
    cuts = {a: [slice(0, 1)] for a, kind in enumerate(kinds) if kind}
    inner = 1 << (m - k - zeros.bit_count())
    for axis, kind in enumerate(kinds):
        if kind is not False:
            continue
        if inner <= size:
            break
        inner //= shape[axis]
        step = max(1, size // inner)
        cuts[axis] = [slice(i, i + step) for i in range(0, shape[axis], step)]
    chunks = [()]
    for axis in range(max(cuts, default=-1) + 1):
        chunks = [c + (cut,) for c in chunks for cut in cuts.get(axis, [slice(None)])]
    dims = [cuts[a][0].stop if a in cuts else n
            for a, n in enumerate(shape) if kinds[a] is not None]
    return tuple(shape), tuple(slots), tuple(chunks), tuple(dims)


@functools.lru_cache(maxsize=1024)
def _plan(signs: tuple, m: int, qubits: tuple[int, ...], box: bool) -> tuple:
    """How the kernel applies the 0/+-1 matrix ``signs`` to ``qubits`` of
    an m-qubit plane: ``(axes, period, steps, temps, periods)``.

    A gate qubit whose post axis is shorter than ``_SHORT`` amplitudes is
    short.  Unless ``box``, the run walk takes the short qubits inside
    contiguous runs: the rest, ``axes``, keep their slot views, whose
    post axis then holds every short bit, so that the amplitudes of one
    axis slot form runs along it.  Inside a run an output slot is a sum
    of one or two terms, each a +-1 coefficient vector, periodic in
    ``period`` amplitudes, times an axis slot or its partner c[x ^ 2^b]
    across some short bits b.  A float term is then exactly +-x, and
    every output is the same rounded products, summed, as on the slot
    walk.  The slot walk, of period 1 over every gate qubit, takes the
    rest: a box walk, a gate with no short qubit, a term whose
    coefficients include 0, or an output of no term or of more than two.
    There a row of at most two terms puts its own slot first, a longer
    row adds in column order, and an all-zero row writes 0 times slot
    0's input.

    ``steps`` are the kernel's ``(ufunc, x, y, y_is_slot, out)``, each
    one call ``ufunc(arrays[x], arrays[y] if y_is_slot else y,
    out=arrays[out])``, over the arrays: the axis slots of a chunk, one
    coefficient vector per entry of ``periods``, which holds one period
    of each (see :func:`_pattern`), then ``temps`` buffers of a slot's
    shape.  The steps first fill the buffers from the inputs: on the run
    walk, with every term but an output's own slot; on the slot walk,
    with each slot that a row reads after an earlier row overwrote it,
    while the other slots are read in place.  Then each output is
    written in place.
    """
    k = len(qubits)

    def outputs(short: list) -> list | None:
        """Per axis slot, its terms (source slot, flipped short bits,
        sign, coefficient vector over the sign), or None where the run
        walk cannot take the gate."""
        ties = [t for t in range(k) if t not in short]

        def row(a: int, s: int) -> int:
            """The gate index of axis slot a where short bit j reads s >> j & 1."""
            i = 0
            for u, t in enumerate(ties):
                i |= (a >> (len(ties) - 1 - u) & 1) << (k - 1 - t)
            for j, t in enumerate(short):
                i |= (s >> j & 1) << (k - 1 - t)
            return i

        found = []
        for a in range(1 << len(ties)):
            terms = []
            for src in range(1 << len(ties)):
                for flip in range(1 << len(short)):
                    coef = [signs[row(a, s)][row(src, s ^ flip)] for s in range(1 << len(short))]
                    if all(coef):
                        terms.append((src, flip, coef[0], tuple(coef[0] * c for c in coef)))
                    elif any(coef):
                        return None
            if short and not 1 <= len(terms) <= 2:
                return None
            if len(terms) <= 2:
                # Reading the output's own slot first saves a buffer; a sum
                # of two terms is unchanged by the order, signed zeros included.
                terms.sort(key=lambda t: t[:2] != (a, 0))
            # An all-zero row keeps one zero term, so that it writes zeros.
            found.append(terms or [(0, 0, 0, (1,))])
        return found

    short = [] if box else [t for t in range(k) if 1 << (m - qubits[t]) < _SHORT]
    terms_of = short and outputs(short)
    if not terms_of:
        short, terms_of = [], outputs([])
    bits = [m - qubits[t] for t in short]
    nslots = len(terms_of)
    patterns = list(dict.fromkeys(n for terms in terms_of for *_, n in terms if len(set(n)) > 1))
    buffers, built, writes, written = {}, [], [], set()

    def operand(a: int, src: int, flip: int, n: tuple) -> int:
        """The array that holds n times the term's source, as output a
        reads it."""
        vector = nslots + patterns.index(n) if len(set(n)) > 1 else None
        if not flip and src not in written and (src == a or not short):
            if vector is not None:
                writes.append((_times, a, vector, True, a))
            return src
        key = src, flip, n
        if key not in buffers:
            buffers[key] = out = nslots + len(patterns) + len(buffers)
            for j, b in enumerate(bits):
                if flip >> j & 1:
                    built.append((_partner, src, 1 << b, False, out))
                    src = out
            if vector is not None:
                built.append((_times, src, vector, True, out))
            elif src != out:
                built.append((_copy, src, None, False, out))
        return buffers[key]

    for a, terms in enumerate(terms_of):
        # Two terms of unit signs, not both -1, are one add or subtract.
        pair = len(terms) > 1 and (terms[0][2], terms[1][2]) != (-1, -1)
        (x, sx), *second = [(operand(a, src, flip, n), sign)
                            for src, flip, sign, n in terms[: 1 + pair]]
        if pair:
            [(y, sy)] = second
            if sx == -1:
                x, y = y, x
            writes.append((np.add if sx == sy else np.subtract, x, y, True, a))
        elif sx != 1:
            writes.append((np.multiply, x, sx, False, a))
        elif x != a:
            writes.append((_copy, x, None, False, a))
        written.add(a)
        for src, flip, sign, n in terms[1 + pair:]:
            y = operand(a, src, flip, n)
            writes.append((np.add if sign == 1 else np.subtract, a, y, True, a))
    period = 2 << max(bits) if bits else 1
    pos = np.arange(period)
    reading = sum((pos >> b & 1) << j for j, b in enumerate(bits))
    periods = tuple(np.array(n, np.int8)[reading] for n in patterns)
    axes = tuple(q for t, q in enumerate(qubits) if t not in short)
    return axes, period, tuple(built + writes), len(buffers), periods


def _pattern(period: np.ndarray, run: int, dtype: np.dtype) -> np.ndarray:
    """The coefficient vector of one ``period`` as ``dtype``, repeated to
    about ``_PATTERN`` bytes, and at most ``run`` amplitudes."""
    length = min(run, max(len(period), _PATTERN // dtype.itemsize))
    return period.astype(dtype).reshape(1, -1).repeat(length // len(period), 0).reshape(-1)


def _times(x: np.ndarray, pattern: np.ndarray, out: np.ndarray, order: str = "C") -> None:
    """out = x * pattern, the pattern repeated along the last axis of x
    and out, which is contiguous and a multiple of the pattern's period
    long."""
    shape = x.shape[:-1] + (-1, len(pattern))
    np.multiply(x.reshape(shape), pattern, out=out.reshape(shape), order=order)


def _copy(x: np.ndarray, _, out: np.ndarray, order: str = "C") -> None:
    """out = x, called as the kernel calls a ufunc; a strided copy is
    about twice as fast as a multiply by 1."""
    np.copyto(out, x)


def _partner(x: np.ndarray, block: int, out: np.ndarray, order: str = "C") -> None:
    """out[..., i] = x[..., i ^ block] for a power of two ``block``: swap
    adjacent blocks along the last axis, which is contiguous in both
    arrays and a multiple of 2 * block long.  Blocks of 1 or 2 bytes are
    the halves of a 2- or 4-byte word, swapped by a rotate; longer ones
    are copied in words of up to 8 bytes, by strided copies along the
    blocks, one per word column where a block holds only one or two
    words, as numpy copies short inner axes slowly.  ``order`` is taken,
    and ignored, so that the kernel calls it as it calls a ufunc."""
    if x is out:
        x = x.copy()
    size = block * x.itemsize
    if size <= 2:
        word, bits = np.dtype(f"u{2 * size}"), 8 * size
        w, o = x.view(word), out.view(word)
        np.left_shift(w, bits, out=o)
        np.bitwise_or(o, np.right_shift(w, bits), out=o)
        return
    unit = min(size, 8)
    words = size // unit
    shape = x.shape[:-1] + (-1, 2, words)
    w, o = x.view(f"u{unit}").reshape(shape), out.view(f"u{unit}").reshape(shape)
    for col in range(words) if words <= 2 else (slice(None),):
        np.copyto(o[..., 0, col], w[..., 1, col])
        np.copyto(o[..., 1, col], w[..., 0, col])


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
    the leading qubits, so R = 1 is one oracle on the whole state.  A
    sign -1 turns a float +0.0 into -0.0, so a float state's qubits are
    then no longer known to read +0.0; an exact state's still read 0.
    The state's tracked bound is checked, as a gate's is, on either
    backend, so an int64 plane at that bound raises OverflowError before
    any write rather than wrap -2^63 back to itself, and so does a float
    plane past 2^1022.
    """
    rows, size = signs.shape
    if rows < 1 or size < 1 or rows & (rows - 1) or size & (size - 1):
        raise ValueError(f"sign table shape {signs.shape} is not a power of two by 2^n")
    n = size.bit_length() - 1
    m = state.num_qubits - (rows.bit_length() - 1)
    pre, _, post = _qubit_range(m, reg_start, reg_start + n - 1)
    state._make_room(1)
    view = state._plane.reshape(pre, size, post, rows)
    # In the plane's own dtype, numpy runs no cast of every amplitude.
    view *= signs.T.astype(view.dtype)[None, :, None, :]
    if state.backend != EXACT:
        state._zeros = 0
    return state
