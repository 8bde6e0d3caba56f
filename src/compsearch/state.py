"""State vectors and boolean oracles.

Index convention: qubit 1 is the MOST significant bit of a basis index,
so an m-qubit basis state |b_1 b_2 ... b_m> has index sum_i b_i 2^(m-i).
With two n-qubit registers the product state |j>|k> sits at index
j * 2^n + k.

A state is stored as one *plane*, a flat array of length 2^m, plus
one exponent e >= 0; m is read from the plane's length and the backend
from its dtype, so the two amplitude backends differ only in the plane:

* ``"exact"`` -- one integer plane c; the amplitude at x is
  c[x] / sqrt(2)^e.  Every gate in this library is a power of
  1/sqrt(2) times a matrix of 0 and +-1 (see :mod:`compsearch.gates`),
  and every state the circuits pass through has this form.  e is
  minimal (e < 2, or some integer odd) after construction, ``copy()``
  and ``circuit.run``; gate kernels may leave it larger.  This
  *canonical form* is unique for a nonzero value, as sqrt(2) is
  irrational, so ``==`` reduces both states to it and compares e and
  planes.  ``StateVector(m)`` starts c as int8, and a gate that might
  push an integer to 2^(bits - 2) of c's dtype first reduces e and
  rescans, then widens c to int16, int32 and int64 as needed, and
  raises OverflowError, before any write, only where int64 has no room
  (2^62).  Integers never wrap.  ``from_amplitudes`` and the closed
  forms build int64 planes (int8 for the target); the width is internal,
  and no value, comparison or report depends on it.
* ``"float"`` -- one float64 plane holding the amplitudes; e = 0.
  Every amplitude here is real: the ring is real, so are the gates and
  the +-1 oracles, so a real plane holds any state this library makes.
  A gate that might push an amplitude to 2^1022 first rescans, and
  raises OverflowError, before any write, where the plane still has no
  room, so no amplitude turns non-finite.

Each state of either backend tracks ``_bound``, an upper bound on the
magnitudes in its plane (an int, or a float for a float plane), and
:meth:`StateVector._make_room` is the one overflow guard of both.

Gate kernels (:mod:`compsearch.gates`) act on the plane alike for both
backends.  Exact states compare with ``==`` at zero tolerance.  For
states and probability tables alike, ``_value`` reads one entry and
``_as_float`` converts a plane to float; nothing else does either.  Both
take one plane and its exponent e in powers of 1/sqrt(2); a table at h
(entries over 2^h) passes 2h.

Each state also holds ``_zeros``, a bitmask of the qubits known to read
0 on every nonzero amplitude (bit m - q for qubit q, so ``x & _zeros ==
0`` wherever the plane is nonzero).  ``StateVector(m)`` marks every
qubit; ``_from_plane``, and so ``from_amplitudes`` and the closed forms,
marks none; ``copy()`` keeps the mask.  A gate unmarks its own qubits,
and walks only the box where the other marked qubits read 0 when that
box is small (see :mod:`compsearch.gates`).  On a float plane the
amplitudes where a marked qubit reads 1 are +0.0, not -0.0, so that
skipping them leaves every sign of zero as the full walk would: a phase
oracle, which turns +0.0 into -0.0, and a gate with a row of only
negative entries clear the whole mask there.  Exact phase oracles, reductions of e and
widening leave it alone.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

from .dyadic import SQRT2, DyadicReal

EXACT = "exact"
FLOAT = "float"
BACKENDS = (EXACT, FLOAT)

# Amplitude tolerance for the float backend; see norm/deviation checks.
FLOAT_ATOL = 1e-12

# Integer magnitudes in an int64 plane or table must stay below this;
# it is _safe of an int64 plane.
_INT64_SAFE = 1 << 62


# Amplitudes that one slice of a comparison of two states covers, so
# that comparing makes no plane-sized temporary.
_COMPARE_CHUNK = 1 << 16


def _abs_max(plane: np.ndarray) -> int | float:
    """max |plane|, without a temporary plane: a Python int for an
    integer or object plane, a float for a float plane."""
    cast = float if plane.dtype.kind == "f" else int
    return max(cast(plane.max()), -cast(plane.min()))


def _safe(plane: np.ndarray) -> int | float:
    """The bound that magnitudes in ``plane`` must stay below after a
    gate: 2^(bits - 2) for an integer dtype, 2^62 for int64, and 2^1022
    for float64, which leaves room below the float maximum for a growth
    of 4 and for rounding."""
    return 2.0**1022 if plane.dtype.kind == "f" else 1 << (8 * plane.itemsize - 2)


def _qubit_range(m: int, first: int, last: int) -> tuple[int, int, int]:
    """(pre, keep, post): m qubits viewed around qubits first..last
    (inclusive, 1-based); raises ValueError unless 1 <= first <= last <= m.
    The one check of a qubit window, for tables and for phase oracles."""
    if not 1 <= first <= last <= m:
        raise ValueError(f"qubit range {first}..{last} invalid for {m} qubits")
    return 1 << (first - 1), 1 << (last - first + 1), 1 << (m - last)


def _sum_out(plane: np.ndarray, pre: int, keep: int, post: int) -> np.ndarray:
    """``plane``'s last axis viewed as (pre, keep, post), summed over the
    outer two; leading axes (rows) are kept."""
    if pre == post == 1:
        return plane
    return plane.reshape(plane.shape[:-1] + (pre, keep, post)).sum(axis=(-3, -1))


def _value(plane: np.ndarray, e: int, x) -> DyadicReal | float:
    """Entry x of ``plane`` at exponent e (see the module docstring): a
    float plane's as a float; an integer c, of any width or a Python int,
    as the DyadicReal c / sqrt(2)^e, which is c / 2^(e/2) for even e and
    c sqrt(2) / 2^((e + 1)/2) for odd e.  A non-integer entry of an
    object plane raises TypeError."""
    c = plane[x]
    if plane.dtype.kind == "f":
        return float(c)
    if e & 1:
        return DyadicReal(0, c, (e + 1) // 2)
    return DyadicReal(c, 0, e // 2)


def _as_float(plane: np.ndarray, e: int) -> np.ndarray:
    """``plane`` (of any shape) at exponent e as float64: a float plane is
    returned as it is, and an integer c becomes the new fl(c) / 2^(e/2)
    for even e and fl(sqrt2 * fl(c)) / 2^((e + 1)/2) for odd e, for every
    integer width and Python ints alike."""
    if plane.dtype.kind == "f":
        return plane
    out = plane.astype(np.float64)
    if e & 1:
        np.multiply(out, SQRT2, out=out)
    return np.ldexp(out, -((e + 1) // 2), out=out)


class BooleanOracle:
    """A function f: {0, ..., 2^n - 1} -> {0, 1} held as a truth-table
    bitmask whose bit k is f(k); a non-integer n or table raises
    TypeError."""

    __slots__ = ("n", "table")

    def __init__(self, n: int, table: int) -> None:
        n, table = operator.index(n), operator.index(table)
        if n < 1:
            raise ValueError(f"oracle arity must be >= 1, got {n}")
        if not 0 <= table < (1 << (1 << n)):
            raise ValueError(f"truth table {table:#x} out of range for n={n}")
        self.n = n
        self.table = table

    @classmethod
    def from_marked(cls, n: int, marked: Iterable[int]) -> BooleanOracle:
        table = 0
        for k in marked:
            if not 0 <= k < (1 << n):
                raise ValueError(f"marked element {k} out of range for n={n}")
            table |= 1 << k
        return cls(n, table)

    def __call__(self, k: int) -> int:
        if not 0 <= k < (1 << self.n):
            raise ValueError(f"input {k} out of range for n={self.n}")
        return (self.table >> k) & 1

    def marked(self) -> tuple[int, ...]:
        return tuple(k for k in range(1 << self.n) if (self.table >> k) & 1)

    def sign_array(self) -> np.ndarray:
        """(-1)^f(k) for all k, as int64."""
        return _table_signs(self.n, _tables(self.n, [self.table]))[0]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BooleanOracle):
            return self.n == other.n and self.table == other.table
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.table))

    def __repr__(self) -> str:
        return f"BooleanOracle(n={self.n}, table={self.table:#x})"


def _check_register(n: int, f: BooleanOracle | None = None) -> None:
    """Raise ValueError unless a register has n >= 1 qubits and the
    oracle ``f``, if given, is on n bits.  The one check of a register
    size, for circuit builders and closed forms."""
    if n < 1:
        raise ValueError(f"register size must be >= 1, got {n}")
    if f is not None and f.n != n:
        raise ValueError(f"oracle arity {f.n} does not match n={n}")


def _tables(n: int, tables) -> np.ndarray:
    """Truth-table integers on n bits as one column: uint64 while a table
    has at most 64 bits (n <= 6), Python ints in an object array past
    that."""
    return np.array(tables, dtype=np.uint64 if n <= 6 else object)


def _table_signs(n: int, tables: np.ndarray) -> np.ndarray:
    """(-1)^f(k) for each truth table of the column ``tables`` (rows, see
    :func:`_tables`) and each k (columns) as int64: a uint64 column is
    read as little-endian bytes in place, and Python ints are written out
    as bytes first."""
    size = 1 << n
    if tables.dtype == object:
        nbytes = (size + 7) // 8
        buf = b"".join(t.to_bytes(nbytes, "little") for t in tables.tolist())
        raw = np.frombuffer(buf, np.uint8).reshape(len(tables), nbytes)
    else:
        raw = tables.astype("<u8", copy=False).view(np.uint8).reshape(len(tables), 8)
    truth = np.unpackbits(raw, axis=1, count=size, bitorder="little")
    return 1 - 2 * truth.astype(np.int64)


def random_oracle(n: int, rng: np.random.Generator) -> BooleanOracle:
    """A uniformly random truth table drawn from ``rng``."""
    nbytes = ((1 << n) + 7) // 8
    table = int.from_bytes(rng.bytes(nbytes), "little")
    return BooleanOracle(n, table & ((1 << (1 << n)) - 1))


class StateVector:
    """Length-2^m amplitude array over the exact or float backend.

    ``StateVector(m)`` is |0...0>.  Gate kernels in :mod:`compsearch.gates`
    mutate states in place; ``copy()`` before applying if the original is
    still needed.
    """

    __slots__ = ("_plane", "_e", "_bound", "_zeros")

    def __init__(self, num_qubits: int, backend: str = EXACT) -> None:
        if num_qubits < 1:
            raise ValueError(f"need at least one qubit, got {num_qubits}")
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        self._plane = np.zeros(1 << num_qubits, np.int8 if backend == EXACT else np.float64)
        self._plane[0] = 1
        self._e = 0
        self._bound = 1
        self._zeros = (1 << num_qubits) - 1

    @property
    def num_qubits(self) -> int:
        return len(self._plane).bit_length() - 1

    @property
    def backend(self) -> str:
        return FLOAT if self._plane.dtype.kind == "f" else EXACT

    @property
    def num_states(self) -> int:
        return len(self._plane)

    @classmethod
    def from_amplitudes(cls, amps: Sequence, backend: str = EXACT) -> StateVector:
        """Build a state from explicit amplitudes.

        Exact backend accepts DyadicReal or int entries, and raises
        TypeError on any other; every nonzero entry must be an integer
        times one power of 1/sqrt(2), the same for all, or ValueError is
        raised.  Float accepts finite real numbers (DyadicReal included)
        and complex ones whose imaginary part is zero; a nonzero
        imaginary part or a non-finite entry raises ValueError, as float
        planes hold finite real amplitudes.  The result is not normalized
        here; callers own that invariant.
        """
        size = len(amps)
        if size < 2 or size & (size - 1):
            raise ValueError(f"amplitude count must be a power of two >= 2, got {size}")
        if backend == FLOAT:
            vals = np.array(amps, dtype=complex)
            if not np.isfinite(vals).all():
                raise ValueError("float amplitudes must be finite")
            if vals.imag.any():
                raise ValueError("float amplitudes are real; got a nonzero imaginary part")
            return cls._from_plane(vals.real.copy())
        if backend != EXACT:
            raise ValueError(f"unknown backend {backend!r}")
        vals = [v if isinstance(v, DyadicReal) else DyadicReal.from_int(v) for v in amps]
        # a / 2^h is a / sqrt(2)^(2h), and b sqrt(2) / 2^h is 2b / sqrt(2)^(2h + 1).
        forms = [(2 * v.b, 2 * v.h + 1) if v.b else (v.a, 2 * v.h) for v in vals]
        if any(v.a and v.b for v in vals) or len({f & 1 for c, f in forms if c}) > 1:
            raise ValueError("exact amplitudes must be integers times one power of 1/sqrt(2)")
        e = max((f for c, f in forms if c), default=0)
        plane = np.array([c << ((e - f) // 2) for c, f in forms], dtype=np.int64)
        return cls._from_plane(plane, e)

    @classmethod
    def _from_plane(cls, plane, e: int = 0, bound: int | float | None = None) -> StateVector:
        """A state that takes ownership of ``plane``, a flat array of
        length 2^m whose dtype gives the backend (see the module
        docstring), with no qubit known to read 0, scanned for its bound
        unless ``bound`` gives it; exact states are reduced to their
        minimal e."""
        s = cls.__new__(cls)
        s._plane = plane
        s._e = e
        s._bound = _abs_max(plane) if bound is None else bound
        s._zeros = 0
        s._canonical_reduce()
        return s

    def copy(self) -> StateVector:
        """An independent state of the same value, at minimal e; the
        tracked bound and the qubits known to read 0 carry over instead
        of being rescanned."""
        s = StateVector._from_plane(self._plane.copy(), self._e, self._bound)
        s._zeros = self._zeros
        return s

    def amplitude(self, x: int) -> DyadicReal | float:
        if not 0 <= x < self.num_states:
            raise ValueError(f"basis index {x} out of range")
        return _value(self._plane, self._e, x)

    def amplitudes(self) -> list:
        return [_value(self._plane, self._e, x) for x in range(self.num_states)]

    def to_float_array(self) -> np.ndarray:
        """Amplitudes as one new float64 array, for either backend, an
        exact one converted by :func:`_as_float`."""
        if self.backend == FLOAT:
            return self._plane.copy()
        return _as_float(self._plane, self._e)

    def norm_squared(self) -> DyadicReal | float:
        """Sum of squared amplitudes; exact in the exact backend."""
        total, h = self._squares(1, 1, self.num_states)
        return _value(total, 2 * h, 0)

    def _squares(self, pre: int, keep: int, post: int) -> tuple[np.ndarray, int]:
        """Born-rule probabilities |amp(x)|^2 of the state viewed as
        (pre, keep, post), summed over the outer axes: ``(plane, h)``,
        laid out like a :class:`~compsearch.refutation.Distribution`.

        This is the one place that squares amplitudes.  A float plane is
        squared whole, x*x (|x|*|x| bit for bit), and reshape-summed.
        An exact plane c at e gives the table c*c at h = e, squared and
        summed by ``einsum``, with no plane-sized temporary; that sums
        in int64, whatever the plane's width, while bound^2 * 2^m < 2^62
        for the largest integer, which bounds every entry, every sum of
        entries and the total, and squares Python ints otherwise.  An
        exact state is first reduced to its minimal e, which leaves its
        value alone.
        """
        if self.backend == FLOAT:
            return _sum_out(np.square(self._plane), pre, keep, post), 0
        self._canonical_reduce()
        m = self.num_qubits
        if self._bound**2 << m >= _INT64_SAFE:
            # The tracked bound can be far above the largest integer (2^35
            # against 1 after the n = 10 circuit): rescan before leaving int64.
            self._bound = _abs_max(self._plane)
        # Summed in an int8 plane's own dtype, 2^8 squares of 1 would wrap.
        c, dtype = self._plane, np.int64
        if self._bound**2 << m >= _INT64_SAFE:
            c, dtype = c.astype(object), None
        c = c.reshape(pre, keep, post)
        return np.einsum("ijk,ijk->j", c, c, dtype=dtype), self._e

    def is_normalized(self) -> bool:
        if self.backend == EXACT:
            return self.norm_squared() == 1
        return abs(self.norm_squared() - 1.0) <= FLOAT_ATOL

    def max_abs_diff(self, other: StateVector) -> float:
        """Largest per-amplitude deviation, both planes taken as floats as
        by :meth:`to_float_array`, a slice of _COMPARE_CHUNK amplitudes at
        a time; a max is exact in any order.

        Works across backends; for two exact states prefer ``==``.
        """
        if self.num_qubits != other.num_qubits:
            raise ValueError("qubit counts differ")
        dev = 0.0
        for start in range(0, self.num_states, _COMPARE_CHUNK):
            cols = slice(start, start + _COMPARE_CHUNK)
            x, y = self._plane[cols], other._plane[cols]
            diff = _as_float(x, self._e) - _as_float(y, other._e)
            dev = max(dev, float(np.abs(diff, out=diff).max()))
        return dev

    def __eq__(self, other: object) -> bool:
        """Whether two states of one backend hold equal values.  Exact
        states are first reduced to their canonical form, which leaves
        their values alone: at different e they are equal only when both
        planes are zero (a zero plane below e = 2 keeps its e), and at
        one e when the planes are.  Planes compare a slice of
        _COMPARE_CHUNK amplitudes at a time, up to the first unequal one."""
        if not isinstance(other, StateVector):
            return NotImplemented
        if self.num_qubits != other.num_qubits or self.backend != other.backend:
            return False
        self._canonical_reduce()
        other._canonical_reduce()
        x, y = self._plane, other._plane
        if self._e != other._e:
            return not (x.any() or y.any())
        step = _COMPARE_CHUNK
        return all((x[s : s + step] == y[s : s + step]).all() for s in range(0, len(x), step))

    def _canonical_reduce(self) -> None:
        """Divide out common factors of 2, lowering e by 2 for each, while
        e >= 2, so that e is minimal."""
        if self._e < 2:
            return
        # Two's complement keeps the lowest set bit of -v, so OR-ing the
        # raw values finds the common power of two.
        mask = int(np.bitwise_or.reduce(self._plane))
        if mask == 0:
            self._e = self._bound = 0
            return
        t = min((mask & -mask).bit_length() - 1, self._e // 2)
        if t:
            self._plane >>= t
            self._e -= 2 * t
            self._bound >>= t

    def _make_room(self, growth: int) -> None:
        """Make sure a gate that grows magnitudes by at most ``growth``
        stays below the plane's :func:`_safe` bound: when the tracked
        bound allows no such gate, reduce e and rescan, then widen an
        integer plane one width at a time until it has room; raise
        OverflowError if an int64 or float64 plane still has none.  The
        one overflow guard of both backends, called before any write;
        the state's value never changes here."""
        if self._bound * growth < _safe(self._plane):
            return
        self._canonical_reduce()
        self._bound = _abs_max(self._plane)
        while self._bound * growth >= _safe(self._plane):
            if self._plane.dtype.kind == "f" or self._plane.itemsize >= 8:
                what = ("float amplitudes could turn non-finite" if self._plane.dtype.kind == "f"
                        else "exact amplitude integers would exceed int64")
                raise OverflowError(f"{what}; state has grown beyond this backend's checked range")
            self._plane = self._plane.astype(f"i{2 * self._plane.itemsize}")

    def terms(self) -> str:
        """The first 16 nonzero amplitudes as a ket string."""
        out = []
        for x in range(self.num_states):
            amp = self.amplitude(x)
            exact = isinstance(amp, DyadicReal)
            if amp.is_zero if exact else abs(amp) < 1e-14:
                continue
            label = str(amp) if exact else f"{amp:+.6g}"
            out.append(f"{label}|{x:0{self.num_qubits}b}>")
            if len(out) >= 16:
                out.append("...")
                break
        return " ".join(out) if out else "0"

    def __repr__(self) -> str:
        return f"<StateVector {self.num_qubits} qubits, {self.backend}>"
