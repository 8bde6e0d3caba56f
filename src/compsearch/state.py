"""State vectors and boolean oracles.

Index convention: qubit 1 is the MOST significant bit of a basis index,
so an m-qubit basis state |b_1 b_2 ... b_m> has index sum_i b_i 2^(m-i).
With two n-qubit registers the product state |j>|k> sits at index
j * 2^n + k.

A state is stored as one *plane*, a flat array of length 2^m, plus
one exponent e >= 0.  The two amplitude backends differ only in the
plane:

* ``"exact"`` -- one integer plane c; the amplitude at x is
  c[x] / sqrt(2)^e.  Every gate in this library is a power of
  1/sqrt(2) times a matrix of 0 and +-1 (see :mod:`compsearch.gates`),
  and every state the circuits pass through has this form.  e is
  minimal (e < 2, or some integer odd) after construction, ``copy()``
  and ``circuit.run``; gate kernels may leave it larger.  ``==``
  compares values at the larger e of the two states and changes
  neither.  Each exact state tracks ``_bound``, an upper bound on its
  integer magnitudes.  ``StateVector(m)`` starts c as int8, and a gate
  that might push an integer to 2^(bits - 2) of c's dtype first reduces
  e and rescans, then widens c to int16, int32 and int64 as needed, and
  raises OverflowError, before any write, only where int64 has no room
  (2^62).  Integers never wrap.  The closed forms and
  ``from_amplitudes`` build int64 planes; the width is internal, and no
  value, comparison or report depends on it.
* ``"float"`` -- one float64 plane holding the amplitudes; e = 0.
  Every amplitude here is real: the ring is real, so are the gates and
  the +-1 oracles, so a real plane holds any state this library makes.

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
from typing import Iterable, Iterator, Sequence

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


def _abs_max(plane: np.ndarray) -> int:
    """max |plane| as a Python int, without a temporary plane."""
    return max(int(plane.max()), -int(plane.min()))


def _safe(plane: np.ndarray) -> int:
    """The bound that integer magnitudes in ``plane`` must stay below
    after a gate: 2^(bits - 2) for its dtype, 2^62 for int64."""
    return 1 << (8 * plane.itemsize - 2)


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
        return _sign_table(self.n, [self])[0]

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


def _sign_table(n: int, oracles: Sequence[BooleanOracle]) -> np.ndarray:
    """(-1)^f(k) for each of ``oracles`` (rows, all on n bits) and each k
    (columns) as int64; :meth:`BooleanOracle.sign_array` is its one-row
    case."""
    if any(f.n != n for f in oracles):
        raise ValueError(f"oracle arity does not match n={n}")
    return _table_signs(n, _tables(n, [f.table for f in oracles]))


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


def all_oracles(n: int) -> Iterator[BooleanOracle]:
    """All 2^(2^n) oracles on n bits, in truth-table order."""
    for table in range(1 << (1 << n)):
        yield BooleanOracle(n, table)


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

    __slots__ = ("num_qubits", "backend", "_plane", "_e", "_bound", "_zeros")

    def __init__(self, num_qubits: int, backend: str = EXACT) -> None:
        if num_qubits < 1:
            raise ValueError(f"need at least one qubit, got {num_qubits}")
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        self.num_qubits = num_qubits
        self.backend = backend
        self._plane = np.zeros(1 << num_qubits, np.int8 if backend == EXACT else np.float64)
        self._plane[0] = 1
        self._e = 0
        self._bound = 1
        self._zeros = (1 << num_qubits) - 1

    @property
    def num_states(self) -> int:
        return 1 << self.num_qubits

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
        m = size.bit_length() - 1
        if backend == FLOAT:
            vals = np.array(amps, dtype=complex)
            if not np.isfinite(vals).all():
                raise ValueError("float amplitudes must be finite")
            if vals.imag.any():
                raise ValueError("float amplitudes are real; got a nonzero imaginary part")
            return cls._from_plane(m, FLOAT, vals.real.copy())
        if backend != EXACT:
            raise ValueError(f"unknown backend {backend!r}")
        vals = [v if isinstance(v, DyadicReal) else DyadicReal.from_int(v) for v in amps]
        # a / 2^h is a / sqrt(2)^(2h), and b sqrt(2) / 2^h is 2b / sqrt(2)^(2h + 1).
        forms = [(2 * v.b, 2 * v.h + 1) if v.b else (v.a, 2 * v.h) for v in vals]
        if any(v.a and v.b for v in vals) or len({f & 1 for c, f in forms if c}) > 1:
            raise ValueError("exact amplitudes must be integers times one power of 1/sqrt(2)")
        e = max((f for c, f in forms if c), default=0)
        plane = np.array([c << ((e - f) // 2) for c, f in forms], dtype=np.int64)
        return cls._from_plane(m, EXACT, plane, e)

    @classmethod
    def _from_plane(
        cls, num_qubits: int, backend: str, plane, e: int = 0, bound: int | None = None
    ) -> StateVector:
        """A state that takes ownership of ``plane`` (see the module
        docstring), with no qubit known to read 0; exact states are
        reduced to their minimal e, and scanned for their bound unless
        ``bound`` gives it."""
        s = cls.__new__(cls)
        s.num_qubits = num_qubits
        s.backend = backend
        s._plane = plane
        s._e = e
        s._bound = 1
        s._zeros = 0
        if backend == EXACT:
            s._bound = _abs_max(plane) if bound is None else bound
            s._canonical_reduce()
        return s

    def copy(self) -> StateVector:
        """An independent state of the same value, at minimal e; the
        tracked bound and the qubits known to read 0 carry over instead
        of being rescanned."""
        s = StateVector._from_plane(
            self.num_qubits, self.backend, self._plane.copy(), self._e, self._bound
        )
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
        """Largest per-amplitude deviation, comparing via floats.

        Works across backends; for two exact states prefer ``==``.
        """
        return self._deviations(other, 1)[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        if self.num_qubits != other.num_qubits or self.backend != other.backend:
            return False
        return self._rows_equal(other, 1)[0]

    def _column_chunks(self, other: StateVector, rows: int) -> Iterator[tuple]:
        """Both states' planes viewed as ``rows`` rows, in column slices
        of about _COMPARE_CHUNK amplitudes: ``(self's, other's)`` per
        slice.  Row r is the part of a state whose leading log2(rows)
        qubits read r."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("qubit counts differ")
        x, y = self._plane.reshape(rows, -1), other._plane.reshape(rows, -1)
        step = max(1, _COMPARE_CHUNK // rows)
        for start in range(0, x.shape[1], step):
            cols = slice(start, start + step)
            yield x[:, cols], y[:, cols]

    def _deviations(self, other: StateVector, rows: int) -> list[float]:
        """Per row (see :meth:`_column_chunks`), the largest deviation of
        an amplitude from ``other``'s, both taken as floats as by
        :meth:`to_float_array`; a slice at a time, and a max is exact in
        any order."""
        dev = np.zeros(rows)
        for x, y in self._column_chunks(other, rows):
            diff = _as_float(x, self._e) - _as_float(y, other._e)
            np.maximum(dev, np.abs(diff, out=diff).max(axis=1), out=dev)
        return dev.tolist()

    def _rows_equal(self, other: StateVector, rows: int) -> list[bool]:
        """Per row (see :meth:`_column_chunks`), whether the two states of
        one backend hold equal values, changing neither: float planes by
        ``==``, and exact planes at the larger e of the two.  An integer
        x at e - 2s equals y at e exactly when y is a multiple of 2^s and
        y >> s == x, which needs no shift that could overflow; x at
        e - 2s - 1 equals y only when both are 0, as sqrt(2) is
        irrational."""
        if self._e > other._e:
            return other._rows_equal(self, rows)
        shift, odd = divmod(other._e - self._e, 2)
        # Past 63 bits only y = 0 is a multiple of 2^shift in int64.
        low = (1 << shift) - 1 if shift < 64 else -1
        equal = np.ones(rows, dtype=bool)
        for x, y in self._column_chunks(other, rows):
            if odd:
                equal &= ~x.any(axis=1) & ~y.any(axis=1)
                continue
            if shift:
                # NumPy 2 refuses a Python-int low outside y's dtype.
                y = y.astype(np.int64)
                equal &= ~(y & low).any(axis=1)
                y = y >> min(shift, 63)
            equal &= (x == y).all(axis=1)
        return equal.tolist()

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
        """Make sure a gate that grows integers by at most ``growth`` stays
        below the plane's :func:`_safe` bound: when the tracked bound
        allows no such gate, reduce e and rescan, then widen the plane
        one integer width at a time until it has room; raise
        OverflowError if an int64 plane still has none.  The state's
        value never changes here."""
        if self._bound * growth < _safe(self._plane):
            return
        self._canonical_reduce()
        self._bound = _abs_max(self._plane)
        while self._bound * growth >= _safe(self._plane):
            if self._plane.itemsize >= 8:
                raise OverflowError(
                    "exact amplitude integers would exceed int64; "
                    "state has grown beyond this backend's checked range"
                )
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
