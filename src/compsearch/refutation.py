"""Measurement statistics and the no-information verdict.

The claim under test is distributional: for every oracle f the circuit's
output measurement statistics are the same, so observing the output says
nothing about which elements are marked.  Total variation distance is
the metric; in the exact backend every probability is a dyadic rational
c / 2^h, the square of an amplitude c / sqrt(2)^e, and TV distances are
computed with zero tolerance.

``sweep_all_f`` runs the circuit for every oracle (exhaustively up to
n = EXHAUSTIVE_SWEEP_MAX_N, seeded samples beyond) and compares each
output against the diagonal target state.  Oracles run a batch at a
time: R oracles are one state whose trailing log2 R qubits pick the
oracle, and the statistics are read per oracle from that state as the
circuit leaves it.  Each output is judged against its oracle's sign
table in place, on the diagonal and off it, so no target state is built.
``compare_grover`` runs the contrast case: the same marked element
handed to Grover search is found with probability near 1, while the
comparison circuit leaves it at exactly 2^-n.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields

import numpy as np

from .circuit import (
    _simulate_rows,
    build_comparison_search,
    build_grover,
    grover_optimal_iterations,
    simulate,
)
from .dyadic import DyadicReal
from .state import (
    EXACT,
    FLOAT,
    FLOAT_ATOL,
    BACKENDS,
    BooleanOracle,
    StateVector,
    _abs_max,
    _as_float,
    _check_register,
    _qubit_range,
    _sum_out,
    _table_signs,
    _tables,
    _value,
    random_oracle,
)

RNG_ALGORITHM = "numpy-pcg64"

# Exhaustive oracle sweeps stop here; 2^(2^n) explodes immediately after.
EXHAUSTIVE_SWEEP_MAX_N = 4
SAMPLED_SWEEP_COUNT = 1000

# Amplitudes per batch of oracles: R * 2^(2n) <= 2^17 gives R = 512
# oracles a batch at n = 4, 128 at n = 5 and one from n = 9 on.  With
# the oracle index on the trailing qubits, batches of 2^15 to 2^19 ran
# the n = 4 float sweep within noise of each other (fastest of 8 runs
# each, 1.00 to 1.18 s, on a 2-core VM); batches of 2^18 also left about
# 9 MB of freed arrays in the heap that glibc did not return.
_BATCH_AMPS = 1 << 17


class Distribution:
    """Dense probability table over the 2^m basis outcomes of m qubits:
    one plane p and one exponent h.  An integer plane (any width, or
    Python ints in an object plane) is exact, p(x) = p[x] / 2^h; a
    float64 plane is a float table, with h = 0.

    ``Distribution(plane, h)`` reads ``plane`` as ``np.asarray`` does,
    except that a list of ints stays exact where NumPy would make it
    float64.  It refuses with TypeError a plane of any other dtype, a
    non-integer object entry and a non-integer h, stores an exact plane
    as Python ints, so that no sum over it can wrap, and checks that
    every entry is non-negative and that the table sums to 1.  Inside
    this module a *row table* holds R tables at once, as a plane of
    shape (R, 2^m); ``len``, ``num_qubits``, :func:`marginal` and the TV
    code read the last axis.
    """

    __slots__ = ("plane", "h")

    def __init__(self, plane, h: int = 0) -> None:
        array = np.asarray(plane)
        if array.dtype.kind == "f" and not isinstance(plane, np.ndarray):
            # NumPy reads ints past int64 beside smaller ones as float64.
            objects = np.array(plane, dtype=object)
            if all(isinstance(x, (int, np.integer)) for x in objects.flat):
                array = objects
        if array.ndim != 1:
            raise ValueError(f"a table has one float or integer plane, got shape {array.shape}")
        if array.dtype.kind not in "iuOf":
            raise TypeError(f"probabilities must be integers or floats, got dtype {array.dtype}")
        exact, h = array.dtype.kind != "f", operator.index(h)
        if h < 0 or (h and not exact):
            raise ValueError(f"exponent h={h} invalid: exact tables need h >= 0, float ones h = 0")
        size = len(array)
        if size < 2 or size & (size - 1):
            raise ValueError("probability table size is not a power of two >= 2")
        if exact:
            # Python ints, as numpy integers would sum in int64 and wrap; a
            # non-integer entry raises TypeError.
            array = np.array([operator.index(x) for x in array], dtype=object)
        else:
            array = array.astype(np.float64)
        if not (array >= 0).all():  # a NaN entry fails too
            raise ValueError("probabilities must be non-negative")
        self.plane, self.h = array, h
        self._check_total()

    @classmethod
    def _of(cls, plane: np.ndarray, h: int = 0) -> Distribution:
        """A table over ``plane`` as it is, unchecked."""
        dist = cls.__new__(cls)
        dist.plane, dist.h = plane, h
        return dist

    @property
    def num_qubits(self) -> int:
        return self.plane.shape[-1].bit_length() - 1

    @property
    def exact(self) -> bool:
        return self.plane.dtype.kind != "f"

    def _row(self, r: int) -> Distribution:
        """Row r of a row table, as a table."""
        return Distribution._of(self.plane[r], self.h)

    def _check_total(self) -> None:
        """Raise ValueError unless the table, or each row of a row table,
        sums to 1: an exact row to 2^h, compared as Python ints, and a
        float one within 1e-9, all rows in one array comparison."""
        sums = np.atleast_1d(self.plane.sum(axis=-1))
        if self.exact:
            # As Python ints, every total compares with 2^h exactly.
            if any(total != 1 << self.h for total in sums.tolist()):
                raise ValueError("exact probabilities do not sum to 1")
            return
        ok = np.abs(sums - 1.0) <= 1e-9  # a NaN total fails too
        if not ok.all():
            raise ValueError(f"probabilities sum to {float(sums[~ok][0])}, not 1")

    @property
    def probs(self) -> np.ndarray:
        """The entries one by one: DyadicReal objects for an exact table,
        the float plane itself for a float one."""
        if self.exact:
            return np.array([self[x] for x in range(len(self))], dtype=object)
        return self.plane

    def __len__(self) -> int:
        return self.plane.shape[-1]

    def __getitem__(self, x: int) -> DyadicReal | float:
        return _value(self.plane, 2 * self.h, x)

    def as_float_array(self) -> np.ndarray:
        """The table as float64; a float table returns its own plane."""
        return _as_float(self.plane, 2 * self.h)


def distribution(state: StateVector, first: int = 1, last: int | None = None) -> Distribution:
    """Born-rule probabilities p(x) = |amp(x)|^2 of qubits first..last
    (inclusive, 1-based; every qubit by default), summing out the rest,
    squared by :meth:`StateVector._squares` as the state's norm is.
    """
    m = state.num_qubits
    pre, keep, post = _qubit_range(m, first, m if last is None else last)
    dist = Distribution._of(*state._squares(pre, keep, post))
    dist._check_total()
    return dist


def marginal(dist: Distribution, first: int, last: int) -> Distribution:
    """Marginal over qubits first..last (inclusive, 1-based), summing out
    the rest."""
    pre, keep, post = _qubit_range(dist.num_qubits, first, last)
    return Distribution._of(_sum_out(dist.plane, pre, keep, post), dist.h)


def tv_distance(p: Distribution, q: Distribution) -> DyadicReal | float:
    """Total variation distance (1/2) sum_x |p(x) - q(x)|.

    Exact (DyadicReal) if both inputs are exact, float otherwise.
    """
    sums, h = _tv_sums(p, q)
    return float(sums[0]) if h is None else DyadicReal(int(sums[0]), 0, h)


def _tv_sums(p: Distribution, q: Distribution) -> tuple[np.ndarray, int | None]:
    """The one TV reduction: :func:`tv_distance` along the last axis, from
    each row of a row table ``p`` to the same row of ``q``, or to ``q``
    itself when it is one table, as one array.  Returns ``(d, None)``
    with float64 distances d when either table is float, else ``(s, h)``
    with integer sums s, each distance being s / 2^h, which
    ``_as_float(s, 2 * h)`` converts as ``float(DyadicReal(s, 0, h))``
    does."""
    if len(p) != len(q):
        raise ValueError("distributions live on different outcome spaces")
    if not (p.exact and q.exact):
        # order="C": NumPy sums a row of a column-major difference (see
        # _row_table) in another order, which moved the last bit of TVs.
        diff = np.subtract(p.as_float_array(), q.as_float_array(), order="C")
        sums = np.abs(diff, out=diff).sum(axis=-1)
        return 0.5 * np.atleast_1d(sums), None
    h = max(p.h, q.h)
    shifted = [(d.plane, h - d.h) for d in (p, q)]
    # Each |p - q| is below 2 * bound, so a row of them sums within int64
    # while bound * len < 2^62; larger ones use Python ints.
    small = all(_abs_max(x) << s < (1 << 62) // len(p) for x, s in shifted)
    x, y = (x.astype(np.int64 if small else object) << s for x, s in shifted)
    return np.atleast_1d(np.abs(x - y).sum(axis=-1)), h + 1


def sample_distribution(dist: Distribution, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic inverse-CDF draws; returns per-outcome counts."""
    if count < 1:
        raise ValueError("need at least one draw")
    probs = dist.as_float_array()
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = np.searchsorted(cdf, rng.random(count), side="right")
    return np.bincount(idx, minlength=len(probs)).astype(np.int64)


@dataclass(eq=False)
class SweepReport:
    """The statistics of a sweep and its per-oracle columns.

    ``columns`` is ``(tables, match, max deviation, TV to first)``, with
    entry i of each for oracle i: truth tables as uint64, or as Python
    ints in an object array past 64-bit tables (see
    :func:`compsearch.state._tables`), then bool, float64 and float64
    arrays.  Reports compare by identity, as arrays have no one truth
    value.
    """

    n: int
    backend: str
    exhaustive: bool
    seed: int | None
    rng_algorithm: str | None
    all_match: bool = True
    max_deviation: float = 0.0
    marginal_uniformity_deviation: float = 0.0
    max_pairwise_tv: float = 0.0
    max_pairwise_tv_is_exact: bool = True
    columns: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] = field(
        default=(np.empty(0, np.uint64), np.empty(0, bool), np.empty(0), np.empty(0)),
        repr=False,
    )

    @property
    def oracle_count(self) -> int:
        return len(self.columns[0])

    def summary(self) -> dict:
        """Every field of the report but the columns, which the CLI writes
        a block of rows at a time, plus the oracle count."""
        summary = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "columns"}
        return {**summary, "oracle_count": self.oracle_count}


def check_oracle(n: int, f: BooleanOracle, backend: str = EXACT) -> tuple[bool, float]:
    """Run the comparison circuit for ``f`` and compare against the
    diagonal target.  Returns (match, max per-amplitude deviation); the
    match is zero-tolerance in the exact backend and FLOAT_ATOL in float."""
    _check_register(n, f)
    return _check_oracles(n, _tables(n, [f.table]), backend)


def _check_oracles(n: int, tables: np.ndarray, backend: str) -> tuple[bool, float]:
    """:func:`check_oracle` over the truth tables of the column ``tables``
    (see :func:`compsearch.state._tables`): (whether all match, largest
    deviation)."""
    all_match, max_dev = True, 0.0
    for _, _, match, dev in _verdicts(n, backend, tables):
        all_match = all_match and bool(match.all())
        max_dev = max(max_dev, *dev.tolist())
    return all_match, max_dev


def _oracle_tables(n: int, seed: int = 0) -> np.ndarray:
    """The truth tables a sweep over n bits checks, as one column (see
    :func:`compsearch.state._tables`): all 2^(2^n) in order if n <=
    EXHAUSTIVE_SWEEP_MAX_N, else the tables of SAMPLED_SWEEP_COUNT
    :func:`random_oracle` draws from ``seed``."""
    if n <= EXHAUSTIVE_SWEEP_MAX_N:
        return np.arange(1 << (1 << n), dtype=np.uint64)
    rng = np.random.Generator(np.random.PCG64(seed))
    return _tables(n, [random_oracle(n, rng).table for _ in range(SAMPLED_SWEEP_COUNT)])


def _batches(n: int, tables: np.ndarray):
    """The column ``tables`` in slices of max(1, _BATCH_AMPS >> 2n) rows,
    a power of two; a last, shorter run is cut into slices of falling
    powers of two.  Yields ``(slice, its sign table)``."""
    rows = max(1, _BATCH_AMPS >> (2 * n))
    start = 0
    while start < len(tables):
        size = 1 << (min(rows, len(tables) - start).bit_length() - 1)
        batch = tables[start : start + size]
        start += size
        yield batch, _table_signs(n, batch)


def _verdicts(n: int, backend: str, tables: np.ndarray):
    """Run the comparison circuit for the truth tables of the column
    ``tables`` a batch at a time and compare each output with its
    diagonal target.  Yields per batch ``(tables, out, match, max
    deviation)``: oracle r's output is column r of ``out``'s plane viewed
    as (2^2n, R) (see :func:`compsearch.circuit._simulate_rows`), and the
    last two are bool and float64 arrays with one entry per oracle."""
    # Each batch's sign table overrides the oracle the circuit is built with.
    circuit = build_comparison_search(n, BooleanOracle(n, 0))
    for batch, signs in _batches(n, tables):
        out = _simulate_rows(circuit, signs, backend)
        yield (batch, out, *_match_diagonal(out, signs))


def _match_diagonal(out: StateVector, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per oracle r of ``out`` (see :func:`_verdicts`), whether its output
    equals the diagonal target signs[r, k]/sqrt(2^n) on |k>|k>, zero
    elsewhere -- zero-tolerance in the exact backend, FLOAT_ATOL in float
    -- and the largest deviation from it, as a bool and a float64 array.

    It reads the sign table and two strided views of the plane, the
    diagonal and the rest, and builds no target.  The deviation is
    :meth:`StateVector.max_abs_diff`'s against the target: off the
    diagonal the largest |c| of an output, taken as a float once, which
    is exact as :func:`_as_float` is odd and monotone.  Exact values
    match as ``==`` rules against a +-1 target at e = n: only at
    e = n + 2t, with the diagonal signs * 2^t and every other integer 0."""
    rows, size = signs.shape
    n = size.bit_length() - 1
    plane = out._plane.reshape(size * size, rows)
    diag, signs = plane[:: size + 1], signs.T
    off = plane[1:].reshape(size - 1, size + 1, rows)[:, :size]
    hi, lo = off.max(axis=(0, 1)), off.min(axis=(0, 1))
    diff = _as_float(diag, out._e) - _as_float(signs, n)
    # abs: np.maximum returns its second operand on a tie, which would
    # make an output of float zeros deviate by -0.0.
    dev = np.abs(np.maximum(_as_float(hi, out._e), -_as_float(lo, out._e)))
    dev = np.maximum(np.abs(diff, out=diff).max(axis=0), dev)
    if out.backend == FLOAT:
        return dev <= FLOAT_ATOL, dev
    t, odd = divmod(out._e - n, 2)
    if odd or not 0 <= t < 62:
        return np.zeros(rows, bool), dev
    return (diag == signs << t).all(axis=0) & (hi == 0) & (lo == 0), dev


def _row_table(out: StateVector, rows: int) -> Distribution:
    """The Born-rule tables of the ``rows`` oracles of ``out`` (see
    :func:`_verdicts`) as one row table, a column-major view of the plane
    squared by :meth:`StateVector._squares`; raises ValueError unless
    every row sums to 1.  A float marginal of it is the one-table
    marginal bit for bit only over a window that ends at the last qubit."""
    plane, h = out._squares(1, out.num_states, 1)
    table = Distribution._of(plane.reshape(-1, rows).T, h)
    table._check_total()
    return table


def sweep_all_f(n: int, backend: str = EXACT, *, seed: int = 0) -> SweepReport:
    """Check every oracle on n bits if n <= EXHAUSTIVE_SWEEP_MAX_N, else
    SAMPLED_SWEEP_COUNT oracles drawn from ``seed``, against the diagonal
    target and aggregate distribution statistics."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    exhaustive = n <= EXHAUSTIVE_SWEEP_MAX_N
    report = SweepReport(
        n=n,
        backend=backend,
        exhaustive=exhaustive,
        seed=None if exhaustive else seed,
        rng_algorithm=None if exhaustive else RNG_ALGORITHM,
    )
    truth = _oracle_tables(n, seed)
    uniform = 1.0 / (1 << n)
    first: Distribution | None = None
    # Kept only when _fill_pairwise_tv may compare every pair.
    keep_tables = len(truth) <= _ALL_PAIRS_LIMIT
    tables: list[Distribution] = []
    # Each column is allocated whole and filled a batch at a time: small
    # arrays kept alive between each batch's temporaries left freed heap
    # that glibc did not return, about 4 MB after an n = 4 sweep and 2 MB
    # after n = 9's 1000 one-oracle batches.
    match_col, dev_col, tv_col = (np.empty(len(truth), dtype) for dtype in (bool, float, float))
    done = 0
    for batch, out, match, dev in _verdicts(n, backend, truth):
        table = _row_table(out, len(batch))
        if first is None:
            first = table._row(0)
        tv, h = _tv_sums(table, first)
        if keep_tables:
            tables.append(table)
        marg = marginal(table, n + 1, 2 * n)
        # An exactly uniform exact marginal is 2^-n in float as well, so
        # its deviation is exactly 0.0.
        marg_dev = float(np.abs(marg.as_float_array() - uniform).max())
        report.marginal_uniformity_deviation = max(
            report.marginal_uniformity_deviation, marg_dev
        )
        rows = slice(done, done + len(batch))
        done += len(batch)
        match_col[rows], dev_col[rows] = match, dev
        tv_col[rows] = tv if h is None else _as_float(tv, 2 * h)
    report.all_match, report.max_deviation = bool(match_col.all()), float(dev_col.max())
    report.columns = (truth, match_col, dev_col, tv_col)
    _fill_pairwise_tv(report, tables)
    return report


# All-pairs TV is quadratic in the oracle count; beyond this many
# distributions the report falls back to the triangle-inequality bound
# max_i d(i,0) + max_j d(j,0).
_ALL_PAIRS_LIMIT = 512


def _fill_pairwise_tv(report: SweepReport, tables: list[Distribution]) -> None:
    """Set the largest TV distance between any two rows of the row
    ``tables``.  It is exactly 0 when the report's TV column, each row's
    distance to the first, is all zero: a float distance is 0.0 only
    between bitwise-equal tables, bar differences that sum to 2^-1074,
    and an exact nonzero sum stays nonzero as a float.  A float sweep
    past the limit still reports the bound, flagged inexact."""
    identical = not report.columns[3].any()
    if report.oracle_count <= _ALL_PAIRS_LIMIT or (identical and report.backend == EXACT):
        worst = 0.0
        if not identical:
            # len of a row table's plane is its row count.
            rows = [t._row(r) for t in tables for r in range(len(t.plane))]
            for table in tables:
                for row in rows:
                    sums, h = _tv_sums(table, row)
                    tv = sums if h is None else _as_float(sums, 2 * h)
                    worst = max(worst, float(tv.max()))
        report.max_pairwise_tv = worst
        report.max_pairwise_tv_is_exact = True
        return
    top = np.sort(report.columns[3])[-2:].tolist()
    report.max_pairwise_tv = float(sum(top))
    report.max_pairwise_tv_is_exact = False


@dataclass
class GroverComparison:
    n: int
    marked: int
    samples: int
    seed: int
    rng_algorithm: str
    comparison_probability: float
    comparison_probability_is_exact: bool
    comparison_empirical_frequency: float
    grover_iterations: int
    grover_probability: float
    grover_empirical_frequency: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "marked": self.marked,
            "samples": self.samples,
            "seed": self.seed,
            "rng_algorithm": self.rng_algorithm,
            "comparison_circuit": {
                "probability": self.comparison_probability,
                "equals_two_to_minus_n": self.comparison_probability_is_exact,
                "empirical_frequency": self.comparison_empirical_frequency,
            },
            "grover": {
                "iterations": self.grover_iterations,
                "probability": self.grover_probability,
                "empirical_frequency": self.grover_empirical_frequency,
            },
        }


def compare_grover(
    n: int, marked: int, samples: int = 100000, seed: int = 0
) -> GroverComparison:
    """Search for one marked element both ways and report probabilities.

    The comparison circuit runs on the exact backend so the marked-element
    probability on the second register can be compared to 2^-n with zero
    tolerance; Grover runs on floats with the optimal iteration count.
    Empirical frequencies are deterministic: the comparison side draws
    with the given seed, Grover with seed + 1.
    """
    if n < 2:
        raise ValueError(f"comparison needs n >= 2, got {n}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    f = BooleanOracle.from_marked(n, [marked])

    out = simulate(build_comparison_search(n, f), EXACT)
    marg = distribution(out, n + 1, 2 * n)
    p_exact = marg[marked]
    comp_counts = sample_distribution(marg, samples, seed)
    comp_freq = float(comp_counts[marked]) / samples

    iters = grover_optimal_iterations(n, 1)
    gdist = distribution(simulate(build_grover(n, f, iters), FLOAT))
    gcounts = sample_distribution(gdist, samples, seed + 1)
    gfreq = float(gcounts[marked]) / samples

    return GroverComparison(
        n=n,
        marked=marked,
        samples=samples,
        seed=seed,
        rng_algorithm=RNG_ALGORITHM,
        comparison_probability=p_exact.to_float(),
        comparison_probability_is_exact=p_exact == DyadicReal(1, 0, n),
        comparison_empirical_frequency=comp_freq,
        grover_iterations=iters,
        grover_probability=gdist[marked],
        grover_empirical_frequency=gfreq,
    )
