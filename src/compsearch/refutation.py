"""Measurement statistics and the no-information verdict.

The claim under test is distributional: for every oracle f the circuit's
output measurement statistics are the same, so observing the output says
nothing about which elements are marked.  Total variation distance is
the metric; in the exact backend probabilities are squared ring elements
and TV distances are computed with zero tolerance.

``sweep_all_f`` runs the circuit for every oracle (exhaustively up to a
configurable register size, seeded samples beyond) and compares each
output against the diagonal target state.  ``compare_grover`` runs the
contrast case: the same marked element handed to Grover search is found
with probability near 1, while the comparison circuit leaves it at
exactly 2^-n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analytic import target_output
from .circuit import build_comparison_search, build_grover, grover_optimal_iterations, simulate
from .dyadic import DyadicReal
from .state import (
    EXACT,
    FLOAT,
    FLOAT_ATOL,
    BACKENDS,
    BitString,
    BooleanOracle,
    StateVector,
    random_oracle,
)

RNG_ALGORITHM = "numpy-pcg64"

# Exhaustive oracle sweeps stop here; 2^(2^n) explodes immediately after.
EXHAUSTIVE_SWEEP_MAX_N = 4
SAMPLED_SWEEP_COUNT = 1000


class Distribution:
    """Dense probability table over the 2^m basis outcomes of m qubits.

    Exact distributions hold DyadicReal entries (squares stay inside the
    ring); float distributions hold float64.
    """

    __slots__ = ("probs", "num_qubits", "exact")

    def __init__(self, probs: np.ndarray, num_qubits: int, exact: bool) -> None:
        if len(probs) != 1 << num_qubits:
            raise ValueError("probability table size does not match qubit count")
        self.probs = probs
        self.num_qubits = num_qubits
        self.exact = exact
        total = self.total
        if exact:
            if total != 1:
                raise ValueError("exact probabilities do not sum to 1")
        elif abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")

    @property
    def total(self):
        return self.probs.sum()

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, x: int):
        return self.probs[x]

    def as_float_array(self) -> np.ndarray:
        if self.exact:
            return np.array([p.to_float() for p in self.probs], dtype=np.float64)
        return self.probs.astype(np.float64)


def distribution(state: StateVector) -> Distribution:
    """Born-rule probabilities p(x) = |amp(x)|^2."""
    if state.backend == EXACT:
        a, b = (p.astype(object) for p in state._planes)
        pa = a * a + 2 * b * b
        pb = 2 * a * b
        h = 2 * state._h
        probs = np.array(
            [DyadicReal(int(x), int(y), h) for x, y in zip(pa, pb)], dtype=object
        )
        return Distribution(probs, state.num_qubits, exact=True)
    probs = np.abs(state._planes[0]) ** 2
    return Distribution(probs, state.num_qubits, exact=False)


def marginal(dist: Distribution, first: int, last: int) -> Distribution:
    """Marginal over qubits first..last (inclusive, 1-based), summing out
    the rest."""
    m = dist.num_qubits
    if not 1 <= first <= last <= m:
        raise ValueError(f"qubit range {first}..{last} invalid for {m} qubits")
    pre = 1 << (first - 1)
    keep = 1 << (last - first + 1)
    post = 1 << (m - last)
    table = dist.probs.reshape(pre, keep, post).sum(axis=(0, 2))
    return Distribution(table, last - first + 1, dist.exact)


def tv_distance(p: Distribution, q: Distribution):
    """Total variation distance (1/2) sum_x |p(x) - q(x)|.

    Exact (DyadicReal) if both inputs are exact, float otherwise.
    """
    if len(p) != len(q):
        raise ValueError("distributions live on different outcome spaces")
    if p.exact and q.exact:
        total = DyadicReal(0, 0)
        for x, y in zip(p.probs, q.probs):
            total = total + abs(x - y)
        return total * DyadicReal(1, 0, 1)
    return 0.5 * float(np.abs(p.as_float_array() - q.as_float_array()).sum())


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


def sample(state: StateVector, count: int, seed: int = 0) -> np.ndarray:
    """Measure ``state`` ``count`` times in the computational basis."""
    return sample_distribution(distribution(state), count, seed)


def empirical_distribution(counts: np.ndarray, num_qubits: int) -> Distribution:
    """Normalized counts as a float distribution."""
    total = int(counts.sum())
    if total < 1:
        raise ValueError("empty counts")
    return Distribution(counts.astype(np.float64) / total, num_qubits, exact=False)


def _exact_prob_ints(state: StateVector) -> tuple[np.ndarray, np.ndarray, int]:
    """Probabilities of an exact state as integer pairs over 2^(2h):
    p(x) = (pa[x] + pb[x] * sqrt(2)) / 2^(2h), h minimal, so that the
    tables of equal states are equal.  Object dtype, never wraps."""
    state._canonical_reduce()
    a, b = (p.astype(object) for p in state._planes)
    return a * a + 2 * b * b, 2 * a * b, 2 * state._h


def second_register_probability(state: StateVector, n: int, outcome: int):
    """Probability that the last n qubits read ``outcome``; exact when the
    state is exact.  Avoids materializing the full distribution."""
    if not 0 <= outcome < (1 << n):
        raise ValueError(f"outcome {outcome} out of range for {n} bits")
    if n > state.num_qubits:
        raise ValueError("register wider than the state")
    if state.backend == EXACT:
        a, b = (p[outcome :: 1 << n].astype(object) for p in state._planes)
        return DyadicReal(
            int((a * a + 2 * b * b).sum()), int(2 * (a * b).sum()), 2 * state._h
        )
    amps = state._planes[0][outcome :: 1 << n]
    return float(np.vdot(amps, amps).real)


def second_register_marginal_floats(state: StateVector, n: int) -> np.ndarray:
    """Float marginal distribution of the last n qubits."""
    width = 1 << n
    if state.backend != EXACT:
        probs = np.abs(state._planes[0]) ** 2
        return probs.reshape(-1, width).sum(axis=0)
    # Real amplitudes: re**2 is |re + 0j|**2 bit for bit.  Rows are squared
    # a block at a time, the running sum stacked on each block as its first
    # row; numpy sums axis 0 row by row, so the additions are those of one
    # sum(axis=0) over the whole table, without a float copy of the state.
    rows = max(1, _MARGINAL_BLOCK // width)
    marg = np.zeros((0, width))
    for start in range(0, state.num_states, rows * width):
        probs = state._real_floats(start, start + rows * width)
        np.square(probs, out=probs)
        marg = np.concatenate([marg, probs.reshape(-1, width)]).sum(axis=0, keepdims=True)
    return marg[0]


# Amplitudes per block of the exact second-register marginal.
_MARGINAL_BLOCK = 1 << 20


@dataclass(frozen=True)
class OracleVerdict:
    oracle_id: int
    table: int
    exact_match: bool
    max_deviation: float
    tv_to_first: float


@dataclass
class SweepReport:
    n: int
    backend: str
    exhaustive: bool
    seed: int | None
    rng_algorithm: str | None
    verdicts: list[OracleVerdict] = field(default_factory=list)
    all_match: bool = True
    max_deviation: float = 0.0
    marginal_uniformity_deviation: float = 0.0
    max_pairwise_tv: float = 0.0
    max_pairwise_tv_is_exact: bool = True

    @property
    def oracle_count(self) -> int:
        return len(self.verdicts)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "backend": self.backend,
            "exhaustive": self.exhaustive,
            "seed": self.seed,
            "rng_algorithm": self.rng_algorithm,
            "oracle_count": self.oracle_count,
            "all_match": self.all_match,
            "max_deviation": self.max_deviation,
            "marginal_uniformity_deviation": self.marginal_uniformity_deviation,
            "max_pairwise_tv": self.max_pairwise_tv,
            "max_pairwise_tv_is_exact": self.max_pairwise_tv_is_exact,
            "verdicts": [
                {
                    "oracle_id": v.oracle_id,
                    "table": format(v.table, "#x"),
                    "exact_match": v.exact_match,
                    "max_dev": v.max_deviation,
                    "tv_to_first": v.tv_to_first,
                }
                for v in self.verdicts
            ],
        }


def check_oracle(n: int, f: BooleanOracle, backend: str = EXACT) -> tuple[bool, float]:
    """Run the comparison circuit for ``f`` and compare against the
    diagonal target.  Returns (match, max per-amplitude deviation); the
    match is zero-tolerance in the exact backend and FLOAT_ATOL in float."""
    _, _, match, dev = next(_verdicts(n, backend, [f]))
    return match, dev


def _verdicts(n: int, backend: str, oracles):
    """Per oracle, run the comparison circuit and compare its output with
    the diagonal target: yields ``(f, out, match, max deviation)``."""
    for f in oracles:
        out = simulate(build_comparison_search(n, f), backend)
        target = target_output(n, f, backend=backend)
        dev = out.max_abs_diff(target)
        match = (out == target) if backend == EXACT else dev <= FLOAT_ATOL
        yield f, out, match, dev


def _sweep_oracles(n: int, exhaustive: bool, count: int, seed: int):
    if exhaustive:
        for table in range(1 << (1 << n)):
            yield BooleanOracle(n, table)
    else:
        rng = np.random.Generator(np.random.PCG64(seed))
        for _ in range(count):
            yield random_oracle(n, rng)


def sweep_all_f(
    n: int,
    backend: str = EXACT,
    *,
    exhaustive: bool | None = None,
    sample_count: int = SAMPLED_SWEEP_COUNT,
    seed: int = 0,
) -> SweepReport:
    """Check every oracle (or a seeded sample for large n) against the
    diagonal target and aggregate distribution statistics.

    ``exhaustive=None`` picks exhaustive iff n <= EXHAUSTIVE_SWEEP_MAX_N;
    requesting exhaustive beyond that raises ValueError (2^(2^n) oracles).
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if exhaustive is None:
        exhaustive = n <= EXHAUSTIVE_SWEEP_MAX_N
    if exhaustive and n > EXHAUSTIVE_SWEEP_MAX_N:
        raise ValueError(
            f"exhaustive sweep at n={n} needs 2^{1 << n} circuit runs; "
            f"cap is n={EXHAUSTIVE_SWEEP_MAX_N}"
        )
    report = SweepReport(
        n=n,
        backend=backend,
        exhaustive=exhaustive,
        seed=None if exhaustive else seed,
        rng_algorithm=None if exhaustive else RNG_ALGORITHM,
    )
    uniform = 1.0 / (1 << n)
    first_probs: np.ndarray | None = None
    first_ints = None
    # Kept only when _fill_pairwise_tv will compare every pair.
    keep_dists = ((1 << (1 << n)) if exhaustive else sample_count) <= _ALL_PAIRS_LIMIT
    dists: list[np.ndarray] = []
    all_dists_identical = backend == EXACT
    oracles = _sweep_oracles(n, exhaustive, sample_count, seed)
    for i, (f, out, match, dev) in enumerate(_verdicts(n, backend, oracles)):
        probs = np.abs(out.to_float_array()) ** 2
        ints = _exact_prob_ints(out) if backend == EXACT else None
        if first_probs is None:
            first_probs = probs
            first_ints = ints
            tv = 0.0
        elif backend == EXACT:
            same = (
                ints[2] == first_ints[2]
                and np.array_equal(ints[0], first_ints[0])
                and np.array_equal(ints[1], first_ints[1])
            )
            all_dists_identical = all_dists_identical and same
            tv = 0.0 if same else _tv_floats(probs, first_probs)
        else:
            tv = _tv_floats(probs, first_probs)
        if keep_dists:
            dists.append(probs)
        marg_dev = _marginal_uniformity_deviation(probs, ints, n, uniform)
        report.marginal_uniformity_deviation = max(
            report.marginal_uniformity_deviation, marg_dev
        )
        report.verdicts.append(OracleVerdict(i, f.table, match, dev, tv))
        report.all_match = report.all_match and match
        report.max_deviation = max(report.max_deviation, dev)
    _fill_pairwise_tv(report, dists, all_dists_identical)
    return report


def _marginal_uniformity_deviation(probs, ints, n: int, uniform: float) -> float:
    """Largest |second-register marginal - 2^-n|; zero tolerance when the
    exact integer tables are available."""
    if ints is not None:
        pa, pb, ph = ints
        ma = pa.reshape(-1, 1 << n).sum(axis=0)
        mb = pb.reshape(-1, 1 << n).sum(axis=0)
        want = 1 << (ph - n)  # 2^-n over the common denominator 2^ph
        if ph >= n and all(x == 0 for x in mb) and all(x == want for x in ma):
            return 0.0
    marg = probs.reshape(-1, 1 << n).sum(axis=0)
    return float(np.abs(marg - uniform).max())


def _tv_floats(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


# All-pairs TV is quadratic in the oracle count; beyond this many
# distributions the report falls back to the triangle-inequality bound
# max_i d(i,0) + max_j d(j,0).
_ALL_PAIRS_LIMIT = 512


def _fill_pairwise_tv(report: SweepReport, dists: list[np.ndarray], exact_zero: bool) -> None:
    if exact_zero:
        # Every distribution equals the first one exactly, so every
        # pairwise distance is zero by the triangle inequality.
        report.max_pairwise_tv = 0.0
        report.max_pairwise_tv_is_exact = True
        return
    if report.oracle_count <= _ALL_PAIRS_LIMIT:
        worst = 0.0
        for i in range(len(dists)):
            for j in range(i + 1, len(dists)):
                worst = max(worst, _tv_floats(dists[i], dists[j]))
        report.max_pairwise_tv = worst
        report.max_pairwise_tv_is_exact = True
        return
    to_first = [v.tv_to_first for v in report.verdicts]
    top = sorted(to_first)[-2:]
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
    n: int, marked: int | BitString, samples: int = 100000, seed: int = 0
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
    marked_value = marked.value if isinstance(marked, BitString) else marked
    if not 0 <= marked_value < (1 << n):
        raise ValueError(f"marked element {marked_value} out of range for n={n}")
    f = BooleanOracle.from_marked(n, [marked_value])

    out = simulate(build_comparison_search(n, f), EXACT)
    p_exact = second_register_probability(out, n, marked_value)
    p_is_pow2 = p_exact == DyadicReal(1, 0, n)
    marg = second_register_marginal_floats(out, n)
    comp_counts = sample_distribution(Distribution(marg, n, exact=False), samples, seed)
    comp_freq = float(comp_counts[marked_value]) / samples

    iters = grover_optimal_iterations(n, 1)
    gout = simulate(build_grover(n, f, iters), FLOAT)
    gprobs = np.abs(gout.to_float_array()) ** 2
    gp = float(gprobs[marked_value])
    gcounts = sample_distribution(Distribution(gprobs, n, exact=False), samples, seed + 1)
    gfreq = float(gcounts[marked_value]) / samples

    return GroverComparison(
        n=n,
        marked=marked_value,
        samples=samples,
        seed=seed,
        rng_algorithm=RNG_ALGORITHM,
        comparison_probability=p_exact.to_float(),
        comparison_probability_is_exact=bool(p_is_pow2),
        comparison_empirical_frequency=comp_freq,
        grover_iterations=iters,
        grover_probability=gp,
        grover_empirical_frequency=gfreq,
    )
