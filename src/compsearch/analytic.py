"""Closed-form checkpoint states, built independently of the simulator.

Each constructor evaluates its defining sum literally, without algebraic
simplification, so that agreement with both the gate-level simulation and
the diagonal target state is a real cross-check rather than the same code
run twice:

* psi1: every amplitude equals 1/2^n.
* psi2: amplitude of |j>|k> is (-1)^f(k) / 2^n.
* psi2a: after the first comparison gate, qubit n of every term is
  replaced by (|0> + (-1)^(1 + j_n + k_n) |1>)/sqrt(2) with an extra
  (-1)^(j_n k_n) sign; accumulated term by term over all (j, k).
* psi3: amplitude of |l>|k> is the triple sum
  (1 / (2^n sqrt(2^n))) * sum_j (-1)^(f(k) + j.k + l_1+...+l_n + l.(j xor k)),
  cost O(2^(3n)).
* target_output: the diagonal state with amplitude (-1)^f(k)/sqrt(2^n)
  on |k>|k> and zero elsewhere -- what psi3 collapses to via the parity
  identity sum_j (-1)^(j.d) = 2^n [d = 0].  It is one dense state, for
  one oracle; the sweeps judge a batch of outputs against the same
  diagonal read off the sign table in place, with no target state (see
  :func:`compsearch.refutation._match_diagonal`).

Bit i of an n-bit integer is counted from the most significant side,
matching the register convention in :mod:`compsearch.state`.
"""

from __future__ import annotations

import numpy as np

from .state import EXACT, BACKENDS, BooleanOracle, StateVector, _as_float, _check_register


def _check_args(n: int, f: BooleanOracle | None, backend: str) -> None:
    _check_register(n, f)
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")


def _from_units(coeff: np.ndarray, e: int, backend: str) -> StateVector:
    """State whose amplitude at x is coeff[x] / sqrt(2)^e, for an integer
    ``coeff`` (int64, or int8 for the +-1 signs of the target): an exact
    state takes it over as its plane, and a float one takes the plane
    that :func:`compsearch.state._as_float` converts it to."""
    if backend == EXACT:
        return StateVector._from_plane(coeff, e)
    return StateVector._from_plane(_as_float(coeff, e))


def psi0(n: int, backend: str = EXACT) -> StateVector:
    """|0>|0> on two n-qubit registers."""
    _check_args(n, None, backend)
    return StateVector(2 * n, backend)


def psi1(n: int, backend: str = EXACT) -> StateVector:
    """The double uniform superposition: all 2^(2n) amplitudes 1/2^n."""
    _check_args(n, None, backend)
    coeff = np.ones(1 << (2 * n), dtype=np.int64)
    return _from_units(coeff, 2 * n, backend)


def psi2(n: int, f: BooleanOracle, backend: str = EXACT) -> StateVector:
    """Amplitude of |j>|k> is (-1)^f(k) / 2^n."""
    _check_args(n, f, backend)
    coeff = np.tile(f.sign_array(), 1 << n)
    return _from_units(coeff, 2 * n, backend)


def psi2a(n: int, f: BooleanOracle, backend: str = EXACT) -> StateVector:
    """State after the comparison gate on (n, 2n), by direct summation.

    Each (j, k) term contributes (-1)^(f(k) + j_n k_n) times
    (|0> + (-1)^(1 + j_n + k_n) |1>)/sqrt(2) in qubit-n position, i.e.
    two basis amplitudes of magnitude 1/(2^n sqrt(2)).
    """
    _check_args(n, f, backend)
    size = 1 << n
    coeff = np.zeros(1 << (2 * n), dtype=np.int64)
    for j in range(size):
        jn = j & 1
        for k in range(size):
            kn = k & 1
            base = f(k) + (jn & kn)
            for t in (0, 1):
                idx = (((j & ~1) | t) << n) | k
                sign = base + (1 + jn + kn) * t
                coeff[idx] += -1 if sign & 1 else 1
    return _from_units(coeff, 2 * n + 1, backend)


def psi3(n: int, f: BooleanOracle, backend: str = EXACT) -> StateVector:
    """Final state via the literal triple sum over (l, k, j).

    Amplitude of |l>|k> is
    (1/(2^n sqrt(2^n))) sum_j (-1)^(f(k) + j.k + l_1+...+l_n + l.(j xor k)).
    """
    _check_args(n, f, backend)
    size = 1 << n
    coeff = np.zeros(1 << (2 * n), dtype=np.int64)
    for l in range(size):
        lbits = l.bit_count()
        for k in range(size):
            fk = f(k)
            total = 0
            for j in range(size):
                e = fk + (j & k).bit_count() + lbits + (l & (j ^ k)).bit_count()
                total += -1 if e & 1 else 1
            coeff[(l << n) | k] = total
    return _from_units(coeff, 3 * n, backend)


def target_output(n: int, f: BooleanOracle, backend: str = EXACT) -> StateVector:
    """The diagonal state: (-1)^f(k)/sqrt(2^n) on |k>|k>, zero elsewhere."""
    _check_args(n, f, backend)
    size = 1 << n
    coeff = np.zeros(size * size, dtype=np.int8)
    coeff[:: size + 1] = f.sign_array()
    return _from_units(coeff, n, backend)
