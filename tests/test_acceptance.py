"""Acceptance suite.

One test per acceptance criterion; each prints a PASS line when its
assertions hold (run with ``pytest -v -s tests/test_acceptance.py`` to
see them).  Every tolerance is pinned here: exact-backend checks are
zero-tolerance ring equality, float-backend checks are 1e-12 per
amplitude, and the Grover contrast bound is 1 - 2^-n.

The heavyweight case is criterion 6, whose largest instance runs the
comparison circuit exactly over 2^24 amplitudes; it stays well under
its two-minute budget on commodity hardware.
"""

import itertools

import numpy as np

import compsearch as cs
from compsearch import DyadicReal, StateVector
from compsearch.cli import main
from conftest import basis_state, delta_identity, is_unitary, random_exact_state

FLOAT_TOL = 1e-12


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_exhaustive_exactness():
    """Every oracle at n <= 3: simulator output equals the diagonal
    target with exact dyadic equality (tolerance zero)."""
    runs = 0
    for n in (1, 2, 3):
        for f in (cs.BooleanOracle(n, t) for t in range(1 << (1 << n))):
            out = cs.simulate(cs.build_comparison_search(n, f))
            assert out == cs.target_output(n, f), f"mismatch at n={n}, f={f!r}"
            runs += 1
    assert runs == 4 + 16 + 256
    report(1, f"{runs}/{runs} exhaustive runs match the diagonal target exactly")


def test_criterion_2_derivation_chain_checkpoints():
    """psi2 and psi2a snapshots equal their closed forms, and the literal
    triple-sum psi3 equals the diagonal target, exactly, same sweep."""
    runs = 0
    for n in (1, 2, 3):
        for f in (cs.BooleanOracle(n, t) for t in range(1 << (1 << n))):
            tr = cs.run_with_trace(cs.build_comparison_search(n, f), StateVector(2 * n))
            assert tr["psi2"] == cs.psi2(n, f)
            assert tr["psi2a"] == cs.psi2a(n, f)
            p3 = cs.psi3(n, f)
            assert tr["psi3"] == p3
            assert p3 == cs.target_output(n, f)
            runs += 1
    report(2, f"checkpoint chain exact for all {runs} oracles at n <= 3")


def test_criterion_3_delta_identity_exhaustive():
    """sum_j (-1)^(j.(k xor l)) = 2^n [k = l] for every pair, n <= 8."""
    pairs = 0
    for n in range(1, 9):
        size = 1 << n
        for k in range(size):
            for l in range(size):
                want = size if k == l else 0
                assert delta_identity(n, k, l) == want
                pairs += 1
    report(3, f"parity identity holds on all {pairs} (k, l) pairs up to n=8")


def test_criterion_4_f_independence_exact():
    """All 120 oracle pairs at n=2 have TV distance exactly 0, and the
    second-register marginal is exactly 2^-n for every oracle, n <= 3."""
    dists = [
        cs.distribution(cs.simulate(cs.build_comparison_search(2, f)))
        for f in (cs.BooleanOracle(2, t) for t in range(1 << (1 << 2)))
    ]
    pair_count = 0
    for d1, d2 in itertools.combinations(dists, 2):
        assert cs.tv_distance(d1, d2) == 0
        pair_count += 1
    assert pair_count == 120

    checked = 0
    for n in (1, 2, 3):
        uniform = DyadicReal(1, 0, n)
        for f in (cs.BooleanOracle(n, t) for t in range(1 << (1 << n))):
            out = cs.simulate(cs.build_comparison_search(n, f))
            marg = cs.marginal(cs.distribution(out), n + 1, 2 * n)
            assert all(p == uniform for p in marg.probs)
            checked += 1
    report(4, f"120/120 pairs at TV 0; uniform marginal for {checked} oracles")


def test_criterion_5_float_backend_fidelity():
    """n in 4..8, 100 seeded random oracles each: float output within
    1e-12 per amplitude of the diagonal target, norm drift <= 1e-12."""
    rng = np.random.Generator(np.random.PCG64(20240501))
    worst_dev = 0.0
    worst_norm = 0.0
    for n in range(4, 9):
        for _ in range(100):
            f = cs.random_oracle(n, rng)
            out = cs.simulate(cs.build_comparison_search(n, f), cs.FLOAT)
            dev = out.max_abs_diff(cs.target_output(n, f, backend=cs.FLOAT))
            drift = abs(out.norm_squared() - 1.0)
            assert dev <= FLOAT_TOL, f"n={n}: deviation {dev}"
            assert drift <= FLOAT_TOL, f"n={n}: norm drift {drift}"
            worst_dev = max(worst_dev, dev)
            worst_norm = max(worst_norm, drift)
    report(5, f"500 float runs: max deviation {worst_dev:.2e}, max drift {worst_norm:.2e}")


def test_criterion_6_grover_contrast():
    """Single marked element, n in 2..12: Grover succeeds with
    probability >= 1 - 2^-n after the optimal iteration count, while the
    comparison circuit yields the marked element with probability exactly
    2^-n (verified in the exact backend, up to 2^24 amplitudes)."""
    rng = np.random.Generator(np.random.PCG64(77))
    lines = []
    for n in range(2, 13):
        marked = int(rng.integers(1 << n))
        rec = cs.compare_grover(n, marked, samples=1000, seed=0)
        floor = 1.0 - 2.0**-n
        assert rec.comparison_probability_is_exact, f"n={n}: not exactly 2^-{n}"
        assert rec.grover_probability >= floor, (
            f"n={n}: grover {rec.grover_probability} < {floor}"
        )
        lines.append(f"n={n}: 2^-{n} vs {rec.grover_probability:.6f}")
    report(6, "; ".join(lines[:3]) + f"; ... up to n=12 ({lines[-1]})")


def test_criterion_7_gate_level_properties():
    """Comparison gate matches its per-qubit action on all four basis
    inputs exactly; C^T C = I exactly; disjoint-pair applications commute
    exactly on >= 100 random states."""
    C = cs.comparison_gate()
    inv = DyadicReal(0, 1, 1)
    for j in (0, 1):
        for k in (0, 1):
            got = cs.apply_gate2(basis_state(2, 2 * j + k), 1, 2, C)
            outer = -1 if j * k else 1
            inner = -1 if (1 + j + k) % 2 else 1
            amps = [DyadicReal(0, 0)] * 4
            amps[k] = outer * inv
            amps[2 | k] = outer * inner * inv
            assert got == StateVector.from_amplitudes(amps)

    assert is_unitary(C)

    rng = np.random.Generator(np.random.PCG64(123))
    cases = 0
    for _ in range(100):
        s = random_exact_state(4, rng)
        a = s.copy()
        cs.apply_gate2(a, 1, 3, C)
        cs.apply_gate2(a, 2, 4, C)
        b = s.copy()
        cs.apply_gate2(b, 2, 4, C)
        cs.apply_gate2(b, 1, 3, C)
        assert a == b
        cases += 1
    report(7, f"action formula, unitarity, and commutation on {cases} random states")


def test_criterion_8_deterministic_reports(tmp_path):
    """Repeated sweep invocations with fixed arguments produce
    byte-identical report files, in both JSON and CSV."""
    for fmt in ("json", "csv"):
        a = tmp_path / f"a.{fmt}"
        b = tmp_path / f"b.{fmt}"
        for path in (a, b):
            code = main(
                ["sweep", "--n", "2", "--seed", "5", "--format", fmt, "--out", str(path)]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes(), f"{fmt} reports differ"
    report(8, "sweep reports byte-identical across reruns (json and csv)")
