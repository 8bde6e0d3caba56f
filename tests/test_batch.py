"""The batched oracle loop against one oracle at a time.

A batch of R oracles runs as one state whose trailing log2 R qubits pick
the oracle, and comes back transposed so that its leading log2 R qubits
do.  Each row must be bit for bit the output of that oracle's own
circuit, and each per-row statistic bit for bit what the one-table
routine, or the literal formula it replaced, gives for that row alone.
"""

import json
import re
import sys
import tracemalloc
from itertools import islice

import numpy as np
import pytest

import compsearch as cs
from compsearch import (
    Distribution,
    DyadicReal,
    StateVector,
    analytic,
    circuit,
    cli,
    gates,
    refutation,
    state,
)
from conftest import random_exact_state, random_float_state, report_dict


def batch_rows(monkeypatch, n: int, rows: int) -> None:
    """Make the sweep loop run oracles on n bits ``rows`` at a time."""
    monkeypatch.setattr(refutation, "_BATCH_AMPS", rows << (2 * n))


def row_state(out: StateVector, rows: int, r: int) -> StateVector:
    """Row r of a batched state as a state of its own."""
    m = out.num_qubits - (rows.bit_length() - 1)
    plane = out._plane.reshape(rows, -1)[r].copy()
    return StateVector._from_plane(m, out.backend, plane, out._e)


@pytest.mark.parametrize("backend", cs.BACKENDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_each_row_is_its_oracles_circuit(monkeypatch, n, backend):
    # Four rows a batch over seven oracles: the last three run as 2 + 1.
    batch_rows(monkeypatch, n, 4)
    rng = np.random.Generator(np.random.PCG64(10 + n))
    oracles = [cs.random_oracle(n, rng) for _ in range(7)]
    tables = state._tables(n, [f.table for f in oracles])
    sizes, seen = [], []
    for batch, out, match, dev in refutation._verdicts(n, backend, tables):
        rows = len(batch)
        sizes.append(rows)
        assert out.num_qubits == (rows.bit_length() - 1) + 2 * n
        assert match.dtype == bool and dev.dtype == np.float64
        for r, table in enumerate(batch.tolist()):
            f = cs.BooleanOracle(n, table)
            want = cs.simulate(cs.build_comparison_search(n, f), backend)
            got = row_state(out, rows, r)
            if backend == cs.EXACT:
                assert got == want
            else:
                assert np.array_equal(got._plane, want._plane)
            target = cs.target_output(n, f, backend)
            assert match[r]
            assert dev[r] == want.max_abs_diff(target)
            seen.append(f)
    assert sizes == [4, 2, 1] and seen == oracles


def oracle_batches(oracles, rows: int):
    """The batching of oracle objects that the table batches replaced:
    lists of ``rows``, a last, shorter list cut into lists of falling
    powers of two."""
    it = iter(oracles)
    while batch := list(islice(it, rows)):
        while batch:
            size = 1 << (len(batch).bit_length() - 1)
            yield batch[:size]
            batch = batch[size:]


def literal_signs(n: int, tables) -> list:
    """(-1)^f(k) of each truth table, bit by bit."""
    return [[1 - 2 * ((t >> k) & 1) for k in range(1 << n)] for t in tables]


def assert_batches_match(n: int, tables: np.ndarray, oracles: list) -> None:
    """The table batches of ``tables`` are the oracle batches of
    ``oracles``: the same sizes, and row for row the same sign tables,
    both as ``_sign_table`` and as the literal bits give them."""
    rows = max(1, refutation._BATCH_AMPS >> (2 * n))
    want = list(oracle_batches(oracles, rows))
    got = list(refutation._batches(n, tables))
    assert [len(b) for b, _ in got] == [len(b) for b in want]
    for (batch, signs), fs in zip(got, want):
        assert batch.tolist() == [f.table for f in fs]
        assert signs.dtype == np.int64
        assert np.array_equal(signs, state._sign_table(n, fs))
        assert signs.tolist() == literal_signs(n, batch.tolist())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exhaustive_table_batches_are_all_oracles(n):
    tables = refutation._oracle_tables(n)
    assert tables.dtype == np.uint64
    assert_batches_match(n, tables, list(cs.all_oracles(n)))


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_sampled_table_batches_are_the_random_oracle_draws(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    oracles = [cs.random_oracle(n, rng) for _ in range(refutation.SAMPLED_SWEEP_COUNT)]
    tables = refutation._oracle_tables(n, seed)
    # Tables of up to 64 bits are uint64, wider ones Python ints.
    assert tables.dtype == (np.uint64 if n <= 6 else object)
    assert tables.tolist() == [f.table for f in oracles]
    assert_batches_match(n, tables, oracles)


@pytest.mark.parametrize("backend", cs.BACKENDS)
def test_sweep_report_does_not_depend_on_batch_size(monkeypatch, backend):
    whole = json.dumps(report_dict(cs.sweep_all_f(3, backend)))
    for rows in (1, 4):
        batch_rows(monkeypatch, 3, rows)
        assert json.dumps(report_dict(cs.sweep_all_f(3, backend))) == whole


def test_sign_table_rows_are_the_truth_tables():
    rng = np.random.Generator(np.random.PCG64(3))
    for n in range(1, 8):
        oracles = [cs.random_oracle(n, rng) for _ in range(5)]
        table = state._sign_table(n, oracles)
        assert table.dtype == np.int64
        want = [[1 - 2 * ((f.table >> k) & 1) for k in range(1 << n)] for f in oracles]
        assert table.tolist() == want
    with pytest.raises(ValueError):
        state._sign_table(2, [cs.BooleanOracle(2, 1), cs.BooleanOracle(3, 1)])
    with pytest.raises(ValueError):
        gates._apply_signs(StateVector(4), np.ones((3, 4), np.int64), 1)


@pytest.mark.parametrize("shape", [(0, 4), (2, 0)])
@pytest.mark.parametrize("backend", cs.BACKENDS)
def test_empty_sign_table_is_refused_before_any_write(backend, shape):
    rng = np.random.Generator(np.random.PCG64(5))
    s = random_exact_state(3, rng) if backend == cs.EXACT else random_float_state(3, rng)
    before = s.copy()
    want = re.escape(f"sign table shape {shape} is not a power of two by 2^n")
    with pytest.raises(ValueError, match=want):
        gates._apply_signs(s, np.ones(shape, np.int64), 1)
    assert s == before


@pytest.mark.parametrize("backend", cs.BACKENDS)
def test_one_row_costs_no_copy(backend):
    # One row needs no transpose back to the leading-row layout: the run
    # peaks below its plane plus one plane, as one oracle on its own.
    n = 8
    f = cs.random_oracle(n, np.random.Generator(np.random.PCG64(9)))
    build = cs.build_comparison_search(n, f)
    signs = state._sign_table(n, [f])
    plane = 8 << (2 * n)
    tracemalloc.start()
    try:
        out = circuit._simulate_rows(build, signs, backend)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * plane
    assert out == cs.simulate(build, backend)


@pytest.mark.parametrize("backend", cs.BACKENDS)
def test_batched_window_is_checked_per_row_before_any_write(backend):
    # Two rows of 4 qubits: the window 4..5 fits the state's 5 qubits but
    # not a row's 4.
    rng = np.random.Generator(np.random.PCG64(4))
    s = random_exact_state(5, rng) if backend == cs.EXACT else random_float_state(5, rng)
    before = s.copy()
    with pytest.raises(ValueError, match="qubit range 4..5 invalid for 4 qubits"):
        gates._apply_signs(s, -np.ones((2, 4), np.int64), 4)
    assert s == before


def random_row_table(rng, rows: int, m: int, exact: bool) -> Distribution:
    """``rows`` unequal tables over m qubits, as one row table; exact
    ones are unnormalized, which the TV and marginal code do not read."""
    if exact:
        return Distribution._of(rng.integers(-50, 50, size=(rows, 1 << m)), int(rng.integers(0, 5)))
    p = rng.random((rows, 1 << m))
    return Distribution._of(p / p.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("m", [4, 6, 8, 10])
def test_row_statistics_equal_one_table_at_a_time(m):
    rng = np.random.Generator(np.random.PCG64(m))
    rows = 8
    ranges = [(m // 2 + 1, m), (1, m // 2), (2, m - 1), (1, m)]
    for exact in (False, True):
        table = random_row_table(rng, rows, m, exact)
        other = random_row_table(rng, rows, m, exact)
        to_one = refutation._tv_rows(table, other._row(3))
        row_by_row = refutation._tv_rows(table, other)
        margs = {span: cs.marginal(table, *span) for span in ranges}
        for r in range(rows):
            one = table._row(r)
            assert to_one[r] == cs.tv_distance(one, other._row(3)) != 0
            assert row_by_row[r] == cs.tv_distance(one, other._row(r)) != 0
            if not exact:
                # The one-table formulas of the unbatched loop.
                p, q = one.plane, other.plane[r]
                assert to_one[r].hex() == (0.5 * float(np.abs(p - other.plane[3]).sum())).hex()
                assert row_by_row[r].hex() == (0.5 * float(np.abs(p - q).sum())).hex()
            else:
                # Half the sum of |p(x) - q(x)|, one DyadicReal at a time.
                q = other._row(r)
                diffs = (abs(one[x] - q[x]) for x in range(len(one)))
                assert row_by_row[r] == sum(diffs, DyadicReal(0, 0)) * DyadicReal(1, 0, 1)
            for (first, last), marg in margs.items():
                want = cs.marginal(one, first, last)
                pre, keep, post = 1 << (first - 1), 1 << (last - first + 1), 1 << (m - last)
                assert marg.plane[r].tobytes() == want.plane.tobytes()
                if pre * post > 1:
                    literal = one.plane.reshape(pre, keep, post).sum(axis=(0, 2))
                    assert marg.plane[r].tobytes() == literal.tobytes()


@pytest.mark.parametrize("chunk", [4, 1 << 16])
def test_row_deviations_equal_one_state_at_a_time(monkeypatch, chunk):
    monkeypatch.setattr(state, "_COMPARE_CHUNK", chunk)
    rng = np.random.Generator(np.random.PCG64(chunk))
    rows, m = 4, 6
    pairs = [
        (random_float_state(m + 2, rng), random_float_state(m + 2, rng)),
        (random_exact_state(m + 2, rng, depth=30), random_float_state(m + 2, rng)),
        (random_exact_state(m + 2, rng, depth=30), random_exact_state(m + 2, rng, depth=30)),
    ]
    for x, y in pairs:
        dev = x._deviations(y, rows)
        whole = x.to_float_array().reshape(rows, -1) - y.to_float_array().reshape(rows, -1)
        for r in range(rows):
            # The unchunked formula of max_abs_diff before it took slices.
            want = float(np.max(np.abs(whole[r])))
            assert dev[r] == want > 0
            assert row_state(x, rows, r).max_abs_diff(row_state(y, rows, r)) == want
        assert x.max_abs_diff(y) == float(np.max(np.abs(whole)))


def test_row_equality_compares_values_across_h(monkeypatch):
    monkeypatch.setattr(state, "_COMPARE_CHUNK", 4)
    rng = np.random.Generator(np.random.PCG64(8))
    rows = 4
    x = random_exact_state(5, rng, depth=20)
    assert x._plane.reshape(rows, -1).any(axis=1).all()

    def same_rows(x, y):
        return [
            row_state(x, rows, r).amplitudes() == row_state(y, rows, r).amplitudes()
            for r in range(rows)
        ]

    for shift in (1, 3):
        plane = x._plane << shift
        plane[1] += 1  # row 0: not a multiple of 2^shift
        plane[9] += 1 << shift  # row 1: a multiple, another value
        y = StateVector._from_plane(5, cs.EXACT, plane, x._e + 2 * shift)
        y._e = x._e + 2 * shift  # undo the reduction to minimal e
        want = same_rows(x, y)
        assert want == [False, False, True, True]
        assert x._rows_equal(y, rows) == y._rows_equal(x, rows) == want
    # Past 63 bits only a zero row can equal a row at the larger e.
    zero = StateVector._from_plane(5, cs.EXACT, np.zeros(32, np.int64))
    zero._e = x._e + 140
    cleared = x.copy()
    cleared._plane[8:16] = 0
    assert cleared._rows_equal(zero, rows) == [False, True, False, False]
    # At e of the other parity only two zero rows are equal: the values
    # differ by a factor sqrt(2)^odd, which is irrational.
    for odd in (1, 3):
        y = StateVector._from_plane(5, cs.EXACT, x._plane.copy(), x._e + odd)
        y._plane[8:24] = 0  # rows 1 and 2
        want = same_rows(cleared, y)
        assert want == [False, True, False, False]
        assert cleared._rows_equal(y, rows) == y._rows_equal(cleared, rows) == want


@pytest.mark.parametrize("backend", cs.BACKENDS)
def test_one_corrupted_target_row_fails_only_its_oracle(monkeypatch, backend, tmp_path):
    build = refutation._target_rows

    def corrupted(n, signs, backend):
        signs = signs.copy()
        signs[5, 2] *= -1
        return build(n, signs, backend)

    monkeypatch.setattr(refutation, "_target_rows", corrupted)
    rep = cs.sweep_all_f(2, backend)
    _, match, dev, _ = rep.columns
    assert np.flatnonzero(~match).tolist() == [5]
    assert not rep.all_match
    assert rep.max_deviation == dev[5] == 1.0
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--n", "2", "--all-f", "--backend", backend, "--out", str(out)]) == 1
    results = json.loads(out.read_text())["results"]
    assert results["all_match"] is False and results["oracles_checked"] == 16


@pytest.mark.parametrize("backend", cs.BACKENDS)
def test_target_runs_no_gate_or_circuit_code(backend):
    rng = np.random.Generator(np.random.PCG64(4))
    oracles = [cs.random_oracle(3, rng) for _ in range(4)]
    files = set()

    def record(frame, event, arg):
        if event == "call":
            files.add(frame.f_code.co_filename)

    sys.setprofile(record)
    try:
        cs.target_output(3, oracles[0], backend)
        analytic._target_rows(3, state._sign_table(3, oracles), backend)
    finally:
        sys.setprofile(None)
    assert analytic.__file__ in files
    assert gates.__file__ not in files and cs.circuit.__file__ not in files


def test_target_rows_are_target_outputs():
    rng = np.random.Generator(np.random.PCG64(6))
    oracles = [cs.random_oracle(2, rng) for _ in range(4)]
    for backend in cs.BACKENDS:
        rows = analytic._target_rows(2, state._sign_table(2, oracles), backend)
        for r, f in enumerate(oracles):
            assert row_state(rows, 4, r) == cs.target_output(2, f, backend)
    unit = DyadicReal.inv_sqrt2_pow(2)
    assert cs.target_output(2, oracles[0]).amplitude(0) in (unit, -unit)
