"""The batched oracle loop against one oracle at a time.

A batch of R oracles runs as one state whose trailing log2 R qubits pick
the oracle, and stays in that layout: oracle r's output is column r of
the plane viewed as (2^2n, R).  Each column must be bit for bit the
output of that oracle's own circuit, and each per-oracle statistic bit
for bit what the one-table routine, or the literal formula it replaced,
gives for that output alone.
"""

import json
import re
import sys
import tracemalloc
from itertools import islice, product

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
from conftest import inv_sqrt2_pow, random_exact_state, random_float_state, report_dict


def batch_rows(monkeypatch, n: int, rows: int) -> None:
    """Make the sweep loop run oracles on n bits ``rows`` at a time."""
    monkeypatch.setattr(refutation, "_BATCH_AMPS", rows << (2 * n))


def row_state(out: StateVector, rows: int, r: int) -> StateVector:
    """Oracle r's output in a batched state of ``rows`` oracles, column r
    of its plane, as a state of its own."""
    plane = out._plane.reshape(-1, rows)[:, r].copy()
    return StateVector._from_plane(plane, out._e)


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


def patch_rows(monkeypatch, edit) -> list[int]:
    """Make the sweep loop pass a view of each batch's output plane, one
    row per oracle, and its sign table to ``edit`` before judging it;
    returns the list of batch sizes run so far."""
    real, sizes = refutation._simulate_rows, []

    def run(circuit, signs, backend):
        out = real(circuit, signs, backend)
        edit(out._plane.reshape(-1, len(signs)).T, signs, len(sizes))
        sizes.append(len(signs))
        return out

    monkeypatch.setattr(refutation, "_simulate_rows", run)
    return sizes


@pytest.mark.parametrize("backend", cs.BACKENDS)
def test_check_oracles_keeps_a_first_batch_failure(monkeypatch, backend):
    def corrupt_first(rows, signs, batch):
        if batch == 0:
            rows[0, 0] *= -1  # the sign of oracle 0's |0>|0> amplitude

    n = 2
    batch_rows(monkeypatch, n, 4)
    sizes = patch_rows(monkeypatch, corrupt_first)
    all_match, max_dev = refutation._check_oracles(n, refutation._oracle_tables(n), backend)
    assert sizes == [4] * 4 and not all_match and max_dev == 1.0


def test_check_oracles_keeps_a_first_batch_maximum(monkeypatch):
    # Each row's |0>|0> amplitude moves by 1e-14 per marked element of its
    # oracle, alike alone and in a batch; the tables run from the largest
    # deviation down, so the largest lies in the first batch.
    def nudge(rows, signs, batch):
        rows[:, 0] += 1e-14 * (signs < 0).sum(axis=1)

    n = 2
    sizes = patch_rows(monkeypatch, nudge)
    devs = {t: refutation.check_oracle(n, cs.BooleanOracle(n, t), cs.FLOAT)[1] for t in range(16)}
    tables = state._tables(n, sorted(devs, key=devs.get, reverse=True))
    batch_rows(monkeypatch, n, 4)
    sizes.clear()
    all_match, max_dev = refutation._check_oracles(n, tables, cs.FLOAT)
    assert sizes == [4] * 4 and all_match
    assert max_dev == max(devs.values()) > max(devs[t] for t in tables[4:].tolist())


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
    both as the oracles' ``sign_array`` and as the literal bits give
    them."""
    rows = max(1, refutation._BATCH_AMPS >> (2 * n))
    want = list(oracle_batches(oracles, rows))
    got = list(refutation._batches(n, tables))
    assert [len(b) for b, _ in got] == [len(b) for b in want]
    for (batch, signs), fs in zip(got, want):
        assert batch.tolist() == [f.table for f in fs]
        assert signs.dtype == np.int64
        assert np.array_equal(signs, np.stack([f.sign_array() for f in fs]))
        assert signs.tolist() == literal_signs(n, batch.tolist())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exhaustive_table_batches_are_all_oracles(n):
    tables = refutation._oracle_tables(n)
    assert tables.dtype == np.uint64
    assert_batches_match(n, tables, [cs.BooleanOracle(n, t) for t in range(1 << (1 << n))])


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
        table = state._table_signs(n, state._tables(n, [f.table for f in oracles]))
        assert table.dtype == np.int64
        want = [[1 - 2 * ((f.table >> k) & 1) for k in range(1 << n)] for f in oracles]
        assert table.tolist() == want
        assert [f.sign_array().tolist() for f in oracles] == want
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


@pytest.mark.parametrize("rows", [1, 4, 16])
@pytest.mark.parametrize("backend", cs.BACKENDS)
def test_batch_output_costs_no_copy(backend, rows):
    # The batch leaves the kernels in the layout it is read in, so no
    # copy of the output plane is made: the run peaks below its plane
    # plus one float plane, as one oracle on its own.
    n = 8 - (rows.bit_length() - 1) // 2
    rng = np.random.Generator(np.random.PCG64(9))
    oracles = [cs.random_oracle(n, rng) for _ in range(rows)]
    build = cs.build_comparison_search(n, oracles[0])
    signs = np.stack([f.sign_array() for f in oracles])
    plane = 8 * rows << (2 * n)
    tracemalloc.start()
    try:
        out = circuit._simulate_rows(build, signs, backend)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * plane
    for r, f in enumerate(oracles):
        assert row_state(out, rows, r) == cs.simulate(cs.build_comparison_search(n, f), backend)


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


def random_row_table(rng, rows: int, m: int, exact: bool, column_major: bool) -> Distribution:
    """``rows`` unequal tables over m qubits, as one row table; exact
    ones are unnormalized, which the TV and marginal code do not read.
    A column-major one is the transpose of a (2^m, rows) array, as
    ``refutation._row_table`` views a batch."""
    shape = (1 << m, rows) if column_major else (rows, 1 << m)
    if exact:
        p, h = rng.integers(-50, 50, size=shape), int(rng.integers(0, 5))
    else:
        p, h = rng.random(shape), 0
        p /= p.sum(axis=0 if column_major else 1, keepdims=True)
    return Distribution._of(p.T if column_major else p, h)


def tv_rows(p, q) -> list:
    """Each distance of ``refutation._tv_sums`` as tv_distance gives it."""
    sums, h = refutation._tv_sums(p, q)
    return sums.tolist() if h is None else [DyadicReal(s, 0, h) for s in sums.tolist()]


@pytest.mark.parametrize("m", [4, 6, 8, 10])
def test_row_statistics_equal_one_table_at_a_time(m):
    rng = np.random.Generator(np.random.PCG64(m))
    rows = 8
    ranges = [(m // 2 + 1, m), (1, m // 2), (2, m - 1), (1, m)]
    for column_major, exact in product((False, True), (False, True)):
        table = random_row_table(rng, rows, m, exact, column_major)
        other = random_row_table(rng, rows, m, exact, column_major)
        spans = ranges
        if column_major and not exact:
            # A float marginal of a column-major row table is the one-table
            # marginal bit for bit only over windows that end at qubit m.
            spans = [(first, last) for first, last in ranges if last == m]
        to_one = tv_rows(table, other._row(3))
        row_by_row = tv_rows(table, other)
        margs = {span: cs.marginal(table, *span) for span in spans}
        for r in range(rows):
            # Row r alone, as one contiguous table.
            one = Distribution._of(table.plane[r].copy(), table.h)
            assert to_one[r] == cs.tv_distance(one, other._row(3)) != 0
            assert row_by_row[r] == cs.tv_distance(one, other._row(r)) != 0
            if not exact:
                # The one-table formulas of the unbatched loop.
                p, q, q3 = one.plane, other.plane[r].copy(), other.plane[3].copy()
                assert to_one[r].hex() == (0.5 * float(np.abs(p - q3).sum())).hex()
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


def diagonal_cases(rng, n: int):
    """Batched outputs of four oracles on 2n qubits, oracle r's in column
    r of the plane viewed as (2^2n, 4), each with the sign table and the
    oracles that the diagonal check judges it against.

    Output 0 is its target times 2^t, output 1 that plus an off-diagonal
    integer, output 2 that with one diagonal sign flipped and output 3
    zero.  Exact planes are int8, int16 or int64 at e = n + 2t, at odd e,
    below n and at n + 140, the last with random integers in output 1.
    Float planes hold the target, off-diagonal -0.0 in output 1, and
    noise just inside and past FLOAT_ATOL in outputs 2 and 3."""
    size, rows = 1 << n, 4
    oracles = [cs.random_oracle(n, rng) for _ in range(rows)]
    signs = np.stack([f.sign_array() for f in oracles])
    target = np.zeros((size * size, rows), np.int64)
    target[:: size + 1] = signs.T
    flipped = int(rng.integers(size)) * (size + 1)
    for dtype, t, e in [
        (np.int8, 0, n), (np.int8, 2, n + 4), (np.int16, 12, n + 24), (np.int64, 40, n + 80),
        (np.int8, 0, n + 1), (np.int16, 3, n + 7), (np.int8, 0, n - 2), (np.int8, 0, n + 140),
    ]:
        if e < 0:
            continue
        plane = target << t
        plane[int(rng.integers(1, size)), 1] += 1
        plane[flipped, 2] *= -1
        plane[:, 3] = 0
        if e == n + 140:
            plane[:, 1] = rng.integers(-3, 4, size * size)
        out = StateVector._from_plane(plane.astype(dtype).reshape(-1))
        out._e = e  # undo the reduction to minimal e
        yield out, signs, oracles
    scale = inv_sqrt2_pow(n).to_float()
    plane = target * scale
    plane[plane[:, 1] == 0, 1] = -0.0
    plane[flipped, 2] += 1e-13
    plane[flipped, 3] -= 1e-11
    yield StateVector._from_plane(plane.reshape(-1)), signs, oracles


@pytest.mark.parametrize("n", [1, 2, 3])
def test_diagonal_check_equals_the_dense_target(n):
    # Row by row, the match and the deviation bytes of the check against
    # the dense target state: ``==`` on exact, FLOAT_ATOL on float, and
    # max_abs_diff; alone as one row, the same again.
    rng = np.random.Generator(np.random.PCG64(20 + n))
    for out, signs, oracles in diagonal_cases(rng, n):
        match, dev = refutation._match_diagonal(out, signs)
        assert match.dtype == bool and dev.dtype == np.float64
        for r, f in enumerate(oracles):
            row = row_state(out, 4, r)
            target = cs.target_output(n, f, out.backend)
            want = row.max_abs_diff(target)
            if out.backend == cs.EXACT:
                assert match[r] == (row == target)
            else:
                assert match[r] == (want <= cs.FLOAT_ATOL)
            assert dev[r : r + 1].tobytes() == np.float64(want).tobytes()
            one = refutation._match_diagonal(row, signs[r : r + 1])
            assert one[0].tolist() == [match[r]] and one[1].tobytes() == dev[r : r + 1].tobytes()
        if out.backend == cs.FLOAT:
            assert match.tolist() == [True, True, True, False]
        elif out._e - n in (0, 4, 24, 80):
            assert match.tolist() == [True, False, False, False]
        else:
            assert not match.any()


@pytest.mark.parametrize("chunk", [4, 1 << 16])
def test_row_deviations_equal_one_state_at_a_time(monkeypatch, chunk):
    monkeypatch.setattr(state, "_COMPARE_CHUNK", chunk)
    rng = np.random.Generator(np.random.PCG64(chunk))
    rows, n = 4, 3
    pairs = [
        (random_float_state(2 * n + 2, rng), random_float_state(2 * n + 2, rng)),
        (random_exact_state(2 * n + 2, rng, depth=30), random_float_state(2 * n + 2, rng)),
        (random_exact_state(2 * n + 2, rng, depth=30), random_exact_state(2 * n + 2, rng, depth=30)),
    ]
    oracles = [cs.random_oracle(n, rng) for _ in range(rows)]
    signs = np.stack([f.sign_array() for f in oracles])
    for x, y in pairs:
        # The unchunked formula of max_abs_diff before it took slices.
        whole = x.to_float_array() - y.to_float_array()
        assert x.max_abs_diff(y) == y.max_abs_diff(x) == float(np.max(np.abs(whole))) > 0
        _, dev = refutation._match_diagonal(x, signs)
        for r, f in enumerate(oracles):
            target = cs.target_output(n, f, x.backend).to_float_array()
            want = float(np.max(np.abs(row_state(x, rows, r).to_float_array() - target)))
            assert dev[r] == want > 0
    with pytest.raises(ValueError, match="qubit counts differ"):
        pairs[0][0].max_abs_diff(StateVector(3, cs.FLOAT))


def test_row_equality_compares_values_across_h(monkeypatch):
    monkeypatch.setattr(state, "_COMPARE_CHUNK", 4)
    rng = np.random.Generator(np.random.PCG64(8))
    x = random_exact_state(5, rng, depth=20)
    assert x._plane.any()

    def at(plane, e):
        s = StateVector._from_plane(plane)
        s._e = e  # undo the reduction to minimal e
        return s

    def same(x, y):
        return x.amplitudes() == y.amplitudes()

    for shift in (1, 3):
        y = at(x._plane << shift, x._e + 2 * shift)
        assert same(x, y) and x == y and y == x
        for where, step in ((1, 1), (30, 1 << shift)):
            # Not a multiple of 2^shift, or a multiple of another value,
            # in the first slice or in the last.
            z = at(y._plane.copy(), y._e)
            z._plane[where] += step
            assert not same(x, z) and x != z and z != x
    # Past 63 bits only a zero state can equal one at the larger e.
    zero = at(np.zeros(32, np.int64), x._e + 140)
    assert x != zero and zero != x
    assert at(np.zeros(32, np.int8), x._e) == zero
    # At e of the other parity only two zero states are equal: the values
    # differ by a factor sqrt(2)^odd, which is irrational.
    for odd in (1, 3):
        y = at(x._plane.copy(), x._e + odd)
        assert not same(x, y) and x != y and y != x
        assert at(np.zeros(32, np.int8), x._e) == at(np.zeros(32, np.int64), x._e + odd)


@pytest.mark.parametrize("backend", cs.BACKENDS)
def test_one_corrupted_target_row_fails_only_its_oracle(monkeypatch, backend, tmp_path):
    check = refutation._match_diagonal

    def corrupted(out, signs):
        signs = signs.copy()
        signs[5, 2] *= -1
        return check(out, signs)

    monkeypatch.setattr(refutation, "_match_diagonal", corrupted)
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
    signs = np.stack([f.sign_array() for f in oracles])
    out = circuit._simulate_rows(cs.build_comparison_search(3, oracles[0]), signs, backend)
    files = set()

    def record(frame, event, arg):
        if event == "call":
            files.add(frame.f_code.co_filename)

    sys.setprofile(record)
    try:
        cs.target_output(3, oracles[0], backend)
        match, _ = refutation._match_diagonal(out, signs)
    finally:
        sys.setprofile(None)
    assert match.all()
    assert analytic.__file__ in files and refutation.__file__ in files
    assert gates.__file__ not in files and cs.circuit.__file__ not in files


def test_target_rows_are_target_outputs():
    # The check takes target_output's own planes, stacked as the columns
    # of a batch, as exact matches, and target_output is the literal
    # diagonal.
    rng = np.random.Generator(np.random.PCG64(6))
    n, size = 2, 4
    oracles = [cs.random_oracle(n, rng) for _ in range(4)]
    signs = np.stack([f.sign_array() for f in oracles])
    unit = inv_sqrt2_pow(n)
    for backend in cs.BACKENDS:
        targets = [cs.target_output(n, f, backend) for f in oracles]
        plane = np.stack([t._plane for t in targets], axis=1).reshape(-1)
        rows = StateVector._from_plane(plane, targets[0]._e)
        match, dev = refutation._match_diagonal(rows, signs)
        assert match.all() and not dev.any()
        for t, f in zip(targets, oracles):
            diagonal = {k * (size + 1): f(k) for k in range(size)}
            for x, amp in enumerate(t.amplitudes()):
                want = (-unit if diagonal[x] else unit) if x in diagonal else DyadicReal(0, 0)
                assert amp == (want if backend == cs.EXACT else want.to_float())
    assert cs.target_output(2, oracles[0]).amplitude(0) in (unit, -unit)


@pytest.mark.parametrize("backend", cs.BACKENDS)
def test_one_oracle_check_makes_no_target_plane(backend):
    # The output plane is the one plane-sized array: the check builds no
    # dense target and copies no view of the output.
    n = 8
    tables = state._tables(n, [cs.random_oracle(n, np.random.Generator(np.random.PCG64(2))).table])
    refutation._check_oracles(n, tables, backend)  # warm up
    tracemalloc.start()
    try:
        all_match, _ = refutation._check_oracles(n, tables, backend)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all_match
    if backend == cs.FLOAT:
        assert peak < 2.5 * (8 << (2 * n))
    else:
        assert peak < 6 * (1 << (2 * n))
