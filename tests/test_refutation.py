import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import compsearch as cs
from compsearch import BooleanOracle, Distribution, DyadicReal, StateVector, refutation, state
from compsearch.circuit import Circuit, GatePlacement, PhaseOraclePlacement
from conftest import (
    basis_state,
    constant_oracle,
    empirical_distribution,
    random_exact_state,
    random_float_state,
    report_dict,
    sample,
    sweep_report,
    to_float,
)

INV = DyadicReal(0, 1, 1)
HALF = DyadicReal(1, 0, 1)


def bell_plus() -> StateVector:
    return StateVector.from_amplitudes([INV, 0, 0, INV])


def output_for(n: int, f: BooleanOracle) -> StateVector:
    return cs.simulate(cs.build_comparison_search(n, f))


def total(d: Distribution) -> DyadicReal | float:
    """The sum of a table's entries, read as one entry is."""
    return state._value(d.plane.sum(axis=-1, keepdims=True), 2 * d.h, 0)


def wide_exact_state() -> StateVector:
    """The normalized 3-qubit state c_x / sqrt(2)^61, for eight odd
    integers c_x whose squares sum to 2^61.  Some pass 2^29.5, so that
    squaring takes Python ints.  Words of H and C never get there, as
    those gates are Clifford."""
    c = [359322283, -511927881, 530513823, 439000555, -525619413, 415557161, -963941653,
         -249693643]
    return StateVector.from_amplitudes([DyadicReal(0, x, 31) for x in c])


class TestDistribution:
    def test_point_mass(self):
        d = cs.distribution(basis_state(2, 0))
        assert d[0] == 1
        assert all(d[x] == 0 for x in range(1, 4))
        assert total(d) == 1

    def test_bell_state(self):
        d = cs.distribution(bell_plus())
        assert d[0] == HALF and d[3] == HALF
        assert d[1] == 0 and d[2] == 0

    def test_output_distribution_ignores_oracle(self):
        quarter = DyadicReal(1, 0, 2)
        for f in (constant_oracle(2, 0), BooleanOracle.from_marked(2, [1, 2])):
            d = cs.distribution(cs.target_output(2, f))
            for k in range(4):
                assert d[k * 4 + k] == quarter

    def test_support_is_exactly_the_diagonal(self):
        # 2^n outcomes |k>|k>, each at exactly 2^-n; zero everywhere else.
        for n in (1, 2):
            weight = DyadicReal(1, 0, n)
            for f in (cs.BooleanOracle(n, t) for t in range(1 << (1 << n))):
                d = cs.distribution(output_for(n, f))
                for j in range(1 << n):
                    for k in range(1 << n):
                        want = weight if j == k else 0
                        assert d[(j << n) | k] == want

    def test_float_backend(self):
        d = cs.distribution(to_float(bell_plus()))
        assert not d.exact
        np.testing.assert_allclose(d.as_float_array(), [0.5, 0, 0, 0.5], atol=1e-15)

    def test_norm_squared_is_the_table_total(self):
        # norm_squared and distribution square amplitudes in one routine,
        # so their sums agree exactly on both backends.
        rng = np.random.Generator(np.random.PCG64(5))
        for m in (1, 3, 6):
            s = random_exact_state(m, rng, depth=20)
            assert s.norm_squared() == total(cs.distribution(s)) == 1
            f = random_float_state(m, rng)
            assert f.norm_squared() == total(cs.distribution(f))
        wide = wide_exact_state()
        assert wide.norm_squared() == total(cs.distribution(wide)) == 1

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Distribution(np.array([0.5, 0.1]))
        with pytest.raises(ValueError):
            Distribution([1, 1], 0)
        with pytest.raises(ValueError):
            Distribution(np.array([np.nan, 1.0]))

    @pytest.mark.parametrize(
        "planes,h,message",
        [
            (([1, 0], [0, 0], [0, 0]), 0, "a table has one float or integer plane, got shape (3, 2)"),
            ([1, 0], -1, "exponent h=-1 invalid: exact tables need h >= 0, float ones h = 0"),
            ([1, 0, 0], 0, "probability table size is not a power of two >= 2"),
        ],
    )
    def test_rejects_malformed_tables(self, planes, h, message):
        with pytest.raises(ValueError) as excinfo:
            Distribution(planes, h)
        assert str(excinfo.value) == message

    def test_rejects_a_tuple_of_planes(self):
        # The (pa, pb) and (plane,) forms arrive as 2-D arrays; a ragged
        # pair is refused by NumPy itself.
        for planes in (([1, 0], [0, 0]), (np.array([0.5, 0.5]),), ([1, 0], [0, 0, 0])):
            with pytest.raises(ValueError):
                Distribution(planes)

    def test_rejects_non_integer_exact_entries(self):
        # Object entries are exact; each table sums to 1 as floats.
        # Truncated by int(), the first two would pass every check and
        # the last would read as negative.
        for plane in (
            np.array([1.5, -0.5], dtype=object),
            [Fraction(1, 2), Fraction(1, 2)],
            np.array([-1, 2.0], dtype=object),
        ):
            with pytest.raises(TypeError):
                Distribution(plane)

    def test_rejects_entries_neither_integer_nor_float(self):
        # Strings once read as a float table.
        for plane in (["0.5", "0.5"], np.array([0.5, 0.5], dtype=complex), [True, False]):
            with pytest.raises(TypeError, match="probabilities must be integers or floats"):
                Distribution(plane)
        for h in (1.0, 0.0):
            with pytest.raises(TypeError):
                Distribution([0, 1], h)

    def test_exactness_is_read_from_the_dtype(self):
        for plane, h in (
            ([1, 0], 0),
            (np.array([0, 1], np.int8), 0),
            (np.array([1, 0], np.uint64), 0),
            ([0, 1 << 70], 70),
        ):
            d = Distribution(plane, h)
            assert d.exact and d.plane.dtype == object
        for plane in ([1.0, 0.0], np.array([0.5, 0.5], np.float32)):
            d = Distribution(plane)
            assert not d.exact and d.plane.dtype == np.float64
        # NumPy reads ints past int64 beside smaller ones as float64; the
        # table stays exact.
        assert np.asarray([2**63, 0]).dtype == np.float64
        d = Distribution([2**63, 0, 2**62, 2**62], 64)
        assert d.exact and list(d.probs) == [HALF, 0, DyadicReal(1, 0, 2), DyadicReal(1, 0, 2)]

    def test_rejects_negative_entries(self):
        # Each table sums to 1.
        for plane, h in ((np.array([2.0, -1.0]), 0), ([2, -1], 0), ([-2, 6], 2)):
            with pytest.raises(ValueError, match="non-negative"):
                Distribution(plane, h)

    def test_numpy_integer_entries_are_stored_as_python_ints(self):
        # 2^62 + 2^62 wraps in int64; as Python ints the table sums to 2^63.
        big = 1 << 62
        for plane in ([np.int64(big)] * 2, [big] * 2, np.array([big] * 2)):
            d = Distribution(plane, 63)
            assert d[0] == d[1] == DyadicReal(1, 0, 1)
            assert all(type(x) is int for x in d.plane)


def quarter_rows(rows: int = 512, dtype=np.float64) -> np.ndarray:
    """A row table of ``rows`` rows, each of four entries 1/4 as floats
    or 1 (at h = 2) as integers."""
    return np.full((rows, 4), 0.25 if dtype == np.float64 else 1, dtype)


class TestCheckTotal:
    """Every row of a 512-row table is checked in one array comparison,
    and the error names the first bad row's total."""

    @pytest.mark.parametrize("bad", [np.nan, 1e-6])
    def test_first_bad_float_row_is_named(self, bad):
        plane = quarter_rows()
        plane[300, 1] += bad
        plane[400, 2] += 0.5
        total = float(plane[300].sum())
        assert not abs(total - 1.0) <= 1e-9
        with pytest.raises(ValueError, match=re.escape(f"probabilities sum to {total}, not 1")):
            Distribution._of(plane)._check_total()
        # Within 1e-9 every row passes.
        plane = quarter_rows()
        plane[300, 1] += 1e-10
        Distribution._of(plane)._check_total()

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_exact_row_off_by_one_unit(self, dtype):
        plane = quarter_rows(dtype=np.int64).astype(dtype)
        Distribution._of(plane, 2)._check_total()
        plane[300, 0] += 1
        with pytest.raises(ValueError, match="^exact probabilities do not sum to 1$"):
            Distribution._of(plane, 2)._check_total()

    def test_exact_tables_past_63_bits(self):
        # Rows of four 2^61 sum to 2^63 in uint64 and in Python ints: one
        # at h = 63.  No warning may rise, as warnings are errors here.
        for dtype in (np.uint64, object):
            plane = (quarter_rows(dtype=np.int64) << 61).astype(dtype)
            Distribution._of(plane, 63)._check_total()
            with pytest.raises(ValueError, match="do not sum to 1"):
                Distribution._of(plane, 64)._check_total()
        # No int64 sum reaches 2^63 (a row of 2^61s sums to 2^63 only
        # past int64, so int64 tables hold 2^60s here): one half at h = 63.
        plane = quarter_rows(dtype=np.int64) << 60
        with pytest.raises(ValueError, match="do not sum to 1"):
            Distribution._of(plane, 63)._check_total()
        Distribution._of(plane, 62)._check_total()
        # 2^63 - 1 is 2^63 in float64, and still no total of 1.
        plane[:, :2] = [1 << 62, (1 << 62) - 1]
        plane[:, 2:] = 0
        with pytest.raises(ValueError, match="do not sum to 1"):
            Distribution._of(plane, 63)._check_total()
        big = [1 << 199] * 2
        Distribution(big, 200)._check_total()


class TestMarginal:
    def test_second_register_uniform_for_every_oracle(self):
        quarter = DyadicReal(1, 0, 2)
        for f in (cs.BooleanOracle(2, t) for t in range(1 << (1 << 2))):
            d = cs.distribution(output_for(2, f))
            marg = cs.marginal(d, 3, 4)
            assert all(p == quarter for p in marg.probs)

    def test_first_register_uniform_too(self):
        f = BooleanOracle.from_marked(2, [2])
        marg = cs.marginal(cs.distribution(output_for(2, f)), 1, 2)
        assert all(p == DyadicReal(1, 0, 2) for p in marg.probs)

    def test_full_range_is_identity(self):
        d = cs.distribution(bell_plus())
        marg = cs.marginal(d, 1, 2)
        assert all(a == b for a, b in zip(marg.probs, d.probs))

    def test_bad_range(self):
        d = cs.distribution(bell_plus())
        with pytest.raises(ValueError):
            cs.marginal(d, 0, 1)
        with pytest.raises(ValueError):
            cs.marginal(d, 2, 3)

    def test_matches_direct_probability(self):
        f = BooleanOracle.from_marked(3, [5])
        out = output_for(3, f)
        marg = cs.marginal(cs.distribution(out), 4, 6)
        direct = cs.distribution(out, 4, 6)
        assert direct.num_qubits == 3
        for k in range(8):
            assert marg[k] == direct[k] == DyadicReal(1, 0, 3)

    @pytest.mark.parametrize("backend", [cs.EXACT, cs.FLOAT])
    def test_distribution_of_range_equals_marginal(self, backend):
        # Squaring only qubits first..last must equal squaring everything
        # and summing out the rest: == for exact tables, bit for bit for
        # float ones.  Both must match squares of the amplitudes summed one
        # by one, exactly or to 1e-15.
        rng = np.random.Generator(np.random.PCG64(21))
        if backend == cs.EXACT:
            wide = wide_exact_state()
            assert state._abs_max(wide._plane) ** 2 << wide.num_qubits >= 1 << 62
            states = [random_exact_state(6, rng, depth=30), output_for(3, BooleanOracle(3, 0x5a)), wide]
        else:
            states = [random_float_state(6, rng), to_float(output_for(3, BooleanOracle(3, 0x5a)))]
        for s in states:
            m = s.num_qubits
            full = cs.distribution(s)
            squares = [a * a if backend == cs.EXACT else abs(a) ** 2 for a in s.amplitudes()]
            for first in range(1, m + 1):
                for last in range(first, m + 1):
                    got = cs.distribution(s, first, last)
                    want = cs.marginal(full, first, last)
                    ref = [0] * len(got)
                    for x, sq in enumerate(squares):
                        ref[(x >> (m - last)) % len(got)] += sq
                    assert got.exact == want.exact == (backend == cs.EXACT)
                    if got.exact:
                        assert list(got.probs) == list(want.probs) == ref
                        assert got.as_float_array().tolist() == [p.to_float() for p in ref]
                    else:
                        assert got.plane.tobytes() == want.plane.tobytes()
                        np.testing.assert_allclose(got.plane, ref, rtol=0, atol=1e-15)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            cs.distribution(bell_plus(), 2, 1)
        with pytest.raises(ValueError):
            cs.distribution(bell_plus(), 1, 3)


@st.composite
def exact_tables(draw, size: int = 8):
    """(p, h) with zeros and negative entries, the last entry chosen so
    that the table sums to 1.  Entries are small, or up to 2^60, so that
    a row's sum of |p - q| can pass 2^63 while every entry fits int64, or
    pass int64 themselves.  Negative entries are refused by the public
    constructor, so tables are built unchecked."""
    bits, top_h = draw(st.sampled_from([(12, 8), (40, 20), (60, 58), (90, 80)]))
    h = draw(st.integers(0, top_h))
    bound = 1 << bits
    ints = st.one_of(
        st.just(0), st.integers(-3, 3), st.integers(-bound, bound), st.sampled_from([-bound, bound])
    )
    p = draw(st.lists(ints, min_size=size - 1, max_size=size - 1))
    return p + [(1 << h) - sum(p)], h


class TestTvDistanceDifferential:
    @settings(max_examples=200, deadline=None)
    @given(exact_tables(), exact_tables(), st.booleans())
    def test_exact_matches_dyadic_loop(self, p, q, as_int64):
        # as_int64 stores a plane as int64 where it fits, the layout
        # distribution() builds; otherwise it holds Python ints, as the
        # constructor stores them.
        dists = []
        for plane, h in (p, q):
            plane = np.array(plane, dtype=object)
            if as_int64 and state._abs_max(plane) < 1 << 63:
                plane = plane.astype(np.int64)
            dists.append(Distribution._of(plane, h))
        want = DyadicReal(0, 0)
        for x in range(8):
            want = want + abs(DyadicReal(p[0][x], 0, p[1]) - DyadicReal(q[0][x], 0, q[1]))
        assert cs.tv_distance(*dists) == want * DyadicReal(1, 0, 1)

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_sums_past_int64_do_not_wrap(self, dtype):
        # Every entry fits int64, and so does every shifted one, but each
        # row's sum of |p - q| is 2^63 or more.
        big = 1 << 61
        p = Distribution._of(np.array([[big, 0, big, 0], [big, big, 0, 0]], dtype=dtype), 62)
        q = Distribution._of(np.array([0, big, 0, big], dtype=dtype) >> 1, 61)
        # Row 0 differs by 2^61 in each entry: the sum is 2^63, and the
        # TV is 2^63 / 2^(62 + 1).
        for other in (q, Distribution._of(np.array([0, 1, 0, 1], dtype=dtype), 1)):
            sums, h = refutation._tv_sums(p, other)
            assert [DyadicReal(s, 0, h) for s in sums.tolist()] == [1, HALF]


class TestTvDistance:
    def test_identical_is_zero(self):
        d = cs.distribution(bell_plus())
        assert cs.tv_distance(d, d) == 0

    def test_disjoint_point_masses(self):
        p = cs.distribution(basis_state(1, 0))
        q = cs.distribution(basis_state(1, 1))
        assert cs.tv_distance(p, q) == 1

    def test_outputs_of_different_oracles_coincide(self):
        d1 = cs.distribution(output_for(2, BooleanOracle(2, 0b0110)))
        d2 = cs.distribution(output_for(2, BooleanOracle(2, 0b1001)))
        tv = cs.tv_distance(d1, d2)
        assert tv == 0

    def test_mismatched_spaces(self):
        with pytest.raises(ValueError):
            cs.tv_distance(
                cs.distribution(StateVector(1)), cs.distribution(StateVector(2))
            )

    def test_float_value(self):
        p = Distribution(np.array([0.75, 0.25]))
        q = Distribution(np.array([0.25, 0.75]))
        assert cs.tv_distance(p, q) == pytest.approx(0.5)


class TestSampling:
    def test_point_mass_always_same_outcome(self):
        counts = sample(basis_state(2, 3), 1000, seed=1)
        assert counts[3] == 1000 and counts.sum() == 1000

    def test_bell_empirical_tv_small(self):
        counts = sample(bell_plus(), 100_000, seed=0)
        emp = empirical_distribution(counts, 2)
        ideal = Distribution(np.array([0.5, 0.0, 0.0, 0.5]))
        assert cs.tv_distance(emp, ideal) < 0.01

    def test_two_oracles_empirically_indistinguishable(self):
        # 4 sigma at 1e5 draws comfortably clears 0.02.
        a = sample(output_for(2, BooleanOracle(2, 0b0001)), 100_000, seed=0)
        b = sample(output_for(2, BooleanOracle(2, 0b1110)), 100_000, seed=1)
        tv = cs.tv_distance(
            empirical_distribution(a, 4), empirical_distribution(b, 4)
        )
        assert tv < 0.02

    def test_seeded_determinism(self):
        s = bell_plus()
        assert np.array_equal(sample(s, 5000, seed=7), sample(s, 5000, seed=7))
        assert not np.array_equal(sample(s, 5000, seed=7), sample(s, 5000, seed=8))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample(bell_plus(), 0)


@pytest.fixture(scope="module")
def sampled_float_sweep():
    """n = 5: SAMPLED_SWEEP_COUNT seeded oracles, about a second."""
    return cs.sweep_all_f(5, cs.FLOAT, seed=4)


class TestSweep:
    def test_exhaustive_n2(self):
        rep = cs.sweep_all_f(2)
        assert rep.exhaustive and rep.oracle_count == 16
        assert rep.all_match
        assert rep.max_deviation == 0.0
        assert rep.max_pairwise_tv == 0.0 and rep.max_pairwise_tv_is_exact
        assert rep.marginal_uniformity_deviation == 0.0
        _, match, _, tv = rep.columns
        assert match.all() and (tv == 0.0).all()

    def test_sampled_float_sweep(self, sampled_float_sweep):
        rep = sampled_float_sweep
        assert not rep.exhaustive
        assert rep.oracle_count == refutation.SAMPLED_SWEEP_COUNT
        assert rep.seed == 4 and rep.rng_algorithm == cs.RNG_ALGORITHM
        assert rep.all_match
        assert rep.max_deviation <= 1e-12

    def test_pairwise_tv_switches_to_bound_past_limit(self, sampled_float_sweep):
        # n = 3 is exhaustive, 256 oracles: every pair is compared.
        small = cs.sweep_all_f(3, cs.EXACT)
        assert small.oracle_count == 256 <= refutation._ALL_PAIRS_LIMIT
        assert small.max_pairwise_tv == 0.0 and small.max_pairwise_tv_is_exact
        # n = 5 samples more oracles than the limit: the bound, flagged inexact.
        big = sampled_float_sweep
        assert big.oracle_count > refutation._ALL_PAIRS_LIMIT
        assert not big.max_pairwise_tv_is_exact
        top = sorted(big.columns[3].tolist())[-2:]
        assert big.max_pairwise_tv == sum(top)

    def test_identical_float_tables_skip_all_pairs(self, monkeypatch):
        # Every float table at n = 3 is bitwise the first one, so no pair
        # is compared: _tv_sums runs once, for the one batch's distances
        # to the first table, and the all-pairs loop, which calls it too,
        # never runs.
        calls = []
        tv = refutation._tv_sums
        monkeypatch.setattr(refutation, "_tv_sums", lambda p, q: calls.append(1) or tv(p, q))
        rep = cs.sweep_all_f(3, cs.FLOAT)
        assert rep.oracle_count == 256 and calls == [1]
        assert rep.max_pairwise_tv == 0.0 and rep.max_pairwise_tv_is_exact

    def test_all_pairs_when_tables_differ(self):
        table = Distribution._of(np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]))
        rows = [(0, True, 0.0, tv) for tv in (0.0, 0.5, 1.0)]
        rep = sweep_report(rows, n=1, backend=cs.FLOAT, exhaustive=False, seed=0,
                           rng_algorithm=cs.RNG_ALGORITHM)
        refutation._fill_pairwise_tv(rep, [table])
        assert rep.max_pairwise_tv == 1.0 and rep.max_pairwise_tv_is_exact

    @pytest.mark.parametrize("backend", cs.BACKENDS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_negative_control_takes_the_all_pairs_path(self, monkeypatch, n, backend):
        # A broken circuit whose output depends on the oracle: H on every
        # qubit, the oracle on the second register, then H on it again, so
        # the second register reads the oracle's Walsh spectrum.  Every
        # table is compared with every other, end to end through the sweep.
        def broken(n, f):
            h = cs.hadamard()
            ops = [GatePlacement((q,), h) for q in range(1, 2 * n + 1)]
            ops.append(PhaseOraclePlacement(n + 1, f))
            ops += [GatePlacement((q,), h) for q in range(n + 1, 2 * n + 1)]
            return Circuit(2 * n, tuple(ops))

        monkeypatch.setattr(refutation, "build_comparison_search", broken)
        rep = cs.sweep_all_f(n, backend)
        oracles = [cs.BooleanOracle(n, t) for t in range(1 << (1 << n))]
        dists = [cs.distribution(cs.simulate(broken(n, f), backend)) for f in oracles]
        assert rep.oracle_count == len(dists) <= refutation._ALL_PAIRS_LIMIT
        assert not rep.all_match
        for tv, d in zip(rep.columns[3].tolist(), dists):
            assert tv == float(cs.tv_distance(d, dists[0]))
        worst = max(
            float(cs.tv_distance(dists[i], dists[j]))
            for i in range(len(dists))
            for j in range(i + 1, len(dists))
        )
        assert worst > 0.0
        assert rep.max_pairwise_tv == worst and rep.max_pairwise_tv_is_exact

    def test_report_dict_shape(self):
        d = report_dict(cs.sweep_all_f(1))
        assert d["oracle_count"] == 4
        assert len(d["verdicts"]) == 4
        assert set(d["verdicts"][0]) == {
            "oracle_id",
            "table",
            "exact_match",
            "max_dev",
            "tv_to_first",
        }


class TestCompareGrover:
    def test_n2_quarter_vs_certainty(self):
        rec = cs.compare_grover(2, 1, samples=20_000, seed=0)
        assert rec.comparison_probability == 0.25
        assert rec.comparison_probability_is_exact
        assert abs(rec.grover_probability - 1.0) <= 1e-12
        assert rec.grover_iterations == 1

    def test_n3_eighth_vs_frozen_amplified(self):
        rec = cs.compare_grover(3, 5, samples=20_000, seed=0)
        assert rec.comparison_probability == 0.125
        assert rec.comparison_probability_is_exact
        assert rec.grover_probability == pytest.approx(0.9453125, abs=1e-12)
        assert abs(rec.comparison_empirical_frequency - 0.125) < 0.02
        assert rec.grover_empirical_frequency > 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            cs.compare_grover(1, 0)
        with pytest.raises(ValueError):
            cs.compare_grover(3, 8)

    def test_samples_refused_before_any_circuit(self, monkeypatch):
        def no_run(*args):
            raise AssertionError("a circuit ran")

        monkeypatch.setattr(refutation, "simulate", no_run)
        with pytest.raises(ValueError, match="samples"):
            cs.compare_grover(3, 1, samples=0)


class TestCheckOracle:
    def test_exact_and_float(self):
        f = BooleanOracle.from_marked(3, [2, 7])
        ok, dev = cs.check_oracle(3, f)
        assert ok and dev == 0.0
        ok, dev = cs.check_oracle(6, cs.random_oracle(6, np.random.Generator(np.random.PCG64(2))), cs.FLOAT)
        assert ok and dev <= 1e-12

    def test_float_backend_exhaustive_small_n(self):
        for n in (1, 2):
            for f in (cs.BooleanOracle(n, t) for t in range(1 << (1 << n))):
                ok, dev = cs.check_oracle(n, f, cs.FLOAT)
                assert ok and dev <= 1e-12
