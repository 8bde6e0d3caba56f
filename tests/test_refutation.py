import numpy as np
import pytest

import compsearch as cs
from compsearch import BooleanOracle, Distribution, DyadicReal, StateVector, refutation
from conftest import random_exact_state

INV = DyadicReal(0, 1, 1)
HALF = DyadicReal(1, 0, 1)


def bell_plus() -> StateVector:
    return StateVector.from_amplitudes([INV, 0, 0, INV])


def output_for(n: int, f: BooleanOracle) -> StateVector:
    return cs.simulate(cs.build_comparison_search(n, f))


class TestDistribution:
    def test_point_mass(self):
        d = cs.distribution(StateVector.basis_state(2, 0))
        assert d[0] == 1
        assert all(d[x] == 0 for x in range(1, 4))
        assert d.total == 1

    def test_bell_state(self):
        d = cs.distribution(bell_plus())
        assert d[0] == HALF and d[3] == HALF
        assert d[1] == 0 and d[2] == 0

    def test_output_distribution_ignores_oracle(self):
        quarter = DyadicReal(1, 0, 2)
        for f in (BooleanOracle.constant(2, 0), BooleanOracle.from_marked(2, [1, 2])):
            d = cs.distribution(cs.target_output(2, f))
            for k in range(4):
                assert d[k * 4 + k] == quarter

    def test_support_is_exactly_the_diagonal(self):
        # 2^n outcomes |k>|k>, each at exactly 2^-n; zero everywhere else.
        for n in (1, 2):
            weight = DyadicReal(1, 0, n)
            for f in cs.all_oracles(n):
                d = cs.distribution(output_for(n, f))
                for j in range(1 << n):
                    for k in range(1 << n):
                        want = weight if j == k else 0
                        assert d[(j << n) | k] == want

    def test_float_backend(self):
        d = cs.distribution(bell_plus().to_float())
        assert not d.exact
        np.testing.assert_allclose(d.as_float_array(), [0.5, 0, 0, 0.5], atol=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Distribution(np.array([0.5, 0.1]), 1, exact=False)


class TestMarginal:
    def test_second_register_uniform_for_every_oracle(self):
        quarter = DyadicReal(1, 0, 2)
        for f in cs.all_oracles(2):
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
        for k in range(8):
            assert marg[k] == cs.second_register_probability(out, 3, k)


    @pytest.mark.parametrize("block", [1 << 20, 8, 3])
    def test_float_marginal_blocks_sum_like_one_table(self, monkeypatch, block):
        # The exact float marginal squares a block of rows at a time; it
        # must equal squaring the whole float array and summing it at once,
        # bit for bit, whatever the block size.
        monkeypatch.setattr(refutation, "_MARGINAL_BLOCK", block)
        rng = np.random.Generator(np.random.PCG64(21))
        # Amplitudes (a + b sqrt2)/2^10 with random a, b round when summed;
        # the marginal does not need a normalized state.
        ab = rng.integers(-999, 1000, size=(1 << 10, 2))
        rough = StateVector.from_amplitudes([DyadicReal(int(a), int(b), 10) for a, b in ab])
        for s in (rough, random_exact_state(8, rng, depth=30)):
            for n in (1, 3, 7):
                table = (np.abs(s.to_float_array()) ** 2).reshape(-1, 1 << n).sum(axis=0)
                got = cs.second_register_marginal_floats(s, n)
                assert got.tobytes() == table.tobytes()


class TestTvDistance:
    def test_identical_is_zero(self):
        d = cs.distribution(bell_plus())
        assert cs.tv_distance(d, d) == 0

    def test_disjoint_point_masses(self):
        p = cs.distribution(StateVector.basis_state(1, 0))
        q = cs.distribution(StateVector.basis_state(1, 1))
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
        p = Distribution(np.array([0.75, 0.25]), 1, exact=False)
        q = Distribution(np.array([0.25, 0.75]), 1, exact=False)
        assert cs.tv_distance(p, q) == pytest.approx(0.5)


class TestSampling:
    def test_point_mass_always_same_outcome(self):
        counts = cs.sample(StateVector.basis_state(2, 3), 1000, seed=1)
        assert counts[3] == 1000 and counts.sum() == 1000

    def test_bell_empirical_tv_small(self):
        counts = cs.sample(bell_plus(), 100_000, seed=0)
        emp = cs.empirical_distribution(counts, 2)
        ideal = Distribution(np.array([0.5, 0.0, 0.0, 0.5]), 2, exact=False)
        assert cs.tv_distance(emp, ideal) < 0.01

    def test_two_oracles_empirically_indistinguishable(self):
        # 4 sigma at 1e5 draws comfortably clears 0.02.
        a = cs.sample(output_for(2, BooleanOracle(2, 0b0001)), 100_000, seed=0)
        b = cs.sample(output_for(2, BooleanOracle(2, 0b1110)), 100_000, seed=1)
        tv = cs.tv_distance(
            cs.empirical_distribution(a, 4), cs.empirical_distribution(b, 4)
        )
        assert tv < 0.02

    def test_seeded_determinism(self):
        s = bell_plus()
        assert np.array_equal(cs.sample(s, 5000, seed=7), cs.sample(s, 5000, seed=7))
        assert not np.array_equal(cs.sample(s, 5000, seed=7), cs.sample(s, 5000, seed=8))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            cs.sample(bell_plus(), 0)


class TestSweep:
    def test_exhaustive_n2(self):
        rep = cs.sweep_all_f(2)
        assert rep.exhaustive and rep.oracle_count == 16
        assert rep.all_match
        assert rep.max_deviation == 0.0
        assert rep.max_pairwise_tv == 0.0 and rep.max_pairwise_tv_is_exact
        assert rep.marginal_uniformity_deviation == 0.0
        assert all(v.exact_match and v.tv_to_first == 0.0 for v in rep.verdicts)

    def test_sampled_float_sweep(self):
        rep = cs.sweep_all_f(5, cs.FLOAT, sample_count=20, seed=4)
        assert not rep.exhaustive
        assert rep.oracle_count == 20
        assert rep.seed == 4 and rep.rng_algorithm == cs.RNG_ALGORITHM
        assert rep.all_match
        assert rep.max_deviation <= 1e-12

    def test_pairwise_tv_switches_to_bound_past_limit(self):
        limit = refutation._ALL_PAIRS_LIMIT
        small = cs.sweep_all_f(1, cs.FLOAT, exhaustive=False, sample_count=3, seed=2)
        assert small.max_pairwise_tv_is_exact
        big = cs.sweep_all_f(1, cs.FLOAT, exhaustive=False, sample_count=limit + 1, seed=2)
        assert big.oracle_count == limit + 1
        assert not big.max_pairwise_tv_is_exact
        top = sorted(v.tv_to_first for v in big.verdicts)[-2:]
        assert big.max_pairwise_tv == sum(top)

    def test_exhaustive_cap(self):
        with pytest.raises(ValueError):
            cs.sweep_all_f(5, exhaustive=True)

    def test_report_dict_shape(self):
        d = cs.sweep_all_f(1).to_dict()
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


class TestCheckOracle:
    def test_exact_and_float(self):
        f = BooleanOracle.from_marked(3, [2, 7])
        ok, dev = cs.check_oracle(3, f)
        assert ok and dev == 0.0
        ok, dev = cs.check_oracle(6, cs.random_oracle(6, np.random.Generator(np.random.PCG64(2))), cs.FLOAT)
        assert ok and dev <= 1e-12

    def test_float_backend_exhaustive_small_n(self):
        for n in (1, 2):
            for f in cs.all_oracles(n):
                ok, dev = cs.check_oracle(n, f, cs.FLOAT)
                assert ok and dev <= 1e-12
