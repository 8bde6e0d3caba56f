import numpy as np
import pytest

import compsearch as cs
from compsearch import BooleanOracle, DyadicReal, StateVector
from conftest import constant_oracle, delta_identity

INV = DyadicReal(0, 1, 1)


class TestDeltaIdentity:
    def test_equal_arguments(self):
        assert delta_identity(2, 3, 3) == 4
        assert delta_identity(3, 5, 5) == 8

    def test_distinct_arguments(self):
        assert delta_identity(2, 1, 2) == 0

    def test_random_distinct_pairs_n8(self):
        rng = np.random.Generator(np.random.PCG64(15))
        for _ in range(200):
            k = int(rng.integers(256))
            l = int(rng.integers(256))
            if k == l:
                l = (l + 1) % 256
            assert delta_identity(8, k, l) == 0

    def test_exhaustive_small(self):
        for n in (1, 2, 3):
            for k in range(1 << n):
                for l in range(1 << n):
                    want = (1 << n) if k == l else 0
                    assert delta_identity(n, k, l) == want

    def test_range_checks(self):
        with pytest.raises(ValueError):
            delta_identity(2, 4, 0)
        with pytest.raises(ValueError):
            delta_identity(0, 0, 0)


class TestClosedFormStates:
    def test_psi0(self):
        assert cs.psi0(1) == StateVector(2)
        assert cs.psi0(2) == StateVector(4)
        assert cs.psi0(2).norm_squared() == 1

    def test_psi1_uniform(self):
        assert cs.psi1(1) == StateVector.from_amplitudes([DyadicReal(1, 0, 1)] * 4)
        s = cs.psi1(2)
        quarter = DyadicReal(1, 0, 2)
        assert all(a == quarter for a in s.amplitudes())
        assert s.norm_squared() == 1

    def test_psi2_signs(self):
        f = BooleanOracle.from_marked(1, [1])
        half = DyadicReal(1, 0, 1)
        assert cs.psi2(1, f) == StateVector.from_amplitudes([half, -half, half, -half])
        assert cs.psi2(2, constant_oracle(2, 0)) == cs.psi1(2)
        # f == 1 everywhere is a global sign flip of psi1
        allones = cs.psi2(2, constant_oracle(2, 1))
        assert allones == StateVector.from_amplitudes(
            [-a for a in cs.psi1(2).amplitudes()]
        )

    def test_psi2a_collapses_at_n1(self):
        assert cs.psi2a(1, constant_oracle(1, 0)) == StateVector.from_amplitudes(
            [INV, 0, 0, INV]
        )

    def test_psi2a_matches_simulator_checkpoint(self):
        for n in (1, 2):
            for f in cs.all_oracles(n):
                tr = cs.run_with_trace(
                    cs.build_comparison_search(n, f), StateVector(2 * n)
                )
                state = cs.psi2a(n, f)
                assert state == tr["psi2a"]
                assert state.norm_squared() == 1

    def test_psi3_matches_target(self):
        for n in (1, 2):
            for f in cs.all_oracles(n):
                state = cs.psi3(n, f)
                assert state == cs.target_output(n, f)
                assert state.norm_squared() == 1

    def test_target_output_diagonal(self):
        f = BooleanOracle.from_marked(2, [3])
        s = cs.target_output(2, f)
        half = DyadicReal(1, 0, 1)
        for k in range(4):
            want = -half if k == 3 else half
            assert s.amplitude(k * 4 + k) == want
        for j in range(4):
            for k in range(4):
                if j != k:
                    assert s.amplitude(j * 4 + k) == 0

    def test_float_backend(self):
        f = BooleanOracle(2, 0b0110)
        exact = cs.psi3(2, f)
        floaty = cs.psi3(2, f, backend=cs.FLOAT)
        assert floaty.backend == cs.FLOAT
        assert exact.max_abs_diff(floaty) <= 1e-15

    def test_argument_validation(self):
        with pytest.raises(ValueError, match=r"^register size must be >= 1, got 0$"):
            cs.psi1(0)
        with pytest.raises(ValueError, match=r"^oracle arity 3 does not match n=2$"):
            cs.psi2(2, constant_oracle(3, 0))
        with pytest.raises(ValueError, match=r"^unknown backend 'symbolic'$"):
            cs.target_output(1, constant_oracle(1, 0), backend="symbolic")
