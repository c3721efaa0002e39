import math

import mpmath
import numpy as np
import pytest

from fbbmb.basis import build_node_set, cardinal_matrix
from fbbmb.opmatrices import build_rl_fsgim, build_sgdm
from oracles import (
    OracleConfig,
    caputo_power_rule,
    fd_derivative,
    log_gamma,
    rlfi_oracle,
    rlfi_oracle_scaled,
    rlfi_power_rule,
)


class TestOracleConfig:
    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValueError):
            OracleConfig(abs_tol=0.0)


class TestLogGamma:
    def test_against_mpmath_references(self):
        # 20 arguments spread over [0.1, 20]
        args = [0.1, 0.25, 0.5, 0.75, 1.0, 1.3, 1.5, 2.0, 2.5, 3.0,
                3.7, 4.2, 5.0, 6.5, 8.0, 10.0, 12.3, 15.0, 17.7, 20.0]
        mpmath.mp.dps = 50
        for x in args:
            ref = float(mpmath.loggamma(x))
            assert log_gamma(x) == pytest.approx(ref, rel=1e-14)


class TestRlfiOracle:
    def test_constant_half_order(self):
        assert rlfi_oracle(lambda t: 1.0, 0.5, 1.0) == pytest.approx(
            1.0 / math.gamma(1.5), abs=1e-11
        )

    def test_linear_integer_order(self):
        assert rlfi_oracle(lambda t: t, 1.0, 0.5) == pytest.approx(0.125, abs=1e-12)

    def test_exp_two_substitutions_agree(self):
        a = rlfi_oracle(math.exp, 0.5, 1.0)
        b = rlfi_oracle_scaled(math.exp, 0.5, 1.0)
        assert a == pytest.approx(b, abs=1e-10)

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_power_rule_agreement(self, beta, k):
        for t in (0.3, 1.0):
            got = rlfi_oracle(lambda tau: tau**k, beta, t)
            assert got == pytest.approx(rlfi_power_rule(k, beta, t), abs=1e-10)

    def test_self_consistency_under_tighter_tolerance(self):
        loose = OracleConfig(abs_tol=1e-8, rel_tol=1e-8)
        tight = OracleConfig(abs_tol=5e-9, rel_tol=5e-9)
        a = rlfi_oracle(math.exp, 0.4, 0.8, loose)
        b = rlfi_oracle(math.exp, 0.4, 0.8, tight)
        assert abs(a - b) < 1e-8

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            rlfi_oracle(math.exp, 1.5, 0.5)
        with pytest.raises(ValueError):
            rlfi_oracle(math.exp, 0.5, 0.0)


class TestCaputoPowerRule:
    def test_constant_is_zero(self):
        assert caputo_power_rule(0, 0.5, 0.7) == 0.0

    def test_three_halves_power(self):
        expected = math.gamma(2.5) / math.gamma(2.0)
        assert caputo_power_rule(1.5, 0.5, 1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.3293403882, abs=1e-9)

    def test_classical_limit(self):
        assert caputo_power_rule(2, 1.0, 0.3) == pytest.approx(0.6, rel=1e-12)

    def test_subcritical_power_rejected(self):
        with pytest.raises(ValueError):
            caputo_power_rule(0.3, 0.5, 1.0)


class TestFdDerivative:
    def test_square(self):
        assert fd_derivative(lambda x: x**2, 1.0, 1e-6) == pytest.approx(2.0, abs=1e-9)

    def test_constant_exact_zero(self):
        assert fd_derivative(lambda x: 4.2, 0.3, 1e-6) == 0.0

    def test_sin(self):
        assert fd_derivative(math.sin, 0.5, 1e-6) == pytest.approx(math.cos(0.5), abs=1e-9)


class TestCaputoMatrixAgainstOracle:
    def test_fractional_power_matches_caputo_of_interpolant(self):
        # the matrix realizes the exact Caputo of the nodal interpolant; on
        # t^1.5 data the quadrature oracle applied to the interpolant's
        # derivative must agree to near machine precision
        ns = build_node_set(0.5, 8)
        A = build_rl_fsgim(ns, 0.5) @ build_sgdm(ns)  # the Caputo matrix of order 0.5
        data = ns.nodes**1.5
        dp = build_sgdm(ns) @ data
        oracle = np.array(
            [rlfi_oracle(lambda t: cardinal_matrix(ns, [t])[0] @ dp, 0.5, tj) for tj in ns.nodes]
        )
        np.testing.assert_allclose(A @ data, oracle, atol=1e-9)
