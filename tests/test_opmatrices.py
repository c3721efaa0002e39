import math
import re

import mpmath
import numpy as np
import pytest
from scipy.special import roots_jacobi

from fbbmb.assembly import assemble
from fbbmb.basis import build_node_set
from fbbmb.opmatrices import (
    _gauss_jacobi,
    build_operator_bundle,
    build_rl_fsgim,
    build_sgdm,
    build_sgim,
    build_sgirv,
)
from fbbmb.problems import example1
from oracles import caputo_power_rule, fd_derivative, rlfi_power_rule


@pytest.fixture
def ns5():
    return build_node_set(0.5, 5)


@pytest.fixture
def ns8():
    return build_node_set(0.5, 8)


class TestDiffMatrix:
    def test_rejects_single_node(self):
        with pytest.raises(ValueError, match=re.escape("differentiation needs at least two nodes")):
            build_sgdm(build_node_set(0.5, 0))

    def test_rows_sum_to_zero(self, ns8):
        D = build_sgdm(ns8)
        np.testing.assert_allclose(D.sum(axis=1), 0.0, atol=1e-11)

    def test_constant_annihilated(self, ns8):
        D = build_sgdm(ns8)
        np.testing.assert_allclose(D @ np.ones(9), 0.0, atol=1e-11)

    def test_square_differentiated_exactly(self, ns5):
        D = build_sgdm(ns5)
        np.testing.assert_allclose(D @ ns5.nodes**2, 2 * ns5.nodes, atol=1e-11)

    def test_sin_against_fd_and_analytic(self, ns8):
        D = build_sgdm(ns8)
        got = D @ np.sin(ns8.nodes)
        fd = np.array([fd_derivative(math.sin, x, 1e-6) for x in ns8.nodes])
        np.testing.assert_allclose(got, fd, atol=1e-7)
        np.testing.assert_allclose(got, np.cos(ns8.nodes), atol=1e-7)


class TestIntMatrix:
    def test_constant_integrates_to_nodes(self, ns8):
        Q = build_sgim(ns8)
        np.testing.assert_allclose(Q @ np.ones(9), ns8.nodes, atol=1e-12)

    def test_cubic_antiderivative(self):
        ns = build_node_set(0.5, 4)
        Q = build_sgim(ns)
        np.testing.assert_allclose(Q @ ns.nodes**3, ns.nodes**4 / 4, atol=1e-13)

    def test_single_node_grid(self):
        ns = build_node_set(0.5, 0)
        Q = build_sgim(ns)
        np.testing.assert_allclose(Q, [[ns.nodes[0]]], atol=1e-15)

    def test_fundamental_theorem(self, ns8):
        # D(Q g) = g for polynomial data up to degree m-1
        D = build_sgdm(ns8)
        Q = build_sgim(ns8)
        for k in range(8):
            g = ns8.nodes**k
            np.testing.assert_allclose(D @ (Q @ g), g, atol=1e-9)

    @pytest.mark.parametrize("n", [40, 48, 64])
    def test_exact_for_top_degrees_on_large_grids(self, n):
        ns = build_node_set(0.5, n)
        Q = build_sgim(ns)
        x = ns.nodes
        for k in (n - 2, n - 1, n):
            np.testing.assert_allclose(Q @ x**k, x ** (k + 1) / (k + 1), rtol=0, atol=1e-12)


class TestIntRowVector:
    def test_constant(self, ns5):
        P = build_sgirv(ns5)
        assert P.sum() == pytest.approx(1.0, abs=1e-13)

    def test_identity_data(self):
        ns = build_node_set(0.5, 3)
        P = build_sgirv(ns)
        assert P[0] @ ns.nodes == pytest.approx(0.5, abs=1e-13)

    def test_quintic(self, ns5):
        P = build_sgirv(ns5)
        assert P[0] @ ns5.nodes**5 == pytest.approx(1.0 / 6.0, abs=1e-13)

    @pytest.mark.parametrize("n", [40, 48, 64])
    def test_exact_for_top_degrees_on_large_grids(self, n):
        ns = build_node_set(0.5, n)
        P = build_sgirv(ns)
        for k in (n - 2, n - 1, n):
            assert P[0] @ ns.nodes**k == pytest.approx(1.0 / (k + 1), abs=1e-12)


class TestFracIntMatrix:
    def test_beta_out_of_range(self, ns5):
        for bad in (0.0, -0.3, 1.2):
            with pytest.raises(ValueError, match=re.escape(
                    f"fractional order beta={bad} outside (0, 1]")):
                build_rl_fsgim(ns5, bad)

    def test_beta_one_matches_plain_integration(self, ns8):
        B = build_rl_fsgim(ns8, 1.0)
        Q = build_sgim(ns8)
        for k in range(9):
            np.testing.assert_allclose(B @ ns8.nodes**k, Q @ ns8.nodes**k, atol=1e-12)

    def test_half_order_constant(self, ns8):
        B = build_rl_fsgim(ns8, 0.5)
        expected = ns8.nodes**0.5 / math.gamma(1.5)
        np.testing.assert_allclose(B @ np.ones(9), expected, atol=1e-10)

    def test_half_order_linear(self, ns8):
        B = build_rl_fsgim(ns8, 0.5)
        expected = math.gamma(2.0) / math.gamma(2.5) * ns8.nodes**1.5
        np.testing.assert_allclose(B @ ns8.nodes, expected, atol=1e-10)

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    def test_power_rule_sweep(self, ns8, beta):
        B = build_rl_fsgim(ns8, beta)
        for k in range(8):
            expected = np.array([rlfi_power_rule(k, beta, t) for t in ns8.nodes])
            np.testing.assert_allclose(B @ ns8.nodes**k, expected, atol=1e-9)

    def test_semigroup(self, ns8):
        # intermediate B^0.4 g has a fractional power t^(k+0.4); its nodal
        # re-interpolation aliases hard for low k, so spot-check at degree m-1
        B3 = build_rl_fsgim(ns8, 0.3)
        B4 = build_rl_fsgim(ns8, 0.4)
        B7 = build_rl_fsgim(ns8, 0.7)
        g = ns8.nodes**7
        np.testing.assert_allclose(B3 @ (B4 @ g), B7 @ g, atol=1e-7)

    def test_semigroup_aliasing_shrinks_with_degree(self, ns8):
        B3 = build_rl_fsgim(ns8, 0.3)
        B4 = build_rl_fsgim(ns8, 0.4)
        B7 = build_rl_fsgim(ns8, 0.7)
        errs = [
            np.max(np.abs(B3 @ (B4 @ ns8.nodes**k) - B7 @ ns8.nodes**k))
            for k in (0, 3, 7)
        ]
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("m", [40, 48])
    def test_exact_for_top_degrees_on_large_grids(self, m, beta):
        # the rule is sized from m, so the degree-m interpolant stays exact
        ns = build_node_set(0.5, m)
        B = build_rl_fsgim(ns, beta)
        for k in (m - 2, m - 1, m):
            expected = np.array([rlfi_power_rule(k, beta, t) for t in ns.nodes])
            np.testing.assert_allclose(B @ ns.nodes**k, expected, rtol=0, atol=1e-12)


def caputo(ns, alpha):
    """The Caputo matrix of order alpha that `assembly.assemble` applies to psi1:
    the order-(1 - alpha) RL integration of the first derivative."""
    D = build_sgdm(ns)
    return D if alpha == 1.0 else build_rl_fsgim(ns, 1.0 - alpha) @ D


class TestCaputoMatrix:
    def test_constant_annihilated(self, ns8):
        A = caputo(ns8, 0.5)
        np.testing.assert_allclose(A @ np.ones(9), 0.0, atol=1e-10)

    def test_half_order_fractional_power(self, ns8):
        # on t^1.5 data the matrix is exact for the Caputo of the interpolant
        # (checked at 1e-9 against the quadrature oracle in test_oracles); the
        # gap to the analytic power rule is pure interpolation aliasing
        A = caputo(ns8, 0.5)
        expected = math.gamma(2.5) / math.gamma(2.0) * ns8.nodes
        err8 = np.max(np.abs(A @ ns8.nodes**1.5 - expected))
        assert err8 < 1e-2
        ns32 = build_node_set(0.5, 32)
        A32 = caputo(ns32, 0.5)
        expected32 = math.gamma(2.5) / math.gamma(2.0) * ns32.nodes
        err32 = np.max(np.abs(A32 @ ns32.nodes**1.5 - expected32))
        assert err32 < err8 / 10

    def test_alpha_one_is_classical_derivative(self, ns8):
        A = caputo(ns8, 1.0)
        np.testing.assert_allclose(A @ ns8.nodes**2, 2 * ns8.nodes, atol=1e-11)
        np.testing.assert_allclose(A, build_sgdm(ns8))

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_caputo_power_rule_sweep(self, ns8, alpha):
        A = caputo(ns8, alpha)
        for k in range(1, 8):
            expected = np.array([caputo_power_rule(k, alpha, t) for t in ns8.nodes])
            np.testing.assert_allclose(A @ ns8.nodes**k, expected, atol=1e-8)


class TestGaussJacobiRule:
    """The scaled rule under every integration matrix: nodes s on [0, 1] and
    weights for (1-s)^(beta-1) / Gamma(beta), exact to degree 2 * points - 1."""

    POINTS = [1, 2, 3, 5, 8, 17, 33, 64, 65]

    @staticmethod
    def worst_moment_error(s, sw, beta):
        # int_0^1 (1-s)^(beta-1) s^j ds / Gamma(beta) = Gamma(j+1) / Gamma(j+1+beta)
        exact = [float(mpmath.gamma(j + 1) / mpmath.gamma(j + 1 + mpmath.mpf(beta)))
                 for j in range(2 * s.size)]
        return max(abs(sw @ s**j - e) / e for j, e in enumerate(exact))

    @pytest.mark.parametrize("beta", [0.05, 0.1, 0.5, 0.9, 1.0])
    def test_moments_exact_and_no_worse_than_scipy(self, beta):
        ours, scipys = [], []
        for points in self.POINTS:
            ours.append(self.worst_moment_error(*_gauss_jacobi.__wrapped__(points, beta), beta))
            x, w = roots_jacobi(points, beta - 1.0, 0.0)
            scipys.append(self.worst_moment_error((x + 1) / 2, w * 2.0**-beta / math.gamma(beta), beta))
        assert max(ours) <= 1e-12, dict(zip(self.POINTS, ours))
        assert max(ours) <= max(scipys), (ours, scipys)


class TestOperatorBundle:
    def test_shapes(self, ns5, ns8):
        ops = build_operator_bundle(ns5, ns8)
        assert ops.D_x.shape == ops.Q_x.shape == (6, 6)
        assert ops.P_x.shape == (1, 6)
        assert ops.D_t.shape == ops.Q_t.shape == (9, 9)


class TestOperatorCache:
    """The alpha-free operators are memoised per node set and read-only; the
    RL matrix, which depends on alpha, is built afresh on each call."""

    @pytest.mark.parametrize("builder", [build_sgdm, build_sgim, build_sgirv])
    def test_repeat_returns_same_read_only_array(self, ns8, builder):
        A = builder(ns8)
        assert builder(ns8) is A
        with pytest.raises(ValueError, match="read-only"):
            A[0, 0] = 0.0

    @pytest.mark.parametrize("builder", [build_sgdm, build_sgim, build_sgirv])
    @pytest.mark.parametrize("lam, n", [(0.5, 8), (1.5, 13), (0.0, 32)])
    def test_cached_equals_uncached(self, builder, lam, n):
        ns = build_node_set(lam, n)
        assert np.array_equal(builder(ns), builder.__wrapped__(ns))

    def test_bundles_of_the_same_node_sets_share_every_array(self, ns5, ns8):
        a, b = build_operator_bundle(ns5, ns8), build_operator_bundle(ns5, ns8)
        for name, value in vars(a).items():
            assert vars(b)[name] is value, name

    def test_rl_matrix_not_cached(self, ns8):
        assert build_rl_fsgim(ns8, 0.5) is not build_rl_fsgim(ns8, 0.5)

    def test_alpha_sweep_does_not_grow_operator_caches(self, ns5, ns8):
        ops = build_operator_bundle(ns5, ns8)
        sizes = [f.cache_info().currsize for f in (build_sgdm, build_sgim, build_sgirv)]
        for alpha in (0.1, 0.3, 0.7, 0.9, 1.0):
            assemble(example1(alpha), ops)
        assert [f.cache_info().currsize for f in (build_sgdm, build_sgim, build_sgirv)] == sizes
