import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import beta as beta_fn

from fbbmb.basis import (
    BasisParams,
    ParameterDomainError,
    build_node_set,
    cardinal_matrix,
    recurrence_coefficients,
)

LAMBDAS = [0.1, 0.5, 1.0, 1.5]


def shifted_moment(k, lam):
    # int_0^1 x^k (x(1-x))^(lam-1/2) dx
    return beta_fn(k + lam + 0.5, lam + 0.5)


class TestBasisParams:
    def test_lambda_below_window_rejected(self):
        with pytest.raises(ParameterDomainError):
            BasisParams(-0.5, 3)

    def test_lambda_above_window_rejected(self):
        with pytest.raises(ParameterDomainError):
            BasisParams(2.5, 3)

    def test_negative_degree_rejected(self):
        with pytest.raises(ParameterDomainError):
            BasisParams(0.5, -1)

    def test_lambda_star_neighborhood_warns(self):
        with pytest.warns(UserWarning, match="error-amplifying"):
            BasisParams(-0.14, 3)


class TestRecurrence:
    def test_alpha_all_zero(self):
        for lam in LAMBDAS:
            alpha, _ = recurrence_coefficients(BasisParams(lam, 8))
            assert np.all(alpha == 0.0)

    def test_legendre_beta1(self):
        # closed form beta_k = k^2/(4k^2 - 1) for lambda = 1/2
        _, beta = recurrence_coefficients(BasisParams(0.5, 5))
        ks = np.arange(1, 6, dtype=float)
        np.testing.assert_allclose(beta[1:], ks**2 / (4 * ks**2 - 1), rtol=1e-15)
        assert beta[1] == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_chebyshev_second_kind_beta(self):
        _, beta = recurrence_coefficients(BasisParams(1.0, 6))
        np.testing.assert_allclose(beta[1:], 0.25, rtol=1e-15)


class TestNodeSet:
    def test_single_node_at_half(self):
        ns = build_node_set(BasisParams(0.5, 0))
        assert ns.nodes[0] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_single_node_exact(self, lam):
        # the 1 x 1 Jacobi matrix [0] has eigenvalue 0 and eigenvector [1]
        params = BasisParams(lam, 0)
        ns = build_node_set(params)
        _, beta = recurrence_coefficients(params)
        np.testing.assert_array_equal(ns.nodes, [0.5])
        np.testing.assert_array_equal(ns.quad_weights, [beta[0] * 2.0 ** (-2.0 * lam)])
        np.testing.assert_array_equal(ns.bary_weights, [1.0])

    def test_two_point_legendre_nodes(self):
        ns = build_node_set(BasisParams(0.5, 1))
        expected = np.array([(1 - 1 / np.sqrt(3)) / 2, (1 + 1 / np.sqrt(3)) / 2])
        np.testing.assert_allclose(ns.nodes, expected, atol=1e-14)

    def test_quadrature_x9(self):
        ns = build_node_set(BasisParams(0.5, 4))
        assert ns.quad_weights @ ns.nodes**9 == pytest.approx(0.1, abs=1e-14)

    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("n", range(13))
    def test_gauss_exactness(self, lam, n):
        ns = build_node_set(BasisParams(lam, n))
        for k in range(2 * n + 2):
            approx = ns.quad_weights @ ns.nodes**k
            assert approx == pytest.approx(shifted_moment(k, lam), rel=1e-12)

    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("n", [1, 4, 9, 12])
    def test_weight_mass(self, lam, n):
        ns = build_node_set(BasisParams(lam, n))
        assert ns.quad_weights.sum() == pytest.approx(shifted_moment(0, lam), rel=1e-13)
        assert np.all(ns.quad_weights > 0)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_nodes_interior_sorted_symmetric(self, lam):
        ns = build_node_set(BasisParams(lam, 9))
        assert np.all(np.diff(ns.nodes) > 0)
        assert ns.nodes[0] > 0 and ns.nodes[-1] < 1
        np.testing.assert_allclose(ns.nodes + ns.nodes[::-1], 1.0, atol=1e-13)

    def test_bary_weights_alternate_and_normalized(self):
        ns = build_node_set(BasisParams(1.5, 10))
        assert np.max(np.abs(ns.bary_weights)) == pytest.approx(1.0)
        signs = np.sign(ns.bary_weights)
        assert np.all(signs[:-1] * signs[1:] == -1)

    def test_large_n_no_overflow(self):
        ns = build_node_set(BasisParams(0.5, 80))
        assert np.all(np.isfinite(ns.bary_weights))
        assert np.max(np.abs(ns.bary_weights)) == pytest.approx(1.0)


def brute_force_lagrange(nodes, values, x):
    total = 0.0
    for j in range(len(nodes)):
        term = values[j]
        for k in range(len(nodes)):
            if k != j:
                term *= (x - nodes[k]) / (nodes[j] - nodes[k])
        total += term
    return total


def interpolate(ns, values, x):
    # the barycentric interpolant of nodal values at one point
    return cardinal_matrix(ns, [x])[0] @ values


class TestInterpolate:
    def test_constant_reproduction(self):
        ns = build_node_set(BasisParams(0.5, 5))
        vals = np.full(6, 3.7)
        for x in [0.0, 0.123, 0.5, 1.0]:
            assert interpolate(ns, vals, x) == pytest.approx(3.7, rel=1e-14)

    def test_linear_reproduction(self):
        ns = build_node_set(BasisParams(0.5, 3))
        assert interpolate(ns, ns.nodes, 0.3) == pytest.approx(0.3, abs=1e-14)

    def test_node_hit_returns_stored_value(self):
        ns = build_node_set(BasisParams(1.0, 4))
        vals = np.arange(5.0)
        for j, xj in enumerate(ns.nodes):
            assert interpolate(ns, vals, xj) == vals[j]

    def test_exp_against_brute_force(self):
        ns = build_node_set(BasisParams(0.5, 6))
        vals = np.exp(ns.nodes)
        got = interpolate(ns, vals, 0.5)
        assert got == pytest.approx(brute_force_lagrange(ns.nodes, vals, 0.5), abs=1e-13)
        assert got == pytest.approx(np.exp(0.5), abs=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 8),
        lam=st.sampled_from(LAMBDAS),
        coeffs=st.lists(st.floats(-2, 2), min_size=1, max_size=9),
        x=st.floats(0, 1),
    )
    def test_polynomial_projector(self, n, lam, coeffs, x):
        # interpolation reproduces any polynomial of degree <= n
        coeffs = coeffs[: n + 1]
        ns = build_node_set(BasisParams(lam, n))
        p = np.polynomial.Polynomial(coeffs)
        assert interpolate(ns, p(ns.nodes), x) == pytest.approx(p(x), abs=1e-12)

    def test_cardinal_matrix_rows(self):
        ns = build_node_set(BasisParams(0.5, 5))
        xs = np.array([0.0, 0.25, ns.nodes[2], 1.0])
        L = cardinal_matrix(ns, xs)
        np.testing.assert_allclose(L.sum(axis=1), 1.0, atol=1e-13)
        expected = np.zeros(6)
        expected[2] = 1.0
        np.testing.assert_array_equal(L[2], expected)
