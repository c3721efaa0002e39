import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import beta as beta_fn
from scipy.special import roots_jacobi

from fbbmb.basis import (
    build_node_set,
    cardinal_matrix,
    gauss_jacobi,
)

# at lambda = 0 (a + b = -1) the general formula of the Jacobi matrix's first
# off-diagonal entry is 0/0, and gauss_jacobi takes its closed form
LAMBDAS = [0.1, 0.5, 1.0, 1.5, 0.0]


def shifted_moment(k, lam):
    # int_0^1 x^k (x(1-x))^(lam-1/2) dx
    return beta_fn(k + lam + 0.5, lam + 0.5)


def interpolatory_weights(ns, lam):
    """Weights of the interpolatory rule on ns's nodes, built at index lam, for
    w(x) = (x(1-x))^(lam-1/2): the integrals of its cardinal functions, by an
    (n+2)-point Gauss-Jacobi rule (exact for their degree n, and sharing no node
    with ns). The rule is exact to degree 2n + 1, and its weights are positive,
    because the nodes are the Gauss nodes of w."""
    y, w = roots_jacobi(ns.n + 2, lam - 0.5, lam - 0.5)
    # dx-hat = dx/2 and (x-hat(1-x-hat))^(lam-1/2) = ((1-x^2)/4)^(lam-1/2)
    return 2.0 ** (-2.0 * lam) * (w @ cardinal_matrix(ns, (y + 1.0) / 2.0))


def gegenbauer_roots_mp(k, lam, guesses, dps=30, steps=3):
    """Roots of C_k^(lam) on [-1, 1] by Newton from double-precision `guesses` in
    `dps` digits; C_k and C_k' come from the three-term recurrence."""
    with mpmath.workdps(dps):
        lam = mpmath.mpf(lam)
        roots = []
        for x in map(mpmath.mpf, guesses):
            for _ in range(steps):
                c_prev, c, dc_prev, dc = 1, 2 * lam * x, 0, 2 * lam
                for j in range(1, k):
                    a, b = 2 * (j + lam) / (j + 1), (j + 2 * lam - 1) / (j + 1)
                    c_prev, c, dc_prev, dc = (c, a * x * c - b * c_prev,
                                              dc, a * (c + x * dc) - b * dc_prev)
                x -= c / dc
            roots.append(x)
        return roots


class TestGaussJacobi:
    """basis.gauss_jacobi, the one Gauss rule: the Gegenbauer case a = b = lam - 1/2
    against roots in 30 digits, symmetry and the weights' mass."""

    @pytest.mark.parametrize("lam", [-0.498, -0.45, 0.0, 0.1, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 12, 33, 64])
    def test_gegenbauer_nodes_match_high_precision_roots(self, lam, n):
        x, _ = gauss_jacobi(n + 1, lam - 0.5, lam - 0.5)
        if lam == 0.0:
            # C_k^(0) vanishes identically; its lam -> 0 limit is the Chebyshev T_k
            with mpmath.workdps(30):
                ref = [-mpmath.cos((2 * j + 1) * mpmath.pi / (2 * n + 2)) for j in range(n + 1)]
        else:
            ref = gegenbauer_roots_mp(n + 1, lam, x)
        assert np.max(np.abs(x - np.array([float(r) for r in ref]))) <= 1e-15

    @pytest.mark.parametrize("lam", [-0.498, 0.0, 0.5, 2.0])
    def test_gegenbauer_rule_symmetric(self, lam):
        x, w = gauss_jacobi(10, lam - 0.5, lam - 0.5)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0) and np.all(w > 0)

    @pytest.mark.parametrize("a, b", [(-0.95, 0.0), (0.0, 0.0), (-0.5, -0.5), (1.5, -0.3)])
    def test_weights_carry_the_mass(self, a, b):
        # int_-1^1 (1-x)^a (1+x)^b dx = 2^(a+b+1) B(a+1, b+1)
        _, w = gauss_jacobi(7, a, b)
        assert w.sum() == pytest.approx(2.0 ** (a + b + 1) * beta_fn(a + 1, b + 1), rel=1e-14)


class TestNodeSetChecks:
    """build_node_set's checks of the Gegenbauer index lam and the degree n."""

    def test_lambda_below_window_rejected(self):
        for _ in range(2):  # a rejected lam is never cached
            with pytest.raises(ValueError, match=re.escape(
                    "lambda=-0.5 outside the valid window (-0.499, 2.0]")):
                build_node_set(-0.5, 3)

    def test_lambda_above_window_rejected(self):
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape(
                    "lambda=2.5 outside the valid window (-0.499, 2.0]")):
                build_node_set(2.5, 3)

    @pytest.mark.parametrize("n", [-1, 0])
    def test_degree_below_one_rejected(self, n):
        # a grid is differentiated (build_sgdm), so it needs two nodes
        with pytest.raises(ValueError, match=re.escape(f"grid degree {n} must be at least 1")):
            build_node_set(0.5, n)

    @pytest.mark.parametrize("n", [4.5, float("nan"), float("inf")])
    def test_non_integral_degree_rejected(self, n):
        with pytest.raises(ValueError, match=re.escape(f"grid degree {n} must be an integer")):
            build_node_set(0.5, n)

    def test_lambda_near_minus_0_14_builds_silently(self):
        # no index inside the window draws a warning; the second call is a cache hit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                build_node_set(-0.14, 3)


class TestNodeSetCache:
    """build_node_set returns one shared, read-only NodeSet per (lam, n)."""

    def test_repeat_returns_same_object(self):
        assert build_node_set(0.5, 6) is build_node_set(0.5, 6)
        assert build_node_set(0.5, 6) is not build_node_set(1.0, 6)

    def test_integral_degrees_share_one_entry(self):
        ns = build_node_set(0.5, 4)
        assert build_node_set(0.5, 4.0) is ns
        assert build_node_set(np.float64(0.5), np.int64(4)) is ns

    @pytest.mark.parametrize("field", ["nodes", "bary_weights"])
    def test_arrays_read_only(self, field):
        arr = getattr(build_node_set(0.5, 5), field)
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0

    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_nodes_equal_uncached_rule(self, lam, n):
        build_node_set(lam, n)  # the second call below reads the cache
        expected = (gauss_jacobi(n + 1, lam - 0.5, lam - 0.5)[0] + 1) / 2
        assert np.array_equal(build_node_set(lam, n).nodes, expected)

    def test_compares_by_identity(self):
        a, b = build_node_set(0.5, 3), build_node_set(0.5, 4)
        assert a == a and a != b
        assert len({a, b, build_node_set(0.5, 3)}) == 2


class TestNodeSet:
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_two_node_rule_exact(self, lam):
        # the smallest grid: the roots of C_2^(lam) are +-1/sqrt(2(lam + 1)), and
        # the two weights are equal and carry the whole mass
        half = 0.5 / np.sqrt(2.0 * (lam + 1.0))
        ns = build_node_set(lam, 1)
        np.testing.assert_allclose(ns.nodes, [0.5 - half, 0.5 + half], rtol=0, atol=1e-15)
        np.testing.assert_allclose(interpolatory_weights(ns, lam), [shifted_moment(0, lam) / 2] * 2,
                                   rtol=1e-14)
        np.testing.assert_array_equal(ns.bary_weights, [-1.0, 1.0])

    @pytest.mark.parametrize("lam", [-0.4, 0.5, 2.0])
    def test_nodes_match_high_precision_roots(self, lam):
        n = 40
        ns = build_node_set(lam, n)
        ref = [float((x + 1) / 2) for x in gegenbauer_roots_mp(n + 1, lam, ns.nodes * 2 - 1)]
        assert np.max(np.abs(ns.nodes - ref)) <= 2.3e-16

    def test_two_point_legendre_nodes(self):
        ns = build_node_set(0.5, 1)
        expected = np.array([(1 - 1 / np.sqrt(3)) / 2, (1 + 1 / np.sqrt(3)) / 2])
        np.testing.assert_allclose(ns.nodes, expected, atol=1e-14)

    def test_quadrature_x9(self):
        ns = build_node_set(0.5, 4)
        assert interpolatory_weights(ns, 0.5) @ ns.nodes**9 == pytest.approx(0.1, abs=1e-14)

    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("n", range(1, 13))
    def test_gauss_exactness(self, lam, n):
        ns = build_node_set(lam, n)
        weights = interpolatory_weights(ns, lam)
        for k in range(2 * n + 2):
            approx = weights @ ns.nodes**k
            assert approx == pytest.approx(shifted_moment(k, lam), rel=1e-12)

    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("n", [1, 4, 9, 12])
    def test_weight_mass(self, lam, n):
        ns = build_node_set(lam, n)
        weights = interpolatory_weights(ns, lam)
        assert weights.sum() == pytest.approx(shifted_moment(0, lam), rel=1e-13)
        assert np.all(weights > 0)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_nodes_interior_sorted_symmetric(self, lam):
        ns = build_node_set(lam, 9)
        assert np.all(np.diff(ns.nodes) > 0)
        assert ns.nodes[0] > 0 and ns.nodes[-1] < 1
        np.testing.assert_allclose(ns.nodes + ns.nodes[::-1], 1.0, atol=1e-13)

    def test_bary_weights_alternate_and_normalized(self):
        ns = build_node_set(1.5, 10)
        assert np.max(np.abs(ns.bary_weights)) == pytest.approx(1.0)
        signs = np.sign(ns.bary_weights)
        assert np.all(signs[:-1] * signs[1:] == -1)

    @pytest.mark.parametrize("lam", [-0.498, -0.45, 0.0, 0.1, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64, 96])
    def test_bary_weights_match_node_products(self, lam, n):
        # the weights taken from the Gauss rule against their definition,
        # 1 / prod_{k != j} (x_j - x_k) over the node set's own nodes in 40 digits
        ns = build_node_set(lam, n)
        with mpmath.workdps(40):
            x = [mpmath.mpf(float(v)) for v in ns.nodes]
            ref = [1 / mpmath.fprod(x[j] - x[k] for k in range(n + 1) if k != j)
                   for j in range(n + 1)]
            ref = np.array([float(r / max(map(abs, ref))) for r in ref])
        got = ns.bary_weights / np.max(np.abs(ns.bary_weights))
        assert np.max(np.abs(got - ref)) <= 4e-14

    def test_large_n_no_overflow(self):
        ns = build_node_set(0.5, 80)
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
        ns = build_node_set(0.5, 5)
        vals = np.full(6, 3.7)
        for x in [0.0, 0.123, 0.5, 1.0]:
            assert interpolate(ns, vals, x) == pytest.approx(3.7, rel=1e-14)

    def test_linear_reproduction(self):
        ns = build_node_set(0.5, 3)
        assert interpolate(ns, ns.nodes, 0.3) == pytest.approx(0.3, abs=1e-14)

    def test_node_hit_returns_stored_value(self):
        ns = build_node_set(1.0, 4)
        vals = np.arange(5.0)
        for j, xj in enumerate(ns.nodes):
            assert interpolate(ns, vals, xj) == vals[j]

    def test_exp_against_brute_force(self):
        ns = build_node_set(0.5, 6)
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
        ns = build_node_set(lam, n)
        p = np.polynomial.Polynomial(coeffs)
        assert interpolate(ns, p(ns.nodes), x) == pytest.approx(p(x), abs=1e-12)

    def test_cardinal_matrix_rows(self):
        ns = build_node_set(0.5, 5)
        xs = np.array([0.0, 0.25, ns.nodes[2], 1.0])
        L = cardinal_matrix(ns, xs)
        np.testing.assert_allclose(L.sum(axis=1), 1.0, atol=1e-13)
        expected = np.zeros(6)
        expected[2] = 1.0
        np.testing.assert_array_equal(L[2], expected)
