import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fbbmb.assembly import (
    ProblemSpec,
    assemble,
    compute_aae,
    evaluate_on_mesh,
    jacobian,
    jvp,
    reconstruct,
    residual,
    rounding_scale,
    vjp,
)
from fbbmb.basis import build_node_set
from fbbmb.opmatrices import build_operator_bundle
from fbbmb.problems import REGISTRY, example1, example2, make_separable_problem, manufactured_poly
from oracles import caputo_power_rule, example1_source, example2_source, poly_source, trig_source


def make_system(spec, n, m):
    ns_x = build_node_set(0.5, n)
    ns_t = build_node_set(0.5, m)
    return assemble(spec, build_operator_bundle(ns_x, ns_t))


def without_nonlinear_term(sys):
    # for phi = 0 (example1, example2) phi' = 0, so zeroing Q_t makes
    # Y(v) = K_tn v + phi' vanish and with it the nonlinear term Y .* W; the
    # constraint rows P_x V Q_t^T - Rhat lose their v-dependence too
    return dataclasses.replace(sys, Q_t=np.zeros_like(sys.Q_t))


def psi_matrix(sys):
    # the factored linear operator applied to the identity columns: with the
    # nonlinear term gone, the top N rows of J(v) p are Psi p
    lin = without_nonlinear_term(sys)
    N = sys.F.size
    return np.column_stack([jvp(lin, np.zeros(N), e)[:N] for e in np.eye(N)])


def dense_reference(sys, v):
    """Residual, Jacobian and nodal u of the system with every operator formed
    as a dense Kronecker product, for v in the space-major ordering."""
    n1, m1 = sys.ns_x.n + 1, sys.ns_t.n + 1
    Psi = np.kron(sys.Q_x, sys.rl_frac) - np.kron(sys.D_x, np.eye(m1))
    K_tn = np.kron(np.eye(n1), sys.Q_t)
    Q_tx = np.kron(sys.Q_x, sys.Q_t)
    C = np.kron(sys.P_x, sys.Q_t)
    S, F = sys.S.reshape(-1), sys.F.reshape(-1)
    Y = K_tn @ v + np.repeat(sys.phi_prime, m1)
    W = 1.0 + S + Q_tx @ v
    G = np.concatenate([Psi @ v - F + Y * W, C @ v - sys.Rhat])
    J = np.vstack([Psi + W[:, None] * K_tn + Y[:, None] * Q_tx, C])
    return G, J, S + Q_tx @ v


def other_form(g):
    # a constant result becomes the array it broadcasts to and a constant-valued
    # array becomes its constant; a varying array stays as it is
    def h(s):
        y = g(s)
        if np.ndim(y) == 0:
            return np.full(np.shape(s), y)
        return y.flat[0] if np.all(y == y.flat[0]) else y
    return h


class TestGridOrdering:
    def test_kron_matches_matrix_sandwich(self):
        # (A (x) B) vec(G) == vec(A G B^T) in the space-major ordering
        rng = np.random.default_rng(7)
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((4, 4))
        G = rng.standard_normal((3, 4))
        lhs = np.kron(A, B) @ G.reshape(-1)
        rhs = (A @ G @ B.T).reshape(-1)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


class TestProblemSpec:
    def test_alpha_window(self):
        with pytest.raises(ValueError):
            example1(1.5)

    def test_incompatible_corner_rejected(self):
        with pytest.raises(ValueError, match="corner"):
            ProblemSpec(
                alpha=0.5,
                phi=lambda x: 1.0,
                psi1=lambda t: 0.0,
                psi2=lambda t: 1.0,
                f=lambda x, t: x * t,
                exact=lambda x, t: x * t,
            )

    def test_corner_checked_without_exact_solution(self):
        # the check reads only phi and the traces, so a spec with no exact
        # solution is checked too
        with pytest.raises(ValueError, match=r"phi\(0\) != psi1"):
            ProblemSpec(alpha=0.5, phi=lambda x: 1.0, psi1=lambda t: 0.0,
                        psi2=lambda t: 1.0, f=lambda x, t: x * t)

    @pytest.mark.parametrize("phi, psi1, psi2, error", [
        # corners that differ only by rounding, at 3e8: the absolute 1e-10 rejected them
        (lambda x: 3e8 * (0.1 + 0.2 + x), lambda t: 3e8 * 0.3, lambda t: 3e8 * (0.1 + 0.2 + 1.0),
         None),
        (lambda x: np.nan, lambda t: 0.0, lambda t: np.nan, "corner"),  # NaN passed `diff > tol`
        (lambda x: x, lambda t: 0.0, lambda t: 2.0, r"phi\(1\) != psi2"),  # the x = 1 corner
    ], ids=["rounding_at_3e8", "nan_phi", "psi2_mismatch"])
    def test_corner_check_is_relative_and_rejects_nan(self, phi, psi1, psi2, error):
        def spec():
            return ProblemSpec(alpha=0.5, phi=phi, psi1=psi1, psi2=psi2,
                               f=lambda x, t: 0.0, exact=lambda x, t: 0.0)

        if error is None:
            spec()
        else:
            with pytest.raises(ValueError, match=error):
                spec()


# hand-derived forms of the registered problems, the references for the
# separable factory: (f, phi, psi1, psi2, exact). The trig problem's exact
# solution takes sin(pi x) of min(x, 1 - x), so that it vanishes at both ends
HAND_DERIVED = {
    "example1": (example1_source, lambda x: 0.0, lambda t: 0.0, lambda t: 0.0,
                 lambda x, t: x**4 * (x - 1.0) * t**1.5),
    "example2": (example2_source, lambda x: 0.0, lambda t: t**2, lambda t: np.e * t**2,
                 lambda x, t: t**2 * np.exp(x)),
    "manufactured:poly": (poly_source, lambda x: 0.0, lambda t: 0.0, lambda t: 0.0,
                          lambda x, t: x**2 * (1.0 - x) * t**2),
    "manufactured:trig": (trig_source, lambda x: 0.0, lambda t: 0.0, lambda t: 0.0,
                          lambda x, t: np.sin(np.pi * np.minimum(x, 1.0 - x)) * t**3),
}


class TestRegisteredProblems:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("name", sorted(HAND_DERIVED))
    def test_separable_factory_matches_hand_derived_forms(self, name, alpha):
        f, phi, psi1, psi2, exact = HAND_DERIVED[name]
        spec = REGISTRY[name](alpha)
        s = np.linspace(0.0, 1.0, 41)
        x, t = s[:, None], s[None, :]
        ref = f(x, t, alpha)
        assert np.max(np.abs(spec.f(x, t) - ref)) <= 1e-14 * np.max(np.abs(ref))
        np.testing.assert_array_equal(spec.exact(x, t), exact(x, t))
        # traces broadcast over the nodes as `assemble` does
        for got, want in ((spec.phi, phi), (spec.psi1, psi1), (spec.psi2, psi2)):
            np.testing.assert_array_equal(np.full(s.size, got(s)), np.full(s.size, want(s)))

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_separable_factory_sums_its_powers(self, alpha):
        # u = e^x (t + 2 t^2.5): T', D^alpha T and so f are summed term by term
        spec = make_separable_problem(alpha, np.exp, np.exp, np.exp, {1.0: 1.0, 2.5: 2.0})
        s = np.linspace(0.0, 1.0, 41)
        x, t = s[:, None], s[None, :]
        T, dT = t + 2.0 * t**2.5, 1.0 + 5.0 * t**1.5
        caputo = caputo_power_rule(1.0, alpha, t) + 2.0 * caputo_power_rule(2.5, alpha, t)
        ex = np.exp(x)
        ref = ex * caputo - ex * dT + ex * T + ex * ex * T**2
        assert np.max(np.abs(spec.f(x, t) - ref)) <= 1e-14 * np.max(np.abs(ref))
        np.testing.assert_allclose(spec.exact(x, t), ex * T, rtol=1e-15)

    @pytest.mark.parametrize("powers", [{0.0: 1.0}, {-0.5: 1.0}, {2.0: 1.0, 0.0: 3.0}, {np.nan: 1.0}],
                             ids=["zero", "negative", "constant_term", "nan"])
    def test_separable_factory_rejects_nonpositive_powers(self, powers):
        with pytest.raises(ValueError, match="positive"):
            make_separable_problem(0.5, np.exp, np.exp, np.exp, powers)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.75, 1.0])
    def test_trig_boundary_traces_vanish_exactly(self, alpha):
        spec = REGISTRY["manufactured:trig"](alpha)
        t = np.append(build_node_set(0.5, 40).nodes, 1.0)
        assert np.all(spec.psi1(t) == 0.0) and np.all(spec.psi2(t) == 0.0)


class TestAssemble:
    def test_homogeneous_data_vectors(self):
        # example 1 has phi = psi1 = psi2 = 0, so S, phi', Rhat vanish and F is
        # just the collocated source
        spec = example1(0.5)
        sys = make_system(spec, 4, 4)
        np.testing.assert_allclose(sys.S, 0.0, atol=1e-15)
        np.testing.assert_allclose(sys.phi_prime, 0.0, atol=1e-15)
        np.testing.assert_allclose(sys.Rhat, 0.0, atol=1e-15)
        x, t = sys.ns_x.nodes, sys.ns_t.nodes
        np.testing.assert_allclose(sys.F, spec.f(x[:, None], t[None, :]))

    def test_psi_data_enter_s_and_rhat(self):
        spec = example2(0.5)
        sys = make_system(spec, 3, 3)
        t = sys.ns_t.nodes
        # phi = 0, psi1 = t^2: S = t^2 tiled across space rows
        np.testing.assert_allclose(sys.S, np.tile(t**2, (4, 1)), atol=1e-15)
        np.testing.assert_allclose(sys.Rhat, (np.e - 1.0) * t**2, atol=1e-14)

    def test_psi_matrix_hand_indexed(self):
        # n = m = 1: check every entry of Psi = Q_x (x) B - D_x (x) I against the
        # definition index(i,j) = i*(m+1) + j
        spec = example1(0.6)
        ns_x = build_node_set(0.5, 1)
        ns_t = build_node_set(0.5, 1)
        sys = assemble(spec, build_operator_bundle(ns_x, ns_t))
        Qx, Dx, B = sys.Q_x, sys.D_x, sys.rl_frac
        expected = np.empty((4, 4))
        for i in range(2):
            for j in range(2):
                for p in range(2):
                    for q in range(2):
                        expected[i * 2 + j, p * 2 + q] = Qx[i, p] * B[j, q] - Dx[i, p] * (
                            1.0 if j == q else 0.0
                        )
        np.testing.assert_allclose(psi_matrix(sys), expected, atol=1e-14)

    def test_classical_limit_psi(self):
        # alpha = 1 reduces the fractional factor to the identity
        spec = example1(1.0)
        ns_x = build_node_set(0.5, 4)
        ns_t = build_node_set(0.5, 4)
        sys = assemble(spec, build_operator_bundle(ns_x, ns_t))
        expected = np.kron(sys.Q_x - sys.D_x, np.eye(5))
        np.testing.assert_allclose(psi_matrix(sys), expected, atol=1e-13)

    def test_no_field_holds_n_squared_entries(self):
        # operators stay as 1-D factors and data as grids: no array is larger
        # than a grid or a 1-D operator
        n, m = 12, 10
        sys = make_system(example2(0.5), n, m)
        arrays = [getattr(sys, f.name) for f in dataclasses.fields(sys)]
        largest = max(a.size for a in arrays if isinstance(a, np.ndarray))
        assert largest <= max(sys.F.size, (n + 1) ** 2, (m + 1) ** 2)

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    @pytest.mark.parametrize("n, m", [(3, 7), (9, 4)])
    def test_constant_and_array_data_agree(self, name, n, m):
        # phi, psi1 and psi2 may return a constant or an array of the node shape
        spec = REGISTRY[name](0.5)
        other = dataclasses.replace(spec, phi=other_form(spec.phi),
                                    psi1=other_form(spec.psi1), psi2=other_form(spec.psi2))
        a, b = make_system(spec, n, m), make_system(other, n, m)
        for field in ("S", "phi_prime", "F", "Rhat"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field


class TestCaputoTerm:
    """F = f - D_t^alpha psi1 on the grid, with the Caputo derivative that
    `assemble` forms from the problem's alpha."""

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    def test_f_subtracts_exact_caputo_of_psi1(self, alpha):
        # example2: psi1 = t^2, so D_t^alpha psi1 = Gamma(3) / Gamma(3 - alpha) t^(2 - alpha);
        # the degree-2 trace is interpolated exactly on any grid with m >= 2
        spec = example2(alpha)
        sys = make_system(spec, 5, 8)
        x, t = sys.ns_x.nodes, sys.ns_t.nodes
        dpsi1 = math.gamma(3.0) / math.gamma(3.0 - alpha) * t ** (2.0 - alpha)
        expected = spec.f(x[:, None], t[None, :]) - dpsi1[None, :]
        np.testing.assert_allclose(sys.F, expected, rtol=0, atol=1e-12)

    def test_rl_frac_is_the_identity_at_alpha_one(self):
        sys = make_system(example1(1.0), 5, 8)
        assert np.array_equal(sys.rl_frac, np.eye(9))


class TestResidual:
    def test_zero_guess(self):
        sys = make_system(example1(0.5), 4, 4)
        v = np.zeros(sys.F.size)
        G = residual(sys, v)
        # example 1: S = phi' = 0, so N(0) = 0 and the residual is [-F; 0]
        np.testing.assert_allclose(G[: v.size], -sys.F.reshape(-1), atol=1e-15)
        np.testing.assert_allclose(G[v.size :], 0.0, atol=1e-15)

    def test_linear_path_is_affine(self):
        sys = without_nonlinear_term(make_system(example2(0.5), 3, 3))
        rng = np.random.default_rng(3)
        v1 = rng.standard_normal(sys.F.size)
        v2 = rng.standard_normal(sys.F.size)
        r0 = residual(sys, np.zeros_like(v1))
        r1 = residual(sys, v1)
        r2 = residual(sys, v2)
        r12 = residual(sys, v1 + v2)
        np.testing.assert_allclose(r12, r1 + r2 - r0, atol=1e-10)

    def test_exact_field_near_root(self):
        # for u = t^2 e^x the transform field is v = u_xt = 2 t e^x; at n = m = 16
        # the collocation residual there is at roundoff level
        spec = example2(0.5)
        sys = make_system(spec, 16, 16)
        x, t = sys.ns_x.nodes, sys.ns_t.nodes
        v = (2.0 * t[None, :] * np.exp(x[:, None])).reshape(-1)
        G = residual(sys, v)
        assert np.max(np.abs(G[: v.size])) < 1e-9
        assert np.max(np.abs(G[v.size :])) < 1e-12


class TestJacobian:
    @pytest.mark.parametrize("nl", [True, False])
    def test_against_finite_differences(self, nl):
        sys = make_system(example2(0.5), 3, 3)
        if not nl:
            sys = without_nonlinear_term(sys)
        rng = np.random.default_rng(11)
        v = 0.3 * rng.standard_normal(sys.F.size)
        J = jacobian(sys, v)
        h = 1e-7
        fd = np.empty_like(J)
        for c in range(v.size):
            vp, vm = v.copy(), v.copy()
            vp[c] += h
            vm[c] -= h
            fd[:, c] = (residual(sys, vp) - residual(sys, vm)) / (2.0 * h)
        scale = max(1.0, np.max(np.abs(J)))
        assert np.max(np.abs(J - fd)) / scale < 1e-6

    @pytest.mark.parametrize("n, m", [(3, 7), (9, 4), (8, 8)])
    def test_equals_the_entry_formula_bit_for_bit(self, n, m):
        # the docstring's entry formula with its two Kronecker deltas as
        # identity factors (x * 1 and x * 0 are exact): a swapped axis in
        # either structured update would show on a rectangular grid
        sys = make_system(example2(0.5), n, m)
        v = 0.3 * np.random.default_rng(5).standard_normal(sys.F.size)
        Qx, Dx, Qt, R = sys.Q_x, sys.D_x, sys.Q_t, sys.rl_frac
        VQt = v.reshape(n + 1, m + 1) @ Qt.T
        Y = VQt + sys.phi_prime[:, None]
        W = 1.0 + sys.S + Qx @ VQt
        # T[i, j, p, q] = J[(i, j), (p, q)]
        T = Qx[:, None, :, None] * (R[None, :, None, :] + Y[:, :, None, None] * Qt[None, :, None, :])
        T = T - Dx[:, None, :, None] * np.eye(m + 1)[None, :, None, :]
        T = T + (W[:, :, None, None] * Qt[None, :, None, :]) * np.eye(n + 1)[:, None, :, None]
        N = sys.F.size
        assert np.array_equal(jacobian(sys, v)[:N], T.reshape(N, N))

    @staticmethod
    def four_d_fill(sys, v):
        """The Jacobian with its Q_x (x) (rl_frac + Y Q_t) block filled by one
        4-D broadcast product over [p, q, i, j], the other terms as `jacobian`
        adds them."""
        n1, m1 = sys.ns_x.n + 1, sys.ns_t.n + 1
        N = n1 * m1
        VQt = v.reshape(n1, m1) @ sys.Q_t.T
        Y = VQt + sys.phi_prime[:, None]
        W = 1.0 + sys.S + sys.Q_x @ VQt
        out_t = np.empty((N, N + m1))
        T4 = out_t[:, :N].reshape(n1, m1, n1, m1)
        A = sys.rl_frac.T[:, None, :] + Y[None, :, :] * sys.Q_t.T[:, None, :]
        np.multiply(sys.Q_x.T[:, None, :, None], A[None], out=T4)
        np.einsum("pqiq->pqi", T4)[...] -= sys.D_x.T[:, None, :]
        np.einsum("pqpj->pqj", T4)[...] += W[:, None, :] * sys.Q_t.T[None]
        out_t[:, N:] = (sys.P_x.T[:, :, None] * sys.Q_t.T).reshape(N, m1)
        return out_t.T

    @pytest.mark.parametrize("n, m", [(1, 1), (4, 4), (12, 12), (3, 7), (9, 2)])
    def test_row_products_equal_the_four_d_fill_bit_for_bit(self, n, m):
        # each row (p, q) of the block is one product of length N; the same
        # entries the 4-D broadcast forms, in the same two multiplications
        sys = make_system(example1(0.3), n, m)
        v = 0.3 * np.random.default_rng(7).standard_normal(sys.F.size)
        assert np.array_equal(jacobian(sys, v), self.four_d_fill(sys, v))

    def test_shape_and_constraint_rows(self):
        n, m = 3, 4
        sys = make_system(example2(0.5), n, m)
        N = sys.F.size
        J = jacobian(sys, 0.3 * np.random.default_rng(2).standard_normal(N))
        assert J.shape == (N + m + 1, N)
        assert J.flags.f_contiguous  # so LAPACK factors it in place
        # the constraint rows are the products the dense C = P_x (x) Q_t holds
        assert np.array_equal(J[N:], np.kron(sys.P_x, sys.Q_t))

    def test_peak_memory_no_n_squared_temporary(self):
        # the Jacobian is written from the factors into one (N+m+1) x N array;
        # the temporaries are O(N (n+m))
        sys = make_system(example2(0.5), 16, 16)
        v = np.zeros(sys.F.size)
        tracemalloc.start()
        try:
            J = jacobian(sys, v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * J.nbytes


class TestRoundingScale:
    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    @pytest.mark.parametrize("n, m", [(3, 7), (9, 4)])
    def test_psi_norm_matches_dense_operator(self, alpha, n, m):
        # the Kronecker norm identity bounds ||Psi||_inf from above, within 10%
        sys_nm = make_system(example2(alpha), n, m)
        Psi = np.kron(sys_nm.Q_x, sys_nm.rl_frac) - np.kron(sys_nm.D_x, np.eye(m + 1))
        dense = np.abs(Psi).sum(axis=1).max()
        psi_norm, f_norm = rounding_scale(sys_nm)
        assert dense <= psi_norm <= 1.1 * dense
        assert f_norm == np.max(np.abs(sys_nm.F))


GRIDS = [(3, 7), (9, 4)]


class TestFactoredOperators:
    # non-square grids, so that an n/m mix-up in a reshape cannot pass
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    @pytest.mark.parametrize("n, m", GRIDS)
    def test_match_dense_kronecker_products(self, name, n, m):
        sys = make_system(REGISTRY[name](0.5), n, m)
        N = sys.F.size
        rng = np.random.default_rng(n * 10 + m)
        v, p = rng.standard_normal(N), rng.standard_normal(N)
        q = rng.standard_normal(N + m + 1)
        G, J, u = dense_reference(sys, v)

        def rel(a, b):
            return np.linalg.norm(a - b) / np.linalg.norm(b)

        assert rel(residual(sys, v), G) <= 1e-12
        assert rel(jacobian(sys, v), J) <= 1e-12
        assert rel(reconstruct(sys, v), u) <= 1e-12
        assert rel(jvp(sys, v, p), J @ p) <= 1e-12
        assert rel(vjp(sys, v, q), J.T @ q) <= 1e-12

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    @pytest.mark.parametrize("n, m", GRIDS)
    def test_adjoint_identity(self, name, n, m):
        sys = make_system(REGISTRY[name](0.5), n, m)
        N = sys.F.size
        rng = np.random.default_rng(n + 10 * m)
        v, p = rng.standard_normal(N), rng.standard_normal(N)
        q = rng.standard_normal(N + m + 1)
        Jp, JTq = jvp(sys, v, p), vjp(sys, v, q)
        lhs, rhs = float(Jp @ q), float(p @ JTq)
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(Jp) * np.linalg.norm(q)


class TestReconstruct:
    def test_zero_field_gives_background(self):
        sys = make_system(example2(0.5), 3, 3)
        np.testing.assert_array_equal(reconstruct(sys, np.zeros(sys.F.size)), sys.S.reshape(-1))

    def test_exact_field_reconstructs_solution(self):
        spec = example2(0.5)
        sys = make_system(spec, 12, 12)
        x, t = sys.ns_x.nodes, sys.ns_t.nodes
        v = (2.0 * t[None, :] * np.exp(x[:, None])).reshape(-1)
        u = reconstruct(sys, v)
        exact = spec.exact(x[:, None], t[None, :]).reshape(-1)
        np.testing.assert_allclose(u, exact, atol=1e-12)


class TestEvaluateOnMesh:
    def test_collocation_points_exact(self):
        sys = make_system(example2(0.5), 5, 5)
        rng = np.random.default_rng(2)
        u = rng.standard_normal(36)
        U = evaluate_on_mesh(u, sys.ns_x, sys.ns_t, sys.ns_x.nodes, sys.ns_t.nodes)
        assert np.array_equal(U.reshape(-1), u)

    def test_constant_field(self):
        sys = make_system(example1(0.5), 4, 4)
        u = np.full(25, 2.5)
        U = evaluate_on_mesh(u, sys.ns_x, sys.ns_t, np.linspace(0, 1, 7), np.array([1.0]))
        np.testing.assert_allclose(U, 2.5, atol=1e-12)

    def test_out_of_domain_rejected(self):
        sys = make_system(example1(0.5), 2, 2)
        with pytest.raises(ValueError, match="outside"):
            evaluate_on_mesh(np.zeros(9), sys.ns_x, sys.ns_t, np.array([1.1]), np.array([0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", ["xs", "ts"])
    def test_non_finite_rejected(self, bad, axis):
        sys = make_system(example1(0.5), 2, 2)
        pts = {"xs": np.array([0.5]), "ts": np.array([0.5])}
        pts[axis] = np.array([0.25, bad])
        with pytest.raises(ValueError, match=f"{axis} contains points outside"):
            evaluate_on_mesh(np.zeros(9), sys.ns_x, sys.ns_t, pts["xs"], pts["ts"])


class TestComputeAae:
    def test_known_value(self):
        assert compute_aae(np.array([1.0, 2.0]), np.array([0.0, 4.0])) == pytest.approx(1.5)

    def test_identical_arrays(self):
        a = np.linspace(0, 1, 5)
        assert compute_aae(a, a) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_aae(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            compute_aae(np.zeros(3), np.zeros(4))


class TestManufacturedResidualExactness:
    def test_polynomial_exact_field_is_a_root_at_every_size(self):
        # u = x^2 (1-x) t^2 gives v = u_xt = (2x - 3x^2) * 2t; low polynomial
        # degree, so collocation is exact and the residual sits at roundoff
        spec = manufactured_poly(0.5)
        for s in (4, 8, 12, 16):
            sys = make_system(spec, s, s)
            x, t = sys.ns_x.nodes, sys.ns_t.nodes
            v = ((2.0 * x - 3.0 * x**2)[:, None] * 2.0 * t[None, :]).reshape(-1)
            G = residual(sys, v)
            assert np.max(np.abs(G)) < 1e-10
