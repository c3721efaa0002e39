import dataclasses
import tracemalloc

import numpy as np
import pytest

import fbbmb.solver

from fbbmb.assembly import assemble, jacobian, residual, vjp
from fbbmb.basis import BasisParams, build_node_set
from fbbmb.opmatrices import build_operator_bundle
from fbbmb.problems import example1, example2
from fbbmb.solver import SolverConfig, newton_step, solve


def make_system(spec, n, m):
    ns_x = build_node_set(BasisParams(0.5, n))
    ns_t = build_node_set(BasisParams(0.5, m))
    ops = build_operator_bundle(ns_x, ns_t, spec.alpha)
    return assemble(spec, ops)


@pytest.fixture(scope="module")
def sys_ex1():
    return make_system(example1(0.5), 4, 4)


@pytest.fixture(scope="module")
def sys_ex2():
    return make_system(example2(0.5), 5, 5)


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.method == "newton"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol_residual": 0.0},
            {"tol_residual": -1e-3},
            {"max_iters": 0},
            {"method": "bfgs"},
            {"tol_residual": float("nan")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_only_the_user_settings_are_fields(self):
        # the step-size, trust-radius and acceptance thresholds are module
        # constants, not settings
        names = [f.name for f in dataclasses.fields(SolverConfig)]
        assert names == ["tol_residual", "max_iters", "method"]
        with pytest.raises(TypeError):
            SolverConfig(tol_step=1.0)


class TestLeastSquaresStep:
    def test_matches_svd_least_squares(self):
        sys8 = make_system(example2(0.5), 8, 8)
        v = np.zeros(sys8.F.size)
        G = residual(sys8, v)
        warns = []
        step = newton_step(sys8, v, G, warns, 0)
        oracle, *_ = np.linalg.lstsq(jacobian(sys8, v), -G, rcond=None)
        assert np.linalg.norm(step - oracle) <= 1e-8 * np.linalg.norm(oracle)
        assert warns == []

    def test_rank_deficient_gives_minimum_norm_step_and_warns(self, sys_ex1, monkeypatch):
        N = sys_ex1.F.size
        rng = np.random.default_rng(5)
        A = rng.standard_normal((N + 5, 20)) @ rng.standard_normal((20, N))
        b = rng.standard_normal(N + 5)
        # a fresh Fortran-ordered copy per call, as jacobian returns, so the
        # LU overwrites it and the handler must build its own
        monkeypatch.setattr(fbbmb.solver, "jacobian", lambda sys, v: np.array(A, order="F"))
        warns = []
        step = newton_step(sys_ex1, np.zeros(N), -b, warns, 3)
        np.testing.assert_allclose(step, np.linalg.pinv(A) @ b, rtol=1e-10, atol=1e-12)
        assert warns == [f"iteration 3: Jacobian rank 20 < {N}"]


class TestRectangularLuStep:
    @pytest.mark.parametrize("factory", [example1, example2])
    @pytest.mark.parametrize("n", [8, 16])
    def test_matches_svd_least_squares(self, factory, n, monkeypatch):
        def no_fallback(*args, **kwargs):
            raise AssertionError("the pivoted-QR handler ran on a full-rank Jacobian")

        monkeypatch.setattr(fbbmb.solver, "lstsq", no_fallback)
        sys_n = make_system(factory(0.5), n, n)
        v = np.zeros(sys_n.F.size)
        G = residual(sys_n, v)
        step = newton_step(sys_n, v, G, [], 0)
        oracle, *_ = np.linalg.lstsq(jacobian(sys_n, v), -G, rcond=None)
        assert np.linalg.norm(step - oracle) <= 1e-10 * np.linalg.norm(oracle)

    def test_fallback_factors_a_fresh_jacobian(self, monkeypatch):
        # the LU overwrites the Jacobian it factors, so when the condition
        # test rejects the LU the handler must get a newly built one
        sys8 = make_system(example2(0.5), 8, 8)
        monkeypatch.setattr(fbbmb.solver, "_trcon", lambda *args, **kwargs: (0.0, 0))
        v = 0.1 * np.ones(sys8.F.size)
        G = residual(sys8, v)
        warns = []
        step = newton_step(sys8, v, G, warns, 0)
        oracle, *_ = np.linalg.lstsq(jacobian(sys8, v), -G, rcond=None)
        assert np.linalg.norm(step - oracle) <= 1e-10 * np.linalg.norm(oracle)
        assert warns == []


class TestFloorScale:
    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    @pytest.mark.parametrize("n, m", [(3, 7), (9, 4)])
    def test_psi_norm_matches_dense_operator(self, alpha, n, m):
        # the Kronecker norm identity bounds ||Psi||_inf from above, within 10%
        sys_nm = make_system(example2(alpha), n, m)
        Psi = np.kron(sys_nm.Q_x, sys_nm.rl_frac) - np.kron(sys_nm.D_x, np.eye(m + 1))
        dense = np.abs(Psi).sum(axis=1).max()
        psi_norm, f_norm = fbbmb.solver._floor_scale(sys_nm)
        assert dense <= psi_norm <= 1.1 * dense
        assert f_norm == np.max(np.abs(sys_nm.F))


class TestStopReasons:
    @pytest.mark.parametrize("method", ["newton", "trust_region"])
    def test_example2_stops_converged_at_rounding_floor(self, method):
        # G does not vanish at the least-squares minimiser, so only the floor
        # can end this solve converged
        sys6 = make_system(example2(0.5), 6, 6)
        rep = solve(sys6, SolverConfig(method=method, max_iters=300))
        assert rep.converged
        assert rep.stop_reason == "floor"

    def test_example2_n32_converges_in_few_iterations(self):
        sys32 = make_system(example2(0.5), 32, 32)
        rep = solve(sys32, SolverConfig())
        assert rep.converged
        assert rep.iterations <= 5
        exact = example2(0.5).exact(sys32.ns_x.nodes[:, None], sys32.ns_t.nodes[None, :])
        assert np.mean(np.abs(rep.u - exact.reshape(-1))) <= 1e-14

    @pytest.mark.parametrize("method", ["newton", "trust_region"])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("n", [12, 16, 24])
    def test_example2_converges_to_roundoff(self, n, alpha, method):
        # a converged verdict one step short of roundoff would read 2-3e-15
        spec = example2(alpha)
        sys_n = make_system(spec, n, n)
        rep = solve(sys_n, SolverConfig(method=method))
        exact = spec.exact(sys_n.ns_x.nodes[:, None], sys_n.ns_t.nodes[None, :])
        assert rep.converged
        assert np.mean(np.abs(rep.u - exact.reshape(-1))) <= 1e-15

    def test_exhausted_line_search_rejects_trial_point(self, sys_ex2, monkeypatch):
        def uphill(sys, v, G, warns, k):
            return -newton_step(sys, v, G, warns, k)

        monkeypatch.setattr(fbbmb.solver, "newton_step", uphill)
        v0 = np.zeros(sys_ex2.F.size)
        rep = solve(sys_ex2, SolverConfig())
        assert rep.stop_reason == "stagnation"
        assert not rep.converged
        assert rep.iterations == 0
        np.testing.assert_array_equal(rep.v, v0)

    # the module thresholds raised to reach the "step" and "radius_underflow" exits
    EXIT_THRESHOLDS = {"step": {"TOL_STEP": 1e3}, "radius_underflow": {"MIN_TRUST_RADIUS": 2.0}}

    @pytest.mark.parametrize(
        "cfg, reason, converged",
        [
            (SolverConfig(tol_residual=1e-3), "residual", True),
            (SolverConfig(), "floor", True),
            (SolverConfig(max_iters=1, tol_residual=1e-15), "max_iters", False),
            (SolverConfig(tol_residual=1e-15), "step", False),
            (SolverConfig(method="trust_region"), "radius_underflow", False),
        ],
    )
    def test_every_exit_names_its_reason(self, sys_ex1, monkeypatch, cfg, reason, converged):
        for name, value in self.EXIT_THRESHOLDS.get(reason, {}).items():
            monkeypatch.setattr(fbbmb.solver, name, value)
        rep = solve(sys_ex1, cfg)
        assert rep.stop_reason == reason
        assert rep.converged == converged


class TestDoglegRadius:
    # the first radius is the first Gauss-Newton step's length, so the dogleg
    # tries full Gauss-Newton steps as Newton does
    @pytest.mark.parametrize("factory", [example1, example2])
    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_iterations_match_newton(self, factory, n):
        sys_n = make_system(factory(0.5), n, n)
        rn = solve(sys_n, SolverConfig())
        rt = solve(sys_n, SolverConfig(method="trust_region"))
        assert rn.converged and rt.converged
        assert abs(rt.iterations - rn.iterations) <= 1

    def test_non_finite_first_step_starts_from_cauchy_radius(self, sys_ex2, monkeypatch):
        calls = []

        def nan_first(sys, v, G, warns, k):
            calls.append(k)
            step = newton_step(sys, v, G, warns, k)
            return np.full_like(step, np.nan) if len(calls) == 1 else step

        base = solve(sys_ex2, SolverConfig(method="trust_region"))
        monkeypatch.setattr(fbbmb.solver, "newton_step", nan_first)
        rep = solve(sys_ex2, SolverConfig(method="trust_region"))
        assert rep.converged
        np.testing.assert_allclose(rep.v, base.v, atol=1e-12)


class TestEvaluationCounts:
    # the Jacobian is built only for the linear step; convergence tests, the
    # dogleg and the report use matrix-free products
    @pytest.mark.parametrize("method", ["newton", "trust_region"])
    def test_one_jacobian_per_newton_step(self, sys_ex2, monkeypatch, method):
        jac_calls, step_calls = [], []

        def counted_jacobian(*args):
            jac_calls.append(1)
            return jacobian(*args)

        def counted_step(*args):
            step_calls.append(1)
            return newton_step(*args)

        monkeypatch.setattr(fbbmb.solver, "jacobian", counted_jacobian)
        monkeypatch.setattr(fbbmb.solver, "newton_step", counted_step)
        rep = solve(sys_ex2, SolverConfig(method=method))
        assert rep.converged
        assert len(step_calls) >= 1
        assert len(jac_calls) == len(step_calls)


class TestMemory:
    def test_assemble_and_newton_solve_peak_below_two_and_a_half_n_squared(self):
        # the system holds no N x N array, and the LU buffer, (N+m+1) x N, and
        # the copy of its N x N top block are the only O(N^2) arrays a solve
        # holds at once
        spec = example2(0.5)
        ns = build_node_set(BasisParams(0.5, 20))
        ops = build_operator_bundle(ns, ns, spec.alpha)
        N = 21 * 21
        tracemalloc.start()
        try:
            rep = solve(assemble(spec, ops), SolverConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.converged
        assert peak <= 2.5 * 8 * N * N


class TestAffinePath:
    # example1 has phi' = 0, so with Q_t zeroed Y(v) = 0, the nonlinear term
    # drops out and the residual is affine: Gauss-Newton lands on the
    # least-squares minimiser in one step
    @pytest.fixture
    def sys_affine(self, sys_ex1):
        return dataclasses.replace(sys_ex1, Q_t=np.zeros_like(sys_ex1.Q_t))

    def test_newton_one_iteration(self, sys_affine):
        # the first step already reaches the minimiser; the floor stop may
        # then take one more step of roundoff size, depending on the rounding
        v0 = np.zeros(sys_affine.F.size)
        for cfg in (SolverConfig(max_iters=1), SolverConfig()):
            rep = solve(sys_affine, cfg, v0)
            G = residual(sys_affine, rep.v)
            assert np.max(np.abs(vjp(sys_affine, rep.v, G))) <= 1e-9
        assert rep.converged
        assert rep.iterations <= 1 or (rep.iterations == 2 and rep.stop_reason == "floor")

    def test_trust_region_reaches_same_root(self, sys_affine):
        cfg_n = SolverConfig()
        cfg_t = SolverConfig(method="trust_region", max_iters=200)
        rn = solve(sys_affine, cfg_n, np.zeros(sys_affine.F.size))
        rt = solve(sys_affine, cfg_t, np.zeros(sys_affine.F.size))
        assert rt.converged
        np.testing.assert_allclose(rt.v, rn.v, atol=1e-9)


class TestLeastSquaresFormulation:
    def test_newton_reaches_first_order_optimality(self, sys_ex2):
        cfg = SolverConfig()
        rep = solve(sys_ex2, cfg)
        assert rep.converged
        G = residual(sys_ex2, rep.v)
        J = jacobian(sys_ex2, rep.v)
        assert np.max(np.abs(J.T @ G)) <= 1e-9

    def test_adversarial_start_trust_region(self, sys_ex1):
        cfg = SolverConfig(method="trust_region", max_iters=500)
        v0 = np.full(sys_ex1.F.size, 1.0e3)
        rep = solve(sys_ex1, cfg, v0)
        assert rep.converged
        base = solve(sys_ex1, SolverConfig())
        np.testing.assert_allclose(rep.v, base.v, atol=1e-6)

    def test_adversarial_start_newton(self, sys_ex1):
        v0 = np.full(sys_ex1.F.size, 1.0e3)
        rep = solve(sys_ex1, SolverConfig(), v0)
        assert rep.converged
        base = solve(sys_ex1, SolverConfig())
        np.testing.assert_allclose(rep.v, base.v, atol=1e-6)

    def test_methods_agree_at_tight_optimality(self, sys_ex1):
        cfg_n = SolverConfig()
        cfg_t = SolverConfig(method="trust_region", max_iters=300)
        rn = solve(sys_ex1, cfg_n)
        rt = solve(sys_ex1, cfg_t)
        assert rn.converged and rt.converged
        np.testing.assert_allclose(rn.v, rt.v, atol=1e-9)


class TestDeterminism:
    def test_repeat_solve_bit_identical(self, sys_ex2):
        cfg = SolverConfig()
        a = solve(sys_ex2, cfg)
        b = solve(sys_ex2, cfg)
        np.testing.assert_array_equal(a.v, b.v)
        assert a.iterations == b.iterations
        assert a.final_residual == b.final_residual


class TestReportContract:
    def test_wall_time_and_warning_types(self, sys_ex1):
        rep = solve(sys_ex1, SolverConfig())
        assert rep.wall_time >= 0.0
        assert isinstance(rep.warnings, tuple)

    def test_iteration_cap_reports_nonconverged(self, sys_ex2):
        rep = solve(sys_ex2, SolverConfig(max_iters=1, tol_residual=1e-15))
        assert not rep.converged
