import numpy as np
import pytest

import fbbmb.solver

from fbbmb.assembly import GridOrdering, assemble, jacobian, residual
from fbbmb.basis import BasisParams, build_node_set
from fbbmb.opmatrices import build_operator_bundle
from fbbmb.problems import example1, example2
from fbbmb.solver import (
    SingularSystemError,
    SolverConfig,
    _LeastSquaresProblem,
    kkt_linear_solve,
    newton_solve,
    solve,
    trust_region_solve,
)


def make_system(spec, n, m):
    ns_x = build_node_set(BasisParams(0.5, n))
    ns_t = build_node_set(BasisParams(0.5, m))
    ops = build_operator_bundle(ns_x, ns_t, spec.alpha)
    return assemble(spec, ops, GridOrdering(n, m))


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
        assert cfg.formulation == "least_squares"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol_residual": 0.0},
            {"tol_step": -1e-3},
            {"max_iters": 100, "eta_accept": 1.5},
            {"method": "bfgs"},
            {"formulation": "penalty"},
            {"initial_trust_radius": -1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestKktLinearSolve:
    def test_identity(self):
        rhs = np.array([1.0, -2.0, 3.0])
        step, cond = kkt_linear_solve(np.eye(3), rhs)
        np.testing.assert_allclose(step, rhs)
        assert cond == pytest.approx(1.0, rel=1e-12)

    def test_diagonal_condition_estimate(self):
        step, cond = kkt_linear_solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(step, [1.0, 1.0])
        assert cond == pytest.approx(2.0, rel=1e-10)

    def test_random_recovery(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((50, 50)) + 10.0 * np.eye(50)
        x = rng.standard_normal(50)
        step, cond = kkt_linear_solve(A, A @ x)
        np.testing.assert_allclose(step, x, atol=1e-10)
        assert np.isfinite(cond)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_matrix(self):
        with pytest.raises(SingularSystemError):
            kkt_linear_solve(np.zeros((3, 3)), np.ones(3))


class TestLeastSquaresStep:
    def test_matches_svd_least_squares(self):
        sys8 = make_system(example2(0.5), 8, 8)
        prob = _LeastSquaresProblem(sys8, np.zeros(9), include_nonlinear=True)
        v = np.zeros(sys8.ordering.size)
        J, G = prob.jacobian(v), prob.residual(v)
        warns = []
        step = prob.newton_step(J, G, warns, 0)
        oracle, *_ = np.linalg.lstsq(J, -G, rcond=None)
        assert np.linalg.norm(step - oracle) <= 1e-8 * np.linalg.norm(oracle)
        assert warns == []

    def test_rank_deficient_gives_minimum_norm_step_and_warns(self, sys_ex1):
        N = sys_ex1.ordering.size
        rng = np.random.default_rng(5)
        A = rng.standard_normal((N + 5, 20)) @ rng.standard_normal((20, N))
        b = rng.standard_normal(N + 5)
        prob = _LeastSquaresProblem(sys_ex1, np.zeros(5), include_nonlinear=True)
        warns = []
        step = prob.newton_step(A, -b, warns, 3)
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
        prob = _LeastSquaresProblem(sys_n, np.zeros(n + 1), include_nonlinear=True)
        v = np.zeros(sys_n.ordering.size)
        J, G = prob.jacobian(v), prob.residual(v)
        step = prob.newton_step(J, G, [], 0)
        oracle, *_ = np.linalg.lstsq(J, -G, rcond=None)
        assert np.linalg.norm(step - oracle) <= 1e-10 * np.linalg.norm(oracle)


class TestStopReasons:
    @pytest.mark.parametrize("method", ["newton", "trust_region"])
    def test_example2_stops_converged_at_rounding_floor(self, method):
        # ||J^T G|| cannot reach tol_opt here: G does not vanish at the
        # least-squares minimiser, and J^T G bottoms out at roundoff
        sys6 = make_system(example2(0.5), 6, 6)
        rep = solve(sys6, SolverConfig(tol_opt=1e-11, method=method, max_iters=300))
        assert rep.converged
        assert rep.stop_reason == "floor"

    def test_example2_n32_converges_in_few_iterations(self):
        sys32 = make_system(example2(0.5), 32, 32)
        rep = solve(sys32, SolverConfig())
        assert rep.converged
        assert rep.iterations <= 5
        exact = example2(0.5).exact(sys32.ns_x.nodes[:, None], sys32.ns_t.nodes[None, :])
        assert np.mean(np.abs(rep.solution.u - exact.reshape(-1))) <= 1e-14

    def test_exhausted_line_search_rejects_trial_point(self, sys_ex2, monkeypatch):
        ascent = _LeastSquaresProblem.newton_step

        def uphill(self, J, G, warns, k):
            return -ascent(self, J, G, warns, k)

        monkeypatch.setattr(_LeastSquaresProblem, "newton_step", uphill)
        v0 = np.zeros(sys_ex2.ordering.size)
        rep = solve(sys_ex2, SolverConfig())
        assert rep.stop_reason == "stagnation"
        assert not rep.converged
        assert rep.iterations == 0
        np.testing.assert_array_equal(rep.solution.v, v0)

    @pytest.mark.parametrize(
        "cfg, reason, converged",
        [
            (SolverConfig(formulation="kkt"), "residual", True),
            (SolverConfig(), "optimality", True),
            (SolverConfig(max_iters=1, tol_opt=1e-15, tol_residual=1e-15), "max_iters", False),
            (SolverConfig(tol_step=1e3, tol_opt=1e-15, tol_residual=1e-15), "step", False),
            (SolverConfig(method="trust_region", min_trust_radius=2.0), "radius_underflow", False),
        ],
    )
    def test_every_exit_names_its_reason(self, sys_ex1, cfg, reason, converged):
        rep = solve(sys_ex1, cfg)
        assert rep.stop_reason == reason
        assert rep.converged == converged


class TestEvaluationCounts:
    # the report reuses the residual and Jacobian the loop already holds
    @pytest.mark.parametrize("method", ["newton", "trust_region"])
    def test_one_jacobian_per_iteration_plus_initial(self, sys_ex2, monkeypatch, method):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return jacobian(*args, **kwargs)

        monkeypatch.setattr(fbbmb.solver, "jacobian", counted)
        rep = solve(sys_ex2, SolverConfig(method=method))
        assert rep.converged
        assert len(calls) == rep.iterations + 1


class TestAffinePath:
    # with the nonlinear term suppressed the kkt residual is affine, so Newton
    # lands on the root in one step
    def test_newton_one_iteration(self, sys_ex1):
        cfg = SolverConfig(formulation="kkt")
        rep = newton_solve(
            sys_ex1, np.zeros(sys_ex1.ordering.size), np.zeros(5), cfg, include_nonlinear=False
        )
        assert rep.converged
        assert rep.iterations <= 1
        assert rep.final_residual <= cfg.tol_residual

    def test_trust_region_reaches_same_root(self, sys_ex1):
        cfg_n = SolverConfig(formulation="kkt")
        cfg_t = SolverConfig(formulation="kkt", method="trust_region", max_iters=200)
        rn = newton_solve(
            sys_ex1, np.zeros(sys_ex1.ordering.size), np.zeros(5), cfg_n, include_nonlinear=False
        )
        rt = trust_region_solve(
            sys_ex1, np.zeros(sys_ex1.ordering.size), np.zeros(5), cfg_t, include_nonlinear=False
        )
        assert rt.converged
        np.testing.assert_allclose(rt.solution.v, rn.solution.v, atol=1e-9)


class TestKktFormulation:
    def test_newton_from_zero(self, sys_ex1):
        cfg = SolverConfig(formulation="kkt")
        rep = solve(sys_ex1, cfg)
        assert rep.converged
        assert rep.iterations <= 20
        G = residual(sys_ex1, rep.solution.v, rep.solution.mu)
        assert np.max(np.abs(G)) < 1e-12
        # solver invariants at convergence
        assert rep.solution.residual_norm <= cfg.tol_residual
        assert rep.solution.constraint_norm <= cfg.tol_residual

    def test_restart_at_solution_is_immediate(self, sys_ex1):
        cfg = SolverConfig(formulation="kkt")
        rep = solve(sys_ex1, cfg)
        rep2 = solve(sys_ex1, cfg, v0=rep.solution.v, mu0=rep.solution.mu)
        assert rep2.converged
        assert rep2.iterations <= 1

    def test_converged_implies_tolerance(self, sys_ex2):
        cfg = SolverConfig(formulation="kkt", tol_residual=1e-10)
        rep = solve(sys_ex2, cfg)
        assert rep.converged
        assert rep.final_residual <= cfg.tol_residual


class TestLeastSquaresFormulation:
    def test_newton_reaches_first_order_optimality(self, sys_ex2):
        cfg = SolverConfig()
        rep = solve(sys_ex2, cfg)
        assert rep.converged
        G = residual(sys_ex2, rep.solution.v, rep.solution.mu)
        J_v = jacobian(sys_ex2, rep.solution.v)[:, : sys_ex2.ordering.size]
        assert np.max(np.abs(J_v.T @ G)) <= cfg.tol_opt

    def test_multiplier_stays_at_initial_value(self, sys_ex2):
        rep = solve(sys_ex2, SolverConfig())
        np.testing.assert_array_equal(rep.solution.mu, 0.0)

    def test_adversarial_start_trust_region(self, sys_ex1):
        cfg = SolverConfig(method="trust_region", max_iters=500, tol_opt=1e-9)
        v0 = np.full(sys_ex1.ordering.size, 1.0e3)
        rep = trust_region_solve(sys_ex1, v0, np.zeros(5), cfg)
        assert rep.converged
        base = solve(sys_ex1, SolverConfig(tol_opt=1e-12))
        np.testing.assert_allclose(rep.solution.v, base.solution.v, atol=1e-6)

    def test_methods_agree_at_tight_optimality(self, sys_ex1):
        cfg_n = SolverConfig(tol_opt=1e-12)
        cfg_t = SolverConfig(method="trust_region", tol_opt=1e-12, max_iters=300)
        rn = solve(sys_ex1, cfg_n)
        rt = solve(sys_ex1, cfg_t)
        assert rn.converged and rt.converged
        np.testing.assert_allclose(rn.solution.v, rt.solution.v, atol=1e-9)


class TestDeterminism:
    def test_repeat_solve_bit_identical(self, sys_ex2):
        cfg = SolverConfig()
        a = solve(sys_ex2, cfg)
        b = solve(sys_ex2, cfg)
        np.testing.assert_array_equal(a.solution.v, b.solution.v)
        assert a.iterations == b.iterations
        assert a.final_residual == b.final_residual


class TestReportContract:
    def test_wall_time_and_warning_types(self, sys_ex1):
        rep = solve(sys_ex1, SolverConfig())
        assert rep.wall_time >= 0.0
        assert isinstance(rep.warnings, tuple)

    def test_iteration_cap_reports_nonconverged(self, sys_ex2):
        rep = solve(sys_ex2, SolverConfig(max_iters=1, tol_opt=1e-15, tol_residual=1e-15))
        assert not rep.converged
