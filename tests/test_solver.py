import dataclasses
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs

import fbbmb.solver

from fbbmb.assembly import assemble, jacobian, jvp, residual, vjp
from fbbmb.basis import build_node_set
from fbbmb.cli import RunConfig, run
from fbbmb.opmatrices import build_operator_bundle
from fbbmb.problems import REGISTRY, example1, example2, make_separable_problem
from fbbmb.solver import SolverConfig, newton_step, solve

# the routines the solver calls, so the in-place contracts below are checked
# on them
getrf, trtrs = fbbmb.solver._getrf, fbbmb.solver._trtrs


def zero_pivot_getrf(a, overwrite_a):
    """getrf whose info reports an exact zero pivot."""
    lu, piv, _ = getrf(a, overwrite_a=overwrite_a)
    return lu, piv, 1


def make_system(spec, n, m):
    ns_x = build_node_set(0.5, n)
    ns_t = build_node_set(0.5, m)
    ops = build_operator_bundle(ns_x, ns_t)
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
        [  # the row order fixes the test ids: append new rows at the end
            {"max_iters": -1},
            {"method": "Newton"},
            {"max_iters": 0},
            {"method": "bfgs"},
            {"max_iters": 0.5},
            {"method": ""},
            {"max_iters": 2.5},
            {"max_iters": float("nan")},
            {"max_iters": float("inf")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_only_the_user_settings_are_fields(self):
        # the trial cap and the acceptance ratio are module constants, and
        # convergence has no absolute threshold to set
        names = [f.name for f in dataclasses.fields(SolverConfig)]
        assert names == ["max_iters", "method"]
        for knob in ("tol_residual", "tol_step"):
            with pytest.raises(TypeError):
                SolverConfig(**{knob: 1.0})


class TestLeastSquaresStep:
    def test_small_rcond_u_keeps_the_lu_step(self, monkeypatch):
        # example1 at n = m = 64, lambda = -0.49 has rcond(U) of about
        # 0.7 eps * rows, yet J has full rank and the LU's step is the
        # least-squares step; every LU of the cascade is accepted
        def accepted_step(sys, v, G):
            step, factors = newton_step(sys, v, G)
            assert factors is not None
            return step, factors

        monkeypatch.setattr(fbbmb.solver, "newton_step", accepted_step)
        result = run(RunConfig(problem="example1", alpha=0.5, n=64, m=64, lam=-0.49))
        assert result.stop_reason == "floor"
        assert abs(result.aae - 4.27e-8) <= 0.1 * 4.27e-8


class TestRectangularLuStep:
    @pytest.mark.parametrize("factory", [example1, example2])
    @pytest.mark.parametrize("n", [8, 16])
    def test_matches_svd_least_squares(self, factory, n):
        sys_n = make_system(factory(0.5), n, n)
        v = np.zeros(sys_n.F.size)
        G = residual(sys_n, v)
        step, factors = newton_step(sys_n, v, G)
        oracle, *_ = np.linalg.lstsq(jacobian(sys_n, v), -G, rcond=None)
        assert factors is not None
        assert np.linalg.norm(step - oracle) <= 1e-10 * np.linalg.norm(oracle)

    def test_zero_pivot_info_rejects_the_lu(self, monkeypatch):
        # getrf's info reporting an exact zero pivot rejects the LU: no step
        # and no factors
        sys8 = make_system(example2(0.5), 8, 8)
        monkeypatch.setattr(fbbmb.solver, "_getrf", zero_pivot_getrf)
        v = 0.1 * np.ones(sys8.F.size)
        step, factors = newton_step(sys8, v, residual(sys8, v))
        assert step is None and factors is None

    def test_posv_failure_rejects_the_lu(self, monkeypatch):
        # potrf failing on the correction's normal equations rejects the LU at
        # factor time, as an exact zero pivot does
        sys8 = make_system(example2(0.5), 8, 8)
        monkeypatch.setattr(fbbmb.solver, "_potrf", lambda a: (a, 1))
        v = 0.1 * np.ones(sys8.F.size)
        step, factors = newton_step(sys8, v, residual(sys8, v))
        assert step is None and factors is None

    def test_exact_zero_pivot_rejects_the_lu(self, sys_ex1, monkeypatch):
        # a zero column leaves getrf an exact zero pivot (info = 4), which
        # rejects the LU
        v = 0.1 * np.ones(sys_ex1.F.size)
        J = jacobian(sys_ex1, v)
        J[:, 3] = 0.0
        assert getrf(J)[2] == 4
        monkeypatch.setattr(fbbmb.solver, "jacobian", lambda sys, v: np.array(J, order="F"))
        step, factors = newton_step(sys_ex1, v, residual(sys_ex1, v))
        assert step is None and factors is None


class TestLapackRoutines:
    def test_bit_equal_to_get_lapack_funcs(self, monkeypatch):
        # the solver loads its routines from scipy's _flapack file; they give
        # the same bits as the wrappers scipy.linalg.get_lapack_funcs returns
        sys8 = make_system(example1(0.5), 8, 8)
        v = 0.1 * np.ones(sys8.F.size)
        G, G_next = residual(sys8, v), residual(sys8, 0.5 * v)

        def step_factors_and_chord_step():
            step, factors = newton_step(sys8, v, G)
            return [step, *factors, fbbmb.solver._lu_step(factors, G_next)]

        loaded = step_factors_and_chord_step()
        names = ("getrf", "trtrs", "laswp", "potrf", "potrs")
        for name, func in zip(names, get_lapack_funcs(names, dtype=float)):
            monkeypatch.setattr(fbbmb.solver, "_" + name, func)
        reference = step_factors_and_chord_step()
        assert len(loaded) == len(reference) == 6
        assert all(np.array_equal(a, b) for a, b in zip(loaded, reference))


class TestInPlaceFactor:
    # newton_step reads U and L1 from the top N rows of the (N+m+1) x N LU
    # buffer, with leading dimension N+m+1, instead of from a copy of that block
    @pytest.mark.parametrize("M, N", [(9, 6), (420, 400), (24, 16)])  # 24 x 16: n = 1, m = 7
    def test_trtrs_reads_the_top_block_in_place(self, M, N):
        rng = np.random.default_rng(M)
        lu, _, _ = getrf(np.asfortranarray(rng.standard_normal((M, N))))
        top = np.asfortranarray(lu[:N])
        b = rng.standard_normal(N)
        for kwargs in ({"lower": 1, "unitdiag": 1}, {"lower": 1, "trans": 1, "unitdiag": 1}, {}):
            assert np.array_equal(trtrs(lu, b, **kwargs)[0], trtrs(top, b, **kwargs)[0])
        Bt_in_place, _ = trtrs(lu, lu[N:].T, lower=1, trans=1, unitdiag=1)
        Bt_copied, _ = trtrs(top, lu[N:].T, lower=1, trans=1, unitdiag=1)
        assert np.array_equal(Bt_in_place, Bt_copied)

    def test_getrf_factors_in_place(self):
        # overwrite_a=1 on a Fortran-ordered float array writes the LU into
        # that array's buffer, as newton_step does with the Jacobian
        a = np.asfortranarray(np.random.default_rng(0).standard_normal((24, 16)))
        lu, _, info = getrf(a, overwrite_a=1)
        assert info == 0 and np.shares_memory(lu, a)

    def test_step_holds_no_second_jacobian_sized_array(self, monkeypatch):
        # the step's Jacobian is a fresh copy of a prebuilt one, allocated
        # inside the trace as jacobian's result is, so the peak counts the
        # step's arrays and not the broadcast temporaries of jacobian itself
        sys20 = make_system(example2(0.5), 20, 20)
        v = np.zeros(sys20.F.size)
        G = residual(sys20, v)
        J = jacobian(sys20, v)
        monkeypatch.setattr(fbbmb.solver, "jacobian", lambda sys, v: np.array(J, order="F"))
        tracemalloc.start()
        try:
            newton_step(sys20, v, G)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * J.nbytes


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
        # one LU serves the chord steps that follow it while the merit falls
        # at least 1 / CHORD_CONTRACTION, about 333-fold, per step
        assert rep.factorizations <= 2
        assert rep.iterations <= 10
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
        def uphill(sys, v, G):
            step, factors = newton_step(sys, v, G)
            return -step, factors

        monkeypatch.setattr(fbbmb.solver, "newton_step", uphill)
        v0 = np.zeros(sys_ex2.F.size)
        rep = solve(sys_ex2, SolverConfig())
        assert rep.stop_reason == "stagnation"
        assert not rep.converged
        assert rep.iterations == 0
        np.testing.assert_array_equal(rep.v, v0)

    # no shortened step is tried, so neither method finds a decrease; getrf
    # reporting a zero pivot rejects the first LU
    EXIT_THRESHOLDS = {"stagnation": {"MAX_TRIALS": 0}, "singular": {"_getrf": zero_pivot_getrf}}

    @pytest.mark.parametrize(
        "cfg, reason, converged",
        [
            (SolverConfig(method="trust_region"), "stagnation", False),
            (SolverConfig(), "floor", True),
            (SolverConfig(max_iters=1), "max_iters", False),
            (SolverConfig(), "stagnation", False),
            (SolverConfig(), "singular", False),
            (SolverConfig(method="trust_region"), "singular", False),
        ],
    )
    def test_every_exit_names_its_reason(self, sys_ex1, monkeypatch, cfg, reason, converged):
        for name, value in self.EXIT_THRESHOLDS.get(reason, {}).items():
            monkeypatch.setattr(fbbmb.solver, name, value)
        rep = solve(sys_ex1, cfg)
        assert rep.stop_reason == reason
        assert rep.converged == converged
        if reason == "singular":  # the rejected LU ends the solve at v0
            assert rep.iterations == 0 and rep.factorizations == 1
            np.testing.assert_array_equal(rep.v, np.zeros(sys_ex1.F.size))


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

        def nan_first(sys, v, G):
            calls.append(1)
            step, factors = newton_step(sys, v, G)
            return (np.full_like(step, np.nan) if len(calls) == 1 else step), factors

        base = solve(sys_ex2, SolverConfig(method="trust_region"))
        monkeypatch.setattr(fbbmb.solver, "newton_step", nan_first)
        rep = solve(sys_ex2, SolverConfig(method="trust_region"))
        assert rep.converged
        np.testing.assert_allclose(rep.v, base.v, atol=1e-12)


class TestNonFiniteStep:
    # a step with an entry that is not finite is never added to v, so no
    # residual is evaluated at a point that is not finite

    @pytest.fixture
    def residual_points(self, monkeypatch):
        points = []

        def checked(sys, v):
            assert np.all(np.isfinite(v)), "residual at a point that is not finite"
            points.append(v)
            return residual(sys, v)

        monkeypatch.setattr(fbbmb.solver, "residual", checked)
        return points

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fresh_step_ends_newton_at_once(self, sys_ex2, monkeypatch, residual_points, bad):
        # Newton has nothing to shorten: "stagnation" after 0 steps, with the
        # residual evaluated only at v0
        def bad_step(sys, v, G):
            step, factors = newton_step(sys, v, G)
            return np.full_like(step, bad), factors

        monkeypatch.setattr(fbbmb.solver, "newton_step", bad_step)
        rep = solve(sys_ex2, SolverConfig())
        assert (rep.stop_reason, rep.iterations, rep.factorizations) == ("stagnation", 0, 1)
        assert len(residual_points) == 1
        np.testing.assert_array_equal(rep.v, np.zeros(sys_ex2.F.size))

    @pytest.mark.parametrize("method", ["newton", "trust_region"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_held_step_is_skipped(self, monkeypatch, residual_points, method, bad):
        # every held LU's step is not finite: no pass tries it, each factors
        # afresh, and the solve still reaches the floor at the answer it finds
        # with chord steps
        sys8 = make_system(TestRoundingLevelStop.scaled_example2(10)(0.5), 8, 8)
        base = solve(sys8, SolverConfig(method=method))
        assert base.factorizations < base.iterations  # chord steps were kept
        inside, lu_step = [], fbbmb.solver._lu_step

        def fresh_only(sys, v, G):
            inside.append(1)
            try:
                return newton_step(sys, v, G)
            finally:
                inside.pop()

        def bad_held(factors, G):
            step = lu_step(factors, G)
            return step if inside else np.full_like(step, bad)

        monkeypatch.setattr(fbbmb.solver, "newton_step", fresh_only)
        monkeypatch.setattr(fbbmb.solver, "_lu_step", bad_held)
        rep = solve(sys8, SolverConfig(method=method))
        assert rep.stop_reason == "floor"
        assert rep.factorizations >= rep.iterations  # no chord step
        np.testing.assert_allclose(rep.v, base.v, rtol=0, atol=1e-9 * np.max(np.abs(base.v)))


class TestDoglegStep:
    # _dogleg_step's three branches on hand-made vectors in the plane; with
    # g = (1, 0) and J g = (2, 0) the Cauchy step is -(|g|^2 / |J g|^2) g = (-1/4, 0)
    g, Jg = np.array([1.0, 0.0]), np.array([2.0, 0.0])
    cauchy = np.array([-0.25, 0.0])

    def test_newton_step_inside_the_radius_is_kept(self):
        newton = np.array([0.3, 0.4])
        step, hit = fbbmb.solver._dogleg_step(newton, self.g, self.Jg, 1.0)
        assert step is newton and not hit

    @pytest.mark.parametrize("newton, Jg", [
        (None, np.array([2.0, 0.0])),  # no Gauss-Newton step
        (np.array([0.0, 3.0]), np.array([0.1, 0.0])),  # Cauchy step of length 100
    ])
    def test_steepest_descent_to_the_boundary(self, newton, Jg):
        radius = 0.2
        step, hit = fbbmb.solver._dogleg_step(newton, self.g, Jg, radius)
        np.testing.assert_array_equal(step, -(radius / np.linalg.norm(self.g)) * self.g)
        assert np.linalg.norm(step) == pytest.approx(radius, rel=1e-15) and hit

    @pytest.mark.parametrize("radius", [0.3, 1.0, 2.9])
    def test_blend_reaches_the_boundary_on_the_dogleg_segment(self, radius):
        newton = np.array([0.0, 3.0])
        step, hit = fbbmb.solver._dogleg_step(newton, self.g, self.Jg, radius)
        assert np.linalg.norm(step) == pytest.approx(radius, rel=1e-12) and hit
        d = newton - self.cauchy
        s = (step - self.cauchy) @ d / (d @ d)
        assert 0.0 < s < 1.0
        np.testing.assert_allclose(step, self.cauchy + s * d, rtol=0, atol=1e-15)


class TestRoundingLevelStop:
    # solve stops "floor" without factoring once the merit is within its own
    # rounding level, which bounds the predicted decrease 0.5 ||J p||^2 of the
    # exact Gauss-Newton step; the held LU serves the chord steps and that last
    # correction, and is dropped before the next Jacobian is built

    @staticmethod
    def scaled_example2(A):
        # example2's data times A, u = A t^2 e^x: the nonlinear term grows like A^2
        return lambda alpha: make_separable_problem(alpha, np.exp, np.exp, np.exp, {2.0: A})

    @staticmethod
    def traced_solve(monkeypatch, sys_d, method):
        """(report, (v, G, level) of every iterate the loop tested, the number
        of iterates tested at each Jacobian call) of a cold solve, asserting at
        every `jacobian` call that no array an earlier call returned is alive."""
        levels, factored, alive = [], [], []
        rounding_level = fbbmb.solver._rounding_level

        def recording_level(v, G, scale):
            level = rounding_level(v, G, scale)
            levels.append((v.copy(), G.copy(), level))
            return level

        def checked_jacobian(sys, v):
            assert all(ref() is None for ref in alive), "two Jacobian buffers coexist"
            J = jacobian(sys, v)
            alive.append(weakref.ref(J))
            factored.append(len(levels))
            return J

        with monkeypatch.context() as mp:
            mp.setattr(fbbmb.solver, "_rounding_level", recording_level)
            mp.setattr(fbbmb.solver, "jacobian", checked_jacobian)
            rep = solve(sys_d, SolverConfig(method=method))
        return rep, levels, factored

    @staticmethod
    def relative_aae(spec, n, rep):
        """AAE / mean |u| on the n x n grid's nodes."""
        x = build_node_set(0.5, n).nodes
        exact = spec.exact(x[:, None], x[None, :]).reshape(-1)
        return np.mean(np.abs(rep.u - exact)) / np.mean(np.abs(exact))

    def check_contract(self, monkeypatch, spec, n, method):
        """(whether the stop fired, iterates tested, Jacobians built, report)
        of a cold solve that keeps the stop's contract."""
        sys_d = make_system(spec, n, n)
        rep, levels, factored = self.traced_solve(monkeypatch, sys_d, method)
        assert rep.stop_reason != "singular"  # every LU is accepted
        # the last tested iterate is factored unless the stop fires there
        # (earlier ones may have taken a chord step), and the stop ends the loop
        fired = bool(levels) and factored[-1:] != [len(levels)]
        merits_above = [0.5 * float(G @ G) > level for _, G, level in levels]
        assert merits_above == [True] * (len(levels) - fired) + [False] * fired
        if fired:
            assert rep.stop_reason == "floor"
            v, G, level = levels[-1]
            step, _ = newton_step(sys_d, v, G)
            Jp = jvp(sys_d, v, step)
            assert 0.5 * float(Jp @ Jp) <= level  # the floor test passes at v
        return fired, len(levels), len(factored), rep

    @pytest.mark.parametrize("method", ["newton", "trust_region"])
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_registered_problems(self, monkeypatch, name, method):
        for alpha in (0.1, 0.5, 1.0):
            for n in (4, 8, 16):
                self.check_contract(monkeypatch, REGISTRY[name](alpha), n, method)

    @pytest.mark.parametrize("method", ["newton", "trust_region"])
    @pytest.mark.parametrize("A", [1, 10, 100, 1000, 10**4])
    def test_scaled_example2(self, monkeypatch, A, method):
        # the dogleg is right on all 30 cases, which its trial cap must keep;
        # Newton stops "floor" at a wrong stationary point at A = 1000, n = 8
        for alpha in (0.1, 0.5, 1.0):
            for n in (8, 16):
                spec = self.scaled_example2(A)(alpha)
                *_, rep = self.check_contract(monkeypatch, spec, n, method)
                if method == "trust_region":
                    assert rep.converged, (alpha, n, rep.stop_reason)
                    assert self.relative_aae(spec, n, rep) <= 1e-6, (alpha, n)

    @pytest.mark.parametrize("method", ["newton", "trust_region"])
    @pytest.mark.parametrize("A", [1e-14, 1e-13, 1e-12, 1e-10, 1e-6, 1])
    def test_small_data_converges_right(self, A, method):
        # the verdict scales with the data: an absolute residual, step or
        # trust-radius threshold stopped these as converged after 0 steps at
        # relative AAE 0.43, or as not converged at a right answer
        spec = self.scaled_example2(A)(0.5)
        rep = solve(make_system(spec, 8, 8), SolverConfig(method=method))
        assert rep.converged, rep.stop_reason
        assert self.relative_aae(spec, 8, rep) <= 1e-6

    def test_fires_without_factoring(self, monkeypatch):
        spec = self.scaled_example2(10)(0.5)
        fired, iterates, jacobians, rep = self.check_contract(monkeypatch, spec, 16, "newton")
        assert fired
        assert rep.factorizations == jacobians
        # the correction's Cholesky factor is taken once with each LU; the held
        # LU's step is tried once at every later iterate above its rounding
        # level (a chord trial) and gives the last step, and neither factors
        potrf, lu_step = fbbmb.solver._potrf, fbbmb.solver._lu_step
        potrf_calls, lu_steps = [], []
        monkeypatch.setattr(fbbmb.solver, "_potrf",
                            lambda a: potrf_calls.append(1) or potrf(a))
        monkeypatch.setattr(fbbmb.solver, "_lu_step",
                            lambda factors, G: lu_steps.append(1) or lu_step(factors, G))
        *_, factored = self.traced_solve(monkeypatch, make_system(spec, 16, 16), "newton")
        assert factored[-1] < iterates  # the last iterate was not factored
        assert len(potrf_calls) == len(factored) == jacobians
        chord_trials = iterates - 1 - factored[0]
        assert len(lu_steps) == jacobians + chord_trials + 1

    @pytest.mark.parametrize("sign, kept", [(1.0, True), (-1.0, False)])
    def test_last_held_step_kept_unless_it_raises_the_merit(self, monkeypatch, sign, kept):
        # every merit after the first is taken to be at its rounding level, so
        # the held LU's step at the second iterate is the last: as it is, it
        # lowers the merit and is kept; reversed, it raises the merit and the
        # loop stops "floor" at the iterate it had
        sys6 = make_system(example2(0.5), 6, 6)
        rounding_level, lu_step = fbbmb.solver._rounding_level, fbbmb.solver._lu_step
        iterates, steps = [], []

        def level_after_first(v, G, scale):
            iterates.append(v.copy())
            return rounding_level(v, G, scale) if len(iterates) == 1 else np.inf

        def signed_after_first(factors, G):  # the first is newton_step's own
            steps.append(1)
            return lu_step(factors, G) * (1.0 if len(steps) == 1 else sign)

        monkeypatch.setattr(fbbmb.solver, "_rounding_level", level_after_first)
        monkeypatch.setattr(fbbmb.solver, "_lu_step", signed_after_first)
        rep = solve(sys6, SolverConfig())
        assert (rep.stop_reason, rep.factorizations, len(iterates), len(steps)) == ("floor", 1, 2, 2)
        assert rep.iterations == (2 if kept else 1)
        assert np.array_equal(rep.v, iterates[1]) != kept

    @pytest.mark.parametrize("method", ["newton", "trust_region"])
    @pytest.mark.parametrize("sign, kept", [(1.0, True), (-1.0, False)])
    def test_fresh_floor_step_kept_unless_it_raises_the_merit(self, monkeypatch, method,
                                                               sign, kept):
        # with J p taken to be zero, the first fresh LU's step passes the floor
        # test at v = 0: as it is, it lowers the merit and is kept; reversed,
        # it raises the merit and the loop stops "floor" at v = 0
        sys6 = make_system(example2(0.5), 6, 6)
        rows = sys6.F.size + sys6.ns_t.nodes.size
        steps = []

        def signed(sys, v, G):
            step, factors = newton_step(sys, v, G)
            steps.append(step)
            return sign * step, factors

        monkeypatch.setattr(fbbmb.solver, "jvp", lambda sys, v, p: np.zeros(rows))
        monkeypatch.setattr(fbbmb.solver, "newton_step", signed)
        rep = solve(sys6, SolverConfig(method=method))
        assert (rep.stop_reason, rep.factorizations) == ("floor", 1)
        assert rep.iterations == (1 if kept else 0)
        np.testing.assert_array_equal(rep.v, steps[0] if kept else np.zeros(sys6.F.size))

    @pytest.mark.parametrize("method", ["newton", "trust_region"])
    def test_held_step_kept_only_on_a_hundredfold_fall(self, monkeypatch, method):
        # at every iterate above its rounding level after the first LU, the
        # held LU's step is kept, with no Jacobian built, exactly when it cuts
        # the merit to CHORD_CONTRACTION times its value or less; otherwise J
        # is factored at that iterate
        spec = self.scaled_example2(10)(0.5)
        sys8 = make_system(spec, 8, 8)
        rep, levels, factored = self.traced_solve(monkeypatch, sys8, method)
        kept = []
        for i in range(factored[0] + 1, len(levels) + 1):  # iterates count from 1
            v, G, level = levels[i - 1]
            merit = 0.5 * float(G @ G)
            if merit <= level:
                assert i == len(levels)
                continue
            held = max(j for j in factored if j < i)  # the iterate the held LU is of
            step, factors = newton_step(sys8, levels[held - 1][0], G)
            assert factors is not None
            G_new = residual(sys8, v + step)
            fell = 0.5 * float(G_new @ G_new) <= fbbmb.solver.CHORD_CONTRACTION * merit
            assert (i in factored) != fell, i
            if fell:
                assert np.array_equal(levels[i][0], v + step)
            kept.append(fell)
        assert rep.converged
        assert rep.factorizations == len(factored)
        assert any(kept) and not all(kept)  # both outcomes are exercised

    @pytest.mark.parametrize("method", ["newton", "trust_region"])
    def test_chord_steps_keep_every_floor_verdict_checked(self, monkeypatch, method):
        # a floor reached after chord steps, with the LU of an earlier iterate
        # held, still passes the floor test of a freshly factored J
        for A, n in ((1, 16), (10, 16), (10**4, 8)):
            spec = self.scaled_example2(A)(0.5)
            fired, iterates, jacobians, rep = self.check_contract(monkeypatch, spec, n, method)
            assert fired and rep.converged
            assert jacobians < iterates - 1  # some iterate took a chord step


class TestStressFixture:
    # 100 cold solves of data outside the registry, u = e^(kx) A t^p, drawn
    # from random.Random(7) in the order k, p, A = 10^U(-3, 4.5), alpha,
    # n = m, lambda. "Right" is a relative nodal AAE of at most 1e-6. Both
    # methods stop "floor" at a wrong stationary point on a few cases; the
    # exact lists are asserted, so a new false verdict fails and a mended one
    # is noticed
    FALSE = {"newton": [21, 29], "trust_region": [29]}
    RIGHT = {"newton": 91, "trust_region": 96}
    # cases whose outcome (converged, right) under either method changes when
    # A is scaled by 1 + 4 eps, left out of FALSE and RIGHT: none in this draw
    SENSITIVE: list[int] = []

    @staticmethod
    def draw(count=100):
        rng = random.Random(7)
        cases = []
        for _ in range(count):
            k, p, A = rng.choice((-2, -1, 1, 2)), rng.choice((2, 3)), 10 ** rng.uniform(-3, 4.5)
            alpha, n = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9, 1)), rng.choice((8, 10, 12))
            cases.append((k, p, A, alpha, n, rng.choice((0, 0.5, 1))))
        return cases

    @staticmethod
    def solve_case(case, method, scale=1.0):
        """(system, report, iterates tested, Jacobian calls, whether the
        answer is right) of a cold solve of one drawn case, its A times `scale`."""
        k, p, A, alpha, n, lam = case
        A = A * scale
        X = lambda x: np.exp(k * x)
        spec = make_separable_problem(alpha, X, lambda x: k * X(x), lambda x: k * k * X(x), {p: A})
        ns = build_node_set(lam, n)
        sys_d = assemble(spec, build_operator_bundle(ns, ns))
        rep, levels, factored = TestRoundingLevelStop.traced_solve(pytest.MonkeyPatch(), sys_d, method)
        exact = spec.exact(ns.nodes[:, None], ns.nodes[None, :]).reshape(-1)
        right = np.mean(np.abs(rep.u - exact)) <= 1e-6 * np.mean(np.abs(exact))
        return sys_d, rep, levels, factored, right

    @pytest.fixture(scope="class")
    def solved(self):
        return {method: [self.solve_case(case, method) for case in self.draw()]
                for method in ("newton", "trust_region")}

    @pytest.mark.parametrize("method", ["newton", "trust_region"])
    def test_false_verdicts_and_right_answers(self, solved, method):
        # every LU of the 100 solves is accepted
        assert all(rep.stop_reason != "singular" for _, rep, *_ in solved[method])
        kept = [(i, r) for i, r in enumerate(solved[method]) if i not in self.SENSITIVE]
        assert [i for i, (_, rep, *_, right) in kept if rep.converged and not right] \
            == self.FALSE[method]
        assert sum(right for _, (*_, right) in kept) == self.RIGHT[method]

    @pytest.mark.parametrize("index, method", [(209, "newton"), (146, "trust_region")])
    def test_chord_steps_keep_a_right_answer(self, index, method):
        # two cases past the fixture's 100 draws that chord steps kept at a
        # tenfold fall of ||G|| sent astray, to "max_iters" after 99 LUs
        _, rep, *_, right = self.solve_case(self.draw(500)[index], method)
        assert rep.converged and right

    def test_no_outcome_turns_on_the_last_bit_of_the_data(self, solved):
        scale = 1.0 + 4.0 * np.finfo(float).eps
        sensitive = []
        for i, case in enumerate(self.draw()):
            for method in solved:
                _, rep, *_, right = solved[method][i]
                _, rep2, *_, right2 = self.solve_case(case, method, scale)
                if (rep.converged, right) != (rep2.converged, right2):
                    sensitive.append(i)
                    break
        assert sensitive == self.SENSITIVE

    @pytest.mark.parametrize("method", ["newton", "trust_region"])
    def test_every_floor_passes_the_fresh_jacobian_floor_test(self, solved, method):
        # every tested iterate but the last is above its rounding level, and a
        # "floor" reached without factoring at the last iterate passes there
        # the floor test of a freshly factored J
        for sys_d, rep, levels, factored, _ in solved[method]:
            merits_above = [0.5 * float(G @ G) > level for _, G, level in levels]
            assert all(merits_above[:-1])
            if rep.stop_reason == "floor" and factored[-1] != len(levels):
                v, G, level = levels[-1]
                assert not merits_above[-1]
                step, _ = newton_step(sys_d, v, G)
                Jp = jvp(sys_d, v, step)
                assert 0.5 * float(Jp @ Jp) <= level


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
        # the system holds no N x N array, and the LU buffer, (N+m+1) x N, is
        # the only O(N^2) array a solve holds
        spec = example2(0.5)
        ns = build_node_set(0.5, 20)
        ops = build_operator_bundle(ns, ns)
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
        np.testing.assert_array_equal(a.u, b.u)
        assert (a.iterations, a.stop_reason, a.factorizations) \
            == (b.iterations, b.stop_reason, b.factorizations)


class TestReportContract:
    def test_iteration_cap_reports_nonconverged(self, sys_ex2):
        rep = solve(sys_ex2, SolverConfig(max_iters=1))
        assert not rep.converged

    @pytest.mark.parametrize("v0", [
        np.full(49, np.nan),
        np.r_[np.zeros(48), np.inf],
        np.zeros(48),
    ], ids=["nan", "inf", "short"])
    def test_initial_guess_must_be_n_finite_numbers(self, v0):
        # checked before the first residual, into which a NaN or inf start
        # would carry, and on to the Jacobian and the step
        sys6 = make_system(example2(0.5), 6, 6)
        with pytest.raises(ValueError, match="N = 49 finite"):
            solve(sys6, SolverConfig(), v0)

    @pytest.mark.parametrize("method", ["newton", "trust_region"])
    @pytest.mark.parametrize("v0", [1e150, 1e200])
    def test_overflowed_merit_is_not_converged(self, v0, method):
        # the merit overflows to inf (9.3e299 or inf in G) and so does its
        # rounding level; inf <= inf must not pass as the floor
        sys6 = make_system(example2(0.5), 6, 6)
        with np.errstate(all="ignore"):
            rep = solve(sys6, SolverConfig(method=method), np.full(49, v0))
        assert rep.converged is False
