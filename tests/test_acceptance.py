"""End-to-end acceptance checks, one per release criterion. Each test prints a
single PASS/FAIL line (run with -s or check captured output) before asserting."""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from fbbmb.assembly import assemble, compute_aae, jacobian, residual
from fbbmb.basis import build_node_set
from fbbmb.cli import RunConfig, run
from fbbmb.opmatrices import build_operator_bundle, build_rl_fsgim
from oracles import rlfi_oracle
from fbbmb.problems import example1, example2
from fbbmb.solver import SolverConfig, solve

TESTS_DIR = Path(__file__).parent


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def make_system(spec, n, m):
    ns_x = build_node_set(0.5, n)
    ns_t = build_node_set(0.5, m)
    ops = build_operator_bundle(ns_x, ns_t)
    return assemble(spec, ops)


def test_criterion_1_operator_unit_suite_under_30s():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(TESTS_DIR / "test_basis.py"), str(TESTS_DIR / "test_opmatrices.py")],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - t0
    ok = proc.returncode == 0 and elapsed < 30.0
    report(1, ok, f"operator/interpolation suite exit={proc.returncode}, {elapsed:.1f}s (< 30s)")
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert elapsed < 30.0


def test_criterion_2_benchmark_problem_1_error_table():
    reference = [9.6546e-6, 2.0978e-6, 1.8902e-6, 1.8165e-6]
    competitor_bound = 3.37e-5
    rows = [run(RunConfig(problem="example1", alpha=0.5, n=s, m=s)) for s in (4, 5, 6, 7)]
    aaes = [r.aae for r in rows]
    beats = all(a <= competitor_bound for a in aaes)
    within_decade = all(a <= 10.0 * ref for a, ref in zip(aaes, reference))
    fast = all(r.et_seconds < 5.0 for r in rows)
    converged = all(r.converged for r in rows)
    ok = beats and within_decade and fast and converged
    report(2, ok, "problem-1 AAE " + ", ".join(f"{a:.4e}" for a in aaes)
           + f"; all <= {competitor_bound:.2e} and within 10x of reference; solves < 5s")
    assert converged
    assert beats, aaes
    assert within_decade, aaes
    assert fast, [r.et_seconds for r in rows]


def test_criterion_3_benchmark_problem_2_exponential_decay():
    coll = [run(RunConfig(problem="example2", alpha=0.5, n=s, m=s)) for s in (4, 5, 6, 7)]
    slc = [run(RunConfig(problem="example2", alpha=0.5, n=s, m=s, error_mesh="slice=1.0"))
           for s in (4, 5, 6, 7)]
    aaes = [r.aae for r in coll]
    ratios = [a / b for a, b in zip(aaes, aaes[1:])]
    monotone = all(r >= 3.0 for r in ratios)
    tail_ok = aaes[-1] <= 1e-6
    ok = monotone and tail_ok and all(r.converged for r in coll)
    report(3, ok, "problem-2 AAE collocation mesh "
           + ", ".join(f"{a:.4e}" for a in aaes)
           + " | t=1 slice " + ", ".join(f"{r.aae:.4e}" for r in slc)
           + f"; refinement ratios {', '.join(f'{r:.1f}x' for r in ratios)} (>= 3x), final <= 1e-6")
    assert all(r.converged for r in coll)
    assert monotone, ratios
    assert tail_ok, aaes


def test_criterion_4_fractional_order_robustness():
    worst_aae = 0.0
    worst_bc = 0.0
    all_converged = True
    for factory in (example1, example2):
        for alpha in (0.1, 0.3, 0.5, 0.75, 1.0):
            spec = factory(alpha)
            sys_d = make_system(spec, 16, 16)
            rep = solve(sys_d, SolverConfig())
            all_converged &= rep.converged
            x, t = sys_d.ns_x.nodes, sys_d.ns_t.nodes
            exact = spec.exact(x[:, None], t[None, :]).reshape(-1)
            worst_aae = max(worst_aae, compute_aae(rep.u, exact))
            bc = np.max(np.abs(residual(sys_d, rep.v)[sys_d.F.size:]))
            worst_bc = max(worst_bc, bc)
    ok = all_converged and worst_aae < 1e-4 and worst_bc < 1e-8
    report(4, ok, f"both problems, alpha in {{0.1,0.3,0.5,0.75,1.0}} at n=m=16: "
           f"worst AAE {worst_aae:.2e} (< 1e-4), worst boundary residual {worst_bc:.2e} (< 1e-8)")
    assert all_converged
    assert worst_aae < 1e-4
    assert worst_bc < 1e-8


def test_criterion_5_solver_cross_validation():
    worst = 0.0
    for factory in (example1, example2):
        sys_d = make_system(factory(0.5), 6, 6)
        rn = solve(sys_d, SolverConfig())
        rt = solve(sys_d, SolverConfig(method="trust_region", max_iters=300))
        assert rn.converged and rt.converged
        worst = max(worst, float(np.max(np.abs(rn.v - rt.v))))
    ok = worst <= 1e-9
    report(5, ok, f"Newton vs trust-region converged v differ by {worst:.2e} (<= 1e-9), "
           "both problems at n=m=6")
    assert worst <= 1e-9


def test_criterion_6_jacobian_matches_finite_differences():
    rng = np.random.default_rng(42)
    worst = 0.0
    for n, m in ((3, 4), (4, 3), (4, 4)):
        sys_d = make_system(example2(0.5), n, m)
        N, M = sys_d.F.size, m + 1
        v = 0.5 * rng.standard_normal(N)
        rng.standard_normal(M)  # keeps the draws of v at the later sizes unchanged
        J = jacobian(sys_d, v)
        h = 1e-7
        fd = np.empty_like(J)
        for c in range(N):
            vp, vm = v.copy(), v.copy()
            vp[c] += h
            vm[c] -= h
            fd[:, c] = (residual(sys_d, vp) - residual(sys_d, vm)) / (2 * h)
        rel = np.max(np.abs(J - fd)) / max(1.0, np.max(np.abs(J)))
        worst = max(worst, rel)
    ok = worst < 1e-6
    report(6, ok, f"analytic vs central-difference Jacobian: worst relative gap {worst:.2e} (< 1e-6)")
    assert worst < 1e-6


def test_criterion_7_fractional_matrix_against_quadrature_oracle():
    rng = np.random.default_rng(123)
    ns = build_node_set(0.5, 10)
    B = build_rl_fsgim(ns, 0.6)
    worst = 0.0
    for _ in range(10):
        # random smooth function: low-degree polynomial plus gentle sin/exp modes
        c = rng.uniform(-1.0, 1.0, size=5)
        a, b = rng.uniform(0.5, 3.0, size=2)
        s1, s2 = rng.uniform(-1.0, 1.0, size=2)

        def g(t):
            return float(np.polynomial.polynomial.polyval(t, c)
                         + s1 * np.sin(a * t) + s2 * np.exp(b * t) / np.exp(b))

        data = np.array([g(t) for t in ns.nodes])
        expected = np.array([rlfi_oracle(g, 0.6, t) for t in ns.nodes])
        worst = max(worst, float(np.max(np.abs(B @ data - expected))))
    ok = worst <= 1e-8
    report(7, ok, f"fractional integration rows vs adaptive-quadrature oracle on 10 random "
           f"smooth functions: worst gap {worst:.2e} (<= 1e-8) at m=10")
    assert worst <= 1e-8
