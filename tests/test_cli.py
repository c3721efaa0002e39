import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fbbmb.basis as basis
import fbbmb.cli as cli
import fbbmb.opmatrices as opmatrices
import fbbmb.solver as solver
from fbbmb.assembly import ProblemSpec, assemble, compute_aae, evaluate_on_mesh
from fbbmb.basis import build_node_set
from fbbmb.cli import (
    EXIT_INVALID_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    RunConfig,
    RunResult,
    format_csv,
    format_json,
    format_table,
    main,
    run,
    sweep,
)
from fbbmb.opmatrices import build_operator_bundle
from fbbmb.problems import REGISTRY
from fbbmb.solver import SolveReport, SolverConfig, solve


def run_fresh_process(script: str) -> subprocess.CompletedProcess:
    """Run `script` in a new interpreter that imports this checkout's fbbmb."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


def parse_run_result_csv(text: str) -> list[dict]:
    """Round-trip reader for the CSV emitted by format_csv."""
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        rows.append({
            "problem": raw["problem"],
            "alpha": float(raw["alpha"]), "n": int(raw["n"]), "m": int(raw["m"]),
            "lambda": float(raw["lambda"]),
            "aae": float(raw["aae"]), "max_err": float(raw["max_err"]),
            "et_seconds": float(raw["et_seconds"]),
            "precompute_seconds": float(raw["precompute_seconds"]),
            "iterations": int(raw["iterations"]),
            "converged": raw["converged"] == "True",
            "stop_reason": raw["stop_reason"],
        })
    return rows


def cold_system(cfg):
    ns_x = build_node_set(cfg.lam, cfg.n)
    ns_t = build_node_set(cfg.lam, cfg.m)
    return assemble(REGISTRY[cfg.problem](cfg.alpha), build_operator_bundle(ns_x, ns_t))


@pytest.fixture
def solves(monkeypatch):
    """(report, wall-clock seconds) of every solve `run` makes, in call order;
    the fine solve is the last."""
    calls = []

    def recording(sys_d, solver_cfg, v0=None):
        t0 = time.perf_counter()
        report = solve(sys_d, solver_cfg, v0)
        calls.append((report, time.perf_counter() - t0))
        return report

    monkeypatch.setattr(cli, "solve", recording)
    return calls


class TestProblemRegistry:
    def test_known_names(self):
        assert {"example1", "example2", "manufactured:poly", "manufactured:trig"} <= set(REGISTRY)

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_every_problem_has_an_exact_solution(self, name):
        # `run` measures every error against `exact`; it has no other branch
        assert REGISTRY[name](0.5).exact is not None

    def test_example1_boundary_values(self):
        spec = REGISTRY["example1"](0.5)
        # u = x^4 (x-1) t^1.5 vanishes on x=0, x=1, t=0
        assert spec.exact(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert spec.exact(0.0, 0.7) == pytest.approx(0.0, abs=1e-15)
        assert spec.f(0.0, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_example2_exact_values(self):
        spec = REGISTRY["example2"](0.5)
        assert spec.exact(0.5, 1.0) == pytest.approx(math.e**0.5, rel=1e-12)
        assert spec.exact(0.5, 1.0) == pytest.approx(1.6487212707, abs=1e-9)
        assert spec.psi2(0.5) == pytest.approx(0.25 * math.e, rel=1e-14)


class TestRunConfigValidation:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.problem == "example1" and cfg.n == cfg.m == 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"m": -1},
            {"lam": -0.6},
            {"error_mesh": "random"},
            {"error_mesh": "slice=1.5"},
            {"alpha": 1.5},
            {"alpha": 0.0},
            {"alpha": float("nan")},
            {"problem": "bogus"},
            {"n": 4.5},
            {"m": float("nan")},
            {"n": float("inf")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises((ValueError,)):
            RunConfig(**kwargs)

    @pytest.mark.parametrize("mesh, message", [
        ("random", "unknown error mesh 'random'"),
        ("slice=1.5", "slice time 1.5 outside [0, 1]"),
    ])
    def test_error_mesh_messages(self, mesh, message):
        # RunConfig and run read the mesh through the one parser, error_mesh_points
        with pytest.raises(ValueError) as exc:
            RunConfig(error_mesh=mesh)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            cli.error_mesh_points(mesh)
        assert str(exc.value) == message


class TestRun:
    def test_example2_accuracy_at_size7(self):
        res = run(RunConfig(problem="example2", alpha=0.5, n=7, m=7))
        assert res.converged
        assert res.aae < 1e-6
        assert res.max_err >= res.aae
        assert res.precompute_seconds >= 0.0

    @pytest.mark.parametrize("reason", ["floor", "stagnation", "max_iters", "singular"])
    def test_converged_is_the_floor_verdict(self, reason):
        # derived from the stop reason, as SolveReport.converged is
        res = RunResult(RunConfig(), 0.0, 0.0, 0.0, 0.0, 1, reason)
        assert res.converged == (reason == "floor") == res.row()["converged"]

    def test_slice_mesh_populates_grid(self):
        res = run(RunConfig(problem="example2", alpha=0.5, n=6, m=6, error_mesh="slice=1.0"))
        assert res.grid is not None
        assert len(res.grid) == 101
        x, t, u_num, u_exact, abs_err = res.grid[50]
        assert t == 1.0
        assert abs_err == pytest.approx(abs(u_num - u_exact), abs=1e-15)
        assert u_exact == pytest.approx(math.exp(x), rel=1e-12)

    def test_uniform_mesh(self):
        res = run(RunConfig(problem="example1", alpha=0.5, n=6, m=6, error_mesh="uniform101"))
        assert res.grid is not None
        assert len(res.grid) == 101 * 101
        assert res.aae < 1e-3

    def test_grid_built_on_first_access(self):
        res = run(RunConfig(problem="example2", alpha=0.5, n=6, m=6, error_mesh="uniform101"))
        assert "grid" not in vars(res)
        assert res.grid is res.grid and "grid" in vars(res)

    @pytest.mark.parametrize("mesh", ["slice=1.0", "uniform101"])
    def test_grid_rows_bit_equal_to_per_point_rows(self, mesh):
        res = run(RunConfig(problem="example2", alpha=0.5, n=6, m=6, error_mesh=mesh))
        spec = REGISTRY["example2"](0.5)
        ns_x = build_node_set(0.5, 6)
        ns_t = build_node_set(0.5, 6)
        sys_d = assemble(spec, build_operator_bundle(ns_x, ns_t))
        xs = np.linspace(0.0, 1.0, 101)
        ts = xs if mesh == "uniform101" else np.array([1.0])
        U = evaluate_on_mesh(solve(sys_d, SolverConfig()).u, ns_x, ns_t, xs, ts)
        E = spec.exact(xs[:, None], ts[None, :]) * np.ones((xs.size, ts.size))
        rows = [
            [float(x), float(t), float(U[i, j]), float(E[i, j]), float(abs(U[i, j] - E[i, j]))]
            for i, x in enumerate(xs)
            for j, t in enumerate(ts)
        ]
        assert np.array_equal(np.array(res.grid).view(np.int64), np.array(rows).view(np.int64))

    @pytest.mark.parametrize("problem", sorted(REGISTRY))
    def test_collocation_errors_bit_equal_to_nodal_errors(self, problem):
        # the collocation mesh goes through evaluate_on_mesh, whose rows at the
        # nodes are unit vectors: the errors are those of the nodal u itself
        cfg = RunConfig(problem=problem, alpha=0.5, n=9, m=6)
        res = run(cfg)
        sys_d = cold_system(cfg)
        u = solve(sys_d, cfg.solver).u
        x, t = sys_d.ns_x.nodes, sys_d.ns_t.nodes
        exact = REGISTRY[problem](0.5).exact(x[:, None], t[None, :]).reshape(-1)
        assert res.grid is None
        assert res.aae == compute_aae(u, exact)
        assert res.max_err == float(np.max(np.abs(u - exact)))

    @pytest.mark.parametrize("mesh, last", [
        ("collocation", (32, 32, 33, 33)),
        ("slice=0.3", (32, 32, 101, 1)),
    ])
    def test_one_evaluation_path(self, monkeypatch, mesh, last):
        # 32 x 32 cascades from 16 and 8: two prolongations, then the error mesh
        calls = []

        def recording(u, ns_x, ns_t, xs, ts):
            calls.append((ns_x.n, ns_t.n, len(xs), len(ts)))
            return evaluate_on_mesh(u, ns_x, ns_t, xs, ts)

        monkeypatch.setattr(cli, "evaluate_on_mesh", recording)
        run(RunConfig(problem="example2", alpha=0.5, n=32, m=32, error_mesh=mesh))
        assert calls == [(8, 8, 17, 17), (16, 16, 33, 33), last]


class TestRepeatedRuns:
    """Node sets and alpha-free operators are memoised per process, so a run
    on a grid this process has built before reads them from the caches."""

    @pytest.mark.parametrize("problem, alpha", [("example1", 0.5), ("example2", 0.9)])
    def test_warm_run_bit_identical_to_cold(self, problem, alpha):
        for f in (basis._node_set, opmatrices.build_sgdm, opmatrices.build_sgim,
                  opmatrices.build_sgirv, opmatrices._gauss_jacobi):
            f.cache_clear()
        cfg = RunConfig(problem=problem, alpha=alpha, n=16, m=16)  # cascades from 8 x 8
        cold, warm = run(cfg), run(cfg)
        fields = ("aae", "max_err", "iterations", "converged")
        assert [getattr(warm, k) for k in fields] == [getattr(cold, k) for k in fields]
        assert cold.converged


class TestCascade:
    @pytest.mark.parametrize("problem, n, m, method", [
        ("example1", 32, 32, "newton"),
        ("example1", 32, 32, "trust_region"),
        ("example2", 32, 32, "newton"),
        ("example2", 32, 32, "trust_region"),
        ("example2", 48, 32, "newton"),
    ])
    def test_agrees_with_cold_solve(self, solves, problem, n, m, method):
        cfg = RunConfig(problem=problem, alpha=0.5, n=n, m=m, solver=SolverConfig(method=method))
        res = run(cfg)
        assert len(solves) == 3  # two coarse levels, then the fine grid
        fine, _ = solves[-1]
        cold = solve(cold_system(cfg), cfg.solver)
        assert res.converged == fine.converged == cold.converged
        assert np.max(np.abs(fine.u - cold.u)) <= 1e-12
        assert res.iterations == fine.iterations <= cold.iterations

    @pytest.mark.parametrize("n, m, degrees", [
        (64, 64, [64, 64, 32, 32, 16, 16, 8, 8]),
        (48, 32, [48, 32, 24, 16, 12, 8]),
        (24, 24, [24, 24, 12, 12]),  # 6 < MIN_COARSE: 12 is solved cold
        (31, 100, [31, 100, 15, 50]),  # the smaller axis decides
        (15, 15, [15, 15]),  # 7 < MIN_COARSE: cold
    ])
    def test_halving_schedule(self, monkeypatch, n, m, degrees):
        # at a non-default lambda, which every level's node sets must get
        cfg = RunConfig(problem="example2", n=n, m=m, lam=1.0)
        built = []

        def recording(lam, n):
            built.append((lam, n))
            return build_node_set(lam, n)

        def converged_zero(sys_d, solver_cfg, v0=None):
            v = np.zeros(sys_d.F.size)
            return SolveReport(v, v, 0, "floor")

        monkeypatch.setattr(cli, "build_node_set", recording)
        monkeypatch.setattr(cli, "solve", converged_zero)
        run(cfg)
        assert built == [(cfg.lam, d) for d in degrees]

    def test_unconverged_coarse_solve_falls_back_to_cold_start(self, monkeypatch):
        cfg = RunConfig(problem="example2", alpha=0.5, n=32, m=32)
        fine = []

        def coarse_fails(sys_d, solver_cfg, v0=None):
            report = solve(sys_d, solver_cfg, v0)
            if sys_d.ns_x.n < cfg.n:
                return dataclasses.replace(report, stop_reason="max_iters")
            fine.append((v0, report))
            return report

        monkeypatch.setattr(cli, "solve", coarse_fails)
        res = run(cfg)
        v0, report = fine[0]
        cold = solve(cold_system(cfg), cfg.solver)
        assert v0 is None
        assert np.array_equal(report.u, cold.u)
        assert res.iterations == cold.iterations

    def test_reports_fine_iterations_and_total_time(self, solves):
        # the 16 x 16 solution, interpolated, is already at the 32 x 32
        # residual's rounding level, so the fine grid takes no step
        res = run(RunConfig(problem="example2", alpha=0.5, n=32, m=32))
        assert res.converged
        assert res.iterations == solves[-1][0].iterations == 0
        # et_seconds covers the coarse solve as well as the fine one
        assert res.et_seconds >= sum(seconds for _, seconds in solves)


class TestSweep:
    def test_monotone_errors_example2(self):
        template = RunConfig(problem="example2", alpha=0.5)
        rows = sweep(template, [0.5], [4, 5, 6, 7])
        aaes = [r.aae for r in rows]
        assert all(r.converged for r in rows)
        assert all(a > b for a, b in zip(aaes, aaes[1:]))

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            sweep(RunConfig(), [], [4])
        with pytest.raises(ValueError):
            sweep(RunConfig(), [0.5], [])

    @pytest.mark.parametrize("alphas, sizes, expected", [
        (None, None, [(0.3, 8, 4)]),
        ([0.5, 1.0], None, [(0.5, 8, 4), (1.0, 8, 4)]),
        (None, [5, 6], [(0.3, 5, 5), (0.3, 6, 6)]),
    ])
    def test_an_unset_axis_keeps_the_template(self, monkeypatch, alphas, sizes, expected):
        calls = []
        monkeypatch.setattr("fbbmb.cli.run", calls.append)
        template = RunConfig(problem="example2", alpha=0.3, n=8, m=4)
        sweep(template, alphas, sizes)
        assert calls == [dataclasses.replace(template, alpha=a, n=n, m=m) for a, n, m in expected]

    def test_degenerate_size_rejected(self, monkeypatch):
        calls = []
        monkeypatch.setattr("fbbmb.cli.run", calls.append)
        for sizes in ([0], [4, 0], [4, 4.5], [4, float("nan")], [4, float("inf")]):
            with pytest.raises(ValueError):
                sweep(RunConfig(), [0.5], sizes)
        assert calls == []  # rejected before any row runs


@pytest.fixture(scope="module")
def results():
    return sweep(RunConfig(problem="example2", alpha=0.5), [0.5], [4, 5])


class TestSerialization:
    def test_csv_round_trip_exact(self, results):
        rows = parse_run_result_csv(format_csv(results))
        assert len(rows) == 2
        for parsed, res in zip(rows, results):
            assert parsed == res.row()  # repr floats round-trip bit-exactly

    def test_json_fields(self, results):
        docs = json.loads(format_json(results))
        assert docs[0]["problem"] == "example2"
        assert docs[0]["n"] == 4 and docs[1]["n"] == 5
        assert docs[0]["aae"] == results[0].aae
        assert [d["stop_reason"] for d in docs] == [r.stop_reason for r in results] == ["floor"] * 2

    def test_numpy_and_float_inputs_write_plain_numbers(self):
        # RunConfig stores n and m as int and alpha and lam as float, so rows
        # built from numpy scalars and integral floats parse back as numbers
        rows = sweep(RunConfig(problem="example2", n=4, m=4, lam=np.float64(0.5)),
                     alphas=list(np.linspace(0.5, 1, 2)), sizes=[np.int64(4), 5.0])
        parsed = list(csv.DictReader(io.StringIO(format_csv(rows))))
        assert [(float(r["alpha"]), int(r["n"]), int(r["m"]), float(r["lambda"]))
                for r in parsed] == [(0.5, 4, 4, 0.5), (0.5, 5, 5, 0.5),
                                     (1.0, 4, 4, 0.5), (1.0, 5, 5, 0.5)]
        docs = json.loads(format_json(rows))
        assert [d["n"] for d in docs] == [4, 5, 4, 5]

    def test_json_includes_grid_for_mesh_runs(self):
        res = run(RunConfig(problem="example2", n=5, m=5, error_mesh="slice=1.0"))
        docs = json.loads(format_json([res]))
        assert len(docs[0]["grid"]) == 101

    def test_table_layout(self, results):
        text = format_table(results)
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("problem")
        assert "example2" in lines[1]

    def test_deterministic_modulo_timing(self, results):
        again = sweep(RunConfig(problem="example2", alpha=0.5), [0.5], [4, 5])
        for a, b in zip(results, again):
            ra, rb = a.row(), b.row()
            for key in ("et_seconds", "precompute_seconds"):
                ra.pop(key), rb.pop(key)
            assert ra == rb


class TestMain:
    def test_single_run_table(self, capsys):
        code = main(["--problem", "example2", "--n", "5", "--m", "5"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "example2" in out

    def test_csv_to_file(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        code = main([
            "--problem", "example2", "--n", "4", "--m", "4",
            "--format", "csv", "--out", str(path),
        ])
        assert code == EXIT_OK
        rows = parse_run_result_csv(path.read_text())
        assert rows[0]["n"] == 4 and rows[0]["converged"]

    def test_sweep_flags(self, capsys):
        code = main([
            "--problem", "example2", "--sweep-size", "4,5", "--format", "csv",
        ])
        assert code == EXIT_OK
        rows = parse_run_result_csv(capsys.readouterr().out)
        assert [r["n"] for r in rows] == [4, 5]

    def test_trust_region_flag(self, capsys):
        code = main([
            "--problem", "example2", "--n", "4", "--m", "4", "--solver", "trust-region",
        ])
        assert code == EXIT_OK

    def test_invalid_flag_value(self, capsys):
        assert main(["--solver", "bfgs"]) == EXIT_INVALID_CONFIG
        assert main(["--format", "xml"]) == EXIT_INVALID_CONFIG

    def test_invalid_mesh(self, capsys):
        assert main(["--error-mesh", "bogus"]) == EXIT_INVALID_CONFIG

    def test_degenerate_sweep(self, capsys):
        assert main(["--sweep-size", "0"]) == EXIT_INVALID_CONFIG

    def test_bad_sweep_alpha_runs_no_row(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr("fbbmb.cli.run", calls.append)
        code = main(["--problem", "example2", "--n", "4", "--m", "4", "--sweep-alpha", "0.5,1.5"])
        assert code == EXIT_INVALID_CONFIG
        assert calls == []

    def test_problem_checks_run_before_the_first_row(self, capsys, monkeypatch):
        # RunConfig builds each row's ProblemSpec, so a problem that fails its
        # own corner check rejects the sweep before any row runs
        def bad_corners(alpha):
            return ProblemSpec(alpha=alpha, phi=lambda x: 1.0, psi1=lambda t: 0.0,
                               psi2=lambda t: 1.0, f=lambda x, t: 0.0)

        calls = []
        monkeypatch.setattr("fbbmb.cli.REGISTRY", {**REGISTRY, "bad_corners": bad_corners})
        monkeypatch.setattr("fbbmb.cli.run", lambda cfg: calls.append(cfg) or run(cfg))
        code = main(["--problem", "bad_corners", "--n", "4", "--m", "4", "--sweep-alpha", "0.3,0.5"])
        assert code == EXIT_INVALID_CONFIG
        assert capsys.readouterr().err == "error: incompatible corner data: phi(0) != psi1(0+)\n"
        assert calls == []

    def test_lambda_outside_window_runs_no_row(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr("fbbmb.cli.run", calls.append)
        assert main(["--problem", "example2", "--lambda", "-0.6"]) == EXIT_INVALID_CONFIG
        assert calls == []

    def test_out_in_missing_directory(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr("fbbmb.cli.run", calls.append)
        path = tmp_path / "missing" / "x.csv"
        code = main(["--problem", "example2", "--n", "4", "--m", "4", "--out", str(path)])
        assert code == EXIT_INVALID_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert calls == []  # rejected before any solve
        assert not path.parent.exists()

    def test_out_naming_a_directory(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr("fbbmb.cli.run", calls.append)
        code = main(["--problem", "example2", "--n", "4", "--m", "4", "--out", str(tmp_path)])
        assert code == EXIT_INVALID_CONFIG
        assert capsys.readouterr().err == f"error: --out {tmp_path} is a directory\n"
        assert calls == []  # rejected before any solve

    def test_out_naming_an_unwritable_file(self, tmp_path, capsys, monkeypatch):
        # os.access stands in for a read-only file, which root could still write
        path = tmp_path / "x.csv"
        path.write_text("kept")
        calls = []
        monkeypatch.setattr("fbbmb.cli.run", calls.append)
        monkeypatch.setattr("fbbmb.cli.os.access", lambda p, mode: p != str(path))
        code = main(["--problem", "example2", "--n", "4", "--m", "4", "--out", str(path)])
        assert code == EXIT_INVALID_CONFIG
        assert capsys.readouterr().err.startswith(f"error: --out {path}: not writable")
        assert calls == []
        assert path.read_text() == "kept"

    def test_every_format_ends_in_one_newline(self, tmp_path, capsys):
        # on stdout and in the --out file alike, with no blank line after the last row
        for fmt in ("table", "csv", "json"):
            path = tmp_path / f"out.{fmt}"
            args = ["--problem", "example2", "--n", "4", "--m", "4", "--format", fmt]
            assert main(args) == EXIT_OK
            assert main([*args, "--out", str(path)]) == EXIT_OK
            for text in (capsys.readouterr().out, path.read_text()):
                assert text.endswith("\n") and not text.endswith("\n\n"), (fmt, text[-40:])

    def test_sweep_alpha_keeps_the_n_by_m_grid(self, capsys):
        code = main(["--problem", "example2", "--n", "8", "--m", "4",
                     "--sweep-alpha", "0.3,0.5", "--format", "csv"])
        assert code == EXIT_OK
        rows = parse_run_result_csv(capsys.readouterr().out)
        assert [(r["alpha"], r["n"], r["m"]) for r in rows] == [(0.3, 8, 4), (0.5, 8, 4)]

    def test_single_run_failure_is_reported(self, capsys, monkeypatch):
        # a single run is the 1 x 1 sweep: a solve that raises is a failed row
        def singular(sys_d, solver_cfg, v0=None):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(cli, "solve", singular)
        code = main(["--problem", "example2", "--n", "4", "--m", "4"])
        assert code == EXIT_NO_CONVERGENCE
        assert capsys.readouterr().err == \
            "error: example2 alpha=0.5 n=4 m=4 run failed: singular matrix\n"

    def test_failed_sweep_row_names_its_run(self, capsys, monkeypatch):
        # the row that raised is named; the other rows are still written
        def singular_at_n5(sys_d, solver_cfg, v0=None):
            if sys_d.F.shape[0] == 6:  # F is the (n+1) x (m+1) data grid
                raise np.linalg.LinAlgError("singular matrix")
            return solve(sys_d, solver_cfg, v0)

        monkeypatch.setattr(cli, "solve", singular_at_n5)
        code = main(["--problem", "example2", "--sweep-size", "4,5", "--format", "csv"])
        assert code == EXIT_NO_CONVERGENCE
        out, err = capsys.readouterr()
        assert [(r["n"], r["m"]) for r in parse_run_result_csv(out)] == [(4, 4)]
        assert err == "error: example2 alpha=0.5 n=5 m=5 run failed: singular matrix\n"

    def test_defaults_are_the_dataclass_defaults(self, capsys, monkeypatch):
        calls = []

        def recording(cfg):
            calls.append(cfg)
            return RunResult(cfg, 0.0, 0.0, 0.0, 0.0, 1, "floor")

        monkeypatch.setattr("fbbmb.cli.run", recording)
        assert main([]) == EXIT_OK
        assert calls == [RunConfig()]

    @pytest.mark.parametrize("reason", ["max_iters", "singular"])
    def test_nonconvergence_exit_code(self, capsys, monkeypatch, reason):
        args = ["--problem", "example2", "--n", "5", "--m", "5", "--format", "csv"]
        if reason == "max_iters":
            args += ["--max-iters", "1"]
        else:  # getrf reports an exact zero pivot, which rejects the LU
            getrf = solver._getrf
            monkeypatch.setattr(solver, "_getrf", lambda a, overwrite_a:
                                getrf(a, overwrite_a=overwrite_a)[:2] + (1,))
        assert main(args) == EXIT_NO_CONVERGENCE
        out, err = capsys.readouterr()
        (row,) = parse_run_result_csv(out)
        assert not row["converged"] and row["stop_reason"] == reason
        # one line per non-converged row says which run failed and why
        assert err == f"warning: example2 alpha=0.5 n=5 m=5 did not converge: {reason}\n"

    def test_import_graph(self):
        # the package module re-exports nothing, so the numpy-only modules load
        # no scipy. Both Gauss rules are built with numpy, and the solver loads
        # scipy's LAPACK module from its file, so a fresh process that solves a
        # case never runs scipy.linalg's package init (which imports numpy.f2py)
        # or imports scipy.special, and enters no _flapack in sys.modules
        proc = run_fresh_process(
            "import sys\n"
            "import fbbmb.basis, fbbmb.opmatrices, fbbmb.assembly, fbbmb.problems\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "import fbbmb.cli\n"
            "assert fbbmb.cli.main(['--problem', 'example2', '--n', '5', '--m', '5']) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('scipy.linalg', 'scipy.special', 'numpy.f2py', '_flapack'))))")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("[]", "[]"), proc.stdout

    def test_missing_lapack_module_says_where_it_looked(self):
        # a scipy without linalg/_flapack fails fbbmb.solver's import with an
        # ImportError that names the directory searched
        proc = run_fresh_process(
            "import os, tempfile, scipy\n"
            "with tempfile.TemporaryDirectory() as d:\n"
            "    scipy.__path__ = [d]\n"
            "    try:\n"
            "        import fbbmb.solver\n"
            "    except ImportError as e:\n"
            "        print(os.path.join(d, 'linalg'))\n"
            "        print(e)")
        assert proc.returncode == 0, proc.stderr
        where, message = proc.stdout.splitlines()
        assert message == f"scipy's LAPACK module _flapack not found in {where}"

    def test_removed_tol_flag_rejected(self, capsys):
        # convergence is the scale-free rounding floor, with no threshold to set
        assert main(["--problem", "example2", "--n", "4", "--m", "4", "--tol", "1e-8"]) \
            == EXIT_INVALID_CONFIG

    @pytest.mark.parametrize("flag", ["--n1", "--n2", "--lambda1", "--lambda2"])
    def test_removed_quadrature_flags_rejected(self, capsys, flag):
        # the quadrature is sized from m and takes no Gegenbauer index
        assert main(["--problem", "example2", "--n", "4", "--m", "4", flag, "1"]) \
            == EXIT_INVALID_CONFIG

    def test_example2_n32_converges(self, capsys):
        # G does not vanish at the least-squares minimiser: stops at the rounding floor
        assert main(["--problem", "example2", "--n", "32", "--m", "32"]) == EXIT_OK
