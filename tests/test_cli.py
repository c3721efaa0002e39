import json
import math

import numpy as np
import pytest

from fbbmb.assembly import assemble, evaluate_on_mesh
from fbbmb.basis import BasisParams, build_node_set
from fbbmb.cli import (
    EXIT_INVALID_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    RunConfig,
    format_csv,
    format_json,
    format_table,
    main,
    parse_run_result_csv,
    run,
    sweep,
)
from fbbmb.opmatrices import build_operator_bundle
from fbbmb.problems import get_problem, register_problems
from fbbmb.solver import SolverConfig, solve


class TestProblemRegistry:
    def test_known_names(self):
        names = register_problems()
        assert {"example1", "example2", "manufactured:poly", "manufactured:trig"} <= set(names)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown problem"):
            get_problem("nope", 0.5)

    def test_example1_boundary_values(self):
        spec = get_problem("example1", 0.5)
        # u = x^4 (x-1) t^1.5 vanishes on x=0, x=1, t=0
        assert spec.exact(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert spec.exact(0.0, 0.7) == pytest.approx(0.0, abs=1e-15)
        assert spec.f(0.0, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_example2_exact_values(self):
        spec = get_problem("example2", 0.5)
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
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises((ValueError,)):
            RunConfig(**kwargs)


class TestRun:
    def test_example2_accuracy_at_size7(self):
        res = run(RunConfig(problem="example2", alpha=0.5, n=7, m=7))
        assert res.converged
        assert res.aae < 1e-6
        assert res.max_err >= res.aae
        assert res.precompute_seconds >= 0.0

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

    @pytest.mark.parametrize("mesh", ["slice=1.0", "uniform101"])
    def test_grid_rows_bit_equal_to_per_point_rows(self, mesh):
        res = run(RunConfig(problem="example2", alpha=0.5, n=6, m=6, error_mesh=mesh))
        spec = get_problem("example2", 0.5)
        ns_x = build_node_set(BasisParams(0.5, 6))
        ns_t = build_node_set(BasisParams(0.5, 6))
        sys_d = assemble(spec, build_operator_bundle(ns_x, ns_t, 0.5))
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

    def test_degenerate_size_rejected(self, monkeypatch):
        calls = []
        monkeypatch.setattr("fbbmb.cli.run", calls.append)
        for sizes in ([0], [4, 0]):
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

    def test_nonconvergence_exit_code(self, capsys):
        code = main(["--problem", "example2", "--n", "5", "--m", "5", "--max-iters", "1"])
        assert code == EXIT_NO_CONVERGENCE

    @pytest.mark.parametrize("flag", ["--n1", "--n2", "--lambda1", "--lambda2"])
    def test_removed_quadrature_flags_rejected(self, capsys, flag):
        # the quadrature is sized from m and takes no Gegenbauer index
        assert main(["--problem", "example2", "--n", "4", "--m", "4", flag, "1"]) \
            == EXIT_INVALID_CONFIG

    def test_example2_n32_converges(self, capsys):
        # G does not vanish at the least-squares minimiser: stops at the rounding floor
        assert main(["--problem", "example2", "--n", "32", "--m", "32"]) == EXIT_OK
