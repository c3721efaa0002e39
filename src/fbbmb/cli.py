"""Command-line front end: single runs, alpha/size sweeps, table/CSV/JSON output."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .assembly import assemble, compute_aae, evaluate_on_mesh
from .basis import BasisParams, ParameterDomainError, build_node_set
from .opmatrices import build_operator_bundle
from .problems import get_problem, register_problems
from .solver import SolverConfig, solve

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 2
EXIT_INVALID_CONFIG = 3

CSV_COLUMNS = [
    "problem", "alpha", "n", "m", "lambda", "aae", "max_err", "et_seconds",
    "precompute_seconds", "iterations", "converged",
]


@dataclass(frozen=True)
class RunConfig:
    problem: str = "example1"
    alpha: float = 0.5
    n: int = 7
    m: int = 7
    lam: float = 0.5
    solver: SolverConfig = field(default_factory=SolverConfig)
    error_mesh: str = "collocation"  # "collocation" | "uniform101" | "slice=<t>"

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:  # also rejects nan
            raise ValueError(f"alpha={self.alpha} outside (0, 1]")
        if self.n < 1 or self.m < 1:
            raise ValueError(f"grid degrees n={self.n}, m={self.m} must be >= 1")
        BasisParams(self.lam, 1)  # window validation only
        if self.error_mesh not in ("collocation", "uniform101") and not self.error_mesh.startswith("slice="):
            raise ValueError(f"unknown error mesh {self.error_mesh!r}")
        if self.error_mesh.startswith("slice="):
            ts = float(self.error_mesh[6:])
            if not 0.0 <= ts <= 1.0:
                raise ValueError(f"slice time {ts} outside [0, 1]")


@dataclass(frozen=True)
class RunResult:
    config: RunConfig
    aae: float
    max_err: float
    et_seconds: float
    precompute_seconds: float
    iterations: int
    converged: bool
    grid: Optional[np.ndarray] = None  # (x, t, u_numeric, u_exact, abs_err) rows

    def row(self) -> dict:
        c = self.config
        return {
            "problem": c.problem, "alpha": c.alpha, "n": c.n, "m": c.m,
            "lambda": c.lam, "aae": self.aae, "max_err": self.max_err,
            "et_seconds": self.et_seconds, "precompute_seconds": self.precompute_seconds,
            "iterations": self.iterations, "converged": self.converged,
        }


def run(cfg: RunConfig) -> RunResult:
    """One full pipeline: bases -> operators -> assembly -> solve -> errors."""
    spec = get_problem(cfg.problem, cfg.alpha)
    t_pre = time.perf_counter()
    ns_x = build_node_set(BasisParams(cfg.lam, cfg.n))
    ns_t = build_node_set(BasisParams(cfg.lam, cfg.m))
    ops = build_operator_bundle(ns_x, ns_t, cfg.alpha)
    sys_d = assemble(spec, ops)
    precompute_seconds = time.perf_counter() - t_pre

    report = solve(sys_d, cfg.solver)
    u = report.u

    grid = None
    if spec.exact is None:
        aae = max_err = float("nan")
    elif cfg.error_mesh == "collocation":
        exact = spec.exact(ns_x.nodes[:, None], ns_t.nodes[None, :]).reshape(-1)
        aae = compute_aae(u, exact)
        max_err = float(np.max(np.abs(u - exact)))
    else:
        xs = np.linspace(0.0, 1.0, 101)
        ts = xs if cfg.error_mesh == "uniform101" else np.array([float(cfg.error_mesh[6:])])
        U = evaluate_on_mesh(u, ns_x, ns_t, xs, ts)
        E = spec.exact(xs[:, None], ts[None, :]) * np.ones((xs.size, ts.size))
        aae = compute_aae(U, E)
        max_err = float(np.max(np.abs(U - E)))
        X, T = np.meshgrid(xs, ts, indexing="ij")
        grid = np.column_stack(
            [X.ravel(), T.ravel(), U.ravel(), E.ravel(), np.abs(U - E).ravel()]
        )
    return RunResult(cfg, aae, max_err, report.wall_time, precompute_seconds,
                     report.iterations, report.converged, grid)


def sweep(template: RunConfig, alphas: list[float], sizes: list[int]) -> list[RunResult | Exception]:
    """Cartesian sweep over alpha and n = m; failures are recorded per row."""
    if not alphas or not sizes:
        raise ValueError("sweep lists must be non-empty")
    # RunConfig validates every row before the first one runs
    configs = [replace(template, alpha=a, n=s, m=s) for a in alphas for s in sizes]
    results: list[RunResult | Exception] = []
    for cfg in configs:
        try:
            results.append(run(cfg))
        except Exception as exc:  # recorded per row, sweep continues
            results.append(exc)
    return results


def format_table(results: list[RunResult]) -> str:
    header = f"{'problem':<18}{'alpha':>7}{'n':>4}{'m':>4}{'aae':>13}{'max_err':>13}{'et[s]':>9}{'iters':>7}{'conv':>6}"
    lines = [header]
    for r in results:
        lines.append(
            f"{r.config.problem:<18}{r.config.alpha:>7.3g}{r.config.n:>4}{r.config.m:>4}"
            f"{r.aae:>13.4e}{r.max_err:>13.4e}{r.et_seconds:>9.3f}{r.iterations:>7}"
            f"{str(r.converged):>6}"
        )
    return "\n".join(lines)


def format_csv(results: list[RunResult]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for r in results:
        writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in r.row().items()})
    return buf.getvalue()


def format_json(results: list[RunResult]) -> str:
    docs = []
    for r in results:
        doc = r.row()
        if r.grid is not None:
            doc["grid"] = r.grid.tolist()
        docs.append(doc)
    return json.dumps(docs, indent=2)


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
        })
    return rows


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fbbmb",
        description="Spectral solver for the time-fractional BBM-Burgers equation",
    )
    p.add_argument("--problem", default="example1", choices=sorted(register_problems()))
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--m", type=int, default=7)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--solver", choices=["newton", "trust-region"], default="newton")
    p.add_argument("--error-mesh", default="collocation",
                   help="collocation | uniform101 | slice=<t>")
    p.add_argument("--format", dest="fmt", choices=["table", "csv", "json"], default="table")
    p.add_argument("--out", dest="out", default=None)
    p.add_argument("--sweep-alpha", default=None, help="comma-separated alpha list")
    p.add_argument("--sweep-size", default=None, help="comma-separated n=m list")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID_CONFIG if exc.code not in (0, None) else 0
    try:
        solver_cfg = SolverConfig(
            tol_residual=args.tol,
            max_iters=args.max_iters,
            method=args.solver.replace("-", "_"),
        )
        cfg = RunConfig(
            problem=args.problem, alpha=args.alpha, n=args.n, m=args.m,
            lam=args.lam, solver=solver_cfg, error_mesh=args.error_mesh,
        )
        if args.sweep_alpha or args.sweep_size:
            alphas = [float(a) for a in (args.sweep_alpha or str(args.alpha)).split(",")]
            sizes = [int(s) for s in (args.sweep_size or str(args.n)).split(",")]
            rows = sweep(cfg, alphas, sizes)
        else:
            rows = [run(cfg)]
    except (ValueError, ParameterDomainError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG

    failures = [r for r in rows if isinstance(r, Exception)]
    results = [r for r in rows if not isinstance(r, Exception)]
    for exc in failures:
        print(f"error: run failed: {exc}", file=sys.stderr)

    fmt = {"table": format_table, "csv": format_csv, "json": format_json}[args.fmt]
    text = fmt(results)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)

    if failures or not all(r.converged for r in results):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
