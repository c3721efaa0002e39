"""Command-line front end: alpha/size sweeps, table/CSV/JSON output.

`main` runs every invocation through `sweep`, which validates every row before
the first solve; a single run is the 1 x 1 sweep of the flags' alpha and (n, m).
Each row records its fine solve's stop reason, and a row that did not converge
gets one stderr line naming the run and that reason; a row whose run raised is
a `RunFailure`, and its stderr line names the run and the exception.

`run` solves a grid by nested iteration: it first solves the same problem at
(n // 2, m // 2), recursively while both halves stay at least MIN_COARSE, and
starts the fine Gauss-Newton loop from that solution interpolated onto the fine
nodes. A coarse solve that did not converge is not used, and the fine solve
then starts from v = 0, as it does on every grid with min(n, m) < 2 * MIN_COARSE.
Every interpolation in `run`, of a coarse v onto the next grid's nodes and of the
solution u onto the error mesh (the nodes themselves for "collocation"), is one
`evaluate_on_mesh` call.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .assembly import assemble, compute_aae, evaluate_on_mesh
from .basis import build_node_set, check_lambda
from .opmatrices import build_operator_bundle
from .problems import REGISTRY
from .solver import SolverConfig, solve

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 2
EXIT_INVALID_CONFIG = 3
MIN_COARSE = 8  # smallest grid degree a coarse level of the cascade solves on

CSV_COLUMNS = [
    "problem", "alpha", "n", "m", "lambda", "aae", "max_err", "et_seconds",
    "precompute_seconds", "iterations", "converged", "stop_reason",
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
        if self.problem not in REGISTRY:
            raise ValueError(f"unknown problem {self.problem!r}; known: {sorted(REGISTRY)}")
        if not 0.0 < self.alpha <= 1.0:  # also rejects nan
            raise ValueError(f"alpha={self.alpha} outside (0, 1]")
        if not (float(self.n).is_integer() and float(self.m).is_integer()):  # also nan, inf
            raise ValueError(f"grid degrees n={self.n}, m={self.m} must be integers")
        if self.n < 1 or self.m < 1:
            raise ValueError(f"grid degrees n={self.n}, m={self.m} must be >= 1")
        check_lambda(self.lam)
        if self.error_mesh not in ("collocation", "uniform101") and not self.error_mesh.startswith("slice="):
            raise ValueError(f"unknown error mesh {self.error_mesh!r}")
        if self.error_mesh.startswith("slice="):
            ts = float(self.error_mesh[6:])
            if not 0.0 <= ts <= 1.0:
                raise ValueError(f"slice time {ts} outside [0, 1]")
        for name, kind in (("alpha", float), ("n", int), ("m", int), ("lam", float)):
            object.__setattr__(self, name, kind(getattr(self, name)))


@dataclass(frozen=True)
class RunResult:
    config: RunConfig
    aae: float
    max_err: float
    et_seconds: float
    precompute_seconds: float
    iterations: int
    converged: bool
    stop_reason: str  # the fine solve's SolveReport.stop_reason
    grid: Optional[np.ndarray] = None  # (x, t, u_numeric, u_exact, abs_err) rows

    def row(self) -> dict:
        """The CSV_COLUMNS of the config (`lambda` is its `lam`) and of this result."""
        values = {**vars(self.config), "lambda": self.config.lam, **vars(self)}
        return {k: values[k] for k in CSV_COLUMNS}


@dataclass(frozen=True)
class RunFailure:
    """A sweep row whose run raised `error`."""
    config: RunConfig
    error: Exception


def _run_name(cfg: RunConfig) -> str:
    return f"{cfg.problem} alpha={cfg.alpha} n={cfg.n} m={cfg.m}"


def _nested_solve(spec, cfg: RunConfig):
    """(system, SolveReport, set-up seconds) of cfg's grid.

    The solve starts from the solution at (n // 2, m // 2), interpolated onto
    this grid's nodes, when that grid is at least MIN_COARSE on each axis and
    its own (recursive) solve converged; from v = 0 otherwise. The set-up time
    covers this grid's node sets, operators and assembly only."""
    t0 = time.perf_counter()
    ns_x = build_node_set(cfg.lam, cfg.n)
    ns_t = build_node_set(cfg.lam, cfg.m)
    sys_d = assemble(spec, build_operator_bundle(ns_x, ns_t, cfg.alpha))
    setup_seconds = time.perf_counter() - t0

    v0 = None
    if min(cfg.n, cfg.m) // 2 >= MIN_COARSE:
        cs, coarse, _ = _nested_solve(spec, replace(cfg, n=cfg.n // 2, m=cfg.m // 2))
        if coarse.converged:
            v0 = evaluate_on_mesh(coarse.v, cs.ns_x, cs.ns_t, ns_x.nodes, ns_t.nodes).reshape(-1)
    return sys_d, solve(sys_d, cfg.solver, v0), setup_seconds


def run(cfg: RunConfig) -> RunResult:
    """One full pipeline: bases -> operators -> assembly -> nested solve -> errors.

    `iterations` counts the fine grid's Gauss-Newton steps. `precompute_seconds`
    is the fine grid's set-up (node sets, operators, assembly); `et_seconds` is
    the rest of the solve: the coarse levels' set-up and solves, the
    interpolations, and the fine solve. The error mesh is the grid's nodes
    ("collocation") or 101 uniform x at 101 uniform t ("uniform101") or at one t."""
    spec = REGISTRY[cfg.problem](cfg.alpha)
    t0 = time.perf_counter()
    sys_d, report, precompute_seconds = _nested_solve(spec, cfg)
    et_seconds = time.perf_counter() - t0 - precompute_seconds

    grid = None
    xs, ts = sys_d.ns_x.nodes, sys_d.ns_t.nodes
    if cfg.error_mesh != "collocation":
        xs = np.linspace(0.0, 1.0, 101)
        ts = xs if cfg.error_mesh == "uniform101" else np.array([float(cfg.error_mesh[6:])])
    U = evaluate_on_mesh(report.u, sys_d.ns_x, sys_d.ns_t, xs, ts)
    E = spec.exact(xs[:, None], ts[None, :]) * np.ones((xs.size, ts.size))
    aae = compute_aae(U, E)
    max_err = float(np.max(np.abs(U - E)))
    if cfg.error_mesh != "collocation":
        X, T = np.meshgrid(xs, ts, indexing="ij")
        grid = np.column_stack([X.ravel(), T.ravel(), U.ravel(), E.ravel(), np.abs(U - E).ravel()])
    return RunResult(cfg, aae, max_err, et_seconds, precompute_seconds,
                     report.iterations, report.converged, report.stop_reason, grid)


def sweep(template: RunConfig, alphas: list[float] | None = None,
          sizes: list[int] | None = None) -> list[RunResult | RunFailure]:
    """Cartesian sweep over alpha and n = m, each failure recorded in its row.
    A list left None keeps the template's alpha, or its own (n, m); an empty one
    is rejected. RunConfig validates every row before the first one runs."""
    alphas = [template.alpha] if alphas is None else alphas
    grids = [(template.n, template.m)] if sizes is None else [(s, s) for s in sizes]
    if not alphas or not grids:
        raise ValueError("sweep lists must be non-empty")
    configs = [replace(template, alpha=a, n=n, m=m) for a in alphas for n, m in grids]
    results: list[RunResult | RunFailure] = []
    for cfg in configs:
        try:
            results.append(run(cfg))
        except Exception as exc:  # recorded per row, sweep continues
            results.append(RunFailure(cfg, exc))
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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fbbmb",
        description="Spectral solver for the time-fractional BBM-Burgers equation",
    )
    run_d, solver_d = RunConfig(), SolverConfig()
    p.add_argument("--problem", default=run_d.problem, choices=sorted(REGISTRY))
    p.add_argument("--alpha", type=float, default=run_d.alpha)
    p.add_argument("--n", type=int, default=run_d.n)
    p.add_argument("--m", type=int, default=run_d.m)
    p.add_argument("--lambda", dest="lam", type=float, default=run_d.lam)
    p.add_argument("--max-iters", type=int, default=solver_d.max_iters)
    p.add_argument("--solver", choices=["newton", "trust-region"],
                   default=solver_d.method.replace("_", "-"))
    p.add_argument("--error-mesh", default=run_d.error_mesh,
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
        solver_cfg = SolverConfig(max_iters=args.max_iters, method=args.solver.replace("-", "_"))
        cfg = RunConfig(problem=args.problem, alpha=args.alpha, n=args.n, m=args.m,
                        lam=args.lam, solver=solver_cfg, error_mesh=args.error_mesh)
        if args.out and os.path.isdir(args.out):
            raise ValueError(f"--out {args.out} is a directory")
        # an existing file must be writable; a new one needs a writable directory
        if args.out and not os.access(args.out if os.path.exists(args.out) else
                                      os.path.dirname(args.out) or ".", os.W_OK):
            raise ValueError(f"--out {args.out}: not writable, or its directory is missing or not writable")
        alphas = None if args.sweep_alpha is None else [float(a) for a in args.sweep_alpha.split(",")]
        sizes = None if args.sweep_size is None else [int(s) for s in args.sweep_size.split(",")]
        rows = sweep(cfg, alphas, sizes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG

    failures = [r for r in rows if isinstance(r, RunFailure)]
    results = [r for r in rows if not isinstance(r, RunFailure)]
    for f in failures:
        print(f"error: {_run_name(f.config)} run failed: {f.error}", file=sys.stderr)
    for r in results:
        if not r.converged:
            print(f"warning: {_run_name(r.config)} did not converge: {r.stop_reason}",
                  file=sys.stderr)

    fmt = {"table": format_table, "csv": format_csv, "json": format_json}[args.fmt]
    text = fmt(results)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)

    return EXIT_NO_CONVERGENCE if failures or not all(r.converged for r in results) else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
