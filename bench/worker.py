"""One workload process.

Reads a job (one JSON line) on stdin, imports the program, makes one warm-up
solve and prints `ready`; the launcher's clock for set-up time stops there.
Then it times passes over the case list until the job's seconds are spent,
checks every solve against its AAE bound, and prints one JSON result line.

In a traced job, untraced and traced passes alternate; only the traced passes
carry wrappers, and their spans go to the job's spans file.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
import time


def _config(case, cli, SolverConfig):
    return cli.RunConfig(
        problem=case["problem"], alpha=case["alpha"], n=case["n"], m=case["m"],
        solver=SolverConfig(method=case["method"]), error_mesh=case["error_mesh"],
    )


def _metadata(np, scipy):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pin": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
    }


class Tally:
    """Outcome of every solve in the timed and traced passes."""

    def __init__(self, keys, bounds):
        self.keys, self.bounds = keys, bounds
        self.attempted = 0
        self.failed: dict[str, list] = {}
        self.unconverged: dict[str, int] = {}

    def add(self, i, aae, converged, error):
        key = self.keys[i]
        self.attempted += 1
        if error is not None or not aae <= self.bounds[i]:
            reason = error or f"aae {aae:.3e} > bound {self.bounds[i]:.3e}"
            self.failed.setdefault(key, [0, reason])[0] += 1
        elif not converged:
            self.unconverged[key] = self.unconverged.get(key, 0) + 1


def solve_one(cli, cfg):
    r = cli.run(cfg)
    # r, with its error-mesh rows, is freed on return, inside a traced span
    return r.aae, r.converged, r.iterations


def run_pass(solve, cli, configs, order, tally):
    """One pass over the cases in the given order; returns (wall s, iterations,
    per-case seconds in case order)."""
    outcomes = []
    times = [0.0] * len(configs)
    t0 = t_case = time.perf_counter()
    for i in order:
        try:
            outcomes.append((i, *solve(cli, configs[i]), None))
        except Exception as exc:  # a raising solve is a failed solve; the pass goes on
            outcomes.append((i, math.nan, False, 0, f"{type(exc).__name__}: {exc}"))
        now = time.perf_counter()
        times[i], t_case = now - t_case, now
    wall = time.perf_counter() - t0
    for i, aae, converged, _, error in outcomes:
        tally.add(i, aae, converged, error)
    return wall, sum(o[3] for o in outcomes), times


def main():
    job = json.loads(sys.stdin.readline())
    import numpy as np
    import scipy
    import fbbmb
    import fbbmb.cli as cli
    from fbbmb.solver import SolverConfig

    src = os.path.realpath(job["src"])
    if not os.path.realpath(fbbmb.__file__).startswith(src + os.sep):
        raise SystemExit(f"fbbmb imported from {fbbmb.__file__}, not from {src}")
    cli.run(_config(job["warmup"], cli, SolverConfig))
    print("ready", flush=True)
    if job["setup_only"]:
        return

    import spans
    import workloads

    configs = [_config(c, cli, SolverConfig) for c in job["cases"]]
    tally = Tally(job["keys"], job["bounds"])
    orders = workloads.pass_orders(len(configs), job["seed"])
    untraced, traced, layers, case_times = [], [], [], []
    span_file = open(job["spans_path"], "w") if job["trace"] else None
    start = time.perf_counter()
    try:
        while True:
            if spans.installed():
                raise RuntimeError(f"untraced pass with wrappers installed: {spans.installed()}")
            wall, _, times = run_pass(solve_one, cli, configs, next(orders), tally)
            untraced.append(wall)
            case_times.append(times)
            if job["trace"]:
                tracer = spans.Tracer()
                tracer.install()
                try:
                    wall, iterations, _ = run_pass(tracer.wrap("cli.run", solve_one), cli, configs,
                                                next(orders), tally)
                finally:
                    tracer.uninstall()
                if spans.installed():
                    raise RuntimeError(f"wrappers left after traced pass: {spans.installed()}")
                traced.append(wall)
                layers.append(tracer.summarize(iterations))
                for name, t0, t1, parent, count in tracer.spans:
                    span_file.write(json.dumps([len(traced), name, t0, t1, parent, count]) + "\n")
            elapsed = time.perf_counter() - start
            cycle = max(untraced) + (max(traced) if traced else 0.0)
            if elapsed + cycle > job["seconds"]:
                break
    finally:
        if span_file:
            span_file.close()

    result = {
        "pass_times": untraced,
        "case_times": case_times,
        "traced_pass_times": traced,
        "layers": layers,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "unconverged": tally.unconverged,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "meta": _metadata(np, scipy),
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
