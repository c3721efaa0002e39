"""Spans recorded from outside the program, around the calls into each layer.

`Tracer.install` replaces the names that `fbbmb.cli` and `fbbmb.solver` call
through (and `numpy.linalg.lstsq`, the solver's dense factorisation) by timing
wrappers; `Tracer.uninstall` puts the originals back. The benchmark records
the top-level `cli.run` span itself. Spans stay in memory as
[name, start, end, parent index, computed count] until the pass ends.

Layer names are the program's modules. A span's self time is its duration
minus that of its direct children.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

# Per-layer metrics of one traced pass, with their units. Times are summed over
# the pass; `*_bytes` are the largest in the pass; flops are summed.
PER_LAYER_UNITS = {
    "cli.run_s": "s",
    "cli.self_s": "s",
    "basis.node_set_s": "s",
    "basis.node_set_calls": "count",
    "opmatrices.bundle_s": "s",
    "opmatrices.bundle_calls": "count",
    "assembly.assemble_s": "s",
    "assembly.residual_s": "s",
    "assembly.residual_calls": "count",
    "assembly.jacobian_s": "s",
    "assembly.jacobian_calls": "count",
    "assembly.mesh_eval_s": "s",
    "assembly.system_bytes": "B",
    "assembly.jacobian_bytes": "B",
    "solver.solve_s": "s",
    "solver.self_s": "s",
    "solver.iterations": "count",
    "solver.residual_per_iter": "ratio",
    "solver.jacobian_per_iter": "ratio",
    "solver.linear_step_s": "s",
    "solver.linear_step_calls": "count",
    "solver.linear_step_flops": "flop",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.top_span_s": "s",
}

# The computed counts, with the formula each evaluates to for today's program
# (N = (n+1)(m+1) unknowns, M = N + m + 1 rows, 8-byte floats).
COMPUTED = {
    "assembly.system_bytes": "computed: sum of nbytes of the arrays assemble returns"
                             " = 8*(3N^2 + (m+1)N + 3N + m+1), largest system in the pass",
    "assembly.jacobian_bytes": "computed: nbytes of the array jacobian returns"
                               " = 8*(N+m+1)^2, largest in the pass",
    "solver.linear_step_flops": "computed: 4*M*N^2 + 8*N^3 per lstsq call on an M x N"
                                " matrix (SVD least squares, Golub-Van Loan), summed over the pass",
}


def system_bytes(system) -> int:
    return sum(getattr(system, f.name).nbytes for f in dataclasses.fields(system)
               if isinstance(getattr(system, f.name), np.ndarray))


def lstsq_flops(a) -> int:
    rows, cols = np.shape(a)
    return 4 * rows * cols**2 + 8 * cols**3


def _targets():
    """(owner, attribute, span name, computed count) of every wrapped call. The
    top-level `cli.run` span is recorded by the caller, see `Tracer.wrap`."""
    import fbbmb.cli as cli
    import fbbmb.solver as solver

    return [
        (cli, "build_node_set", "basis.node_set", None),
        (cli, "build_operator_bundle", "opmatrices.bundle", None),
        (cli, "assemble", "assembly.assemble", lambda a, out: system_bytes(out)),
        (cli, "solve", "solver.solve", None),
        (cli, "evaluate_on_mesh", "assembly.mesh_eval", None),
        (solver, "residual", "assembly.residual", None),
        (solver, "jacobian", "assembly.jacobian", lambda a, out: out.nbytes),
        (solver, "reconstruct", "assembly.reconstruct", None),
        (np.linalg, "lstsq", "solver.linear_step", lambda a, out: lstsq_flops(a[0])),
    ]


def installed() -> list[str]:
    """Names of wrapped calls that currently hold a trace wrapper."""
    return [f"{owner.__name__}.{attr}" for owner, attr, _, _ in _targets()
            if hasattr(getattr(owner, attr), "bench_span")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, count=None):
        """`fn` recording a span named `name` (and a computed count) per call."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                rec[4] = count(args, out)
            return out

        traced.bench_span = name
        return traced

    def install(self):
        for owner, attr, name, count in _targets():
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))

    def uninstall(self):
        patched, self._patched = self._patched, []
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    def summarize(self, iterations: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far (one pass)."""
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        selft: dict[str, float] = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        top = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            selft[name] = selft.get(name, 0.0) + dur - child[i]
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                top += dur

        def counts(name, reduce):
            vals = [rec[4] for rec in self.spans if rec[0] == name]
            return reduce(vals) if vals else 0

        iters = max(iterations, 1)
        return {
            "cli.run_s": total.get("cli.run", 0.0),
            "cli.self_s": selft.get("cli.run", 0.0),
            "basis.node_set_s": total.get("basis.node_set", 0.0),
            "basis.node_set_calls": calls.get("basis.node_set", 0),
            "opmatrices.bundle_s": total.get("opmatrices.bundle", 0.0),
            "opmatrices.bundle_calls": calls.get("opmatrices.bundle", 0),
            "assembly.assemble_s": total.get("assembly.assemble", 0.0),
            "assembly.residual_s": total.get("assembly.residual", 0.0),
            "assembly.residual_calls": calls.get("assembly.residual", 0),
            "assembly.jacobian_s": total.get("assembly.jacobian", 0.0),
            "assembly.jacobian_calls": calls.get("assembly.jacobian", 0),
            "assembly.mesh_eval_s": total.get("assembly.mesh_eval", 0.0),
            "assembly.system_bytes": counts("assembly.assemble", max),
            "assembly.jacobian_bytes": counts("assembly.jacobian", max),
            "solver.solve_s": total.get("solver.solve", 0.0),
            "solver.self_s": selft.get("solver.solve", 0.0),
            "solver.iterations": iterations,
            "solver.residual_per_iter": calls.get("assembly.residual", 0) / iters,
            "solver.jacobian_per_iter": calls.get("assembly.jacobian", 0) / iters,
            "solver.linear_step_s": total.get("solver.linear_step", 0.0),
            "solver.linear_step_calls": calls.get("solver.linear_step", 0),
            "solver.linear_step_flops": counts("solver.linear_step", sum),
            "trace.top_span_s": top,
        }
