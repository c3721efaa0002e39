"""Case lists of the benchmark workloads, their per-pass orders, and the fixed
accuracy bound of every case.

A case is a plain dict that the workload process turns into one
`fbbmb.cli.RunConfig`; its key names it in the reference table and in reports.
This module imports nothing from the program, so the launcher stays light.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

PROBLEMS = ("example1", "example2", "manufactured:poly", "manufactured:trig")
ERROR_MESHES = ("collocation", "slice=1.0", "uniform101")

# A solve fails when its AAE exceeds AAE_FACTOR times the reference AAE of its
# case, or AAE_FLOOR when the reference itself sits at roundoff level.
AAE_FACTOR = 10.0
AAE_FLOOR = 1e-14
REFERENCE_FILE = Path(__file__).with_name("reference_aae.json")


def _cases(problems, alphas, sizes, method):
    combos = [(p, a, s) for p in problems for a in alphas for s in sizes]
    return [
        {"problem": p, "alpha": a, "n": s, "m": s, "method": method,
         "error_mesh": ERROR_MESHES[i % len(ERROR_MESHES)]}
        for i, (p, a, s) in enumerate(combos)
    ]


WORKLOADS = {
    "small_sweep": _cases(PROBLEMS, (0.1, 0.3, 0.5, 0.75, 1.0), range(4, 13), "newton"),
    "large_grid": _cases(("example1", "example2"), (0.5,), (32, 40), "newton"),
    "trust_region": _cases(("example1", "example2"), (0.5,), (16, 24, 32), "trust_region"),
}


def case_key(case: dict) -> str:
    return (f"{case['problem']}|alpha={case['alpha']}|n={case['n']}|m={case['m']}"
            f"|{case['method']}|{case['error_mesh']}")


def warmup_case(cases: list[dict]) -> dict:
    """The cheapest relative of a workload's first case: same problem, method
    and mesh at n = m = 4."""
    return dict(cases[0], n=4, m=4)


def tiny_case(cases: list[dict]) -> dict:
    """The workload's cheapest case (smallest grid, first in canonical order)."""
    return min(cases, key=lambda c: c["n"] * c["m"])


def pass_orders(n_cases: int, seed: int):
    """Endless sequence of case orders, one per pass. The seed decides the
    order and nothing else."""
    rng = random.Random(seed)
    while True:
        yield rng.sample(range(n_cases), n_cases)


def load_reference() -> dict[str, float]:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)["aae"]


def aae_bound(reference_aae: float) -> float:
    return max(AAE_FACTOR * reference_aae, AAE_FLOOR)
