"""Self-check of the benchmark. For every workload it checks that the seed
changes only the order of cases, then runs the workload's cheapest case for
about a second untraced and a second traced, and checks that every metric
BENCHMARK.json names is reported, with its unit and a finite value, and that
every solve passed its accuracy bound. The second of passes lets the traced
run take its overhead as a median over several pass pairs. Its run records go to `.bench_out/selfcheck/`, apart from
those of real runs. Takes about fifteen seconds:

    python3 bench/selfcheck.py
"""

from __future__ import annotations

import itertools
import json
import math

import run
import workloads


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck failed: {what}")


def main() -> None:
    run.OUT_DIR = run.OUT_DIR / "selfcheck"
    with open(run.ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    wanted = {kind: {m["name"]: m["unit"] for m in doc[kind]} for kind in ("end_to_end", "per_layer")}
    check({w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for name, cases in workloads.WORKLOADS.items():
        one, two = (run.build_job(name, cases, seed, 1.0, 0) for seed in (1, 2))
        changed = {k for k in one if one[k] != two[k]}
        check(changed <= {"seed", "spans_path"}, f"{name}: the seed changes {changed}")

        def orders(seed):
            return list(itertools.islice(workloads.pass_orders(len(cases), seed), 3))

        check(all(sorted(o) == list(range(len(cases))) for o in orders(1) + orders(2)),
              f"{name}: a pass order is not a permutation of the cases")
        check(orders(1) == orders(1), f"{name}: pass orders are not reproducible")
        check(orders(1) != orders(2), f"{name}: seeds 1 and 2 give the same orders")

        tiny = [workloads.tiny_case(cases)]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run.measure(name, tiny, seed=1, seconds=1.0, trace=trace)
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            check(units == wanted[kind], f"{name} trace={trace}: metrics {units} != {wanted[kind]}")
            check(all(math.isfinite(m["value"]) for m in result["metrics"].values()),
                  f"{name} trace={trace}: a metric is not finite")
            check(result["correct"] and result["attempted"] >= 1 and result["failed"] == 0,
                  f"{name} trace={trace}: {workloads.case_key(tiny[0])} failed")
        print(f"{name}: ok ({workloads.case_key(tiny[0])})", flush=True)
    print("selfcheck passed")


if __name__ == "__main__":
    main()
