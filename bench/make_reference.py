"""Write reference_aae.json: the AAE of every benchmark case under the program
as it stands. The benchmark's accuracy bounds derive from these values, so
regenerate only to reset the accuracy baseline on purpose.

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import fbbmb.cli as cli
    from fbbmb.solver import SolverConfig

    import workloads

    aae = {}
    for name, cases in workloads.WORKLOADS.items():
        for case in cases:
            cfg = cli.RunConfig(problem=case["problem"], alpha=case["alpha"], n=case["n"],
                                m=case["m"], solver=SolverConfig(method=case["method"]),
                                error_mesh=case["error_mesh"])
            aae[workloads.case_key(case)] = cli.run(cfg).aae
        print(f"{name}: {len(cases)} cases", file=sys.stderr)
    doc = {
        "rule": f"a solve fails if its AAE > max({workloads.AAE_FACTOR:g} * reference,"
                f" {workloads.AAE_FLOOR:g})",
        "aae": aae,
    }
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
