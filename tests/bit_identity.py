"""One sha256 over the program's results, to show that a change leaves them
bit-identical.

Run it on two trees, say a `git archive` of the parent commit and the working
tree, and compare the digests:

    PYTHONPATH=<tree>/src python tests/bit_identity.py

It prints the path of the `fbbmb` it imported, one line of stress counts per
method, then the digest, always the last line. BLAS runs on one thread. The
digest covers:
- every case of `bench/workloads.py` through `cli.run`: `aae` and `max_err` as
  `float.hex`, `iterations` and `stop_reason`;
- each README "Paper tables" sweep through `cli.main` with `--format csv`: its
  exit code, its stderr and its rows without the two timing columns;
- for both, every cascade level (`cli.solve`): its iterations, stop reason,
  LUs (`factorizations`) and the sha1 of `v`;
- the first 500 draws of `test_solver.TestStressFixture` under both methods,
  each a cold `solve`: the sha256 of `v`, its iterations, stop reason and LUs.
The stress counts are how many of those draws are right, the indices of the
false verdicts ("floor" on a wrong answer) and the LUs.
The cases, the sweeps and the draws are read from this file's tree, so two
runs digest the same inputs. The file is not a pytest module.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import fbbmb
import fbbmb.cli as cli
from fbbmb.solver import SolverConfig

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS, case_key
from test_solver import TestStressFixture

STRESS_DRAWS = 500


def paper_tables() -> list[list[str]]:
    """The argument lists of the `fbbmb` commands in README "Paper tables"."""
    section = (ROOT / "README.md").read_text().split("\n## Paper tables\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return [line.split()[1:] for line in section.splitlines() if line.startswith("fbbmb ")]


def main() -> None:
    levels = []
    solve = cli.solve

    def recording_solve(*args):
        report = solve(*args)
        levels.append([report.iterations, report.stop_reason, report.factorizations,
                       hashlib.sha1(report.v.tobytes()).hexdigest()])
        return report

    cli.solve = recording_solve
    records = []
    for name, cases in WORKLOADS.items():
        for case in cases:
            r = cli.run(cli.RunConfig(
                problem=case["problem"], alpha=case["alpha"], n=case["n"], m=case["m"],
                solver=SolverConfig(method=case["method"]), error_mesh=case["error_mesh"]))
            records.append([name, case_key(case), r.aae.hex(), r.max_err.hex(), r.iterations,
                            r.stop_reason, levels[:]])
            levels.clear()
    for argv in paper_tables():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--format", "csv"])
        rows = [{k: v for k, v in row.items() if not k.endswith("_seconds")}
                for row in csv.DictReader(io.StringIO(out.getvalue()))]
        records.append([argv, code, err.getvalue(), rows, levels[:]])
        levels.clear()
    cli.solve = solve
    print(os.path.dirname(fbbmb.__file__))
    for method in ("newton", "trust_region"):
        right, false, lus = 0, [], 0
        for i, case in enumerate(TestStressFixture.draw(STRESS_DRAWS)):
            _, rep, *_, ok = TestStressFixture.solve_case(case, method)
            records.append([method, i, hashlib.sha256(rep.v.tobytes()).hexdigest(),
                            rep.iterations, rep.stop_reason, rep.factorizations])
            right += ok
            lus += rep.factorizations
            if rep.converged and not ok:
                false.append(i)
        print(f"{method}: {right} right, false verdicts {false}, {lus} LUs")
    print(hashlib.sha256(json.dumps(records).encode()).hexdigest())


if __name__ == "__main__":
    main()
