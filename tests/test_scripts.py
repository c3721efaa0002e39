"""Smoke test of the study scripts: each runs to completion in a subprocess and
prints its results table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "args, tables, rows",
    [
        (["scripts/reproduce_error_tables.py", "--sizes", "4,5"], 4, 8),
        (["scripts/fractional_order_study.py", "--size", "6", "--alphas", "0.5,1.0"], 1, 4),
    ],
    ids=["reproduce_error_tables", "fractional_order_study"],
)
def test_script_prints_table(args, tables, rows):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert sum(line.startswith("problem") for line in lines) == tables
    assert sum(line.startswith(("example1", "example2")) for line in lines) == rows
