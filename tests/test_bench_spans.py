"""The program names that the benchmark's tracer wraps exist, and its byte count
reads an assembled system."""

from pathlib import Path

import numpy as np
import pytest

from fbbmb.assembly import assemble
from fbbmb.basis import build_node_set
from fbbmb.opmatrices import build_operator_bundle
from fbbmb.problems import REGISTRY

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    return spans


def test_every_traced_name_resolves(spans):
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in spans._targets()
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_system_bytes_of_an_assembled_system(spans):
    n, m = 5, 3
    ops = build_operator_bundle(build_node_set(0.5, n), build_node_set(0.5, m))
    N = (n + 1) * (m + 1)
    # D_x, Q_x; P_x, phi_prime; Q_t, rl_frac; S, F; Rhat
    floats = 2 * (n + 1) ** 2 + 2 * (n + 1) + 2 * (m + 1) ** 2 + 2 * N + (m + 1)
    system = assemble(REGISTRY["example2"](0.5), ops)
    assert spans.system_bytes(system) == 8 * floats
    assert spans.system_bytes(system) == sum(
        v.nbytes for v in vars(system).values() if isinstance(v, np.ndarray))
