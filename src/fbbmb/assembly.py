"""Discrete system assembly for the transformed BBM-Burgers integro-PDE.

Grid ordering is space-major throughout: a nodal field g(x_i, t_j) is vectorized
as vec[i*(m+1) + j], so every Kronecker product reads A_space (x) B_time and
(A (x) B) vec(g) == vec(A @ G @ B.T) for the (n+1) x (m+1) matrix G.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basis import NodeSet, cardinal_matrix
from .opmatrices import OperatorBundle


class AssemblyError(ValueError):
    """Raised on shape mismatches between operators and the grid ordering."""


@dataclass(frozen=True)
class ProblemSpec:
    """One initial-boundary value problem: fractional order, initial profile phi,
    boundary traces psi1/psi2, source f(x, t), optional exact solution."""

    alpha: float
    phi: Callable[[float], float]
    psi1: Callable[[float], float]
    psi2: Callable[[float], float]
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    exact: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha={self.alpha} outside (0, 1]")
        if self.exact is not None:
            if abs(self.phi(0.0) - self.psi1(0.0)) > 1e-10:
                raise ValueError("incompatible corner data: phi(0) != psi1(0+)")
            if abs(self.phi(1.0) - self.psi2(0.0)) > 1e-10:
                raise ValueError("incompatible corner data: phi(1) != psi2(0+)")


@dataclass(frozen=True)
class GridOrdering:
    """Space-major vectorization bookkeeping for an (n+1) x (m+1) grid."""

    n: int
    m: int

    @property
    def size(self) -> int:
        return (self.n + 1) * (self.m + 1)

    def index(self, i: int, j: int) -> int:
        return i * (self.m + 1) + j


@dataclass(frozen=True)
class DiscreteSystem:
    """Assembled collocation system: linear part Psi, nonlinear-term operators,
    data vectors, and the boundary integral constraint C v = Rhat."""

    ordering: GridOrdering
    ns_x: NodeSet
    ns_t: NodeSet
    Psi: np.ndarray
    K_tn: np.ndarray
    Q_tx: np.ndarray
    S: np.ndarray
    phi_prime: np.ndarray
    F: np.ndarray
    C: np.ndarray
    Rhat: np.ndarray


@dataclass(frozen=True)
class DiscreteSolution:
    v: np.ndarray
    u: np.ndarray
    residual_norm: float
    constraint_norm: float


def assemble(spec: ProblemSpec, ops: OperatorBundle, ordering: GridOrdering) -> DiscreteSystem:
    n, m = ordering.n, ordering.m
    if ops.ns_x.n != n or ops.ns_t.n != m:
        raise AssemblyError(
            f"operator bundle built for (n={ops.ns_x.n}, m={ops.ns_t.n}), "
            f"ordering expects (n={n}, m={m})"
        )
    if abs(ops.alpha - spec.alpha) > 0:
        raise AssemblyError(f"bundle alpha={ops.alpha} != problem alpha={spec.alpha}")
    x, t = ops.ns_x.nodes, ops.ns_t.nodes
    ones_t = np.ones(m + 1)
    ones_x = np.ones(n + 1)

    Psi = np.kron(ops.Q_x, ops.rl_frac) - np.kron(ops.D_x, np.eye(m + 1))
    K_tn = np.kron(np.eye(n + 1), ops.Q_t)
    Q_tx = np.kron(ops.Q_x, ops.Q_t)
    C = np.kron(ops.P_x, ops.Q_t)

    phi_x = np.array([spec.phi(xi) for xi in x])
    psi1_t = np.array([spec.psi1(tj) for tj in t])
    psi2_t = np.array([spec.psi2(tj) for tj in t])
    phi0, phi1 = spec.phi(0.0), spec.phi(1.0)

    S = np.kron(phi_x - phi0, ones_t) + np.kron(ones_x, psi1_t)
    phi_prime = np.kron(ops.D_x @ phi_x, ones_t)
    f_grid = spec.f(x[:, None], t[None, :])
    F = np.asarray(f_grid, dtype=float).reshape(-1) - np.kron(ones_x, ops.caputo @ psi1_t)
    Rhat = psi2_t - psi1_t - (phi1 - phi0) * ones_t

    return DiscreteSystem(ordering, ops.ns_x, ops.ns_t, Psi, K_tn, Q_tx, S, phi_prime, F, C, Rhat)


def _nonlinear_factors(sys: DiscreteSystem, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    Y = sys.K_tn @ v + sys.phi_prime
    W = 1.0 + sys.S + sys.Q_tx @ v
    return Y, W


def residual(sys: DiscreteSystem, v: np.ndarray) -> np.ndarray:
    """Stacked residual [Psi v + N(v) - F; C v - Rhat] with the nonlinear term
    N(v) = Y(v) .* W(v)."""
    Y, W = _nonlinear_factors(sys, v)
    top = sys.Psi @ v - sys.F + Y * W
    return np.concatenate([top, sys.C @ v - sys.Rhat])


def jacobian(sys: DiscreteSystem, v: np.ndarray) -> np.ndarray:
    """Exact (N+m+1) x N Jacobian of the residual, [J(v); C] with
    J(v) = Psi + Diag(W) K_tn + Diag(Y) Q_tx, written into one array with one
    N x N temporary."""
    N = sys.ordering.size
    Y, W = _nonlinear_factors(sys, v)
    out = np.empty((N + sys.C.shape[0], N))
    top = out[:N]
    np.multiply(W[:, None], sys.K_tn, out=top)
    top += Y[:, None] * sys.Q_tx
    top += sys.Psi
    out[N:] = sys.C
    return out


def reconstruct(sys: DiscreteSystem, v: np.ndarray) -> np.ndarray:
    """Nodal solution values u = S + Q_tx v in the fixed ordering."""
    return sys.S + sys.Q_tx @ v


def evaluate_on_mesh(
    u_nodal: np.ndarray, ns_x: NodeSet, ns_t: NodeSet, xs: np.ndarray, ts: np.ndarray
) -> np.ndarray:
    """Tensor-product barycentric interpolation of nodal u onto xs x ts."""
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    for name, arr in (("xs", xs), ("ts", ts)):
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise ValueError(f"{name} contains points outside [0, 1]")
    U = np.asarray(u_nodal).reshape(ns_x.n + 1, ns_t.n + 1)
    return cardinal_matrix(ns_x, xs) @ U @ cardinal_matrix(ns_t, ts).T


def compute_aae(approx: np.ndarray, exact: np.ndarray) -> float:
    """Average absolute error over an evaluation set."""
    approx = np.asarray(approx, dtype=float).reshape(-1)
    exact = np.asarray(exact, dtype=float).reshape(-1)
    if approx.size == 0 or approx.size != exact.size:
        raise ValueError("compute_aae needs two equal-length nonempty arrays")
    return float(np.mean(np.abs(approx - exact)))
