"""Discrete system assembly for the transformed BBM-Burgers integro-PDE.

Grid ordering is space-major throughout: a nodal field g(x_i, t_j) is vectorized
as vec[i*(m+1) + j], so every Kronecker product reads A_space (x) B_time and
(A (x) B) vec(g) == vec(A @ G @ B.T) for the (n+1) x (m+1) matrix G.

The system keeps its operators as those 1-D factors. The linear part
Psi = Q_x (x) rl_frac - D_x (x) I and the nonlinear-term operators
K_tn = I (x) Q_t and Q_tx = Q_x (x) Q_t are applied as (n+1) x (m+1) matrix
sandwiches at O(N (n+m)) each, N = (n+1)(m+1); so are the Jacobian products
`jvp` and `vjp`. Only `jacobian` forms a dense matrix, the (N+m+1) x N
[J(v); C] that a linear step factorizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basis import NodeSet, cardinal_matrix
from .opmatrices import OperatorBundle


class AssemblyError(ValueError):
    """Raised when the operator bundle and the problem disagree on alpha."""


@dataclass(frozen=True)
class ProblemSpec:
    """One initial-boundary value problem: fractional order, initial profile phi,
    boundary traces psi1/psi2, source f(x, t), optional exact solution. `assemble`
    calls each on node arrays, and each may return an array or a constant."""

    alpha: float
    phi: Callable[[np.ndarray], np.ndarray]
    psi1: Callable[[np.ndarray], np.ndarray]
    psi2: Callable[[np.ndarray], np.ndarray]
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
class DiscreteSystem:
    """Assembled collocation system: the 1-D operator factors of Psi, K_tn and
    Q_tx, data vectors, and the boundary integral constraint C v = Rhat."""

    ns_x: NodeSet
    ns_t: NodeSet
    Q_x: np.ndarray
    D_x: np.ndarray
    rl_frac: np.ndarray
    Q_t: np.ndarray
    S: np.ndarray
    phi_prime: np.ndarray
    F: np.ndarray
    C: np.ndarray
    Rhat: np.ndarray


def assemble(spec: ProblemSpec, ops: OperatorBundle) -> DiscreteSystem:
    """The collocation system of the problem on the bundle's (n+1) x (m+1) grid."""
    n, m = ops.ns_x.n, ops.ns_t.n
    if abs(ops.alpha - spec.alpha) > 0:
        raise AssemblyError(f"bundle alpha={ops.alpha} != problem alpha={spec.alpha}")
    x, t = ops.ns_x.nodes, ops.ns_t.nodes
    phi_x = np.full(n + 1, spec.phi(x), dtype=float)
    psi1_t = np.full(m + 1, spec.psi1(t), dtype=float)
    psi2_t = np.full(m + 1, spec.psi2(t), dtype=float)
    f_grid = np.full((n + 1, m + 1), spec.f(x[:, None], t[None, :]), dtype=float)
    phi0, phi1 = spec.phi(0.0), spec.phi(1.0)

    S = (phi_x - phi0)[:, None] + psi1_t[None, :]
    phi_prime = np.repeat(ops.D_x @ phi_x, m + 1)
    F = f_grid - (ops.caputo @ psi1_t)[None, :]
    Rhat = psi2_t - psi1_t - (phi1 - phi0)
    C = np.kron(ops.P_x, ops.Q_t)

    return DiscreteSystem(ops.ns_x, ops.ns_t, ops.Q_x, ops.D_x, ops.rl_frac,
                          ops.Q_t, S.reshape(-1), phi_prime, F.reshape(-1), C, Rhat)


def _grid(sys: DiscreteSystem, v: np.ndarray) -> np.ndarray:
    """The (n+1) x (m+1) matrix whose space-major vectorization is v."""
    return v.reshape(sys.ns_x.n + 1, sys.ns_t.n + 1)


def _nonlinear_factors(sys: DiscreteSystem, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Y = K_tn v + phi' and W = 1 + S + Q_tx v, as (n+1) x (m+1) grids."""
    V = _grid(sys, v)
    VQt = V @ sys.Q_t.T
    Y = VQt + _grid(sys, sys.phi_prime)
    W = 1.0 + _grid(sys, sys.S) + sys.Q_x @ VQt
    return Y, W


def residual(sys: DiscreteSystem, v: np.ndarray) -> np.ndarray:
    """Stacked residual [Psi v + N(v) - F; C v - Rhat] with the nonlinear term
    N(v) = Y(v) .* W(v)."""
    V = _grid(sys, v)
    Y, W = _nonlinear_factors(sys, v)
    top = sys.Q_x @ V @ sys.rl_frac.T - sys.D_x @ V - _grid(sys, sys.F) + Y * W
    return np.concatenate([top.reshape(-1), sys.C @ v - sys.Rhat])


def jvp(sys: DiscreteSystem, v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """[J(v); C] p with J(v) = Psi + Diag(W) K_tn + Diag(Y) Q_tx, without
    forming J."""
    P = _grid(sys, p)
    Y, W = _nonlinear_factors(sys, v)
    QP = sys.Q_x @ P
    top = QP @ sys.rl_frac.T - sys.D_x @ P + W * (P @ sys.Q_t.T) + Y * (QP @ sys.Q_t.T)
    return np.concatenate([top.reshape(-1), sys.C @ p])


def vjp(sys: DiscreteSystem, v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """[J(v); C]^T q for q of length N+m+1, without forming J."""
    N = sys.F.size
    Qm = _grid(sys, q[:N])
    Y, W = _nonlinear_factors(sys, v)
    top = (sys.Q_x.T @ (Qm @ sys.rl_frac + (Y * Qm) @ sys.Q_t) - sys.D_x.T @ Qm
           + (W * Qm) @ sys.Q_t)
    return top.reshape(-1) + sys.C.T @ q[N:]


def jacobian(sys: DiscreteSystem, v: np.ndarray) -> np.ndarray:
    """Exact (N+m+1) x N Jacobian of the residual, [J(v); C], in a Fortran-ordered
    array (so LAPACK can factor it in place), written from the factors with no
    N x N temporary.

    Entry ((i, j), (p, q)) of J(v) is
    Q_x[i,p] (rl_frac[j,q] + Y[i,j] Q_t[j,q]) - D_x[i,p] [j=q] + W[i,j] Q_t[j,q] [i=p];
    the first term is one broadcast product into the whole block, the other two
    touch only its (n+1)^2 (m+1) and (n+1)(m+1)^2 structured entries.
    """
    n1, m1 = sys.ns_x.n + 1, sys.ns_t.n + 1
    N = n1 * m1
    Y, W = _nonlinear_factors(sys, v)
    out_t = np.empty((N, N + m1))  # out_t[(p, q), (i, j)] = J[(i, j), (p, q)]
    T4 = out_t[:, :N].reshape(n1, m1, n1, m1)
    A = sys.rl_frac.T[:, None, :] + Y[None, :, :] * sys.Q_t.T[:, None, :]  # [q, i, j]
    np.multiply(sys.Q_x.T[:, None, :, None], A[None], out=T4)
    a_n, a_m = np.arange(n1), np.arange(m1)
    T4[:, a_m, :, a_m] -= sys.D_x.T[None]  # [q, p, i]: the j = q entries
    T4[a_n, :, a_n, :] += W[:, None, :] * sys.Q_t.T[None]  # [p, q, j]: the i = p entries
    out_t[:, N:] = sys.C.T
    return out_t.T


def reconstruct(sys: DiscreteSystem, v: np.ndarray) -> np.ndarray:
    """Nodal solution values u = S + Q_tx v in the space-major ordering."""
    return sys.S + (sys.Q_x @ _grid(sys, v) @ sys.Q_t.T).reshape(-1)


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
