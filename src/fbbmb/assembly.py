"""Discrete system assembly for the transformed BBM-Burgers integro-PDE.

Grid ordering is space-major throughout: a nodal field g(x_i, t_j) is vectorized
as vec[i*(m+1) + j], so every Kronecker product reads A_space (x) B_time and
(A (x) B) vec(g) == vec(A @ G @ B.T) for the (n+1) x (m+1) matrix G.

A `DiscreteSystem` is the `OperatorBundle` it was assembled from, extended by
the problem's data in the shapes they are used in: nothing it holds is larger
than a grid, and only this module reads its matrices. The linear part Psi =
Q_x (x) rl_frac - D_x (x) I, the nonlinear-term operators K_tn = I (x) Q_t and
Q_tx = Q_x (x) Q_t, and the constraint C = P_x (x) Q_t are applied as matrix
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
            phi_0, psi1_0, phi_1, psi2_0 = self.phi(0.0), self.psi1(0.0), self.phi(1.0), self.psi2(0.0)
            # relative to the data's size, so that rounding in large data
            # passes it; written as `not <=` so that a NaN corner fails it
            tol = 1e-10 * max(1.0, abs(phi_0), abs(psi1_0), abs(phi_1), abs(psi2_0))
            if not abs(phi_0 - psi1_0) <= tol:
                raise ValueError("incompatible corner data: phi(0) != psi1(0+)")
            if not abs(phi_1 - psi2_0) <= tol:
                raise ValueError("incompatible corner data: phi(1) != psi2(0+)")


@dataclass(frozen=True)
class DiscreteSystem(OperatorBundle):
    """Assembled collocation system: the operator bundle it was assembled from,
    the data grids S and F, phi' on the space nodes, and Rhat of C v = Rhat."""

    S: np.ndarray
    phi_prime: np.ndarray
    F: np.ndarray
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
    F = f_grid - (ops.caputo @ psi1_t)[None, :]
    Rhat = psi2_t - psi1_t - (phi1 - phi0)
    return DiscreteSystem(**vars(ops), S=S, phi_prime=ops.D_x @ phi_x, F=F, Rhat=Rhat)


def _grid(sys: DiscreteSystem, v: np.ndarray) -> np.ndarray:
    """The (n+1) x (m+1) matrix whose space-major vectorization is v."""
    return v.reshape(sys.ns_x.n + 1, sys.ns_t.n + 1)


def _nonlinear_factors(sys: DiscreteSystem, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Y = K_tn v + phi' and W = 1 + S + Q_tx v, as (n+1) x (m+1) grids."""
    V = _grid(sys, v)
    VQt = V @ sys.Q_t.T
    Y = VQt + sys.phi_prime[:, None]
    W = 1.0 + sys.S + sys.Q_x @ VQt
    return Y, W


def residual(sys: DiscreteSystem, v: np.ndarray) -> np.ndarray:
    """Stacked residual [Psi v + N(v) - F; C v - Rhat] with the nonlinear term
    N(v) = Y(v) .* W(v)."""
    V = _grid(sys, v)
    Y, W = _nonlinear_factors(sys, v)
    top = sys.Q_x @ V @ sys.rl_frac.T - sys.D_x @ V - sys.F + Y * W
    return np.concatenate([top.reshape(-1), (sys.P_x @ (V @ sys.Q_t.T))[0] - sys.Rhat])


def jvp(sys: DiscreteSystem, v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """[J(v); C] p with J(v) = Psi + Diag(W) K_tn + Diag(Y) Q_tx, without
    forming J."""
    P = _grid(sys, p)
    Y, W = _nonlinear_factors(sys, v)
    QP, PQt = sys.Q_x @ P, P @ sys.Q_t.T
    top = QP @ sys.rl_frac.T - sys.D_x @ P + W * PQt + Y * (QP @ sys.Q_t.T)
    return np.concatenate([top.reshape(-1), (sys.P_x @ PQt)[0]])


def vjp(sys: DiscreteSystem, v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """[J(v); C]^T q for q of length N+m+1, without forming J."""
    N = sys.F.size
    Qm = _grid(sys, q[:N])
    Y, W = _nonlinear_factors(sys, v)
    top = (sys.Q_x.T @ (Qm @ sys.rl_frac + (Y * Qm) @ sys.Q_t) - sys.D_x.T @ Qm
           + (W * Qm) @ sys.Q_t + sys.P_x.T * (q[N:] @ sys.Q_t))
    return top.reshape(-1)


def jacobian(sys: DiscreteSystem, v: np.ndarray) -> np.ndarray:
    """Exact (N+m+1) x N Jacobian of the residual, [J(v); C], in a Fortran-ordered
    array (so LAPACK can factor it in place), written from the factors with no
    N x N temporary.

    Entry ((i, j), (p, q)) of J(v) is
    Q_x[i,p] (rl_frac[j,q] + Y[i,j] Q_t[j,q]) - D_x[i,p] [j=q] + W[i,j] Q_t[j,q] [i=p];
    the first term is one broadcast product into the whole block, the other two
    touch only its (n+1)^2 (m+1) and (n+1)(m+1)^2 entries, through einsum diagonal views.
    """
    n1, m1 = sys.ns_x.n + 1, sys.ns_t.n + 1
    N = n1 * m1
    Y, W = _nonlinear_factors(sys, v)
    out_t = np.empty((N, N + m1))  # out_t[(p, q), (i, j)] = J[(i, j), (p, q)]
    T4 = out_t[:, :N].reshape(n1, m1, n1, m1)
    A = sys.rl_frac.T[:, None, :] + Y[None, :, :] * sys.Q_t.T[:, None, :]  # [q, i, j]
    np.multiply(sys.Q_x.T[:, None, :, None], A[None], out=T4)
    np.einsum("pqiq->pqi", T4)[...] -= sys.D_x.T[:, None, :]  # [p, q, i]: j = q
    np.einsum("pqpj->pqj", T4)[...] += W[:, None, :] * sys.Q_t.T[None]  # [p, q, j]: i = p
    out_t[:, N:] = (sys.P_x.T[:, :, None] * sys.Q_t.T).reshape(N, m1)  # C^T
    return out_t.T


def reconstruct(sys: DiscreteSystem, v: np.ndarray) -> np.ndarray:
    """Nodal solution values u = S + Q_tx v in the space-major ordering."""
    return (sys.S + sys.Q_x @ _grid(sys, v) @ sys.Q_t.T).reshape(-1)


def rounding_scale(sys: DiscreteSystem) -> tuple[float, float]:
    """(a bound on ||Psi||_inf, ||F||_inf), the scale of the residual's rounding
    level: ||Q_x (x) rl_frac - D_x (x) I||_inf <= ||Q_x|| ||rl_frac|| + ||D_x||."""
    psi_bound = (np.linalg.norm(sys.Q_x, np.inf) * np.linalg.norm(sys.rl_frac, np.inf)
                 + np.linalg.norm(sys.D_x, np.inf))
    return float(psi_bound), float(np.max(np.abs(sys.F)))


def evaluate_on_mesh(
    u_nodal: np.ndarray, ns_x: NodeSet, ns_t: NodeSet, xs: np.ndarray, ts: np.ndarray
) -> np.ndarray:
    """Tensor-product barycentric interpolation of any nodal field (u or v, in
    the space-major ordering) onto xs x ts; exact where xs and ts hit nodes."""
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    for name, arr in (("xs", xs), ("ts", ts)):
        if not np.all((arr >= 0.0) & (arr <= 1.0)):  # also rejects nan
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
