"""Operational matrices on SGG grids: differentiation, cumulative/full integration,
and the Riemann-Liouville / Caputo fractional matrices."""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, gamma

import numpy as np
from scipy.special import roots_jacobi

from .basis import NodeSet, ParameterDomainError, cardinal_matrix


class DegenerateGridError(ValueError):
    """Raised when a grid is too small for the requested operator."""


def build_sgdm(ns: NodeSet) -> np.ndarray:
    """First-order differentiation matrix from barycentric weights, with the
    negative-sum trick on the diagonal."""
    if ns.n < 1:
        raise DegenerateGridError("differentiation needs at least two nodes")
    x, w = ns.nodes, ns.bary_weights
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    D = (w[None, :] / w[:, None]) / dx
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def _aux_legendre(npts: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule mapped to [a, b]."""
    g, gw = np.polynomial.legendre.leggauss(npts)
    return a + (b - a) * (g + 1.0) / 2.0, gw * (b - a) / 2.0


def build_sgim(ns: NodeSet) -> np.ndarray:
    """Cumulative integration matrix: Q[i, j] = integral of the j-th cardinal
    function over [0, x_i], via an auxiliary Gauss-Legendre rule exact for the
    degree-n integrand."""
    g, gw = np.polynomial.legendre.leggauss(ceil((ns.n + 3) / 2))
    Q = np.empty((ns.n + 1, ns.n + 1))
    for i, xi in enumerate(ns.nodes):
        # one Legendre rule on [-1, 1], mapped to [0, xi] as _aux_legendre does
        Q[i, :] = (gw * xi / 2.0) @ cardinal_matrix(ns, xi * (g + 1.0) / 2.0)
    return Q


def build_sgirv(ns: NodeSet) -> np.ndarray:
    """Full-interval integration row vector: P[j] = integral of the j-th cardinal
    function over [0, 1]."""
    npts = ceil((ns.n + 3) / 2)
    y, yw = _aux_legendre(npts, 0.0, 1.0)
    return (yw @ cardinal_matrix(ns, y)).reshape(1, -1)


def build_rl_fsgim(ns_t: NodeSet, beta: float) -> np.ndarray:
    """Riemann-Liouville fractional integration matrix of order beta in (0, 1].

    Row j applies (I^beta g)(t_j) to nodal data via the scaling tau = t_j * s,
        (t_j^beta / Gamma(beta)) * int_0^1 (1-s)^(beta-1) g(t_j s) ds,
    integrated with a Gauss-Jacobi rule with weight (1-s)^(beta-1) that absorbs
    the endpoint singularity. The remaining integrand is the degree-m cardinal
    polynomial, so (m+2)//2 points make the rule exact. The rule takes no
    Gegenbauer index: any s^(lam-1/2) reweighting would need a non-polynomial
    compensation factor and lose that exactness.
    """
    if not 0.0 < beta <= 1.0:
        raise ParameterDomainError(f"fractional order beta={beta} outside (0, 1]")
    m = ns_t.n
    s, sw = roots_jacobi((m + 2) // 2, beta - 1.0, 0.0)
    s = (s + 1.0) / 2.0
    sw = sw * 2.0 ** (-beta)
    B = np.empty((m + 1, m + 1))
    for j, tj in enumerate(ns_t.nodes):
        L = cardinal_matrix(ns_t, tj * s)
        B[j, :] = (tj**beta / gamma(beta)) * (sw @ L)
    return B


def build_c_fsgim(ns_t: NodeSet, alpha: float) -> np.ndarray:
    """Caputo fractional differentiation matrix of order alpha in (0, 1], realized
    as the order-(1-alpha) RL integration of the first derivative; alpha = 1
    returns the plain differentiation matrix."""
    if not 0.0 < alpha <= 1.0:
        raise ParameterDomainError(f"fractional order alpha={alpha} outside (0, 1]")
    D = build_sgdm(ns_t)
    if alpha == 1.0:
        return D
    return build_rl_fsgim(ns_t, 1.0 - alpha) @ D


@dataclass(frozen=True)
class OperatorBundle:
    """All precomputed matrices for one (node sets, alpha) configuration."""

    ns_x: NodeSet
    ns_t: NodeSet
    alpha: float
    D_x: np.ndarray
    Q_x: np.ndarray
    P_x: np.ndarray
    Q_t: np.ndarray
    rl_frac: np.ndarray  # order 1 - alpha; identity at alpha = 1
    caputo: np.ndarray  # order alpha


def build_operator_bundle(ns_x: NodeSet, ns_t: NodeSet, alpha: float) -> OperatorBundle:
    """The operator matrices, with the order-(1-alpha) RL matrix built once and
    the Caputo matrix taken from it as `build_c_fsgim` forms it."""
    if not 0.0 < alpha <= 1.0:
        raise ParameterDomainError(f"fractional order alpha={alpha} outside (0, 1]")
    D_t = build_sgdm(ns_t)
    if alpha == 1.0:
        rl, caputo = np.eye(ns_t.n + 1), D_t
    else:
        rl = build_rl_fsgim(ns_t, 1.0 - alpha)
        caputo = rl @ D_t
    return OperatorBundle(
        ns_x=ns_x,
        ns_t=ns_t,
        alpha=alpha,
        D_x=build_sgdm(ns_x),
        Q_x=build_sgim(ns_x),
        P_x=build_sgirv(ns_x),
        Q_t=build_sgim(ns_t),
        rl_frac=rl,
        caputo=caputo,
    )
