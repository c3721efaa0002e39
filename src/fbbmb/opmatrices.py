"""Operational matrices on SGG grids: differentiation, cumulative/full integration,
and the Riemann-Liouville fractional matrix.

Every integration matrix is one quadrature of the cardinal functions over
[0, limit] (`_rl_rows`): the cumulative matrix is order 1 on the nodes, the
row vector order 1 on [0, 1], and the RL matrix order beta on the nodes.

The alpha-free operators are built once per process: the Gauss-Jacobi rule
(`basis.gauss_jacobi`, built with numpy alone) is memoised per (points, beta),
and `build_sgdm`, `build_sgim` and `build_sgirv` per node set, which
`basis.build_node_set` memoises per (lam, n); their arrays are read-only, and
the `OperatorBundle` holds only them. The RL matrix depends on alpha, so
`build_rl_fsgim` builds it afresh on each call (`assembly.assemble` does, with
the problem's alpha), and an alpha sweep does not grow the caches by an
(m+1) x (m+1) matrix per alpha."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gamma

import numpy as np

from .basis import NodeSet, cardinal_matrix, gauss_jacobi


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@cache
def build_sgdm(ns: NodeSet) -> np.ndarray:
    """First-order differentiation matrix from barycentric weights, with the
    negative-sum trick on the diagonal."""
    if ns.n < 1:
        raise ValueError("differentiation needs at least two nodes")
    x, w = ns.nodes, ns.bary_weights
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    D = (w[None, :] / w[:, None]) / dx
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return _read_only(D)


@cache
def _gauss_jacobi(points: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [0, 1] and weights, scaled by 2^-beta / Gamma(beta), of the
    points-point Gauss-Jacobi rule with weight (1-s)^(beta-1), `basis.gauss_jacobi`
    with a = beta - 1 and b = 0."""
    s, sw = gauss_jacobi(points, beta - 1.0, 0.0)
    return _read_only((s + 1.0) / 2.0), _read_only(sw * 2.0 ** (-beta) / gamma(beta))


def _rl_rows(ns: NodeSet, beta: float, limits: np.ndarray) -> np.ndarray:
    """Rows r_j with r_j @ g = (I^beta g)(limits[j]) for nodal data g.

    The scaling tau = limit * s turns the Riemann-Liouville integral into
        (limit^beta / Gamma(beta)) * int_0^1 (1-s)^(beta-1) g(limit * s) ds,
    integrated with a Gauss-Jacobi rule with weight (1-s)^(beta-1) that absorbs
    the endpoint singularity. The remaining integrand is the degree-n cardinal
    polynomial, so (n+2)//2 points make the rule exact. The rule takes no
    Gegenbauer index: any s^(lam-1/2) reweighting would need a non-polynomial
    compensation factor and lose that exactness.
    """
    s, sw = _gauss_jacobi((ns.n + 2) // 2, beta)
    L = cardinal_matrix(ns, np.outer(limits, s).ravel()).reshape(limits.size, s.size, -1)
    return limits[:, None] ** beta * (sw @ L)


@cache
def build_sgim(ns: NodeSet) -> np.ndarray:
    """Cumulative integration matrix: Q[i, j] = integral of the j-th cardinal
    function over [0, x_i]."""
    return _read_only(_rl_rows(ns, 1.0, ns.nodes))


@cache
def build_sgirv(ns: NodeSet) -> np.ndarray:
    """Full-interval integration row vector: P[0, j] = integral of the j-th
    cardinal function over [0, 1]."""
    return _read_only(_rl_rows(ns, 1.0, np.array([1.0])))


def build_rl_fsgim(ns_t: NodeSet, beta: float) -> np.ndarray:
    """Riemann-Liouville fractional integration matrix of order beta in (0, 1]:
    row j applies (I^beta g)(t_j) to nodal data."""
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"fractional order beta={beta} outside (0, 1]")
    return _rl_rows(ns_t, beta, ns_t.nodes)


@dataclass(frozen=True)
class OperatorBundle:
    """The alpha-free operator matrices of one pair of node sets, each the
    memoised read-only array of its builder."""

    ns_x: NodeSet
    ns_t: NodeSet
    D_x: np.ndarray
    Q_x: np.ndarray
    P_x: np.ndarray
    D_t: np.ndarray
    Q_t: np.ndarray


def build_operator_bundle(ns_x: NodeSet, ns_t: NodeSet) -> OperatorBundle:
    return OperatorBundle(ns_x, ns_t, build_sgdm(ns_x), build_sgim(ns_x), build_sgirv(ns_x),
                          build_sgdm(ns_t), build_sgim(ns_t))
