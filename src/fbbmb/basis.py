"""Shifted Gegenbauer-Gauss node sets on [0, 1] with barycentric weights, built
by `build_node_set` from the Gegenbauer index lam and the grid degree n, and the
Gauss-Jacobi rule (`gauss_jacobi`) that gives their nodes, their barycentric
weights and the quadratures of `opmatrices`; the rule needs numpy alone.

A node set depends on (lam, n) alone, so each is built once per process and
shared: `build_node_set` checks its arguments on every call, then returns the
memoised `NodeSet`, whose arrays are read-only."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gamma

import numpy as np

LAMBDA_MIN = -0.5 + 1e-3
LAMBDA_MAX = 2.0


@dataclass(frozen=True, eq=False)
class NodeSet:
    """SGG nodes in (0, 1), the Gauss nodes of w(x) = (x(1-x))^(lam-1/2), with
    barycentric weights proportional to 1 / prod_{k != j} (x_j - x_k), scaled to
    max |w_j| = 1 with the last weight positive; the grid degree is
    n = nodes.size - 1. Node sets compare and hash by identity, one per (lam, n)."""

    nodes: np.ndarray
    bary_weights: np.ndarray

    @property
    def n(self) -> int:
        return self.nodes.size - 1


def _monic_jacobi(x: np.ndarray, diag: np.ndarray, off2: np.ndarray):
    """p(x) and p'(x) of the monic polynomial of degree diag.size defined by
    p_{k+1} = (x - diag[k]) p_k - off2[k-1] p_{k-1}, with p_0 = 1 and p_{-1} = 0."""
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
    for k in range(diag.size):
        b = off2[k - 1] if k else 0.0
        p_prev, p, dp_prev, dp = (p, (x - diag[k]) * p - b * p_prev,
                                  dp, p + (x - diag[k]) * dp - b * dp_prev)
    return p, dp


def gauss_jacobi(points: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the points-point Gauss rule on [-1, 1] for
    the weight (1-x)^a (1+x)^b, a, b > -1.

    The nodes are the eigenvalues of the Jacobi matrix of the monic Jacobi
    polynomials (Golub & Welsch, Math. Comp. 23, 1969), each refined by one
    Newton step on their three-term recurrence; the weights are
    1 / ((1 - x^2) p'(x)^2) at the refined nodes, scaled to sum to the mass of
    the weight function. The first diagonal and off-diagonal entries take their
    closed forms, since the general ones are 0/0 at a + b = 0 and a + b = -1.
    The monic recurrence stays defined at a = b = -1/2, where the Gegenbauer
    polynomials C_k^(a + 1/2) vanish, and keeps its digits as a, b -> -1.
    For a = b the nodes are symmetrised about 0."""
    s = a + b
    k = np.arange(1.0, points)
    diag = np.empty(points)
    diag[0] = (b - a) / (s + 2.0)
    diag[1:] = (b - a) * s / ((2.0 * k + s) * (2.0 * k + s + 2.0))
    off2 = np.empty(points - 1)  # squared off-diagonal entries
    if points > 1:
        off2[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + s) ** 2 * (3.0 + s))
        k = k[1:]
        off2[1:] = (4.0 * k * (k + a) * (k + b) * (k + s)
                    / ((2.0 * k + s) ** 2 * (2.0 * k + s + 1.0) * (2.0 * k + s - 1.0)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(np.sqrt(off2), 1), UPLO="U")
    p, dp = _monic_jacobi(x, diag, off2)
    x -= p / dp
    if a == b:
        x = (x - x[::-1]) / 2.0
    _, dp = _monic_jacobi(x, diag, off2)
    w = 1.0 / ((1.0 - x) * (1.0 + x) * dp**2)
    mass = 2.0 ** (s + 1.0) * gamma(a + 1.0) * gamma(b + 1.0) / gamma(s + 2.0)
    return x, w * (mass / w.sum())


def build_node_set(lam: float, n: int) -> NodeSet:
    """The n + 1 SGG nodes of index lam on [0, 1], n >= 1 since `build_sgdm`
    needs two: the nodes of the Gauss-Gegenbauer rule on [-1, 1], the
    Gauss-Jacobi rule with a = b = lam - 1/2, under the shift x -> (x + 1)/2.

    The barycentric weights come from the same rule's nodes x_j and weights
    omega_j as (-1)^(n-j) sqrt((1 - x_j^2) omega_j), a multiple of 1/p'(x_j)
    (Wang, Huybrechs & Vandewalle, Math. Comp. 83, 2014): within 2.3e-14 of
    the products 1/prod_k (x_j - x_k) for lam in [-0.498, 2] and n <= 96.
    Repeated calls with equal (lam, n) return the same read-only NodeSet."""
    if not (LAMBDA_MIN < lam <= LAMBDA_MAX):
        raise ValueError(f"lambda={lam} outside the valid window ({LAMBDA_MIN}, {LAMBDA_MAX}]")
    if not float(n).is_integer():
        raise ValueError(f"grid degree {n} must be an integer")
    if n < 1:
        raise ValueError(f"grid degree {n} must be at least 1")
    return _node_set(float(lam), int(n))


@cache
def _node_set(lam: float, n: int) -> NodeSet:
    x, w = gauss_jacobi(n + 1, lam - 0.5, lam - 0.5)
    bary = np.sqrt((1.0 - x) * (1.0 + x) * w)  # |1/p'(x_j)| up to one factor
    bary /= bary.max()
    bary[-2::-2] *= -1.0  # (-1)^(n-j)
    ns = NodeSet((x + 1.0) / 2.0, bary)
    ns.nodes.flags.writeable = bary.flags.writeable = False
    return ns


def cardinal_matrix(ns: NodeSet, xs: np.ndarray) -> np.ndarray:
    """Matrix L with L[p, j] = L_j(xs[p]) for the Lagrange cardinal functions of `ns`,
    by the barycentric formula; the interpolant of nodal `values` at xs is L @ values.

    Rows at exact node hits are unit vectors; all rows sum to 1.
    """
    xs = np.asarray(xs, dtype=float)
    dx = xs[:, None] - ns.nodes[None, :]
    hits = dx == 0.0
    dx[hits] = 1.0
    L = ns.bary_weights[None, :] / dx
    L /= L.sum(axis=1, keepdims=True)
    hit_rows = hits.any(axis=1)
    L[hit_rows] = hits[hit_rows].astype(float)
    return L
