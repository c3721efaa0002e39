"""Shifted Gegenbauer-Gauss node sets on [0, 1] with quadrature and barycentric weights."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import betaln

LAMBDA_MIN = -0.5 + 1e-3
LAMBDA_MAX = 2.0
# Gegenbauer index near which interpolation error is known to amplify.
LAMBDA_STAR = -0.1351
LAMBDA_STAR_HALO = 0.05


class ParameterDomainError(ValueError):
    """Raised for Gegenbauer/fractional parameters outside their valid windows."""


class EigenSolveError(RuntimeError):
    """Raised when the Golub-Welsch tridiagonal eigensolve fails."""


@dataclass(frozen=True)
class BasisParams:
    """Gegenbauer index `lam` and grid degree `n` (node count n + 1)."""

    lam: float
    n: int

    def __post_init__(self):
        if not (LAMBDA_MIN < self.lam <= LAMBDA_MAX):
            raise ParameterDomainError(
                f"lambda={self.lam} outside the valid window ({LAMBDA_MIN}, {LAMBDA_MAX}]"
            )
        if abs(self.lam - LAMBDA_STAR) < LAMBDA_STAR_HALO:
            warnings.warn(
                f"lambda={self.lam} lies within {LAMBDA_STAR_HALO} of the "
                f"error-amplifying index {LAMBDA_STAR}; accuracy may degrade",
                stacklevel=2,
            )
        if self.n < 0:
            raise ParameterDomainError(f"grid degree n={self.n} must be nonnegative")


@dataclass(frozen=True)
class NodeSet:
    """SGG nodes in (0, 1) with quadrature weights for w(x) = (x(1-x))^(lam-1/2)
    and normalized barycentric weights."""

    params: BasisParams
    nodes: np.ndarray
    quad_weights: np.ndarray
    bary_weights: np.ndarray

    @property
    def n(self) -> int:
        return self.params.n


def recurrence_coefficients(params: BasisParams) -> tuple[np.ndarray, np.ndarray]:
    """Three-term recurrence coefficients of the monic Gegenbauer family on [-1, 1]
    with weight (1 - x^2)^(lam - 1/2).

    Returns (alpha_k, beta_k), k = 0..n, for
    p_{k+1}(x) = (x - alpha_k) p_k(x) - beta_k p_{k-1}(x), with beta_0 set to the
    weight's total mass. The alpha_k vanish by the symmetry of the weight.
    """
    lam, n = params.lam, params.n
    a = lam - 0.5  # Jacobi exponent, weight (1-x)^a (1+x)^a
    alpha = np.zeros(n + 1)
    beta = np.zeros(n + 1)
    beta[0] = np.exp((2.0 * a + 1.0) * np.log(2.0) + betaln(a + 1.0, a + 1.0))
    if n >= 1:
        beta[1] = 1.0 / (2.0 * lam + 2.0)
    k = np.arange(2, n + 1, dtype=float)
    beta[2:] = k * (k + 2.0 * lam - 1.0) / (4.0 * (k + lam) * (k + lam - 1.0))
    return alpha, beta


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    """Barycentric weights for distinct nodes, log-scaled against overflow and
    normalized so max|w| = 1."""
    diffs = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diffs, 1.0)
    signs = np.prod(np.sign(diffs), axis=1)
    logw = -np.sum(np.log(np.abs(diffs)), axis=1)
    logw -= logw.max()
    return signs * np.exp(logw)


def build_node_set(params: BasisParams) -> NodeSet:
    """SGG nodes/weights on [0, 1] by Golub-Welsch on the Jacobi matrix of the
    Gegenbauer recurrence, then the affine shift x -> (x + 1)/2."""
    alpha, beta = recurrence_coefficients(params)
    n, lam = params.n, params.lam
    if n == 0:
        nodes = np.array([0.5])
        weights = np.array([beta[0] * 2.0 ** (-2.0 * lam)])
        return NodeSet(params, nodes, weights, np.array([1.0]))
    try:
        eigvals, eigvecs = eigh_tridiagonal(alpha, np.sqrt(beta[1:]))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigenSolveError(f"Golub-Welsch eigensolve failed for {params}: {exc}") from exc
    nodes = (eigvals + 1.0) / 2.0
    # dx-hat = dx/2 and (x-hat(1-x-hat))^(lam-1/2) = ((1-x^2)/4)^(lam-1/2)
    weights = beta[0] * eigvecs[0, :] ** 2 * 2.0 ** (-2.0 * lam)
    return NodeSet(params, nodes, weights, barycentric_weights(nodes))


def interpolate(ns: NodeSet, values: np.ndarray, x: float) -> float:
    """Evaluate the barycentric Lagrange interpolant of nodal `values` at `x`.
    Exact node hits return the stored value without division."""
    dx = x - ns.nodes
    hit = np.nonzero(dx == 0.0)[0]
    if hit.size:
        return float(values[hit[0]])
    ratios = ns.bary_weights / dx
    return float(ratios @ values / ratios.sum())


def cardinal_matrix(ns: NodeSet, xs: np.ndarray) -> np.ndarray:
    """Matrix L with L[p, j] = L_j(xs[p]) for the Lagrange cardinal functions of `ns`.

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
