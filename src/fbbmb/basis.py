"""Shifted Gegenbauer-Gauss node sets on [0, 1] with barycentric weights, built
by `build_node_set` from the Gegenbauer index lam and the grid degree n.

A node set depends on (lam, n) alone, so each is built once per process and
shared: `build_node_set` checks its arguments on every call, then returns the
memoised `NodeSet`, whose arrays are read-only."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.special import roots_gegenbauer

LAMBDA_MIN = -0.5 + 1e-3
LAMBDA_MAX = 2.0
# Gegenbauer index near which interpolation error is known to amplify.
LAMBDA_STAR = -0.1351
LAMBDA_STAR_HALO = 0.05


class ParameterDomainError(ValueError):
    """Raised for Gegenbauer/fractional parameters outside their valid windows."""


def check_lambda(lam: float) -> None:
    """Reject a Gegenbauer index outside (LAMBDA_MIN, LAMBDA_MAX]; warn near LAMBDA_STAR."""
    if not (LAMBDA_MIN < lam <= LAMBDA_MAX):
        raise ParameterDomainError(
            f"lambda={lam} outside the valid window ({LAMBDA_MIN}, {LAMBDA_MAX}]"
        )
    if abs(lam - LAMBDA_STAR) < LAMBDA_STAR_HALO:
        warnings.warn(
            f"lambda={lam} lies within {LAMBDA_STAR_HALO} of the "
            f"error-amplifying index {LAMBDA_STAR}; accuracy may degrade",
            stacklevel=3,
        )


@dataclass(frozen=True, eq=False)
class NodeSet:
    """SGG nodes in (0, 1), the Gauss nodes of w(x) = (x(1-x))^(lam-1/2), with
    normalized barycentric weights; the grid degree is n = nodes.size - 1.
    Node sets compare and hash by identity, one per (lam, n)."""

    nodes: np.ndarray
    bary_weights: np.ndarray

    @property
    def n(self) -> int:
        return self.nodes.size - 1


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    """Barycentric weights for distinct nodes, log-scaled against overflow and
    normalized so max|w| = 1."""
    diffs = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diffs, 1.0)
    signs = np.prod(np.sign(diffs), axis=1)
    logw = -np.sum(np.log(np.abs(diffs)), axis=1)
    logw -= logw.max()
    return signs * np.exp(logw)


def build_node_set(lam: float, n: int) -> NodeSet:
    """The n + 1 SGG nodes of index lam on [0, 1]: the nodes of scipy's
    Gauss-Gegenbauer rule on [-1, 1] under the affine shift x -> (x + 1)/2.
    Repeated calls with equal (lam, n) return the same read-only NodeSet."""
    check_lambda(lam)
    if not float(n).is_integer():
        raise ParameterDomainError(f"grid degree n={n} must be an integer")
    if n < 0:
        raise ParameterDomainError(f"grid degree n={n} must be nonnegative")
    return _node_set(float(lam), int(n))


@cache
def _node_set(lam: float, n: int) -> NodeSet:
    x, _ = roots_gegenbauer(n + 1, lam)
    nodes = (x + 1.0) / 2.0
    ns = NodeSet(nodes, barycentric_weights(nodes))
    nodes.flags.writeable = ns.bary_weights.flags.writeable = False
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
