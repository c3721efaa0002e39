"""Independent brute-force references used by the test suite: adaptive quadrature
of the fractional kernel, analytic power rules, finite differences."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from scipy.integrate import quad


class OracleError(RuntimeError):
    """Raised when a reference computation fails to converge."""


@dataclass(frozen=True)
class OracleConfig:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("oracle tolerances must be positive")


def log_gamma(x: float) -> float:
    """log |Gamma(x)|. Backed by the C library's Lanczos-grade lgamma."""
    return math.lgamma(x)


def _quad(func, a, b, cfg: OracleConfig, **kwargs) -> tuple[float, float]:
    val, err, info, *tail = quad(
        func, a, b, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol, limit=1000,
        full_output=True, **kwargs
    )
    if tail:
        raise OracleError(f"quadrature failed: {tail[0]}")
    return val, err


def rlfi_oracle(
    g: Callable[[float], float], beta: float, t: float, cfg: OracleConfig = OracleConfig()
) -> float:
    """Riemann-Liouville fractional integral (I^beta g)(t) by adaptive quadrature.

    The endpoint singularity is removed by sigma = (t - tau)^beta, which turns the
    kernel integral into (1/(beta Gamma(beta))) * int_0^(t^beta) g(t - sigma^(1/beta)) dsigma.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta={beta} outside (0, 1]")
    if not 0.0 < t <= 1.0:
        raise ValueError(f"t={t} outside (0, 1]")
    val, err = _quad(lambda s: g(t - s ** (1.0 / beta)), 0.0, t**beta, cfg)
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(val)) * 100.0
    if err > tol:
        raise OracleError(f"fractional-integral quadrature error {err:.2e} above tolerance")
    return val / (beta * math.gamma(beta))


def rlfi_oracle_scaled(
    g: Callable[[float], float], beta: float, t: float, cfg: OracleConfig = OracleConfig()
) -> float:
    """Same integral via the scaling tau = t*s and an algebraic-weight rule;
    used to cross-check rlfi_oracle."""
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta={beta} outside (0, 1]")
    # weight (1-s)^(beta-1) on [0, 1]
    val, _ = _quad(lambda s: g(t * s), 0.0, 1.0, cfg, weight="alg", wvar=(0.0, beta - 1.0))
    return t**beta * val / math.gamma(beta)


def caputo_power_rule(k: float, alpha: float, t: float) -> float:
    """Caputo derivative of t^k of order alpha: Gamma(k+1)/Gamma(k+1-alpha) t^(k-alpha);
    zero for k = 0."""
    if k == 0:
        return 0.0
    if k < alpha:
        raise ValueError(f"power k={k} in (0, alpha={alpha}) has no classical power rule")
    return math.gamma(k + 1.0) / math.gamma(k + 1.0 - alpha) * t ** (k - alpha)


def rlfi_power_rule(k: float, beta: float, t: float) -> float:
    """RL fractional integral of t^k: Gamma(k+1)/Gamma(k+beta+1) t^(k+beta)."""
    return math.gamma(k + 1.0) / math.gamma(k + beta + 1.0) * t ** (k + beta)


def fd_derivative(g: Callable[[float], float], x: float, h: float) -> float:
    """Central difference (g(x+h) - g(x-h)) / 2h."""
    return (g(x + h) - g(x - h)) / (2.0 * h)
