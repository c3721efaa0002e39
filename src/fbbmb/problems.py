"""Benchmark problem registry for the time-fractional BBM-Burgers equation

    D_t^alpha u - u_xxt + u_x + u u_x = f,   (x, t) in (0,1)^2,

with u(x,0) = phi, u(0,t) = psi1, u(1,t) = psi2. Every exact solution is
X(x) T(t) with T a sum of positive powers of t, so every problem is one
`make_separable_problem(alpha, X, dX, ddX, powers)` call.
"""

from __future__ import annotations

from math import gamma, pi
from typing import Callable

import numpy as np

from .assembly import ProblemSpec


def make_separable_problem(
    alpha: float, X: Callable, dX: Callable, ddX: Callable, powers: dict[float, float]
) -> ProblemSpec:
    """Manufactured problem for exact u(x,t) = X(x) T(t), T(t) the sum of
    c t^p over `powers` {p: c}, every p > 0. T', the Caputo derivative of T
    (Gamma(p+1)/Gamma(p+1-alpha) t^(p-alpha) per term) and f, by substituting
    u into the equation, are derived here."""
    if not all(p > 0 for p in powers):
        raise ValueError(f"every power of t must be positive, got {sorted(powers)}")

    def T(t):
        return sum(c * t**p for p, c in powers.items())

    def dT(t):
        return sum(c * p * t ** (p - 1.0) for p, c in powers.items())

    def caputo_T(t):
        return sum(c * gamma(p + 1.0) * t ** (p - alpha) / gamma(p + 1.0 - alpha)
                   for p, c in powers.items())

    def f(x, t):
        return (
            X(x) * caputo_T(t)
            - ddX(x) * dT(t)
            + dX(x) * T(t)
            + X(x) * dX(x) * T(t) ** 2
        )

    return ProblemSpec(
        alpha=alpha,
        phi=lambda x: X(x) * T(0.0),
        psi1=lambda t: X(0.0) * T(t),
        psi2=lambda t: X(1.0) * T(t),
        f=f,
        exact=lambda x, t: X(x) * T(t),
    )


def example1(alpha: float) -> ProblemSpec:
    """Exact solution u = x^4 (x - 1) t^1.5 with homogeneous initial/boundary data."""
    return make_separable_problem(
        alpha,
        X=lambda x: x**4 * (x - 1.0),
        dX=lambda x: 5.0 * x**4 - 4.0 * x**3,
        ddX=lambda x: 20.0 * x**3 - 12.0 * x**2,
        powers={1.5: 1.0},
    )


def example2(alpha: float) -> ProblemSpec:
    """Exact solution u = t^2 e^x with psi1 = t^2, psi2 = e t^2."""
    return make_separable_problem(alpha, X=np.exp, dX=np.exp, ddX=np.exp, powers={2.0: 1.0})


def manufactured_poly(alpha: float) -> ProblemSpec:
    """u = x^2 (1 - x) t^2: polynomial in both directions, smooth everywhere."""
    return make_separable_problem(
        alpha,
        X=lambda x: x**2 * (1.0 - x),
        dX=lambda x: 2.0 * x - 3.0 * x**2,
        ddX=lambda x: 2.0 - 6.0 * x,
        powers={2.0: 1.0},
    )


def manufactured_trig(alpha: float) -> ProblemSpec:
    """u = sin(pi x) t^3: trigonometric in space, cubic in time."""
    return make_separable_problem(
        alpha,
        X=lambda x: np.sin(pi * np.minimum(x, 1.0 - x)),
        dX=lambda x: pi * np.cos(pi * np.asarray(x, dtype=float)),
        ddX=lambda x: -(pi**2) * np.sin(pi * np.minimum(x, 1.0 - x)),
        powers={3.0: 1.0},
    )


# problem name -> factory(alpha), the one problem lookup: REGISTRY[name](alpha)
REGISTRY: dict[str, Callable[[float], ProblemSpec]] = {
    "example1": example1,
    "example2": example2,
    "manufactured:poly": manufactured_poly,
    "manufactured:trig": manufactured_trig,
}
