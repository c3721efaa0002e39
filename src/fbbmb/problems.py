"""Benchmark problem registry for the time-fractional BBM-Burgers equation

    D_t^alpha u - u_xxt + u_x + u u_x = f,   (x, t) in (0,1)^2,

with u(x,0) = phi, u(0,t) = psi1, u(1,t) = psi2.
"""

from __future__ import annotations

from math import gamma, pi
from typing import Callable

import numpy as np

from .assembly import ProblemSpec


def make_separable_problem(
    alpha: float,
    X: Callable,
    dX: Callable,
    ddX: Callable,
    T: Callable,
    dT: Callable,
    caputo_T: Callable[[np.ndarray, float], np.ndarray],
) -> ProblemSpec:
    """Manufactured problem for exact u(x,t) = X(x) T(t), with f obtained by
    substituting u into the equation using the analytic Caputo of T."""

    def f(x, t):
        return (
            X(x) * caputo_T(t, alpha)
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
        T=lambda t: t**1.5,
        dT=lambda t: 1.5 * np.sqrt(t),
        caputo_T=lambda t, a: gamma(2.5) * t ** (1.5 - a) / gamma(2.5 - a),
    )


def example2(alpha: float) -> ProblemSpec:
    """Exact solution u = t^2 e^x with psi1 = t^2, psi2 = e t^2."""
    return make_separable_problem(
        alpha,
        X=np.exp,
        dX=np.exp,
        ddX=np.exp,
        T=lambda t: t**2,
        dT=lambda t: 2.0 * t,
        caputo_T=lambda t, a: 2.0 * t ** (2.0 - a) / gamma(3.0 - a),
    )


def manufactured_poly(alpha: float) -> ProblemSpec:
    """u = x^2 (1 - x) t^2: polynomial in both directions, smooth everywhere."""
    return make_separable_problem(
        alpha,
        X=lambda x: x**2 * (1.0 - x),
        dX=lambda x: 2.0 * x - 3.0 * x**2,
        ddX=lambda x: 2.0 - 6.0 * x,
        T=lambda t: t**2,
        dT=lambda t: 2.0 * t,
        caputo_T=lambda t, a: 2.0 * t ** (2.0 - a) / gamma(3.0 - a),
    )


def manufactured_trig(alpha: float) -> ProblemSpec:
    """u = sin(pi x) t^3: trigonometric in space, cubic in time."""
    return make_separable_problem(
        alpha,
        X=lambda x: np.sin(pi * np.minimum(x, 1.0 - x)),
        dX=lambda x: pi * np.cos(pi * np.asarray(x, dtype=float)),
        ddX=lambda x: -(pi**2) * np.sin(pi * np.minimum(x, 1.0 - x)),
        T=lambda t: t**3,
        dT=lambda t: 3.0 * t**2,
        caputo_T=lambda t, a: 6.0 * t ** (3.0 - a) / gamma(4.0 - a),
    )


# problem name -> factory(alpha), the one problem lookup: REGISTRY[name](alpha)
REGISTRY: dict[str, Callable[[float], ProblemSpec]] = {
    "example1": example1,
    "example2": example2,
    "manufactured:poly": manufactured_poly,
    "manufactured:trig": manufactured_trig,
}
