"""Gauss-Newton iteration, globalized by a line search or a dogleg trust region,
for the collocation system.

`solve` minimizes 0.5 ||G(v)||^2 over the transform field v, for the stacked
residual G(v) = [R(v); C v - Rhat]: the collocation rows and the boundary
integral constraint, coupled by least squares. On the benchmark problems the
collocation and constraint rows carry a small mutual inconsistency, so G need
not vanish at the minimizer. Convergence is declared only at the rounding
floor (below), which is where a least-squares minimizer with G != 0 stops; it
scales with the data, so no absolute threshold on G, the step or the trust
radius can end the loop. The solver reads the system only through
`assembly`'s functions and its size N.

There is one iteration loop. Each pass computes the merit's rounding level,
holds one step (the held LU's, below, or a fresh LU's), tests the rounding
floor, and shortens the step until it lowers the merit; it stops "stagnation"
when MAX_TRIALS shortened steps find no decrease, "max_iters" after
cfg.max_iters steps, and "singular" when the LU is rejected (below). A step
that is not finite, tested once when it is obtained, is never added to v: a
held one is not tried, and a fresh one leaves the dogleg its Cauchy step and
Newton nothing to shorten ("stagnation").
`iterations` and cfg.max_iters count every accepted step, chord steps included.
`cfg.method` picks only the shortening (Nocedal & Wright, Numerical
Optimization, ch. 10-11): "newton" halves the step (`_line_search`);
"trust_region" blends it with the Cauchy step inside a radius carried from one
iteration to the next, quartering the radius on each rejected trial
(`_dogleg`). The dogleg's first radius is the length of the first
Gauss-Newton step, or of the Cauchy step when that step is not finite (More,
"The Levenberg-Marquardt algorithm", 1978), so a full Gauss-Newton step is
tried first and the dogleg takes Newton's iterations where those steps succeed.

Chord steps (Shamanskii 1967; Kelley, Solving Nonlinear Equations with
Newton's Method, 2003, sec. 2.3): each pass first tries the step of the LU the
loop holds from an earlier Jacobian, at the cost of one residual. Above the
merit's rounding level it keeps that step as a chord step, building no
Jacobian, when the new merit is finite and at most CHORD_CONTRACTION = 0.003
times the old one (||G||_2 falls at least 18-fold); otherwise it discards the
trial and goes on as if none had been made. At the rounding level the held
step is the last (below). The dogleg's radius is left as it was. Looser
thresholds keep chord steps that lead the iteration astray: on the first 500
draws of the tier-1 stress fixture's generator (data outside the registry),
0.003 gets Newton 459 and the dogleg 489 right answers, 0.01 gets 458 and 488
(cases 209 and 146 end "max_iters"), and Kelley's 0.25 (0.5 in ||G||) 457
and 484 for 6-8% more LUs; 0.003 and 0.01 report the same false verdicts.
On the registered problems 0.003 changes no verdict and saves about a third
of the LUs (`SolveReport.factorizations`).

The dense Jacobian [J(v); C] is built only for a linear step: `newton_step`
builds it and LAPACK getrf overwrites it with its LU factors. `solve` holds
those factors for its one trial per pass, and drops them before the next
Jacobian is built and when it returns, so that buffer is the only O(N^2)
array a solve holds: the triangular solves read U and L1 where getrf left
them, as the top N rows of that (N+m+1) x N buffer. Everything else the loop
needs of J (J^T G for the dogleg's gradient, J p for predicted decreases)
comes from the matrix-free products `jvp` and `vjp`.

Each Gauss-Newton step is a rectangular-LU least-squares solve (Peters &
Wilkinson 1970; Bjorck 1996, sec. 2.5): LU with partial pivoting gives
P J = [L1; L2] U, B = L2 L1^-1, and the remaining (m+1)-column correction
min ||[B^T; I] s - [c1; -c2]|| is well-conditioned (||B||_2 is a few units),
so it is solved through its (m+1) x (m+1) normal equations by Cholesky.
Back-substitution through L1 and U gives the step. `newton_step` alone decides
whether to trust the LU: it rejects it only when getrf reports an exact zero
pivot or potrf fails on B B^T + I, and `solve` then stops "singular". No
condition estimate gates the LU: where rcond(U) < eps * rows (example1 at
n = m = 64, lambda = -0.49), its step is still the least-squares step to
roundoff. `_lu_step` only solves: laswp, potrs and two triangular solves.

The five LAPACK routines are the double-precision f2py wrappers of scipy's
compiled module scipy/linalg/_flapack, the ones scipy.linalg.get_lapack_funcs
returns. `_load_flapack` loads that module from its file after `import scipy`
(whose init still runs, setting up scipy's shared libraries) and leaves it out
of sys.modules, so no run executes scipy.linalg's package init: in scipy 1.17
that runs `from numpy import *` in its vendored array_api_compat, which loads
numpy.f2py, numpy.ma, numpy.random, numpy.testing and unittest. Skipping it
takes `import fbbmb.cli` from 0.41 s to 0.16 s and the peak RSS of a default
CLI run from 58 MB to 35 MB (Python 3.11, 2-core x86-64, 1 BLAS thread).

Rounding floor: once the full step's predicted decrease 0.5 ||J p||^2 is no
larger than the rounding level of the merit, ||G||_2 sqrt(rows) eps
(||Psi||_inf ||v||_inf + ||F||_inf) (the componentwise bound on the computed
residual, Higham ch. 3, scaled by `assembly.rounding_scale`), no further
iteration can be told from roundoff. The level is computed once per
iteration, before any Jacobian. As the exact step's predicted decrease
0.5 ||P_J G||^2 is never above the merit 0.5 ||G||^2, a merit already within
the level means the floor test would pass: the loop then factors no J(v),
and the pass's step is the held LU's, if there is one. A start at rounding
level (a cascade's interpolated solution) holds no LU and so stops after
0 steps. Either test passed, one block takes the pass's step unless it raises
the merit and stops converged with stop_reason "floor"; the held LU's step
ends the loop only when the merit is already at its rounding level. Both
tests need a finite merit: once G overflows, the level is inf too and would
pass any test.
The floor scales with ||Psi|| and ||v||; an absolute bound on ||J^T G|| would
not, since ||J|| grows like n^2.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import numpy as np
import scipy

from .assembly import DiscreteSystem, jacobian, jvp, reconstruct, residual, rounding_scale, vjp

EPS = np.finfo(float).eps
MAX_TRIALS = 30  # shortened steps the line search or the dogleg tries per iteration
CHORD_CONTRACTION = 0.003  # a held LU's step is kept if the merit falls at least this much
ETA_ACCEPT = 0.1  # the dogleg accepts a step that achieves this share of its predicted decrease


def _load_flapack():
    """scipy's f2py LAPACK module `scipy/linalg/_flapack`, loaded from its file
    without running `scipy.linalg`'s package init and left out of
    `sys.modules` (see the module docstring)."""
    where = os.path.join(scipy.__path__[0], "linalg")
    spec = PathFinder.find_spec("_flapack", [where])
    if spec is None:
        raise ImportError(f"scipy's LAPACK module _flapack not found in {where}")
    module = module_from_spec(spec)
    if sys.modules.get(spec.name) is module:  # a single-phase extension enters itself
        del sys.modules[spec.name]
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
_getrf, _trtrs, _laswp, _potrf, _potrs = (
    _flapack.dgetrf, _flapack.dtrtrs, _flapack.dlaswp, _flapack.dpotrf, _flapack.dpotrs)


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 100
    method: str = "newton"  # "newton" | "trust_region"

    def __post_init__(self):
        if not float(self.max_iters).is_integer() or self.max_iters < 1:  # also nan, inf
            raise ValueError(f"max_iters={self.max_iters} must be an integer of at least 1")
        object.__setattr__(self, "max_iters", int(self.max_iters))
        if self.method not in ("newton", "trust_region"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class SolveReport:
    """The returned iterate `v`, its nodal solution `u`, and how the loop ended.

    `iterations` counts the accepted steps, chord steps included, and
    `factorizations` the LUs taken, the one rejected LU that ends a "singular"
    solve included. `stop_reason` names the test that ended the iteration:
    "floor" (the merit, or a fresh step's predicted decrease, is within the
    merit's rounding level; the pass's one step, a held LU's only when the
    merit is already there, is taken unless it raises it), the one converged
    verdict; "stagnation" (MAX_TRIALS shortened steps found no decrease, or
    under "newton" the fresh step is not finite), "max_iters"
    (cfg.max_iters steps taken) or "singular" (`newton_step` rejected the LU),
    not converged."""

    v: np.ndarray
    u: np.ndarray
    iterations: int
    stop_reason: str
    factorizations: int = 0

    @property
    def converged(self) -> bool:
        return self.stop_reason == "floor"


def newton_step(sys: DiscreteSystem, v: np.ndarray,
                G: np.ndarray) -> tuple[np.ndarray | None, tuple | None]:
    """(p, factors): p minimizes ||J p + G|| for the Jacobian J at v, by
    rectangular LU (see the module docstring), and `factors` = (lu, piv, B^T,
    chol) holds that LU for `_lu_step`, factored in place in the buffer
    `jacobian` returns (chol: Cholesky of B B^T + I). (None, None) when getrf
    reports an exact zero pivot or potrf fails."""
    J = jacobian(sys, v)
    N = J.shape[1]
    # the top N rows of lu hold the unit L1 below the diagonal and U on and
    # above it; trtrs reads that N x N block in place (its lda is M)
    lu, piv, info = _getrf(J, overwrite_a=1)
    if info > 0:
        return None, None
    Bt, _ = _trtrs(lu, lu[N:].T, lower=1, trans=1, unitdiag=1)
    chol, info = _potrf(Bt.T @ Bt + np.eye(Bt.shape[1]))
    if info != 0:
        return None, None
    factors = (lu, piv, Bt, chol)
    return _lu_step(factors, G), factors


def _lu_step(factors, G):
    """min ||J p + G|| from the factors `newton_step` accepted. The triangular
    solves cannot fail: getrf left no zero pivot in U, and L1 is unit."""
    lu, piv, Bt, chol = factors
    N = lu.shape[1]
    c = _laswp(-G, piv)
    c1, c2 = c[:N], c[N:]
    s, _ = _potrs(chol, Bt.T @ c1 - c2)
    y, _ = _trtrs(lu, c1 - Bt @ s, lower=1, unitdiag=1)
    step, _ = _trtrs(lu, y)
    return step


def _rounding_level(v, G, scale):
    """The rounding level of the merit at v: ||G||_2 sqrt(rows) eps
    (||Psi||_inf ||v||_inf + ||F||_inf)."""
    psi_norm, f_norm = scale
    return (float(np.linalg.norm(G)) * np.sqrt(G.size) * EPS
            * (psi_norm * float(np.max(np.abs(v))) + f_norm))


def _merit(G):
    # residuals need not vanish at the minimizer, so backtrack on the
    # least-squares merit rather than the residual norm
    return 0.5 * float(G @ G)


def _finite(step):
    """The step, or None when an entry of it is not finite."""
    return step if np.all(np.isfinite(step)) else None


def _line_search(sys, v, G, step):
    """The first of step, step/2, ... (MAX_TRIALS tries) that lowers the merit,
    with the residual after it, or None."""
    merit = _merit(G)
    damp = 1.0
    for _ in range(MAX_TRIALS):
        trial = damp * step
        G_new = residual(sys, v + trial)
        if _merit(G_new) < merit:
            return trial, G_new
        damp *= 0.5
    return None


def _dogleg_step(step_newton, g, Jg, radius):
    """Dogleg blend of the Cauchy and Gauss-Newton directions within the radius.
    Returns (step, hit_boundary)."""
    if step_newton is not None and np.linalg.norm(step_newton) <= radius:
        return step_newton, np.linalg.norm(step_newton) >= 0.999 * radius
    gnorm2 = float(g @ g)
    cauchy = -(gnorm2 / float(Jg @ Jg)) * g
    cnorm = np.linalg.norm(cauchy)
    if step_newton is None or cnorm >= radius:
        return -(radius / np.sqrt(gnorm2)) * g, True
    d = step_newton - cauchy
    a = float(d @ d)
    b = 2.0 * float(cauchy @ d)
    c = cnorm**2 - radius**2
    s = (-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
    return cauchy + s * d, True


def _dogleg(sys, v, G, step, radius):
    """((accepted step, residual after it) or None, the radius to carry on).
    A radius of None is set from the first step; a step of None is not finite."""
    g = vjp(sys, v, G)
    Jg = jvp(sys, v, g)
    if radius is None:
        radius = (np.linalg.norm(step) if step is not None
                  else float(g @ g) ** 1.5 / float(Jg @ Jg))  # ||Cauchy step||
    merit = _merit(G)
    for _ in range(MAX_TRIALS):
        p, hit_boundary = _dogleg_step(step, g, Jg, radius)
        predicted = merit - _merit(G + jvp(sys, v, p))
        G_new = residual(sys, v + p)
        rho = (merit - _merit(G_new)) / predicted if predicted > 0 else -1.0
        if rho > ETA_ACCEPT:
            if rho > 0.75 and hit_boundary:
                radius *= 2.0
            return (p, G_new), radius
        radius *= 0.25
    return None, radius


def solve(sys: DiscreteSystem, cfg: SolverConfig, v0: np.ndarray | None = None) -> SolveReport:
    """Gauss-Newton from the zero initial guess (or the given one, N finite
    numbers), its steps shortened as `cfg.method` says."""
    N = sys.F.size
    v = np.zeros(N) if v0 is None else np.array(v0, dtype=float)
    if v.shape != (N,) or not np.all(np.isfinite(v)):
        raise ValueError(f"v0 must be N = {N} finite numbers")
    scale = rounding_scale(sys)
    radius = None
    factors = None  # the LU of the last Jacobian, held until the next is built
    factorizations = 0
    G = residual(sys, v)
    k = 0
    reason = "max_iters"
    while k < cfg.max_iters:
        merit = _merit(G)
        level = _rounding_level(v, G, scale)
        # the floor test would pass at v: the held LU's step is the last, and
        # no Jacobian is factored to confirm the floor
        at_level = np.isfinite(merit) and merit <= level
        step = None if factors is None else _finite(_lu_step(factors, G))
        if not at_level:
            if step is not None:
                # a chord step if it cuts the merit about 333-fold (||G||_2
                # 18-fold); an LU is held only at a finite merit, so a new one
                # that is not finite fails this test
                G_new = residual(sys, v + step)
                if _merit(G_new) <= CHORD_CONTRACTION * merit:
                    v, G, k = v + step, G_new, k + 1
                    continue
            factors = None  # free the last LU before the next Jacobian is built
            step, factors = newton_step(sys, v, G)
            factorizations += 1
            if factors is None:
                reason = "singular"
                break
            step = _finite(step)
            at_level = (step is not None and np.isfinite(merit)
                        and _merit(jvp(sys, v, step)) <= level)
        if at_level:
            # take the step unless it raises the merit
            if step is not None:
                G_new = residual(sys, v + step)
                if _merit(G_new) <= merit:
                    v, G, k = v + step, G_new, k + 1
            reason = "floor"
            break
        if cfg.method == "newton":
            accepted = None if step is None else _line_search(sys, v, G, step)
        else:
            accepted, radius = _dogleg(sys, v, G, step, radius)
        if accepted is None:
            reason = "stagnation"
            break
        p, G = accepted
        v = v + p
        k += 1
    return SolveReport(v, reconstruct(sys, v), k, reason, factorizations)
