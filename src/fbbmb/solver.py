"""Gauss-Newton iteration, globalized by a line search or a dogleg trust region,
for the collocation system.

`solve` minimizes 0.5 ||G(v)||^2 over the transform field v, for the stacked
residual G(v) = [R(v); C v - Rhat]: the collocation rows and the boundary
integral constraint, coupled by least squares. On the benchmark problems the
collocation and constraint rows carry a small mutual inconsistency, so G need
not vanish at the minimizer. Convergence is declared on a residual root,
||G||_inf <= tol_residual, or at the rounding floor (below), which is where a
least-squares minimizer with G != 0 stops.

There is one iteration loop. Each pass tests the residual, takes the
Gauss-Newton step, tests the rounding floor, shortens the step until it lowers
the merit, tests the step size, and last the iteration cap. `cfg.method` picks
only the shortening (Nocedal & Wright, Numerical Optimization, ch. 10-11):
"newton" halves the step up to 30 times (`_line_search`); "trust_region"
blends it with the Cauchy step inside a radius carried from one iteration to
the next (`_dogleg`). The dogleg's first radius is the length of the first
Gauss-Newton step, or of the Cauchy step when that step is not finite (More,
"The Levenberg-Marquardt algorithm", 1978), so a full Gauss-Newton step is
tried first and the dogleg takes Newton's iterations where those steps succeed.

The dense Jacobian [J(v); C] exists only inside a linear step: `newton_step`
builds it, LAPACK getrf overwrites it with its LU factors, and it is dropped
when the step returns. Everything else the loop needs of J (J^T G for the
dogleg's gradient, J p for predicted decreases) comes from the matrix-free
products `jvp` and `vjp`, so no Jacobian is held between steps or built after
the last one.

Each Gauss-Newton step is a rectangular-LU least-squares solve (Peters &
Wilkinson 1970; Bjorck 1996, sec. 2.5): LU with partial pivoting gives
P J = [L1; L2] U, B = L2 L1^-1, and the remaining (m+1)-column correction
min ||[B^T; I] s - [c1; -c2]|| is well-conditioned (||B||_2 is a few units),
so it is solved through its (m+1) x (m+1) normal equations. Back-substitution
through L1 and U gives the step. When LU cannot give a reliable step (an exact
zero pivot, or a trcon estimate of rcond(U) below eps * rows), J is built again
and the step is the minimum-norm solution by QR with column pivoting (LAPACK
gelsy), and the report warns if J has lost rank.

Rounding floor: once the full step's predicted decrease 0.5 ||J p||^2 is no
larger than the rounding level of the merit, ||G||_2 sqrt(rows) eps
(||Psi||_inf ||v||_inf + ||F||_inf) (the componentwise bound on the computed
residual, Higham ch. 3, with ||Psi||_inf bounded through its Kronecker factors),
no further iteration can be told from roundoff. The loop then takes the full
step unless it raises the merit, and stops converged with stop_reason "floor".
The floor scales with ||Psi|| and ||v||; an absolute bound on ||J^T G|| would
not, since ||J|| grows like n^2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs, lstsq
from scipy.linalg import solve as dense_solve

from .assembly import DiscreteSystem, jacobian, jvp, reconstruct, residual, vjp

EPS = np.finfo(float).eps
CONVERGED_REASONS = ("residual", "floor")
TOL_STEP = 1e-14  # stop, not converged, once a step's largest entry is this small
MIN_TRUST_RADIUS = 1e-12  # the dogleg gives up below this radius
ETA_ACCEPT = 0.1  # the dogleg accepts a step that achieves this share of its predicted decrease

_getrf, _trtrs, _trcon, _laswp = get_lapack_funcs(("getrf", "trtrs", "trcon", "laswp"), dtype=float)


@dataclass(frozen=True)
class SolverConfig:
    tol_residual: float = 1e-12
    max_iters: int = 100
    method: str = "newton"  # "newton" | "trust_region"

    def __post_init__(self):
        if not self.tol_residual > 0:  # also rejects nan
            raise ValueError("tol_residual must be positive")
        if self.max_iters < 1:
            raise ValueError(f"max_iters={self.max_iters} must be at least 1")
        if self.method not in ("newton", "trust_region"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class SolveReport:
    """The returned iterate `v`, its nodal solution `u`, and how the loop ended.

    `final_residual` is ||G||_inf at `v`, the measure the "residual" stop tests.
    `stop_reason` names the test that ended the iteration. Converged: "residual"
    (||G||_inf <= tol_residual), "floor" (the step's predicted decrease is below
    the merit's rounding level). Not converged: "step" (step below TOL_STEP),
    "stagnation" (30 halvings found no decrease), "max_iters",
    "radius_underflow" (trust radius below MIN_TRUST_RADIUS)."""

    v: np.ndarray
    u: np.ndarray
    iterations: int
    final_residual: float
    wall_time: float
    stop_reason: str
    warnings: tuple[str, ...] = ()

    @property
    def converged(self) -> bool:
        return self.stop_reason in CONVERGED_REASONS


def newton_step(sys: DiscreteSystem, v: np.ndarray, G: np.ndarray, warns: list[str],
                k: int) -> np.ndarray:
    """min ||J p + G|| for the Jacobian J at v by rectangular LU (see the module
    docstring). J is built here and factored in place."""
    J = jacobian(sys, v)
    M, N = J.shape
    lu, piv, info = _getrf(J, overwrite_a=1)
    top = np.asfortranarray(lu[:N])  # unit L1 below the diagonal, U on and above
    if info > 0 or _trcon(top)[0] < EPS * M:
        del J, lu, top  # the factors overwrote J; the handler needs J itself
        return _min_norm_step(jacobian(sys, v), G, warns, k)
    Bt, _ = _trtrs(top, lu[N:].T, lower=1, trans=1, unitdiag=1)
    c = _laswp(-G, piv)
    c1, c2 = c[:N], c[N:]
    s = dense_solve(Bt.T @ Bt + np.eye(M - N), Bt.T @ c1 - c2,
                    assume_a="pos", check_finite=False)
    y, _ = _trtrs(top, c1 - Bt @ s, lower=1, unitdiag=1)
    step, _ = _trtrs(top, y)
    return step


def _min_norm_step(J, G, warns, k):
    # the rank cutoff of np.linalg.lstsq; at scipy's default (eps) the
    # roundoff of an exactly rank-deficient J can count as rank and blow
    # up the step
    rcond = EPS * max(J.shape)
    step, _, rank, _ = lstsq(J, -G, cond=rcond, lapack_driver="gelsy", check_finite=False)
    if rank < J.shape[1]:
        warns.append(f"iteration {k}: Jacobian rank {rank} < {J.shape[1]}")
    return step


def _floor_scale(sys: DiscreteSystem) -> tuple[float, float]:
    """(an upper bound on ||Psi||_inf, ||F||_inf). As ||A (x) B||_inf =
    ||A||_inf ||B||_inf, ||Q_x (x) rl_frac - D_x (x) I||_inf is at most
    ||Q_x||_inf ||rl_frac||_inf + ||D_x||_inf."""
    psi_bound = (np.linalg.norm(sys.Q_x, np.inf) * np.linalg.norm(sys.rl_frac, np.inf)
                 + np.linalg.norm(sys.D_x, np.inf))
    return float(psi_bound), float(np.max(np.abs(sys.F)))


def _at_floor(sys, v, G, step, scale):
    """Whether the full step's predicted decrease is within the merit's
    rounding level; never for a non-finite step."""
    if not np.all(np.isfinite(step)):
        return False
    psi_norm, f_norm = scale
    Jp = jvp(sys, v, step)
    level = (np.linalg.norm(G) * np.sqrt(G.size) * EPS
             * (psi_norm * np.max(np.abs(v)) + f_norm))
    return 0.5 * float(Jp @ Jp) <= level


def _merit(G):
    # residuals need not vanish at the minimizer, so backtrack on the
    # least-squares merit rather than the residual norm
    return 0.5 * float(G @ G)


def _stop_reason(G, k, step_inf, cfg):
    """The test that ends the iteration after k steps, the last of largest
    entry step_inf, or None: the residual, the step size, then the cap."""
    if np.max(np.abs(G)) <= cfg.tol_residual:
        return "residual"
    if step_inf <= TOL_STEP:
        return "step"
    if k >= cfg.max_iters:
        return "max_iters"
    return None


def _line_search(sys, v, G, step):
    """The first of step, step/2, ... (30 tries) that lowers the merit, with the
    residual after it, or None."""
    merit = _merit(G)
    damp = 1.0
    for _ in range(30):
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
    A radius of None is set from the first step."""
    if not np.all(np.isfinite(step)):
        step = None
    g = vjp(sys, v, G)
    Jg = jvp(sys, v, g)
    if radius is None:
        radius = (np.linalg.norm(step) if step is not None
                  else float(g @ g) ** 1.5 / float(Jg @ Jg))  # ||Cauchy step||
    merit = _merit(G)
    while radius >= MIN_TRUST_RADIUS:
        p, hit_boundary = _dogleg_step(step, g, Jg, radius)
        predicted = merit - 0.5 * float(np.sum((G + jvp(sys, v, p)) ** 2))
        G_new = residual(sys, v + p)
        rho = (merit - _merit(G_new)) / predicted if predicted > 0 else -1.0
        if rho > ETA_ACCEPT:
            if rho > 0.75 and hit_boundary:
                radius *= 2.0
            return (p, G_new), radius
        radius *= 0.25
    return None, radius


def solve(sys: DiscreteSystem, cfg: SolverConfig, v0: np.ndarray | None = None) -> SolveReport:
    """Gauss-Newton from the zero initial guess (or the given one), its steps
    shortened as `cfg.method` says."""
    t0 = time.perf_counter()
    scale = _floor_scale(sys)
    v = np.zeros(sys.F.size) if v0 is None else np.array(v0, dtype=float)
    warns: list[str] = []
    radius = None
    G = residual(sys, v)
    k = 0
    reason = _stop_reason(G, k, np.inf, cfg)
    while reason is None:
        step = newton_step(sys, v, G, warns, k)
        if _at_floor(sys, v, G, step, scale):
            # take the full step unless it raises the merit
            v_new = v + step
            G_new = residual(sys, v_new)
            if _merit(G_new) <= _merit(G):
                v, G, k = v_new, G_new, k + 1
            reason = "floor"
            break
        if cfg.method == "newton":
            accepted = _line_search(sys, v, G, step)
            if accepted is None:
                reason = "stagnation"
                break
        else:
            accepted, radius = _dogleg(sys, v, G, step, radius)
            if accepted is None:
                warns.append(f"iteration {k}: trust radius underflow below {MIN_TRUST_RADIUS}")
                reason = "radius_underflow"
                break
        p, G = accepted
        v = v + p
        k += 1
        reason = _stop_reason(G, k, np.max(np.abs(p)), cfg)
    return SolveReport(v, reconstruct(sys, v), k, float(np.max(np.abs(G))),
                       time.perf_counter() - t0, reason, tuple(warns))
