"""Damped Gauss-Newton and dogleg trust-region solvers for the collocation system.

Both minimize 0.5 ||G(v)||^2 over the transform field v, for the stacked
residual G(v) = [R(v); C v - Rhat]: the collocation rows and the boundary
integral constraint, coupled by least squares. On the benchmark problems the
collocation and constraint rows carry a small mutual inconsistency, so G need
not vanish at the minimizer. Convergence is declared on a residual root,
||G||_inf <= tol_residual, or at the rounding floor (below), which is where a
least-squares minimizer with G != 0 stops.

The dense Jacobian [J(v); C] exists only inside a linear step: `newton_step`
builds it, LAPACK getrf overwrites it with its LU factors, and it is dropped
when the step returns. Everything else the solvers need of J (J^T G for the
dogleg's gradient, J p for predicted decreases) comes from the matrix-free
products `jvp` and `vjp`, so no Jacobian is held between steps or built after
the last one.

Each Gauss-Newton step (and the Newton leg of the dogleg) is a rectangular-LU
least-squares solve (Peters & Wilkinson 1970; Bjorck 1996, sec. 2.5): LU with
partial pivoting gives P J = [L1; L2] U, B = L2 L1^-1, and the remaining
(m+1)-column correction min ||[B^T; I] s - [c1; -c2]|| is well-conditioned
(||B||_2 is a few units), so it is solved through its (m+1) x (m+1) normal
equations. Back-substitution through L1 and U gives the step. When LU cannot
give a reliable step (an exact zero pivot, or a trcon estimate of rcond(U)
below eps * rows), J is built again and the step is the minimum-norm solution
by QR with column pivoting (LAPACK gelsy), and the report warns if J has lost
rank.

Rounding floor: once the full step's predicted decrease 0.5 ||J p||^2 is no
larger than the rounding level of the merit, ||G||_2 sqrt(rows) eps
(||Psi||_inf ||v||_inf + ||F||_inf) (the componentwise bound on the computed
residual, Higham ch. 3), no further iteration can be told from roundoff.
Newton and the dogleg then take the full step unless it raises the merit, and
stop converged with stop_reason "floor". The floor scales with ||Psi|| and ||v||;
an absolute bound on ||J^T G|| would not, since ||J|| grows like n^2.

The dogleg's first trust radius is the length of the first Gauss-Newton step,
or of the Cauchy step when that step is not finite (More, "The
Levenberg-Marquardt algorithm", 1978), so a full Gauss-Newton step is tried
first and the dogleg takes Newton's iterations where those steps succeed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs, lstsq
from scipy.linalg import solve as dense_solve

from .assembly import (DiscreteSolution, DiscreteSystem, jacobian, jvp, reconstruct, residual,
                       vjp)

EPS = np.finfo(float).eps
CONVERGED_REASONS = ("residual", "floor")

_getrf, _trtrs, _trcon, _laswp = get_lapack_funcs(("getrf", "trtrs", "trcon", "laswp"), dtype=float)


@dataclass(frozen=True)
class SolverConfig:
    tol_residual: float = 1e-12
    tol_step: float = 1e-14
    max_iters: int = 100
    min_trust_radius: float = 1e-12
    eta_accept: float = 0.1
    method: str = "newton"  # "newton" | "trust_region"

    def __post_init__(self):
        if min(self.tol_residual, self.tol_step, self.min_trust_radius) <= 0:
            raise ValueError("tolerances and radii must be positive")
        if not 0.0 < self.eta_accept < 1.0:
            raise ValueError(f"eta_accept={self.eta_accept} outside (0, 1)")
        if self.method not in ("newton", "trust_region"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class SolveReport:
    """`final_residual` is ||G||_inf at the returned iterate, the measure the
    "residual" stop tests.

    `stop_reason` names the test that ended the iteration. Converged: "residual"
    (||G||_inf <= tol_residual), "floor" (the step's predicted decrease is below
    the merit's rounding level). Not converged: "step" (step below tol_step),
    "stagnation" (30 halvings found no decrease), "max_iters",
    "radius_underflow" (trust radius below its minimum)."""

    solution: DiscreteSolution
    iterations: int
    final_residual: float
    converged: bool
    wall_time: float
    stop_reason: str
    warnings: tuple[str, ...] = field(default=())


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
    """(||Psi||_inf, ||F||_inf), the first from the factors of
    Psi = Q_x (x) rl_frac - D_x (x) I: row (i, j) holds Q_x[i,p] rl_frac[j,q],
    less D_x[i,p] where q = j, so its absolute sum splits into the q != j part,
    sum_p |Q_x[i,p]| * sum_{q != j} |rl_frac[j,q]|, and the q = j part."""
    rl_diag = np.diag(sys.rl_frac)
    off_diag = np.abs(sys.rl_frac - np.diag(rl_diag)).sum(axis=1)  # [j]
    on_diag = np.abs(sys.Q_x[:, None, :] * rl_diag[None, :, None]
                     - sys.D_x[:, None, :]).sum(axis=2)  # [i, j]
    rows = np.abs(sys.Q_x).sum(axis=1)[:, None] * off_diag[None, :] + on_diag
    return float(rows.max()), float(np.max(np.abs(sys.F)))


def _at_floor(sys, v, G, step, scale):
    """Whether the full step's predicted decrease is within the merit's
    rounding level."""
    psi_norm, f_norm = scale
    Jp = jvp(sys, v, step)
    level = (np.linalg.norm(G) * np.sqrt(G.size) * EPS
             * (psi_norm * np.max(np.abs(v)) + f_norm))
    return 0.5 * float(Jp @ Jp) <= level


def _converged(G, cfg):
    """The stop reason "residual" if ||G||_inf <= tol_residual, else None."""
    return "residual" if np.max(np.abs(G)) <= cfg.tol_residual else None


def _merit(G):
    # residuals need not vanish at the minimizer, so backtrack on the
    # least-squares merit rather than the residual norm
    return 0.5 * float(G @ G)


def _make_report(sys, v, G, iters, reason, t0, warns):
    """Report on the iterate v, whose residual G the loop has."""
    sol = DiscreteSolution(
        v=np.array(v),
        u=reconstruct(sys, v),
        residual_norm=float(np.max(np.abs(G[: v.size]))),
        constraint_norm=float(np.max(np.abs(G[v.size :]))),
    )
    return SolveReport(
        solution=sol,
        iterations=iters,
        final_residual=float(np.max(np.abs(G))),
        converged=reason in CONVERGED_REASONS,
        wall_time=time.perf_counter() - t0,
        stop_reason=reason,
        warnings=tuple(warns),
    )


def _floor_report(sys, v, G, step, k, t0, warns):
    """Stop at the rounding floor, after taking the full step unless it raises
    the merit."""
    v_new = v + step
    G_new = residual(sys, v_new)
    if _merit(G_new) <= _merit(G):
        v, G, k = v_new, G_new, k + 1
    return _make_report(sys, v, G, k, "floor", t0, warns)


def newton_solve(sys: DiscreteSystem, v0: np.ndarray, cfg: SolverConfig) -> SolveReport:
    """Damped Gauss-Newton with a halving backtracking line search on the
    least-squares merit."""
    t0 = time.perf_counter()
    scale = _floor_scale(sys)
    v = np.array(v0, dtype=float)
    warns: list[str] = []
    G = residual(sys, v)
    for k in range(cfg.max_iters):
        reason = _converged(G, cfg)
        if reason:
            return _make_report(sys, v, G, k, reason, t0, warns)
        step = newton_step(sys, v, G, warns, k)
        if _at_floor(sys, v, G, step, scale):
            return _floor_report(sys, v, G, step, k, t0, warns)
        merit = _merit(G)
        damp = 1.0
        for _ in range(30):
            v_new = v + damp * step
            G_new = residual(sys, v_new)
            if _merit(G_new) < merit:
                break
            damp *= 0.5
        else:
            return _make_report(sys, v, G, k, "stagnation", t0, warns)
        v, G = v_new, G_new
        if damp * np.max(np.abs(step)) <= cfg.tol_step:
            reason = _converged(G, cfg) or "step"
            return _make_report(sys, v, G, k + 1, reason, t0, warns)
    reason = _converged(G, cfg) or "max_iters"
    return _make_report(sys, v, G, cfg.max_iters, reason, t0, warns)


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


def trust_region_solve(sys: DiscreteSystem, v0: np.ndarray, cfg: SolverConfig) -> SolveReport:
    """Dogleg trust region on the least-squares merit 0.5 ||G||^2 with the exact
    Jacobian."""
    t0 = time.perf_counter()
    scale = _floor_scale(sys)
    v = np.array(v0, dtype=float)
    warns: list[str] = []
    radius = None  # the length of the first step, set at iteration 0
    G = residual(sys, v)
    k = 0
    reason = _converged(G, cfg)
    while reason is None:
        if k >= cfg.max_iters:
            reason = "max_iters"
            break
        step_newton = newton_step(sys, v, G, warns, k)
        if not np.all(np.isfinite(step_newton)):
            step_newton = None
        if step_newton is not None and _at_floor(sys, v, G, step_newton, scale):
            return _floor_report(sys, v, G, step_newton, k, t0, warns)
        g = vjp(sys, v, G)
        Jg = jvp(sys, v, g)
        if radius is None:
            radius = (np.linalg.norm(step_newton) if step_newton is not None
                      else float(g @ g) ** 1.5 / float(Jg @ Jg))  # ||Cauchy step||
        merit = _merit(G)
        accepted = False
        while radius >= cfg.min_trust_radius:
            p, hit_boundary = _dogleg_step(step_newton, g, Jg, radius)
            predicted = merit - 0.5 * float(np.sum((G + jvp(sys, v, p)) ** 2))
            v_new = v + p
            G_new = residual(sys, v_new)
            merit_new = _merit(G_new)
            rho = (merit - merit_new) / predicted if predicted > 0 else -1.0
            if rho > cfg.eta_accept:
                v, G = v_new, G_new
                if rho > 0.75 and hit_boundary:
                    radius *= 2.0
                accepted = True
                step_inf = np.max(np.abs(p))
                break
            radius *= 0.25
        if not accepted:
            warns.append(f"iteration {k}: trust radius underflow below {cfg.min_trust_radius}")
            reason = "radius_underflow"
            break
        k += 1
        reason = _converged(G, cfg)
        if reason is None and step_inf <= cfg.tol_step:
            reason = "step"
    return _make_report(sys, v, G, k, reason, t0, warns)


def solve(sys: DiscreteSystem, cfg: SolverConfig, v0: np.ndarray | None = None) -> SolveReport:
    """Solve from the zero initial guess (or the given one) with the configured method."""
    v0 = np.zeros(sys.ordering.size) if v0 is None else v0
    runner = newton_solve if cfg.method == "newton" else trust_region_solve
    return runner(sys, v0, cfg)
