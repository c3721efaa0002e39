"""Damped Newton and dogleg trust-region solvers for the collocation system.

Two formulations are supported:

* "least_squares" (default): minimize 0.5 ||G(v)||^2 over v for the stacked
  residual G(v) = [R(v); C v - Rhat], with the Lagrange multiplier inert. On
  the benchmark problems this is the more accurate coupling: the collocation
  and constraint rows carry a small mutual inconsistency that a multiplier
  would otherwise absorb at O(1). Convergence is declared on first-order
  optimality ||J^T G||_inf <= tol_opt, on an exact residual root if one
  exists, or at the rounding floor (below). Each Gauss-Newton step is a
  rectangular-LU least-squares solve (Peters & Wilkinson 1970; Bjorck 1996,
  sec. 2.5): LU with partial pivoting gives P J = [L1; L2] U, B = L2 L1^-1,
  and the remaining (m+1)-column correction min ||[B^T; I] s - [c1; -c2]||
  is well-conditioned (||B||_2 is a few units), so it is solved through its
  (m+1) x (m+1) normal equations. Back-substitution through L1 and U gives
  the step. When LU cannot give a reliable step (an exact zero pivot, or a
  trcon estimate of rcond(U) below eps * rows), the step is the minimum-norm
  solution by QR with column pivoting (LAPACK gelsy), and the report warns if
  J has lost rank.

  Rounding floor: once the full step's predicted decrease 0.5 ||J p||^2 is no
  larger than the rounding level of the merit, ||G||_2 sqrt(rows) eps
  (||Psi||_inf ||v||_inf + ||F||_inf) (the componentwise bound on the
  computed residual, Higham ch. 3), no further iteration can be told from
  roundoff. Newton and the dogleg then take the full step unless it raises
  the merit, and stop converged with stop_reason "floor".

* "kkt": root-find the square augmented system [R(v) + C^T mu; C v - Rhat] = 0
  with the exact block Jacobian [[J(v), C^T], [C, 0]]. Enforces the boundary
  constraint exactly but is measurably less accurate in u; kept for
  cross-validation and for exact-constraint use cases.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs, lstsq, lu_factor, lu_solve
from scipy.linalg import solve as dense_solve

from .assembly import DiscreteSolution, DiscreteSystem, jacobian, reconstruct, residual

COND_WARN_THRESHOLD = 1e14
EPS = np.finfo(float).eps
CONVERGED_REASONS = ("residual", "optimality", "floor")

_getrf, _trtrs, _trcon, _laswp = get_lapack_funcs(("getrf", "trtrs", "trcon", "laswp"), dtype=float)


class SingularSystemError(RuntimeError):
    """Raised when the KKT matrix is exactly singular."""


@dataclass(frozen=True)
class SolverConfig:
    tol_residual: float = 1e-12
    tol_step: float = 1e-14
    tol_opt: float = 1e-9  # first-order optimality, least-squares formulation
    max_iters: int = 100
    initial_trust_radius: float = 1.0
    min_trust_radius: float = 1e-12
    eta_accept: float = 0.1
    method: str = "newton"  # "newton" | "trust_region"
    formulation: str = "least_squares"  # "least_squares" | "kkt"

    def __post_init__(self):
        if min(self.tol_residual, self.tol_step, self.tol_opt,
               self.initial_trust_radius, self.min_trust_radius) <= 0:
            raise ValueError("tolerances and radii must be positive")
        if not 0.0 < self.eta_accept < 1.0:
            raise ValueError(f"eta_accept={self.eta_accept} outside (0, 1)")
        if self.method not in ("newton", "trust_region"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.formulation not in ("least_squares", "kkt"):
            raise ValueError(f"unknown formulation {self.formulation!r}")


@dataclass(frozen=True)
class SolveReport:
    """`final_residual` is the converged stopping measure: the residual inf-norm
    in the kkt formulation, min(residual, optimality) in least_squares.

    `stop_reason` names the test that ended the iteration. Converged: "residual"
    (||G||_inf <= tol_residual), "optimality" (||J^T G||_inf <= tol_opt), "floor"
    (the step's predicted decrease is below the merit's rounding level). Not
    converged: "step" (step below tol_step), "stagnation" (30 halvings found no
    decrease), "max_iters", "radius_underflow" (trust radius below its minimum)."""

    solution: DiscreteSolution
    iterations: int
    final_residual: float
    converged: bool
    wall_time: float
    stop_reason: str
    warnings: tuple[str, ...] = field(default=())


def kkt_linear_solve(J_aug: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Dense LU solve with partial pivoting; returns (step, condition estimate)."""
    try:
        lu, piv = lu_factor(J_aug)
    except (LinAlgError, ValueError) as exc:
        raise SingularSystemError(f"KKT factorization failed: {exc}") from exc
    if not np.all(np.isfinite(lu)):
        raise SingularSystemError("KKT factorization produced non-finite factors")
    gecon = get_lapack_funcs("gecon", (J_aug,))
    rcond, _ = gecon(lu, np.linalg.norm(J_aug, 1))
    if rcond == 0.0:
        raise SingularSystemError("KKT matrix is numerically singular (rcond = 0)")
    return lu_solve((lu, piv), rhs), 1.0 / rcond


class _KktProblem:
    """Square augmented system in z = [v; mu]."""

    def __init__(self, sys: DiscreteSystem, include_nonlinear: bool):
        self.sys = sys
        self.nl = include_nonlinear
        self.N = sys.ordering.size

    def pack(self, v, mu):
        return np.concatenate([v, mu])

    def unpack(self, z):
        return z[: self.N], z[self.N :]

    def residual(self, z):
        v, mu = self.unpack(z)
        return residual(self.sys, v, mu, self.nl)

    def jacobian(self, z):
        v, _ = self.unpack(z)
        return jacobian(self.sys, v, self.nl)

    def newton_step(self, J, G, warns, k):
        step, cond = kkt_linear_solve(J, -G)
        if cond > COND_WARN_THRESHOLD:
            warns.append(f"iteration {k}: KKT condition estimate {cond:.2e}")
        return step

    def converged(self, G, J, cfg):
        """The name of the convergence test G and J pass, or None."""
        return "residual" if np.max(np.abs(G)) <= cfg.tol_residual else None

    def at_floor(self, z, G, J, step):
        return False

    def measure(self, G, J):
        return float(np.max(np.abs(G)))

    def merit(self, G):
        return float(np.max(np.abs(G)))


class _LeastSquaresProblem:
    """Rectangular system in v only; mu stays at its initial value."""

    def __init__(self, sys: DiscreteSystem, mu0: np.ndarray, include_nonlinear: bool):
        self.sys = sys
        self.mu = np.array(mu0, dtype=float)
        self.nl = include_nonlinear
        self.N = sys.ordering.size
        # ||Psi||_inf by row blocks, without an N x N temporary
        self.psi_norm = max(float(np.abs(sys.Psi[i : i + 256]).sum(axis=1).max())
                            for i in range(0, self.N, 256))
        self.f_norm = float(np.max(np.abs(sys.F)))

    def pack(self, v, mu):
        return np.array(v, dtype=float)

    def unpack(self, z):
        return z, self.mu

    def residual(self, z):
        return residual(self.sys, z, self.mu, self.nl)

    def jacobian(self, z):
        return jacobian(self.sys, z, self.nl)[:, : self.N]

    def newton_step(self, J, G, warns, k):
        """min ||J p + G|| by rectangular LU (see the module docstring)."""
        M, N = J.shape
        lu, piv, info = _getrf(J)
        top = np.asfortranarray(lu[:N])  # unit L1 below the diagonal, U on and above
        if info > 0 or _trcon(top)[0] < EPS * M:
            return self._min_norm_step(J, G, warns, k)
        Bt, _ = _trtrs(top, lu[N:].T, lower=1, trans=1, unitdiag=1)
        c = _laswp(-G, piv)
        c1, c2 = c[:N], c[N:]
        s = dense_solve(Bt.T @ Bt + np.eye(M - N), Bt.T @ c1 - c2,
                        assume_a="pos", check_finite=False)
        y, _ = _trtrs(top, c1 - Bt @ s, lower=1, unitdiag=1)
        step, _ = _trtrs(top, y)
        return step

    def _min_norm_step(self, J, G, warns, k):
        # the rank cutoff of np.linalg.lstsq; at scipy's default (eps) the
        # roundoff of an exactly rank-deficient J can count as rank and blow
        # up the step
        rcond = EPS * max(J.shape)
        step, _, rank, _ = lstsq(J, -G, cond=rcond, lapack_driver="gelsy", check_finite=False)
        if rank < self.N:
            warns.append(f"iteration {k}: Jacobian rank {rank} < {self.N}")
        return step

    def converged(self, G, J, cfg):
        """The name of the convergence test G and J pass, or None."""
        if np.max(np.abs(G)) <= cfg.tol_residual:
            return "residual"
        if np.max(np.abs(J.T @ G)) <= cfg.tol_opt:
            return "optimality"
        return None

    def at_floor(self, z, G, J, step):
        """Whether the full step's predicted decrease is within the merit's
        rounding level."""
        Jp = J @ step
        level = (np.linalg.norm(G) * np.sqrt(G.size) * EPS
                 * (self.psi_norm * np.max(np.abs(z)) + self.f_norm))
        return 0.5 * float(Jp @ Jp) <= level

    def measure(self, G, J):
        return float(min(np.max(np.abs(G)), np.max(np.abs(J.T @ G))))

    def merit(self, G):
        # residuals need not vanish at the minimizer, so backtrack on the
        # least-squares merit rather than the residual norm
        return 0.5 * float(G @ G)


def _make_problem(sys, mu0, cfg, include_nonlinear):
    if cfg.formulation == "kkt":
        return _KktProblem(sys, include_nonlinear)
    return _LeastSquaresProblem(sys, mu0, include_nonlinear)


def _make_report(prob, z, G, J, iters, reason, t0, warns):
    """Report on the iterate z, whose residual G and Jacobian J the loop has."""
    v, mu = prob.unpack(z)
    sol = DiscreteSolution(
        v=np.array(v),
        mu=np.array(mu),
        u=reconstruct(prob.sys, v),
        residual_norm=float(np.max(np.abs(G[: v.size]))),
        constraint_norm=float(np.max(np.abs(G[v.size :]))),
    )
    return SolveReport(
        solution=sol,
        iterations=iters,
        final_residual=prob.measure(G, J),
        converged=reason in CONVERGED_REASONS,
        wall_time=time.perf_counter() - t0,
        stop_reason=reason,
        warnings=tuple(warns),
    )


def _floor_report(prob, z, G, J, step, k, t0, warns):
    """Stop at the rounding floor, after taking the full step unless it raises
    the merit."""
    z_new = z + step
    G_new = prob.residual(z_new)
    if prob.merit(G_new) <= prob.merit(G):
        z, G, J, k = z_new, G_new, prob.jacobian(z_new), k + 1
    return _make_report(prob, z, G, J, k, "floor", t0, warns)


def newton_solve(
    sys: DiscreteSystem,
    v0: np.ndarray,
    mu0: np.ndarray,
    cfg: SolverConfig,
    include_nonlinear: bool = True,
) -> SolveReport:
    """Damped (Gauss-)Newton with a halving backtracking line search on the
    residual norm."""
    t0 = time.perf_counter()
    prob = _make_problem(sys, mu0, cfg, include_nonlinear)
    z = prob.pack(np.array(v0, dtype=float), np.array(mu0, dtype=float))
    warns: list[str] = []
    G = prob.residual(z)
    J = prob.jacobian(z)
    for k in range(cfg.max_iters):
        reason = prob.converged(G, J, cfg)
        if reason:
            return _make_report(prob, z, G, J, k, reason, t0, warns)
        step = prob.newton_step(J, G, warns, k)
        if prob.at_floor(z, G, J, step):
            return _floor_report(prob, z, G, J, step, k, t0, warns)
        merit = prob.merit(G)
        damp = 1.0
        for _ in range(30):
            z_new = z + damp * step
            G_new = prob.residual(z_new)
            if prob.merit(G_new) < merit:
                break
            damp *= 0.5
        else:
            return _make_report(prob, z, G, J, k, "stagnation", t0, warns)
        z, G = z_new, G_new
        J = prob.jacobian(z)
        if damp * np.max(np.abs(step)) <= cfg.tol_step:
            reason = prob.converged(G, J, cfg) or "step"
            return _make_report(prob, z, G, J, k + 1, reason, t0, warns)
    reason = prob.converged(G, J, cfg) or "max_iters"
    return _make_report(prob, z, G, J, cfg.max_iters, reason, t0, warns)


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


def trust_region_solve(
    sys: DiscreteSystem,
    v0: np.ndarray,
    mu0: np.ndarray,
    cfg: SolverConfig,
    include_nonlinear: bool = True,
) -> SolveReport:
    """Dogleg trust region on the least-squares merit 0.5 ||G||^2 with the exact
    Jacobian of the configured formulation."""
    t0 = time.perf_counter()
    prob = _make_problem(sys, mu0, cfg, include_nonlinear)
    z = prob.pack(np.array(v0, dtype=float), np.array(mu0, dtype=float))
    warns: list[str] = []
    radius = cfg.initial_trust_radius
    G = prob.residual(z)
    J = prob.jacobian(z)
    k = 0
    reason = prob.converged(G, J, cfg)
    while reason is None:
        if k >= cfg.max_iters:
            reason = "max_iters"
            break
        try:
            step_newton = prob.newton_step(J, G, warns, k)
            if not np.all(np.isfinite(step_newton)):
                step_newton = None
        except SingularSystemError:
            step_newton = None
        if step_newton is not None and prob.at_floor(z, G, J, step_newton):
            return _floor_report(prob, z, G, J, step_newton, k, t0, warns)
        g = J.T @ G
        Jg = J @ g
        merit = 0.5 * float(G @ G)
        accepted = False
        while radius >= cfg.min_trust_radius:
            p, hit_boundary = _dogleg_step(step_newton, g, Jg, radius)
            predicted = merit - 0.5 * float(np.sum((G + J @ p) ** 2))
            z_new = z + p
            G_new = prob.residual(z_new)
            merit_new = 0.5 * float(G_new @ G_new)
            rho = (merit - merit_new) / predicted if predicted > 0 else -1.0
            if rho > cfg.eta_accept:
                z, G = z_new, G_new
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
        J = prob.jacobian(z)
        k += 1
        reason = prob.converged(G, J, cfg)
        if reason is None and step_inf <= cfg.tol_step:
            reason = "step"
    return _make_report(prob, z, G, J, k, reason, t0, warns)


def solve(
    sys: DiscreteSystem,
    cfg: SolverConfig,
    v0: np.ndarray | None = None,
    mu0: np.ndarray | None = None,
) -> SolveReport:
    """Solve from the zero initial guess (or the given one) with the configured method."""
    v0 = np.zeros(sys.ordering.size) if v0 is None else v0
    mu0 = np.zeros(sys.ordering.m + 1) if mu0 is None else mu0
    runner = newton_solve if cfg.method == "newton" else trust_region_solve
    return runner(sys, v0, mu0, cfg)
