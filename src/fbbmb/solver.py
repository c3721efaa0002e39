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

There is one iteration loop. Each pass tests the merit against its rounding
level, takes the Gauss-Newton step, tests the rounding floor, and shortens the
step until it lowers the merit; it stops "stagnation" when MAX_TRIALS shortened
steps find no decrease, and "max_iters" after cfg.max_iters steps.
`cfg.method` picks only the shortening (Nocedal & Wright, Numerical
Optimization, ch. 10-11): "newton" halves the step (`_line_search`);
"trust_region" blends it with the Cauchy step inside a radius carried from one
iteration to the next, quartering the radius on each rejected trial
(`_dogleg`). The dogleg's first radius is the length of the first
Gauss-Newton step, or of the Cauchy step when that step is not finite (More,
"The Levenberg-Marquardt algorithm", 1978), so a full Gauss-Newton step is
tried first and the dogleg takes Newton's iterations where those steps succeed.

The dense Jacobian [J(v); C] is built only for a linear step: `newton_step`
builds it and LAPACK getrf overwrites it with its LU factors. `solve` holds
those factors until the next iteration, for the rounding-level stop's last
correction (below), and drops them before the next Jacobian is built and when
it returns, so that buffer is the only O(N^2) array a solve holds: the
condition estimate and the triangular solves read U and L1 where getrf left
them, as the top N rows of that (N+m+1) x N buffer. Everything else the loop
needs of J (J^T G for the dogleg's gradient, J p for predicted decreases)
comes from the matrix-free products `jvp` and `vjp`.

Each Gauss-Newton step is a rectangular-LU least-squares solve (Peters &
Wilkinson 1970; Bjorck 1996, sec. 2.5): LU with partial pivoting gives
P J = [L1; L2] U, B = L2 L1^-1, and the remaining (m+1)-column correction
min ||[B^T; I] s - [c1; -c2]|| is well-conditioned (||B||_2 is a few units),
so it is solved through its (m+1) x (m+1) normal equations by Cholesky.
Back-substitution through L1 and U gives the step. `_lu_factor` alone decides
whether to trust the LU: it takes getrf, dtrcon, B^T and potrf of B B^T + I,
and rejects an exact zero pivot, rcond(U) below eps * rows or a failed
Cholesky, after which J is built again and the step is the minimum-norm
solution by QR with column pivoting (LAPACK gelsy); the report warns if J has
lost rank. `_lu_step` only solves: laswp, potrs and two triangular solves.

Rounding floor: once the full step's predicted decrease 0.5 ||J p||^2 is no
larger than the rounding level of the merit, ||G||_2 sqrt(rows) eps
(||Psi||_inf ||v||_inf + ||F||_inf) (the componentwise bound on the computed
residual, Higham ch. 3, scaled by `assembly.rounding_scale`), no further
iteration can be told from roundoff. The loop then takes the full step unless
it raises the merit, and stops converged with stop_reason "floor".
The level is computed once per iteration, before any Jacobian. As the exact
step's predicted decrease 0.5 ||P_J G||^2 is never above the merit 0.5 ||G||^2,
a merit already within the level means the floor test would pass: the loop
then stops "floor" without factoring J(v), after the step that the held LU of
the previous iterate gives for G, unless that step raises the merit. A start
at rounding level (a cascade's interpolated solution) so stops after 0 steps.
The floor scales with ||Psi|| and ||v||; an absolute bound on ||J^T G|| would
not, since ||J|| grows like n^2.
"""

from __future__ import annotations

import ctypes
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cython_lapack, get_lapack_funcs, lstsq

from .assembly import DiscreteSystem, jacobian, jvp, reconstruct, residual, rounding_scale, vjp

EPS = np.finfo(float).eps
MAX_TRIALS = 30  # shortened steps the line search or the dogleg tries per iteration
ETA_ACCEPT = 0.1  # the dogleg accepts a step that achieves this share of its predicted decrease

_getrf, _trtrs, _laswp, _potrf, _potrs = get_lapack_funcs(
    ("getrf", "trtrs", "laswp", "potrf", "potrs"), dtype=float)


def _cython_lapack(name, *argtypes):
    """LAPACK's `name` as scipy.linalg.cython_lapack exports it, as a ctypes
    function of the given argument types that returns nothing."""
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    capsule = cython_lapack.__pyx_capi__[name]
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))


_INT_P = ctypes.POINTER(ctypes.c_int)
# dtrcon(norm, uplo, diag, n, a, lda, rcond, work, iwork, info)
_dtrcon = _cython_lapack(
    "dtrcon", ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p, _INT_P, ctypes.c_void_p,
    _INT_P, ctypes.POINTER(ctypes.c_double), ctypes.c_void_p, ctypes.c_void_p, _INT_P)


def _trcon(lu: np.ndarray, n: int) -> tuple[float, int]:
    """(rcond, info) of the upper triangle of the top n rows of the
    Fortran-ordered `lu`, read in place: LAPACK dtrcon in the 1-norm with
    leading dimension lu.shape[0]. (scipy's f2py trcon takes no leading
    dimension, and handed an M x n array it estimates the wrong matrix.)"""
    if not (lu.ndim == 2 and lu.flags.f_contiguous and lu.dtype == np.float64
            and 0 <= n <= min(lu.shape)):
        raise ValueError("_trcon needs a Fortran-ordered float64 array of at least n x n")
    order, lda = ctypes.c_int(n), ctypes.c_int(lu.shape[0])
    rcond, info = ctypes.c_double(), ctypes.c_int()
    work, iwork = np.empty(3 * n), np.empty(n, dtype=np.intc)
    _dtrcon(b"1", b"U", b"N", ctypes.byref(order), lu.ctypes.data, ctypes.byref(lda),
            ctypes.byref(rcond), work.ctypes.data, iwork.ctypes.data, ctypes.byref(info))
    return rcond.value, info.value


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

    `final_residual` is ||G||_inf at `v`. `stop_reason` names the test that
    ended the iteration: "floor" (the merit, or the step's predicted decrease,
    is within the merit's rounding level), the one converged verdict;
    "stagnation" (MAX_TRIALS shortened steps found no decrease) or "max_iters"
    (cfg.max_iters steps taken), not converged."""

    v: np.ndarray
    u: np.ndarray
    iterations: int
    final_residual: float
    wall_time: float
    stop_reason: str
    warnings: tuple[str, ...] = ()

    @property
    def converged(self) -> bool:
        return self.stop_reason == "floor"


def newton_step(sys: DiscreteSystem, v: np.ndarray, G: np.ndarray, warns: list[str],
                k: int) -> tuple[np.ndarray, tuple | None]:
    """(p, factors): p minimizes ||J p + G|| for the Jacobian J at v, by
    rectangular LU (see the module docstring). `factors` holds that LU for
    `_lu_step`, or is None when the minimum-norm handler gave p."""
    factors = _lu_factor(sys, v)
    if factors is None:
        return _min_norm_step(jacobian(sys, v), G, warns, k), None
    return _lu_step(factors, G), factors


def _lu_factor(sys, v):
    """(lu, piv, B^T, chol) of [J(v); C], factored in place in the buffer
    `jacobian` returns (chol: Cholesky of B B^T + I), or None if rejected."""
    J = jacobian(sys, v)
    N = J.shape[1]
    # the top N rows of lu hold the unit L1 below the diagonal and U on and
    # above it; trcon and trtrs read that N x N block in place (their lda is M)
    lu, piv, info = _getrf(J, overwrite_a=1)
    if info > 0 or _trcon(lu, N)[0] < EPS * J.shape[0]:
        return None
    Bt, _ = _trtrs(lu, lu[N:].T, lower=1, trans=1, unitdiag=1)
    chol, info = _potrf(Bt.T @ Bt + np.eye(Bt.shape[1]))
    return None if info != 0 else (lu, piv, Bt, chol)


def _lu_step(factors, G):
    """min ||J p + G|| from the factors `_lu_factor` accepted. The triangular
    solves cannot fail: getrf left no zero pivot in U, and L1 is unit."""
    lu, piv, Bt, chol = factors
    N = lu.shape[1]
    c = _laswp(-G, piv)
    c1, c2 = c[:N], c[N:]
    s, _ = _potrs(chol, Bt.T @ c1 - c2)
    y, _ = _trtrs(lu, c1 - Bt @ s, lower=1, unitdiag=1)
    step, _ = _trtrs(lu, y)
    return step


def _min_norm_step(J, G, warns, k):
    # eps * rows, the rank cutoff of np.linalg.lstsq (J has more rows than
    # columns); at scipy's default (eps) the roundoff of an exactly
    # rank-deficient J can count as rank and blow up the step
    rcond = EPS * J.shape[0]
    step, _, rank, _ = lstsq(J, -G, cond=rcond, lapack_driver="gelsy", check_finite=False)
    if rank < J.shape[1]:
        warns.append(f"iteration {k}: Jacobian rank {rank} < {J.shape[1]}")
    return step


def _rounding_level(v, G, scale):
    """The rounding level of the merit at v: ||G||_2 sqrt(rows) eps
    (||Psi||_inf ||v||_inf + ||F||_inf)."""
    psi_norm, f_norm = scale
    return (float(np.linalg.norm(G)) * np.sqrt(G.size) * EPS
            * (psi_norm * float(np.max(np.abs(v))) + f_norm))


def _at_floor(sys, v, step, level):
    """Whether the full step's predicted decrease is within the merit's
    rounding level; never for a non-finite step."""
    if not np.all(np.isfinite(step)):
        return False
    Jp = jvp(sys, v, step)
    return 0.5 * float(Jp @ Jp) <= level


def _merit(G):
    # residuals need not vanish at the minimizer, so backtrack on the
    # least-squares merit rather than the residual norm
    return 0.5 * float(G @ G)


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
    A radius of None is set from the first step."""
    if not np.all(np.isfinite(step)):
        step = None
    g = vjp(sys, v, G)
    Jg = jvp(sys, v, g)
    if radius is None:
        radius = (np.linalg.norm(step) if step is not None
                  else float(g @ g) ** 1.5 / float(Jg @ Jg))  # ||Cauchy step||
    merit = _merit(G)
    for _ in range(MAX_TRIALS):
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
    """Gauss-Newton from the zero initial guess (or the given one, N finite
    numbers), its steps shortened as `cfg.method` says."""
    t0 = time.perf_counter()
    N = sys.F.size
    v = np.zeros(N) if v0 is None else np.array(v0, dtype=float)
    if v.shape != (N,) or not np.all(np.isfinite(v)):
        raise ValueError(f"v0 must be N = {N} finite numbers")
    scale = rounding_scale(sys)
    warns: list[str] = []
    radius = None
    factors = None  # the LU of the last Jacobian, held until the next is built
    G = residual(sys, v)
    k = 0
    reason = "max_iters"
    while k < cfg.max_iters:
        level = _rounding_level(v, G, scale)
        at_level = _merit(G) <= level
        if at_level:
            # the floor test would pass at v: rather than factor J(v) to
            # confirm it, finish with the step of the LU held from the last
            # iterate
            step = None if factors is None else _lu_step(factors, G)
        else:
            factors = None  # free the last LU before the next Jacobian is built
            step, factors = newton_step(sys, v, G, warns, k)
        if at_level or _at_floor(sys, v, step, level):
            # take the full step unless it is missing or raises the merit
            if step is not None:
                v_new = v + step
                G_new = residual(sys, v_new)
                if _merit(G_new) <= _merit(G):
                    v, G, k = v_new, G_new, k + 1
            reason = "floor"
            break
        if cfg.method == "newton":
            accepted = _line_search(sys, v, G, step)
        else:
            accepted, radius = _dogleg(sys, v, G, step, radius)
        if accepted is None:
            reason = "stagnation"
            break
        p, G = accepted
        v = v + p
        k += 1
    return SolveReport(v, reconstruct(sys, v), k, float(np.max(np.abs(G))),
                       time.perf_counter() - t0, reason, tuple(warns))
