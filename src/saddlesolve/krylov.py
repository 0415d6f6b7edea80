"""Right-preconditioned flexible GMRES with restart, plus the
iterative-refinement preconditioner operator with null-space elimination.

The preconditioner operator applies K stationary correction sweeps
z <- z + P Minv (v - J z) starting from z = 0, where P projects off a
supplied unit null vector; flexible GMRES stores the per-iteration
preconditioned vectors so the sweeps may vary between iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mlilu import MultilevelFactor, ml_solve

__all__ = [
    "GmresParams",
    "PrecondOperator",
    "KrylovReport",
    "fgmres",
    "eta_newton",
]

_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class GmresParams:
    restart: int = 30
    max_iters: int = 200
    rtol: float = 1e-6

    def __post_init__(self):
        if self.restart < 1:
            raise ValueError("restart must be >= 1")
        if self.max_iters < self.restart:
            raise ValueError("max_iters must be >= restart")
        if not (0 < self.rtol < 1):
            raise ValueError("rtol must be in (0, 1)")


class PrecondOperator:
    """Preconditioner action with optional refinement and null projection.

    factor supplies the approximate inverse; j_op is the matrix used for
    the residual correction when refine_steps > 1; null_basis, if given, is
    normalized and projected off every correction.
    """

    def __init__(self, factor: MultilevelFactor, j_op=None,
                 null_basis: np.ndarray | None = None, refine_steps: int = 1):
        if refine_steps < 1:
            raise ValueError("refine_steps must be >= 1")
        if refine_steps > 1 and j_op is None:
            raise ValueError("refinement needs the operator for residual correction")
        self.factor = factor
        self.j_op = j_op
        self.refine_steps = refine_steps
        if null_basis is not None:
            null_basis = np.asarray(null_basis, dtype=np.float64)
            nrm = np.linalg.norm(null_basis)
            if nrm == 0:
                raise ValueError("null basis must be nonzero")
            null_basis = null_basis / nrm
        self.null_basis = null_basis

    def _project(self, z):
        # twice: one classical pass leaves about eps * |q.z| along q, and
        # q.z can dwarf |z| on a singular saddle system
        if self.null_basis is not None:
            for _ in range(2):
                z = z - self.null_basis * (self.null_basis @ z)
        return z

    def apply(self, v: np.ndarray) -> np.ndarray:
        z = self._project(ml_solve(self.factor, v))
        for _ in range(self.refine_steps - 1):
            r = v - self.j_op @ z
            z = z + self._project(ml_solve(self.factor, r))
        return z


@dataclass
class KrylovReport:
    iterations: int = 0
    final_relres: float = np.inf
    converged: bool = False
    breakdown: bool = False
    residual_history: list[float] = field(default_factory=list)

    def write_history_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as f:
            f.write("iteration,relres\n")
            for i, r in enumerate(self.residual_history):
                f.write(f"{i + 1},{r:.17g}\n")


def fgmres(a_op, precond: PrecondOperator | None, b: np.ndarray, params: GmresParams):
    """Flexible restarted GMRES on A x = b from x = 0, with right
    preconditioning.

    Modified Gram-Schmidt Arnoldi with Givens-rotation least squares; the
    true residual is checked at every restart and decides the converged
    flag.  An Arnoldi breakdown is treated as convergence to the current
    subspace and flagged on the report.
    """
    b = np.asarray(b, dtype=np.float64)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side must be finite")
    n = b.size
    bnorm = np.linalg.norm(b)
    report = KrylovReport()
    x = np.zeros(n)
    if bnorm == 0.0:
        report.converged = True
        report.final_relres = 0.0
        return x, report

    tol = params.rtol * bnorm
    brk_tol = 1e3 * _EPS * bnorm
    total = 0
    while True:
        r = b - a_op @ x
        rnorm = np.linalg.norm(r)
        if rnorm <= tol or total >= params.max_iters:
            break
        m = min(params.restart, params.max_iters - total)
        basis = np.zeros((m + 1, n))
        zmat = np.zeros((m, n))
        h = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = rnorm
        basis[0] = r / rnorm
        cols = 0
        for j in range(m):
            zmat[j] = precond.apply(basis[j]) if precond is not None else basis[j]
            w = a_op @ zmat[j]
            for i in range(j + 1):
                h[i, j] = basis[i] @ w
                w -= h[i, j] * basis[i]
            h[j + 1, j] = np.linalg.norm(w)
            happy = h[j + 1, j] < brk_tol
            if not happy:
                basis[j + 1] = w / h[j + 1, j]
            for i in range(j):
                t = cs[i] * h[i, j] + sn[i] * h[i + 1, j]
                h[i + 1, j] = -sn[i] * h[i, j] + cs[i] * h[i + 1, j]
                h[i, j] = t
            rad = np.hypot(h[j, j], h[j + 1, j])
            if rad == 0.0:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j] = h[j, j] / rad
                sn[j] = h[j + 1, j] / rad
            h[j, j] = rad
            h[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            total += 1
            cols = j + 1
            report.residual_history.append(abs(g[j + 1]) / bnorm)
            if happy:
                report.breakdown = True
                break
            if abs(g[j + 1]) <= tol:
                break
        y = np.zeros(cols)
        for i in range(cols - 1, -1, -1):
            resid = g[i] - h[i, i + 1:cols] @ y[i + 1:cols]
            y[i] = resid / h[i, i] if h[i, i] != 0.0 else 0.0
        x = x + zmat[:cols].T @ y
        if report.breakdown:
            break

    final = np.linalg.norm(b - a_op @ x)
    report.iterations = total
    report.final_relres = final / bnorm
    report.converged = bool(final <= tol)
    return x, report


def eta_newton(normF_k: float, normF_km1: float, eta_prev: float,
               eta_max: float, sigma: float, normF_0: float) -> float:
    """Forcing parameter for the Newton phase (Eisenstat-Walker second
    choice with the oversolving and last-step safeguards)."""
    eta = min(eta_max, 0.9 * (normF_k / normF_km1) ** 2)
    if 0.9 * eta_prev**2 > 0.1:
        eta = max(eta, 0.9 * eta_prev**2)
    eta = max(eta, 0.5 * sigma * normF_0 / normF_k)
    return min(eta, eta_max)
