"""Hybrid Picard/Newton driver.

The outer loop runs Picard iterations on the physics operator until the
residual drops below beta times its initial value, then switches to Newton
steps (the operator callback is told which phase it is in).  Each step may
refactorize the sparsifier, picks a forcing tolerance (constant in the
Picard phase, Eisenstat-Walker in the Newton phase), solves the correction
with right-preconditioned flexible GMRES, and safeguards the update with
Armijo halving.  A non-converged inner solve is tolerated: the returned
direction is used and the iteration-count trigger forces a refactorization
on the next step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import Callable, Optional

import numpy as np

from .krylov import GmresParams, PrecondOperator, eta_newton, fgmres, finite_norm, real_norm
from .mlilu import FactorizationError, FactorParams, factorize
from .mmio import write_csv

__all__ = [
    "SolverConfig",
    "NonlinearProblem",
    "StepRecord",
    "NonlinearReport",
    "LineSearchError",
    "hybrid_newton",
    "refactor_needed",
    "armijo_damp",
]


class LineSearchError(RuntimeError):
    """Armijo halving exhausted without a residual decrease."""


# regime -> (alpha_pair, droptol_pair), each (picard, newton)
_THRESHOLD_DEFAULTS = {
    "low_re": ((2.0, 2.0), (0.02, 0.01)),
    "high_re": ((5.0, 5.0), (0.01, 0.001)),
}


@dataclass(frozen=True)
class SolverConfig:
    """Outer-loop controls.

    sigma: nonlinear relative tolerance; beta: Newton-switch threshold;
    epsilon: increment-size refactorization trigger; n_trigger: inner
    iteration count that forces refactorization; m/gmres_cap: restart and
    per-step cap of the inner solver; theta: Armijo constant;
    refine_steps: refinement sweeps inside the Newton-phase preconditioner.
    alpha_pair/droptol_pair override the regime defaults (picard, newton).
    phase_params holds the (picard, newton) FactorParams: factor_params with
    the phase's (alpha, droptol), which therefore must keep their defaults
    in factor_params.
    """

    sigma: float = 1e-6
    eta_max: float = 0.3
    beta: float = 0.05
    epsilon: float = 0.8
    alpha_pair: Optional[tuple] = None
    droptol_pair: Optional[tuple] = None
    m: int = 30
    n_trigger: int = 20
    theta: float = 1e-4
    refine_steps: int = 2
    max_nonlinear: int = 100
    max_halvings: int = 20
    gmres_cap: int = 200
    picard_eta: float = 0.3
    regime: str = "low_re"
    factor_params: FactorParams = field(default_factory=FactorParams)
    phase_params: tuple[FactorParams, FactorParams] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("sigma", "beta", "eta_max", "picard_eta"):
            if not (0 < getattr(self, name) < 1):
                raise ValueError(f"{name} must be in (0, 1)")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if not (0 < self.theta < 0.5):
            raise ValueError("theta must be in (0, 0.5)")
        for name in ("m", "n_trigger", "refine_steps", "max_nonlinear",
                     "max_halvings", "gmres_cap"):
            if not isinstance(getattr(self, name), Integral):
                raise ValueError(f"{name} must be an integer")
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.m > self.gmres_cap:
            raise ValueError("m must be <= gmres_cap")
        if self.regime not in _THRESHOLD_DEFAULTS:
            raise ValueError(f"regime must be one of {sorted(_THRESHOLD_DEFAULTS)}")
        for name in ("alpha_pair", "droptol_pair"):
            pair = getattr(self, name)
            if pair is not None and len(pair) != 2:
                raise ValueError(f"{name} must have two entries (picard, newton)")
        fp = self.factor_params
        if (fp.alpha, fp.droptol) != (FactorParams.alpha, FactorParams.droptol):
            raise ValueError("factor_params alpha and droptol are set per phase "
                             "through alpha_pair and droptol_pair")
        alphas, droptols = _THRESHOLD_DEFAULTS[self.regime]
        alphas = alphas if self.alpha_pair is None else self.alpha_pair
        droptols = droptols if self.droptol_pair is None else self.droptol_pair
        # FactorParams checks the pairs' values
        object.__setattr__(self, "phase_params", tuple(
            replace(fp, alpha=a, droptol=d) for a, d in zip(alphas, droptols)))


@dataclass
class NonlinearProblem:
    """Callbacks defining F(x) = 0 and its linearizations.

    operator(x, started_nt) returns the iteration matrix (Picard operator
    or Jacobian); sparsifier(x, started_nt) the matrix handed to the
    factorization.  Callbacks must be pure functions of their arguments.
    """

    residual: Callable[[np.ndarray], np.ndarray]
    operator: Callable[[np.ndarray, bool], object]
    sparsifier: Callable[[np.ndarray, bool], object]
    x0: np.ndarray
    null_basis: Optional[np.ndarray] = None


@dataclass
class StepRecord:
    step: int
    phase: str
    normF: float
    eta: float
    gmres_iters: int
    refactorized: bool
    omega: float


# the previous step as the first step reads it: no inner iterations, eta 0,
# an infinite residual norm and the Picard phase
_BEFORE_FIRST = StepRecord(-1, "picard", np.inf, 0.0, 0, False, 0.0)


@dataclass
class NonlinearReport:
    """One record per accepted step.  total_gmres also counts the inner
    iterations of a step whose line search failed, which has no record."""

    steps: list[StepRecord] = field(default_factory=list)
    converged: bool = False
    total_gmres: int = 0
    final_normF: float = np.inf
    message: str = ""

    def write_csv(self, path) -> None:
        write_csv(path, ("step", "phase", "normF", "eta", "gmres_iters", "refactorized", "omega"),
                  ((s.step, s.phase, s.normF, s.eta, s.gmres_iters, int(s.refactorized), s.omega)
                   for s in self.steps))


def refactor_needed(prev_gmres_iters: int, s_prev: np.ndarray,
                    x_prev: np.ndarray, first_newton: bool,
                    cfg: SolverConfig) -> bool:
    """True when the previous inner solve was too long, the previous update
    was large relative to the iterate, or the Newton phase just started.
    With a zero previous iterate the size test counts as satisfied."""
    if first_newton:
        return True
    if prev_gmres_iters >= cfg.n_trigger:
        return True
    return bool(np.linalg.norm(s_prev) >= cfg.epsilon * np.linalg.norm(x_prev))


def armijo_damp(residual: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                s: np.ndarray, normF: float, theta: float,
                max_halvings: int):
    """Damped update by repeated halving: accept the first omega in
    {1, 1/2, 1/4, ...} with ||F(x + omega s)|| <= (1 - theta*omega)*||F(x)||.
    Returns (omega, x_new, F(x_new), ||F(x_new)||).  A trial residual that is
    not finite counts as no decrease; a complex one raises ValueError.
    Raises LineSearchError when max_halvings is exhausted, saying how many
    trial residuals were not finite."""
    finite_norm(s, "search direction")
    omega, not_finite = 1.0, 0
    for _ in range(max_halvings + 1):
        trial = x + omega * s
        f_trial = residual(trial)
        norm_trial = real_norm(f_trial, "residual at a trial point")
        if norm_trial <= (1.0 - theta * omega) * normF:
            return omega, trial, np.asarray(f_trial, dtype=np.float64), norm_trial
        not_finite += not np.isfinite(norm_trial)
        omega *= 0.5
    raise LineSearchError(
        f"no residual decrease after {max_halvings} halvings "
        f"(||F|| = {normF:.3e})"
        + (f"; {not_finite} of {max_halvings + 1} trial residuals were not finite"
           if not_finite else "")
    )


def hybrid_newton(prob: NonlinearProblem, cfg: SolverConfig | None = None):
    """Run the hybrid outer loop until ||F(x)|| <= sigma * ||F(x0)|| or the
    step budget is exhausted.  Returns the final iterate and a report with
    one record per accepted step; a sparsifier that cannot be factorized, an
    operator whose product with a Krylov vector is complex or not finite, a
    failed line search or a non-finite direction ends the loop early with
    the cause in report.message.  One factor is alive at a time: the loop
    lets go of the previous factor and its preconditioner before it
    factorizes again."""
    cfg = cfg or SolverConfig()
    x = np.asarray(prob.x0, dtype=np.float64).copy()
    fx = prob.residual(x)
    norm_f0 = float(finite_norm(fx, "residual at the initial guess"))
    fx = np.asarray(fx, dtype=np.float64)
    if norm_f0 == 0.0:
        raise ValueError("residual at the initial guess is zero; nothing to solve")

    s_prev = x_prev = factor = None
    norm_f = norm_f0
    report = NonlinearReport()

    for k in range(cfg.max_nonlinear):
        if norm_f <= cfg.sigma * norm_f0:
            break
        prev = report.steps[-1] if report.steps else _BEFORE_FIRST
        started_nt = norm_f <= cfg.beta * norm_f0
        first_newton = started_nt and prev.phase != "newton"
        j_op = prob.operator(x, started_nt)

        do_refactor = factor is None or refactor_needed(
            prev.gmres_iters, s_prev, x_prev, first_newton, cfg
        )
        if do_refactor:
            # drop the old factor first: one factor is alive at a time
            factor = precond = None
            try:
                factor = factorize(prob.sparsifier(x, started_nt),
                                   cfg.phase_params[int(started_nt)])
            except FactorizationError as exc:
                report.message = str(exc)
                break

        if started_nt:
            eta = eta_newton(norm_f, prev.normF, prev.eta, cfg.eta_max, cfg.sigma, norm_f0)
        else:
            eta = cfg.picard_eta
        k_refine = cfg.refine_steps if started_nt else 1
        precond = PrecondOperator(factor, j_op=j_op,
                                  null_basis=prob.null_basis,
                                  refine_steps=k_refine)
        gp = GmresParams(restart=cfg.m, max_iters=cfg.gmres_cap, rtol=eta)
        try:
            s, krep = fgmres(j_op, precond, -fx, gp)
        except ValueError as exc:  # an operator product that is complex or not finite
            report.message = str(exc)
            break
        report.total_gmres += krep.iterations

        try:
            omega, x_new, f_new, norm_new = armijo_damp(
                prob.residual, x, s, norm_f, cfg.theta, cfg.max_halvings
            )
        except (LineSearchError, ValueError) as exc:
            report.message = str(exc)
            break

        report.steps.append(StepRecord(
            step=k,
            phase="newton" if started_nt else "picard",
            normF=norm_f,
            eta=eta,
            gmres_iters=krep.iterations,
            refactorized=do_refactor,
            omega=omega,
        ))
        x_prev = x
        s_prev = omega * s
        x = x_new
        fx = f_new
        norm_f = norm_new

    report.converged = bool(norm_f <= cfg.sigma * norm_f0)
    report.final_normF = norm_f
    if not report.message:
        report.message = "converged" if report.converged else "step budget exhausted"
    return x, report
