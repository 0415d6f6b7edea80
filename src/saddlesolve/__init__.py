"""Sparse saddle-point solver toolkit: multilevel Crout incomplete-LU
preconditioning, flexible GMRES with iterative refinement and null-space
elimination, a hybrid Picard/Newton driver, and a built-in lid-driven
cavity benchmark."""

from .mmio import MatrixMarketError, mm_read, mm_write
from .mlilu import (
    FactorizationError,
    FactorParams,
    LevelFactor,
    MultilevelFactor,
    crout_ilu_level,
    equilibrate,
    factorize,
    ml_solve,
    static_defer,
)
from .ordering import reorder
from .krylov import (
    GmresParams,
    KrylovReport,
    PrecondOperator,
    eta_newton,
    fgmres,
)
from .nonlinear import (
    LineSearchError,
    NonlinearProblem,
    NonlinearReport,
    SolverConfig,
    StepRecord,
    armijo_damp,
    hybrid_newton,
    refactor_needed,
)
from . import cavity

__version__ = "0.1.0"

__all__ = [
    "MatrixMarketError", "mm_read", "mm_write",
    "FactorizationError", "FactorParams", "LevelFactor", "MultilevelFactor",
    "crout_ilu_level", "equilibrate", "factorize", "ml_solve",
    "reorder", "static_defer",
    "GmresParams", "KrylovReport", "PrecondOperator",
    "eta_newton", "fgmres",
    "LineSearchError", "NonlinearProblem", "NonlinearReport", "SolverConfig",
    "StepRecord", "armijo_damp", "hybrid_newton",
    "refactor_needed",
    "cavity",
]
