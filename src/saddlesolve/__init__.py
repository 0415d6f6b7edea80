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
    factorize,
    ml_solve,
)
from .krylov import (
    GmresParams,
    KrylovReport,
    PrecondOperator,
    fgmres,
)
from .nonlinear import (
    LineSearchError,
    NonlinearProblem,
    NonlinearReport,
    SolverConfig,
    StepRecord,
    hybrid_newton,
)
from . import cavity

__version__ = "0.1.0"

__all__ = [
    "MatrixMarketError", "mm_read", "mm_write",
    "FactorizationError", "FactorParams", "LevelFactor", "MultilevelFactor",
    "factorize", "ml_solve",
    "GmresParams", "KrylovReport", "PrecondOperator", "fgmres",
    "LineSearchError", "NonlinearProblem", "NonlinearReport", "SolverConfig",
    "StepRecord", "hybrid_newton",
    "cavity",
]
