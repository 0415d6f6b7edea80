"""The benchmark's workloads.

Each workload has three phases.  ``prepare`` makes the inputs from the seed
and is not timed.  ``setup`` is the timed set-up pass, repeated in a
burst before every operation.  ``operation`` is the timed work; ``check`` then verifies
every output and returns (attempted, failed), and ``counts`` the
algorithmic counts that must repeat exactly between runs of the same code.

The workloads call saddlesolve only through module attributes
(``cavity.residual``, ``mlilu.factorize``, ...), so that the tracer in
spans.py sees every call when it is installed.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from saddlesolve import cavity, krylov, mlilu, mmio, nonlinear


def fingerprint(*arrays) -> str:
    """SHA-256 over the dtypes, shapes and bytes of the arrays, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode("ascii"))
        h.update(a.tobytes())
    return h.hexdigest()


def matrix_fingerprint(m) -> str:
    """Fingerprint of a sparse matrix in canonical CSR form, so that equal
    matrices match whatever their storage format and index dtype."""
    m = m.tocsr(copy=True)
    m.sum_duplicates()
    m.eliminate_zeros()
    m.sort_indices()
    return fingerprint(np.array(m.shape), m.data, m.indices.astype(np.int64),
                       m.indptr.astype(np.int64))


class CavityWorkload:
    """One lid-driven cavity acceptance run per operation: the Stokes
    initial guess, then the hybrid Picard/Newton solve.  The configuration
    is the paper's and ignores the seed, so every run solves the same
    problem and every count must repeat exactly."""

    uses_seed = False
    attempts_per_operation = 1
    # seconds of set-up passes per burst; a pass takes 3 ms at L5, 10 ms at L6
    setup_seconds = 0.4

    def __init__(self, level: int, re: float, sigma: float, regime: str,
                 refine_steps: int):
        self.level = level
        self.re = re
        self.cfg = nonlinear.SolverConfig(sigma=sigma, regime=regime,
                                          refine_steps=refine_steps)

    def prepare(self, seed: int, workdir: Path) -> None:
        pass

    def setup(self):
        prob = cavity.build_problem(self.level, self.re)
        return prob, cavity.null_vector(prob)

    def check_setup(self, inputs) -> bool:
        prob, null = inputs
        return null.shape == (prob.n_unknowns,) and math.isclose(np.linalg.norm(null), 1.0)

    def operation(self, inputs):
        prob, null = inputs
        x0 = cavity.stokes_initial_guess(prob)
        nlp = nonlinear.NonlinearProblem(
            residual=lambda x: cavity.residual(prob, x),
            operator=lambda x, nt: (cavity.newton_operator(prob, x) if nt
                                    else cavity.oseen_operator(prob, x)),
            sparsifier=lambda x, nt: cavity.oseen_operator(prob, x),
            x0=x0,
            null_basis=null,
        )
        x, report = nonlinear.hybrid_newton(nlp, self.cfg)
        return x0, x, report

    def check(self, inputs, outcome) -> tuple[int, int]:
        """Recompute ||F(x)|| and require it to be at most sigma*||F(x0)||."""
        prob, _ = inputs
        x0, x, report = outcome
        norm_f0 = np.linalg.norm(cavity.residual(prob, x0))
        norm_f = np.linalg.norm(cavity.residual(prob, x))
        ok = report.converged and bool(norm_f <= self.cfg.sigma * norm_f0)
        return 1, 0 if ok else 1

    def counts(self, inputs, outcome) -> dict:
        report = outcome[2]
        return {
            "steps": len(report.steps),
            "gmres_iterations": report.total_gmres,
            "refactorizations": sum(s.refactorized for s in report.steps),
        }


class OseenMultiRhsWorkload:
    """Factorize once, solve many: an L5 Re 1000 Oseen operator at a fixed
    state 0.1*N(0,1), with seeded right-hand sides orthogonal to the
    constant-pressure null vector, exchanged through Matrix Market files as
    an external system would be.  One operation factorizes and solves every
    right-hand side; each right-hand side counts as one attempt.

    Only fingerprints of the generated inputs are kept once they are
    written, so the peak memory is the package's rather than the harness's.

    L5 rather than L6: at L6 one operation takes ~45 s, which the
    benchmark's run budget cannot afford next to the L6 cavity run.

    The state does not depend on the seed: the factor's fill, and with it
    the time and memory of an operation, changes by 10-20% from one state
    to the next, which would bury a change of the program in the choice of
    seed.  The seed draws the right-hand sides, on which GMRES needs the
    same number of iterations."""

    level = 5
    re = 1000.0
    # enough right-hand sides that triangular solves and Arnoldi carry more
    # than half of the operation (factorize ~2.7 s, one solve ~0.06 s)
    n_rhs = 60
    uses_seed = True
    state_seed = 0
    attempts_per_operation = n_rhs
    # one pass reads ~4 MB in ~0.25 s, so a burst is the minimum of passes
    setup_seconds = 0.5
    factor_params = mlilu.FactorParams(alpha=5.0, droptol=0.01)
    gmres_params = krylov.GmresParams(restart=30, max_iters=200, rtol=1e-10)
    refine_steps = 2

    def prepare(self, seed: int, workdir: Path) -> None:
        prob = cavity.build_problem(self.level, self.re)
        state = 0.1 * np.random.default_rng(self.state_seed).standard_normal(prob.n_unknowns)
        matrix = cavity.oseen_operator(prob, state)
        null = cavity.null_vector(prob)
        rhs = np.random.default_rng(seed).standard_normal((self.n_rhs, prob.n_unknowns))
        rhs -= np.outer(rhs @ null, null)
        self.paths = {"matrix": workdir / "A.mtx", "null": workdir / "q.mtx"}
        mmio.mm_write(matrix, self.paths["matrix"])
        mmio.mm_write(null, self.paths["null"])
        self.rhs_paths = [workdir / f"b{i:03d}.mtx" for i in range(self.n_rhs)]
        for b, path in zip(rhs, self.rhs_paths):
            mmio.mm_write(b, path)
        self.written = (matrix_fingerprint(matrix), fingerprint(null), fingerprint(*rhs))

    def setup(self):
        a = mmio.mm_read(self.paths["matrix"], kind="matrix")
        null = mmio.mm_read(self.paths["null"], kind="vector")
        rhs = [mmio.mm_read(p, kind="vector") for p in self.rhs_paths]
        return a, null, rhs

    def check_setup(self, inputs) -> bool:
        """The files must read back bit for bit as written."""
        a, null, rhs = inputs
        return (matrix_fingerprint(a), fingerprint(null), fingerprint(*rhs)) == self.written

    def operation(self, inputs):
        a, null, rhs = inputs
        factor = mlilu.factorize(a, self.factor_params)
        precond = krylov.PrecondOperator(factor, j_op=a, null_basis=null,
                                         refine_steps=self.refine_steps)
        solves = [krylov.fgmres(a, precond, b, self.gmres_params) for b in rhs]
        stats = {
            "levels": len(factor.levels),
            "tail_n": factor.tail_n,
            "factor_nnz_ratio": factor.total_nnz / a.nnz,
        }
        return stats, solves

    def check(self, inputs, outcome) -> tuple[int, int]:
        """Require ||b - A x|| / ||b|| <= rtol for every right-hand side.
        The inputs read back are the generated ones (check_setup)."""
        a, _, rhs = inputs
        _, solves = outcome
        rtol = self.gmres_params.rtol
        failed = 0
        for b, (x, rep) in zip(rhs, solves):
            relres = np.linalg.norm(b - a @ x) / np.linalg.norm(b)
            if not (rep.converged and math.isfinite(relres) and relres <= rtol):
                failed += 1
        return len(solves), failed

    def counts(self, inputs, outcome) -> dict:
        stats, solves = outcome
        return {
            **stats,
            "gmres_iterations": sum(rep.iterations for _, rep in solves),
            "max_gmres_iterations": max(rep.iterations for _, rep in solves),
        }


WORKLOADS = {
    "cavity-l5-re200": lambda: CavityWorkload(5, 200.0, 1e-5, "high_re", 2),
    "cavity-l6-re1000": lambda: CavityWorkload(6, 1000.0, 1e-5, "high_re", 2),
    "oseen-multirhs": OseenMultiRhsWorkload,
}
