import numpy as np
import pytest
import scipy.sparse as sp

from saddlesolve.krylov import GmresParams, PrecondOperator, eta_newton, fgmres
from saddlesolve.mlilu import FactorParams, factorize
from saddlesolve.sparse import as_csr

from conftest import random_sparse


def make_factor(a, exact=True):
    n = a.shape[0]
    if exact:
        return factorize(a, FactorParams(alpha=float(n), droptol=0.0, dense_switch=8))
    return factorize(a, FactorParams(alpha=2.0, droptol=0.05, dense_switch=8))


class TestApplyPrecond:
    def test_k1_no_projector_is_plain_solve(self):
        from saddlesolve.mlilu import ml_solve
        a, rng = random_sparse(25, 0.25, seed=31, diag_shift=3.0)
        m = make_factor(a, exact=False)
        p = PrecondOperator(m, refine_steps=1)
        v = rng.standard_normal(25)
        assert np.array_equal(p.apply(v), ml_solve(m, v))

    def test_projector_annihilates_null_direction(self):
        a, rng = random_sparse(20, 0.3, seed=32, diag_shift=3.0)
        m = make_factor(a)
        q = rng.standard_normal(20)
        q /= np.linalg.norm(q)
        p = PrecondOperator(m, j_op=a, null_basis=q, refine_steps=1)
        z = p.apply(q.copy())
        assert abs(z @ q) <= 1e-12 * max(np.linalg.norm(z), 1.0)

    @pytest.mark.parametrize("length", [19, 21])
    def test_null_basis_of_another_length_is_refused_at_construction(self, length):
        a, _ = random_sparse(20, 0.3, seed=32, diag_shift=3.0)
        m = make_factor(a)
        with pytest.raises(ValueError, match=rf"null basis length \({length},\) does not match "
                                             r"factor size 20"):
            PrecondOperator(m, j_op=a, null_basis=np.ones(length))

    def test_refinement_idempotent_at_exact_limit(self):
        # with an exact factor, K=2 refinement returns the same solution as
        # a direct dense solve (oracle)
        a, rng = random_sparse(10, 0.5, seed=33, diag_shift=4.0)
        m = make_factor(a, exact=True)
        p = PrecondOperator(m, j_op=a, refine_steps=2)
        v = rng.standard_normal(10)
        oracle = np.linalg.solve(a.toarray(), v)
        z = p.apply(v)
        assert np.linalg.norm(z - oracle) / np.linalg.norm(oracle) <= 1e-12

    def test_refinement_contracts_residual(self):
        # contractive stationary iteration: preconditioned residual must be
        # nonincreasing in the sweep count
        a, rng = random_sparse(30, 0.25, seed=34, diag_shift=5.0)
        m = make_factor(a, exact=False)
        v = rng.standard_normal(30)
        norms = []
        for k in (1, 2, 3, 4):
            z = PrecondOperator(m, j_op=a, refine_steps=k).apply(v)
            norms.append(np.linalg.norm(v - a @ z))
        assert all(n2 <= n1 * (1 + 1e-12) for n1, n2 in zip(norms, norms[1:]))

    @pytest.mark.parametrize("k", [1, 2])
    def test_projection_removes_null_component_of_stokes_solve(self, cavity_level4, k):
        # on the singular L4 Stokes system M^-1 v is dominated by the null
        # vector q; the projected result must keep no more than rounding of
        # |z| along q, not rounding of |q.M^-1 v|
        from saddlesolve import cavity as cav
        a = cav.stokes_operator(cavity_level4)
        q = cav.null_vector(cavity_level4)
        q = q / np.linalg.norm(q)
        factor = factorize(a, FactorParams(alpha=5.0, droptol=0.01))
        p = PrecondOperator(factor, j_op=a, null_basis=q, refine_steps=k)
        rng = np.random.default_rng(71)
        for _ in range(5):
            v = rng.standard_normal(a.shape[0])
            z = p.apply(v / np.linalg.norm(v))
            assert abs(q @ z) <= 1e-15 * np.linalg.norm(z)

    @pytest.mark.parametrize("kwargs, match", [
        ({"refine_steps": 0}, "refine_steps must be >= 1"),
        ({"null_basis": np.zeros(10)}, "null basis must be nonzero"),
    ])
    def test_bad_arguments_are_refused_at_construction(self, kwargs, match):
        a, _ = random_sparse(10, 0.4, seed=35, diag_shift=3.0)
        with pytest.raises(ValueError, match=match):
            PrecondOperator(make_factor(a), j_op=a, **kwargs)

    def test_requires_operator_for_refinement(self):
        a, _ = random_sparse(10, 0.4, seed=35, diag_shift=3.0)
        with pytest.raises(ValueError, match="refinement"):
            PrecondOperator(make_factor(a), refine_steps=2)


class TestFgmres:
    def test_identity_one_iteration(self):
        a = as_csr(sp.eye(7, format="csr"))
        b = np.arange(1.0, 8.0)
        x, rep = fgmres(a, None, b, GmresParams(restart=5, max_iters=20, rtol=1e-12))
        assert rep.iterations == 1
        assert rep.converged
        assert np.allclose(x, b)

    def test_zero_rhs(self):
        a, _ = random_sparse(12, 0.3, seed=36, diag_shift=2.0)
        x, rep = fgmres(a, None, np.zeros(12), GmresParams())
        assert rep.iterations == 0 and rep.converged
        assert np.array_equal(x, np.zeros(12))

    def test_exact_preconditioner_two_iterations(self):
        for seed in (37, 38, 39):
            a, rng = random_sparse(50, 0.15, seed=seed, diag_shift=3.0)
            m = make_factor(a, exact=True)
            b = rng.standard_normal(50)
            x, rep = fgmres(a, PrecondOperator(m), b, GmresParams(restart=30, max_iters=100, rtol=1e-12))
            assert rep.converged
            assert rep.iterations <= 2
            oracle = np.linalg.solve(a.toarray(), b)
            assert np.linalg.norm(x - oracle) / np.linalg.norm(oracle) <= 1e-9

    def test_true_residual_on_convergence(self):
        a, rng = random_sparse(40, 0.2, seed=40, diag_shift=2.0)
        m = make_factor(a, exact=False)
        b = rng.standard_normal(40)
        params = GmresParams(restart=10, max_iters=200, rtol=1e-9)
        x, rep = fgmres(a, PrecondOperator(m), b, params)
        assert rep.converged
        assert np.linalg.norm(b - a @ x) <= params.rtol * np.linalg.norm(b) * (1 + 1e-12)

    def test_flexible_matches_standard_with_fixed_preconditioner(self):
        # a constant preconditioner reduces the flexible variant to
        # right-preconditioned GMRES: compare against a dense re-derivation
        a, rng = random_sparse(30, 0.3, seed=41, diag_shift=4.0)
        m = make_factor(a, exact=False)
        b = rng.standard_normal(30)
        p = PrecondOperator(m)
        x_flex, rep = fgmres(a, p, b, GmresParams(restart=30, max_iters=30, rtol=1e-10))

        # standard right-preconditioned GMRES oracle (dense arithmetic)
        from saddlesolve.mlilu import ml_solve
        minv = np.column_stack([ml_solve(m, e) for e in np.eye(30)])
        am = a.toarray() @ minv
        t, *_ = np.linalg.lstsq(am, b, rcond=None)
        # compare only when both converged tightly
        if rep.converged:
            x_std = minv @ np.linalg.solve(a.toarray() @ minv, b)
            assert np.linalg.norm(x_flex - x_std) <= 1e-10 * max(1.0, np.linalg.norm(x_std))

    def test_residual_history_monotone_within_cycles(self):
        a, rng = random_sparse(60, 0.1, seed=42, diag_shift=1.5)
        b = rng.standard_normal(60)
        params = GmresParams(restart=8, max_iters=64, rtol=1e-10)
        _, rep = fgmres(a, None, b, params)
        hist = rep.residual_history
        for start in range(0, len(hist), params.restart):
            cycle = hist[start:start + params.restart]
            assert all(y <= x * (1 + 1e-12) for x, y in zip(cycle, cycle[1:]))

    def test_breakdown_on_invariant_subspace(self):
        # b lies in a 2-dimensional invariant subspace: Arnoldi must break
        # down happily and still return the exact solution
        d = np.diag([2.0, 3.0, 4.0, 5.0])
        a = as_csr(sp.csr_matrix(d))
        b = np.array([1.0, 1.0, 0.0, 0.0])
        x, rep = fgmres(a, None, b, GmresParams(restart=4, max_iters=16, rtol=1e-13))
        assert rep.breakdown
        assert np.allclose(a @ x, b, atol=1e-12)

    def test_converged_solve_multiplies_by_a_once_per_iteration_plus_two(self):
        # one residual at the start, one per Arnoldi step, one after the
        # update: the last residual also decides the converged flag
        class Counting:
            def __init__(self, a):
                self.a, self.calls = a, 0

            def __matmul__(self, v):
                self.calls += 1
                return self.a @ v

        a, rng = random_sparse(20, 0.3, seed=44, diag_shift=4.0)
        op = Counting(a)
        b = rng.standard_normal(20)
        x, rep = fgmres(op, None, b, GmresParams(restart=30, max_iters=30, rtol=1e-10))
        assert rep.converged and rep.iterations < 30
        assert op.calls == rep.iterations + 2
        assert rep.final_relres == np.linalg.norm(b - a @ x) / np.linalg.norm(b)

    def test_zero_operator_breaks_down_at_zero(self):
        # A v = 0 for the first basis vector: the Givens rotation of a zero
        # column is the identity, and the breakdown leaves x = 0
        b = np.arange(1.0, 6.0)
        x, rep = fgmres(sp.csr_matrix((5, 5)), None, b, GmresParams(restart=5, max_iters=10))
        assert rep.breakdown and not rep.converged
        assert rep.iterations == 1 and rep.final_relres == 1.0
        assert np.array_equal(x, np.zeros(5))

    def test_nonfinite_rhs_rejected(self):
        a, _ = random_sparse(5, 0.5, seed=43, diag_shift=2.0)
        with pytest.raises(ValueError, match="finite"):
            fgmres(a, None, np.array([1.0, np.nan, 0, 0, 0]), GmresParams())


class TestEtaNewton:
    def test_plain_formula(self):
        assert eta_newton(0.3, 1.0, 0.1, 0.3, 1e-12, 1.0) == pytest.approx(0.081, abs=0)

    def test_clamped_at_eta_max(self):
        assert eta_newton(1.0, 1.0, 0.1, 0.3, 1e-12, 1.0) == 0.3

    def test_last_step_safeguard_dominates(self):
        # safeguard forces eta >= 0.5, then the clamp brings it to eta_max
        assert eta_newton(1e-6, 1.0, 0.1, 0.3, 1e-6, 1.0) == 0.3

    def test_previous_eta_restriction(self):
        # 0.9 * 0.5^2 = 0.225 > 0.1 so eta may not drop below it
        eta = eta_newton(0.1, 1.0, 0.5, 0.9, 1e-12, 1.0)
        assert eta == pytest.approx(0.225)
