import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve_triangular

from saddlesolve.krylov import GmresParams, PrecondOperator, fgmres
from saddlesolve.mlilu import (
    FactorizationError,
    FactorParams,
    crout_ilu_level,
    equilibrate,
    factorize,
    ml_solve,
    static_defer,
)
from saddlesolve.sparse import as_csr

from conftest import random_saddle, random_sparse, reassemble


def scale_apply(a, dr, dc):
    return sp.diags(dr) @ a @ sp.diags(dc)


class TestEquilibrate:
    def test_diagonal_case(self):
        a = as_csr(sp.diags([100.0, 0.01]).tocsr())
        dr, dc = equilibrate(a)
        scaled = scale_apply(a, dr, dc).toarray()
        assert np.allclose(np.diag(scaled), 1.0)

    def test_fixed_point(self):
        a = as_csr(sp.csr_matrix(np.array([[1.0, 0.5], [0.5, 1.0]])))
        dr, dc = equilibrate(a)
        assert np.allclose(dr, 1.0) and np.allclose(dc, 1.0)

    def test_wide_range_property(self):
        rng = np.random.default_rng(12)
        n = 20
        dense = (rng.random((n, n)) < 0.4) * np.exp(rng.uniform(-14, 14, (n, n)))
        dense += np.eye(n) * np.exp(rng.uniform(-14, 14, n))
        a = as_csr(sp.csr_matrix(dense))
        dr, dc = equilibrate(a)
        scaled = np.abs(scale_apply(a, dr, dc).toarray())
        rn = scaled.max(axis=1)
        cn = scaled.max(axis=0)
        assert rn.min() >= 0.5 and rn.max() <= 2.0
        assert cn.min() >= 0.5 and cn.max() <= 2.0

    def test_explicit_zero_row_and_column_keep_unit_scaling(self):
        # row 2 and column 4 store only an explicit zero at (2, 4): their
        # infinity norm is 0, so their scalings stay 1 and the rest is scaled
        rng = np.random.default_rng(8)
        n = 7
        dense = (rng.random((n, n)) < 0.5) * np.exp(rng.uniform(-10, 10, (n, n)))
        dense += np.eye(n) * np.exp(rng.uniform(-10, 10, n))
        dense[2, :] = 0.0
        dense[:, 4] = 0.0
        dense[4, 3] = dense[3, 2] = 1e3  # row 4 and column 2 lost their diagonal
        coo = sp.csr_matrix(dense).tocoo()
        a = as_csr(sp.coo_matrix((np.append(coo.data, 0.0),
                                  (np.append(coo.row, 2), np.append(coo.col, 4))),
                                 shape=(n, n)))
        assert a[2].nnz == 1 and a[:, 4].nnz == 1
        dr, dc = equilibrate(a)
        assert dr[2] == 1.0 and dc[4] == 1.0
        scaled = np.abs(scale_apply(a, dr, dc).toarray())
        rn = np.delete(scaled.max(axis=1), 2)
        cn = np.delete(scaled.max(axis=0), 4)
        assert rn.min() >= 0.5 and rn.max() <= 2.0
        assert cn.min() >= 0.5 and cn.max() <= 2.0

    def test_empty_row_rejected(self):
        a = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="empty"):
            equilibrate(a)

    def test_empty_column_is_a_factorization_error(self):
        a = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(FactorizationError, match="structurally empty column 1"):
            equilibrate(a)


class TestStaticDefer:
    def test_saddle_structure_is_identity(self):
        a = random_saddle(8, 4, seed=3)
        p, n_keep = static_defer(a.diagonal(), 1e-2)
        assert np.array_equal(p, np.arange(12))
        assert n_keep == 8

    def test_stable_partition(self):
        a = as_csr(sp.diags([0.0, 1.0, 0.0, 1.0]).tocsr() + sp.eye(4) * 0)
        dense = np.diag([0.0, 1.0, 0.0, 1.0])
        dense[0, 1] = dense[2, 3] = 1e-3  # keep rows structurally nonempty
        a = as_csr(sp.csr_matrix(dense))
        p, n_keep = static_defer(a.diagonal(), 1e-2)
        assert np.array_equal(p, [1, 3, 0, 2])
        assert n_keep == 2

    def test_known_zero_positions_land_last(self):
        rng = np.random.default_rng(4)
        n = 10
        dense = rng.random((n, n)) + np.eye(n)
        zeros = [2, 5, 7]
        for z in zeros:
            dense[z, z] = 0.0
        a = as_csr(sp.csr_matrix(dense))
        p, n_keep = static_defer(a.diagonal(), 1e-2)
        assert n_keep == 7
        assert sorted(p[-3:]) == zeros
        kept = [i for i in range(n) if i not in zeros]
        assert list(p[:7]) == kept  # stable among the kept

    def test_leading_diagonals_pass_threshold(self):
        a, _ = random_sparse(30, 0.2, seed=8, diag_shift=1.0)
        dense = a.toarray()
        for z in (3, 11, 19):
            dense[z, z] = 1e-9
        a = as_csr(sp.csr_matrix(dense))
        p, n_keep = static_defer(a.diagonal(), 1e-2)
        d = np.abs(a.diagonal())
        thr = 1e-2 * d.max()
        assert n_keep == int(np.count_nonzero(d >= thr)) == 27
        assert np.all(d[p[:n_keep]] >= thr)
        assert np.all(d[p[n_keep:]] < thr)


class TestCroutLevel:
    def test_exact_dense_block(self):
        rng = np.random.default_rng(1)
        dense = rng.random((5, 5)) + 5 * np.eye(5)
        a = as_csr(sp.csr_matrix(dense))
        level, schur = crout_ilu_level(a, FactorParams(alpha=5.0, droptol=0.0))
        assert level.n_b == 5 and schur.shape == (0, 0)
        low = level.L.toarray() + np.eye(5)
        up = level.U.toarray() + np.eye(5)
        rebuilt = low @ np.diag(np.concatenate([level.D])) @ up
        order = level.order
        assert np.linalg.norm(rebuilt - dense[order][:, order]) / np.linalg.norm(dense) <= 1e-12

    def test_identity_input(self):
        a = as_csr(sp.eye(6, format="csr"))
        level, schur = crout_ilu_level(a, FactorParams(alpha=1.0, droptol=0.0))
        assert level.n_b == 6
        assert level.L.nnz == 0 and level.U.nnz == 0
        assert np.allclose(level.D, 1.0)
        assert level.n_dynamic_deferred == 0

    def test_tiny_pivot_deferred_hand_schur(self):
        a = as_csr(sp.csr_matrix(np.array([[1e-16, 1.0], [1.0, 1.0]])))
        level, schur = crout_ilu_level(a, FactorParams(alpha=2.0, droptol=0.0), n_candidates=2)
        assert level.n_b == 1
        assert level.n_dynamic_deferred == 1
        # eliminated block is {index 1}; Schur over {0} is 1e-16 - 1*1*1
        assert schur.shape == (1, 1)
        assert schur[0, 0] == pytest.approx(1e-16 - 1.0, abs=0)

    def test_total_deferral_returns_input(self):
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 2] = dense[2, 0] = 1e-30
        dense[np.diag_indices(3)] = 1e-30
        a = as_csr(sp.csr_matrix(dense))
        level, schur = crout_ilu_level(a, FactorParams(alpha=3.0, droptol=0.0))
        assert level.n_b == 0
        assert np.allclose(schur.toarray(), dense)


class TestFactorize:
    def test_exact_limit_spd_tridiagonal(self):
        n = 100
        a = as_csr(sp.diags([2 * np.ones(n), -np.ones(n - 1), -np.ones(n - 1)], [0, 1, -1]).tocsr())
        m = factorize(a, FactorParams(alpha=float(n), droptol=0.0, dense_switch=10))
        r = reassemble(m)
        assert np.linalg.norm(r - a.toarray()) / np.linalg.norm(a.toarray()) <= 1e-12

    def test_exactness_random(self):
        for seed in (1, 2, 3):
            a, _ = random_sparse(60, 0.15, seed=seed, diag_shift=3.0)
            m = factorize(a, FactorParams(alpha=60.0, droptol=0.0, dense_switch=8))
            r = reassemble(m)
            dense = a.toarray()
            assert np.linalg.norm(r - dense) / np.linalg.norm(dense) <= 1e-10

    def test_saddle_static_deferral_counts_pressure(self):
        nb, ne = 24, 9
        a = random_saddle(nb, ne, seed=5)
        m = factorize(a, FactorParams(alpha=10.0, droptol=0.0, dense_switch=4))
        assert m.levels[0].n_static_deferred == ne

    def test_cavity_stokes_defers_exactly_the_pressure_block(self):
        # level-4 cavity Stokes system: the zero pressure diagonal block is
        # statically deferred to the next level in full
        from saddlesolve import cavity as cav
        prob = cav.build_problem(4, re=100.0)
        a = cav.stokes_operator(prob)
        m = factorize(a, FactorParams(alpha=2.0, droptol=0.01, dense_switch=64))
        assert m.levels[0].n_static_deferred == prob.mesh.n_pressure

    def test_zero_matrix_perturbed_tail(self):
        dense = np.zeros((3, 3))
        a = sp.csr_matrix(dense)
        a = sp.csr_matrix((np.zeros(9), (np.repeat(np.arange(3), 3), np.tile(np.arange(3), 3))), shape=(3, 3))
        m = factorize(as_csr(a), FactorParams(alpha=3.0, droptol=0.0, dense_switch=3))
        assert m.perturbed
        v = np.ones(3)
        out = ml_solve(m, v)  # must be usable, never aborts
        assert np.all(np.isfinite(out))

    def test_fill_caps_recorded_and_respected(self):
        a, _ = random_sparse(80, 0.2, seed=10, diag_shift=2.0)
        params = FactorParams(alpha=1.5, droptol=0.01, dense_switch=10)
        lev = factorize(a, params).levels[0]
        pivots = lev.order[:lev.n_b]  # input index of each pivot
        caps_row = np.maximum(5, np.ceil(params.alpha * np.diff(a.indptr)[pivots]))
        caps_col = np.maximum(5, np.ceil(params.alpha * np.diff(a.tocsc().indptr)[pivots]))
        assert np.all(np.diff(lev.U.indptr)[:lev.n_b] <= caps_row)
        assert np.all(np.diff(lev.L.tocsc().indptr)[:lev.n_b] <= caps_col)

    def test_fill_bound_aggregate(self):
        a, _ = random_sparse(120, 0.1, seed=11, diag_shift=2.0)
        params = FactorParams(alpha=2.0, droptol=0.01, dense_switch=16)
        m = factorize(a, params)
        n_levels = len(m.levels)
        floor_slack = sum(2 * 5 * lev.n + lev.n for lev in m.levels)
        bound = params.alpha * a.nnz * (1 + n_levels) + 16 * 16 + floor_slack
        assert m.total_nnz <= bound

    def test_explicit_zeros_stay_stored_in_the_schur_complement(self):
        # the stored zeros of A_NN keep columns of the Schur complement
        # structurally nonempty, so the next level's equilibrate accepts it
        rows = [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3]
        cols = [0, 1, 2, 0, 1, 3, 0, 2, 3, 2, 3]
        vals = [4.0, 1.0, 1.0, 1.0, 4.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        a = as_csr(sp.csr_matrix((vals, (rows, cols)), shape=(4, 4)))
        m = factorize(a, FactorParams(alpha=4.0, droptol=0.0, dense_switch=1))
        assert a.nnz == 11
        assert len(m.levels) == 2
        assert m.perturbed

    def test_deferral_soundness(self):
        a = random_saddle(40, 15, seed=6)
        params = FactorParams(alpha=3.0, droptol=0.01, dense_switch=8)
        m = factorize(a, params)
        for lev in m.levels:
            if lev.n_b:
                assert np.abs(lev.D).min() >= params.pivot_floor


class TestMlSolve:
    def test_exact_inverts(self):
        a, rng = random_sparse(70, 0.15, seed=13, diag_shift=4.0)
        m = factorize(a, FactorParams(alpha=70.0, droptol=0.0, dense_switch=8))
        v = rng.standard_normal(70)
        x = ml_solve(m, v)
        assert np.linalg.norm(a @ x - v) / np.linalg.norm(v) <= 1e-10

    def test_identity_factor(self):
        a = as_csr(sp.eye(12, format="csr"))
        m = factorize(a, FactorParams(alpha=2.0, droptol=0.0, dense_switch=3))
        v = np.arange(12, dtype=float)
        assert np.allclose(ml_solve(m, v), v)

    def test_approximate_solve_and_fgmres(self):
        rng = np.random.default_rng(14)
        n = 30
        dense = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        dense += np.diag(np.abs(dense).sum(axis=1) + 1.0)  # diagonally dominant
        a = as_csr(sp.csr_matrix(dense))
        m = factorize(a, FactorParams(alpha=4.0, droptol=0.01, dense_switch=5))
        v = rng.standard_normal(n)
        x = ml_solve(m, v)
        exact = np.linalg.solve(dense, v)
        assert np.linalg.norm(x - exact) / np.linalg.norm(exact) <= 0.5
        _, rep = fgmres(a, PrecondOperator(m), v, GmresParams(restart=30, max_iters=100, rtol=1e-10))
        assert rep.converged and rep.iterations <= 10

    def test_linearity(self):
        a, rng = random_sparse(40, 0.2, seed=15, diag_shift=3.0)
        m = factorize(a, FactorParams(alpha=2.0, droptol=0.02, dense_switch=8))
        u = rng.standard_normal(40)
        v = rng.standard_normal(40)
        lhs = ml_solve(m, 1.5 * u - 2.0 * v)
        rhs = 1.5 * ml_solve(m, u) - 2.0 * ml_solve(m, v)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1.0)

    def test_dimension_check(self):
        a, _ = random_sparse(10, 0.3, seed=16, diag_shift=2.0)
        m = factorize(a, FactorParams())
        with pytest.raises(ValueError, match="length"):
            ml_solve(m, np.ones(11))


def _saddle_factor():
    """Two or more levels and a dense tail on a random saddle system."""
    m = factorize(random_saddle(80, 40, seed=22),
                  FactorParams(alpha=3.0, droptol=0.01, dense_switch=10))
    assert len(m.levels) >= 2 and m.tail_n > 1
    return m


def _substitute_on_stored_factors(m, v):
    """The multilevel substitution spelled out on each level's strictly
    triangular CSR factors L and U."""

    def walk(li, v):
        if li == len(m.levels):
            return scipy.linalg.lu_solve(m.tail_lu, v, check_finite=False)
        lev = m.levels[li]
        y = (lev.dr * v)[lev.order]
        y = spsolve_triangular(lev.L, y, lower=True, unit_diagonal=True)
        y[:lev.n_b] /= lev.D
        y[lev.n_b:] = walk(li + 1, y[lev.n_b:])
        y = spsolve_triangular(lev.U, y, lower=False, unit_diagonal=True)
        out = np.empty_like(y)
        out[lev.order] = y
        return out * lev.dc

    return walk(0, v)


def _fingerprint(*matrices):
    return [(a.tobytes(), a.dtype.str)
            for mat in matrices for a in (mat.data, mat.indices, mat.indptr)]


class TestSolvePath:
    def test_same_bits_as_substitution_on_the_stored_factors(self):
        m = _saddle_factor()
        rng = np.random.default_rng(23)
        for _ in range(10):
            v = rng.standard_normal(m.n)
            assert np.array_equal(ml_solve(m, v), _substitute_on_stored_factors(m, v))

    def test_solves_leave_the_factor_unchanged(self):
        m = _saddle_factor()
        rng = np.random.default_rng(24)

        def state():  # reading the solve forms builds them, before any solve
            return [(_fingerprint(lev.L, lev.U, *lev._solve_forms), lev.D.tobytes())
                    for lev in m.levels]

        before = state()
        for _ in range(50):
            ml_solve(m, rng.standard_normal(m.n))
        assert state() == before

    def test_concurrent_solves_match_serial_solves(self):
        m = _saddle_factor()  # fresh: the threads also race to build the solve forms
        rng = np.random.default_rng(25)
        vs = rng.standard_normal((4, 20, m.n))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(vs)) as pool:
                futures = [pool.submit(lambda batch: [ml_solve(m, v) for v in batch], batch)
                           for batch in vs]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for batch, results in zip(vs, threaded):
            for v, x in zip(batch, results):
                assert np.array_equal(x, ml_solve(m, v))


@st.composite
def saddle_factors(draw):
    nb = draw(st.integers(8, 40))
    ne = draw(st.integers(1, nb // 2))
    a = random_saddle(nb, ne, seed=draw(st.integers(0, 2**32 - 1)))
    params = FactorParams(
        alpha=draw(st.sampled_from([1.5, 3.0, 10.0])),
        droptol=draw(st.sampled_from([0.0, 0.01, 0.1])),
        dense_switch=draw(st.integers(1, nb // 2)),
    )
    return factorize(a, params), np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


# far smaller coefficients underflow inside the substitution
coefficients = st.floats(-4, 4).filter(lambda x: x == 0 or abs(x) >= 1e-3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(saddle_factors(), coefficients, coefficients)
def test_ml_solve_is_linear(case, alpha, beta):
    m, rng = case
    u, v = rng.standard_normal((2, m.n))
    mu, mv = ml_solve(m, u), ml_solve(m, v)
    lhs = ml_solve(m, alpha * u + beta * v)
    scale = abs(alpha) * np.linalg.norm(mu) + abs(beta) * np.linalg.norm(mv)
    assert np.linalg.norm(lhs - (alpha * mu + beta * mv)) <= 1e-12 * max(scale, 1e-300)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(saddle_factors())
def test_projected_preconditioner_is_orthogonal_to_the_null_vector(case):
    m, rng = case
    q = rng.standard_normal(m.n)
    q /= np.linalg.norm(q)
    p = PrecondOperator(m, null_basis=q)
    for _ in range(3):
        v = rng.standard_normal(m.n)
        z = p.apply(v / np.linalg.norm(v))
        assert abs(q @ z) <= 1e-15 * np.linalg.norm(z)


def test_level_stats_rows_match_the_factor():
    a = random_saddle(80, 40, seed=22)
    m = factorize(a, FactorParams(alpha=3.0, droptol=0.01, dense_switch=10))
    rows = m.level_stats()
    assert len(m.levels) >= 2 and m.tail_n > 1
    assert len(rows) == len(m.levels) + 1
    assert [r["level"] for r in rows] == list(range(1, len(rows) + 1))
    for upper, lower in zip(rows, rows[1:]):
        assert lower["n"] == upper["n"] - upper["n_b"]
    assert rows[0]["n"] == a.shape[0]
    tail = rows[-1]
    assert tail["n"] == m.tail_n and tail["nnz"] == m.tail_n**2
    assert sum(r["nnz"] for r in rows) == m.total_nnz


def test_reassembly_applies_permutations_and_scalings():
    # equilibration plus two recursion levels must all invert correctly
    a = random_saddle(25, 10, seed=21)
    dense = a.toarray()
    m = factorize(a, FactorParams(alpha=35.0, droptol=0.0, dense_switch=5))
    assert len(m.levels) >= 2
    r = reassemble(m)
    assert np.linalg.norm(r - dense) / np.linalg.norm(dense) <= 1e-10


def _deferring_matrix(n, seed, n_tiny):
    """Random sparse matrix with ``n_tiny`` tiny diagonals (pivots the floor
    defers) among entries of unit size; every row and column is nonempty."""
    rng = np.random.default_rng(seed)
    dense = rng.uniform(-1.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.3)
    dense[np.diag_indices(n)] = rng.uniform(1.0, 3.0, n) * rng.choice([-1.0, 1.0], n)
    tiny = rng.choice(n, size=min(n_tiny, n), replace=False)
    dense[tiny, tiny] = 1e-6 * rng.uniform(-1.0, 1.0, tiny.size)
    return as_csr(sp.csr_matrix(dense))


@st.composite
def deferring_levels(draw):
    n = draw(st.integers(2, 24))
    return (
        _deferring_matrix(n, draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, n // 2))),
        draw(st.sampled_from([1.5, 3.0, 5.0])),
        draw(st.integers(0, min(3, n - 1))),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(deferring_levels())
def test_crout_level_is_exact_at_zero_droptol(case):
    # dynamic deferrals mid-sequence move indices that earlier L columns and
    # U rows already reference into the Schur complement; at droptol=0 with
    # caps >= n, PAP^T = (L+I) blockdiag(D, S) (U+I) must still hold
    a, cond_thresh, n_trailing = case
    n = a.shape[0]
    params = FactorParams(alpha=float(n), droptol=0.0, cond_thresh=cond_thresh, pivot_floor=1e-2)
    level, schur = crout_ilu_level(a, params, n_candidates=n - n_trailing)
    nb = level.n_b
    assert level.n_static_deferred == n_trailing
    assert nb + level.n_dynamic_deferred + n_trailing == n
    mid = np.zeros((n, n))
    mid[:nb, :nb] = np.diag(level.D)
    mid[nb:, nb:] = schur.toarray()
    rebuilt = (level.L.toarray() + np.eye(n)) @ mid @ (level.U.toarray() + np.eye(n))
    order = level.order
    dense = a.toarray()[order][:, order]
    assert np.linalg.norm(rebuilt - dense) <= 1e-10 * np.linalg.norm(dense)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(deferring_levels())
def test_factorize_reassembles_exactly_for_any_dense_switch_and_ordering(case):
    a, cond_thresh, _ = case
    n = a.shape[0]
    dense = a.toarray()
    for dense_switch in range(1, 9):
        params = FactorParams(
            alpha=float(n), droptol=0.0, cond_thresh=cond_thresh, pivot_floor=1e-2,
            dense_switch=dense_switch,
        )
        m = factorize(a, params)
        assert not m.perturbed
        r = reassemble(m)
        assert np.linalg.norm(r - dense) <= 1e-10 * np.linalg.norm(dense), dense_switch
