import gc
import hashlib
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve_triangular

from saddlesolve import cavity, mlilu
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

from conftest import (
    arrow,
    cyclic_permutation,
    laplacian_2d,
    random_saddle,
    random_sparse,
    reassemble,
    reference_crout,
    underflowing_tail,
)


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


def _ruiz_with_sparse_copies(a):
    """Ruiz sweeps as equilibrate once ran them, each on a scaled sparse
    copy of the matrix."""
    n = a.shape[0]
    dr, dc = np.ones(n), np.ones(n)
    for _ in range(10):
        scaled = abs(mlilu._scale(a, dr, dc))
        rn = scaled.max(axis=1).toarray().ravel()
        cn = scaled.max(axis=0).toarray().ravel()
        live_r, live_c = rn > 0, cn > 0
        if (np.all((rn[live_r] >= 0.5) & (rn[live_r] <= 2.0))
                and np.all((cn[live_c] >= 0.5) & (cn[live_c] <= 2.0))):
            break
        dr[live_r] /= np.sqrt(rn[live_r])
        dc[live_c] /= np.sqrt(cn[live_c])
    return dr, dc


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.sampled_from([0.05, 0.3, 1.0]),
       st.integers(0, 40))
def test_equilibrate_matches_the_sweeps_on_sparse_copies(n, seed, density, spread):
    # magnitudes over 2 * spread decades of e, signs of both kinds, explicit
    # zeros, and a diagonal (perhaps an explicit zero) in every row
    rng = np.random.default_rng(seed)
    dense = ((rng.random((n, n)) < density) * rng.choice([-1.0, 1.0], (n, n))
             * np.exp(rng.uniform(-spread, spread, (n, n))))
    dense[np.diag_indices(n)] *= rng.random(n) < 0.8
    coo = sp.coo_matrix(dense)
    zeros = np.flatnonzero(rng.random(n) < 0.3)
    a = as_csr(sp.coo_matrix((np.r_[coo.data, np.zeros(n + zeros.size)],
                              (np.r_[coo.row, np.arange(n), zeros],
                               np.r_[coo.col, np.arange(n), zeros[::-1]])), shape=(n, n)))
    dr, dc = equilibrate(a)
    want_r, want_c = _ruiz_with_sparse_copies(a)
    assert dr.tobytes() == want_r.tobytes() and dc.tobytes() == want_c.tobytes()


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
        low = level.L.toarray()
        up = level.U.toarray()
        rebuilt = low @ np.diag(np.concatenate([level.D])) @ up
        order = level.order
        assert np.linalg.norm(rebuilt - dense[order][:, order]) / np.linalg.norm(dense) <= 1e-12

    def test_identity_input(self):
        a = as_csr(sp.eye(6, format="csr"))
        level, schur = crout_ilu_level(a, FactorParams(alpha=1.0, droptol=0.0))
        assert level.n_b == 6
        assert np.array_equal(level.L.toarray(), np.eye(6))
        assert np.array_equal(level.U.toarray(), np.eye(6))
        assert level.nnz == 6
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

    def test_no_flat_buffer_is_alive_in_the_schur_passes(self, monkeypatch):
        # the elimination's buffers go before S is formed: a name left bound
        # to one, such as a loop variable, keeps it alive through both passes
        def live():
            return sum(isinstance(o, mlilu._Flat) for o in gc.get_objects())

        counts = []
        inner = mlilu._smmp

        def counting(*args):
            counts.append(live())
            return inner(*args)

        monkeypatch.setattr(mlilu, "_smmp", counting)
        gc.collect()
        before = live()
        a, _ = random_sparse(300, 0.03, seed=29, diag_shift=0.5)
        level, _ = crout_ilu_level(a, FactorParams(alpha=5.0, droptol=0.01))
        assert 0 < level.n_b < 300
        # two block products per block of 128 pivots, then the two passes
        assert counts == [before + 2] * 6 + [before] * 2


_PEAK_MEMORY = """
import gc, sys, tracemalloc
from saddlesolve import cavity
from saddlesolve.mlilu import FactorParams, factorize
prob = cavity.build_problem(4, re=100.0)
a = cavity.oseen_operator(prob, cavity.stokes_initial_guess(prob))
params = FactorParams(alpha=5.0, droptol=float(sys.argv[1]))
factorize(a, params)  # so that lazy imports are not counted
gc.collect()
tracemalloc.start()
m = factorize(a, params)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
arrays = [a.data, a.indices, a.indptr, *(x for x in m.tail if x is not None)]
for lev in m.levels:
    arrays += [lev.L.data, lev.L.indices, lev.L.indptr, lev.U.data, lev.U.indices,
               lev.U.indptr, lev.D, lev.order, lev.dr, lev.dc]
print(peak, sum(x.nbytes for x in arrays))
"""

SRC = Path(__file__).resolve().parents[1] / "src"


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
        assert m.perturbed and m.tail_rank == 0
        v = np.ones(3)
        out = ml_solve(m, v)  # must be usable, never aborts
        assert np.array_equal(out, np.zeros(3))

    def test_fill_caps_recorded_and_respected(self):
        a, _ = random_sparse(80, 0.2, seed=10, diag_shift=2.0)
        params = FactorParams(alpha=1.5, droptol=0.01, dense_switch=10)
        lev = factorize(a, params).levels[0]
        pivots = lev.order[:lev.n_b]  # input index of each pivot
        caps_row = np.maximum(5, np.ceil(params.alpha * np.diff(a.indptr)[pivots]))
        caps_col = np.maximum(5, np.ceil(params.alpha * np.diff(a.tocsc().indptr)[pivots]))
        # each stored U row (L column) holds its unit diagonal besides the cap
        assert np.all(np.diff(lev.U.indptr)[:lev.n_b] - 1 <= caps_row)
        assert np.all(np.diff(lev.L.indptr)[:lev.n_b] - 1 <= caps_col)

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

    def test_oversized_dense_tail_is_refused_before_allocation(self):
        # no pivot of a zero-diagonal permutation is acceptable, so without
        # the bound the whole matrix would become a 4001^2 dense tail
        with pytest.raises(FactorizationError, match="dense tail of 4001 unknowns after 1 levels"):
            factorize(cyclic_permutation(4001))
        m = factorize(cyclic_permutation(600))
        assert [lev.n_b for lev in m.levels] == [0] and m.tail_n == 600

    @pytest.mark.parametrize("leaf", [0.0, 1e-3])
    def test_a_schur_complement_over_budget_is_refused_before_allocation(self, monkeypatch,
                                                                        leaf):
        # static deferral puts the leaves behind the hub, whose elimination
        # leaves S dense: 999^2 entries from 2998, singular at leaf 0 and not
        # at 1e-3.  A budget of 64 per stored entry, set here so that the
        # message is known, refuses it after the first Schur pass,
        # L_NB diag(-D), and before the second allocates S.
        calls = []
        inner = mlilu._smmp

        def smmp(*args):
            calls.append((args[0].size - 1, args[-1]))
            return inner(*args)

        monkeypatch.setattr(mlilu, "_smmp", smmp)
        monkeypatch.setattr(mlilu, "_MAX_SCHUR_GROWTH", 64)
        with pytest.raises(FactorizationError, match=r"^Schur complement of up to 998001 "
                                                     r"entries exceeds 64 times its level's 2998$"):
            factorize(arrow(1000, leaf), FactorParams(dense_switch=100))
        assert calls[-1] == (999, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_refused_before_equilibration(self, bad, monkeypatch):
        # unchecked, a NaN factorizes without a word and FGMRES ends at
        # relres nan; an inf trips a RuntimeWarning inside the scaling
        a, _ = random_sparse(600, 0.01, seed=17, diag_shift=2.0)
        assert a.indptr[322] - a.indptr[321] >= 2
        k = a.indptr[321] + 1
        a.data[k] = bad

        def unreachable(m):
            raise AssertionError("equilibrate was reached")

        monkeypatch.setattr(mlilu, "equilibrate", unreachable)
        with pytest.raises(FactorizationError,
                           match=rf"^non-finite entry {bad} at \(321, {a.indices[k]}\)$"):
            factorize(a)

    def test_a_schur_level_without_an_acceptable_pivot_goes_to_the_tail(self):
        # the first level eliminates the diagonal block and leaves the
        # zero-diagonal permutation block as its Schur complement; the
        # second level accepts no pivot of that and is kept, so the
        # complement, scaled and reordered, is the dense tail
        a = as_csr(sp.block_diag([4.0 * sp.eye(30), cyclic_permutation(20)], format="csr"))
        m = factorize(a, FactorParams(dense_switch=10))
        assert [lev.n_b for lev in m.levels] == [30, 0] and m.tail_n == 20 and not m.perturbed
        assert np.allclose(reassemble(m), a.toarray(), rtol=0, atol=1e-14)

    def test_a_level_without_an_acceptable_pivot_is_kept_with_its_matrix_as_the_tail(
            self, monkeypatch):
        # no equilibrated entry exceeds 2, so a pivot floor of 10 accepts no
        # pivot; the diagonal spans six decades, so some indices are also
        # statically deferred
        rng = np.random.default_rng(21)
        n = 40
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
        dense[np.diag_indices(n)] = 10.0 ** rng.uniform(-6, 0, n)
        a = as_csr(sp.csr_matrix(dense))
        tails = []
        lapack_getrf = mlilu.dgetrf

        def getrf(tail, **options):
            tails.append(tail.copy())
            return lapack_getrf(tail, **options)

        monkeypatch.setattr(mlilu, "dgetrf", getrf)
        m = factorize(a, FactorParams(pivot_floor=10.0, dense_switch=10))
        [lev] = m.levels
        assert lev.n_b == 0 and lev.nnz == 0 and lev.D.size == 0
        assert 0 < lev.n_static_deferred < n
        assert lev.n_dynamic_deferred == n - lev.n_static_deferred
        assert m.tail_n == n and m.total_nnz == n * n
        # _scale's products, in its order
        scaled = dense * lev.dr[:, None] * lev.dc
        assert np.array_equal(tails[0], scaled[np.ix_(lev.order, lev.order)])
        x = np.arange(1.0, n + 1)
        assert np.allclose(ml_solve(m, a @ x), x, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("droptol", [0.01, 0.001])
    def test_peak_memory_is_bounded_by_input_and_factor(self, droptol):
        # a factorization holds one level's working set at a time: the old
        # Schur complement, the scaled copy and the elimination's buffers go
        # once they are used.  The peak measured 2.6 and 2.8 times the bytes
        # of the input and the factor, and 4.1 and 4.6 with all of them held
        # to the end of the level: the bound lies between.  It is measured
        # in a fresh process: scipy's SuperLU records every block it
        # allocates in one process-wide dict, whose table can grow inside
        # the ordering's spilu call by an amount the process's earlier
        # SuperLU calls decide (0.59 MB, which stays allocated, after the
        # tests before this one in a full run).
        out = subprocess.run([sys.executable, "-c", _PEAK_MEMORY, str(droptol)],
                             env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
                             capture_output=True, text=True).stdout
        peak, nbytes = map(int, out.split())
        assert peak <= 3.5 * nbytes

    def test_deferral_soundness(self):
        a = random_saddle(40, 15, seed=6)
        params = FactorParams(alpha=3.0, droptol=0.01, dense_switch=8)
        m = factorize(a, params)
        for lev in m.levels:
            if lev.n_b:
                assert np.abs(lev.D).min() >= params.pivot_floor

    @staticmethod
    def _planted(rng, n, k=1):
        """Singular values 1 to 10 and k of 1e-7, and the right singular
        vectors of the k."""
        u = np.linalg.qr(rng.standard_normal((n, n)))[0]
        v = np.linalg.qr(rng.standard_normal((n, n)))[0]
        dense = (u * np.r_[rng.uniform(1.0, 10.0, n - k), np.full(k, 1e-7)]) @ v.T
        return as_csr(sp.csr_matrix(dense)), v[:, n - k:]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_planted_near_null_direction_is_cut_from_a_dropped_tail(self, k):
        # an LU with partial pivoting solves with it, and a vector outside
        # the range comes back about 1e6 times longer, along the near-null
        # directions; the tail of a level that dropped entries cuts them
        rng = np.random.default_rng(31)
        n = 40
        a, null = self._planted(rng, n, k)
        tail = mlilu._dense_tail(a, dropped=True)
        assert tail.rank < n and tail.rank == n - k
        # accurate on the complement of the cut directions
        x = rng.standard_normal(n)
        x -= null @ (null.T @ x)
        y = tail.solve(a @ x)
        off = y - x
        off -= null @ (null.T @ off)
        assert np.linalg.norm(off) <= 1e-6 * np.linalg.norm(x)
        # and bounded off the range
        r = rng.standard_normal(n)
        assert np.linalg.norm(tail.solve(r)) <= 10 * np.linalg.norm(r)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 59])
    def test_the_cut_directions_are_orthonormal_and_under_the_cut(self, k):
        # k planted directions of n 40, or a dense rank-1 tail of n 60 (59
        # directions); from k 2 on the search doubles its block
        rng = np.random.default_rng(37)
        if k < 40:
            n = 40
            a, _ = self._planted(rng, n, k)
        else:
            n = k + 1
            a = as_csr(sp.csr_matrix(np.outer(rng.standard_normal(n), rng.standard_normal(n))))
        tail = mlilu._dense_tail(a, dropped=True)
        assert tail.rank == n - k
        for q in (tail.u, tail.v):
            assert np.linalg.norm(q.T @ q - np.eye(k)) <= 1e-13
        t = tail.dr[:, None] * a.toarray() * tail.dc
        cut = 1e-3 * np.linalg.norm(t, axis=0).max()
        assert np.linalg.norm(t @ tail.v, axis=0).max() <= cut

    @pytest.mark.parametrize("dropped", [True, False])
    def test_a_zero_pivot_tail_is_cut_at_its_null_direction(self, dropped):
        # row 7 is zero, so dgetrf meets an exact zero pivot; it is raised
        # to the floor and the null direction cut, whether the cut is the
        # dropping's 1e-3 or the exact tail's n eps
        rng = np.random.default_rng(33)
        n = 30
        dense = rng.standard_normal((n, n))
        dense[7] = 0.0
        a = as_csr(sp.csr_matrix(dense))
        assert scipy.linalg.lapack.dgetrf(dense)[2] > 0
        tail = mlilu._dense_tail(a, dropped)
        assert tail.rank < n and tail.rank == n - 1
        # exact on the range: a consistent right-hand side is solved
        x = rng.standard_normal(n)
        y = tail.solve(a @ x)
        assert np.all(np.isfinite(y))
        assert np.linalg.norm(a @ y - a @ x) <= 1e-10 * np.linalg.norm(a @ x)

    def test_a_rank_one_tail_keeps_rank_one(self):
        # after its first pivot the LU holds rounding, pivots down to 4e-18:
        # floored on T's scale they leave a near-null cluster the block
        # search takes whole (a floor on S's scale left rank 7)
        rng = np.random.default_rng(35)
        n = 60
        a = as_csr(sp.csr_matrix(np.outer(rng.standard_normal(n), rng.standard_normal(n))))
        m = factorize(a)
        assert not m.levels and m.perturbed and m.tail_rank == 1
        b = a @ rng.standard_normal(n)
        assert np.linalg.norm(a @ ml_solve(m, b) - b) <= 1e-12 * np.linalg.norm(b)

    def test_rows_scaled_far_down_are_solved_exactly(self):
        # rows scaled by 1e-20 to 1e-60 give pivots far below eps |S|_1, but
        # equilibration undoes the scaling, so nothing is floored or cut (a
        # floor on S's scale raised them, and the solve was off by 2.3)
        rng = np.random.default_rng(36)
        n = 30
        dense = rng.standard_normal((n, n))
        for row, scale in ((3, 1e-20), (7, 1e-40), (11, 1e-60)):
            dense[row] *= scale
        a = as_csr(sp.csr_matrix(dense))
        m = factorize(a)
        assert not m.levels and not m.perturbed and m.tail_rank == n
        x = rng.standard_normal(n)
        assert np.linalg.norm(ml_solve(m, a @ x) - x) <= 1e-8 * np.linalg.norm(x)

    def test_a_tail_whose_near_null_search_is_not_finite_is_refused(self):
        # it was reported full rank and unperturbed, and ml_solve of ones
        # gave [nan, -inf, inf]; with 1 in place of 1e-300 it is cut to rank 2
        with pytest.raises(FactorizationError, match="^dense tail of 3 unknowns: the search "
                           "for its near-null directions is not finite$"):
            factorize(underflowing_tail())
        a = underflowing_tail()
        a.data[a.data == 1e-300] = 1.0
        m = factorize(a)
        assert m.perturbed and m.tail_rank == 2

    def test_the_dense_tail_is_deterministic(self):
        # the start block is seeded: two factorizations give the same bytes
        rng = np.random.default_rng(34)
        a, _ = self._planted(rng, 40, 2)
        tails = [mlilu._dense_tail(a, dropped=True) for _ in range(2)]
        assert [x.tobytes() for x in tails[0]] == [x.tobytes() for x in tails[1]]

    def test_an_exact_ill_conditioned_tail_keeps_its_rank(self):
        # with no level before it the tail is the input itself, which is
        # nonsingular: no direction falls under the cut, and it is solved exactly
        rng = np.random.default_rng(31)
        n = 40
        a, _ = self._planted(rng, n)
        m = factorize(a)
        assert not m.levels and not m.perturbed and m.tail_rank == n
        x = rng.standard_normal(n)
        assert np.linalg.norm(ml_solve(m, a @ x) - x) <= 1e-6 * np.linalg.norm(x)

    @pytest.mark.parametrize("seed, n, dense_switch", [(3, 12, 8), (159, 12, 4), (134, 16, 8)])
    @pytest.mark.parametrize("exact_levels", [True, False])
    def test_an_ill_conditioned_nonsingular_system_is_solved_to_1e_10(self, seed, n,
                                                                      dense_switch, exact_levels):
        # condition numbers 3e7, 2.9e7 and 1.8e7, and an equilibrated tail
        # with |R_ii| / |R_11| down to 1.7e-5, 1.2e-7 and 3.6e-6: a cut at
        # 1e-3 left FGMRES at a relative residual of 1e-7 to 3e-6.  Exact
        # levels (droptol 0) leave the tail the exact Schur complement;
        # the default parameters leave no level, so the tail is the input
        a = _deferring_matrix(n, seed, n // 2)
        if exact_levels:
            params = FactorParams(alpha=float(n), droptol=0.0, pivot_floor=1e-2,
                                  dense_switch=dense_switch)
        else:
            params = FactorParams()
        m = factorize(a, params)
        assert bool(m.levels) == exact_levels
        assert not m.perturbed and m.tail_rank == m.tail_n
        b = a @ np.random.default_rng(0).standard_normal(n)
        _, rep = fgmres(a, PrecondOperator(m), b,
                        GmresParams(restart=30, max_iters=100, rtol=1e-10))
        assert rep.converged and rep.iterations == 1

    def test_the_default_switch_sends_a_dense_level_to_the_tail(self):
        rng = np.random.default_rng(32)
        dense = rng.standard_normal((600, 600))
        m = factorize(as_csr(sp.csr_matrix(dense)))
        assert not m.levels and m.tail_n == 600 and m.tail_rank == 600 and not m.perturbed
        x = rng.standard_normal(600)
        assert np.allclose(ml_solve(m, dense @ x), x, rtol=0, atol=1e-8)

    def test_the_default_switch_keeps_the_benchmark_levels_sparse(self, monkeypatch):
        # n^3 / nnz: 2.8e5 and 4.5e6 on the L5 and L6 operators, 3563 on the
        # Schur complement of the L5 Re 1000 Oseen operator that the
        # benchmark solves 60 times, above the 2500 that goes dense, and
        # 250 on its tail of 227, at most 500 unknowns
        ratios = []
        inner = mlilu._dense_beats_crout

        def dense_beats_crout(s):
            ratios.append(s.shape[0] ** 3 / s.nnz)
            return inner(s)

        monkeypatch.setattr(mlilu, "_dense_beats_crout", dense_beats_crout)
        for level in (5, 6):
            prob = cavity.build_problem(level, 1000.0)
            state = 0.1 * np.random.default_rng(0).standard_normal(prob.n_unknowns)
            a = cavity.oseen_operator(prob, state)
            if level == 6:
                assert not mlilu._dense_beats_crout(a)
                continue
            m = factorize(a, FactorParams(alpha=5.0, droptol=0.01))
            assert [lev.n for lev in m.levels] == [2211, 677] and m.tail_n == 227
            assert m.tail_rank == m.tail_n and not m.perturbed
        assert [f"{r:.2g}" for r in ratios] == ["2.8e+05", "3.6e+03", "2.5e+02", "4.5e+06"]

    def test_the_default_switch_keeps_a_small_sparse_system_whole(self):
        # n^3 / nnz is 48,600, far above 2500: the size clause alone sends
        # the 22 x 22 Laplacian to the tail, which one iteration solves
        a = laplacian_2d(22)
        m = factorize(a)
        assert not m.levels and m.tail_n == 484 == m.n and m.tail_rank == 484
        b = a @ np.random.default_rng(0).standard_normal(484)
        _, rep = fgmres(a, PrecondOperator(m), b,
                        GmresParams(restart=30, max_iters=100, rtol=1e-10))
        assert rep.converged and rep.iterations == 1


class TestMlSolve:
    def test_exact_inverts(self):
        a, rng = random_sparse(70, 0.15, seed=13, diag_shift=4.0)
        m = factorize(a, FactorParams(alpha=70.0, droptol=0.0, dense_switch=8))
        v = rng.standard_normal(70)
        x = ml_solve(m, v)
        assert np.linalg.norm(a @ x - v) / np.linalg.norm(v) <= 1e-10

    def test_identity_factor(self):
        # the one level eliminates all 12 unknowns: the tail is empty
        a = as_csr(sp.eye(12, format="csr"))
        m = factorize(a, FactorParams(alpha=2.0, droptol=0.0, dense_switch=3))
        assert [lev.n_b for lev in m.levels] == [12]
        assert m.tail_n == 0 and m.tail_rank == 0 and not m.perturbed
        assert m.total_nnz == m.levels[0].nnz
        v = np.arange(12, dtype=float)
        assert np.allclose(ml_solve(m, v), v)
        # the same tail straight from a 0 x 0 Schur complement
        tail = mlilu._dense_tail(as_csr(sp.csr_matrix((0, 0))), dropped=False)
        assert tail.rank == 0 and tail.u.shape == (0, 0)
        assert tail.solve(np.zeros(0)).shape == (0,)

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
    """The multilevel substitution spelled out through scipy's public
    spsolve_triangular on each level's stored unit-triangular L and U."""

    def walk(li, v):
        if li == len(m.levels):
            return scipy.linalg.lu_solve((m.tail.lu, m.tail.piv), v, check_finite=False)
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

        def state():
            return [(_fingerprint(lev.L, lev.U), lev.D.tobytes()) for lev in m.levels]

        before = state()
        for _ in range(50):
            ml_solve(m, rng.standard_normal(m.n))
        assert state() == before

    def test_concurrent_solves_match_serial_solves(self):
        m = _saddle_factor()
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

    @pytest.mark.parametrize("case", ["multilevel", "tail-only", "strided"])
    def test_solve_never_writes_the_callers_vector(self, case):
        if case == "tail-only":
            m = factorize(random_saddle(80, 40, seed=22), FactorParams(dense_switch=200))
            assert not m.levels and m.tail_n == m.n
        else:
            m = _saddle_factor()
        rng = np.random.default_rng(26)
        base = rng.standard_normal(2 * m.n if case == "strided" else m.n)
        v = base[::2] if case == "strided" else base
        kept = base.copy()
        x = ml_solve(m, v)
        assert np.array_equal(base, kept)
        assert not np.shares_memory(x, base)

    def test_int64_indices_solve_with_the_same_bits(self):
        m = _saddle_factor()

        def widened(mat):
            mat = mat.copy()
            mat.indices, mat.indptr = mat.indices.astype(np.int64), mat.indptr.astype(np.int64)
            return mat

        m64 = replace(m, levels=[replace(lev, L=widened(lev.L), U=widened(lev.U))
                                 for lev in m.levels])
        factors = [mat for lev in m64.levels for mat in (lev.L, lev.U)]
        arrays = [(mat.indices, mat.indptr) for mat in factors]
        before = _fingerprint(*factors)
        rng = np.random.default_rng(27)
        for _ in range(5):
            v = rng.standard_normal(m.n)
            assert np.array_equal(ml_solve(m64, v), ml_solve(m, v))
        assert all(mat.indices is i and mat.indptr is p and i.dtype == p.dtype == np.int64
                   for mat, (i, p) in zip(factors, arrays))
        assert _fingerprint(*factors) == before


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
    # caps >= n, PAP^T = (L+I) blockdiag(D, S) (U+I) must still hold, L and
    # U being stored with their unit diagonals
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
    rebuilt = level.L.toarray() @ mid @ level.U.toarray()
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


def _dropping_level(n, seed):
    """Random level matrix with normal values, a full diagonal and a few
    tiny pivots, the first one at index 0 where no update can lift it."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
    dense[np.diag_indices(n)] = rng.standard_normal(n)
    tiny = np.r_[0, rng.choice(np.arange(1, n), size=n // 8, replace=False)]
    dense[tiny, tiny] = 1e-14
    return as_csr(sp.csr_matrix(dense))


DROPPING_CASES = [
    (16, 1, 0, FactorParams(alpha=1.0, droptol=0.05)),
    (25, 2, 3, FactorParams(alpha=1.5, droptol=0.02)),
    (40, 3, 0, FactorParams(alpha=1.0, droptol=0.01, cond_thresh=10.0)),
    (40, 4, 5, FactorParams(alpha=2.0, droptol=0.1, cond_thresh=3.0)),
    # 19 of the 28 candidates are deferred, 18 of them by an estimator
    (32, 7, 4, FactorParams(alpha=1.5, droptol=0.05, cond_thresh=1.5)),
]


@pytest.mark.parametrize("n, seed, n_trailing, params", DROPPING_CASES)
def test_crout_level_matches_the_dense_reference_with_dropping(n, seed, n_trailing, params):
    # fixed seeds, not hypothesis: a drop or deferral decided by a rounding
    # tie would make a generated case flaky
    a = _dropping_level(n, seed)
    level, schur = crout_ilu_level(a, params, n_candidates=n - n_trailing)
    order, lower, upper, d, n_dynamic, drops = reference_crout(a, params, n - n_trailing)
    assert n_dynamic > 0 and min(drops) > 0, "the case must defer and drop"
    assert np.array_equal(level.order, order)
    assert level.n_dynamic_deferred == n_dynamic and level.n_b == d.size
    for got, want in ((level.L, lower), (level.U, upper)):
        # droptol > 0 keeps no zero value, so the nonzeros are the index set;
        # the reference is strictly triangular, the factor has a unit diagonal
        got = got.toarray() - np.eye(n)
        assert np.array_equal(got != 0, want != 0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    np.testing.assert_allclose(level.D, d, rtol=1e-12, atol=0)
    nb = d.size
    dense = a.toarray()[order][:, order]
    expected = dense[nb:, nb:] - lower[nb:, :nb] @ np.diag(d) @ upper[:nb, nb:]
    np.testing.assert_allclose(schur.toarray(), expected, rtol=0,
                               atol=1e-12 * np.abs(dense).max())


def _crout_in_blocks_of(block, a, params, ncand):
    """The level in blocks of ``block`` pivots, or of the size the block
    rule gives if ``block`` is None."""
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(mlilu, "_block_size", lambda a: block)
        return crout_ilu_level(a, params, ncand)


def _one_by_one(a, params, ncand):
    """The level as one block: every update applied in the gathers, one
    pivot after another, and the sparse product only copies A's rows."""
    return _crout_in_blocks_of(a.shape[0], a, params, ncand)


def _level_bits(level, schur):
    return (level.order.tobytes(), level.D.tobytes(), level.n_dynamic_deferred,
            _fingerprint(level.L, level.U, schur))


@pytest.fixture(scope="module")
def cavity_oseen_levels(cavity_level4, cavity_level4_stokes):
    """The input of every Crout level of an L4 cavity Oseen factorization."""
    calls = []
    crout = mlilu.crout_ilu_level

    def record(a, params, n_candidates=None):
        calls.append((a.copy(), params, n_candidates))
        return crout(a, params, n_candidates)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mlilu, "crout_ilu_level", record)
        factorize(cavity.oseen_operator(cavity_level4, cavity_level4_stokes),
                  FactorParams(dense_switch=50))
    assert len(calls) >= 2 and calls[0][0].shape[0] > 3 * mlilu._BLOCK
    # a sparse first level and a dense Schur level, one on each side of the
    # block rule
    assert [mlilu._block_size(a) for a, _, _ in calls[:2]] == [mlilu._BLOCK, mlilu._DENSE_BLOCK]
    return calls


def _level_with_entries_per_row(n, per_row):
    """An n x n CSR matrix with ``per_row`` entries in each row."""
    cols = (np.arange(n)[:, None] + np.arange(per_row)) % n
    return sp.csr_matrix((np.ones(n * per_row), cols.ravel(), np.arange(n + 1) * per_row),
                         shape=(n, n))


@pytest.mark.parametrize("per_row, block", [
    (17, mlilu._BLOCK),  # the benchmark's first levels store 17-18 entries per row
    (mlilu._DENSE_ROW - 1, mlilu._BLOCK),
    (mlilu._DENSE_ROW, mlilu._DENSE_BLOCK),
    (130, mlilu._DENSE_BLOCK),  # and its Schur levels 129-254
])
def test_the_block_size_follows_the_stored_entries_per_row(per_row, block):
    assert mlilu._block_size(_level_with_entries_per_row(300, per_row)) == block


def _block_product(nr, k0, entries, n=20):
    """An nr-row CSR product over n indices with unit values at the
    (row, index) pairs of ``entries``."""
    rows, cols = zip(*entries) if entries else ((), ())
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(nr, n))


def test_independent_prefix_is_the_whole_block_when_no_row_reaches_another():
    k0, nr = 5, 4
    # every row holds its own index, and indices before and after the block
    entries = [(i, k0 + i) for i in range(nr)] + [(0, 2), (1, 19), (3, k0 + nr), (2, 0)]
    rows = _block_product(nr, k0, entries)
    cols = _block_product(nr, k0, [(i, k0 + i) for i in range(nr)] + [(1, 3)])
    assert mlilu._independent_prefix(k0, rows, cols) == nr
    assert mlilu._independent_prefix(k0, _block_product(nr, k0, []),
                                     _block_product(nr, k0, [])) == nr


@pytest.mark.parametrize("i, j", [(0, 3), (3, 0), (1, 2), (2, 1), (0, 1), (5, 4)])
@pytest.mark.parametrize("side", [0, 1])
def test_independent_prefix_ends_at_the_later_of_two_linked_indices(i, j, side):
    k0, nr = 7, 6
    diagonal = [(r, k0 + r) for r in range(nr)]
    products = [_block_product(nr, k0, diagonal), _block_product(nr, k0, diagonal)]
    products[side] = _block_product(nr, k0, diagonal + [(i, k0 + j)])
    assert mlilu._independent_prefix(k0, *products) == max(i, j)


def test_independent_prefix_is_never_empty_and_takes_the_first_link():
    k0, nr = 0, 5
    full = [(i, j) for i in range(nr) for j in range(nr)]
    assert mlilu._independent_prefix(k0, _block_product(nr, k0, full),
                                     _block_product(nr, k0, full)) == 1
    rows = _block_product(nr, k0, [(4, 3), (2, 4)])
    cols = _block_product(nr, k0, [(0, 4), (3, 1)])
    assert mlilu._independent_prefix(k0, rows, cols) == 3


@pytest.mark.parametrize("block", [1, 3, mlilu._BLOCK])
@pytest.mark.parametrize("n, seed, n_trailing, params", DROPPING_CASES)
def test_block_size_changes_no_bit_of_a_dropping_level(n, seed, n_trailing, params, block):
    a = _dropping_level(n, seed)
    want = _level_bits(*_one_by_one(a, params, n - n_trailing))
    assert _level_bits(*_crout_in_blocks_of(block, a, params, n - n_trailing)) == want


@pytest.mark.parametrize("block", [1, 3, mlilu._BLOCK, mlilu._DENSE_BLOCK,
                                   pytest.param(None, id="rule")])
def test_block_size_changes_no_bit_of_the_cavity_oseen_levels(cavity_oseen_levels, block):
    for a, params, ncand in cavity_oseen_levels:
        want = _level_bits(*_one_by_one(a, params, ncand))
        assert _level_bits(*_crout_in_blocks_of(block, a, params, ncand)) == want


def _level_digest(level, schur):
    """The SHA-256 of _level_bits, each array with its dtype and size."""
    order, d, n_dynamic, arrays = _level_bits(level, schur)
    h = hashlib.sha256(b"%d:" % n_dynamic)
    for data, dtype in [(order, "order"), (d, "D"), *arrays]:
        h.update(b"%s:%d:" % (dtype.encode(), len(data)) + data)
    return h.hexdigest()


def _assert_unit_triangular(m, n_b):
    """``m`` minus I is strictly triangular on the side its format's minor
    index runs (upper for CSR U, lower for CSC L): each major line holds its
    unit diagonal once and otherwise only later positions, and lines n_b..
    only their diagonal."""
    major = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    on_diag = m.indices == major
    assert np.array_equal(np.bincount(major[on_diag], minlength=m.shape[0]),
                          np.ones(m.shape[0], dtype=np.intp))
    assert np.all(m.data[on_diag] == 1.0)
    assert np.all(m.indices[~on_diag] > major[~on_diag])
    assert np.all(major[~on_diag] < n_b)


# _level_digest of every cavity Oseen level, then of every DROPPING_CASES
# level, recorded before the pivot step's filters were merged into one: a
# kernel change that moves a bit of these levels must say so and re-record them
LEVEL_DIGESTS = [
    "1deb277b111324625b63b6a7ee6b6df149422102fed2e675fcbf209747217396",
    "fe01fd7705e6b984096ee7dfba70f85d131a7a884da28dc9fb675135b7d0c020",
    "a409d395d44cd45c72a58d67ff573e104f919c38aeb2cc0c071c90dd342c4e0a",
    "103c6b87a64ec145e4d8104a0458c15ae7b433b277f1e359bebed9a6b084cb64",
    "15b5bae64d12c14da8b6d9740e11032681045b532997f30d42313717910eee2e",
    "98704741499fd259320c971f3d9ad48819b1a373481d848f11f0af5d622ffcb5",
    "ad3ea2d2f69c6b6392ad8d28618e733a456479a57dcd4f606e61c3a858344dc4",
]


def test_no_stored_vector_holds_an_eliminated_index_and_the_bits_stay(cavity_oseen_levels):
    levels = list(cavity_oseen_levels) + [
        (_dropping_level(n, seed), params, n - n_trailing)
        for n, seed, n_trailing, params in DROPPING_CASES]
    digests = []
    for a, params, ncand in levels:
        level, schur = crout_ilu_level(a, params, ncand)
        # in factor order a stored U row (L column) of pivot i holds no index
        # eliminated before it, nor its own beside the unit diagonal
        _assert_unit_triangular(level.U, level.n_b)
        _assert_unit_triangular(level.L, level.n_b)
        digests.append(_level_digest(level, schur))
    assert digests == LEVEL_DIGESTS


def _schur_by_scipys_products(a, level):
    """The Schur complement through scipy's sparse @: -(L_NB diag(D) U_BN),
    with A_NN's entries put after the product's in each row and summed with
    them."""
    nb = level.n_b
    product = level.L[nb:, :nb].tocsr() @ sp.diags(level.D) @ level.U[:nb, nb:]
    np.negative(product.data, out=product.data)
    nonelim = level.order[nb:]
    base = a[nonelim, :][:, nonelim]
    at = np.repeat(product.indptr[1:], np.diff(base.indptr))
    schur = sp.csr_matrix((np.insert(product.data, at, base.data),
                           np.insert(product.indices, at, base.indices),
                           product.indptr + base.indptr), shape=base.shape)
    schur.sum_duplicates()
    return schur


@pytest.mark.parametrize("n, seed, n_trailing, params", DROPPING_CASES)
def test_schur_complement_has_the_bits_of_scipys_products(n, seed, n_trailing, params):
    a = _dropping_level(n, seed)
    level, schur = crout_ilu_level(a, params, n - n_trailing)
    assert 0 < level.n_b < n
    assert _fingerprint(schur) == _fingerprint(_schur_by_scipys_products(a, level))


def test_schur_complement_of_the_cavity_oseen_levels_has_the_bits_of_scipys_products(
        cavity_oseen_levels):
    for a, params, ncand in cavity_oseen_levels:
        level, schur = crout_ilu_level(a, params, ncand)
        assert _fingerprint(schur) == _fingerprint(_schur_by_scipys_products(a, level))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(deferring_levels(), st.sampled_from([1, 3, mlilu._BLOCK]))
def test_block_size_changes_no_value_at_zero_droptol(case, block):
    """At droptol=0 the value drop still stores no exact zero, so the
    sparse product behind each block, which leaves out exactly zero sums,
    and a one-by-one gather, which keeps them, store the same entries."""
    a, cond_thresh, n_trailing = case
    n = a.shape[0]
    params = FactorParams(alpha=float(n), droptol=0.0, cond_thresh=cond_thresh, pivot_floor=1e-2)
    want = _level_bits(*_one_by_one(a, params, n - n_trailing))
    assert _level_bits(*_crout_in_blocks_of(block, a, params, n - n_trailing)) == want


def _integer_level(n, seed):
    """Level matrix with small integer entries, so that sums cancel
    exactly: off the diagonal {-2..2} at density 0.4, diagonals of
    magnitude 1, 2 or 3."""
    rng = np.random.default_rng(seed)
    dense = rng.integers(-2, 3, (n, n)) * (rng.random((n, n)) < 0.4)
    dense[np.diag_indices(n)] = rng.integers(1, 4, n) * rng.choice([-1, 1], n)
    return as_csr(sp.csr_matrix(dense.astype(float)))


INTEGER_PARAMS = FactorParams(alpha=20.0, droptol=0.0, cond_thresh=50.0, pivot_floor=1e-8)


@pytest.mark.parametrize("block", [1, 3, mlilu._BLOCK])
def test_block_size_changes_no_bit_of_an_integer_level_at_zero_droptol(block):
    differ = []
    for seed in range(60):
        a = _integer_level(20, seed)
        if (_level_bits(*_crout_in_blocks_of(block, a, INTEGER_PARAMS, 20))
                != _level_bits(*_one_by_one(a, INTEGER_PARAMS, 20))):
            differ.append(seed)
    assert differ == []


@pytest.mark.filterwarnings("error")
def test_a_zero_pivot_is_deferred_at_pivot_floor_zero():
    # a pivot is accepted only above the floor: at floor 0 an exact zero,
    # which would put infinities or NaNs in the factor, is deferred
    params = FactorParams(pivot_floor=0.0, droptol=0.0, alpha=12.0, cond_thresh=50.0,
                          dense_switch=2)
    for seed in range(300):
        a = _integer_level(12, seed)
        m = factorize(a, params)
        for lev in m.levels:
            assert np.all(lev.D != 0.0), seed
            assert all(np.isfinite(f.data).all() for f in (lev.L, lev.U)), seed
        assert np.isfinite(ml_solve(m, a @ np.ones(12))).all(), seed


@pytest.mark.filterwarnings("error")
def test_a_subnormal_pivot_is_deferred_at_pivot_floor_zero():
    # 1 / 1e-320 overflows: a pivot below the smallest normal float64 is
    # deferred at any pivot_floor
    a = as_csr(sp.csr_matrix([[1e-320, 1.0], [1.0, 1.0]]))
    level, schur = crout_ilu_level(a, FactorParams(pivot_floor=0.0, droptol=0.0))
    assert level.n_b == 1 and level.n_dynamic_deferred == 1
    assert list(level.order) == [1, 0] and np.array_equal(schur.toarray(), [[-1.0]])
    m = factorize(a, FactorParams(pivot_floor=0.0, droptol=0.0, dense_switch=1))
    assert np.array_equal(ml_solve(m, a @ np.ones(2)), np.ones(2))


@pytest.mark.filterwarnings("error")
def test_a_zero_diagonal_level_at_pivot_floor_zero_goes_to_the_tail():
    a = cyclic_permutation(6)
    m = factorize(a, FactorParams(pivot_floor=0.0, dense_switch=2))
    assert [lev.n_b for lev in m.levels] == [0] and m.tail_n == 6 and not m.perturbed
    x = np.arange(1.0, 7.0)
    assert np.array_equal(ml_solve(m, a @ x), x)


@pytest.mark.parametrize("alpha", [np.inf, 1e300])
def test_a_huge_alpha_caps_like_the_level_size(alpha):
    # alpha * nnz past the int64 range used to cast to the most negative
    # int64 (with a warning), which made every cap the floor of 5
    a = _dropping_level(40, 3)
    params = FactorParams(alpha=40.0, droptol=0.0)
    level, schur = crout_ilu_level(a, params, 35)
    assert np.diff(level.U.indptr).max() > 1 + mlilu._CAP_FLOOR
    assert _level_bits(*crout_ilu_level(a, replace(params, alpha=alpha), 35)) == _level_bits(
        level, schur)


@pytest.mark.parametrize("shape, n_candidates, match", [
    ((4, 4), -1, r"n_candidates must be in \[0, 4\], got -1"),
    ((4, 4), 6, r"n_candidates must be in \[0, 4\], got 6"),
    ((2, 3), None, "requires a square matrix"),
])
def test_crout_level_rejects_bad_input_up_front(shape, n_candidates, match):
    a = as_csr(sp.csr_matrix(np.ones(shape)))
    with pytest.raises(ValueError, match=match):
        crout_ilu_level(a, FactorParams(), n_candidates)


@pytest.mark.parametrize("dense_switch", [2.5, 100.0, "100"])
def test_dense_switch_refuses_non_integers(dense_switch):
    # a numpy integer is accepted; anything else is refused when it is built
    assert FactorParams(dense_switch=np.int64(100)).dense_switch == 100
    with pytest.raises(ValueError, match="dense_switch must be an integer"):
        FactorParams(dense_switch=dense_switch)


@pytest.mark.parametrize("consumer, name", [(equilibrate, "equilibrate"),
                                            (factorize, "factorize"),
                                            (mlilu.reorder, "reorder")])
def test_a_non_square_matrix_is_rejected(consumer, name):
    with pytest.raises(ValueError, match=f"{name} requires a square matrix"):
        consumer(as_csr(sp.csr_matrix(np.ones((2, 3)))))


def _assert_no_exact_zero(lev):
    # the unit diagonals are stored as 1, every other stored entry is nonzero
    for f in (lev.L, lev.U):
        assert np.all(f.diagonal() == 1.0) and np.all(f.data != 0.0)


def test_no_exact_zero_is_stored_in_l_or_u_at_zero_droptol():
    for seed in range(60):
        a = _integer_level(20, seed)
        _assert_no_exact_zero(crout_ilu_level(a, INTEGER_PARAMS)[0])
        levels = factorize(a, replace(INTEGER_PARAMS, dense_switch=4)).levels
        assert levels
        for lev in levels:
            _assert_no_exact_zero(lev)


def _smmp_of(left, right):
    return mlilu._smmp(left.indptr, left.indices, left.data,
                       right.indptr, right.indices, right.data, right.shape[1])


def _bound_by_rows(left, right):
    """The output size _smmp allocates: per row, the lesser of the column
    count and the row's multiply-adds."""
    sizes = np.diff(right.indptr)
    return sum(min(right.shape[1], int(sizes[left.indices[left.indptr[i]:left.indptr[i + 1]]]
                                      .sum()))
               for i in range(left.shape[0]))


def _assert_smmp_is_scipys_product(left, right, idx_dtype=np.int32):
    got = _smmp_of(left, right)
    want = left @ right
    assert got.indptr.dtype == got.indices.dtype == idx_dtype
    assert want.indptr.dtype == want.indices.dtype == np.int32
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)  # SMMP's unsorted order
    assert got.data.dtype == want.data.dtype and got.data.tobytes() == want.data.tobytes()
    # shrunk to the entries SMMP wrote, never past the bound it was given
    bound = _bound_by_rows(left, right)
    assert mlilu._smmp_bound(left.indptr, left.indices, right.indptr, right.shape[1]) == bound
    assert got.indices.size == got.data.size == got.indptr[-1] <= bound
    return got


def _random_operand(rng, rows, cols, density):
    m = sp.random(rows, cols, density=density, random_state=rng, format="csr")
    m.data = rng.standard_normal(m.nnz)
    return m


@pytest.mark.parametrize("seed", range(6))
def test_smmp_is_scipys_product_of_random_operands(seed):
    rng = np.random.default_rng(seed)
    inner = int(rng.integers(1, 40))
    left = _random_operand(rng, int(rng.integers(1, 30)), inner, rng.uniform(0.02, 0.5))
    right = _random_operand(rng, inner, int(rng.integers(1, 50)), rng.uniform(0.02, 0.5))
    # SMMP takes the entries of a row in any order
    order = np.lexsort((-left.indices, np.repeat(np.arange(left.shape[0]), np.diff(left.indptr))))
    left.indices, left.data = left.indices[order], left.data[order]
    _assert_smmp_is_scipys_product(left, right)


def test_smmp_leaves_out_sums_that_cancel_exactly():
    # row 0 adds right's rows 0 and 1, which cancel; row 1 keeps two entries
    left = sp.csr_matrix(([1.0, 1.0, 2.0], [0, 1, 0], [0, 2, 3]), shape=(2, 2))
    right = sp.csr_matrix(([1.5, -0.25, -1.5, 0.25], [1, 3, 1, 3], [0, 2, 4]), shape=(2, 5))
    got = _assert_smmp_is_scipys_product(left, right)
    assert list(got.indptr) == [0, 0, 2] and _bound_by_rows(left, right) == 6


def test_smmp_of_empty_right_rows_is_empty():
    left = sp.csr_matrix(([1.0, -3.0, 2.0], [0, 2, 1], [0, 2, 2, 3]), shape=(3, 3))
    right = sp.csr_matrix(([4.0], [1], [0, 0, 1, 1]), shape=(3, 4))
    got = _assert_smmp_is_scipys_product(left, right)
    assert list(got.indptr) == [0, 0, 0, 1] and got.data.tobytes() == np.float64(8.0).tobytes()
    empty = sp.csr_matrix((3, 4))
    assert _assert_smmp_is_scipys_product(left, empty).indices.size == 0


def test_smmp_takes_int64_operands_and_uses_int64_past_int32(monkeypatch):
    rng = np.random.default_rng(7)
    left = _random_operand(rng, 20, 15, 0.3)
    right = _random_operand(rng, 15, 25, 0.3)
    wide = [x.astype(np.int64) for x in (left.indptr, left.indices, right.indptr, right.indices)]
    got = mlilu._smmp(wide[0], wide[1], left.data, wide[2], wide[3], right.data, 25)
    want = left @ right
    assert got.indices.dtype == np.int32
    assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()
    # an output bound past the int32 range runs every index array as int64
    monkeypatch.setattr(mlilu, "_INT32_MAX", 10)
    _assert_smmp_is_scipys_product(left, right, idx_dtype=np.int64)
