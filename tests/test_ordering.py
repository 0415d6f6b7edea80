import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spilu, splu

from saddlesolve import mlilu
from saddlesolve.mlilu import reorder
from saddlesolve.sparse import as_csr

from conftest import check_permutation, laplacian_2d, random_saddle, random_sparse


def symbolic_fill(a, order):
    """Nonzero count of the exact Cholesky factor of the symmetrized
    pattern under the given ordering (simple set-based elimination)."""
    n = a.shape[0]
    pat = a + a.T
    pat = as_csr(pat)
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in pat.indices[pat.indptr[i]:pat.indptr[i + 1]]:
            if i != j:
                adj[pos[i]].add(int(pos[j]))
    fill = 0
    reach = [set() for _ in range(n)]
    for k in range(n):
        nbrs = {j for j in adj[k] | reach[k] if j > k}
        fill += len(nbrs) + 1
        for j in nbrs:
            reach[j] |= nbrs
            reach[j].discard(j)
    return fill


def test_diagonal_matrix_orders_identity():
    a = as_csr(sp.diags([1.0, 2.0, 3.0, 4.0]).tocsr())
    assert np.array_equal(reorder(a), np.arange(4))


def test_reorder_is_valid_permutation():
    a = laplacian_2d(8)
    check_permutation(reorder(a), a.shape[0])


def test_min_degree_beats_natural_ordering_fill():
    # fill of the exact factor under the computed ordering must not exceed
    # the natural-ordering fill on a 16x16 grid Laplacian
    a = laplacian_2d(16)
    natural = symbolic_fill(a, np.arange(a.shape[0]))
    md = symbolic_fill(a, reorder(a))
    assert md <= natural, (md, natural)


def test_min_degree_covers_all_indices():
    a = laplacian_2d(7)
    order = reorder(a)
    assert np.array_equal(np.sort(order), np.arange(a.shape[0]))


def test_reorder_deterministic():
    a = laplacian_2d(10)
    assert np.array_equal(reorder(a), reorder(a))


def test_saddle_matrix_orders_deterministically():
    # zero (2,2) block and a structurally unsymmetric (1,2)/(2,1) pair: the
    # ordering works on A + A^T and its diagonally dominant stand-in, so the
    # LU behind it meets no zero pivot
    nb, ne = 12, 5
    a = sp.lil_matrix((nb + ne, nb + ne))
    a[:nb, :nb] = laplacian_2d(4)[:nb, :nb]
    for k in range(ne):
        a[nb + k, 2 * k] = 1.0        # E
        a[2 * k + 1, nb + k] = 1.0    # F^T, a different pattern from E^T
    a = as_csr(a.tocsr())
    order = reorder(a)
    check_permutation(order, nb + ne)
    assert np.array_equal(order, reorder(a))


def complete_lu_order(a):
    """The order of SuperLU's complete LU (splu) of the stand-in that
    reorder factorizes: -1 on the pattern of A + A^T, and 2 + the column
    count of that pattern on the diagonal."""
    pat = sp.csr_matrix((np.ones_like(a.data), a.indices, a.indptr), shape=a.shape)
    m = as_csr(pat + pat.T).tocsc()
    m.data[:] = -1.0
    m = (m + sp.diags(2.0 + np.diff(m.indptr))).tocsc()
    lu = splu(m, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    return np.argsort(lu.perm_c)


@pytest.mark.parametrize("a", [
    laplacian_2d(12),
    random_saddle(60, 25, seed=3),
    random_sparse(50, 0.05, seed=1)[0],
    random_sparse(120, 0.02, seed=2)[0],
    random_sparse(200, 0.01, seed=3)[0],
    random_sparse(80, 0.15, seed=4)[0],
    random_sparse(400, 0.2, seed=5, diag_shift=1.0)[0],
], ids=["grid-laplacian", "saddle", "unsym-50", "unsym-120", "unsym-200", "unsym-80-dense",
        "schur-like-400"])
def test_order_equals_the_complete_lu_order(a):
    # the incomplete driver orders before any numeric work, as the complete
    # one does, so dropping nearly every entry leaves the order unchanged
    assert np.array_equal(reorder(a), complete_lu_order(a))


def full_pattern_order(a):
    """The order of the spilu call reorder made before it passed only the
    upper triangle: the stand-in with -1 on the pattern of A + A^T and 1 +
    the column count on its diagonal, symmetric, so that its CSR arrays are
    its CSC arrays."""
    pat = sp.csr_matrix((np.ones(a.nnz, np.int8), a.indices, a.indptr), shape=a.shape)
    pat = pat + pat.T + 4 * sp.eye(a.shape[0], dtype=np.int8, format="csr")
    data = np.full(pat.nnz, -1.0)
    data[pat.data >= 4] = 1.0 + np.diff(pat.indptr)
    m = sp.csc_matrix((data, pat.indices, pat.indptr), shape=a.shape)
    lu = spilu(m, drop_tol=0.99, fill_factor=1, permc_spec="MMD_AT_PLUS_A",
               diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    return np.argsort(lu.perm_c)


@pytest.mark.parametrize("a", [
    laplacian_2d(6),
    random_saddle(30, 12, seed=5),
    random_sparse(60, 0.08, seed=6)[0],
    random_sparse(40, 0.3, seed=7, diag_shift=1.0)[0],
], ids=["grid-laplacian", "saddle", "unsym-60", "unsym-40-dense"])
def test_spilu_gets_the_upper_triangle_of_the_pattern(a, monkeypatch):
    # upper triangular, as CSC, with 1 off the diagonal and 2 on it: the
    # pattern of A + A^T + I is that of M + M^T
    seen = []
    real = mlilu.spilu

    def spilu(m, **options):
        seen.append(m)
        return real(m, **options)

    monkeypatch.setattr(mlilu, "spilu", spilu)
    order = reorder(a)
    (got,) = seen
    n = a.shape[0]
    assert got.format == "csc" and got.has_canonical_format
    assert sp.tril(got, -1).nnz == 0 and np.all(got.diagonal() == 2.0)
    assert np.all(sp.triu(got, 1).data == 1.0)
    pat = abs(a.sign())
    want = (pat + pat.T + sp.eye(n)).astype(bool)
    assert ((got + got.T).astype(bool) != want).nnz == 0
    assert np.array_equal(order, full_pattern_order(a))


def test_order_equals_the_full_pattern_order():
    # random patterns of every density, and symmetric permutations of a
    # cavity operator, which take the ties of minimum degree another way
    from saddlesolve import cavity
    rng = np.random.default_rng(40)
    cases = [random_sparse(int(n), float(d), seed=s)[0]
             for s, (n, d) in enumerate(zip(rng.integers(2, 300, 60),
                                            rng.choice([0.005, 0.02, 0.1, 0.5], 60)))]
    prob = cavity.build_problem(3, 100.0)
    op = cavity.oseen_operator(prob, 0.1 * rng.standard_normal(prob.n_unknowns))
    for _ in range(10):
        p = rng.permutation(op.shape[0])
        cases.append(as_csr(op[p][:, p]))
    for a in cases:
        assert np.array_equal(reorder(a), full_pattern_order(a)), a.shape
