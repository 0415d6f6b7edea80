import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from saddlesolve.ordering import reorder
from saddlesolve.sparse import as_csr

from conftest import check_permutation, random_saddle, random_sparse


def laplacian_2d(nx):
    """5-point Laplacian on an nx-by-nx grid, natural (row-major) order."""
    n = nx * nx
    main = 4.0 * np.ones(n)
    ex = np.ones(n - 1)
    ex[np.arange(1, n) % nx == 0] = 0.0
    ey = np.ones(n - nx)
    a = sp.diags([main, -ex, -ex, -ey, -ey], [0, 1, -1, nx, -nx], format="csr")
    return as_csr(a)


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
