import numpy as np
import scipy.sparse as sp

from saddlesolve.ordering import reorder
from saddlesolve.sparse import as_csr

from conftest import check_permutation


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
