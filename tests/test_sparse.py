import numpy as np
import scipy.sparse as sp

from saddlesolve.mlilu import _scale, _sym_permute
from saddlesolve.sparse import as_csr

from conftest import random_sparse


def permute_scale(a, order, dr, dc):
    """The per-level transform of the factorization: scale rows by dr and
    columns by dc, then permute rows and columns so that new index i is
    old index order[i]."""
    return _sym_permute(_scale(a, dr, dc), order)


def test_permute_scale_identity():
    a, _ = random_sparse(10, 0.3, seed=2)
    out = permute_scale(a, np.arange(10), np.ones(10), np.ones(10))
    assert (out != a).nnz == 0


def test_permute_scale_swap_diag():
    a = as_csr(sp.diags([1.0, 2.0]).tocsr())
    out = permute_scale(a, np.array([1, 0]), np.ones(2), np.ones(2))
    assert np.allclose(out.toarray(), np.diag([2.0, 1.0]))


def test_permute_scale_dense_oracle():
    a, rng = random_sparse(9, 0.4, seed=3)
    order = rng.permutation(9)
    forward = np.argsort(order)
    dr = rng.random(9) + 0.5
    dc = rng.random(9) + 0.5
    out = permute_scale(a, order, dr, dc)
    dense = a.toarray()
    expected = np.zeros((9, 9))
    for i in range(9):
        for j in range(9):
            expected[forward[i], forward[j]] = dr[i] * dense[i, j] * dc[j]
    assert np.allclose(out.toarray(), expected, rtol=0, atol=0)


def test_permute_scale_inverse_recovers():
    a, rng = random_sparse(12, 0.35, seed=4)
    order = rng.permutation(12)
    dr = rng.random(12) + 0.5
    dc = rng.random(12) + 0.5
    fwd = permute_scale(a, order, dr, dc)
    back = permute_scale(fwd, np.argsort(order), (1 / dr)[order], (1 / dc)[order])
    assert (back != 0).nnz == (a != 0).nnz
    err = np.abs(back.toarray() - a.toarray()).max()
    assert err <= 1e-14 * np.abs(a.toarray()).max()
