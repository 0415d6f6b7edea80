import numpy as np
import scipy.sparse as sp

from saddlesolve.mlilu import _scale, _sym_permute
from saddlesolve.sparse import Permutation, as_csr

from conftest import check_permutation, random_sparse


def permute_scale(a, p, dr, dc):
    """The per-level transform of the factorization: scale rows by dr and
    columns by dc, then permute rows and columns by p."""
    return _sym_permute(_scale(a, dr, dc), p)


def test_permutation_roundtrip():
    p = Permutation.from_inverse([2, 0, 3, 1])
    check_permutation(p)
    assert np.array_equal(p.forward[p.inverse], np.arange(4))
    assert np.array_equal(Permutation.from_forward(p.forward).inverse, p.inverse)


def test_permutation_compose():
    rng = np.random.default_rng(5)
    p = Permutation.from_inverse(rng.permutation(8))
    q = Permutation.from_inverse(rng.permutation(8))
    comp = q.compose(p)
    x = rng.standard_normal(8)
    # applying p then q to a vector equals applying the composition
    assert np.array_equal(x[p.inverse][q.inverse], x[comp.inverse])


def test_permute_scale_identity():
    a, _ = random_sparse(10, 0.3, seed=2)
    p = Permutation.from_inverse(np.arange(10))
    out = permute_scale(a, p, np.ones(10), np.ones(10))
    assert (out != a).nnz == 0


def test_permute_scale_swap_diag():
    a = as_csr(sp.diags([1.0, 2.0]).tocsr())
    swap = Permutation.from_inverse([1, 0])
    out = permute_scale(a, swap, np.ones(2), np.ones(2))
    assert np.allclose(out.toarray(), np.diag([2.0, 1.0]))


def test_permute_scale_dense_oracle():
    a, rng = random_sparse(9, 0.4, seed=3)
    p = Permutation.from_inverse(rng.permutation(9))
    dr = rng.random(9) + 0.5
    dc = rng.random(9) + 0.5
    out = permute_scale(a, p, dr, dc)
    dense = a.toarray()
    expected = np.zeros((9, 9))
    for i in range(9):
        for j in range(9):
            expected[p.forward[i], p.forward[j]] = dr[i] * dense[i, j] * dc[j]
    assert np.allclose(out.toarray(), expected, rtol=0, atol=0)


def test_permute_scale_inverse_recovers():
    a, rng = random_sparse(12, 0.35, seed=4)
    p = Permutation.from_inverse(rng.permutation(12))
    dr = rng.random(12) + 0.5
    dc = rng.random(12) + 0.5
    fwd = permute_scale(a, p, dr, dc)
    back = permute_scale(fwd, Permutation.from_inverse(p.forward),
                         (1 / dr)[p.inverse], (1 / dc)[p.inverse])
    assert (back != 0).nnz == (a != 0).nnz
    err = np.abs(back.toarray() - a.toarray()).max()
    assert err <= 1e-14 * np.abs(a.toarray()).max()
