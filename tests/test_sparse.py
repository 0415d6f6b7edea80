import numpy as np
import pytest
import scipy.sparse as sp

from saddlesolve import cavity
from saddlesolve.mlilu import FactorParams, _scale, crout_ilu_level, factorize
from saddlesolve.mmio import mm_read
from saddlesolve.sparse import as_csr

from conftest import random_saddle, random_sparse


def permute_scale(a, order, dr, dc):
    """The per-level transform of the factorization: scale rows by dr and
    columns by dc, then permute rows and columns so that new index i is
    old index order[i]."""
    return as_csr(_scale(a, dr, dc)[order, :][:, order])


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


def _cavity_matrix(which):
    prob = cavity.build_problem(3, 50.0)
    if which == "stokes_operator":
        return cavity.stokes_operator(prob)
    x = 0.1 * np.random.default_rng(5).standard_normal(prob.n_unknowns)
    return getattr(cavity, which)(prob, x)


def _mm_read_shuffled_symmetric(tmp_path):
    """A symmetric file whose lower-triangle entries are in random order."""
    a, rng = random_sparse(12, 0.3, seed=6, diag_shift=1.0)
    low = sp.tril(a).tocoo()
    lines = [f"{i + 1} {j + 1} {v:.17g}" for i, j, v in zip(low.row, low.col, low.data)]
    lines = [lines[k] for k in rng.permutation(len(lines))]
    path = tmp_path / "sym.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    f"12 12 {len(lines)}\n" + "\n".join(lines) + "\n")
    return mm_read(path)


def _crout_level_output(which):
    """(L+I), (U+I) or the Schur complement of one Crout level of a small
    int32 saddle matrix, its trailing block statically deferred."""
    a = random_saddle(30, 10, seed=9)
    assert a.indices.dtype == np.int32
    level, schur = crout_ilu_level(a, FactorParams(), 30)
    return {"crout_L": level.L, "crout_U": level.U, "crout_schur": schur}[which]


@pytest.mark.parametrize("producer", ["oseen_operator", "newton_operator", "stokes_operator",
                                      "mm_read",
                                      "crout_L", "crout_U", "crout_schur"])
def test_producers_return_canonical_csr(producer, tmp_path):
    if producer == "mm_read":
        m = _mm_read_shuffled_symmetric(tmp_path)
    elif producer.startswith("crout_"):
        m = _crout_level_output(producer)
        # ml_solve_bytes counts these arrays: a widened index would move it
        assert m.indices.dtype == np.int32 and m.indptr.dtype == np.int32
    else:
        m = _cavity_matrix(producer)
    # (L+I) is stored as CSC, the form its forward substitution reads
    assert isinstance(m, sp.csc_matrix if producer == "crout_L" else sp.csr_matrix)
    assert m.has_canonical_format


@pytest.mark.parametrize("consumer", [as_csr, factorize,
                                      lambda a: crout_ilu_level(a, FactorParams(), 2)],
                         ids=["as_csr", "factorize", "crout_ilu_level"])
def test_non_canonical_argument_is_left_unchanged(consumer):
    # a CSR argument shares its arrays with sp.csr_matrix(a): canonicalizing
    # in place would sum the duplicates and sort the caller's matrix
    data, indices = np.array([1.0, 2.0, 3.0, 4.0, 0.5]), np.array([1, 0, 0, 1, 1])
    a = sp.csr_matrix((data.copy(), indices.copy(), np.array([0, 3, 5])), shape=(2, 2))
    consumer(a)
    assert a.nnz == 5
    assert np.array_equal(a.indices, indices) and np.array_equal(a.data, data)
    assert np.array_equal(as_csr(a).toarray(), [[5.0, 1.0], [0.0, 4.5]])
