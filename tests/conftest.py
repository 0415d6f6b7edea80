import numpy as np
import pytest
import scipy.sparse as sp

from saddlesolve.sparse import as_csr


def random_sparse(n, density, seed, diag_shift=0.0):
    """Deterministic random CSR with an optional diagonal shift."""
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density=density, random_state=seed, format="csr")
    dense = a.toarray()
    dense += diag_shift * np.eye(n)
    return as_csr(sp.csr_matrix(dense)), rng


def random_saddle(nb, ne, seed, shift=4.0):
    """Random saddle-point matrix [[B, E^T], [E, 0]] with explicit zeros in
    the trailing diagonal block so the pattern matches FEM assemblies."""
    rng = np.random.default_rng(seed)
    b = rng.random((nb, nb)) * (rng.random((nb, nb)) < 0.25) + shift * np.eye(nb)
    e = rng.random((ne, nb)) * (rng.random((ne, nb)) < 0.4)
    e[np.arange(ne), np.arange(ne) % nb] += 1.0
    n = nb + ne
    dense = np.zeros((n, n))
    dense[:nb, :nb] = b
    dense[:nb, nb:] = e.T
    dense[nb:, :nb] = e
    return as_csr(sp.csr_matrix(dense))


def check_permutation(order, n):
    """Assert that the order array is a bijection on [0, n)."""
    assert np.array_equal(np.sort(order), np.arange(n)), "order is not a bijection on [0, n)"


def reassemble(m):
    """Rebuild the dense matrix a MultilevelFactor represents; exact
    factorizations reproduce the input."""

    def tail_dense():
        if m.tail_n == 0:
            return np.zeros((0, 0))
        lu, piv = m.tail_lu
        n = m.tail_n
        low = np.tril(lu, -1) + np.eye(n)
        up = np.triu(lu)
        prod = low @ up
        order = np.arange(n)
        for i, p in enumerate(piv):
            order[i], order[p] = order[p], order[i]
        out = np.empty_like(prod)
        out[order, :] = prod
        return out

    def level_dense(li):
        if li == len(m.levels):
            return tail_dense()
        lev = m.levels[li]
        n, nb = lev.n, lev.n_b
        lf = lev.L.toarray() + np.eye(n)
        uf = lev.U.toarray() + np.eye(n)
        mid = np.zeros((n, n))
        mid[:nb, :nb] = np.diag(lev.D)
        mid[nb:, nb:] = level_dense(li + 1)
        b = lf @ mid @ uf
        pos = np.argsort(lev.order)
        scaled = b[pos][:, pos]
        return scaled / lev.dr[:, None] / lev.dc[None, :]

    return level_dense(0)


@pytest.fixture(scope="session")
def cavity_level4():
    from saddlesolve import cavity as cav
    return cav.build_problem(4, re=100.0)


@pytest.fixture(scope="session")
def cavity_level4_stokes(cavity_level4):
    from saddlesolve import cavity as cav
    return cav.stokes_initial_guess(cavity_level4)
