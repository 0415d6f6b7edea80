import numpy as np
import pytest
import scipy.sparse as sp

from saddlesolve import mlilu
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


def laplacian_2d(nx):
    """5-point Laplacian on an nx-by-nx grid, natural (row-major) order."""
    n = nx * nx
    main = 4.0 * np.ones(n)
    ex = np.ones(n - 1)
    ex[np.arange(1, n) % nx == 0] = 0.0
    ey = np.ones(n - nx)
    a = sp.diags([main, -ex, -ex, -ey, -ey], [0, 1, -1, nx, -nx], format="csr")
    return as_csr(a)


def reference_crout(a, params, ncand):
    """Dense reference for ``mlilu.crout_ilu_level``: the same pivot order,
    deferral tests, dual dropping and fill caps, written as plain dense row
    and column updates over boolean sparsity patterns.

    Step k forms row k (column k) of the active matrix as A's row (column)
    minus l_kt D_t u_t (u_tk D_t l_t) for every pivot t whose stored L column
    (U row) holds k, and its pattern as the union of theirs.  Returns
    (order, L, U, D, n_dynamic, drops): L and U dense in factor positions,
    drops = (entries dropped by the tolerance, entries dropped by a cap).
    """
    n = a.shape[0]
    vals = a.toarray()
    coo = a.tocoo()
    pat = np.zeros((n, n), dtype=bool)
    pat[coo.row, coo.col] = True
    u_caps = np.maximum(5, np.ceil(params.alpha * pat.sum(axis=1)).astype(int))
    l_caps = np.maximum(5, np.ceil(params.alpha * pat.sum(axis=0)).astype(int))
    status = np.zeros(n, dtype=int)  # 0 pending, 1 eliminated, 2 deferred or trailing
    status[ncand:] = 2
    elim, diag, v_low, v_up = [], [], [], []
    urows, lcols = [], []  # per pivot: (dense values, pattern) in input indices
    est_low = est_up = 1.0
    drops = [0, 0]

    def active(k, a_vals, a_pat, updates, crossing, v):
        values, pattern, est = a_vals.copy(), a_pat.copy(), 0.0
        for t, ((cv, cp), (uv, up)) in enumerate(zip(crossing, updates)):
            if cp[k]:
                values = values - cv[k] * diag[t] * uv
                pattern = pattern | up
                est += cv[k] * v[t]
        return values, pattern & (status != 1), 1.0 + abs(est)

    def dropped(values, pattern, k, pivot, est, cap):
        idx = [j for j in np.flatnonzero(pattern) if j != k]
        kept = [j for j in idx
                if params.droptol == 0 or abs(values[j] / pivot) * est > params.droptol]
        drops[0] += len(idx) - len(kept)
        largest = sorted(kept, key=lambda j: (-abs(values[j] / pivot), j))[:cap]
        drops[1] += len(kept) - len(largest)
        out_v, out_p = np.zeros(n), np.zeros(n, dtype=bool)
        out_p[largest] = True
        out_v[largest] = values[largest] / pivot
        return out_v, out_p

    n_dynamic = 0
    for k in range(ncand):
        row, row_pat, vlk = active(k, vals[k], pat[k], urows, lcols, v_low)
        col, col_pat, vuk = active(k, vals[:, k], pat[:, k], lcols, urows, v_up)
        pivot = row[k] if row_pat[k] else 0.0
        if abs(pivot) < params.pivot_floor or max(vlk, vuk) > params.cond_thresh:
            status[k] = 2
            n_dynamic += 1
            continue
        status[k] = 1
        elim.append(k)
        diag.append(pivot)
        v_low.append(vlk)
        v_up.append(vuk)
        est_low, est_up = max(est_low, vlk), max(est_up, vuk)
        urows.append(dropped(row, row_pat, k, pivot, est_up, u_caps[k]))
        lcols.append(dropped(col, col_pat, k, pivot, est_low, l_caps[k]))

    order = np.array(elim + [j for j in range(n) if status[j] != 1], dtype=int)
    lower, upper = np.zeros((n, n)), np.zeros((n, n))
    for t, ((lv, _), (uv, _)) in enumerate(zip(lcols, urows)):
        lower[:, t] = lv[order]
        upper[t, :] = uv[order]
    return order, lower, upper, np.array(diag), n_dynamic, tuple(drops)


def cyclic_permutation(n):
    """The n x n permutation i -> i+1 mod n: every diagonal entry is zero,
    so no Crout pivot is acceptable and all of it reaches the dense tail."""
    return as_csr(sp.csr_matrix((np.ones(n), (np.arange(n), (np.arange(n) + 1) % n)),
                                shape=(n, n)))


def arrow(n, leaf=0.0):
    """Index 0 coupled to every other index with value 1, a unit diagonal
    at 0 and ``leaf`` stored on every other diagonal entry: 3n - 2 entries,
    singular at leaf 0.  Eliminating the hub first leaves a dense Schur
    complement of (n - 1)^2 entries."""
    rows = np.r_[np.zeros(n, int), np.arange(1, n), np.arange(1, n)]
    cols = np.r_[np.arange(n), np.zeros(n - 1, int), np.arange(1, n)]
    vals = np.r_[np.ones(2 * n - 1), np.full(n - 1, leaf)]
    return as_csr(sp.csr_matrix((vals, (rows, cols)), shape=(n, n)))


def underflowing_tail():
    """A 3 x 3 matrix with a structurally empty row, which the size clause
    sends to the dense tail whole.  _ruiz scales its column 2 by 4.3e299,
    so the pivot floor is subnormal on S's scale and inverse iteration
    through it is not finite."""
    return as_csr(sp.csr_matrix(np.array([[1e-300, 0.0, 0.0], [0.0, 0.0, 0.0],
                                          [0.0, 0.7098, 1e-300]])))


def check_permutation(order, n):
    """Assert that the order array is a bijection on [0, n)."""
    assert np.array_equal(np.sort(order), np.arange(n)), "order is not a bijection on [0, n)"


def reassemble(m):
    """Rebuild the dense matrix a MultilevelFactor represents; exact
    factorizations reproduce the input.  The tail must keep its full rank
    (the factor is not perturbed)."""

    def tail_dense():
        if m.tail_n == 0:
            return np.zeros((0, 0))
        n = m.tail_n
        assert m.tail.rank == n, "a rank-cut tail does not reassemble"
        lu, piv = m.tail.lu, m.tail.piv
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
        lf = lev.L.toarray()
        uf = lev.U.toarray()
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
