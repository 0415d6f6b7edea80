"""Fill-reducing symmetric ordering.

SuperLU's multiple minimum degree on the pattern of A + A^T (Liu,
Modification of the minimum-degree algorithm by multiple elimination, ACM
TOMS 1985), a sibling of the approximate minimum degree of Amestoy, Davis
and Duff, called through scipy's spilu.  It is deterministic, and a graph
with no edges orders as the identity.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spilu

__all__ = ["reorder"]


def _symmetric_pattern(a: sp.csr_matrix) -> sp.csr_matrix:
    """The pattern of A + A^T + I as canonical CSR with int8 values: 4 or
    more on the diagonal, at most 2 off it."""
    pat = sp.csr_matrix((np.ones(a.nnz, np.int8), a.indices, a.indptr), shape=a.shape)
    return pat + pat.T + 4 * sp.eye(a.shape[0], dtype=np.int8, format="csr")


def reorder(a: sp.csr_matrix) -> np.ndarray:
    """Elimination order (old indices in elimination sequence) of a square
    sparse matrix by SuperLU's multiple minimum degree on the pattern of
    A + A^T.

    The ordering depends only on the pattern.  The matrix spilu factorizes
    has the pattern of A + A^T + I, -1 off the diagonal and 1 + the column
    count on it: it is strictly diagonally dominant, so the factorization
    that spilu runs after the ordering never meets a zero pivot.  SuperLU
    computes the column order from the pattern alone, before any numeric
    work, in the same code for its complete and its incomplete driver, and
    the numeric factorization leaves it as it is.  So the incomplete
    driver, which drops nearly every entry (drop_tol 0.99, fill_factor 1),
    returns the complete LU's order without paying for the complete LU.
    perm_c is the forward permutation; its argsort is the order.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError("reorder requires a square matrix")
    pat = _symmetric_pattern(a)
    data = np.full(pat.nnz, -1.0)
    data[pat.data >= 4] = 1.0 + np.diff(pat.indptr)
    # the pattern is symmetric, so its CSR arrays are its CSC arrays
    m = sp.csc_matrix((data, pat.indices, pat.indptr), shape=a.shape)
    lu = spilu(m, drop_tol=0.99, fill_factor=1, permc_spec="MMD_AT_PLUS_A",
               diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    return np.argsort(lu.perm_c).astype(np.intp)
