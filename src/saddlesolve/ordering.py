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


def reorder(a: sp.csr_matrix) -> np.ndarray:
    """Elimination order (old indices in elimination sequence) of a square
    sparse matrix by SuperLU's multiple minimum degree on the pattern of
    A + A^T.

    The ordering depends only on the pattern, and SuperLU forms the graph
    of M + M^T from the matrix M it is given, so M holds only the upper
    triangle of the pattern of A + A^T + I: as CSC, the CSR arrays of its
    lower triangle.  (The lower triangle as CSC is the same graph, but
    SuperLU then breaks minimum-degree ties another way.)  M has 1 off the
    diagonal and 2 on it, and the incomplete driver spilu runs after the
    ordering drops every entry below 0.99 times its column's largest, so
    it keeps only the diagonal and never meets a zero pivot.  SuperLU
    computes the column order from the pattern alone, before any numeric
    work, in the same code for its complete and its incomplete driver, and
    the numeric factorization leaves it as it is.  So the incomplete driver
    (drop_tol 0.99, fill_factor 1) returns the complete LU's order without
    paying for the complete LU.  perm_c is the forward permutation; its
    argsort is the order.
    """
    n = a.shape[0]
    if n != a.shape[1]:
        raise ValueError("reorder requires a square matrix")
    pat = sp.csr_matrix((np.ones(a.nnz, np.int8), a.indices, a.indptr), shape=a.shape)
    lower = (sp.tril(pat, format="csr") + sp.tril(pat.T, format="csr")
             + sp.eye(n, dtype=np.int8, format="csr"))
    data = np.ones(lower.nnz)
    # each sorted row of the lower triangle ends with its diagonal
    data[lower.indptr[1:] - 1] = 2.0
    m = sp.csc_matrix((data, lower.indices, lower.indptr), shape=a.shape)
    lu = spilu(m, drop_tol=0.99, fill_factor=1, permc_spec="MMD_AT_PLUS_A",
               diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    return np.argsort(lu.perm_c).astype(np.intp)
