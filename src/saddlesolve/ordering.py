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

from .sparse import as_csr

__all__ = ["reorder"]


def _symmetric_pattern(a: sp.csr_matrix) -> sp.csr_matrix:
    pat = sp.csr_matrix((np.ones_like(a.data), a.indices, a.indptr), shape=a.shape)
    return as_csr(pat + pat.T)


def reorder(a: sp.csr_matrix) -> np.ndarray:
    """Elimination order (old indices in elimination sequence) of a square
    sparse matrix by SuperLU's multiple minimum degree on the pattern of
    A + A^T.

    The ordering depends only on the pattern.  The values (-1 on the
    pattern, plus 2 + the row count on the diagonal) make the matrix
    strictly diagonally dominant, so the factorization that spilu runs
    after the ordering never meets a zero pivot.  SuperLU computes the
    column order from the pattern alone, before any numeric work, in the
    same code for its complete and its incomplete driver, and the numeric
    factorization leaves it as it is.  So the incomplete driver, which drops nearly every
    entry (drop_tol 0.99, fill_factor 1), returns the complete LU's order
    without paying for the complete LU.  perm_c is the forward permutation;
    its argsort is the order.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError("reorder requires a square matrix")
    m = _symmetric_pattern(a).tocsc()
    m.data[:] = -1.0
    m = (m + sp.diags(2.0 + np.diff(m.indptr))).tocsc()
    lu = spilu(m, drop_tol=0.99, fill_factor=1, permc_spec="MMD_AT_PLUS_A",
               diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    return np.argsort(lu.perm_c).astype(np.intp)
