"""Sparse-matrix plumbing shared by every other module.

Matrices are carried as ``scipy.sparse.csr_matrix`` in canonical form:
``indptr`` is the nondecreasing row-offset array, ``indices`` holds strictly
increasing column indices within each row, and duplicate entries are
forbidden.  Explicitly stored zeros are legal and are never pruned, so
assembly patterns stay stable across repeated assemblies.  Vectors are plain
1-D ``numpy`` float arrays.  All indices are 0-based internally.
"""

from __future__ import annotations

import scipy.sparse as sp

__all__ = ["as_csr"]


def as_csr(a, overwrite_a: bool = False) -> sp.csr_matrix:
    """Coerce to canonical CSR (sorted indices, summed duplicates).  A CSR
    argument shares its arrays with the result, so one that is not yet
    canonical is copied first and the caller's matrix is left as it was.
    With overwrite_a the caller gives ``a`` up (a temporary it owns), and
    it is canonicalized in place without the copy."""
    m = sp.csr_matrix(a)
    if not m.has_canonical_format:
        if not overwrite_a:
            m = m.copy()
        m.sum_duplicates()
    return m

