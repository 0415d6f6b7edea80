"""Sparse-matrix plumbing shared by every other module.

Matrices are carried as ``scipy.sparse.csr_matrix`` in canonical form:
``indptr`` is the nondecreasing row-offset array, ``indices`` holds strictly
increasing column indices within each row, and duplicate entries are
forbidden.  Explicitly stored zeros are legal and are never pruned, so
assembly patterns stay stable across repeated assemblies.  Vectors are plain
1-D ``numpy`` float arrays.  All indices are 0-based internally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = ["Permutation", "as_csr"]


def as_csr(a) -> sp.csr_matrix:
    """Coerce to canonical CSR (sorted indices, summed duplicates)."""
    m = sp.csr_matrix(a)
    m.sum_duplicates()
    m.sort_indices()
    return m


@dataclass(frozen=True)
class Permutation:
    """A bijection on [0, n).

    ``forward[old] = new`` gives the new position of each old index and
    ``inverse[new] = old`` the old index occupying each new slot.
    """

    forward: np.ndarray
    inverse: np.ndarray

    @staticmethod
    def from_inverse(inverse) -> "Permutation":
        """Build from the new-slot -> old-index array (fancy-index order)."""
        inverse = np.asarray(inverse, dtype=np.intp)
        forward = np.empty_like(inverse)
        forward[inverse] = np.arange(inverse.size)
        return Permutation(forward, inverse)

    @staticmethod
    def from_forward(forward) -> "Permutation":
        forward = np.asarray(forward, dtype=np.intp)
        inverse = np.empty_like(forward)
        inverse[forward] = np.arange(forward.size)
        return Permutation(forward, inverse)

    @property
    def n(self) -> int:
        return self.forward.size

    def compose(self, first: "Permutation") -> "Permutation":
        """Return self applied after ``first`` (self o first)."""
        return Permutation.from_forward(self.forward[first.forward])
