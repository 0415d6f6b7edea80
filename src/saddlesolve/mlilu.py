"""Multilevel Crout incomplete-LU factorization.

Each level equilibrates, reorders, statically defers small diagonals, runs
the Crout elimination of crout_ilu_level (which describes the kernel) and
recurses on its Schur complement; a dense LU with partial pivoting ends
the recursion.  factorize holds one level's working set at a time.

ml_solve calls SuperLU's compiled substitution (gstrs) on each level's
stored unit-triangular factors and LAPACK's dgetrs on the dense tail
directly, with the arguments scipy's spsolve_triangular and lu_solve pass
once their per-call set-up is done: the same bits without that set-up.  A
solve writes nothing in the factor, so concurrent solves are safe; the
dense-tail solve holds a module lock, since concurrent dgetrs calls on one
LU factor (scipy 1.17 with OpenBLAS) can return wrong solutions, off by
O(1) relative to serial ones.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgetrf, dgetrs
# the compiled substitution spsolve_triangular ends in, called without that
# wrapper's per-call set-up; test_mlilu pins its bits to the public wrapper
from scipy.sparse.linalg._dsolve._superlu import gstrs
# the numeric pass of the SMMP product behind scipy's sparse @, called
# without the symbolic pass that @ runs first to size its output, and the
# in-place row sort behind sort_indices, called on a few rows of it
from scipy.sparse._sparsetools import csr_matmat, csr_sort_indices

# factorize calls reorder through this module's namespace, where
# perfbench's tracer wraps it
from .ordering import reorder
from .sparse import as_csr

__all__ = [
    "FactorizationError",
    "FactorParams",
    "LevelFactor",
    "MultilevelFactor",
    "equilibrate",
    "static_defer",
    "crout_ilu_level",
    "factorize",
    "ml_solve",
]

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny  # every pivot at or below it is deferred
_CAP_FLOOR = 5  # retained entries per row/column regardless of the fill cap
_MAX_LEVELS = 30
_MAX_DENSE_TAIL = 4000  # largest dense tail allocated when dense_switch is below it
_TAIL_LOCK = threading.Lock()
_BLOCK = 128  # pivot steps per blocked gather in crout_ilu_level
_INT32_MAX = np.iinfo(np.int32).max


class FactorizationError(ValueError):
    """The matrix cannot be factorized as given (a non-finite entry, a
    structurally empty row or column, or a dense tail too large to
    allocate)."""


@dataclass(frozen=True)
class FactorParams:
    """Controls for one multilevel factorization.

    alpha caps each stored U row and L column at ceil(alpha * nnz) of that
    row or column of the level's matrix (at least 5); droptol drives
    inverse-based dropping; cond_thresh bounds the growth of the incremental
    inverse-norm estimates before a pivot is deferred; diag_thresh is the
    relative static-deferring threshold on scaled diagonals; a pivot whose
    post-equilibration magnitude is at or below pivot_floor or the smallest
    normal float64 (whose reciprocal could overflow) is deferred.
    dense_switch=None resolves to min(max(500, sqrt(n)), 2000).
    After 30 levels, whatever is left goes to the dense tail.
    """

    alpha: float = 2.0
    droptol: float = 0.02
    cond_thresh: float = 5.0
    diag_thresh: float = 1e-2
    dense_switch: int | None = None
    pivot_floor: float = 1e-10

    def __post_init__(self):
        if not (self.alpha >= 1):
            raise ValueError("alpha must be >= 1")
        if not (0 <= self.droptol < 1):
            raise ValueError("droptol must be in [0, 1)")
        if not (self.cond_thresh > 1):
            raise ValueError("cond_thresh must exceed 1")
        if not (0 < self.diag_thresh < 1):
            raise ValueError("diag_thresh must be in (0, 1)")
        if self.dense_switch is not None and self.dense_switch < 1:
            raise ValueError("dense_switch must be >= 1")
        if not (self.pivot_floor >= 0):
            raise ValueError("pivot_floor must be >= 0")


@dataclass
class LevelFactor:
    """One level of the factorization, in the level's final ordering.

    L is (L+I) as CSC and U is (U+I) as CSR, both with sorted indices: the
    unit-triangular forms the level's solves read.  Off the diagonal, L has
    entries only in its first n_b columns and U only in its first n_b rows.
    order[i] is the level's input index in factor position i (the same
    symmetric permutation applies to rows and columns).  dr/dc are the
    equilibration scalings in input order.  nnz leaves out the 2n unit
    diagonals.
    """

    n: int
    n_b: int
    order: np.ndarray
    dr: np.ndarray
    dc: np.ndarray
    L: sp.csc_matrix
    U: sp.csr_matrix
    D: np.ndarray
    n_static_deferred: int = 0
    n_dynamic_deferred: int = 0

    @property
    def nnz(self) -> int:
        return int(self.L.nnz + self.U.nnz - 2 * self.n + self.D.size)


@dataclass
class MultilevelFactor:
    levels: list[LevelFactor]
    tail_lu: tuple | None
    tail_n: int
    perturbed: bool
    total_nnz: int
    n: int


def _scale(a: sp.csr_matrix, dr: np.ndarray, dc: np.ndarray) -> sp.csr_matrix:
    data = a.data * np.repeat(dr, np.diff(a.indptr)) * dc[a.indices]
    return sp.csr_matrix((data, a.indices.copy(), a.indptr.copy()), shape=a.shape)


def equilibrate(a: sp.csr_matrix):
    """Iterative row/column infinity-norm scaling (Ruiz sweeps, capped at
    10).  Returns positive (dr, dc) such that every nonzero row and column
    of diag(dr) A diag(dc) has infinity norm in [1/2, 2]; raises
    FactorizationError on a structurally empty row or column."""
    n, m = a.shape
    if n != m:
        raise ValueError("equilibrate requires a square matrix")
    row_counts = np.diff(a.indptr)
    if np.any(row_counts == 0):
        raise FactorizationError(f"structurally empty row {int(np.argmax(row_counts == 0))}")
    col_counts = np.bincount(a.indices, minlength=n)
    if np.any(col_counts == 0):
        raise FactorizationError(f"structurally empty column {int(np.argmax(col_counts == 0))}")

    # |a_ij| dr_i dc_j, in _scale's order, is |_scale(a, dr, dc)| bit for
    # bit, since dr and dc are positive; every row is nonempty
    magnitude = np.abs(a.data)
    dr = np.ones(n)
    dc = np.ones(n)
    for _ in range(10):
        scaled = magnitude * np.repeat(dr, row_counts) * dc[a.indices]
        rn = np.maximum.reduceat(scaled, a.indptr[:-1])
        cn = np.zeros(n)
        np.maximum.at(cn, a.indices, scaled)
        live_r = rn > 0
        live_c = cn > 0
        if (
            np.all((rn[live_r] >= 0.5) & (rn[live_r] <= 2.0))
            and np.all((cn[live_c] >= 0.5) & (cn[live_c] <= 2.0))
        ):
            break
        dr[live_r] /= np.sqrt(rn[live_r])
        dc[live_c] /= np.sqrt(cn[live_c])
    return dr, dc


def static_defer(diag: np.ndarray, diag_thresh: float):
    """Stable symmetric permutation pushing indices whose scaled diagonal
    magnitude falls below diag_thresh * max_j |A_jj| behind the rest, given
    the scaled diagonal.  Returns the order array and the number of kept
    (leading) indices."""
    d = np.abs(diag)
    thr = diag_thresh * (d.max() if d.size else 0.0)
    keep = d >= thr
    order = np.concatenate([np.flatnonzero(keep), np.flatnonzero(~keep)])
    return order, int(np.count_nonzero(keep))


class _Flat:
    """Sparse vectors stored back to back in rank order: vector t has the
    indices idx[ptr[t]:ptr[t + 1]] and the values val[ptr[t]:ptr[t + 1]].
    The buffers double when full, copying only what they store."""

    def __init__(self, count: int, capacity: int, idx_dtype):
        self.idx = np.empty(capacity, idx_dtype)
        self.val = np.empty(capacity)
        self.ptr = np.zeros(count + 1, dtype=np.intp)

    def write(self, start: int, idx: np.ndarray, val: np.ndarray) -> int:
        """Write ``idx`` and ``val`` from position start on, growing the
        buffers if they are full; returns the end position."""
        end = start + idx.size
        if end > self.val.size:
            # only the first start entries are copied: the new tail stays untouched
            size = max(end, 2 * self.val.size)
            grown_idx = np.empty(size, self.idx.dtype)
            grown_idx[:start] = self.idx[:start]
            grown_val = np.empty(size)
            grown_val[:start] = self.val[:start]
            self.idx, self.val = grown_idx, grown_val
        self.idx[start:end] = idx
        self.val[start:end] = val
        return end

    def append(self, t: int, idx: np.ndarray, val: np.ndarray, sizes=None) -> None:
        """Store vector t, or with ``sizes`` the vectors t, t + 1, ... of
        those sizes, back to back in ``idx`` and ``val``."""
        start = self.ptr[t]
        end = self.write(start, idx, val)
        if sizes is None:
            self.ptr[t + 1] = end
        else:
            self.ptr[t + 1:t + 1 + len(sizes)] = start + np.cumsum(sizes)

    def at_indices(self, t0: int, k0: int, k1: int):
        """The entries of the first t0 vectors at indices k0..k1-1, grouped
        by index and in rank order within each: (pointer over the k1 - k0
        indices, ranks, values)."""
        end = self.ptr[t0]
        idx = self.idx[:end]
        at = np.flatnonzero((idx >= k0) & (idx < k1))
        rows = idx[at] - k0
        at = at[np.argsort(rows, kind="stable")]
        ptr = np.zeros(k1 - k0 + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=k1 - k0), out=ptr[1:])
        ranks = np.searchsorted(self.ptr[:t0 + 1], at, side="right") - 1
        return ptr, ranks, self.val[at]


class _Product(NamedTuple):
    """The CSR arrays of a sparse product."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def _smmp_bound(l_ptr, l_idx, r_ptr, ncols: int) -> int:
    """The sum over the rows of a CSR product of the lesser of ncols and
    the row's multiply-adds: an upper bound on its stored entries."""
    # running sums of the right row sizes over the left entries, read at
    # the left row pointers
    madds = np.zeros(l_idx.size + 1, np.int64)
    np.cumsum(np.diff(r_ptr)[l_idx], dtype=np.int64, out=madds[1:])
    return int(np.minimum(np.diff(madds[l_ptr]), ncols).sum())


def _smmp(l_ptr, l_idx, l_data, r_ptr, r_idx, r_data, ncols: int) -> _Product:
    """The CSR product of left (l_ptr, l_idx, l_data) and right (r_ptr,
    r_idx, r_data, ncols columns), float64, by one numeric pass of scipy's
    compiled SMMP (Gustavson, ACM TOMS 1978): the arrays and bits of
    scipy's ``left @ right``, without its symbolic pass.

    The output is allocated at a bound it cannot exceed: per row, the
    lesser of ncols and the row's multiply-adds (the sizes of the right
    rows its left entries name).  SMMP writes its nnz entries at the front
    and the arrays are then shrunk in place, so the tail past nnz is never
    written and never resident.  All index arrays share one dtype, int32
    unless a size or index does not fit it."""
    # nrows * ncols bounds the output's size
    top = max((l_ptr.size - 1) * ncols, ncols, r_ptr.size, r_idx.size, l_idx.size)
    idx = np.int32 if top <= _INT32_MAX else np.int64
    l_ptr, l_idx, r_ptr, r_idx = (a.astype(idx, copy=False) for a in (l_ptr, l_idx, r_ptr, r_idx))
    bound = _smmp_bound(l_ptr, l_idx, r_ptr, ncols)
    c_ptr = np.empty(l_ptr.size, idx)
    c_idx = np.empty(bound, idx)
    c_data = np.empty(bound)
    csr_matmat(l_ptr.size - 1, ncols, l_ptr, l_idx, l_data, r_ptr, r_idx, r_data,
               c_ptr, c_idx, c_data)
    nnz = int(c_ptr[-1])
    c_idx.resize(nnz, refcheck=False)
    c_data.resize(nnz, refcheck=False)
    return _Product(c_ptr, c_idx, c_data)


def _independent_prefix(k0: int, *products) -> int:
    """The length of the longest prefix of a block of indices k0, k0 + 1,
    ... in which no row of any block product (row i for index k0 + i)
    holds another prefix index: the least max(i, j) over the products'
    entries (i, k0 + j) with j in the block and i != j, or the block's
    size.  It is at least 1."""
    nr = products[0].indptr.size - 1
    size = nr
    for m in products:
        rows = np.repeat(np.arange(nr), np.diff(m.indptr))
        cols = m.indices - k0
        hit = (cols >= 0) & (cols < nr) & (cols != rows)
        if hit.any():
            size = min(size, int(np.maximum(rows[hit], cols[hit]).min()))
    return size


def crout_ilu_level(
    a: sp.csr_matrix,
    params: FactorParams,
    n_candidates: int | None = None,
):
    """One level of Crout elimination with dynamic deferring and dual
    dropping, after Li, Saad & Chow, "Crout versions of ILU for general
    sparse matrices", SISC 24 (2003).

    ``a`` must already be scaled, reordered and statically deferred; only
    the leading ``n_candidates`` indices are pivot candidates (the trailing
    block was statically deferred).  A pivot is accepted only if its
    magnitude exceeds pivot_floor and the smallest normal float64 and both
    inverse-norm estimators are at most cond_thresh; otherwise, a NaN
    included, its index is deferred.  An entry v of an accepted pivot's U
    row (L column), divided by the pivot, is stored only if |v| * est >
    droptol, est being the running maximum of the matching estimator, at
    every droptol: no exact zero is stored in L or U.  Then at most
    max(5, ceil(alpha * nnz)) entries are kept, the largest, nnz being the
    stored entries of that row (column) of ``a``, explicit zeros included.
    The stored zeros of A_NN stay stored in S.

    Step k gathers row k and column k of the active matrix: A's entries
    minus l_kt d_t times the stored U row (u_tk d_t times the stored L
    column) of every earlier pivot t whose L column (U row) reaches k.  The
    steps run in blocks of _BLOCK.  Before a block, one sparse product per
    side, [-(L_{R,<t0} D) | I] @ [U_{<t0} ; A_R] for the block's rows R and
    the t0 pivots accepted so far (and the same from the column side), sums
    A's entry and then those pivots' updates in rank order (each left row
    holds its identity entry first), through one numeric pass of scipy's
    compiled SMMP (_smmp; Gustavson, ACM TOMS 1978).  The right operand is
    a view of the flat buffer, A_R written into its free tail.  The output
    is allocated at the bound min(n, multiply-adds) per row, so no
    symbolic pass sizes it, and shrunk in place to the entries written.
    In the block, a gather adds the updates of the block's own pivots (the
    nonzero multipliers the block's pivots stored at its index) to its row
    of that product, in rank order, in a dense accumulator; its sorted
    unique indices are read off a boolean mask of the touched positions.  A
    gather with no in-block update only sorts its row of the product in
    place (scipy's compiled csr_sort_indices).  The sum of every entry thus
    runs in the order of one sequential gather.  SMMP leaves out sums that
    are exactly zero and the accumulator keeps them, but the value drop
    stores none, so the block size changes no bit, at any droptol.

    Each block first takes its independent prefix, the longest run
    k0..k0+L-1 in which no row of either product holds another index of
    the run (_independent_prefix).  No pivot of the run then reaches
    another, so each of its gathers is its row of the product unchanged,
    and the L pivots are eliminated in one step, in index order: one
    in-place row sort and status filter per side, one estimator dot per row
    (the same call as in gather, so the same bits), a vectorized deferral
    test, the running maxima by np.maximum.accumulate, a segmented drop
    and cap, one append per side, and their multipliers at the rest of
    the block recorded as in store.  The rest of the block runs one pivot
    at a time.

    An accepted pivot stores its dropped U row and L column once, in
    ``a``'s indices, at the end of flat index/value buffers.  The block's
    multipliers are read back from them: those of earlier pivots by one
    vectorized transpose per block (the buffers' entries at the block's
    indices, stably sorted by index), those of the block's own pivots from
    a dense _BLOCK x _BLOCK array; the inverse-norm estimator dots them in
    rank order.  After the loop, (U+I) as CSR and (L+I) as CSC are built
    from the flat buffers: each stored vector is a row of U (a column of
    L), its indices mapped to factor positions and its unit diagonal put
    in front, and rows (columns) n_b..n-1 hold only their diagonal.  A
    deferred index keeps its entries in them; they are the L_NB and U_BN
    blocks of the Schur complement
    S = A_NN - L_NB diag(D) U_BN over the non-eliminated indices N, two
    SMMP passes, L_NB diag(-D) and then that times U_BN, with A_NN's
    entries put after the product's own in each row and summed with them,
    so every stored entry of A_NN stays stored.  The CSC copy and the block
    products are released when the elimination ends, each flat buffer once
    its factor is built.
    Returns a LevelFactor (with unit scalings and the dynamic-reordering
    order) and S.
    """
    acsr = as_csr(a)
    n = acsr.shape[0]
    if acsr.shape[1] != n:
        raise ValueError("crout_ilu_level requires a square matrix")
    ncand = n if n_candidates is None else int(n_candidates)
    if not (0 <= ncand <= n):
        raise ValueError(f"n_candidates must be in [0, {n}], got {ncand}")
    acsc = acsr.tocsc()

    counts = np.diff([acsr.indptr, acsc.indptr])
    u_caps, l_caps = np.maximum(_CAP_FLOOR, np.ceil(params.alpha * counts).astype(np.intp))
    droptol = params.droptol
    pivot_floor = max(params.pivot_floor, _TINY)
    cond_thresh = params.cond_thresh
    block = _BLOCK

    # status: 0 pending candidate, 1 eliminated, 2 deferred or trailing
    status = np.zeros(n, dtype=np.int8)
    status[ncand:] = 2
    elim: list[int] = []
    # by elimination rank t: the pivot, the incremental inverse-norm
    # estimator states for L and U, and the stored U rows and L columns
    diag = np.zeros(ncand)
    v_low = np.zeros(ncand)
    v_up = np.zeros(ncand)
    est_low = 1.0
    est_up = 1.0
    upper = _Flat(ncand, acsr.nnz, acsr.indices.dtype)
    lower = _Flat(ncand, acsr.nnz, acsr.indices.dtype)
    # multipliers of the block's own pivots, by (row in the block, rank in
    # the block): l_kt from the L columns update row k, u_tk from the U rows
    # update column k
    row_mult = np.zeros((block, block))
    col_mult = np.zeros((block, block))
    acc = np.zeros(n)  # dense accumulator, all zero between gathers
    touched = np.zeros(n, dtype=bool)  # all False between gathers

    def block_sums(m, k0, k1, t0, stored, mults):
        """Rows (CSR ``m``, stored U rows) or columns (CSC ``m``, stored L
        columns) k0..k1-1 of A minus the updates of the first t0 pivots, as
        one SMMP product, and the multipliers (``mults``: stored L columns or
        U rows) of those pivots at each index of the block, in rank order."""
        nr = k1 - k0
        ptr, ranks, vals = mults.at_indices(t0, k0, k1)
        lo, hi = m.indptr[k0], m.indptr[k1]
        end = stored.ptr[t0]
        # [-(mults D) | I] @ [the stored vectors ; A's block rows], each left
        # row with its identity entry first.  A's rows go into the buffers'
        # free tail, where the block's appends overwrite them, so that the
        # right operand is a view of the buffers.
        tail = stored.write(end, m.indices[lo:hi], m.data[lo:hi])
        sums = _smmp(ptr + np.arange(nr + 1),
                     np.insert(ranks, ptr[:-1], t0 + np.arange(nr)),
                     np.insert(-vals * diag[ranks], ptr[:-1], 1.0),
                     np.concatenate([stored.ptr[:t0 + 1], m.indptr[k0 + 1:k1 + 1] - lo + end]),
                     stored.idx[:tail], stored.val[:tail], n)
        return sums, (ptr, ranks, vals)

    def gather(sums, r, earlier, own_mult, t0, nblk, stored, v):
        """Row or column k0 + r of the active matrix, sorted and restricted
        to the non-eliminated indices, and the estimator
        1 + |sum_t mult_t v_t|."""
        ptr, ranks, vals = earlier
        mults, ts = vals[ptr[r]:ptr[r + 1]], ranks[ptr[r]:ptr[r + 1]]
        lo, hi = sums.indptr[r], sums.indptr[r + 1]
        s = own_mult[r, :nblk].nonzero()[0]
        if s.size:
            own = s + t0
            own_vals = own_mult[r, s]
            p = stored.ptr
            cuts = [slice(p[t], p[t + 1]) for t in own.tolist()]
            # intp indexes fastest; the flat buffers keep A's narrower index dtype
            gi = np.concatenate([sums.indices[lo:hi], *[stored.idx[c] for c in cuts]],
                                dtype=np.intp)
            gv = np.concatenate([sums.data[lo:hi], *[stored.val[c] for c in cuts]])
            gv[hi - lo:] *= (-own_vals * diag[own]).repeat([c.stop - c.start for c in cuts])
            np.add.at(acc, gi, gv)
            touched[gi] = True
            uq = touched.nonzero()[0]
            touched[uq] = False
            total = acc[uq]
            acc[uq] = 0.0
            mults = np.concatenate([mults, own_vals])
            ts = np.concatenate([ts, own])
        else:
            # no in-block update: SMMP stores each index of its row once, so
            # the row is the sum as it is, sorted in place
            csr_sort_indices(1, sums.indptr[r:r + 2], sums.indices, sums.data)
            uq, total = sums.indices[lo:hi], sums.data[lo:hi]
        live = status[uq] != 1
        return uq[live], total[live], 1.0 + abs(mults @ v[ts])

    def store(t, k, k0, k1, t0, idx, val, est, cap, stored, own_mult):
        """Drop, then store pivot k's U row or L column (``val`` already
        divided by the pivot) and note its entries at the block's pending
        indices as multipliers of rank t."""
        keep = (idx != k) & (np.abs(val) * est > droptol)
        idx, val = idx[keep], val[keep]
        if idx.size > cap:
            sel = np.lexsort((idx, -np.abs(val)))[:cap]
            sel.sort()
            idx, val = idx[sel], val[sel]
        stored.append(t, idx, val)
        lo, hi = idx.searchsorted((k + 1, k1))
        own_mult[idx[lo:hi] - k0, t - t0] = val[lo:hi]

    def prefix_rows(sums, earlier, v, npre):
        """Rows 0..npre-1 of a block product, which no pivot of the prefix
        updates: their entries, sorted in place within each row and
        restricted to the non-eliminated indices, as (row, index, value)
        arrays, and each row's estimator 1 + |sum_t mult_t v_t|, one dot per
        row as in gather."""
        end = sums.indptr[npre]
        csr_sort_indices(npre, sums.indptr, sums.indices, sums.data)
        seg = np.repeat(np.arange(npre), np.diff(sums.indptr[:npre + 1]))
        idx, val = sums.indices[:end], sums.data[:end]
        live = status[idx] != 1
        ptr, ranks, vals = earlier
        est = np.array([1.0 + abs(vals[ptr[r]:ptr[r + 1]] @ v[ranks[ptr[r]:ptr[r + 1]]])
                        for r in range(npre)])
        return seg[live], idx[live], val[live], est

    def store_prefix(k0, k1, t0, t, rank, seg, idx, val, pivot, est, caps, stored,
                     own_mult):
        """store for the prefix's accepted pivots, ranks t, t + 1, ..., at
        once: ``rank`` is each prefix row's place among them (-1 if
        deferred); ``pivot``, ``est`` and ``caps`` are by that place, ``est``
        the running maximum each pivot drops with."""
        keep = (rank[seg] >= 0) & (idx != k0 + seg)
        r, idx = rank[seg[keep]], idx[keep]
        val = val[keep] / pivot[r]
        keep = np.abs(val) * est[r] > droptol
        r, idx, val = r[keep], idx[keep], val[keep]
        sizes = np.bincount(r, minlength=pivot.size)
        if np.any(sizes > caps):
            # in each vector, the cap largest magnitudes, ties to the lower index
            at = np.lexsort((idx, -np.abs(val), r))
            first = np.cumsum(sizes) - sizes
            keep = np.empty(r.size, dtype=bool)
            keep[at] = np.arange(r.size) - first[r[at]] < caps[r[at]]
            r, idx, val = r[keep], idx[keep], val[keep]
            sizes = np.minimum(sizes, caps)
        stored.append(t, idx, val, sizes)
        own = (idx >= k0) & (idx < k1)
        own_mult[idx[own] - k0, r[own] + (t - t0)] = val[own]

    n_dynamic = 0
    for k0 in range(0, ncand, block):
        k1 = min(k0 + block, ncand)
        t0 = len(elim)
        row_sums, row_earlier = block_sums(acsr, k0, k1, t0, upper, lower)
        col_sums, col_earlier = block_sums(acsc, k0, k1, t0, lower, upper)
        row_mult.fill(0.0)
        col_mult.fill(0.0)

        # the independent prefix: every gather is its row of the products
        npre = _independent_prefix(k0, row_sums, col_sums)
        rseg, ridx, rval, vlk = prefix_rows(row_sums, row_earlier, v_low, npre)
        cseg, cidx, cval, vuk = prefix_rows(col_sums, col_earlier, v_up, npre)
        on_diag = ridx == k0 + rseg
        pivot = np.zeros(npre)
        pivot[rseg[on_diag]] = rval[on_diag]
        accept = (np.abs(pivot) > pivot_floor) & (vlk <= cond_thresh) & (vuk <= cond_thresh)
        status[k0:k0 + npre] = np.where(accept, 1, 2)
        kept = np.flatnonzero(accept)
        n_dynamic += npre - kept.size
        t, t1 = len(elim), len(elim) + kept.size
        elim.extend((k0 + kept).tolist())
        diag[t:t1], v_low[t:t1], v_up[t:t1] = pivot[kept], vlk[kept], vuk[kept]
        run_low = np.maximum.accumulate(np.r_[est_low, vlk[kept]])
        run_up = np.maximum.accumulate(np.r_[est_up, vuk[kept]])
        est_low, est_up = run_low[-1], run_up[-1]
        rank = np.full(npre, -1)
        rank[kept] = np.arange(kept.size)
        store_prefix(k0, k1, t0, t, rank, rseg, ridx, rval, diag[t:t1], run_up[1:],
                     u_caps[k0 + kept], upper, col_mult)
        store_prefix(k0, k1, t0, t, rank, cseg, cidx, cval, diag[t:t1], run_low[1:],
                     l_caps[k0 + kept], lower, row_mult)

        for k in range(k0 + npre, k1):
            r, nblk = k - k0, len(elim) - t0
            ridx, rval, vlk = gather(row_sums, r, row_earlier, row_mult, t0, nblk, upper, v_low)
            cidx, cval, vuk = gather(col_sums, r, col_earlier, col_mult, t0, nblk, lower, v_up)
            at = ridx.searchsorted(k)
            pivot = rval[at] if at < ridx.size and ridx[at] == k else 0.0
            if not (abs(pivot) > pivot_floor and vlk <= cond_thresh and vuk <= cond_thresh):
                status[k] = 2
                n_dynamic += 1
                continue
            t = len(elim)
            status[k] = 1
            elim.append(k)
            diag[t], v_low[t], v_up[t] = pivot, vlk, vuk
            est_low = max(est_low, vlk)
            est_up = max(est_up, vuk)
            store(t, k, k0, k1, t0, ridx, rval / pivot, est_up, u_caps[k], upper, col_mult)
            store(t, k, k0, k1, t0, cidx, cval / pivot, est_low, l_caps[k], lower, row_mult)

    # -- the level in elimination-then-deferred order, and its Schur complement --
    n_b = len(elim)
    nonelim = np.flatnonzero(status != 1)
    order = np.concatenate([np.asarray(elim, dtype=np.intp), nonelim])
    pos = np.empty(n, dtype=acsr.indices.dtype)
    pos[order] = np.arange(n)

    def unit_form(f, fmt):
        # np.insert copies, so the factor does not keep the whole buffer alive
        end = f.ptr[n_b]
        starts = np.pad(f.ptr[:n_b + 1], (0, n - n_b), mode="edge")
        m = fmt((np.insert(f.val[:end], starts[:-1], 1.0),
                 np.insert(pos[f.idx[:end]], starts[:-1], np.arange(n)),
                 starts + np.arange(n + 1)), shape=(n, n))
        m.sort_indices()
        return m

    # the elimination's working set is dead; each flat buffer goes once its
    # factor is built
    acsc = row_sums = col_sums = row_earlier = col_earlier = None
    row_mult = col_mult = acc = touched = None
    u_mat = unit_form(upper, sp.csr_matrix)
    upper = None
    l_mat = unit_form(lower, sp.csc_matrix)
    lower = None
    d = diag[:n_b].copy()
    # L's block as CSR: the product on the CSC block sums in another order.
    # Two passes, since scaling L's data in place changes bits: the first
    # pass's unsorted output order sets the summation order of the second.
    # -d negates every term exactly, and so every sum.
    l_nb = l_mat[n_b:, :n_b].tocsr()
    ident = np.arange(n_b + 1)
    l_nb = _smmp(l_nb.indptr, l_nb.indices, l_nb.data, ident, ident[:-1], -d, n_b)
    u_bn = u_mat[:n_b, n_b:]
    schur = _smmp(*l_nb, u_bn.indptr, u_bn.indices, u_bn.data, n - n_b)
    l_nb = u_bn = None
    # A_NN's entries go after the product's in each row and are summed
    # with them: at most two terms per index, so the order of the sum
    # changes no bit, and the stored zeros of A_NN stay stored
    base = acsr[nonelim, :][:, nonelim]
    at = np.repeat(schur.indptr[1:], np.diff(base.indptr))
    schur = sp.csr_matrix((np.insert(schur.data, at, base.data),
                           np.insert(schur.indices, at, base.indices),
                           schur.indptr + base.indptr), shape=base.shape)
    base = at = None
    schur.sum_duplicates()
    level = LevelFactor(
        n=n, n_b=n_b, order=order, dr=np.ones(n), dc=np.ones(n), L=l_mat, U=u_mat, D=d,
        n_static_deferred=n - ncand, n_dynamic_deferred=n_dynamic,
    )
    return level, schur


def factorize(a: sp.csr_matrix, params: FactorParams | None = None) -> MultilevelFactor:
    """Full multilevel factorization: per level equilibrate, reorder,
    statically defer, Crout-eliminate, then recurse on the Schur complement
    until it is small enough for a dense LU with partial pivoting.  A
    singular dense tail is perturbed (pivots pushed to a signed floor) and
    flagged rather than failed.  A non-finite stored entry, and a tail
    larger than both dense_switch and 4000, are a FactorizationError,
    raised before equilibration and before the dense allocation.

    Besides the input and the levels built, a level holds its scaled and
    reordered matrix, that matrix's CSC copy, the two flat buffers and one
    block's products; that is its peak.  Each goes once it is used."""
    params = params or FactorParams()
    a = as_csr(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("factorize requires a square matrix")
    finite = np.isfinite(a.data)
    if not finite.all():
        k = int(np.argmin(finite))
        row = int(np.searchsorted(a.indptr, k, side="right")) - 1
        raise FactorizationError(f"non-finite entry {a.data[k]} at ({row}, {a.indices[k]})")
    n0 = a.shape[0]
    dense_switch = params.dense_switch
    if dense_switch is None:
        dense_switch = min(max(500, math.isqrt(n0)), 2000)
    pivot_floor = max(params.pivot_floor, _TINY)

    levels: list[LevelFactor] = []
    current = a
    for _ in range(_MAX_LEVELS):
        if current.shape[0] <= dense_switch:
            break
        dr, dc = equilibrate(current)
        scaled = _scale(current, dr, dc)
        diag = scaled.diagonal()
        # The tail needs the level's input only if the level eliminates
        # nothing.  Crout's first candidate clears diag_thresh times the
        # largest diagonal (static_defer), and Crout accepts it if that
        # exceeds the pivot floor, since its estimators start at 1.
        if params.diag_thresh * np.abs(diag).max() > pivot_floor:
            current = None
        fill = reorder(scaled)
        defer, ncand = static_defer(diag[fill], params.diag_thresh)
        static = fill[defer]
        level_a = scaled[static, :][:, static]
        del scaled
        level_a.sort_indices()
        level, schur = crout_ilu_level(level_a, params, ncand)
        del level_a
        if level.n_b == 0:
            # no pivot was acceptable; stop and hand everything to the tail
            break
        levels.append(
            replace(level, order=static[level.order], dr=dr, dc=dc)
        )
        current, schur = schur, None

    tail_n = current.shape[0]
    tail_limit = max(dense_switch, _MAX_DENSE_TAIL)
    if tail_n > tail_limit:
        raise FactorizationError(f"dense tail of {tail_n} unknowns after {len(levels)} "
                                 f"levels exceeds the limit of {tail_limit}")
    tail = current.toarray()
    perturbed = False
    if tail_n:
        scale = np.abs(tail).max()
        # info > 0 flags an exactly singular tail (e.g. a pure-Neumann null
        # space), which the pivot perturbation below handles
        lu, piv, info = dgetrf(tail)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of getrf")
        floor = 1e3 * _EPS * (scale if scale > 0 else 1.0)
        d = np.abs(np.diag(lu))
        small = np.flatnonzero(d < floor)
        if small.size:
            perturbed = True
            vals = lu[small, small]
            lu[small, small] = np.where(vals < 0, -floor, floor)
        tail_lu = (lu, piv)
    else:
        tail_lu = None

    total = sum(lev.nnz for lev in levels) + tail_n * tail_n
    return MultilevelFactor(
        levels=levels,
        tail_lu=tail_lu,
        tail_n=tail_n,
        perturbed=perturbed,
        total_nnz=int(total),
        n=n0,
    )


_NO_DATA = np.zeros(0)
_NO_INDICES = np.zeros(0, np.intc)


def _substitute(trans: str, t, b: np.ndarray) -> np.ndarray:
    """Unit-triangular solve on a stored form through SuperLU's gstrs: the
    CSC (L+I) with ``trans`` "N", or the CSR (U+I), read as the CSC of its
    transpose, with "T".  The second factor gstrs requires is empty, as in
    spsolve_triangular.  gstrs writes only a copy of ``b``."""
    n = t.shape[0]
    x, info = gstrs(trans, n, t.nnz, t.data, t.indices.astype(np.intc, copy=False),
                    t.indptr.astype(np.intc, copy=False), n, 0, _NO_DATA, _NO_INDICES,
                    np.zeros(n + 1, np.intc), b)
    if info:
        raise np.linalg.LinAlgError("A is singular.")
    return x


def _solve_from(m: MultilevelFactor, li: int, v: np.ndarray) -> np.ndarray:
    if li == len(m.levels):
        if m.tail_n == 0:
            return v.copy()
        with _TAIL_LOCK:
            x, info = dgetrs(*m.tail_lu, v)
        if info:
            raise np.linalg.LinAlgError(f"illegal value in argument {-info} of getrs")
        return x
    lev = m.levels[li]
    y = (lev.dr * v)[lev.order]
    y = _substitute("N", lev.L, y)
    nb = lev.n_b
    if nb:
        y[:nb] /= lev.D
    y[nb:] = _solve_from(m, li + 1, y[nb:])
    y = _substitute("T", lev.U, y)
    out = np.empty_like(y)
    out[lev.order] = y
    return out * lev.dc


def ml_solve(m: MultilevelFactor, v: np.ndarray) -> np.ndarray:
    """Apply the factored preconditioner: one multilevel forward/backward
    substitution pass on each level's stored unit-triangular factors.
    Leaves the factor unchanged; concurrent calls on one factor are safe."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (m.n,):
        raise ValueError(f"vector length {v.shape} does not match factor size {m.n}")
    return _solve_from(m, 0, v)
