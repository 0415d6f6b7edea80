"""Multilevel Crout incomplete-LU factorization.

Each level equilibrates, reorders, statically defers small diagonals, runs
the Crout elimination of crout_ilu_level (which describes the kernel) and
recurses on its Schur complement.  A dense factorization ends the
recursion, once the complement is small (dense_switch) or, by default,
dense enough that a dense factorization beats a Crout level on it
(_dense_beats_crout).  That tail is a rank-revealing LU (_dense_tail):
LAPACK's LU with partial pivoting, and if its condition estimate says it
is ill-conditioned, the near-null directions that inverse iteration
through that LU finds under a relative threshold are cut from it (T. F.
Chan, Math. Comp. 42, 1984).  That sees the near-null direction that ILU
dropping leaves in a saddle point system's Schur complement (the HIFIR
design of Chen & Jiao, arXiv:2106.09877).  factorize holds one level's
working set at a time, in every case.

ml_solve calls SuperLU's compiled substitution (gstrs) on each level's
stored unit-triangular factors directly, with the arguments scipy's
spsolve_triangular passes once its per-call set-up is done: the same bits
without that set-up.  The dense tail is LAPACK's dgetrs on the LU, between
projections off the cut directions.  A solve writes nothing in the factor,
so concurrent solves are safe; the dense-tail solve holds a module lock,
since concurrent dgetrs calls on one LU factor (scipy 1.17 with OpenBLAS)
can return wrong solutions, off by O(1) relative to serial ones.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs, dlange
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

_TINY = np.finfo(np.float64).tiny  # every pivot at or below it is deferred
_CAP_FLOOR = 5  # retained entries per row/column regardless of the fill cap
_MAX_LEVELS = 30
_MAX_DENSE_TAIL = 4000  # largest dense tail allocated when dense_switch is below it
# most entries a level's Schur product may be bounded at, per stored entry
# of the level: the cavity operators' first levels measure 19-35 (L6-L8,
# alpha 5 to 50), an arrow matrix's n / 3, which passes 256 from n 770
_MAX_SCHUR_GROWTH = 256
# with the default dense_switch, a level whose n^3 is at most this many
# times its stored entries goes to the dense tail (_dense_beats_crout)
_DENSE_CUBE_PER_ENTRY = 2500
# a tail is a plain LU when dgecon's 1-norm estimate of its reciprocal
# condition is at least _TAIL_RCOND; otherwise the singular directions of
# its equilibrated form under _TAIL_RANK_TOL times its largest column norm
# are cut if a level's dropping made it, else those under n eps times it
# (_dense_tail)
_TAIL_RCOND = 3e-6
_TAIL_RANK_TOL = 1e-3
# sweeps of inverse iteration (_near_null): on the L5 cavity's two cut
# tails one sweep left the direction found 6e-6 and 6e-7 off in angle and
# the solve 7e-7 and 1e-8 from the exactly truncated pseudo-inverse; two
# reach rounding, 6e-15
_TAIL_SWEEPS = 2
# directions in the first block (_near_null): those tails have one under
# the cut, and a block of two finds it and the next, above the cut, in one
# round; they were built 1.5 ms faster than with blocks of one or four
_TAIL_BLOCK = 2
# stored entries per run of rows (_row_runs): a pass over the dense tail's
# Schur complement holds temporaries near 0.5 MB next to its LU (in one
# run, T's column norms alone put the L5 cavity run's peak RSS 1 MiB
# higher), and _ruiz on the tails of n 530 and 537 took less time than in
# one run (3.2 and 2.1 ms against 4.6 and 2.8)
_RUN_ENTRIES = 16384
_EPS = np.finfo(np.float64).eps
_TAIL_LOCK = threading.Lock()
# pivot steps per block of crout_ilu_level, and the stored entries per row
# from which a level takes the dense one (_block_size)
_BLOCK = 128
_DENSE_BLOCK = 64
_DENSE_ROW = 64
_INT32_MAX = np.iinfo(np.int32).max


class FactorizationError(ValueError):
    """The matrix cannot be factorized as given (a non-finite entry, a
    structurally empty row or column, or a Schur complement or dense tail
    too large to allocate)."""


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
    dense_switch=None resolves to min(max(500, sqrt(n)), 2000), and then a
    level whose n^3 is at most 2500 times its stored entries goes to the
    dense tail too, however large (see factorize).  An explicit
    dense_switch, even that same value, turns the density rule off: the
    tail is then exactly what is left at n <= dense_switch, which the tests
    and forced-switch runs rely on to place it.  After 30 levels, whatever
    is left goes to the dense tail.
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


class _DenseTail(NamedTuple):
    """dgetrf's LU of the dense tail S and the near-null directions cut
    from it (_dense_tail): u and v, n x k, hold orthonormal bases of the
    left and right singular subspaces of T = diag(dr) S diag(dc) under the
    cut; dr and dc are None for a plain LU.  lu is None when S is zero,
    whose rank is 0."""

    lu: np.ndarray | None
    piv: np.ndarray | None
    u: np.ndarray
    v: np.ndarray
    dr: np.ndarray | None
    dc: np.ndarray | None

    @property
    def rank(self) -> int:
        return 0 if self.lu is None else self.u.shape[0] - self.u.shape[1]

    def solve(self, b: np.ndarray):
        """x = diag(dc) (I - v v^T) T^-1 (I - u u^T) diag(dr) b, T^-1 through
        the LU: a plain LU solve when nothing is cut."""
        if self.lu is None:
            return np.zeros(b.size), 0
        if self.u.shape[1]:
            b = b - (self.u @ (self.u.T @ (self.dr * b))) / self.dr
        x, info = dgetrs(self.lu, self.piv, b)
        if self.v.shape[1]:
            x -= self.dc * (self.v @ (self.v.T @ (x / self.dc)))
        return x, info


@dataclass
class MultilevelFactor:
    """The levels, then the dense tail of tail_n unknowns, None if tail_n
    is 0, perturbed if its rank was cut."""

    levels: list[LevelFactor]
    tail: _DenseTail | None
    tail_n: int
    perturbed: bool
    total_nnz: int
    n: int

    @property
    def tail_rank(self) -> int:
        """The dense tail's rank: tail_n unless directions were cut."""
        return self.tail_n if self.tail is None else self.tail.rank


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
    return _ruiz(a)


def _row_runs(a: sp.csr_matrix) -> list:
    """``a``'s rows in runs of about _RUN_ENTRIES stored entries, so that a
    pass over them holds temporaries of that size only: per run, its rows
    r0..r1-1, the slice of its entries, its row sizes, which rows are
    nonempty and their starts within the run."""
    ptr = a.indptr
    # the rows holding every _RUN_ENTRIES-th entry start the runs
    bounds = np.unique(np.r_[0, np.searchsorted(ptr, np.arange(0, ptr[-1], _RUN_ENTRIES),
                                                side="right") - 1, a.shape[0]])
    runs = []
    for r0, r1 in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        counts = np.diff(ptr[r0:r1 + 1])
        nonempty = counts > 0
        runs.append((r0, r1, slice(ptr[r0], ptr[r1]), counts, nonempty,
                     ptr[r0:r1][nonempty] - ptr[r0]))
    return runs


def _ruiz(a: sp.csr_matrix):
    """equilibrate's sweeps without its checks, over runs of rows
    (_row_runs): a row or column with no nonzero value, stored or not,
    keeps the scale 1."""
    n = a.shape[0]
    runs = _row_runs(a)
    dr = np.ones(n)
    dc = np.ones(n)
    for _ in range(10):
        rn = np.zeros(n)
        cn = np.zeros(n)
        for r0, r1, at, counts, nonempty, starts in runs:
            if not starts.size:
                continue
            # |a_ij| dr_i dc_j, in _scale's order, is |_scale(a, dr, dc)| bit
            # for bit, since dr and dc are positive; reduceat over the
            # nonempty rows' starts: each segment is one row
            scaled = np.abs(a.data[at]) * np.repeat(dr[r0:r1], counts) * dc[a.indices[at]]
            rn[r0:r1][nonempty] = np.maximum.reduceat(scaled, starts)
            np.maximum.at(cn, a.indices[at], scaled)
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
    """Sparse vectors stored back to back in index order: vector k has the
    indices idx[ptr[k]:ptr[k + 1]] and the values val[ptr[k]:ptr[k + 1]].
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

    def append(self, k: int, idx: np.ndarray, val: np.ndarray, sizes=None) -> None:
        """Store vector k, or with ``sizes`` the vectors k, k + 1, ... of
        those sizes, back to back in ``idx`` and ``val``."""
        start = self.ptr[k]
        end = self.write(start, idx, val)
        if sizes is None:
            self.ptr[k + 1] = end
        else:
            self.ptr[k + 1:k + 1 + len(sizes)] = start + np.cumsum(sizes)

    def at_indices(self, k0: int, k1: int):
        """The entries of the first k0 vectors at indices k0..k1-1, grouped
        by index and in vector order within each: (pointer over the k1 - k0
        indices, the vectors holding them, values)."""
        end = self.ptr[k0]
        idx = self.idx[:end]
        at = np.flatnonzero((idx >= k0) & (idx < k1))
        rows = idx[at] - k0
        at = at[np.argsort(rows, kind="stable")]
        ptr = np.zeros(k1 - k0 + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=k1 - k0), out=ptr[1:])
        # an empty vector starts where the next one does; side="right" skips it
        cands = np.searchsorted(self.ptr[:k0 + 1], at, side="right") - 1
        return ptr, cands, self.val[at]


class _Product(NamedTuple):
    """The CSR arrays of a sparse product."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def _smmp_bound(l_ptr, l_idx, r_ptr, ncols: int) -> int:
    """The sum over the rows of a CSR product of the lesser of ncols and
    the row's multiply-adds: a bound its stored entries cannot exceed."""
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


def _block_size(a: sp.csr_matrix) -> int:
    """Pivot steps per block of crout_ilu_level on level ``a``: _BLOCK, or
    _DENSE_BLOCK if ``a`` stores at least _DENSE_ROW entries per row.  On
    a dense level a gather at the end of a large block adds the updates of
    many earlier pivots of its block one at a time; a smaller block moves
    that work into the block's compiled SMMP product and holds smaller
    block products.  On the cavity runs' levels the large block is the
    faster on the first levels (17-18 entries per row), and the small one
    the faster or tied on the Schur levels (129-254), with a smaller peak
    memory on every one of them; any _DENSE_ROW from 19 to 129 splits those
    levels alike."""
    return _BLOCK if a.nnz < _DENSE_ROW * a.shape[0] else _DENSE_BLOCK


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
    minus l_kj d_j times the stored U row (u_jk d_j times the stored L
    column) of every earlier pivot j whose L column (U row) reaches k.  The
    estimators 1 + |sum_j mult_j v_j| read only the multipliers of those
    pivots, so step k reads both first and defers k without a gather if
    either exceeds cond_thresh; otherwise it gathers row k, and column k
    only if the pivot on row k passes the floor.  Each sum runs one term at
    a time in pivot order, as a sequential loop over the pivots would add
    them: per block, one bincount over the earlier pivots' multipliers at
    the block's indices, then each pivot of the block adds its terms to the
    rows it reaches as it is stored.  The steps run in blocks
    k0..k1-1 of _block_size(a) pivots: _BLOCK, or _DENSE_BLOCK on a level
    with at least _DENSE_ROW stored entries per row, where a gather late in
    a large block would add the updates of many of the block's pivots one
    at a time.  Before a block, one sparse product per side,
    [-(L_{R,<k0} D) | I] @ [U_{<k0} ; A_R] for the block's rows R (and the
    same from the column side), sums A's entry and then the earlier pivots'
    updates in index order (each left row holds its identity entry first),
    through one numeric pass of scipy's compiled SMMP (_smmp; Gustavson,
    ACM TOMS 1978), whose right operand is a view of the flat buffer, A_R
    written into its free tail.  In the block, a gather adds the updates
    of the block's own pivots (the nonzero multipliers the block's pivots
    stored at its index) to its row of that product, in index order, in a
    dense accumulator; its sorted unique indices are read off a boolean
    mask of the touched positions.  A gather with no in-block update only
    sorts its row of the product in place (scipy's compiled
    csr_sort_indices).  The sum of every entry thus runs in the order of
    one sequential gather.  SMMP leaves out sums that are exactly zero and
    the accumulator keeps them, but the value drop stores none, so the
    block size changes no bit, at any droptol.

    Each block first takes its independent prefix, the longest run
    k0..k0+L-1 in which no row of either product holds another index of
    the run (_independent_prefix).  No pivot of the run then reaches
    another, so each of its gathers is its row of the product unchanged,
    and the L pivots are eliminated in one step, in index order: one
    in-place row sort and eliminated-mask filter per side, the estimators
    read off the block's sums, complete since no pivot of the run reaches
    another, a vectorized deferral test, the running maxima by np.maximum.accumulate, a
    segmented drop and cap, one append per side, and their multipliers at
    the rest of the block recorded as in store.  The rest of the block
    runs one pivot at a time.

    Every per-pivot array is keyed by k, and the state of each factor by
    its side s: 0 is U, gathered from A's CSR rows, 1 is L, from its CSC
    columns.  Side s holds its flat buffer, caps, estimator states and
    running maximum, the multipliers its stores note in the block and the
    estimator sums of the block's rows and, per block, its product and its
    multipliers of the earlier pivots.  Its
    estimator and its store read side s only; the sides cross in two
    places, where side s's product (block_sums) and gather add the updates
    of its stored vectors weighted by the multipliers of side 1 - s.
    Candidate k stores its dropped U row and L column, empty if it is
    deferred, once, in ``a``'s indices, as vector k of flat index/value
    buffers.  The block's multipliers are read back from them: those of
    earlier pivots by one vectorized transpose per block (the buffers'
    entries at the block's indices, stably sorted by index), those of the
    block's own pivots from a dense array, one row and column per pivot of
    the block.  After the loop, (U+I) as CSR and (L+I) as CSC are built
    from the flat buffers: the i-th accepted pivot's vector is row (column)
    i, its indices mapped to factor positions and its unit diagonal put in
    front, and rows (columns) n_b..n-1 hold only their diagonal.  A
    deferred index keeps its entries in them; they are the L_NB and U_BN
    blocks of the Schur complement S = A_NN - L_NB diag(D) U_BN over the
    non-eliminated indices N, two SMMP passes, L_NB diag(-D) and then that
    times U_BN, with A_NN's entries put after the product's own in each row
    and summed with them, so every stored entry of A_NN stays stored.  The
    CSC copy and the block products are released when the elimination ends,
    each flat buffer once its factor is built.  Before the second pass
    allocates S, a bound on its entries (_smmp_bound) above
    _MAX_SCHUR_GROWTH times the stored entries of ``a`` is a
    FactorizationError.
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
    # by side: 0 is U, gathered from A's rows, 1 is L, from its columns
    mats = (acsr, acsr.tocsc())
    counts = np.diff([m.indptr for m in mats])
    # a cap of n never binds, and a larger alpha could overflow the cast
    caps = np.maximum(_CAP_FLOOR, np.ceil(min(params.alpha, n) * counts).astype(np.intp))
    droptol = params.droptol
    pivot_floor = max(params.pivot_floor, _TINY)
    cond_thresh = params.cond_thresh
    block = _block_size(acsr)

    # by index: accepted as a pivot (a deferred or trailing index is not)
    eliminated = np.zeros(n, dtype=bool)
    # by candidate k: the pivot, and by side and k the incremental
    # inverse-norm estimator state and the stored vector (empty if k is
    # deferred); by side, the estimators' running maxima
    diag = np.zeros(ncand)
    v = list(np.zeros((2, ncand)))
    est = [1.0, 1.0]
    flat = [_Flat(ncand, acsr.nnz, acsr.indices.dtype) for _ in (0, 1)]
    # by side, the multipliers of the block's own pivots, by (row in the
    # block, pivot's place in the block): the other side's gathers add them
    mult = np.zeros((2, block, block))
    # by side and row in the block, sum_j mult_j v_j over the pivots that
    # reach the row so far, in pivot order
    est_sum = np.zeros((2, block))
    acc = np.zeros(n)  # dense accumulator, all zero between gathers
    touched = np.zeros(n, dtype=bool)  # all False between gathers

    def block_sums(s, k0, k1):
        """Side s's vectors k0..k1-1 of A minus the updates of the pivots
        before k0, as one SMMP product whose left operand holds the other
        side's multipliers of those pivots at the block's indices."""
        ptr, cands, vals = earlier[1 - s]
        m, f = mats[s], flat[s]
        lo, hi = m.indptr[k0], m.indptr[k1]
        end = f.ptr[k0]
        # [-(mults D) | I] @ [the stored vectors ; A's block rows], each left
        # row with its identity entry first; A's row k0 + r is right row
        # k0 + r.  A's rows go into the buffers' free tail, where the
        # block's appends overwrite them, so that the right operand is a
        # view of the buffers.
        tail = f.write(end, m.indices[lo:hi], m.data[lo:hi])
        return _smmp(ptr + np.arange(k1 - k0 + 1),
                     np.insert(cands, ptr[:-1], np.arange(k0, k1)),
                     np.insert(-vals * diag[cands], ptr[:-1], 1.0),
                     np.concatenate([f.ptr[:k0 + 1], m.indptr[k0 + 1:k1 + 1] - lo + end]),
                     f.idx[:tail], f.val[:tail], n)

    def own_pivots(s, r, k0):
        """The block's pivots whose side-s vectors reach block row r (their
        indices k) and their multipliers there."""
        row = mult[s, r]
        j = row[:r].nonzero()[0]
        return j + k0, row[j]

    def earlier_sums(s, k0, k1):
        """est_sum's side-s rows k0..k1-1 over the pivots before k0, summed
        one term at a time in pivot order (bincount adds its weights in
        input order)."""
        ptr, cands, vals = earlier[s]
        rows = np.repeat(np.arange(k1 - k0), np.diff(ptr))
        est_sum[s, :k1 - k0] = np.bincount(rows, vals * v[s][cands], minlength=k1 - k0)

    def gather(s, r, own, own_vals):
        """Side s's vector k0 + r of the active matrix, sorted and
        restricted to the non-eliminated indices: row r of its block
        product plus the updates of the block's pivots ``own``, whose
        multipliers ``own_vals`` the other side stored."""
        m, f = sums[s], flat[s]
        lo, hi = m.indptr[r], m.indptr[r + 1]
        if own.size:
            p = f.ptr
            cuts = [slice(p[j], p[j + 1]) for j in own.tolist()]
            # intp indexes fastest; the flat buffers keep A's narrower index dtype
            gi = np.concatenate([m.indices[lo:hi], *[f.idx[c] for c in cuts]], dtype=np.intp)
            gv = np.concatenate([m.data[lo:hi], *[f.val[c] for c in cuts]])
            gv[hi - lo:] *= (-own_vals * diag[own]).repeat([c.stop - c.start for c in cuts])
            np.add.at(acc, gi, gv)
            touched[gi] = True
            uq = touched.nonzero()[0]
            touched[uq] = False
            total = acc[uq]
            acc[uq] = 0.0
        else:
            # no in-block update: SMMP stores each index of its row once, so
            # the row is the sum as it is, sorted in place
            csr_sort_indices(1, m.indptr[r:r + 2], m.indices, m.data)
            uq, total = m.indices[lo:hi], m.data[lo:hi]
        live = ~eliminated[uq]
        return uq[live], total[live]

    def store(s, k, k0, k1, idx, val, vk):
        """Record pivot k's side-s estimator ``vk`` in its state and
        running maximum, drop, then store its side-s vector (``val``
        already divided by the pivot) and note its entries at the block's
        pending indices as its multipliers."""
        v[s][k] = vk
        est[s] = max(est[s], vk)
        keep = (idx != k) & (np.abs(val) * est[s] > droptol)
        idx, val = idx[keep], val[keep]
        if idx.size > caps[s, k]:
            sel = np.lexsort((idx, -np.abs(val)))[:caps[s, k]]
            sel.sort()
            idx, val = idx[sel], val[sel]
        flat[s].append(k, idx, val)
        lo, hi = idx.searchsorted((k + 1, k1))
        at = idx[lo:hi] - k0
        mult[s, at, k - k0] = val[lo:hi]
        est_sum[s, at] += val[lo:hi] * vk

    def prefix_rows(s, npre):
        """Rows 0..npre-1 of side s's block product, which no pivot of the
        prefix updates: their entries, sorted in place within each row and
        restricted to the non-eliminated indices, as (row, index, value)
        arrays."""
        m = sums[s]
        end = m.indptr[npre]
        csr_sort_indices(npre, m.indptr, m.indices, m.data)
        seg = np.repeat(np.arange(npre), np.diff(m.indptr[:npre + 1]))
        idx, val = m.indices[:end], m.data[:end]
        live = ~eliminated[idx]
        return seg[live], idx[live], val[live]

    def store_prefix(s, k0, k1, accept, seg, idx, val, pivot, vk):
        """store for the prefix's pivots at once, an empty vector for each
        deferred one: ``accept``, ``pivot`` and ``vk`` are by prefix row."""
        pre = slice(k0, k0 + pivot.size)
        v[s][pre] = vk
        # every estimate is at least 1, so a deferred row leaves the maximum be
        run = np.maximum.accumulate(np.r_[est[s], np.where(accept, vk, 1.0)])
        est[s] = run[-1]
        caps_pre = caps[s, pre]
        keep = accept[seg] & (idx != k0 + seg)
        r, idx = seg[keep], idx[keep]
        val = val[keep] / pivot[r]
        keep = np.abs(val) * run[r + 1] > droptol
        r, idx, val = r[keep], idx[keep], val[keep]
        sizes = np.bincount(r, minlength=pivot.size)
        if np.any(sizes > caps_pre):
            # in each vector, the cap largest magnitudes, ties to the smaller index
            at = np.lexsort((idx, -np.abs(val), r))
            first = np.cumsum(sizes) - sizes
            keep = np.empty(r.size, dtype=bool)
            keep[at] = np.arange(r.size) - first[r[at]] < caps_pre[r[at]]
            r, idx, val = r[keep], idx[keep], val[keep]
            sizes = np.minimum(sizes, caps_pre)
        flat[s].append(k0, idx, val, sizes)
        own = (idx >= k0) & (idx < k1)
        at, r, val = idx[own] - k0, r[own], val[own]
        mult[s, at, r] = val
        # in pivot order within each row: the entries are sorted by pivot
        np.add.at(est_sum[s], at, val * vk[r])

    for k0 in range(0, ncand, block):
        k1 = min(k0 + block, ncand)
        # the last block's products and prefix rows go before this block's
        sums = earlier = rows = None
        earlier = [f.at_indices(k0, k1) for f in flat]
        sums = [block_sums(s, k0, k1) for s in (0, 1)]
        mult.fill(0.0)
        for s in (0, 1):
            earlier_sums(s, k0, k1)

        # the independent prefix: every gather is its row of the products,
        # and no pivot of it reaches another, so its sums are complete
        npre = _independent_prefix(k0, *sums)
        rows = [prefix_rows(s, npre) for s in (0, 1)]
        vk = 1.0 + np.abs(est_sum[:, :npre])
        seg, idx, val = rows[0]
        on_diag = idx == k0 + seg
        pivot = np.zeros(npre)
        pivot[seg[on_diag]] = val[on_diag]
        accept = (np.abs(pivot) > pivot_floor) & (vk <= cond_thresh).all(axis=0)
        pre = slice(k0, k0 + npre)
        eliminated[pre] = accept
        diag[pre] = pivot
        for s in (0, 1):
            store_prefix(s, k0, k1, accept, *rows[s], pivot, vk[s])

        for k in range(k0 + npre, k1):
            r = k - k0
            vk = 1.0 + abs(est_sum[0, r]), 1.0 + abs(est_sum[1, r])
            # a candidate its estimators defer is not gathered, and its
            # column is gathered only if the pivot on its row passes
            pivot = 0.0
            if vk[0] <= cond_thresh and vk[1] <= cond_thresh:
                idx, val = gather(0, r, *own_pivots(1, r, k0))
                at = idx.searchsorted(k)
                if at < idx.size and idx[at] == k:
                    pivot = val[at]
            if not abs(pivot) > pivot_floor:
                for s in (0, 1):
                    flat[s].ptr[k + 1] = flat[s].ptr[k]
                continue
            cidx, cval = gather(1, r, *own_pivots(0, r, k0))
            eliminated[k] = True
            diag[k] = pivot
            store(0, k, k0, k1, idx, val / pivot, vk[0])
            store(1, k, k0, k1, cidx, cval / pivot, vk[1])

    # -- the level in elimination-then-deferred order, and its Schur complement --
    elim = np.flatnonzero(eliminated)
    nonelim = np.flatnonzero(~eliminated)
    n_b = elim.size
    order = np.concatenate([elim, nonelim])
    pos = np.empty(n, dtype=acsr.indices.dtype)
    pos[order] = np.arange(n)

    def unit_form(f, fmt):
        # np.insert copies, so the factor does not keep the whole buffer alive
        end = f.ptr[ncand]
        starts = np.pad(f.ptr[elim], (0, n - n_b + 1), constant_values=end)
        m = fmt((np.insert(f.val[:end], starts[:-1], 1.0),
                 np.insert(pos[f.idx[:end]], starts[:-1], np.arange(n)),
                 starts + np.arange(n + 1)), shape=(n, n))
        m.sort_indices()
        return m

    # the elimination's working set is dead; each flat buffer goes once its
    # factor is built
    mats = sums = earlier = rows = mult = est_sum = acc = touched = None
    u_mat = unit_form(flat.pop(0), sp.csr_matrix)
    l_mat = unit_form(flat.pop(0), sp.csc_matrix)
    d = diag[elim]
    # L's block as CSR: the product on the CSC block sums in another order.
    # Two passes, since scaling L's data in place changes bits: the first
    # pass's unsorted output order sets the summation order of the second.
    # -d negates every term exactly, and so every sum.
    l_nb = l_mat[n_b:, :n_b].tocsr()
    ident = np.arange(n_b + 1)
    l_nb = _smmp(l_nb.indptr, l_nb.indices, l_nb.data, ident, ident[:-1], -d, n_b)
    u_bn = u_mat[:n_b, n_b:]
    bound = _smmp_bound(l_nb.indptr, l_nb.indices, u_bn.indptr, n - n_b)
    if bound > _MAX_SCHUR_GROWTH * acsr.nnz:
        raise FactorizationError(f"Schur complement of up to {bound} entries exceeds "
                                 f"{_MAX_SCHUR_GROWTH} times its level's {acsr.nnz}")
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
        n_static_deferred=n - ncand, n_dynamic_deferred=ncand - n_b,
    )
    return level, schur


def _orthonormalize(q: np.ndarray, k: int, lo: int = 0) -> None:
    """Columns k, k + 1, ... of q orthonormalized in place, in order,
    against its orthonormal columns lo..k-1 and each other: block
    classical Gram-Schmidt, each projection applied twice, on halves of
    the block in turn."""
    x = q[:, k:]
    if k > lo:
        for _ in range(2):
            x -= q[:, lo:k] @ (q[:, lo:k].T @ x)
    if x.shape[1] == 1:
        x /= np.linalg.norm(x)
        return
    h = k + x.shape[1] // 2
    _orthonormalize(q[:, :h], k, k)
    _orthonormalize(q, h, k)


def _start_block(n: int, j0: int, j1: int) -> np.ndarray:
    """Columns j0..j1-1 of a fixed pseudo-random block of n rows, entries
    in [-1/2, 1/2): splitmix64's output function of each entry's index (a
    generator of numpy.random would cost its first import's memory)."""
    z = np.arange(j0 * n + 1, j1 * n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return ((z >> np.uint64(11)) * 2.0 ** -53 - 0.5).reshape(j1 - j0, n).T


def _near_null(lu, piv, s: sp.csr_matrix, dr, dc, cut: float):
    """Orthonormal bases (u, v), n x k, of the left and right singular
    subspaces of T = diag(dr) S diag(dc), S = ``s``, whose singular values
    are at most ``cut``, given S's LU: block inverse iteration.

    A block of b directions starts from columns k..k+b-1 of a fixed block
    (_start_block), orthogonalized against the k directions already found.
    Each of _TAIL_SWEEPS sweeps applies T^-1 = diag(dc)^-1 S^-1 diag(dr)^-1
    (dgetrs, trans N) and orthonormalizes the block against v and within
    itself in order, then T^-T (trans T) and the same against u.  Column j
    of such an orthogonal iteration tends to the j-th smallest singular
    direction, and |T v_j| bounds its singular value from above: the
    leading columns with |T v_j| <= cut join u and v.  If every column did,
    the block doubles and the search goes on past them; otherwise it ends."""
    n = s.shape[0]
    u = v = np.zeros((n, 0), order="F")
    b = _TAIL_BLOCK
    while True:
        k = u.shape[1]
        b = min(b, n - k)
        qu = np.asfortranarray(np.c_[u, _start_block(n, k, k + b)])
        _orthonormalize(qu, k)
        qv = np.asfortranarray(np.c_[v, np.empty((n, b))])
        for _ in range(_TAIL_SWEEPS):
            qv[:, k:] = dgetrs(lu, piv, qu[:, k:] / dr[:, None])[0] / dc[:, None]
            _orthonormalize(qv, k)
            qu[:, k:] = dgetrs(lu, piv, qv[:, k:] / dc[:, None], trans=1)[0] / dr[:, None]
            _orthonormalize(qu, k)
        sigma = np.linalg.norm(dr[:, None] * (s @ (dc[:, None] * qv[:, k:])), axis=0)
        under = int(np.argmin(np.r_[sigma <= cut, False]))
        u, v = qu[:, :k + under], qv[:, :k + under]
        if under < b or k + under == n:
            return u.copy(order="F"), v.copy(order="F")
        b *= 2


def _dense_tail(s: sp.csr_matrix, dropped: bool):
    """The dense factorization that ends the recursion, of the Schur
    complement ``s``, and whether its rank was cut; ``dropped`` says
    whether a level's dropping made ``s``, rather than exact elimination.

    Every tail keeps dgetrf's LU with partial pivoting.  With no zero pivot
    and dgecon's 1-norm estimate of the reciprocal condition at least
    _TAIL_RCOND, that LU is the tail: every tail the benchmark's workloads
    reach with a Crout level before it reads 5.6e-5 to 1.1e-2.  A first
    Schur complement reads 5e-9 to 2e-7, since ILU dropping leaves it a
    near-null direction that partial pivoting does not see.  For such a
    tail the singular directions of T = diag(dr) S diag(dc) (_ruiz: a row
    or column with no nonzero keeps the scale 1) at or under the cut are
    found by inverse iteration through the LU (_near_null), and the solve
    gives 0 along them.  A zero S has rank 0.

    S's LU is one of T too, P T = L' U' with U' = diag(dr) U diag(dc) in
    pivot order, and each pivot of U' at or below eps |T| (the norm
    below), an exact zero included, is raised to it with its sign.  Without
    that floor the near-null singular values of the LU can spread over
    more than 1/eps, and the iteration loses all but the least of them to
    rounding: the LU of a dense rank-1 tail of n 1000 holds pivots down to
    5e-78, and 997 of its 999 null directions were left uncut.  On S's
    scale, eps |S|_1, the floor would also raise the pivots of rows that S
    scales far down and T does not: with rows scaled by 1e-20 to 1e-60 the
    solve was then off by 2.3 relative.

    The cut is relative to T's largest column 2-norm, the |R_11| of a QR
    with column pivoting of T.  Where a level dropped entries it is
    _TAIL_RANK_TOL, since each dropped entry is up to droptol (0.001 to
    0.02 in the cavity runs) relative to its inverse-norm estimate, so a
    direction that small may be the dropping's rather than the input's.  On
    the benchmark's first Schur complements that cut falls in a gap: T's
    least singular value is 2e-8 to 2e-7 of that norm, the next 0.05 to
    0.06.  Giving 0 along a cut direction suits one the outer Krylov solver
    need not resolve, as the cavity's constant pressure mode, but a
    nonsingular system whose solution needs it can stall.  Where ``s`` is
    exact (no level eliminated, or droptol is 0), the cut is n eps, the
    numerical rank, so that a nonsingular system is still solved exactly.

    The tail holds one n x n array, 2k vectors and, unless it is a plain
    LU, the scalings; it reads ``s`` in runs of rows (_row_runs) while it
    holds the LU."""
    n = s.shape[0]
    uncut = np.zeros((n, 0))
    lu = s.toarray(order="F")
    anorm = dlange("1", lu)
    if anorm == 0.0:
        return _DenseTail(None, None, uncut, uncut, None, None), True
    lu, piv, info = dgetrf(lu, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    if info == 0 and dgecon(lu, anorm)[0] >= _TAIL_RCOND:
        return _DenseTail(lu, piv, uncut, uncut, None, None), False
    dr, dc = _ruiz(s)
    # T's largest column 2-norm, dc_j (sum_i (dr_i s_ij)^2)^(1/2)
    squares = np.zeros(n)
    for r0, r1, at, counts, _, _ in _row_runs(s):
        w = np.repeat(dr[r0:r1], counts) * s.data[at]
        squares += np.bincount(s.indices[at], w * w, minlength=n)
    norm = np.sqrt((squares * dc * dc).max())
    # U' = diag(dr[rows]) U diag(dc), rows the pivot rows in order
    rows = np.arange(n)
    for i, p in enumerate(piv.tolist()):
        rows[i], rows[p] = rows[p], rows[i]
    scale = dr[rows] * dc
    tiny = np.flatnonzero(np.abs(lu.diagonal() * scale) <= _EPS * norm)
    lu[tiny, tiny] = np.copysign(_EPS * norm / scale[tiny], lu[tiny, tiny])
    tol = _TAIL_RANK_TOL if dropped else n * _EPS
    u, v = _near_null(lu, piv, s, dr, dc, tol * norm)
    return _DenseTail(lu, piv, u, v, dr, dc), u.shape[1] > 0


def _dense_beats_crout(s: sp.csr_matrix) -> bool:
    """Whether ``s`` goes to the dense tail rather than to a Crout level:
    n^3 <= _DENSE_CUBE_PER_ENTRY * nnz.

    Measured with one BLAS thread on the six Schur complements of the
    benchmark's workloads and of criterion 7's L5 operator (n 525 to 2394,
    51k to 607k stored entries, each factorized as the input), a Crout
    level and the dense tail of its Schur complement cost 0.8-2.1 us per
    stored entry, and _dense_tail of the whole complement 0.3-1.6e-10 s per
    n^3 (an LU, with the search for near-null directions where the
    condition estimate asks for it).  So the dense tail factorizes faster
    up to n^3 / nnz of 5400 to 47000 by complement, and its dearer solves
    no longer outweigh that: on the benchmark's Oseen operator, solved 480
    times per factorization, a dense tail of n 677 would save 96 ms of
    factorization and cost 0.06 ms more per solve (0.23 against 0.17 ms
    for a Crout level and its tail of 227).  What holds the threshold is
    the factor's size: the first Schur complement of the L5 Re 200 Oseen
    operator at the Stokes guess under the default alpha and droptol reads
    2857, and as a dense tail of n 525 it would take that factor from 2.8
    to 8.7 times nnz(A), where L4 and L6 hold 3.7 and 3.1 (criterion 7).
    Hence 2500, below it.  n^3 / nnz is at least n, so no level above 2500
    unknowns qualifies."""
    return s.shape[0] ** 3 <= _DENSE_CUBE_PER_ENTRY * s.nnz


def factorize(a: sp.csr_matrix, params: FactorParams | None = None) -> MultilevelFactor:
    """Full multilevel factorization: per level equilibrate, reorder,
    statically defer, Crout-eliminate, then recurse on the Schur complement
    until it is at most dense_switch unknowns or, with the default
    dense_switch, until a dense factorization beats a Crout level on it
    (_dense_beats_crout).  The dense tail is an LU with partial pivoting,
    and if it is ill-conditioned its near-null directions are cut, and the
    factor flagged ``perturbed`` (_dense_tail): after a level that
    eliminated with droptol > 0, those under a relative threshold;
    otherwise only if numerically singular.  A
    non-finite stored entry, and a tail larger than both dense_switch and
    4000, are a FactorizationError, raised before equilibration and before
    the dense allocation, and so is a Schur complement bounded at more than
    256 entries per stored entry of its level (crout_ilu_level), before it
    is allocated.  A level that accepts no pivot is kept, with n_b 0 and
    unit L and U, and ends the recursion: its Schur complement, the level's
    scaled and reordered matrix, is the tail.

    Besides the input and the levels built, a level holds its scaled and
    reordered matrix, that matrix's CSC copy, the two flat buffers and one
    block's products; that is its peak.  The previous level's Schur
    complement goes once it is scaled, and each of the rest once it is
    used.  The dense tail holds the Schur complement and one n^2 array."""
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

    levels: list[LevelFactor] = []
    current = a
    for _ in range(_MAX_LEVELS):
        if current.shape[0] <= dense_switch or (params.dense_switch is None
                                                and _dense_beats_crout(current)):
            break
        dr, dc = equilibrate(current)
        scaled = _scale(current, dr, dc)
        current = None
        diag = scaled.diagonal()
        fill = reorder(scaled)
        defer, ncand = static_defer(diag[fill], params.diag_thresh)
        static = fill[defer]
        level_a = scaled[static, :][:, static]
        del scaled
        level_a.sort_indices()
        level, current = crout_ilu_level(level_a, params, ncand)
        del level_a
        levels.append(replace(level, order=static[level.order], dr=dr, dc=dc))
        if level.n_b == 0:
            # no pivot was acceptable: the level's matrix is the tail
            break

    tail_n = current.shape[0]
    tail_limit = max(dense_switch, _MAX_DENSE_TAIL)
    if tail_n > tail_limit:
        raise FactorizationError(f"dense tail of {tail_n} unknowns after {len(levels)} "
                                 f"levels exceeds the limit of {tail_limit}")
    dropped = params.droptol > 0 and any(lev.n_b for lev in levels)
    tail, perturbed = _dense_tail(current, dropped) if tail_n else (None, False)
    total = sum(lev.nnz for lev in levels) + tail_n * tail_n
    return MultilevelFactor(
        levels=levels,
        tail=tail,
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
        if m.tail is None:
            return v.copy()
        with _TAIL_LOCK:
            x, info = m.tail.solve(v)
        if info:
            raise np.linalg.LinAlgError(f"illegal value in argument {-info} of the tail solve")
        return x
    lev = m.levels[li]
    y = (lev.dr * v)[lev.order]
    y = _substitute("N", lev.L, y)
    nb = lev.n_b
    y[:nb] /= lev.D
    y[nb:] = _solve_from(m, li + 1, y[nb:])
    y = _substitute("T", lev.U, y)
    out = np.empty_like(y)
    out[lev.order] = y
    return out * lev.dc


def ml_solve(m: MultilevelFactor, v: np.ndarray) -> np.ndarray:
    """Apply the factored preconditioner: one multilevel forward/backward
    substitution pass on each level's stored unit-triangular factors, and
    between them the dense tail's solve.  A tail with cut directions gives
    0 along them: its LU solve between projections off the cut left and
    right singular directions of its equilibrated form, so the tail's
    matrix maps the solution to v less v's (scaled) component along the
    cut left directions.
    Leaves the factor unchanged; concurrent calls on one factor are safe."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (m.n,):
        raise ValueError(f"vector length {v.shape} does not match factor size {m.n}")
    return _solve_from(m, 0, v)
