"""Multilevel Crout incomplete-LU factorization.

Each level equilibrates, reorders, statically defers small diagonals, runs
the Crout elimination of crout_ilu_level (which describes the kernel) and
recurses on its Schur complement.  A dense factorization ends the
recursion, once the complement is small (dense_switch) or, by default,
dense enough that a dense factorization beats a Crout level on it
(_dense_beats_crout).  That tail is rank-revealing (_dense_tail): an LU
with partial pivoting if LAPACK's condition estimate says it is well
conditioned, else an equilibrated QR with column pivoting truncated at a
relative threshold, which sees the near-null direction that ILU dropping
leaves in a saddle point system's Schur complement (the HIFIR design of
Chen & Jiao, arXiv:2106.09877).  factorize holds one level's working set
at a time, in every case.

ml_solve calls SuperLU's compiled substitution (gstrs) on each level's
stored unit-triangular factors directly, with the arguments scipy's
spsolve_triangular passes once its per-call set-up is done: the same bits
without that set-up.  The dense tail is LAPACK's dgetrs on the LU, or
dormqr, which applies Q^T from its Householder form, and dtrtrs on R.  A
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
from scipy.linalg.lapack import dgecon, dgeqp3, dgetrf, dgetrs, dlange, dormqr, dtrtrs
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
# a tail keeps its LU when dgecon's 1-norm estimate of its reciprocal
# condition is at least _TAIL_RCOND; otherwise its equilibrated QR with
# column pivoting is truncated at the first |R_ii| <= _TAIL_RANK_TOL |R_11|
# if a level's dropping made it, else at n eps |R_11| (_dense_tail)
_TAIL_RCOND = 3e-6
_TAIL_RANK_TOL = 1e-3
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


class _LUTail(NamedTuple):
    """dgetrf's LU of a well-conditioned dense tail: lu_solve's pair."""

    lu: np.ndarray
    piv: np.ndarray

    def solve(self, v: np.ndarray):
        return dgetrs(self.lu, self.piv, v)


class _QRTail(NamedTuple):
    """A QR with column pivoting of the equilibrated dense tail T,
    truncated at rank k = tau.size: (dr T dc)[:, cols[:k]] = Q_k R11, Q_k
    the first k columns of the product of k Householder reflectors,
    stored below the diagonal of qr's first k columns with their scalars
    tau, as dgeqp3 leaves them.  Above the diagonal qr holds R11 bordered by the
    identity, so that a triangular solve gives 0 on the columns left
    out."""

    qr: np.ndarray
    tau: np.ndarray
    cols: np.ndarray
    dr: np.ndarray
    dc: np.ndarray

    def solve(self, v: np.ndarray):
        """The basic solution: Q^T (dr v) by dormqr, its entries past the
        kept rank zeroed, then the bordered R, and dc."""
        k = self.tau.size
        y = np.zeros((v.size, 1))
        info = 0
        if k:
            # lwork 1 applies the reflectors one by one: a blocked pass
            # would rebuild its block factors on every solve
            y, _, info = dormqr("L", "T", self.qr[:, :k], self.tau, (self.dr * v)[:, None], 1)
            y[k:] = 0.0
        if not info:
            y, info = dtrtrs(self.qr, y)
        x = np.empty(v.size)
        x[self.cols] = y[:, 0]
        return x * self.dc, info


@dataclass
class MultilevelFactor:
    """The levels, then the dense tail of tail_n unknowns: an _LUTail, a
    _QRTail (perturbed if its rank is below tail_n) or None if tail_n is
    0."""

    levels: list[LevelFactor]
    tail: _LUTail | _QRTail | None
    tail_n: int
    perturbed: bool
    total_nnz: int
    n: int

    @property
    def tail_rank(self) -> int:
        """The columns the dense tail keeps: tail_n unless its rank was cut."""
        return self.tail.tau.size if isinstance(self.tail, _QRTail) else self.tail_n


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


def _ruiz(a: sp.csr_matrix):
    """equilibrate's sweeps without its checks: a row or column with no
    nonzero value, stored or not, keeps the scale 1."""
    n = a.shape[0]
    row_counts = np.diff(a.indptr)
    # reduceat over the nonempty rows' starts: each segment is one row
    nonempty = row_counts > 0
    starts = a.indptr[:-1][nonempty]
    # |a_ij| dr_i dc_j, in _scale's order, is |_scale(a, dr, dc)| bit for
    # bit, since dr and dc are positive
    magnitude = np.abs(a.data)
    dr = np.ones(n)
    dc = np.ones(n)
    for _ in range(10):
        scaled = magnitude * np.repeat(dr, row_counts) * dc[a.indices]
        rn = np.zeros(n)
        rn[nonempty] = np.maximum.reduceat(scaled, starts)
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
    pivots, so step k computes both first and defers k without a gather if
    either exceeds cond_thresh; otherwise it gathers row k, and column k
    only if the pivot on row k passes the floor.  The steps run in blocks
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
    in-place row sort and eliminated-mask filter per side, one estimator
    dot per row (the helper of the one-by-one steps, so the same bits), a
    vectorized deferral test, the running maxima by np.maximum.accumulate, a
    segmented drop and cap, one append per side, and their multipliers at
    the rest of the block recorded as in store.  The rest of the block
    runs one pivot at a time.

    Every per-pivot array is keyed by k, and the state of each factor by
    its side s: 0 is U, gathered from A's CSR rows, 1 is L, from its CSC
    columns.  Side s holds its flat buffer, caps, estimator states and
    running maximum, the multipliers its stores note in the block and, per
    block, its product and its multipliers of the earlier pivots.  Its
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

    def estimator(s, r, own, own_vals):
        """Side s's 1 + |sum_j mult_j v_j| over its multipliers at block
        row r: the earlier pivots' in index order, then ``own_vals`` of the
        block's pivots ``own``."""
        ptr, cands, vals = earlier[s]
        mults, js = vals[ptr[r]:ptr[r + 1]], cands[ptr[r]:ptr[r + 1]]
        if own.size:
            mults = np.concatenate([mults, own_vals])
            js = np.concatenate([js, own])
        return 1.0 + abs(mults @ v[s][js])

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
        mult[s, idx[lo:hi] - k0, k - k0] = val[lo:hi]

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
        mult[s, idx[own] - k0, r[own]] = val[own]

    for k0 in range(0, ncand, block):
        k1 = min(k0 + block, ncand)
        # the last block's products and prefix rows go before this block's
        sums = earlier = rows = None
        earlier = [f.at_indices(k0, k1) for f in flat]
        sums = [block_sums(s, k0, k1) for s in (0, 1)]
        mult.fill(0.0)

        # the independent prefix: every gather is its row of the products
        npre = _independent_prefix(k0, *sums)
        rows = [prefix_rows(s, npre) for s in (0, 1)]
        vk = np.array([[estimator(s, r, _NO_PIVOTS, _NO_DATA) for r in range(npre)]
                       for s in (0, 1)])
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
            own = own_pivots(0, r, k0), own_pivots(1, r, k0)
            vk = estimator(0, r, *own[0]), estimator(1, r, *own[1])
            # a candidate its estimators defer is not gathered, and its
            # column is gathered only if the pivot on its row passes
            pivot = 0.0
            if vk[0] <= cond_thresh and vk[1] <= cond_thresh:
                idx, val = gather(0, r, *own[1])
                at = idx.searchsorted(k)
                if at < idx.size and idx[at] == k:
                    pivot = val[at]
            if not abs(pivot) > pivot_floor:
                for s in (0, 1):
                    flat[s].ptr[k + 1] = flat[s].ptr[k]
                continue
            cidx, cval = gather(1, r, *own[0])
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
    mats = sums = earlier = rows = mult = acc = touched = None
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


def _dense_tail(s: sp.csr_matrix, dropped: bool):
    """The dense factorization that ends the recursion, of the Schur
    complement ``s``, and whether its rank was truncated; ``dropped`` says
    whether a level's dropping made ``s``, rather than exact elimination.

    dgetrf's LU is kept when it has no zero pivot and dgecon's 1-norm
    estimate of the reciprocal condition is at least _TAIL_RCOND.  Every
    tail the benchmark's workloads reach with a Crout level before it reads
    5.6e-5 to 1.1e-2; a first Schur complement reads 5e-9 to 2e-7, since
    ILU dropping leaves it a near-null direction that partial pivoting does
    not see.  Such a tail is equilibrated (_ruiz: a row or column with no
    nonzero keeps the scale 1) and factorized by QR with column pivoting,
    dgeqp3 in the LU's buffer.

    Where a level dropped entries, the rank is cut at the first |R_ii| <=
    _TAIL_RANK_TOL |R_11|: each dropped entry is up to droptol (0.001 to
    0.02 in the cavity runs) relative to its inverse-norm estimate, so a
    direction that small may be the dropping's rather than the input's.  On
    the benchmark's first Schur complements that cut falls in a gap: the
    smallest |R_ii| / |R_11| is 2e-7 to 5e-6, the next 0.08 to 0.3.  The
    solve then gives 0 along the cut direction: that suits a near-null
    direction the outer Krylov solver need not resolve, as the cavity's
    constant pressure mode, but a nonsingular system whose solution needs it
    can stall.  Where ``s`` is exact (no level eliminated, or droptol is 0),
    an ill-conditioned tail is the input's own and keeps every column above
    n eps |R_11|, the numerical rank, so that a nonsingular system is still
    solved exactly: only a numerically singular tail is cut.

    Q stays in dgeqp3's Householder form, so the tail holds one n x n
    array however it is factorized.  An explicit Q^T of the kept rank
    would make a solve one gemv in place of dormqr (0.10 against 0.23 ms
    at n 537), but it is a second n x n array: on the L5 cavity run it put
    the peak resident memory 4.6 MiB above that of Crout levels on the
    same Schur complements, against 1.6 MiB.  For the same reason the
    scalings come first, before the dense array is allocated."""
    n = s.shape[0]
    dr, dc = _ruiz(s)
    tail = s.toarray(order="F")
    anorm = dlange("1", tail)
    lu, piv, info = dgetrf(tail, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    if info == 0 and dgecon(lu, anorm)[0] >= _TAIL_RCOND:
        return _LUTail(lu, piv), False
    tail = s.toarray(out=lu)
    lu = piv = None
    tail *= dr[:, None]
    tail *= dc
    lwork = int(dgeqp3(tail, lwork=-1, overwrite_a=1)[3][0])
    qr, jpvt, tau, _, info = dgeqp3(tail, lwork=lwork, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of geqp3")
    d = np.abs(np.diag(qr))
    tol = _TAIL_RANK_TOL if dropped else n * _EPS
    rank = int(np.argmax(np.r_[d <= tol * d[0], True]))
    # R over the kept rank, bordered by the identity: the triangular solve
    # then gives 0 on the columns left out
    qr[:rank, rank:] = 0.0
    qr[rank:, rank:] = np.eye(n - rank)
    return _QRTail(qr, tau[:rank], jpvt - 1, dr, dc), rank < n


def _dense_beats_crout(s: sp.csr_matrix) -> bool:
    """Whether ``s`` goes to the dense tail rather than to a Crout level:
    n^3 <= _DENSE_CUBE_PER_ENTRY * nnz.

    Measured with one BLAS thread on the five Schur complements of the
    benchmark's workloads (n 530 to 2394, 70k to 607k stored entries), a
    Crout level and the dense tail of its Schur complement cost 1.2-2.0 us
    per stored entry, whatever alpha, and _dense_tail of the whole
    complement 2.1-2.4e-10 s per n^3 (the QR route, which a first Schur
    complement takes).  So the dense tail factorizes faster up to n^3 / nnz
    of 5600 to 9000 by level, 5700 in the median.  It is taken only up to
    about half that, so that the half of the Crout route's cost it saves
    pays for its dearer solves: on the benchmark's Oseen operator, solved
    480 times per factorization, a dense tail of n 677 would save 70 ms of
    factorization and cost 0.38 ms more per solve (0.72 against 0.34 ms for
    a Crout level and its tail of 227).  And it is taken only below 2857,
    the first Schur complement of the L5 Re 200 Oseen operator at the
    Stokes guess under the default alpha and droptol: as a dense tail of n
    525 it would take that factor from 2.8 to 8.7 times nnz(A), where L4
    and L6 hold 3.7 and 3.1.  Hence 2500.  n^3 / nnz is at least n, so no
    level above 2500 unknowns qualifies."""
    return s.shape[0] ** 3 <= _DENSE_CUBE_PER_ENTRY * s.nnz


def factorize(a: sp.csr_matrix, params: FactorParams | None = None) -> MultilevelFactor:
    """Full multilevel factorization: per level equilibrate, reorder,
    statically defer, Crout-eliminate, then recurse on the Schur complement
    until it is at most dense_switch unknowns or, with the default
    dense_switch, until a dense factorization beats a Crout level on it
    (_dense_beats_crout).  The dense tail is an LU with partial pivoting if
    it is well conditioned, else a rank-truncated QR with column pivoting,
    and then the factor is flagged ``perturbed`` if the rank was cut
    (_dense_tail): after a level that eliminated with droptol > 0, at a
    relative threshold; otherwise only if numerically singular.  A
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
_NO_PIVOTS = np.zeros(0, np.intp)


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
    between them the dense tail's solve.  A rank-truncated tail gives the
    basic solution: the kept columns' unknowns from Q^T (dr v) and R,
    scaled by dc, and 0 for the columns left out, so the tail's matrix
    maps it to v less v's (scaled) component outside the kept range.
    Leaves the factor unchanged; concurrent calls on one factor are safe."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (m.n,):
        raise ValueError(f"vector length {v.shape} does not match factor size {m.n}")
    return _solve_from(m, 0, v)
