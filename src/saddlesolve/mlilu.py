"""Multilevel Crout incomplete-LU factorization.

Each level equilibrates, reorders, statically defers small diagonals, then
runs a Crout elimination (Li, Saad & Chow, SISC 2003) with dynamic deferring
of unstable pivots and dual dropping (inverse-based drop tolerance plus a
per-row/column fill cap).  Each accepted pivot stores its U row and L column
once, in the level's input indices; an index deferred later simply stays in
them.  The Schur complement over all deferred and trailing indices,
S = A_NN - L_NB D U_BN, is one sparse product after the elimination.  It is
factorized recursively; a dense LU with partial pivoting terminates the
recursion.

Each level's solve form, (L+I) as CSC and (U+I) as CSR with sorted
indices, is built once, on the level's first solve, so every later
application of the preconditioner is SuperLU's compiled substitution with
no sparse conversion per call.

Factorization is single-threaded and builds fresh state per call.  The
returned MultilevelFactor is immutable and safe for concurrent solves: a
solve reads L, U, D, the permutations and the scalings without changing
them; the solve forms are the only state it adds, and each substitution
writes 1.0 over their stored unit diagonal and nothing else.  Two first
solves racing on a level build equal forms.  The dense-tail solve holds
a module lock: concurrent scipy.linalg.lu_solve calls on one LU factor
(LAPACK getrs, scipy 1.17 with OpenBLAS) can return wrong solutions, off
by O(1) relative to serial ones.  L, U and D must not be changed once a
level has been solved with.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from .ordering import reorder
from .sparse import as_csr

__all__ = [
    "FactorizationError",
    "FactorParams",
    "LevelFactor",
    "MultilevelFactor",
    "equilibrate",
    "static_defer",
    "reorder",
    "crout_ilu_level",
    "factorize",
    "ml_solve",
]

_EPS = np.finfo(np.float64).eps
_CAP_FLOOR = 5  # retained entries per row/column regardless of the fill cap
_MAX_LEVELS = 30
_TAIL_LOCK = threading.Lock()


class FactorizationError(ValueError):
    """The matrix cannot be factorized as given (a structurally empty row
    or column)."""


@dataclass(frozen=True)
class FactorParams:
    """Controls for one multilevel factorization.

    alpha caps each stored U row and L column at ceil(alpha * nnz) of that
    row or column of the level's matrix (at least 5); droptol drives
    inverse-based dropping; cond_thresh bounds the growth of the incremental
    inverse-norm estimates before a pivot is deferred; diag_thresh is the
    relative static-deferring threshold on scaled diagonals; pivot_floor is
    the absolute post-equilibration magnitude below which a pivot is
    deferred.  dense_switch=None resolves to min(max(500, sqrt(n)), 2000).
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

    def resolve_dense_switch(self, n: int) -> int:
        if self.dense_switch is not None:
            return self.dense_switch
        return min(max(500, int(math.isqrt(n))), 2000)


@dataclass
class LevelFactor:
    """One level of the factorization, in the level's final ordering.

    L is strictly lower with an implicit unit diagonal in its first n_b
    columns; U is strictly upper in its first n_b rows.  order[i] is the
    level's input index in factor position i (the same symmetric
    permutation applies to rows and columns).  dr/dc are the equilibration
    scalings in input order.
    """

    n: int
    n_b: int
    order: np.ndarray
    dr: np.ndarray
    dc: np.ndarray
    L: sp.csr_matrix
    U: sp.csr_matrix
    D: np.ndarray
    n_static_deferred: int = 0
    n_dynamic_deferred: int = 0

    @property
    def nnz(self) -> int:
        return int(self.L.nnz + self.U.nnz + self.D.size)

    @cached_property
    def _solve_forms(self):
        """(L+I) as CSC and (U+I) as CSR, both with sorted indices, built on
        the first solve.  spsolve_triangular then substitutes on them as they
        are: no copy, no structural insert, and with overwrite_A its
        setdiag(1) only rewrites the stored unit diagonal."""
        lo = self.L.tocsc()
        up = self.U.copy()
        for t in (lo, up):
            t.setdiag(1.0)
            t.sort_indices()
        return lo, up


@dataclass
class MultilevelFactor:
    levels: list[LevelFactor]
    tail_lu: tuple | None
    tail_n: int
    perturbed: bool
    total_nnz: int
    n: int

    def level_stats(self):
        """Per-level (level, n, n_b, deferred, nnz) rows; the dense tail is
        reported as the last row."""
        rows = []
        for k, lev in enumerate(self.levels):
            rows.append(
                {
                    "level": k + 1,
                    "n": lev.n,
                    "n_b": lev.n_b,
                    "deferred": lev.n_static_deferred + lev.n_dynamic_deferred,
                    "nnz": lev.nnz,
                }
            )
        rows.append(
            {
                "level": len(self.levels) + 1,
                "n": self.tail_n,
                "n_b": self.tail_n,
                "deferred": 0,
                "nnz": self.tail_n * self.tail_n,
            }
        )
        return rows


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
    col_counts = np.diff(a.tocsc().indptr)
    if np.any(col_counts == 0):
        raise FactorizationError(f"structurally empty column {int(np.argmax(col_counts == 0))}")

    dr = np.ones(n)
    dc = np.ones(n)
    for _ in range(10):
        scaled = abs(_scale(a, dr, dc))
        rn = scaled.max(axis=1).toarray().ravel()
        cn = scaled.max(axis=0).toarray().ravel()
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
    block was statically deferred).  Each stored U row (L column) keeps at
    most max(5, ceil(alpha * nnz)) entries, nnz being the stored entries of
    that row (column) of ``a``, explicit zeros included.

    Step k gathers row k and column k of the active matrix, each as A's
    entries minus the stored U rows (L columns) of the pivots whose L column
    (U row) reaches k, summed in a dense accumulator.  An accepted pivot
    stores its dropped U row and L column once, as sorted index/value
    arrays in ``a``'s indices, and hands each entry at a pending index to
    that index's list of (pivot, multiplier) pairs.  A deferred index keeps
    its entries in the stored factors; they are the L_NB and U_BN blocks of
    the Schur complement S = A_NN - L_NB diag(D) U_BN over the
    non-eliminated indices N, formed after the loop with one sparse product
    and keeping every stored entry of A_NN.  Returns a LevelFactor (with
    unit scalings and the dynamic-reordering order) and S.
    """
    acsr = as_csr(a)
    n = acsr.shape[0]
    ncand = n if n_candidates is None else int(n_candidates)
    acsc = acsr.tocsc()
    acsc.sort_indices()

    counts = np.diff([acsr.indptr, acsc.indptr])
    u_caps, l_caps = np.maximum(_CAP_FLOOR, np.ceil(params.alpha * counts).astype(np.intp))
    droptol = params.droptol
    pivot_floor = params.pivot_floor
    cond_thresh = params.cond_thresh

    # status: 0 pending candidate, 1 eliminated, 2 deferred or trailing
    status = np.zeros(n, dtype=np.int8)
    status[ncand:] = 2
    elim: list[int] = []
    # by elimination rank t: the pivot, the incremental inverse-norm
    # estimator states for L and U, and the stored U row and L column
    # (index arrays, value arrays, lengths)
    diag = np.zeros(ncand)
    v_low = np.zeros(ncand)
    v_up = np.zeros(ncand)
    est_low = 1.0
    est_up = 1.0
    upper = ([], [], np.zeros(ncand, dtype=np.intp))
    lower = ([], [], np.zeros(ncand, dtype=np.intp))
    # (rank, multiplier) pairs reaching each pending index k: l_kt from the
    # L columns update row k, u_tk from the U rows update column k
    row_pairs = [([], []) for _ in range(ncand)]
    col_pairs = [([], []) for _ in range(ncand)]
    acc = np.zeros(n)  # dense accumulator, all zero between gathers
    mark = np.zeros(n, dtype=np.intp)

    def gather(m, k, pairs, stored, v):
        """Row (CSR ``m``, stored U rows) or column (CSC ``m``, stored L
        columns) k of the active matrix, sorted and restricted to the
        non-eliminated indices, and the estimator 1 + |sum_t mult_t v_t|."""
        (ts, mults), (idx, val, lens) = pairs, stored
        mults = np.array(mults)
        lo, hi = m.indptr[k], m.indptr[k + 1]
        gi = np.concatenate([m.indices[lo:hi], *[idx[t] for t in ts]])
        gv = np.concatenate([m.data[lo:hi], *[val[t] for t in ts]])
        gv[hi - lo:] *= np.repeat(-mults * diag[ts], lens[ts])
        np.add.at(acc, gi, gv)
        # one position of each repeated index wins the write, so exactly one
        # copy of every index passes the test below
        first = np.arange(gi.size)
        mark[gi] = first
        uq = np.sort(gi[mark[gi] == first])
        sums = acc[uq]
        acc[uq] = 0.0
        live = status[uq] != 1
        return uq[live], sums[live], 1.0 + abs(mults @ v[ts])

    def _dual_drop(idx, val, est, cap):
        if droptol > 0.0 and idx.size:
            keep = np.abs(val) * est > droptol
            idx, val = idx[keep], val[keep]
        if idx.size > cap:
            sel = np.lexsort((idx, -np.abs(val)))[:cap]
            sel.sort()
            idx, val = idx[sel], val[sel]
        return idx, val

    def store(t, k, idx, val, est, cap, stored, pairs):
        """Drop, then store pivot k's U row or L column (``val`` already
        divided by the pivot) and hand its pending entries to ``pairs``."""
        keep = idx != k
        idx, val = _dual_drop(idx[keep], val[keep], est, cap)
        stored_idx, stored_val, lens = stored
        stored_idx.append(idx)
        stored_val.append(val)
        lens[t] = idx.size
        pend = status[idx] == 0
        for j, x in zip(idx[pend].tolist(), val[pend].tolist()):
            pairs[j][0].append(t)
            pairs[j][1].append(x)

    n_dynamic = 0
    for k in range(ncand):
        ridx, rval, vlk = gather(acsr, k, row_pairs[k], upper, v_low)
        cidx, cval, vuk = gather(acsc, k, col_pairs[k], lower, v_up)
        row_pairs[k] = col_pairs[k] = None
        at = np.searchsorted(ridx, k)
        pivot = rval[at] if at < ridx.size and ridx[at] == k else 0.0
        if abs(pivot) < pivot_floor or vlk > cond_thresh or vuk > cond_thresh:
            status[k] = 2
            n_dynamic += 1
            continue
        t = len(elim)
        status[k] = 1
        elim.append(k)
        diag[t], v_low[t], v_up[t] = pivot, vlk, vuk
        est_low = max(est_low, vlk)
        est_up = max(est_up, vuk)
        store(t, k, ridx, rval / pivot, est_up, u_caps[k], upper, col_pairs)
        store(t, k, cidx, cval / pivot, est_low, l_caps[k], lower, row_pairs)

    # -- the level in elimination-then-deferred order, and its Schur complement --
    n_b = len(elim)
    nonelim = np.flatnonzero(status != 1)
    order = np.concatenate([np.asarray(elim, dtype=np.intp), nonelim])
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)

    def by_pivot(stored):
        """(rank, factor position, value) of every stored entry."""
        idx, val, lens = stored
        return (np.repeat(np.arange(n_b), lens[:n_b]),
                pos[np.concatenate([np.zeros(0, np.intp), *idx])],
                np.concatenate([np.zeros(0), *val]))

    t, j, x = by_pivot(upper)
    u_mat = sp.csr_matrix((x, (t, j)), shape=(n, n))
    t, j, x = by_pivot(lower)
    l_mat = sp.csr_matrix((x, (j, t)), shape=(n, n))
    d = diag[:n_b].copy()
    base = acsr[nonelim, :][:, nonelim].tocoo()
    prod = (l_mat[n_b:, :n_b] @ sp.diags(d) @ u_mat[:n_b, n_b:]).tocoo()
    # summed as COO, so the stored zeros of A_NN stay stored
    schur = sp.csr_matrix(
        (np.concatenate([base.data, -prod.data]),
         (np.concatenate([base.row, prod.row]), np.concatenate([base.col, prod.col]))),
        shape=(nonelim.size, nonelim.size),
    )
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
    flagged rather than failed."""
    params = params or FactorParams()
    a = as_csr(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("factorize requires a square matrix")
    n0 = a.shape[0]
    dense_switch = params.resolve_dense_switch(n0)

    levels: list[LevelFactor] = []
    current = a
    for _ in range(_MAX_LEVELS):
        if current.shape[0] <= dense_switch:
            break
        dr, dc = equilibrate(current)
        scaled = _scale(current, dr, dc)
        fill = reorder(scaled)
        defer, ncand = static_defer(scaled.diagonal()[fill], params.diag_thresh)
        static = fill[defer]
        level, schur = crout_ilu_level(as_csr(scaled[static, :][:, static]), params, ncand)
        if level.n_b == 0:
            # no pivot was acceptable; stop and hand everything to the tail
            break
        levels.append(
            replace(level, order=static[level.order], dr=dr, dc=dc)
        )
        current = schur

    tail = current.toarray()
    tail_n = tail.shape[0]
    perturbed = False
    if tail_n:
        with warnings.catch_warnings():
            # singular tails are expected (e.g. pure-Neumann null spaces) and
            # handled by the pivot perturbation below
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(tail, check_finite=False)
        scale = np.abs(tail).max()
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


def _solve_from(m: MultilevelFactor, li: int, v: np.ndarray) -> np.ndarray:
    if li == len(m.levels):
        if m.tail_n == 0:
            return v.copy()
        with _TAIL_LOCK:
            return scipy.linalg.lu_solve(m.tail_lu, v, check_finite=False)
    lev = m.levels[li]
    y = (lev.dr * v)[lev.order]
    lo, up = lev._solve_forms
    y = spsolve_triangular(lo, y, lower=True, unit_diagonal=True,
                           overwrite_A=True, overwrite_b=True)
    nb = lev.n_b
    if nb:
        y[:nb] /= lev.D
    y[nb:] = _solve_from(m, li + 1, y[nb:])
    y = spsolve_triangular(up, y, lower=False, unit_diagonal=True,
                           overwrite_A=True, overwrite_b=True)
    out = np.empty_like(y)
    out[lev.order] = y
    return out * lev.dc


def ml_solve(m: MultilevelFactor, v: np.ndarray) -> np.ndarray:
    """Apply the factored preconditioner: one multilevel forward/backward
    substitution pass on each level's solve form (built on the first call,
    reused after).  Leaves the factor unchanged; concurrent calls on one
    factor are safe."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (m.n,):
        raise ValueError(f"vector length {v.shape} does not match factor size {m.n}")
    return _solve_from(m, 0, v)
