"""Multilevel Crout incomplete-LU factorization.

Each level equilibrates, reorders, statically defers small diagonals, then
runs a Crout elimination with dynamic deferring of unstable pivots and dual
dropping (inverse-based drop tolerance plus a per-row/column fill cap).
The Schur complement over all deferred and trailing indices is factorized
recursively; a dense LU with partial pivoting terminates the recursion.

Factorization is single-threaded and builds fresh state per call; the
returned MultilevelFactor is immutable and safe for concurrent solves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from .ordering import reorder
from .sparse import Permutation, as_csr

__all__ = [
    "FactorParams",
    "LevelFactor",
    "MultilevelFactor",
    "equilibrate",
    "static_defer",
    "reorder",
    "crout_ilu_level",
    "factorize",
    "ml_solve",
    "reassemble",
]

_EPS = np.finfo(np.float64).eps
_CAP_FLOOR = 5  # retained entries per row/column regardless of the fill cap


@dataclass(frozen=True)
class FactorParams:
    """Controls for one multilevel factorization.

    alpha caps per-row/column fill at ceil(alpha * sparsifier nnz);
    droptol drives inverse-based dropping; cond_thresh bounds the growth of
    the incremental inverse-norm estimates before a pivot is deferred;
    diag_thresh is the relative static-deferring threshold on scaled
    diagonals; pivot_floor is the absolute post-equilibration magnitude
    below which a pivot is deferred.  dense_switch=None resolves to
    min(max(500, sqrt(n)), 2000).  ordering is the per-level fill-reducing
    ordering: "amd" for SuperLU's multiple minimum degree on A + A^T, or
    "rcm" for reverse Cuthill-McKee.
    """

    alpha: float = 2.0
    droptol: float = 0.02
    cond_thresh: float = 5.0
    diag_thresh: float = 1e-2
    dense_switch: int | None = None
    max_levels: int = 30
    pivot_floor: float = 1e-10
    ordering: str = "amd"

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
        if self.max_levels < 1:
            raise ValueError("max_levels must be >= 1")
        if not (self.pivot_floor >= 0):
            raise ValueError("pivot_floor must be >= 0")
        if self.ordering not in ("amd", "rcm"):
            raise ValueError("ordering must be 'amd' or 'rcm'")

    def resolve_dense_switch(self, n: int) -> int:
        if self.dense_switch is not None:
            return self.dense_switch
        return min(max(500, int(math.isqrt(n))), 2000)


@dataclass
class LevelFactor:
    """One level of the factorization, in the level's final ordering.

    L is strictly lower with an implicit unit diagonal in its first n_b
    columns; U is strictly upper in its first n_b rows.  perm maps the
    level's input indices to factor order (the same symmetric permutation
    applies to rows and columns).  dr/dc are the equilibration scalings in
    input order.
    """

    n: int
    n_b: int
    perm: Permutation
    dr: np.ndarray
    dc: np.ndarray
    L: sp.csr_matrix
    U: sp.csr_matrix
    D: np.ndarray
    caps_row: np.ndarray
    caps_col: np.ndarray
    n_static_deferred: int = 0
    n_dynamic_deferred: int = 0

    @property
    def nnz(self) -> int:
        return int(self.L.nnz + self.U.nnz + self.D.size)


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


def _row_inf_norms(a: sp.csr_matrix) -> np.ndarray:
    out = np.zeros(a.shape[0])
    if a.nnz:
        counts = np.diff(a.indptr)
        nz = counts > 0
        out[nz] = np.maximum.reduceat(np.abs(a.data), a.indptr[:-1][nz])
    return out


def equilibrate(a: sp.csr_matrix):
    """Iterative row/column infinity-norm scaling (Ruiz sweeps, capped at
    10).  Returns positive (dr, dc) such that every nonzero row and column
    of diag(dr) A diag(dc) has infinity norm in [1/2, 2]."""
    n, m = a.shape
    if n != m:
        raise ValueError("equilibrate requires a square matrix")
    row_counts = np.diff(a.indptr)
    if np.any(row_counts == 0):
        raise ValueError(f"structurally empty row {int(np.argmax(row_counts == 0))}")
    acsc = a.tocsc()
    col_counts = np.diff(acsc.indptr)
    if np.any(col_counts == 0):
        raise ValueError(f"structurally empty column {int(np.argmax(col_counts == 0))}")

    dr = np.ones(n)
    dc = np.ones(n)
    rows_of = np.repeat(np.arange(n), row_counts)
    cols_of = a.indices
    for _ in range(10):
        data = a.data * dr[rows_of] * dc[cols_of]
        scaled = sp.csr_matrix((data, a.indices, a.indptr), shape=a.shape)
        rn = _row_inf_norms(scaled)
        cn = _row_inf_norms(scaled.T.tocsr())
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


def static_defer(a_scaled: sp.csr_matrix, diag_thresh: float):
    """Stable symmetric permutation pushing indices whose scaled diagonal
    magnitude falls below diag_thresh * max_j |A_jj| behind the rest.
    Returns the permutation and the number of kept (leading) indices."""
    d = np.abs(a_scaled.diagonal())
    thr = diag_thresh * (d.max() if d.size else 0.0)
    keep = d >= thr
    order = np.concatenate([np.flatnonzero(keep), np.flatnonzero(~keep)])
    return Permutation.from_inverse(order), int(np.count_nonzero(keep))


def _scale(a: sp.csr_matrix, dr: np.ndarray, dc: np.ndarray) -> sp.csr_matrix:
    data = a.data * np.repeat(dr, np.diff(a.indptr)) * dc[a.indices]
    return sp.csr_matrix((data, a.indices.copy(), a.indptr.copy()), shape=a.shape)


def _sym_permute(a: sp.csr_matrix, p: Permutation) -> sp.csr_matrix:
    out = sp.csr_matrix(a[p.inverse, :][:, p.inverse])
    out.sort_indices()
    return out


def crout_ilu_level(
    a: sp.csr_matrix,
    params: FactorParams,
    nnz_budget_row: np.ndarray,
    nnz_budget_col: np.ndarray,
    n_candidates: int | None = None,
):
    """One level of Crout elimination with dynamic deferring and dual
    dropping.

    ``a`` must already be scaled, reordered and statically deferred; only
    the leading ``n_candidates`` indices are pivot candidates (the trailing
    block was statically deferred).  Budgets are the per-row/column nnz of
    the original sparsifier, in ``a``'s index order.  Returns a LevelFactor
    (with unit scalings and the dynamic-reordering permutation) and the
    Schur complement over all non-eliminated indices.
    """
    acsr = as_csr(a)
    n = acsr.shape[0]
    ncand = n if n_candidates is None else int(n_candidates)
    acsc = acsr.tocsc()
    acsc.sort_indices()

    caps_row = np.maximum(_CAP_FLOOR, np.ceil(params.alpha * np.asarray(nnz_budget_row)).astype(np.intp))
    caps_col = np.maximum(_CAP_FLOOR, np.ceil(params.alpha * np.asarray(nnz_budget_col)).astype(np.intp))
    droptol = params.droptol
    pivot_floor = params.pivot_floor
    cond_thresh = params.cond_thresh

    # status: 0 pending candidate, 1 eliminated, 2 deferred or trailing
    status = np.zeros(n, dtype=np.int8)
    status[ncand:] = 2

    diag = np.zeros(n)
    v_low = np.zeros(n)  # incremental inverse-norm estimator state for L
    v_up = np.zeros(n)   # and for U
    est_low = 1.0
    est_up = 1.0

    # Per-pivot factor columns/rows, indexed by matrix index.  The "cand"
    # arrays hold entries at candidate indices in ascending order and are
    # walked once by a pointer; entries at deferred/trailing indices live in
    # "schur" arrays plus a small overflow list fed by relocations (merged
    # into the array on first use).
    l_ci: list = [None] * n
    l_cv: list = [None] * n
    l_ptr = np.zeros(n, dtype=np.intp)
    l_si: list = [None] * n
    l_sv: list = [None] * n
    l_extra: list = [None] * n
    u_ci: list = [None] * n
    u_cv: list = [None] * n
    u_ptr = np.zeros(n, dtype=np.intp)
    u_si: list = [None] * n
    u_sv: list = [None] * n
    u_extra: list = [None] * n
    l_parked: list[list] = [[] for _ in range(n)]
    u_parked: list[list] = [[] for _ in range(n)]
    elim: list[int] = []

    def _merge_extra(si, sv, extra, i):
        pairs = extra[i]
        si[i] = np.concatenate([si[i], np.array([p[0] for p in pairs], dtype=np.intp)])
        sv[i] = np.concatenate([sv[i], np.array([p[1] for p in pairs])])
        extra[i] = []

    def park_l(i):
        ci = l_ci[i]
        cv = l_cv[i]
        p = l_ptr[i]
        size = ci.size
        while p < size:
            j = ci[p]
            st = status[j]
            if st == 0:
                l_parked[j].append(i)
                break
            if st == 2:
                l_extra[i].append((j, cv[p]))
            p += 1
        l_ptr[i] = p

    def park_u(i):
        ci = u_ci[i]
        cv = u_cv[i]
        p = u_ptr[i]
        size = ci.size
        while p < size:
            j = ci[p]
            st = status[j]
            if st == 0:
                u_parked[j].append(i)
                break
            if st == 2:
                u_extra[i].append((j, cv[p]))
            p += 1
        u_ptr[i] = p

    def _dual_drop(idx, val, est, cap):
        if droptol > 0.0 and idx.size:
            keep = np.abs(val) * est > droptol
            idx = idx[keep]
            val = val[keep]
        if idx.size > cap:
            sel = np.lexsort((idx, -np.abs(val)))[:cap]
            sel.sort()
            idx = idx[sel]
            val = val[sel]
        return idx, val

    n_dynamic = 0
    for k in range(ncand):
        # -- row k (future U row, and the pivot) --
        lo, hi = acsr.indptr[k], acsr.indptr[k + 1]
        cols0 = acsr.indices[lo:hi]
        vals0 = acsr.data[lo:hi]
        live = status[cols0] != 1
        ridx_parts = [cols0[live]]
        rval_parts = [vals0[live]]
        s_low = 0.0
        for i in l_parked[k]:
            lki = l_cv[i][l_ptr[i]]
            coef = lki * diag[i]
            s_low += lki * v_low[i]
            p = u_ptr[i]
            ci = u_ci[i]
            if p < ci.size:
                ridx_parts.append(ci[p:])
                rval_parts.append(u_cv[i][p:] * (-coef))
            if u_extra[i]:
                _merge_extra(u_si, u_sv, u_extra, i)
            if u_si[i].size:
                ridx_parts.append(u_si[i])
                rval_parts.append(u_sv[i] * (-coef))
        ridx = np.concatenate(ridx_parts)
        rval = np.concatenate(rval_parts)
        uq_r, inv_r = np.unique(ridx, return_inverse=True)
        sum_r = np.bincount(inv_r, weights=rval)
        pos = np.searchsorted(uq_r, k)
        pivot = sum_r[pos] if pos < uq_r.size and uq_r[pos] == k else 0.0

        # -- column k (future L column) --
        lo, hi = acsc.indptr[k], acsc.indptr[k + 1]
        rows0 = acsc.indices[lo:hi]
        cvals0 = acsc.data[lo:hi]
        live = status[rows0] != 1
        cidx_parts = [rows0[live]]
        cval_parts = [cvals0[live]]
        s_up = 0.0
        for i in u_parked[k]:
            uki = u_cv[i][u_ptr[i]]
            coef = uki * diag[i]
            s_up += uki * v_up[i]
            p = l_ptr[i]
            ci = l_ci[i]
            if p < ci.size:
                cidx_parts.append(ci[p:])
                cval_parts.append(l_cv[i][p:] * (-coef))
            if l_extra[i]:
                _merge_extra(l_si, l_sv, l_extra, i)
            if l_si[i].size:
                cidx_parts.append(l_si[i])
                cval_parts.append(l_sv[i] * (-coef))
        cidx = np.concatenate(cidx_parts)
        cval = np.concatenate(cval_parts)
        uq_c, inv_c = np.unique(cidx, return_inverse=True)
        sum_c = np.bincount(inv_c, weights=cval)

        vlk = 1.0 + abs(s_low)
        vuk = 1.0 + abs(s_up)
        if abs(pivot) < pivot_floor or vlk > cond_thresh or vuk > cond_thresh:
            status[k] = 2
            n_dynamic += 1
        else:
            status[k] = 1
            diag[k] = pivot
            v_low[k] = vlk
            v_up[k] = vuk
            est_low = max(est_low, vlk)
            est_up = max(est_up, vuk)
            elim.append(k)

            keep = uq_r != k
            ucols, uvals = _dual_drop(uq_r[keep], sum_r[keep] / pivot, est_up, caps_row[k])
            pend = status[ucols] == 0
            u_ci[k] = ucols[pend]
            u_cv[k] = uvals[pend]
            u_si[k] = ucols[~pend]
            u_sv[k] = uvals[~pend]
            u_extra[k] = []

            keep = uq_c != k
            lrows, lvals = _dual_drop(uq_c[keep], sum_c[keep] / pivot, est_low, caps_col[k])
            pend = status[lrows] == 0
            l_ci[k] = lrows[pend]
            l_cv[k] = lvals[pend]
            l_si[k] = lrows[~pend]
            l_sv[k] = lvals[~pend]
            l_extra[k] = []

            park_l(k)
            park_u(k)

        for i in l_parked[k]:
            park_l(i)
        for i in u_parked[k]:
            park_u(i)
        l_parked[k] = []
        u_parked[k] = []

    # -- Schur complement over everything not eliminated --
    nonelim = np.flatnonzero(status != 1)
    ns = nonelim.size
    spos = np.full(n, -1, dtype=np.intp)
    spos[nonelim] = np.arange(ns)
    base = acsr[nonelim, :][:, nonelim].tocoo()
    s_rows = [base.row.astype(np.intp)]
    s_cols = [base.col.astype(np.intp)]
    s_vals = [base.data]
    for i in elim:
        if l_extra[i]:
            _merge_extra(l_si, l_sv, l_extra, i)
        if u_extra[i]:
            _merge_extra(u_si, u_sv, u_extra, i)
        le_i = l_si[i]
        uf_i = u_si[i]
        if le_i.size and uf_i.size:
            s_rows.append(np.repeat(spos[le_i], uf_i.size))
            s_cols.append(np.tile(spos[uf_i], le_i.size))
            s_vals.append((-diag[i]) * np.outer(l_sv[i], u_sv[i]).ravel())
    schur = sp.coo_matrix(
        (np.concatenate(s_vals), (np.concatenate(s_rows), np.concatenate(s_cols))),
        shape=(ns, ns),
    ).tocsr()
    schur.sum_duplicates()
    schur.sort_indices()

    # -- assemble the level in elimination-then-deferred order --
    n_b = len(elim)
    order = np.concatenate([np.asarray(elim, dtype=np.intp), nonelim])
    perm = Permutation.from_inverse(order)
    rank = perm.forward

    lr, lc, lv, ur, uc, uv = [], [], [], [], [], []
    for t, i in enumerate(elim):
        ci = l_ci[i]
        cmask = status[ci] == 1
        rows = np.concatenate([rank[ci[cmask]], rank[l_si[i]]])
        vals = np.concatenate([l_cv[i][cmask], l_sv[i]])
        lr.append(rows)
        lc.append(np.full(rows.size, t, dtype=np.intp))
        lv.append(vals)
        ci = u_ci[i]
        cmask = status[ci] == 1
        cols = np.concatenate([rank[ci[cmask]], rank[u_si[i]]])
        vals = np.concatenate([u_cv[i][cmask], u_sv[i]])
        uc.append(cols)
        ur.append(np.full(cols.size, t, dtype=np.intp))
        uv.append(vals)

    def _tocsr(rows, cols, vals):
        if rows:
            m = sp.coo_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=(n, n),
            ).tocsr()
        else:
            m = sp.csr_matrix((n, n))
        m.sort_indices()
        return m

    level = LevelFactor(
        n=n,
        n_b=n_b,
        perm=perm,
        dr=np.ones(n),
        dc=np.ones(n),
        L=_tocsr(lr, lc, lv),
        U=_tocsr(ur, uc, uv),
        D=diag[np.asarray(elim, dtype=np.intp)] if n_b else np.zeros(0),
        caps_row=caps_row[np.asarray(elim, dtype=np.intp)] if n_b else np.zeros(0, np.intp),
        caps_col=caps_col[np.asarray(elim, dtype=np.intp)] if n_b else np.zeros(0, np.intp),
        n_static_deferred=n - ncand,
        n_dynamic_deferred=n_dynamic,
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
    for _ in range(params.max_levels):
        n = current.shape[0]
        if n <= dense_switch:
            break
        dr, dc = equilibrate(current)
        scaled = _scale(current, dr, dc)
        p_fill = reorder(scaled, method=params.ordering)
        b = _sym_permute(scaled, p_fill)
        p_defer, ncand = static_defer(b, params.diag_thresh)
        b = _sym_permute(b, p_defer)
        p_static = p_defer.compose(p_fill)
        budget = np.diff(current.indptr)
        budget_row = budget[p_static.inverse]
        budget_col = np.diff(current.tocsc().indptr)[p_static.inverse]
        level, schur = crout_ilu_level(b, params, budget_row, budget_col, ncand)
        if level.n_b == 0:
            # no pivot was acceptable; stop and hand everything to the tail
            break
        levels.append(
            replace(level, perm=level.perm.compose(p_static), dr=dr, dc=dc)
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
        return scipy.linalg.lu_solve(m.tail_lu, v, check_finite=False)
    lev = m.levels[li]
    y = (lev.dr * v)[lev.perm.inverse]
    y = spsolve_triangular(lev.L, y, lower=True, unit_diagonal=True)
    nb = lev.n_b
    if nb:
        y[:nb] /= lev.D
    y[nb:] = _solve_from(m, li + 1, y[nb:])
    y = spsolve_triangular(lev.U, y, lower=False, unit_diagonal=True)
    out = np.empty_like(y)
    out[lev.perm.inverse] = y
    return out * lev.dc


def ml_solve(m: MultilevelFactor, v: np.ndarray) -> np.ndarray:
    """Apply the factored preconditioner: one multilevel forward/backward
    substitution pass."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (m.n,):
        raise ValueError(f"vector length {v.shape} does not match factor size {m.n}")
    return _solve_from(m, 0, v)


def reassemble(m: MultilevelFactor) -> np.ndarray:
    """Rebuild the dense matrix the factorization represents (testing aid);
    exact factorizations reproduce the input."""

    def tail_dense():
        if m.tail_n == 0:
            return np.zeros((0, 0))
        lu, piv = m.tail_lu
        n = m.tail_n
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
        lf = lev.L.toarray() + np.eye(n)
        uf = lev.U.toarray() + np.eye(n)
        mid = np.zeros((n, n))
        mid[:nb, :nb] = np.diag(lev.D)
        mid[nb:, nb:] = level_dense(li + 1)
        b = lf @ mid @ uf
        scaled = b[lev.perm.forward][:, lev.perm.forward]
        return scaled / lev.dr[:, None] / lev.dc[None, :]

    return level_dense(0)
