"""Matrix Market exchange.

Coordinate format (real/integer, general/symmetric/skew-symmetric) for
sparse matrices and array format for dense vectors.  Values are written
with 17 significant digits so a write/read round trip is bitwise exact.
Symmetric storage is expanded to general storage on read, and NaN or
infinite values are rejected.  Indices are 1-based on disk and 0-based in
memory.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .sparse import as_csr

__all__ = ["MatrixMarketError", "mm_read", "mm_write"]


class MatrixMarketError(ValueError):
    """Malformed or unsupported Matrix Market content."""


def _fail(path, lineno, line, why):
    raise MatrixMarketError(f"{path}:{lineno}: {why} (line was: {line.strip()!r})")


def _finite(path, vals: np.ndarray) -> np.ndarray:
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise MatrixMarketError(f"{path}: value {bad[0] + 1} is not finite ({vals[bad[0]]})")
    return vals


def mm_read(path, kind: str = "matrix"):
    """Read a Matrix Market file.

    kind="matrix" returns a CSR matrix (coordinate or array format);
    kind="vector" returns a 1-D float array and requires a single column.
    """
    if kind not in ("matrix", "vector"):
        raise ValueError(f"kind must be 'matrix' or 'vector', got {kind!r}")
    with open(path, "r", encoding="ascii") as f:
        lines = f.readlines()
    if not lines:
        raise MatrixMarketError(f"{path}: empty file")

    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        _fail(path, 1, lines[0], "expected '%%MatrixMarket object format field symmetry' header")
    obj, fmt, field, symmetry = (w.lower() for w in header[1:])
    if obj != "matrix":
        _fail(path, 1, lines[0], f"unsupported object {obj!r}")
    if fmt not in ("coordinate", "array"):
        _fail(path, 1, lines[0], f"unsupported format {fmt!r}")
    if field in ("complex", "pattern"):
        _fail(path, 1, lines[0], f"unsupported field type {field!r}")
    if field not in ("real", "integer"):
        _fail(path, 1, lines[0], f"unknown field type {field!r}")
    if symmetry not in ("general", "symmetric", "skew-symmetric"):
        _fail(path, 1, lines[0], f"unsupported symmetry {symmetry!r}")

    # skip comments and blank lines up to the size line
    pos = 1
    while pos < len(lines) and (lines[pos].startswith("%") or not lines[pos].strip()):
        pos += 1
    if pos >= len(lines):
        raise MatrixMarketError(f"{path}: missing size line")
    size_tok = lines[pos].split()

    if fmt == "coordinate":
        if len(size_tok) != 3:
            _fail(path, pos + 1, lines[pos], "coordinate size line needs 'nrows ncols nnz'")
        try:
            nrows, ncols, nnz = (int(t) for t in size_tok)
        except ValueError:
            _fail(path, pos + 1, lines[pos], "size line entries must be integers")
        if min(nrows, ncols, nnz) < 0:
            _fail(path, pos + 1, lines[pos], "sizes must be nonnegative")
        # grown from the entries present, never allocated from the declared
        # count, so an impossible count fails without a huge allocation
        rows, cols, vals = [], [], []
        for lineno in range(pos + 1, len(lines)):
            line = lines[lineno]
            if line.startswith("%") or not line.strip():
                continue
            tok = line.split()
            if len(tok) != 3:
                _fail(path, lineno + 1, line, "coordinate entry needs 'row col value'")
            if len(vals) >= nnz:
                _fail(path, lineno + 1, line, f"more than the declared {nnz} entries")
            try:
                i, j, v = int(tok[0]), int(tok[1]), float(tok[2])
            except ValueError:
                _fail(path, lineno + 1, line, "malformed coordinate entry")
            if not (1 <= i <= nrows and 1 <= j <= ncols):
                _fail(path, lineno + 1, line, "index out of declared range")
            rows.append(i - 1)
            cols.append(j - 1)
            vals.append(v)
        if len(vals) != nnz:
            raise MatrixMarketError(f"{path}: declared {nnz} entries, found {len(vals)}")
        mat = _expand_symmetry(np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
                               _finite(path, np.array(vals, dtype=np.float64)), nrows, ncols,
                               symmetry)
        if kind == "vector":
            if ncols != 1:
                raise MatrixMarketError(f"{path}: vector requested but file has {ncols} columns")
            out = np.zeros(nrows)
            m = mat.tocoo()
            out[m.row] = m.data
            return out
        return mat

    # array format: column-major dense values
    if len(size_tok) != 2:
        _fail(path, pos + 1, lines[pos], "array size line needs 'nrows ncols'")
    try:
        nrows, ncols = int(size_tok[0]), int(size_tok[1])
    except ValueError:
        _fail(path, pos + 1, lines[pos], "size line entries must be integers")
    if symmetry != "general":
        _fail(path, pos + 1, lines[pos], "symmetric array storage not supported")
    if min(nrows, ncols) < 0:
        _fail(path, pos + 1, lines[pos], "sizes must be nonnegative")
    want = nrows * ncols
    vals = []
    for lineno in range(pos + 1, len(lines)):
        line = lines[lineno]
        if line.startswith("%") or not line.strip():
            continue
        for tok in line.split():
            if len(vals) >= want:
                _fail(path, lineno + 1, line, f"more than the declared {want} values")
            try:
                vals.append(float(tok))
            except ValueError:
                _fail(path, lineno + 1, line, f"malformed value {tok!r}")
    if len(vals) != want:
        raise MatrixMarketError(f"{path}: declared {want} values, found {len(vals)}")
    dense = _finite(path, np.array(vals, dtype=np.float64)).reshape((ncols, nrows)).T
    if kind == "vector":
        if ncols != 1:
            raise MatrixMarketError(f"{path}: vector requested but file has {ncols} columns")
        return dense[:, 0].copy()
    return as_csr(dense)


def _expand_symmetry(rows, cols, vals, nrows, ncols, symmetry):
    if symmetry != "general":
        off = rows != cols
        sgn = -1.0 if symmetry == "skew-symmetric" else 1.0
        rows, cols = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
        vals = np.concatenate([vals, sgn * vals[off]])
    return as_csr(sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols)))


def mm_write(obj, path) -> None:
    """Write a CSR matrix (coordinate general) or 1-D vector (array)."""
    if isinstance(obj, np.ndarray):
        if obj.ndim != 1:
            raise ValueError("only 1-D arrays are written as vectors")
        with open(path, "w", encoding="ascii") as f:
            f.write("%%MatrixMarket matrix array real general\n")
            f.write(f"{obj.size} 1\n")
            for v in obj:
                f.write(f"{v:.16e}\n")
        return
    a = obj.tocoo()
    with open(path, "w", encoding="ascii") as f:
        f.write("%%MatrixMarket matrix coordinate real general\n")
        f.write(f"{a.shape[0]} {a.shape[1]} {a.nnz}\n")
        for i, j, v in zip(a.row, a.col, a.data):
            f.write(f"{i + 1} {j + 1} {v:.16e}\n")
