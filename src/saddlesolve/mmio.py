"""File exchange: Matrix Market for matrices and vectors, CSV for run artifacts.

Coordinate (real/integer, general/symmetric/skew-symmetric) or array format
for matrices and array format for vectors; numpy's compiled reader parses the
data lines.  Symmetric files hold the lower triangle and skew-symmetric ones
the strict lower triangle, as scipy's mmwrite writes them.  Values are written
with 17 significant digits (a bitwise round trip); NaN or infinite values are
rejected.  Indices are 1-based on disk and 0-based in memory.
"""

from __future__ import annotations

import itertools
import operator
import re
import warnings

import numpy as np
import scipy.sparse as sp

from .sparse import as_csr

__all__ = ["MatrixMarketError", "mm_read", "mm_write", "write_csv"]


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
    """Read a Matrix Market file: a CSR matrix for kind="matrix" (coordinate or
    array format), a 1-D float array for kind="vector" (one column only)."""
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
    coordinate = fmt == "coordinate"
    size_tok = lines[pos].split()
    if len(size_tok) != (3 if coordinate else 2):
        _fail(path, pos + 1, lines[pos], "coordinate size line needs 'nrows ncols nnz'"
              if coordinate else "array size line needs 'nrows ncols'")
    try:
        sizes = [int(t) for t in size_tok]
    except ValueError:
        _fail(path, pos + 1, lines[pos], "size line entries must be integers")
    if not coordinate and symmetry != "general":
        _fail(path, pos + 1, lines[pos], "symmetric array storage not supported")
    if min(sizes) < 0:
        _fail(path, pos + 1, lines[pos], "sizes must be nonnegative")
    nrows, ncols = sizes[:2]
    if kind == "vector" and ncols != 1:
        raise MatrixMarketError(f"{path}: vector requested but file has {ncols} columns")

    # the declared count is never used to allocate, so an impossible one fails cheaply
    body = _parse_body(path, lines, pos + 1, coordinate)
    want, noun = (sizes[2], "entries") if coordinate else (nrows * ncols, "values")
    if not coordinate and body.size > want:  # name the line that runs over
        data = _data_lines(lines, pos + 1)
        over = np.cumsum([len(line.split()) for _, line in data]) > want
        _fail(path, *data[over.argmax()], f"more than the declared {want} values")
    if body.size != want:
        raise MatrixMarketError(f"{path}: declared {want} {noun}, found {body.size}")
    if not coordinate:  # column-major dense values
        vals = _finite(path, body)
        return vals if kind == "vector" else as_csr(vals.reshape((ncols, nrows)).T)

    rows, cols = body["i"] - 1, body["j"] - 1
    bad = (rows < 0) | (rows >= nrows) | (cols < 0) | (cols >= ncols)
    if bad.any():
        _fail(path, *_data_lines(lines, pos + 1)[bad.argmax()], "index out of declared range")
    vals = _finite(path, body["v"])
    if symmetry != "general":  # the file holds the lower triangle (strict if skew): mirror it
        skew = symmetry == "skew-symmetric"
        upper = rows <= cols if skew else rows < cols
        if upper.any():
            _fail(path, *_data_lines(lines, pos + 1)[upper.argmax()],
                  f"entry outside the lower triangle that {symmetry} storage holds")
        off = rows != cols
        rows, cols = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
        vals = np.concatenate([vals, (-1.0 if skew else 1.0) * vals[off]])
    mat = as_csr(sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols)))
    return mat.toarray()[:, 0] if kind == "vector" else mat


def _loadtxt(rows, dtype):
    """rows parsed by np.loadtxt, or None if one of them does not parse."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on empty input
        # numpy releases that only deprecate reading an index such as 1.5 truncate it
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(rows, dtype=dtype, comments=None, ndmin=1)
        except ValueError:
            return None


def _parse_body(path, lines, start, coordinate: bool) -> np.ndarray:
    """Parse lines[start:] with numpy's compiled reader: an (i, j, v) record per coordinate
    line, a float per array token; if that fails, name the first bad data line."""
    entry = np.dtype([("i", np.intp), ("j", np.intp), ("v", np.float64)])
    body = list(itertools.filterfalse(operator.methodcaller("startswith", "%"), lines[start:]))
    parsed = _loadtxt(body, entry) if coordinate else _loadtxt("".join(body).split(), np.float64)
    if parsed is not None:
        return parsed
    for lineno, line in _data_lines(lines, start):
        tok = line.split()
        if not coordinate:
            for t in tok:
                if _loadtxt([t], np.float64) is None:
                    _fail(path, lineno, line, f"malformed value {t!r}")
        elif len(tok) != 3:
            _fail(path, lineno, line, "coordinate entry needs 'row col value'")
        elif _loadtxt([line], entry) is None:
            # integer indices too long for intp lie outside any declared range
            if (all(re.fullmatch(r"[+-]?\d+", t) for t in tok[:2])
                    and _loadtxt(tok[2:], np.float64) is not None):
                _fail(path, lineno, line, "index out of declared range")
            _fail(path, lineno, line, "malformed coordinate entry")
    raise MatrixMarketError(f"{path}: data lines do not parse")


def _data_lines(lines, start):
    """(file line number, text) of each data line, to name a bad one."""
    return [(n + 1, line) for n, line in enumerate(lines[start:], start)
            if line.strip() and not line.startswith("%")]


def mm_write(obj, path) -> None:
    """Write a CSR matrix (coordinate general) or 1-D vector (array)."""
    if isinstance(obj, np.ndarray):
        if obj.ndim != 1:
            raise ValueError("only 1-D arrays are written as vectors")
        np.savetxt(path, obj, fmt="%.16e", comments="",
                   header=f"%%MatrixMarket matrix array real general\n{obj.size} 1")
        return
    a = obj.tocoo()
    np.savetxt(path, np.column_stack([a.row + 1, a.col + 1, a.data]), fmt="%d %d %.16e",
               comments="", header="%%MatrixMarket matrix coordinate real general\n"
               f"{a.shape[0]} {a.shape[1]} {a.nnz}")


def write_csv(path, header, rows) -> None:
    """Write a CSV artifact: the header names, then one line per row.
    Floats get 17 significant digits, so they read back bit for bit;
    every other field is written with str."""
    with open(path, "w", encoding="ascii") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                             for v in row) + "\n")
