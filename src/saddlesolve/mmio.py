"""File exchange: Matrix Market for matrices and vectors, CSV for run artifacts.

Coordinate (real/integer, general/symmetric/skew-symmetric) or array format
for matrices and array format for vectors.  The reader takes the header and
the lines up to the size line one at a time, then the body in one read;
whole comment lines ('%' first) and blank lines may stand anywhere, and
comment lines are cut out of the body only when it holds a '%'.  numpy's
compiled reader parses the rest: one record per coordinate line, one value
per array token.  A '%' after data on a line is malformed.  Only a body
that fails to parse is split into numbered lines, to name the bad one.
Files are read as Latin-1, so a comment line may hold any byte; a byte
outside ASCII anywhere else makes its line malformed.
Symmetric files hold the lower triangle and skew-symmetric ones
the strict lower triangle, as scipy's mmwrite writes them.  Values are written
with 17 significant digits (a bitwise round trip); NaN or infinite values are
rejected.  Indices are 1-based on disk and 0-based in memory.
"""

from __future__ import annotations

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
    with open(path, "r", encoding="latin-1") as f:
        first = f.readline()
        # the comments and blank lines up to the size line one by one, then the body at once
        size_no, size_line = 2, f.readline()
        while size_line and (size_line.startswith("%")
                             or size_line.isascii() and not size_line.strip()):
            size_no, size_line = size_no + 1, f.readline()
        text = f.read()
    if not first:
        raise MatrixMarketError(f"{path}: empty file")

    header = first.split()
    if len(header) != 5 or header[0] != "%%MatrixMarket" or not first.isascii():
        _fail(path, 1, first, "expected '%%MatrixMarket object format field symmetry' header")
    obj, fmt, field, symmetry = (w.lower() for w in header[1:])
    if obj != "matrix":
        _fail(path, 1, first, f"unsupported object {obj!r}")
    if fmt not in ("coordinate", "array"):
        _fail(path, 1, first, f"unsupported format {fmt!r}")
    if field in ("complex", "pattern"):
        _fail(path, 1, first, f"unsupported field type {field!r}")
    if field not in ("real", "integer"):
        _fail(path, 1, first, f"unknown field type {field!r}")
    if symmetry not in ("general", "symmetric", "skew-symmetric"):
        _fail(path, 1, first, f"unsupported symmetry {symmetry!r}")

    if not size_line:
        raise MatrixMarketError(f"{path}: missing size line")
    coordinate = fmt == "coordinate"
    if not size_line.isascii():
        _fail(path, size_no, size_line, "size line entries must be integers")
    size_tok = size_line.split()
    if len(size_tok) != (3 if coordinate else 2):
        _fail(path, size_no, size_line, "coordinate size line needs 'nrows ncols nnz'"
              if coordinate else "array size line needs 'nrows ncols'")
    try:
        sizes = [int(t) for t in size_tok]
    except ValueError:
        _fail(path, size_no, size_line, "size line entries must be integers")
    if not coordinate and symmetry != "general":
        _fail(path, size_no, size_line, "symmetric array storage not supported")
    if min(sizes) < 0:
        _fail(path, size_no, size_line, "sizes must be nonnegative")
    nrows, ncols = sizes[:2]
    if symmetry != "general" and nrows != ncols:
        _fail(path, size_no, size_line, f"{symmetry} storage needs a square matrix")
    if kind == "vector" and ncols != 1:
        raise MatrixMarketError(f"{path}: vector requested but file has {ncols} columns")

    # the declared count is never used to allocate, so an impossible one fails cheaply
    start = size_no + 1
    body = _parse_body(path, text, start, coordinate)
    want, noun = (sizes[2], "entries") if coordinate else (nrows * ncols, "values")
    if not coordinate and body.size > want:  # name the line that runs over
        data = _data_lines(text, start)
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
        _fail(path, *_data_lines(text, start)[bad.argmax()], "index out of declared range")
    vals = _finite(path, body["v"])
    if symmetry != "general":  # the file holds the lower triangle (strict if skew): mirror it
        skew = symmetry == "skew-symmetric"
        upper = rows <= cols if skew else rows < cols
        if upper.any():
            _fail(path, *_data_lines(text, start)[upper.argmax()],
                  f"entry outside the lower triangle that {symmetry} storage holds")
        off = rows != cols
        rows, cols = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
        vals = np.concatenate([vals, (-1.0 if skew else 1.0) * vals[off]])
    try:  # the declared shape sizes the row pointer and the dense vector
        mat = as_csr(sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols)))
        return mat.toarray()[:, 0] if kind == "vector" else mat
    except MemoryError:
        _fail(path, size_no, size_line, f"no memory for the declared {nrows} x {ncols} matrix")


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


_COMMENT_LINE = re.compile(r"^%.*\n?", re.MULTILINE)


def _parse_body(path, text, start, coordinate: bool) -> np.ndarray:
    """Parse the body text, whose first line is file line ``start``, with numpy's
    compiled reader: an (i, j, v) record per coordinate line, a float per array
    token; if that fails, name the first bad data line."""
    entry = np.dtype([("i", np.intp), ("j", np.intp), ("v", np.float64)])
    data = _COMMENT_LINE.sub("", text) if "%" in text else text
    if not data.isascii():  # numpy and str.split take some such bytes for blanks
        _fail(path, *next((n, line) for n, line in enumerate(text.split("\n"), start)
                          if not (line.isascii() or line.startswith("%"))),
              "malformed coordinate entry" if coordinate else "malformed value")
    parsed = _loadtxt(data.split("\n"), entry) if coordinate else _loadtxt(data.split(), np.float64)
    if parsed is not None:
        return parsed
    for lineno, line in _data_lines(text, start):
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


def _data_lines(text, start):
    """(file line number, text) of each data line of the body, to name a bad one."""
    return [(n, line) for n, line in enumerate(text.split("\n"), start)
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
