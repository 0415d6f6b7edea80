import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from saddlesolve import mmio
from saddlesolve.mmio import MatrixMarketError, mm_read, mm_write, write_csv
from saddlesolve.sparse import as_csr

from conftest import random_sparse


def test_read_1x1(tmp_path):
    path = tmp_path / "one.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 5.0\n")
    a = mm_read(path)
    assert a.shape == (1, 1)
    assert a.nnz == 1
    assert a[0, 0] == 5.0


def test_read_order_independent(tmp_path):
    sorted_file = tmp_path / "sorted.mtx"
    shuffled = tmp_path / "shuffled.mtx"
    sorted_file.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n1 1 1.0\n1 2 2.0\n2 2 3.0\n"
    )
    shuffled.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n2 2 3.0\n1 1 1.0\n1 2 2.0\n"
    )
    a = mm_read(sorted_file)
    b = mm_read(shuffled)
    assert (a != b).nnz == 0


def test_symmetric_expansion(tmp_path):
    sym = tmp_path / "sym.mtx"
    gen = tmp_path / "gen.mtx"
    sym.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 3\n1 1 1.0\n2 1 3.0\n2 2 2.0\n"
    )
    gen.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 4\n1 1 1.0\n1 2 3.0\n2 1 3.0\n2 2 2.0\n"
    )
    a = mm_read(sym)
    b = mm_read(gen)
    assert np.allclose(a.toarray(), b.toarray())
    assert a[0, 1] == 3.0 and a[1, 0] == 3.0


def test_roundtrip_identity(tmp_path):
    a = as_csr(sp.eye(4, format="csr"))
    path = tmp_path / "eye.mtx"
    mm_write(a, path)
    b = mm_read(path)
    assert (a != b).nnz == 0
    assert np.array_equal(a.data, b.data)


def test_roundtrip_extreme_magnitudes(tmp_path):
    v = np.array([1e-300, 1e300])
    path = tmp_path / "v.mtx"
    mm_write(v, path)
    back = mm_read(path, kind="vector")
    assert np.array_equal(v, back)  # bitwise


def test_roundtrip_random_sparse(tmp_path):
    a, _ = random_sparse(50, 0.1, seed=17)
    path = tmp_path / "r.mtx"
    mm_write(a, path)
    b = mm_read(path)
    assert a.shape == b.shape
    assert a.nnz == b.nnz
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def test_roundtrip_matches_scipy_reader(tmp_path):
    # independent reader as oracle for our writer
    a, _ = random_sparse(30, 0.15, seed=23)
    path = tmp_path / "s.mtx"
    mm_write(a, path)
    via_scipy = sp.csr_matrix(scipy.io.mmread(path))
    assert np.allclose(via_scipy.toarray(), a.toarray(), rtol=0, atol=0)


def test_scipy_written_symmetric_read(tmp_path):
    dense = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 1.0]])
    path = tmp_path / "scipysym.mtx"
    scipy.io.mmwrite(path.with_suffix(""), sp.coo_matrix(dense), symmetry="symmetric")
    a = mm_read(path)
    assert np.allclose(a.toarray(), dense)


def test_vector_array_format(tmp_path):
    path = tmp_path / "vec.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n3 1\n1.5\n-2.0\n0.25\n")
    v = mm_read(path, kind="vector")
    assert np.array_equal(v, np.array([1.5, -2.0, 0.25]))


def test_vector_coordinate_format(tmp_path):
    # sparse storage of a vector: missing entries read as zero
    path = tmp_path / "vec.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n4 1 2\n1 1 3.0\n4 1 -1.0\n")
    v = mm_read(path, kind="vector")
    assert np.array_equal(v, np.array([3.0, 0.0, 0.0, -1.0]))


def test_vector_kind_rejects_multicolumn(tmp_path):
    path = tmp_path / "wide.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
    with pytest.raises(MatrixMarketError, match="2 columns"):
        mm_read(path, kind="vector")


def test_unsupported_field_names_line(tmp_path):
    path = tmp_path / "cplx.mtx"
    path.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 2.0\n")
    with pytest.raises(MatrixMarketError, match=r":1:.*complex"):
        mm_read(path)


def test_pattern_field_rejected(tmp_path):
    path = tmp_path / "pat.mtx"
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n")
    with pytest.raises(MatrixMarketError, match="pattern"):
        mm_read(path)


@pytest.mark.parametrize("text, message", [
    ("", "empty file"),
    ("%%MatrixMarket matrix coordinate real\n1 1 1\n1 1 1.0\n", r":1: expected '%%MatrixMarket"),
    ("%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n",
     r":1: expected '%%MatrixMarket"),
    ("%%MatrixMarket vector coordinate real general\n1 1 1\n1 1 1.0\n",
     r":1: unsupported object 'vector'"),
    ("%%MatrixMarket matrix dense real general\n1 1\n1.0\n", r":1: unsupported format 'dense'"),
    ("%%MatrixMarket matrix coordinate double general\n1 1 1\n1 1 1.0\n",
     r":1: unknown field type 'double'"),
    ("%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1.0\n",
     r":1: unsupported symmetry 'hermitian'"),
    ("%%MatrixMarket matrix coordinate real general\n% only comments\n\n", "missing size line"),
    ("%%MatrixMarket matrix coordinate real general\n% c\n2 2\n",
     r":3: coordinate size line needs"),
    ("%%MatrixMarket matrix array real general\n2 1 2\n1.0\n2.0\n", r":2: array size line needs"),
    ("%%MatrixMarket matrix coordinate real general\n2 2.5 1\n1 1 1.0\n",
     r":2: size line entries must be integers"),
    ("%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n2.0\n3.0\n",
     r":2: symmetric array storage not supported"),
    # the mirrored entry (1, 3) would lie outside the declared shape
    ("%%MatrixMarket matrix coordinate real symmetric\n3 2 2\n1 1 1.0\n3 1 2.0\n",
     r":2: symmetric storage needs a square matrix"),
    ("%%MatrixMarket matrix coordinate real skew-symmetric\n3 2 1\n3 1 2.0\n",
     r":2: skew-symmetric storage needs a square matrix"),
], ids=["empty", "four-word-banner", "one-percent-banner", "object", "format", "field",
        "symmetry", "no-size-line", "coordinate-size-count", "array-size-count",
        "non-integer-size", "symmetric-array", "symmetric-not-square",
        "skew-symmetric-not-square"])
def test_bad_header_or_size_line_is_rejected(tmp_path, text, message):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(MatrixMarketError, match=message):
        mm_read(path)


def test_read_rejects_an_unknown_kind(tmp_path):
    path = tmp_path / "one.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 5.0\n")
    with pytest.raises(ValueError, match="kind must be 'matrix' or 'vector', got 'dense'"):
        mm_read(path, kind="dense")


def test_write_rejects_a_two_dimensional_array(tmp_path):
    with pytest.raises(ValueError, match="only 1-D arrays are written as vectors"):
        mm_write(np.ones((2, 2)), tmp_path / "m.mtx")
    assert not (tmp_path / "m.mtx").exists()


@pytest.mark.parametrize("body, message", [
    ("coordinate real general\n2 2 2\n1 1 1.0\n2 x 2.0\n", r":4:"),
    # a comment or blank line before the bad one, so data rows and file lines differ
    ("coordinate real general\n2 2 2\n% c\n1 1 1.0\n1 1 1.5abc\n", r":5: malformed coordinate"),
    ("coordinate real general\n2 2 2\n1 1 1.0\n\n1 1 0x10\n", r":5: malformed coordinate"),
    ("coordinate real general\n2 2 2\n% c\n1 1 1.0 7\n2 2 1.0\n", r":4: coordinate entry needs"),
    ("coordinate real general\n2 2 2\n\n2 2 1.0\n1 1 1.0 % c\n", r":5: coordinate entry needs"),
    # older numpy only warns on these; the default filter checks what a caller outside
    # the suite gets
    pytest.param("coordinate real general\n2 2 2\n% c\n2 2 1.0\n1.5 1 1.0\n",
                 r":5: malformed coordinate", marks=pytest.mark.filterwarnings("default")),
    pytest.param("coordinate real general\n2 2 2\n% c\n2 2 1.0\n1e0 1 1.0\n",
                 r":5: malformed coordinate", marks=pytest.mark.filterwarnings("default")),
    ("coordinate real general\n2 2 2\n% c\n2 2 1.0\n1 1 \"1.0\"\n", r":5: malformed coordinate"),
    ("coordinate real general\n2 2 2\n% c\n2 2 1.0\n99999999999999999999 1 1.0\n",
     r":5: index out of declared range"),
    ("array real general\n3 1\n% c\n1.0 2.0\nx\n", r":5: malformed value 'x'"),
    ("array real general\n3 1\n% c\n1.0 2.0\n\n3.0 4.0\n", r":6: more than the declared 3 values"),
    ("coordinate real general\n2 2 1\n% c\n1 1 1.0\n2 2 1.0\n", r"declared 1 entries"),
], ids=["letter-index", "trailing-letters", "hex-value", "four-tokens", "trailing-comment",
        "decimal-index", "exponent-index", "quoted-value", "index-past-intp",
        "array-value-after-two", "too-many-values", "too-many-entries"])
def test_malformed_entry_names_line(tmp_path, body, message):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix " + body)
    with pytest.raises(MatrixMarketError, match=message):
        mm_read(path)


@pytest.mark.parametrize("symmetry, entry", [
    ("symmetric", "1 2 1.0"),       # upper triangle; the file holds the lower one
    ("skew-symmetric", "1 1 1.0"),  # a skew-symmetric diagonal is zero, never stored
])
def test_entry_outside_stored_triangle_names_line(tmp_path, symmetry, entry):
    path = tmp_path / "tri.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real {symmetry}\n"
                    f"2 2 2\n% c\n2 1 5.0\n{entry}\n")
    with pytest.raises(MatrixMarketError, match=r":5:.*lower triangle"):
        mm_read(path)


def test_index_out_of_range_named(tmp_path):
    path = tmp_path / "oob.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n")
    with pytest.raises(MatrixMarketError, match="out of declared range"):
        mm_read(path)


@pytest.mark.parametrize("body", [
    "%%MatrixMarket matrix coordinate real general\n2 2 -1\n",
    "%%MatrixMarket matrix coordinate real general\n-2 2 0\n",
    "%%MatrixMarket matrix array real general\n2 -1\n",
])
def test_negative_size_rejected(tmp_path, body):
    path = tmp_path / "neg.mtx"
    path.write_text(body)
    with pytest.raises(MatrixMarketError, match=r":2: sizes must be nonnegative"):
        mm_read(path)


def test_missing_entries_counted(tmp_path):
    path = tmp_path / "short.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n% c\n\n2 2 2.0\n")
    with pytest.raises(MatrixMarketError, match="declared 3 entries, found 2"):
        mm_read(path)


@pytest.mark.parametrize("body, message", [
    ("coordinate real general\n2 2 10000000000000\n1 1 1.0\n", "declared 10000000000000 entries, found 1"),
    ("array real general\n100000 100000\n1.0 2.0\n3.0\n", "declared 10000000000 values, found 3"),
])
def test_impossible_count_fails_before_allocating(tmp_path, body, message):
    # the declared size would need tens of gigabytes; the entry count is
    # checked against the file first
    path = tmp_path / "huge.mtx"
    path.write_text("%%MatrixMarket matrix " + body)
    with pytest.raises(MatrixMarketError, match=message):
        mm_read(path)


@pytest.mark.parametrize("kind, size", [("matrix", "100000000000 100000000000"),
                                        ("vector", "100000000000 1")])
def test_a_declared_shape_without_memory_is_a_matrix_market_error(tmp_path, monkeypatch,
                                                                  kind, size):
    # the failure is planted: allocating for real need not fail fast where
    # the host overcommits memory
    def no_memory(a):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(mmio, "as_csr", no_memory)
    path = tmp_path / "huge.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real general\n{size} 1\n1 1 1.0\n")
    rows, cols = size.split()
    with pytest.raises(MatrixMarketError, match=f":2: no memory for the declared {rows} x {cols} "):
        mm_read(path, kind)


@pytest.mark.parametrize("body, message", [
    ("coordinate real general\n2 2 2\n1 1 1.0\n2 2 nan\n", "value 2 is not finite"),
    ("array real general\n3 1\n1.0\n-inf\n3.0\n", "value 2 is not finite"),
])
def test_non_finite_value_rejected(tmp_path, body, message):
    path = tmp_path / "nonfinite.mtx"
    path.write_text("%%MatrixMarket matrix " + body)
    with pytest.raises(MatrixMarketError, match=message):
        mm_read(path)


def test_write_csv_floats_read_back_bit_for_bit(tmp_path):
    values = [1e-300, 1e300, -0.0, 0.1, np.float64(1.0) / 3.0]
    counts = [1, 20, np.int64(300), 4000, 50000]
    path = tmp_path / "t.csv"
    write_csv(path, ("count", "value"), zip(counts, values))
    lines = path.read_text().splitlines()
    assert lines[0] == "count,value"
    fields = [line.split(",") for line in lines[1:]]
    assert [c for c, _ in fields] == ["1", "20", "300", "4000", "50000"]
    back = np.array([float(v) for _, v in fields])
    assert back.tobytes() == np.array(values).tobytes()


def _interleave_comments(text: str) -> str:
    """The same Matrix Market text with a comment line and a blank line
    after the header, before the size line and after every data line."""
    lines = text.splitlines(keepends=True)
    out = [lines[0]]
    for line in lines[1:]:
        out += ["% a comment, 1 2 3.0\n", "\n", line]
    return "".join(out) + "%\n   \n"


@pytest.mark.parametrize("obj", ["matrix", "vector", "dense"])
def test_comment_and_blank_lines_between_data_lines_change_no_bit(tmp_path, obj):
    a, _ = random_sparse(12, 0.3, seed=5)
    plain, commented = tmp_path / "plain.mtx", tmp_path / "commented.mtx"
    if obj == "dense":
        scipy.io.mmwrite(plain, a.toarray())
    else:
        mm_write(a if obj == "matrix" else a.toarray()[:, 0], plain)
    commented.write_text(_interleave_comments(plain.read_text()))
    kind = "vector" if obj == "vector" else "matrix"
    want, got = mm_read(plain, kind=kind), mm_read(commented, kind=kind)
    if kind == "vector":
        assert got.tobytes() == want.tobytes()
    else:
        for x, y in ((got.data, want.data), (got.indices, want.indices),
                     (got.indptr, want.indptr)):
            assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("fmt", ["coordinate", "array"])
def test_body_without_percent_reads_as_body_with_only_comment_lines(tmp_path, fmt):
    body = ("3 3 3\n1 1 1.5\n3 2 -2.0\n2 3 4.0\n" if fmt == "coordinate"
            else "3 1\n1.5\n-2.0\n4.0\n")
    plain, commented = tmp_path / "plain.mtx", tmp_path / "commented.mtx"
    plain.write_text(f"%%MatrixMarket matrix {fmt} real general\n{body}")
    size, *data = body.splitlines(keepends=True)
    commented.write_text(f"%%MatrixMarket matrix {fmt} real general\n{size}"
                         + "%\n".join(data) + "%% last\n")
    kind = "matrix" if fmt == "coordinate" else "vector"
    want, got = mm_read(plain, kind=kind), mm_read(commented, kind=kind)
    assert "%" not in plain.read_text().split("\n", 1)[1]
    if kind == "vector":
        assert got.tobytes() == want.tobytes()
    else:
        assert (got != want).nnz == 0 and got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("fmt", ["coordinate", "array"])
def test_a_utf8_comment_line_reads_the_same_matrix(tmp_path, fmt):
    body = "3 3 2\n1 1 1.5\n3 2 -2.0\n" if fmt == "coordinate" else "2 1\n1.5\n-2.0\n"
    plain, accented = tmp_path / "plain.mtx", tmp_path / "accented.mtx"
    plain.write_text(f"%%MatrixMarket matrix {fmt} real general\n{body}")
    size, *data = body.splitlines(keepends=True)
    accented.write_bytes(f"%%MatrixMarket matrix {fmt} real general\n% café\n{size}"
                         f"{data[0]}% naïve, 1 2 3.0\n{''.join(data[1:])}".encode())
    want, got = mm_read(plain), mm_read(accented)
    for x, y in ((got.data, want.data), (got.indices, want.indices), (got.indptr, want.indptr)):
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("text, message", [
    ("coordinate real general\n2 2 2\n1 1 1.0é\n2 2 1.0\n", r":3: malformed coordinate entry"),
    # a no-break space, byte 0xa0 in Latin-1, is a blank to numpy's reader
    # and to str.split
    ("coordinate real general\n% c\n2 2 2\n1 1 1.0\n2\u00a02 1.0\n",
     r":5: malformed coordinate entry"),
    ("array real general\n2 1\n% c\n1.0\n2.0\u00a03.0\n", r":5: malformed value"),
    ("coordinate real general\n2\u00a02 1\n1 1 1.0\n", r":2: size line entries must be integers"),
    ("coordinate réal general\n2 2 1\n1 1 1.0\n", r":1: expected '%%MatrixMarket"),
], ids=["data-letter", "data-space", "array-space", "size-space", "header"])
def test_a_non_ascii_byte_outside_a_comment_names_its_line(tmp_path, text, message):
    path = tmp_path / "latin1_data.mtx"
    path.write_bytes(("%%MatrixMarket matrix " + text).encode("latin-1"))
    with pytest.raises(MatrixMarketError, match=message):
        mm_read(path)
