import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

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
