import numpy as np
import pytest
import scipy.sparse as sp

from saddlesolve.cli import main
from saddlesolve.mmio import mm_read, mm_write
from saddlesolve.sparse import as_csr

from conftest import random_saddle


def test_cavity_small_run(tmp_path):
    rc = main([
        "cavity", "--level", "3", "--re", "50", "--sigma", "1e-4",
        "--output-dir", str(tmp_path),
    ])
    assert rc == 0
    conv = (tmp_path / "convergence.csv").read_text().splitlines()
    assert conv[0] == "step,phase,normF,eta,gmres_iters,refactorized,omega"
    assert len(conv) > 1
    assert (tmp_path / "solution.csv").exists()
    summary = (tmp_path / "summary.txt").read_text()
    assert "converged=1" in summary


def test_cavity_nonconvergence_writes_reports_and_fails(tmp_path):
    rc = main([
        "cavity", "--level", "3", "--re", "100", "--sigma", "1e-8",
        "--set", "max_nonlinear=1", "--output-dir", str(tmp_path),
    ])
    assert rc == 1
    assert (tmp_path / "convergence.csv").exists()
    assert (tmp_path / "solution.csv").exists()
    assert "converged=0" in (tmp_path / "summary.txt").read_text()


def test_cavity_rejects_degenerate_re(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cavity", "--level", "4", "--re", "0", "--output-dir", str(tmp_path)])
    assert exc.value.code == 2


def test_cavity_rejects_unknown_override(tmp_path, capsys, monkeypatch):
    # bad names and bad values are usage errors: exit 2 with a one-line
    # message, before any assembly
    from saddlesolve import cavity

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembly ran before the overrides were checked")

    monkeypatch.setattr(cavity, "build_problem", no_assembly)

    def override(text):
        return ["--level", "3", "--set", text]

    cases = [
        (override("not_a_param=1"), "unknown parameter 'not_a_param'"),
        (override("sigma=2"), "sigma must be in (0, 1)"),
        (override("regime=mid"), "regime must be one of"),
        (override("m=abc"), "bad value for m"),
        (override("dense_switch=None"), "bad value for dense_switch"),
        (override("m=300"), "m must be <= gmres_cap"),
        (override("picard_eta=1.5"), "picard_eta must be in (0, 1)"),
        (override("eta_max=0"), "eta_max must be in (0, 1)"),
        (override("alpha=0.5"), "unknown parameter 'alpha'"),
        (override("alpha_pair=0.5,0.5"), "alpha must be >= 1"),
        (override("droptol_pair=2,2"), "droptol must be in [0, 1)"),
        (override("droptol_pair=nan,nan"), "droptol must be in [0, 1)"),
        (override("alpha_pair=3"), "alpha_pair must have two entries"),
        (override("ordering=rcm"), "unknown parameter 'ordering'"),
        (override("cond_thresh=nan"), "cond_thresh must exceed 1"),
        (override("pivot_floor=nan"), "pivot_floor must be >= 0"),
        (["--level", "2"], "argument --level: invalid choice: 2"),
    ]
    for tail, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(["cavity", "--re", "50", *tail, "--output-dir", str(tmp_path)])
        assert exc.value.code == 2, tail
        err = capsys.readouterr().err
        assert message in err.splitlines()[-1], (tail, err)
        assert "Traceback" not in err


def test_override_table_covers_every_config_field():
    from dataclasses import fields

    from saddlesolve import cli
    from saddlesolve.mlilu import FactorParams
    from saddlesolve.nonlinear import SolverConfig

    # phase_params is derived (init=False), not settable
    solver = {f.name for f in fields(SolverConfig) if f.init} - {"factor_params"}
    assert set(cli._SOLVER_PARSERS) == solver
    # SolverConfig rejects factor_params' alpha and droptol: each phase takes
    # them from alpha_pair and droptol_pair
    factor = {f.name for f in fields(FactorParams)} - {"alpha", "droptol"}
    assert set(cli._FACTOR_PARSERS) == factor


def test_cavity_nonfinite_direction_writes_reports_and_fails(tmp_path, monkeypatch):
    from saddlesolve import nonlinear
    from saddlesolve.krylov import KrylovReport

    def nan_fgmres(a_op, precond, b, params):
        return np.full(b.size, np.nan), KrylovReport(iterations=1)

    monkeypatch.setattr(nonlinear, "fgmres", nan_fgmres)
    rc = main(["cavity", "--level", "3", "--re", "50", "--output-dir", str(tmp_path)])
    assert rc == 1
    conv = (tmp_path / "convergence.csv").read_text().splitlines()
    assert conv == ["step,phase,normF,eta,gmres_iters,refactorized,omega"]
    assert "converged=0" in (tmp_path / "summary.txt").read_text()


def test_cavity_factorization_error_writes_reports_and_fails(tmp_path, monkeypatch):
    from saddlesolve import nonlinear
    from saddlesolve.mlilu import FactorizationError

    def failing_factorize(a, params=None):
        raise FactorizationError("structurally empty row 7")

    monkeypatch.setattr(nonlinear, "factorize", failing_factorize)
    rc = main(["cavity", "--level", "3", "--re", "50", "--output-dir", str(tmp_path)])
    assert rc == 1
    conv = (tmp_path / "convergence.csv").read_text().splitlines()
    assert conv == ["step,phase,normF,eta,gmres_iters,refactorized,omega"]
    assert "converged=0" in (tmp_path / "summary.txt").read_text()


def test_cavity_reruns_bit_identical(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    for d in (d1, d2):
        rc = main(["cavity", "--level", "3", "--re", "50", "--sigma", "1e-4",
                   "--output-dir", str(d)])
        assert rc == 0
    assert (d1 / "convergence.csv").read_bytes() == (d2 / "convergence.csv").read_bytes()
    assert (d1 / "solution.csv").read_bytes() == (d2 / "solution.csv").read_bytes()


def test_cavity_pair_override_plumbs_through(tmp_path):
    rc = main([
        "cavity", "--level", "3", "--re", "50", "--sigma", "1e-4",
        "--set", "droptol_pair=0.05,0.02", "--set", "alpha_pair=3,3",
        "--set", "n_trigger=10", "--output-dir", str(tmp_path),
    ])
    assert rc == 0


def test_linsolve_identity(tmp_path):
    a = as_csr(sp.eye(6, format="csr"))
    mm_write(a, tmp_path / "eye.mtx")
    ones = np.ones(6)
    mm_write(ones, tmp_path / "b.mtx")
    rc = main([
        "linsolve", "--matrix", str(tmp_path / "eye.mtx"),
        "--rhs", str(tmp_path / "b.mtx"), "--output-dir", str(tmp_path),
    ])
    assert rc == 0
    x = mm_read(tmp_path / "solution.mtx", kind="vector")
    assert np.allclose(x, 1.0, atol=1e-12)
    hist = (tmp_path / "residual_history.csv").read_text().splitlines()
    assert hist[0] == "iteration,relres"
    assert len(hist) == 2  # one iteration


def test_linsolve_default_rhs_is_row_sums(tmp_path):
    a = random_saddle(12, 5, seed=77)
    mm_write(a, tmp_path / "a.mtx")
    rc = main([
        "linsolve", "--matrix", str(tmp_path / "a.mtx"),
        "--alpha", "20", "--droptol", "1e-8", "--output-dir", str(tmp_path),
    ])
    assert rc == 0
    x = mm_read(tmp_path / "solution.mtx", kind="vector")
    # default b = A @ 1, so x should reproduce the ones vector
    assert np.linalg.norm(x - 1.0) <= 1e-6


def test_linsolve_cavity_stokes_export(tmp_path):
    # self-consistency: export the level-4 Stokes operator and re-solve it
    # through the CLI with a projected preconditioner
    from saddlesolve import cavity as cav

    prob = cav.build_problem(4, re=100.0)
    a = cav.stokes_operator(prob)
    b = cav.stokes_rhs(prob)
    q = cav.null_vector(prob)
    mm_write(a, tmp_path / "stokes.mtx")
    mm_write(b, tmp_path / "rhs.mtx")
    mm_write(q, tmp_path / "null.mtx")
    rc = main([
        "linsolve", "--matrix", str(tmp_path / "stokes.mtx"),
        "--rhs", str(tmp_path / "rhs.mtx"),
        "--null-vector", str(tmp_path / "null.mtx"),
        "--droptol", "0.01", "--refine-steps", "2",
        "--rtol", "1e-10", "--output-dir", str(tmp_path),
    ])
    assert rc == 0
    x = mm_read(tmp_path / "solution.mtx", kind="vector")
    assert np.linalg.norm(b - a @ x) <= 1e-10 * np.linalg.norm(b) * (1 + 1e-9)
    # projected iterates stay orthogonal to the null vector
    assert abs(x @ q) <= 1e-10 * np.linalg.norm(x)


def test_linsolve_singular_with_null_vector(tmp_path):
    # constructed singular fixture: rank-deficient last row/col pair
    rng = np.random.default_rng(9)
    n = 10
    dense = rng.random((n, n)) + n * np.eye(n)
    q = np.zeros(n)
    q[-1] = 1.0
    dense[:, -1] = 0.0
    dense[-1, :] = 0.0  # q spans the null space of A and A^T
    a = as_csr(sp.csr_matrix(dense))
    b = dense @ rng.random(n)  # consistent rhs
    mm_write(a, tmp_path / "sing.mtx")
    mm_write(b, tmp_path / "b.mtx")
    mm_write(q, tmp_path / "null.mtx")
    rc = main([
        "linsolve", "--matrix", str(tmp_path / "sing.mtx"),
        "--rhs", str(tmp_path / "b.mtx"),
        "--null-vector", str(tmp_path / "null.mtx"),
        "--alpha", "20", "--droptol", "1e-10", "--rtol", "1e-9",
        "--output-dir", str(tmp_path),
    ])
    assert rc == 0
    x = mm_read(tmp_path / "solution.mtx", kind="vector")
    r = b - a @ x
    assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(b) * (1 + 1e-9)
    assert abs(r @ q) <= 1e-9 * np.linalg.norm(b)


def test_linsolve_dimension_mismatch(tmp_path, capsys):
    a = as_csr(sp.eye(4, format="csr"))
    mm_write(a, tmp_path / "a.mtx")
    mm_write(np.ones(5), tmp_path / "b.mtx")
    rc = main([
        "linsolve", "--matrix", str(tmp_path / "a.mtx"),
        "--rhs", str(tmp_path / "b.mtx"), "--output-dir", str(tmp_path),
    ])
    assert rc == 2
    assert "does not match" in capsys.readouterr().err


def test_factor_stats(tmp_path):
    a = random_saddle(30, 12, seed=88)
    mm_write(a, tmp_path / "a.mtx")
    rc = main([
        "factor-stats", "--matrix", str(tmp_path / "a.mtx"),
        "--alpha", "3", "--droptol", "0.01", "--output-dir", str(tmp_path),
    ])
    assert rc == 0
    rows = (tmp_path / "factor_stats.csv").read_text().splitlines()
    assert rows[0] == "level,n,n_b,deferred,nnz"
    assert len(rows) >= 2


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SADDLESOLVE_OUTDIR", str(tmp_path / "from_env"))
    a = as_csr(sp.eye(3, format="csr"))
    (tmp_path / "from_env").mkdir(exist_ok=True)
    mm_write(a, tmp_path / "eye.mtx")
    rc = main(["linsolve", "--matrix", str(tmp_path / "eye.mtx")])
    assert rc == 0
    assert (tmp_path / "from_env" / "solution.mtx").exists()


@pytest.mark.parametrize("command, flags, message", [
    ("linsolve", ["--alpha", "0.5"], "alpha must be >= 1"),
    ("linsolve", ["--droptol", "2"], "droptol must be in [0, 1)"),
    ("linsolve", ["--restart", "0"], "restart must be >= 1"),
    ("linsolve", ["--rtol", "0"], "rtol must be in (0, 1)"),
    ("linsolve", ["--max-iters", "10"], "max_iters must be >= restart"),
    ("linsolve", ["--refine-steps", "0"], "refine_steps must be >= 1"),
    ("factor-stats", ["--alpha", "0.5"], "alpha must be >= 1"),
    ("factor-stats", ["--droptol", "2"], "droptol must be in [0, 1)"),
])
def test_bad_flags_are_usage_errors(tmp_path, capsys, command, flags, message):
    # checked before the matrix is read: the file does not exist
    with pytest.raises(SystemExit) as exc:
        main([command, "--matrix", str(tmp_path / "absent.mtx"), *flags,
              "--output-dir", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err.splitlines()[-1]
    assert "Traceback" not in err


def _last_row_empty(n):
    """n x n identity without its last diagonal entry: row and column n-1
    are structurally empty."""
    return as_csr(sp.diags(np.r_[np.ones(n - 1), 0.0]).tocsr())


def _bad_input_files(tmp_path):
    mm_write(as_csr(sp.eye(4, format="csr")), tmp_path / "a.mtx")
    mm_write(as_csr(sp.csr_matrix(np.ones((2, 3)))), tmp_path / "wide.mtx")
    mm_write(np.ones(5), tmp_path / "v5.mtx")
    mm_write(np.zeros(4), tmp_path / "z4.mtx")
    # above dense_switch (500 unknowns by default), so a level equilibrates it
    mm_write(_last_row_empty(600), tmp_path / "empty600.mtx")
    (tmp_path / "bad.mtx").write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n")
    nan = np.ones((3, 3))
    nan[0, 1] = np.nan
    mm_write(as_csr(sp.csr_matrix(nan)), tmp_path / "nan.mtx")
    mm_write(np.array([1.0, np.nan, 1.0, 1.0]), tmp_path / "nan4.mtx")


@pytest.mark.parametrize("argv, message", [
    (["linsolve", "--matrix", "absent.mtx"], "No such file or directory"),
    (["factor-stats", "--matrix", "absent.mtx"], "No such file or directory"),
    (["linsolve", "--matrix", "bad.mtx"], "malformed coordinate entry"),
    (["factor-stats", "--matrix", "bad.mtx"], "malformed coordinate entry"),
    (["linsolve", "--matrix", "a.mtx", "--rhs", "absent.mtx"], "No such file or directory"),
    (["linsolve", "--matrix", "wide.mtx"], "matrix must be square, got (2, 3)"),
    (["factor-stats", "--matrix", "wide.mtx"], "matrix must be square, got (2, 3)"),
    (["linsolve", "--matrix", "a.mtx", "--null-vector", "v5.mtx"],
     "null vector length 5 does not match matrix size 4"),
    (["linsolve", "--matrix", "a.mtx", "--null-vector", "z4.mtx"],
     "null vector must be nonzero"),
    (["linsolve", "--matrix", "empty600.mtx"], "structurally empty row 599"),
    (["factor-stats", "--matrix", "empty600.mtx"], "structurally empty row 599"),
    (["linsolve", "--matrix", "nan.mtx"], "value 2 is not finite (nan)"),
    (["factor-stats", "--matrix", "nan.mtx"], "value 2 is not finite (nan)"),
    (["linsolve", "--matrix", "a.mtx", "--rhs", "nan4.mtx"], "value 2 is not finite (nan)"),
    (["linsolve", "--matrix", "a.mtx", "--null-vector", "nan4.mtx"], "value 2 is not finite (nan)"),
])
def test_bad_input_files_exit_2_with_one_line(tmp_path, capsys, monkeypatch, argv, message):
    _bad_input_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert message in err


def test_structurally_empty_row_below_dense_switch_is_perturbed(tmp_path, capsys):
    # the whole matrix goes to the dense tail, whose zero pivot is perturbed
    mm_write(_last_row_empty(6), tmp_path / "a.mtx")
    rc = main(["factor-stats", "--matrix", str(tmp_path / "a.mtx"),
               "--output-dir", str(tmp_path)])
    assert rc == 0
    assert "perturbed=1" in capsys.readouterr().out
