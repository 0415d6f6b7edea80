import numpy as np
import pytest
import scipy.sparse as sp

from saddlesolve import mmio
from saddlesolve.cli import main
from saddlesolve.mmio import mm_read, mm_write
from saddlesolve.sparse import as_csr

from conftest import arrow, cyclic_permutation, random_saddle


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


@pytest.mark.parametrize("re", ["nan", "inf"])
def test_cavity_rejects_non_finite_re(tmp_path, capsys, monkeypatch, re):
    # a usage error before any assembly, not exit 1 with a traceback
    from saddlesolve import cavity

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembly ran before --re was checked")

    monkeypatch.setattr(cavity, "build_problem", no_assembly)
    with pytest.raises(SystemExit) as exc:
        main(["cavity", "--level", "3", "--re", re, "--output-dir", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"value must be positive and finite, got {re}" in err.splitlines()[-1]
    assert "Traceback" not in err


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
        (override("diag_thresh=0"), "diag_thresh must be in (0, 1)"),
        (override("diag_thresh=1"), "diag_thresh must be in (0, 1)"),
        (override("dense_switch=0"), "dense_switch must be >= 1"),
        (override("sigma"), "override must be name=value, got 'sigma'"),
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


def test_cavity_l5_re5000_runs_out_of_armijo_halvings_in_the_picard_phase(tmp_path, monkeypatch):
    # the high-Re limit of L5 (standard lid): the residual never reaches
    # beta * ||F0||, Armijo halving runs out, and the run exits 1
    from saddlesolve import cli
    from saddlesolve.nonlinear import hybrid_newton

    reports = []

    def recording(nlp, cfg):
        x, report = hybrid_newton(nlp, cfg)
        reports.append(report)
        return x, report

    monkeypatch.setattr(cli, "hybrid_newton", recording)
    rc = main(["cavity", "--level", "5", "--re", "5000", "--sigma", "1e-5",
               "--regime", "high_re", "--output-dir", str(tmp_path)])
    assert rc == 1
    assert "converged=0" in (tmp_path / "summary.txt").read_text()
    (report,) = reports
    assert not report.converged
    assert report.message.startswith("no residual decrease after 20 halvings")
    assert report.steps and all(s.phase == "picard" for s in report.steps)


def test_exact_lu_control_fails_at_l5_re5000_the_same_way(tmp_path, monkeypatch):
    # the baseline a robustness claim for the preconditioner must beat: the
    # unchanged driver with an exact LU of the sparsifier, its last pressure
    # unknown pinned, in place of the multilevel ILU also runs out of Armijo
    # halvings in the Picard phase, so the L5 limit is not the ILU's
    from types import SimpleNamespace

    from scipy.sparse.linalg import splu

    from saddlesolve import cli, krylov, nonlinear

    def exact_factorize(a, params):
        lu = splu(sp.csc_matrix(a)[:-1, :-1], permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.1, options={"SymmetricMode": True})
        return SimpleNamespace(n=a.shape[0], lu=lu)

    def exact_solve(factor, v):
        return np.append(factor.lu.solve(v[:-1]), 0.0)

    reports = []

    def recording(nlp, cfg):
        x, report = nonlinear.hybrid_newton(nlp, cfg)
        reports.append(report)
        return x, report

    monkeypatch.setattr(nonlinear, "factorize", exact_factorize)
    monkeypatch.setattr(krylov, "ml_solve", exact_solve)
    monkeypatch.setattr(cli, "hybrid_newton", recording)
    rc = main(["cavity", "--level", "5", "--re", "5000", "--sigma", "1e-5",
               "--regime", "high_re", "--output-dir", str(tmp_path)])
    assert rc == 1
    (report,) = reports
    assert not report.converged
    assert report.message.startswith("no residual decrease after 20 halvings")
    assert report.steps and all(s.phase == "picard" for s in report.steps)


def test_cavity_reruns_bit_identical(tmp_path):
    # the rerun contract of every subcommand: cavity, and linsolve and
    # factor-stats on the same problem's exported Stokes system
    from saddlesolve import cavity as cav

    prob = cav.build_problem(3, re=50.0)
    mm_write(cav.stokes_operator(prob), tmp_path / "stokes.mtx")
    mm_write(cav.stokes_rhs(prob), tmp_path / "rhs.mtx")
    mm_write(cav.null_vector(prob), tmp_path / "null.mtx")
    runs = {
        "cavity": ["--level", "3", "--re", "50", "--sigma", "1e-4"],
        "linsolve": ["--matrix", str(tmp_path / "stokes.mtx"), "--rhs", str(tmp_path / "rhs.mtx"),
                     "--null-vector", str(tmp_path / "null.mtx"), "--refine-steps", "2"],
        "factor-stats": ["--matrix", str(tmp_path / "stokes.mtx")],
    }
    for command, flags in runs.items():
        # each run in its own directory, so every file it writes is compared
        files = []
        for rerun in ("a", "b"):
            out = tmp_path / command / rerun
            assert main([command, *flags, "--output-dir", str(out)]) == 0
            files.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert "summary.txt" in files[0]
        assert files[0] == files[1], command


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


def _sparse_saddles(nb, ne, copies, seed):
    """``copies`` blocks [[B, E^T], [E, 0]] on the diagonal, with sparse B
    and E: the zero blocks are deferred statically, so the factorization
    has at least two levels above dense_switch.  Each block's Schur
    complement is dense, but their sum is not, so a Crout level beats
    the dense tail on it."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(copies):
        b = sp.random(nb, nb, density=3 / nb, random_state=rng) + 4 * sp.eye(nb)
        e = sp.random(ne, nb, density=3 / nb, random_state=rng) + sp.eye(ne, nb)
        blocks.append(sp.bmat([[b, e.T], [e, None]]))
    return as_csr(sp.block_diag(blocks, format="csr"))


def test_factor_stats(tmp_path, capsys):
    a = _sparse_saddles(70, 60, 10, seed=88)
    mm_write(a, tmp_path / "a.mtx")
    rc = main([
        "factor-stats", "--matrix", str(tmp_path / "a.mtx"),
        "--alpha", "3", "--droptol", "0.01", "--output-dir", str(tmp_path),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert (tmp_path / "summary.txt").read_text() == printed
    lines = (tmp_path / "factor_stats.csv").read_text().splitlines()
    assert lines[0] == "level,n,n_b,deferred,nnz"
    rows = [[int(v) for v in line.split(",")] for line in lines[1:]]
    assert len(rows) >= 3  # two levels and the dense tail
    assert [r[0] for r in rows] == list(range(1, len(rows) + 1))
    assert rows[0][1] == a.shape[0]
    for (_, n, n_b, deferred, _), lower in zip(rows, rows[1:]):
        assert lower[1] == n - n_b == deferred
    _, tail_n, tail_nb, tail_deferred, tail_nnz = rows[-1]
    assert f"tail_n={tail_n} tail_rank={tail_n} " in printed
    assert tail_nb == tail_n and tail_deferred == 0 and tail_nnz == tail_n**2
    assert f"total_nnz={sum(r[4] for r in rows)} " in printed


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SADDLESOLVE_OUTDIR", str(tmp_path / "from_env"))
    a = as_csr(sp.eye(3, format="csr"))
    (tmp_path / "from_env").mkdir(exist_ok=True)
    mm_write(a, tmp_path / "eye.mtx")
    rc = main(["linsolve", "--matrix", str(tmp_path / "eye.mtx")])
    assert rc == 0
    assert (tmp_path / "from_env" / "solution.mtx").exists()


@pytest.mark.parametrize("command", ["cavity", "linsolve", "factor-stats"])
@pytest.mark.parametrize("target", ["file", "file/sub"])
@pytest.mark.parametrize("from_env", [False, True])
def test_unusable_output_dir_exits_2_with_one_line(tmp_path, capsys, monkeypatch,
                                                   command, target, from_env):
    # an existing file, or a path below one, is refused before any assembly
    # or file read
    from saddlesolve import cavity, cli

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the output directory was checked")

    monkeypatch.setattr(cavity, "build_problem", no_work)
    monkeypatch.setattr(cli, "mm_read", no_work)
    (tmp_path / "file").write_text("")
    out = str(tmp_path / target)
    flags = ["--level", "3", "--re", "50"] if command == "cavity" else ["--matrix", "a.mtx"]
    if from_env:
        monkeypatch.setenv("SADDLESOLVE_OUTDIR", out)
    else:
        flags += ["--output-dir", out]
    assert main([command, *flags]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: unusable output directory"), err
    assert out in err and "Traceback" not in err


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
    (tmp_path / "symwide.mtx").write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n3 2 2\n1 1 1.0\n3 1 2.0\n")
    nan = np.ones((3, 3))
    nan[0, 1] = np.nan
    mm_write(as_csr(sp.csr_matrix(nan)), tmp_path / "nan.mtx")
    mm_write(np.array([1.0, np.nan, 1.0, 1.0]), tmp_path / "nan4.mtx")
    mm_write(np.full(4, 1e160), tmp_path / "huge4.mtx")


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
    (["factor-stats", "--matrix", "symwide.mtx"], "symmetric storage needs a square matrix"),
    (["linsolve", "--matrix", "a.mtx", "--null-vector", "huge4.mtx"],
     "null vector must be finite, with a norm that does not overflow"),
])
def test_bad_input_files_exit_2_with_one_line(tmp_path, capsys, monkeypatch, argv, message):
    _bad_input_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert message in err


def test_a_declared_shape_without_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    def no_memory(a):  # planted: a real allocation need not fail fast
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(mmio, "as_csr", no_memory)
    (tmp_path / "huge.mtx").write_text("%%MatrixMarket matrix coordinate real general\n"
                                       "100000000000 100000000000 1\n1 1 1.0\n")
    assert main(["factor-stats", "--matrix", str(tmp_path / "huge.mtx"),
                 "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "no memory for the declared 100000000000 x 100000000000 matrix" in err


def test_oversized_dense_tail_exits_2_with_one_line(tmp_path, capsys):
    mm_write(cyclic_permutation(4001), tmp_path / "cyclic.mtx")
    rc = main(["factor-stats", "--matrix", str(tmp_path / "cyclic.mtx"),
               "--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "dense tail of 4001 unknowns after 1 levels" in err


def test_a_rhs_whose_norm_overflows_exits_2_with_one_line_before_factorizing(
        tmp_path, capsys, monkeypatch):
    # it used to write converged=1 iterations=0 relres=nan and a zero
    # solution, and exit 0
    from saddlesolve import cavity as cav, cli

    def unreachable(*args):
        raise AssertionError("factorize was reached")

    monkeypatch.setattr(cli, "factorize", unreachable)
    a = cav.stokes_operator(cav.build_problem(4, re=100.0))
    mm_write(a, tmp_path / "stokes.mtx")
    mm_write(np.full(a.shape[0], 1e160), tmp_path / "rhs.mtx")
    rc = main(["linsolve", "--matrix", str(tmp_path / "stokes.mtx"),
               "--rhs", str(tmp_path / "rhs.mtx"), "--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: rhs must be finite, with a norm that does not overflow\n"
    assert not (tmp_path / "summary.txt").exists()


def test_a_schur_complement_over_budget_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    # the n 1000 arrow's Schur complement is dense: 999^2 entries from 2998;
    # the budget is set so that the message is known
    from saddlesolve import mlilu

    monkeypatch.setattr(mlilu, "_MAX_SCHUR_GROWTH", 64)
    mm_write(arrow(1000), tmp_path / "arrow.mtx")
    rc = main(["factor-stats", "--matrix", str(tmp_path / "arrow.mtx"),
               "--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == ("error: Schur complement of up to 998001 entries exceeds 64 times "
                   "its level's 2998\n")


def test_structurally_empty_row_below_dense_switch_is_perturbed(tmp_path, capsys):
    # the whole matrix goes to the dense tail, whose zero row is cut
    mm_write(_last_row_empty(6), tmp_path / "a.mtx")
    rc = main(["factor-stats", "--matrix", str(tmp_path / "a.mtx"),
               "--output-dir", str(tmp_path)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "tail_n=6 tail_rank=5 " in printed and "perturbed=1" in printed


def test_factor_stats_reports_the_rank_the_stokes_tail_keeps(tmp_path, capsys):
    # the level-4 Stokes system's Schur complement carries the constant
    # pressure mode: its tail of 120 keeps 119 columns, while the CSV row
    # still counts the 120 unknowns and 120^2 stored entries
    from saddlesolve import cavity as cav

    mm_write(cav.stokes_operator(cav.build_problem(4, re=100.0)), tmp_path / "stokes.mtx")
    rc = main(["factor-stats", "--matrix", str(tmp_path / "stokes.mtx"),
               "--output-dir", str(tmp_path)])
    assert rc == 0
    assert "tail_n=120 tail_rank=119 " in capsys.readouterr().out
    last = (tmp_path / "factor_stats.csv").read_text().splitlines()[-1]
    assert last == "2,120,120,0,14400"
