"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  The end-to-end cavity runs are shared through session fixtures
so each configuration is solved once."""

import time

import numpy as np
import pytest

from saddlesolve import cavity as cav
from saddlesolve.krylov import GmresParams, PrecondOperator, eta_newton, fgmres
from saddlesolve.mlilu import FactorParams, factorize
from saddlesolve.nonlinear import SolverConfig, armijo_damp, hybrid_newton, refactor_needed

from conftest import random_saddle, random_sparse, reassemble


def _report(name, elapsed, budget, detail=""):
    print(f"PASS {name}: {elapsed:.1f}s (budget {budget:.0f}s) {detail}")


def run_cavity(level, re, sigma, regime, refine_steps=2, dense_switch=None):
    t0 = time.perf_counter()
    prob = cav.build_problem(level, re)
    nlp = cav.nonlinear_problem(prob, cav.stokes_initial_guess(prob))
    cfg = SolverConfig(sigma=sigma, regime=regime, refine_steps=refine_steps,
                       factor_params=FactorParams(dense_switch=dense_switch))
    x, report = hybrid_newton(nlp, cfg)
    elapsed = time.perf_counter() - t0  # assembly + initial guess + solve
    return prob, x, report, elapsed


@pytest.fixture(scope="session")
def run_l5_re200():
    return run_cavity(5, 200.0, 1e-5, "high_re")


@pytest.fixture(scope="session")
def run_l6_re200():
    return run_cavity(6, 200.0, 1e-5, "high_re")


@pytest.fixture(scope="session")
def run_l6_re1000_k2():
    return run_cavity(6, 1000.0, 1e-5, "high_re", refine_steps=2)


@pytest.fixture(scope="session")
def run_l6_re1000_k1():
    return run_cavity(6, 1000.0, 1e-5, "high_re", refine_steps=1)


def test_criterion_1_exact_factorization_oracle():
    t0 = time.perf_counter()
    cases = []
    for i in range(15):
        n = [40, 60, 80, 100, 120, 140, 160, 180, 200, 50, 70, 90, 110, 150, 190][i]
        a, _ = random_sparse(n, 4.0 / n, seed=100 + i, diag_shift=3.0)
        cases.append(a)
    for i in range(5):
        nb = [30, 45, 60, 90, 120][i]
        ne = nb // 3
        cases.append(random_saddle(nb, ne, seed=200 + i))

    rng = np.random.default_rng(0)
    for a in cases:
        n = a.shape[0]
        dense = a.toarray()
        assert np.linalg.matrix_rank(dense) == n, "fixture must be nonsingular"
        m = factorize(a, FactorParams(alpha=float(n), droptol=0.0, dense_switch=12))
        rebuilt = reassemble(m)
        rel = np.linalg.norm(rebuilt - dense) / np.linalg.norm(dense)
        assert rel <= 1e-10, rel
        b = rng.standard_normal(n)
        _, rep = fgmres(a, PrecondOperator(m), b,
                        GmresParams(restart=30, max_iters=60, rtol=1e-12))
        assert rep.converged
        assert rep.iterations <= 2, rep.iterations
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("criterion 1 (exact-factorization oracle, 20 matrices)", elapsed, 10)


def test_criterion_2_jacobian_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    for level in (4, 5):
        for re in (100.0, 1000.0):
            prob = cav.build_problem(level, re)
            n = prob.n_unknowns
            x = 0.1 * rng.standard_normal(n)
            jac = cav.newton_operator(prob, x)
            f0 = cav.residual(prob, x)
            for _ in range(10):
                s = rng.standard_normal(n)
                h = 1e-7 * max(np.linalg.norm(x), 1.0) / np.linalg.norm(s)
                fd = (cav.residual(prob, x + h * s) - f0) / h
                js = jac @ s
                rel = np.linalg.norm(fd - js) / np.linalg.norm(js)
                assert rel <= 1e-5, (level, re, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("criterion 2 (FD Jacobian, levels 4-5, Re 100/1000)", elapsed, 30)


def test_criterion_3_null_space_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    for level in (4, 5, 6):
        prob = cav.build_problem(level, re=200.0)
        q = cav.null_vector(prob)
        x = 0.1 * rng.standard_normal(prob.n_unknowns)
        for op in (cav.newton_operator(prob, x), cav.oseen_operator(prob, x)):
            jinf = np.abs(op).sum(axis=1).max()
            assert np.abs(op @ q).max() <= 1e-12 * jinf
        a = cav.oseen_operator(prob, x)
        factor = factorize(a, FactorParams(alpha=2.0, droptol=0.01))
        p = PrecondOperator(factor, j_op=a, null_basis=q, refine_steps=2)
        v = rng.standard_normal(prob.n_unknowns)
        z = p.apply(v)
        assert abs(z @ q) <= 1e-12 * np.linalg.norm(z)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("criterion 3 (null-space identities, levels 4-6)", elapsed, 30)


def test_l5_re200_with_its_schur_complements_as_the_tail_converges(run_l5_re200):
    # at dense_switch 600 both first Schur complements (n 530 and 537) are
    # the dense tail, each with one near-null direction that an LU with
    # partial pivoting does not see: that took 6 steps, 75 GMRES and 3
    # refactorizations, where the default took 7 GMRES
    _, _, default, _ = run_l5_re200
    _, _, report, _ = run_cavity(5, 200.0, 1e-5, "high_re", dense_switch=600)
    assert report.converged
    assert report.total_gmres <= 2 * default.total_gmres, (report.total_gmres,
                                                           default.total_gmres)


def test_criterion_4_cavity_moderate_re(run_l5_re200, run_l6_re200):
    t0 = time.perf_counter()
    for name, run in (("level 5", run_l5_re200), ("level 6", run_l6_re200)):
        _, _, report, _ = run
        assert report.converged, name
        assert len(report.steps) <= 12, (name, len(report.steps))
        assert report.total_gmres <= 120, (name, report.total_gmres)
    elapsed = run_l5_re200[3] + run_l6_re200[3]
    assert elapsed < 300.0
    detail = "; ".join(
        f"{name}: {len(r[2].steps)} nonlinear / {r[2].total_gmres} gmres"
        for name, r in (("L5", run_l5_re200), ("L6", run_l6_re200))
    )
    _report("criterion 4 (Re=200 end to end)", elapsed, 300, detail)
    assert time.perf_counter() - t0 < 300


def test_criterion_5_cavity_higher_re(run_l6_re1000_k2):
    _, _, report, elapsed = run_l6_re1000_k2
    assert report.converged
    assert len(report.steps) <= 20, len(report.steps)
    assert report.total_gmres <= 400, report.total_gmres
    assert elapsed < 900.0
    _report("criterion 5 (Re=1000 level 6)", elapsed, 900,
            f"{len(report.steps)} nonlinear / {report.total_gmres} gmres")


def _parse_csv(path):
    rows = []
    with open(path) as f:
        header = f.readline().strip().split(",")
        for line in f:
            vals = line.strip().split(",")
            rows.append(dict(zip(header, vals)))
    return rows


def test_criterion_6_hot_start_behavior(tmp_path, run_l5_re200, run_l6_re200, run_l6_re1000_k2):
    t0 = time.perf_counter()
    beta = 0.05
    for name, run in (("l5re200", run_l5_re200), ("l6re200", run_l6_re200),
                      ("l6re1000", run_l6_re1000_k2)):
        _, _, report, _ = run
        path = tmp_path / f"{name}.csv"
        report.write_csv(path)
        rows = _parse_csv(path)
        norm_f0 = float(rows[0]["normF"])
        switched = False
        for row in rows:
            is_newton = row["phase"] == "newton"
            should_be_newton = float(row["normF"]) <= beta * norm_f0
            assert is_newton == should_be_newton, (name, row)
            if is_newton and not switched:
                assert row["refactorized"] == "1", (name, row)
                switched = True
        assert switched, name
    _report("criterion 6 (hot-start switch from CSV)", time.perf_counter() - t0, 30)


def test_criterion_7_near_linear_factor_growth():
    t0 = time.perf_counter()
    ratios = {}
    for level in (4, 5, 6):
        prob = cav.build_problem(level, re=200.0)
        x0 = cav.stokes_initial_guess(prob)
        a = cav.oseen_operator(prob, x0)
        m = factorize(a, FactorParams(alpha=2.0, droptol=0.02))
        ratios[level] = m.total_nnz / a.nnz
    band = max(ratios.values()) / min(ratios.values())
    assert band <= 2.0, ratios
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report("criterion 7 (factor growth band)", elapsed, 300,
            f"ratios {ratios} band {band:.2f}")


def test_criterion_8_iterative_refinement_efficacy(run_l6_re1000_k2, run_l6_re1000_k1):
    def newton_gmres(run):
        return sum(s.gmres_iters for s in run[2].steps if s.phase == "newton")

    k2 = newton_gmres(run_l6_re1000_k2)
    k1 = newton_gmres(run_l6_re1000_k1)
    assert run_l6_re1000_k2[2].converged and run_l6_re1000_k1[2].converged
    assert k2 <= k1, (k2, k1)
    elapsed = run_l6_re1000_k2[3] + run_l6_re1000_k1[3]
    assert elapsed < 1800.0
    _report("criterion 8 (refinement efficacy)", elapsed, 1800,
            f"newton-phase gmres K=2: {k2} vs K=1: {k1}")


def test_criterion_9_forcing_damping_unit_suite():
    t0 = time.perf_counter()
    # eta_newton worked examples, exact
    assert eta_newton(0.3, 1.0, 0.1, 0.3, 1e-12, 1.0) == 0.9 * 0.3**2
    assert eta_newton(1.0, 1.0, 0.1, 0.3, 1e-12, 1.0) == 0.3
    assert eta_newton(1e-6, 1.0, 0.1, 0.3, 1e-6, 1.0) == 0.3

    # hand-traced halving
    def res(x):
        return x.copy()

    omega, x_new, f_new, norm_new = armijo_damp(res, np.array([1.0]), np.array([-4.0]),
                                                1.0, 1e-4, 20)
    assert omega == 0.25 and x_new[0] == 0.0 and f_new[0] == 0.0 and norm_new == 0.0

    # refactor_needed truth table (8 cases)
    cfg = SolverConfig(epsilon=0.8, n_trigger=20)
    table = [
        (20, 0.0, 1.0, False, True),
        (19, 0.0, 1.0, False, False),
        (0, 0.80, 1.0, False, True),
        (0, 0.79, 1.0, False, False),
        (0, 0.0, 1.0, True, True),
        (0, 0.0, 0.0, False, True),
        (0, 1.0, 0.0, False, True),
        (25, 2.0, 1.0, True, True),
    ]
    for iters, ns, nx, first, expected in table:
        got = refactor_needed(iters, np.array([ns]), np.array([nx]), first, cfg)
        assert bool(got) == expected, (iters, ns, nx, first)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("criterion 9 (forcing/damping unit suite)", elapsed, 1)
