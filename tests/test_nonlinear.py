import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from saddlesolve import cavity, nonlinear
from saddlesolve.krylov import KrylovReport
from saddlesolve.mlilu import FactorParams
from saddlesolve.nonlinear import (
    LineSearchError,
    NonlinearProblem,
    SolverConfig,
    armijo_damp,
    hybrid_newton,
    refactor_needed,
)
from saddlesolve.sparse import as_csr


def scalar_problem(x0=3.0):
    """F(x) = x^2 - 4 on a 1-vector; root at 2."""

    def res(x):
        return np.array([x[0] ** 2 - 4.0])

    def op(x, started_nt):
        return as_csr(sp.csr_matrix(np.array([[2.0 * x[0]]])))

    return NonlinearProblem(residual=res, operator=op, sparsifier=op,
                            x0=np.array([x0]))


class TestHybridNewton:
    def test_scalar_quadratic_convergence(self):
        prob = scalar_problem()
        cfg = SolverConfig(sigma=1e-12, max_nonlinear=20,
                           factor_params=FactorParams(dense_switch=4))
        x, rep = hybrid_newton(prob, cfg)
        assert rep.converged
        assert len(rep.steps) <= 8
        assert abs(x[0] - 2.0) <= 1e-10
        assert all(s.omega == 1.0 for s in rep.steps)  # no damping triggered
        # quadratic tail: error ratios e_{k+1}/e_k^2 bounded in the Newton phase
        errs = [abs(s.normF / 4.0) for s in rep.steps if s.phase == "newton"]
        ratios = [e2 / e1**2 for e1, e2 in zip(errs, errs[1:]) if e1 > 1e-13]
        assert all(r < 50 for r in ratios)

    def test_linear_problem_one_step(self):
        # for a linear residual the Picard and Newton operators coincide;
        # with an exact preconditioner one outer step solves the system
        # (the outer loop labels its very first step "picard" by
        # construction since ||F(x0)|| <= beta*||F(x0)|| never holds)
        rng = np.random.default_rng(51)
        n = 12
        dense = rng.random((n, n)) + n * np.eye(n)
        a = as_csr(sp.csr_matrix(dense))
        b = rng.random(n)

        def res(x):
            return a @ x - b

        def op(x, nt):
            return a

        prob = NonlinearProblem(residual=res, operator=op, sparsifier=op,
                                x0=np.zeros(n))
        cfg = SolverConfig(sigma=1e-8,
                           alpha_pair=(float(n), float(n)),
                           droptol_pair=(0.0, 0.0),
                           factor_params=FactorParams(dense_switch=4))
        x, rep = hybrid_newton(prob, cfg)
        assert rep.converged
        assert len(rep.steps) == 1
        assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_report_monotone_and_phase_switch(self):
        prob = scalar_problem(x0=5.0)
        cfg = SolverConfig(sigma=1e-10, factor_params=FactorParams(dense_switch=4))
        x, rep = hybrid_newton(prob, cfg)
        norms = [s.normF for s in rep.steps] + [rep.final_normF]
        assert all(b < a for a, b in zip(norms, norms[1:]))
        # accepted steps satisfy the sufficient-decrease bound with the
        # recorded damping factor
        for step, nxt in zip(rep.steps, norms[1:]):
            assert nxt <= (1.0 - cfg.theta * step.omega) * step.normF
        # the recorded phase flips exactly when normF <= beta * normF0
        norm_f0 = rep.steps[0].normF
        for s in rep.steps:
            expected = "newton" if s.normF <= cfg.beta * norm_f0 else "picard"
            assert s.phase == expected
        # first newton step refactorizes
        first_nt = next(s for s in rep.steps if s.phase == "newton")
        assert first_nt.refactorized

    def test_zero_initial_residual_rejected(self):
        prob = scalar_problem(x0=2.0)
        with pytest.raises(ValueError, match="zero"):
            hybrid_newton(prob, SolverConfig())

    @pytest.mark.parametrize("x0", [np.inf, np.nan])
    def test_non_finite_initial_residual_rejected(self, x0):
        with pytest.raises(ValueError, match="residual at the initial guess is not finite"):
            hybrid_newton(scalar_problem(x0=x0), SolverConfig())

    def test_a_residual_whose_norm_overflows_is_refused(self):
        # every entry is finite, but the sum of squares is not: inf <= sigma
        # * inf used to report convergence after 0 steps
        prob = cavity.build_problem(3, re=50.0)
        nlp = cavity.nonlinear_problem(prob, cavity.stokes_initial_guess(prob))
        huge = replace(nlp, residual=lambda x: 1e300 * cavity.residual(prob, x))
        with pytest.raises(ValueError, match="residual at the initial guess is not finite"):
            hybrid_newton(huge)

    def test_a_problem_scaled_by_a_power_of_two_is_solved_the_same_way(
            self, cavity_level4, cavity_level4_stokes):
        # residual, operator and sparsifier times 2^k, k even: equilibration
        # takes the scale out of the factor exactly, and FGMRES's tests are
        # relative, so every count and bit stays.  At k = 60 the driver used
        # to stop after 6 GMRES with "no residual decrease after 20 halvings"
        nlp = cavity.nonlinear_problem(cavity_level4, cavity_level4_stokes)

        def scaled(c):
            return replace(nlp, residual=lambda x: c * nlp.residual(x),
                           operator=lambda x, nt: c * nlp.operator(x, nt),
                           sparsifier=lambda x, nt: c * nlp.sparsifier(x, nt))

        runs = {k: hybrid_newton(scaled(2.0**k)) for k in (-40, 0, 40, 60)}
        for k, (x, rep) in runs.items():
            refactorizations = sum(s.refactorized for s in rep.steps)
            assert rep.converged, (k, rep.message)
            assert (len(rep.steps), rep.total_gmres, refactorizations) == (5, 7, 2), k
            assert np.array_equal(x, runs[0][0]), k

    @pytest.mark.parametrize("fixture", ["scalar", "planar"])
    def test_quadratic_local_convergence_fit(self, fixture):
        # exact factorization, exact Jacobian, Eisenstat-Walker forcing:
        # the log-error regression slope over the final steps must show a
        # quadratic tail (slope >= 1.8)
        if fixture == "scalar":
            prob = scalar_problem(x0=3.0)
            x_star = np.array([2.0])
        else:
            # F(x, y) = (x^2 + y^2 - 4, x y - 1), root at x^2 = 2 + sqrt(3)
            xs = np.sqrt(2.0 + np.sqrt(3.0))
            x_star = np.array([xs, 1.0 / xs])

            def res(x):
                return np.array([x[0] ** 2 + x[1] ** 2 - 4.0, x[0] * x[1] - 1.0])

            def op(x, nt):
                return as_csr(sp.csr_matrix(np.array(
                    [[2.0 * x[0], 2.0 * x[1]], [x[1], x[0]]]
                )))

            prob = NonlinearProblem(residual=res, operator=op, sparsifier=op,
                                    x0=np.array([2.5, 1.0]))
        cfg = SolverConfig(sigma=1e-14, max_nonlinear=30,
                           alpha_pair=(4.0, 4.0), droptol_pair=(0.0, 0.0),
                           factor_params=FactorParams(dense_switch=4))
        x, rep = hybrid_newton(prob, cfg)
        assert rep.converged
        # near the root ||F|| ~ ||J*|| e, so the slope of log||F_{k+1}||
        # against log||F_k|| matches that of the iterate errors
        norms = [s.normF for s in rep.steps] + [rep.final_normF]
        tail = [n for n in norms if n > 1e-13][-4:]
        logs = np.log(tail)
        slope = np.polyfit(logs[:-1], logs[1:], 1)[0]
        assert slope >= 1.8, (fixture, tail, slope)
        assert np.linalg.norm(x - x_star) <= 1e-10

    def test_inner_nonconvergence_is_tolerated(self):
        # cap the inner solver far below what it needs; the step must still
        # proceed and the iteration-count trigger must force a
        # refactorization on the following step
        rng = np.random.default_rng(52)
        n = 40
        dense = rng.random((n, n)) * 0.3 + np.diag(1.0 + rng.random(n))
        a = as_csr(sp.csr_matrix(dense))
        b = rng.random(n)

        def res(x):
            return a @ x - b

        def op(x, nt):
            return a

        prob = NonlinearProblem(residual=res, operator=op, sparsifier=op,
                                x0=np.zeros(n))
        cfg = SolverConfig(sigma=1e-10, m=2, gmres_cap=2, n_trigger=2,
                           alpha_pair=(1.0, 1.0), droptol_pair=(0.5, 0.5),
                           factor_params=FactorParams(dense_switch=4),
                           max_nonlinear=200)
        x, rep = hybrid_newton(prob, cfg)
        assert rep.converged
        # inner solves hit the cap, so every following step refactorizes
        capped = [s for s in rep.steps if s.gmres_iters >= 2]
        assert capped, "expected capped inner solves"
        for before, after in zip(rep.steps, rep.steps[1:]):
            if before.gmres_iters >= cfg.n_trigger:
                assert after.refactorized

    def test_line_search_failure_reported_not_raised(self):
        # residual that cannot decrease along the computed direction:
        # F(x) = [atan-like bounded-away residual]; use a direction-breaking
        # operator (wrong sign) so Armijo exhausts its halvings
        def res(x):
            return np.array([x[0] + 1.0])

        def op(x, nt):
            return as_csr(sp.csr_matrix(np.array([[-1.0]])))  # wrong sign

        prob = NonlinearProblem(residual=res, operator=op, sparsifier=op,
                                x0=np.array([1.0]))
        cfg = SolverConfig(max_halvings=5, factor_params=FactorParams(dense_switch=2))
        x, rep = hybrid_newton(prob, cfg)
        assert not rep.converged
        assert "halvings" in rep.message

    def test_nonfinite_direction_reported_not_raised(self, monkeypatch):
        def nan_fgmres(a_op, precond, b, params):
            return np.full(b.size, np.nan), KrylovReport(iterations=1)

        monkeypatch.setattr(nonlinear, "fgmres", nan_fgmres)
        cfg = SolverConfig(factor_params=FactorParams(dense_switch=2))
        x, rep = hybrid_newton(scalar_problem(), cfg)
        assert not rep.converged
        assert rep.steps == []
        assert "finite" in rep.message
        assert x[0] == 3.0

    def test_factorization_error_reported_not_raised(self):
        # a sparsifier with a structurally empty row cannot be equilibrated
        def op(x, nt):
            return as_csr(sp.eye(2, format="csr"))

        def empty_row(x, nt):
            return as_csr(sp.csr_matrix(([1.0], ([0], [0])), shape=(2, 2)))

        prob = NonlinearProblem(residual=lambda x: x - np.array([1.0, 2.0]), operator=op,
                                sparsifier=empty_row, x0=np.zeros(2))
        cfg = SolverConfig(factor_params=FactorParams(dense_switch=1))
        x, rep = hybrid_newton(prob, cfg)
        assert not rep.converged
        assert rep.steps == []
        assert rep.message == "structurally empty row 1"
        assert np.array_equal(x, np.zeros(2))

    def test_non_finite_sparsifier_reported_not_raised(self):
        def op(x, nt):
            return as_csr(sp.eye(2, format="csr"))

        def nan_entry(x, nt):
            return as_csr(sp.csr_matrix(np.array([[1.0, np.nan], [0.0, 1.0]])))

        prob = NonlinearProblem(residual=lambda x: x - np.array([1.0, 2.0]), operator=op,
                                sparsifier=nan_entry, x0=np.zeros(2))
        x, rep = hybrid_newton(prob, SolverConfig(factor_params=FactorParams(dense_switch=1)))
        assert not rep.converged
        assert rep.steps == []
        assert rep.message == "non-finite entry nan at (0, 1)"
        assert np.array_equal(x, np.zeros(2))

    @pytest.mark.parametrize("fixture", ["quadratic", "atan"])
    def test_one_residual_per_trial(self, fixture):
        # the accepted trial's residual is the next step's residual: the
        # driver evaluates F once at x0 and once per Armijo trial.  Newton
        # on atan(x) from x0 = 1.5 overshoots, so its first step halves.
        if fixture == "quadratic":
            prob = scalar_problem()
        else:
            def op(x, nt):
                return as_csr(sp.csr_matrix(np.array([[1.0 / (1.0 + x[0] ** 2)]])))

            prob = NonlinearProblem(residual=lambda x: np.arctan(x), operator=op,
                                    sparsifier=op, x0=np.array([1.5]))
        calls = []
        inner = prob.residual
        prob.residual = lambda x: calls.append(1) or inner(x)
        cfg = SolverConfig(sigma=1e-10, factor_params=FactorParams(dense_switch=4))
        _, rep = hybrid_newton(prob, cfg)
        assert rep.converged
        halvings = [round(-np.log2(s.omega)) for s in rep.steps]
        assert (sum(halvings) >= 1) == (fixture == "atan")
        assert len(calls) == 1 + sum(h + 1 for h in halvings)

    def test_one_factor_is_alive_at_a_time(self, cavity_level4, cavity_level4_stokes,
                                           monkeypatch):
        # the driver lets go of the old factor and its preconditioner
        # before it factorizes again
        factors, alive = [], []
        inner = nonlinear.factorize

        def tracked(a, params):
            gc.collect()
            alive.append(sum(ref() is not None for ref in factors))
            m = inner(a, params)
            factors.append(weakref.ref(m))
            return m

        monkeypatch.setattr(nonlinear, "factorize", tracked)
        _, rep = hybrid_newton(cavity.nonlinear_problem(cavity_level4, cavity_level4_stokes))
        assert rep.converged
        assert sum(s.refactorized for s in rep.steps) == len(alive) >= 2
        assert alive == [0] * len(alive)

    def test_csv_roundtrip(self, tmp_path):
        prob = scalar_problem()
        cfg = SolverConfig(sigma=1e-8, factor_params=FactorParams(dense_switch=2))
        _, rep = hybrid_newton(prob, cfg)
        path = tmp_path / "conv.csv"
        rep.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,phase,normF,eta,gmres_iters,refactorized,omega"
        assert len(lines) == len(rep.steps) + 1


class TestRefactorNeeded:
    cfg = SolverConfig(epsilon=0.8)

    truth_table = [
        # (prev_iters, norm_s, norm_x, first_newton) -> expected
        (20, 0.0, 1.0, False, True),    # iteration trigger at N exactly
        (19, 0.0, 1.0, False, False),   # just below N
        (0, 0.80, 1.0, False, True),    # epsilon trigger at equality
        (0, 0.79, 1.0, False, False),   # below epsilon
        (0, 0.0, 1.0, True, True),      # first newton alone
        (0, 0.0, 0.0, False, True),     # zero denominator counts as satisfied
        (0, 1.0, 0.0, False, True),     # zero previous iterate
        (25, 2.0, 1.0, True, True),     # all triggers together
    ]

    @pytest.mark.parametrize("iters,ns,nx,first,expected", truth_table)
    def test_truth_table(self, iters, ns, nx, first, expected):
        s = np.array([ns])
        x = np.array([nx])
        assert refactor_needed(iters, s, x, first, self.cfg) is expected

    def test_paper_threshold_default(self):
        assert SolverConfig().n_trigger == 20


class TestArmijo:
    def test_full_step_exact(self):
        def res(x):
            return x.copy()

        omega, x_new, f_new, norm_new = armijo_damp(res, np.array([1.0]), np.array([-1.0]),
                                                    1.0, 1e-4, 20)
        assert omega == 1.0
        assert x_new[0] == 0.0
        assert f_new[0] == 0.0
        assert norm_new == 0.0

    def test_hand_traced_halving(self):
        # F(x) = x, x = 1, s = -4: omega=1 -> |−3| rejected; 1/2 -> |−1|
        # rejected (1 > 1 - 1e-4); 1/4 -> 0 accepted
        def res(x):
            return x.copy()

        omega, x_new, f_new, norm_new = armijo_damp(res, np.array([1.0]), np.array([-4.0]),
                                                    1.0, 1e-4, 20)
        assert omega == 0.25
        assert x_new[0] == 0.0
        assert f_new[0] == 0.0
        assert norm_new == 0.0

    def test_zero_direction_fails(self):
        def res(x):
            return x.copy()

        with pytest.raises(LineSearchError):
            armijo_damp(res, np.array([1.0]), np.array([0.0]), 1.0, 1e-4, 10)


def phase_thresholds(cfg, started_nt):
    fp = cfg.phase_params[int(started_nt)]
    return fp.alpha, fp.droptol


class TestAdaptThresholds:
    @pytest.mark.parametrize("started_nt,regime,expected", [
        (False, "low_re", (2.0, 0.02)),
        (True, "low_re", (2.0, 0.01)),
        (False, "high_re", (5.0, 0.01)),
        (True, "high_re", (5.0, 0.001)),
    ])
    def test_defaults(self, started_nt, regime, expected):
        cfg = SolverConfig(regime=regime)
        assert phase_thresholds(cfg, started_nt) == expected

    def test_override(self):
        for regime in ("low_re", "high_re"):
            cfg = SolverConfig(alpha_pair=(3.0, 3.0), regime=regime)
            alpha, _ = phase_thresholds(cfg, False)
            assert alpha == 3.0

    def test_droptol_override_by_phase(self):
        assert phase_thresholds(SolverConfig(droptol_pair=(0.1, 0.005)), False)[1] == 0.1
        cfg = SolverConfig(droptol_pair=(0.1, 0.005), regime="high_re")
        assert phase_thresholds(cfg, np.bool_(True))[1] == 0.005

    def test_other_factor_params_carried_into_both_phases(self):
        cfg = SolverConfig(factor_params=FactorParams(dense_switch=7, cond_thresh=3.0))
        for fp in cfg.phase_params:
            assert (fp.dense_switch, fp.cond_thresh) == (7, 3.0)

    @pytest.mark.parametrize("kwargs", [{"alpha": 10.0}, {"droptol": 0.5},
                                        {"alpha": 10.0, "droptol": 0.5}])
    def test_factor_params_alpha_droptol_rejected(self, kwargs):
        # they would be replaced by the phase's pair values, so setting them
        # here is an error rather than a silently ignored setting
        with pytest.raises(ValueError, match="alpha_pair and droptol_pair"):
            SolverConfig(factor_params=FactorParams(**kwargs))


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs,match", [
        ({"sigma": 1.0}, "sigma"),
        ({"beta": 0.0}, "beta"),
        ({"theta": 0.5}, "theta"),
        ({"eta_max": 0.0}, "eta_max"),
        ({"eta_max": 1.0}, "eta_max"),
        ({"picard_eta": 1.5}, "picard_eta"),
        ({"picard_eta": 0.0}, "picard_eta"),
        ({"epsilon": 0.0}, "epsilon"),
        ({"epsilon": -1.0}, "epsilon"),
        ({"m": 300}, "gmres_cap"),
        ({"m": 31, "gmres_cap": 30}, "gmres_cap"),
        ({"max_halvings": 0}, "max_halvings"),
        ({"regime": "mid"}, "regime"),
    ])
    def test_rejects_invalid(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SolverConfig(**kwargs)

    def test_boundary_values_accepted(self):
        SolverConfig(m=200, gmres_cap=200, epsilon=1e-12, eta_max=0.999,
                     picard_eta=1e-3)
