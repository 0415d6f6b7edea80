import numpy as np
import pytest
import scipy.sparse as sp

from saddlesolve import cavity as cav
from saddlesolve.krylov import GmresParams, PrecondOperator, fgmres
from saddlesolve.mlilu import FactorParams, factorize
from saddlesolve.sparse import as_csr


class TestMesh:
    def test_level3_counts(self):
        mesh = cav.build_mesh(3)
        assert mesh.triangles.shape[0] == 32       # 16 squares, 2 each
        assert mesh.n_pressure == 25               # 5^2 vertices
        assert mesh.n_velocity == 49               # (2^3 - 1)^2

    def test_level6_unknowns(self):
        mesh = cav.build_mesh(6)
        assert mesh.n_unknowns == 2 * 63**2 + 33**2 == 9027

    @pytest.mark.parametrize("level", [3, 4, 5])
    def test_dof_formulas(self, level):
        mesh = cav.build_mesh(level)
        assert mesh.n_velocity == (2**level - 1) ** 2
        assert mesh.n_pressure == (2 ** (level - 1) + 1) ** 2

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            cav.build_mesh(2)
        with pytest.raises(ValueError):
            cav.build_mesh(13)

    @pytest.mark.parametrize("level", [3.5, 4.0, "4"])
    def test_non_integer_level_refused(self, level):
        # a numpy integer is a level; anything else is refused here, not as
        # an IndexError deep in the mesh build
        assert cav.build_mesh(np.int64(3)).level == 3
        with pytest.raises(ValueError, match="mesh level must be an integer"):
            cav.build_mesh(level)

    def test_node_order_lexicographic_by_y_then_x(self):
        mesh = cav.build_mesh(3)
        order = np.lexsort((mesh.nodes[:, 0], mesh.nodes[:, 1]))
        assert np.array_equal(order, np.arange(mesh.n_nodes))

    def test_leaky_lid_corners(self):
        mesh = cav.build_mesh(3)
        top = mesh.nodes[:, 1] == 1.0
        assert np.all(mesh.boundary_kind[top] == cav.LID)
        corners = (np.abs(mesh.nodes[:, 0]) == 1.0) & top
        assert corners.sum() == 2
        assert np.all(mesh.boundary_kind[corners] == cav.LID)

    def test_positive_triangle_orientation(self):
        mesh = cav.build_mesh(4)
        v = mesh.nodes[mesh.triangles[:, :3]]
        cross = (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1]) - \
                (v[:, 1, 1] - v[:, 0, 1]) * (v[:, 2, 0] - v[:, 0, 0])
        assert np.all(cross > 0)


def _coo_entries(mesh):
    """The (rows, cols) of every P2 x P2 and P1 x P2 element entry, class by
    class, in the order the assembly takes the element values."""
    tri = [mesh.triangles[c::2] for c in (0, 1)]
    p1 = [mesh.p1_conn[c::2] for c in (0, 1)]
    vv = (np.concatenate([np.repeat(t, 6, axis=1).ravel() for t in tri]),
          np.concatenate([np.tile(t, (1, 6)).ravel() for t in tri]))
    pv = (np.concatenate([np.repeat(p, 6, axis=1).ravel() for p in p1]),
          np.concatenate([np.tile(t, (1, 3)).ravel() for t in tri]))
    return vv, pv


def _coo_assemble(entries):
    """The assembly the recorded sort replaces: every element entry into a
    coo_matrix, converted to canonical CSR by as_csr."""
    def assemble(quad, local, pattern=None):
        pattern = quad.vv if pattern is None else pattern
        (rows, cols), shape = entries[pattern is quad.pv], pattern[-1]
        vals = []
        for cls in quad.classes:
            m = local(cls)
            vals.append(np.broadcast_to(m, (cls["tri"].shape[0], *m.shape[-2:])).ravel())
        return as_csr(sp.coo_matrix((np.concatenate(vals), (rows, cols)), shape=shape))
    return assemble


def _bmat_saddle(prob, vel_blocks):
    """The saddle stacking the compiled CSR hstack/vstack replaces."""
    ex, ey = prob.div_x_red, prob.div_y_red
    return as_csr(sp.bmat([[*vel_blocks[0], ex.T], [*vel_blocks[1], ey.T], [ex, ey, None]],
                          format="csr"))


def _assert_same_bits(a, b, key):
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape, key
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), key
        return
    assert type(a) is type(b) and a.shape == b.shape, key
    for name in ("indptr", "indices"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), (key, name)
    # through int64, so that a -0.0 where the COO path gives +0.0 fails
    assert np.array_equal(a.data.view(np.int64), b.data.view(np.int64)), (key, "data")


@pytest.mark.parametrize("level", [3, 4])
def test_recorded_sort_assembly_matches_the_coo_path(level, monkeypatch):
    prob = cav.build_problem(level, re=100.0)
    n, nvi = prob.n_unknowns, prob.mesh.n_velocity
    stokes = cav.stokes_initial_guess(prob)
    half = stokes.copy()
    for block in cav.split_state(prob, half)[:2]:
        block[:nvi // 2] = -0.0   # lexicographic (y, x) order: the lower half
    states = {"stokes": stokes, "zero": np.zeros(n),
              "random": np.random.default_rng(37).standard_normal(n), "half -0.0": half}

    def evaluate(p):
        out = {"stiffness": p.stiffness_full, "div_x": p.div_x_full, "div_y": p.div_y_full,
               "stokes": cav.stokes_operator(p)}
        for name, x in states.items():
            out["oseen", name] = cav.oseen_operator(p, x)
            out["newton", name] = cav.newton_operator(p, x)
            out["residual", name] = cav.residual(p, x)
        return out

    recorded = evaluate(prob)
    with monkeypatch.context() as m:
        m.setattr(cav, "_assemble", _coo_assemble(_coo_entries(prob.mesh)))
        m.setattr(cav, "_saddle", _bmat_saddle)
        coo = evaluate(cav.build_problem(level, re=100.0))
    assert recorded.keys() == coo.keys()
    for key in coo:
        _assert_same_bits(recorded[key], coo[key], key)


class TestConstantOperators:
    def test_stiffness_annihilates_constants(self, cavity_level4):
        prob = cavity_level4
        ones = np.ones(prob.mesh.n_nodes)
        assert np.abs(prob.stiffness_full @ ones).max() <= 1e-13

    def test_pressure_mass_partition_of_unity(self, cavity_level4):
        # div_x_full @ x (div_y_full @ y) is minus the integral of each
        # pressure basis function; the basis sums to one, so the total is
        # minus the area of the box
        prob = cavity_level4
        for div, coord in zip((prob.div_x_full, prob.div_y_full), prob.mesh.nodes.T):
            assert -(div @ coord).sum() == pytest.approx(4.0, abs=1e-12)

    def test_divergence_transpose_kills_constant_pressure(self, cavity_level4):
        # discrete gradient of a constant pressure vanishes on interior
        # velocity test functions (exact integration of a derivative)
        prob = cavity_level4
        ones = np.ones(prob.mesh.n_pressure)
        gx = (prob.div_x_full.T @ ones)[prob.mesh.interior]
        gy = (prob.div_y_full.T @ ones)[prob.mesh.interior]
        assert np.abs(gx).max() <= 1e-13
        assert np.abs(gy).max() <= 1e-13


class TestConvection:
    def test_zero_velocity_gives_zero_operators(self):
        # zero lid so the full velocity field (boundary lift included) is 0:
        # the Jacobian has the Stokes values, with the convection pattern
        # retained as explicit zeros
        prob_zero = cav.build_problem(4, re=100.0)
        prob_zero.lid_values[:] = 0.0
        j = cav.newton_operator(prob_zero, np.zeros(prob_zero.n_unknowns))
        stokes = cav.stokes_operator(prob_zero)
        assert np.abs(j - stokes).max() == 0.0
        assert j.nnz > stokes.nnz

    def test_skew_row_sums_on_rotational_field(self, cavity_level4):
        # advecting field (y, -x) is divergence free; each row of the full
        # advection operator integrates u . grad(1) = 0 over the patch
        prob = cavity_level4
        ux = prob.mesh.nodes[:, 1].copy()
        uy = -prob.mesh.nodes[:, 0].copy()
        conv = cav._convection_full(prob, ux, uy)
        rowsums = np.asarray(conv.sum(axis=1)).ravel()
        assert np.abs(rowsums).max() <= 1e-13

    def test_directional_fd_jacobian(self, cavity_level4):
        prob = cavity_level4
        rng = np.random.default_rng(61)
        n = prob.n_unknowns
        x = 0.1 * rng.standard_normal(n)
        jac = cav.newton_operator(prob, x)
        f0 = cav.residual(prob, x)
        for _ in range(3):
            s = rng.standard_normal(n)
            h = 1e-7 * max(np.linalg.norm(x), 1.0) / np.linalg.norm(s)
            fd = (cav.residual(prob, x + h * s) - f0) / h
            js = jac @ s
            assert np.linalg.norm(fd - js) / np.linalg.norm(js) <= 1e-6


class TestResidual:
    def test_rest_state_homogeneous(self):
        prob = cav.build_problem(4, re=100.0)
        prob.lid_values[:] = 0.0
        f = cav.residual(prob, np.zeros(prob.n_unknowns))
        assert np.abs(f).max() == 0.0

    def test_stokes_solution_leaves_pure_convection(self, cavity_level4, cavity_level4_stokes):
        prob = cavity_level4
        x = cavity_level4_stokes
        f = cav.residual(prob, x)
        nvi = prob.mesh.n_velocity
        # momentum block equals the assembled nonlinear convection at the
        # Stokes field; continuity block is zero to solver tolerance
        ux, uy, _ = cav.expand_state(prob, x)
        conv = cav._convection_full(prob, ux, uy)
        intr = prob.mesh.interior
        expected = np.concatenate([(conv @ ux)[intr], (conv @ uy)[intr]])
        stokes_scale = np.linalg.norm(cav.stokes_rhs(prob))
        assert np.linalg.norm(f[:2 * nvi] - expected) <= 1e-8 * stokes_scale
        assert np.linalg.norm(f[2 * nvi:]) <= 1e-9 * stokes_scale
        assert np.linalg.norm(f) > 0

    def test_linear_regime_consistency(self):
        # with a zero full velocity field (zero lid) the Jacobian is the
        # Stokes operator and the residual is linear: F(x) = Stokes @ x
        prob = cav.build_problem(4, re=100.0)
        prob.lid_values[:] = 0.0
        rng = np.random.default_rng(62)
        n = prob.n_unknowns
        j0 = cav.newton_operator(prob, np.zeros(n))
        stokes = cav.stokes_operator(prob)
        assert np.abs(j0 - stokes).max() <= 1e-14
        x = rng.standard_normal(n)
        nvi = prob.mesh.n_velocity
        x_lin = x.copy()
        x_lin[:2 * nvi] = 0.0  # keep the convection term out
        f = cav.residual(prob, x_lin)
        assert np.linalg.norm(f - stokes @ x_lin) <= 1e-12 * np.linalg.norm(x_lin)


class TestOperators:
    def test_oseen_at_zero_field_is_stokes(self):
        # the linearization state is the full field including the lid lift,
        # so the Stokes identity holds at the zero field (zero lid)
        prob = cav.build_problem(4, re=100.0)
        prob.lid_values[:] = 0.0
        o = cav.oseen_operator(prob, np.zeros(prob.n_unknowns))
        j = cav.newton_operator(prob, np.zeros(prob.n_unknowns))
        s = cav.stokes_operator(prob)
        assert np.abs(o - s).max() <= 1e-14
        assert np.abs(j - s).max() <= 1e-14

    def test_oseen_sparser_than_newton(self, cavity_level4, cavity_level4_stokes):
        o = cav.oseen_operator(cavity_level4, cavity_level4_stokes)
        j = cav.newton_operator(cavity_level4, cavity_level4_stokes)
        assert o.nnz < j.nnz

    def test_cross_term_only_in_velocity_blocks(self, cavity_level4, cavity_level4_stokes):
        prob = cavity_level4
        nvi = prob.mesh.n_velocity
        diff = (cav.newton_operator(prob, cavity_level4_stokes)
                - cav.oseen_operator(prob, cavity_level4_stokes)).tocoo()
        mask = np.abs(diff.data) > 0
        assert np.all(diff.row[mask] < 2 * nvi)
        assert np.all(diff.col[mask] < 2 * nvi)

    @pytest.mark.parametrize("which", ["oseen", "newton"])
    def test_null_vector_annihilated(self, cavity_level4, which):
        prob = cavity_level4
        rng = np.random.default_rng(63)
        x = 0.1 * rng.standard_normal(prob.n_unknowns)
        op = cav.oseen_operator(prob, x) if which == "oseen" else cav.newton_operator(prob, x)
        q = cav.null_vector(prob)
        jinf = np.abs(op).sum(axis=1).max()
        assert np.abs(op @ q).max() <= 1e-12 * jinf


@pytest.mark.parametrize("delta", [-1, 1])
def test_state_of_the_wrong_length_refused(cavity_level4, delta):
    # one entry short or long used to fail in scipy's matmul
    n = cavity_level4.n_unknowns
    x = np.zeros(n + delta)
    with pytest.raises(ValueError, match=f"state has {n + delta} entries; the cavity has {n} unknowns"):
        cav.residual(cavity_level4, x)
    with pytest.raises(ValueError, match=f"state has {n + delta} entries"):
        cav.split_state(cavity_level4, x)


class TestNullVector:
    def test_level4_layout(self, cavity_level4):
        q = cav.null_vector(cavity_level4)
        nvi = cavity_level4.mesh.n_velocity
        assert nvi == 15**2
        assert np.all(q[:2 * nvi] == 0.0)
        assert np.allclose(q[2 * nvi:], 1.0 / 9.0)

    def test_unit_norm(self, cavity_level4):
        q = cav.null_vector(cavity_level4)
        assert q @ q == pytest.approx(1.0, abs=1e-15)


class TestStokesGuess:
    def test_zero_lid_gives_zero_state(self):
        prob = cav.build_problem(3, re=100.0)
        prob.lid_values[:] = 0.0
        # the residual of the zero state is exactly zero, so the solve is
        # trivial and must return zeros
        b = cav.stokes_rhs(prob)
        assert np.abs(b).max() == 0.0
        x = cav.stokes_initial_guess(prob)
        assert np.abs(x).max() == 0.0

    def test_discrete_divergence_free(self, cavity_level4, cavity_level4_stokes):
        prob = cavity_level4
        ux, uy, _ = cav.expand_state(prob, cavity_level4_stokes)
        div = prob.div_x_full @ ux + prob.div_y_full @ uy
        unorm = np.linalg.norm(np.concatenate([ux, uy]))
        assert np.linalg.norm(div) <= 1e-9 * unorm

    def test_pressure_zero_mean(self, cavity_level4, cavity_level4_stokes):
        _, _, p = cav.split_state(cavity_level4, cavity_level4_stokes)
        assert abs(p.mean()) <= 1e-12 * max(np.abs(p).max(), 1.0)

    def test_regularized_bc_symmetry_up_to_discretization(self):
        # The regularized lid 1 - x^4 is even in x, so the continuous
        # solution has even u_x.  Every square is split along the same
        # diagonal, which makes the mesh itself x-asymmetric, so the
        # discrete asymmetry is at discretization-error order (measured
        # 9.1e-2 at level 4, 4.7e-2 at level 5) and must shrink under
        # refinement rather than vanish.
        def asym(level):
            prob = cav.build_problem(level, re=100.0, bc_kind="regularized")
            x = cav.stokes_initial_guess(prob)
            ux, _, _ = cav.expand_state(prob, x)
            m = 2**level
            grid = ux.reshape(m + 1, m + 1)
            return np.abs(grid - grid[:, ::-1]).max()

        a4 = asym(4)
        a5 = asym(5)
        assert a4 <= 0.15
        assert a5 < a4

    def test_stokes_velocity_independent_of_re(self):
        # the lid-driven Stokes velocity does not depend on the viscosity
        pa = cav.build_problem(3, re=100.0)
        pb = cav.build_problem(3, re=400.0)
        xa = cav.stokes_initial_guess(pa)
        xb = cav.stokes_initial_guess(pb)
        nvi = pa.mesh.n_velocity
        assert np.linalg.norm(xa[:2 * nvi] - xb[:2 * nvi]) <= 1e-8

    @pytest.mark.parametrize("level", [4, 5])
    def test_direct_guess_solves_full_system(self, level):
        # the residual includes the continuity row of the pinned pressure,
        # which the solve never sees: the right-hand side is compatible
        prob = cav.build_problem(level, re=100.0)
        x = cav.stokes_initial_guess(prob)
        b = cav.stokes_rhs(prob)
        r = cav.stokes_operator(prob) @ x - b
        assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(b)

    def test_direct_guess_matches_preconditioned_gmres(self, cavity_level4, cavity_level4_stokes):
        prob = cavity_level4
        a = cav.stokes_operator(prob)
        precond = PrecondOperator(factorize(a, FactorParams(alpha=2.0, droptol=1e-3)), j_op=a,
                                  null_basis=cav.null_vector(prob), refine_steps=2)
        x, rep = fgmres(a, precond, cav.stokes_rhs(prob),
                        GmresParams(restart=30, max_iters=300, rtol=1e-12))
        assert rep.converged
        p = x[2 * prob.mesh.n_velocity:]
        p -= p.mean()
        err = np.linalg.norm(cavity_level4_stokes - x)
        assert err <= 1e-9 * np.linalg.norm(x)

    def test_singular_pinned_matrix_raises(self, monkeypatch):
        stokes_operator = cav.stokes_operator

        def zero_first_velocity_row(prob):
            a = stokes_operator(prob)
            keep = np.ones(a.shape[0])
            keep[0] = 0.0
            return sp.csr_matrix(sp.diags(keep) @ a)

        monkeypatch.setattr(cav, "stokes_operator", zero_first_velocity_row)
        with pytest.raises(RuntimeError, match="Stokes initial guess: the pinned matrix is singular"):
            cav.stokes_initial_guess(cav.build_problem(3, re=100.0))


class TestPrecondProjection:
    def test_apply_precond_orthogonal_to_null(self, cavity_level4, cavity_level4_stokes):
        prob = cavity_level4
        a = cav.oseen_operator(prob, cavity_level4_stokes)
        q = cav.null_vector(prob)
        factor = factorize(a, FactorParams(alpha=2.0, droptol=0.01))
        p = PrecondOperator(factor, j_op=a, null_basis=q, refine_steps=2)
        rng = np.random.default_rng(64)
        v = rng.standard_normal(prob.n_unknowns)
        z = p.apply(v)
        assert abs(z @ q) <= 1e-12 * np.linalg.norm(z)


def test_refinement_self_convergence():
    # centerline u_x differences between consecutive levels shrink at
    # Re = 100 (three consecutive levels, full nonlinear solves)
    from saddlesolve.nonlinear import SolverConfig, hybrid_newton

    profiles = {}
    for level in (3, 4, 5):
        prob = cav.build_problem(level, re=100.0)
        nlp = cav.nonlinear_problem(prob, cav.stokes_initial_guess(prob))
        x, rep = hybrid_newton(nlp, SolverConfig(sigma=1e-8, regime="low_re"))
        assert rep.converged
        y, u = cav.centerline_profile(prob, x)
        profiles[level] = (y, u)

    # compare on the coarse level's nodes (nested grids)
    def diff(fine, coarse):
        yf, uf = profiles[fine]
        yc, uc = profiles[coarse]
        idx = np.searchsorted(yf, yc)
        return np.abs(uf[idx] - uc).max()

    d34 = diff(4, 3)
    d45 = diff(5, 4)
    assert d45 < d34


def test_regularized_lid_observed_order_is_at_least_3():
    # the max centerline u_x difference at the L3 nodes between consecutive
    # levels (Re 100, sigma 1e-10, low_re); log2 of the ratio of two such
    # differences is the observed order: 3.62 over L4 -> L5 -> L6 here
    # (2.9e-3, 2.4e-4), and 4.48 and 3.97 over L3 -> L5 and L5 -> L7.
    # With the standard lid the same measure gives 0.91 over L4 -> L6
    # (2.2e-2, 1.1e-2), and 0.40 and 0.97 over L3 -> L5 and L5 -> L7.  Its
    # largest difference sits at y = 0, and leaving out the nodes above
    # y = 0 leaves it at 0.91, so the loss is not local to the lid; its
    # cause is unknown (the lid's corner discontinuity polluting the whole
    # solution is a guess that was not checked).
    # Over the L3 grid's 7 x 7 interior nodes the rms differences of u_x,
    # u_y and the pressure (pressure_to_nodes, its mean over those nodes
    # removed) fall by 12.9, 17.5 and 4.4 from L4 -> L5 to L5 -> L6: order 3
    # or more for the velocity and 2 for the pressure, as Taylor-Hood P2/P1
    # gives for a smooth solution.  The boundary is left out: the lid's
    # slope meets the walls' zero at the top corners, a pressure
    # singularity whose largest vertex value grows with the level.
    from saddlesolve.nonlinear import SolverConfig, hybrid_newton

    coarse = cav.build_problem(3, re=100.0, bc_kind="regularized")
    y3, _ = cav.centerline_profile(coarse, np.zeros(coarse.n_unknowns))
    xy3 = coarse.mesh.nodes[coarse.mesh.interior]
    u, fields = {}, {}
    for level in (4, 5, 6):
        prob = cav.build_problem(level, re=100.0, bc_kind="regularized")
        nlp = cav.nonlinear_problem(prob, cav.stokes_initial_guess(prob))
        x, rep = hybrid_newton(nlp, SolverConfig(sigma=1e-10, regime="low_re"))
        assert rep.converged
        y, ux = cav.centerline_profile(prob, x)
        at = np.searchsorted(y, y3)
        assert np.array_equal(y[at], y3)  # nested grids
        u[level] = ux[at]
        # the L3 interior nodes among this level's: the coordinates are exact
        match = (prob.mesh.nodes[:, None, :] == xy3).all(axis=2)
        assert match.sum(axis=0).tolist() == [1] * len(xy3)
        at = match.argmax(axis=0)
        ux, uy, p = cav.expand_state(prob, x)
        pn = cav.pressure_to_nodes(prob, p)[at]
        fields[level] = np.stack([ux[at], uy[at], pn - pn.mean()])
    d45 = np.abs(u[5] - u[4]).max()
    d56 = np.abs(u[6] - u[5]).max()
    assert np.log2(d45 / d56) >= 3.0

    def rms(d):
        return np.sqrt(np.mean(d * d, axis=1))

    ratio = rms(fields[5] - fields[4]) / rms(fields[6] - fields[5])
    assert ratio[0] >= 6 and ratio[1] >= 6 and ratio[2] >= 3, ratio


def test_write_solution_csv(tmp_path, cavity_level4, cavity_level4_stokes):
    path = tmp_path / "solution.csv"
    cav.write_solution_csv(cavity_level4, cavity_level4_stokes, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,u,v,p"
    assert len(lines) == cavity_level4.mesh.n_nodes + 1


@pytest.mark.parametrize("level", [3, 4])
def test_pressure_to_nodes_reproduces_linear_pressure(level):
    # linear interpolation is exact for p = a + b x + c y at every fine node:
    # the vertices, and the horizontal, vertical and diagonal edge midpoints
    prob = cav.build_problem(level, re=100.0)
    mesh = prob.mesh

    def linear(xy):
        return 0.3 - 1.7 * xy[:, 0] + 2.5 * xy[:, 1]

    p = linear(mesh.nodes[mesh.pressure_nodes])
    err = np.abs(cav.pressure_to_nodes(prob, p) - linear(mesh.nodes)).max()
    assert err <= 1e-14


@pytest.mark.parametrize("re", [0.0, -1.0, float("nan"), float("inf")])
def test_build_problem_rejects_bad_reynolds(re):
    # a NaN or infinite Re would otherwise fail later, in the Stokes solve
    with pytest.raises(ValueError, match="Reynolds number must be positive and finite"):
        cav.build_problem(3, re)


def test_build_problem_rejects_an_unknown_bc_kind():
    with pytest.raises(ValueError, match="bc_kind must be 'standard' or 'regularized'"):
        cav.build_problem(3, 100.0, bc_kind="periodic")
