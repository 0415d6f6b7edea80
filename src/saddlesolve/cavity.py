"""Built-in 2D lid-driven cavity benchmark.

Structured Taylor-Hood discretization on [-1, 1]^2: a uniform grid of
(2^(l-1))^2 squares, each split along the lower-left to upper-right
diagonal into two quadratic triangles.  Quadratic velocities live on the
fine node grid, linear pressures on the square vertices.  The unknown
layout is [u_x interior nodes, u_y interior nodes, all pressure nodes],
each block in lexicographic (y, x) node order, which makes the pressure
null vector a trailing constant block.

Dirichlet velocity data (no-slip walls, moving top lid; the two top
corners take the lid value) is eliminated: operators are assembled on the
full node grid and the reduced blocks are sliced from them, with boundary
contributions moved to right-hand sides inside the residual.

Every assembly scatters element matrices over one of two patterns the mesh
fixes, P2 x P2 and P1 x P2.  For each, the order in which scipy 1.17's
COO -> CSR conversion sorts the entries is recorded once per problem;
an assembly gathers its element values in that order and sums the
duplicates as the conversion does, so it gives the conversion's bits
without its sort (tests/test_cavity.py pins this against the COO path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu
# the compiled steps of scipy's COO -> CSR conversion, which _assemble replays
from scipy.sparse._sparsetools import (coo_tocsr, csr_has_sorted_indices, csr_sort_indices,
                                       csr_sum_duplicates)

# unused here; perfbench/spans.py wraps both names on this module by name
from .krylov import fgmres  # noqa: F401
from .mlilu import factorize  # noqa: F401
from .mmio import write_csv
from .nonlinear import NonlinearProblem

__all__ = [
    "CavityMesh",
    "CavityProblem",
    "build_mesh",
    "build_problem",
    "null_vector",
    "oseen_operator",
    "newton_operator",
    "residual",
    "nonlinear_problem",
    "stokes_initial_guess",
    "split_state",
    "expand_state",
    "write_solution_csv",
]

INTERIOR, WALL, LID = 0, 1, 2

# degree-5, 7-point quadrature on the reference triangle (weights sum to 1,
# scaled by the reference area 1/2 below)
_SQ15 = math.sqrt(15.0)
_QW = np.array(
    [9.0 / 40.0]
    + [(155.0 + _SQ15) / 1200.0] * 3
    + [(155.0 - _SQ15) / 1200.0] * 3
)
_B1 = (6.0 + _SQ15) / 21.0
_A1 = 1.0 - 2.0 * _B1
_B2 = (6.0 - _SQ15) / 21.0
_A2 = 1.0 - 2.0 * _B2
_QP = np.array(
    [
        [1.0 / 3.0, 1.0 / 3.0],
        [_B1, _B1], [_A1, _B1], [_B1, _A1],
        [_B2, _B2], [_A2, _B2], [_B2, _A2],
    ]
)


# the P2 triangle's local numbering: vertices 0, 1, 2, then the midpoints
# 3, 4, 5 of these vertex pairs
_EDGES = ((0, 1), (1, 2), (2, 0))


def _p2_basis(pts):
    """Values and reference gradients of the 6 quadratic basis functions
    (vertices, then the midpoints of _EDGES) at the given (xi, eta)."""
    xi, eta = pts[:, 0], pts[:, 1]
    lam = np.stack([1.0 - xi - eta, xi, eta], axis=1)
    gl = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    i, j = np.array(_EDGES).T
    n = np.concatenate([lam * (2 * lam - 1), 4 * lam[:, i] * lam[:, j]], axis=1)
    dn = np.concatenate([(4 * lam - 1)[:, :, None] * gl,
                         4 * (lam[:, j, None] * gl[i] + lam[:, i, None] * gl[j])], axis=1)
    return n, dn


def _p1_basis(pts):
    xi, eta = pts[:, 0], pts[:, 1]
    return np.stack([1.0 - xi - eta, xi, eta], axis=1)


@dataclass
class CavityMesh:
    level: int
    nodes: np.ndarray           # (n_nodes, 2) fine-grid coordinates
    triangles: np.ndarray       # (n_tri, 6) quadratic connectivity
    p1_conn: np.ndarray         # (n_tri, 3) vertex -> pressure dof
    pressure_nodes: np.ndarray  # fine node id of each pressure dof
    boundary_kind: np.ndarray   # per fine node: INTERIOR / WALL / LID
    interior: np.ndarray        # fine node ids of interior velocity dofs

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_velocity(self) -> int:
        return self.interior.size

    @property
    def n_pressure(self) -> int:
        return self.pressure_nodes.size

    @property
    def n_unknowns(self) -> int:
        return 2 * self.n_velocity + self.n_pressure


def build_mesh(level: int) -> CavityMesh:
    if not (isinstance(level, Integral) and 3 <= level <= 12):
        raise ValueError("mesh level must be an integer between 3 and 12")
    ncell = 2 ** (level - 1)       # squares per side
    m = 2 * ncell                  # fine intervals per side
    coords_1d = -1.0 + 2.0 * np.arange(m + 1) / m
    ix, iy = np.meshgrid(np.arange(m + 1), np.arange(m + 1))
    nodes = np.column_stack([coords_1d[ix.ravel()], coords_1d[iy.ravel()]])

    def nid(jx, jy):
        return jy * (m + 1) + jx

    cx, cy = np.meshgrid(np.arange(ncell), np.arange(ncell))
    bx = (2 * cx.ravel()).astype(np.intp)
    by = (2 * cy.ravel()).astype(np.intp)
    # lower-right triangle then upper-left, both counterclockwise, split
    # along the same lower-left to upper-right diagonal in every square:
    # each by its vertices' fine-grid offsets, its midpoints their means
    triangles = np.empty((2 * ncell * ncell, 6), dtype=np.intp)
    for half, corners in enumerate((((0, 0), (2, 0), (2, 2)), ((0, 0), (2, 2), (0, 2)))):
        offsets = [*corners, *(np.add(corners[i], corners[j]) // 2 for i, j in _EDGES)]
        triangles[half::2] = np.column_stack([nid(bx + ox, by + oy) for ox, oy in offsets])

    px, py = np.meshgrid(np.arange(0, m + 1, 2), np.arange(0, m + 1, 2))
    pressure_nodes = nid(px.ravel().astype(np.intp), py.ravel().astype(np.intp))
    p_of_node = np.full(nodes.shape[0], -1, dtype=np.intp)
    p_of_node[pressure_nodes] = np.arange(pressure_nodes.size)
    p1_conn = p_of_node[triangles[:, :3]]

    gx, gy = ix.ravel(), iy.ravel()
    kind = np.full((m + 1) * (m + 1), INTERIOR, dtype=np.int8)
    on_boundary = (gx == 0) | (gx == m) | (gy == 0) | (gy == m)
    kind[on_boundary] = WALL
    kind[gy == m] = LID  # top corners included: leaky-lid convention
    interior = np.flatnonzero(kind == INTERIOR).astype(np.intp)

    return CavityMesh(
        level=level,
        nodes=nodes,
        triangles=triangles,
        p1_conn=p1_conn,
        pressure_nodes=pressure_nodes,
        boundary_kind=kind,
        interior=interior,
    )


def _record_sort(row_ids, col_ids, shape):
    """Run scipy 1.17's COO -> CSR path once on the entry positions of an
    element pattern, element e's entry (a, b) being (row_ids[e, a],
    col_ids[e, b]) at e * na * nb + a * nb + b, in the index dtype that
    path picks (int32 unless the length or a dimension exceeds its
    maximum): the row placement of ``coo_tocsr``, then the per-row
    ``csr_sort_indices`` when the rows are not sorted yet.  Its payload is
    each entry's position, as the sort's permutation depends on the keys
    alone.  Returns (order, indptr, indices, shape): ``order[k]`` is the
    entry that path puts at sorted position k, and ``indptr``/``indices``
    are its sorted rows, duplicates still in place."""
    (ne, na), nb = row_ids.shape, col_ids.shape[1]
    m = ne * na * nb
    n_rows, n_cols = shape
    idx = np.int32 if max(m, n_rows, n_cols) <= np.iinfo(np.int32).max else np.int64
    rows = np.repeat(row_ids.astype(idx), nb, axis=1).ravel()
    cols = np.tile(col_ids.astype(idx), (1, na)).ravel()
    indptr = np.empty(n_rows + 1, dtype=idx)
    indices = np.empty(m, dtype=idx)
    order = np.empty(m, dtype=np.intp)
    coo_tocsr(n_rows, n_cols, m, rows, cols, np.arange(m, dtype=np.intp),
              indptr, indices, order)
    if not csr_has_sorted_indices(n_rows, indptr, indices):
        csr_sort_indices(n_rows, indptr, indices, order)
    return order, indptr, indices, shape


class _Quadrature:
    """Per-element-class basis tables; the mesh has two congruent triangle
    shapes (even/odd triangle index) with constant affine maps.  The sort
    of every P2 x P2 (``vv``) and P1 x P2 (``pv``) element entry, class by
    class, is recorded once; the class loop of every assembly and its
    replay of the sort live in ``_assemble``."""

    def __init__(self, mesh: CavityMesh):
        phi, dphi = _p2_basis(_QP)
        psi = _p1_basis(_QP)
        self.phi = phi
        self.psi = psi
        self.classes = []
        for c in (0, 1):
            tri = mesh.triangles[c::2]
            v = mesh.nodes[mesh.triangles[c, :3]]
            jac = np.column_stack([v[1] - v[0], v[2] - v[0]])
            det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
            jinv = np.array([[jac[1, 1], -jac[0, 1]], [-jac[1, 0], jac[0, 0]]]) / det
            grad = dphi @ jinv            # (nq, 6, 2) physical gradients
            wdet = 0.5 * _QW * abs(det)   # reference area folded in
            self.classes.append(
                dict(tri=tri, gx=grad[:, :, 0], gy=grad[:, :, 1], wdet=wdet)
            )
        # the elements class by class, as the assemblies take their values
        tri = np.concatenate([mesh.triangles[c::2] for c in (0, 1)])
        p1 = np.concatenate([mesh.p1_conn[c::2] for c in (0, 1)])
        nv, npd = mesh.n_nodes, mesh.n_pressure
        self.vv = _record_sort(tri, tri, (nv, nv))
        self.pv = _record_sort(p1, tri, (npd, nv))


def _assemble(quad: _Quadrature, local, pattern=None) -> sp.csr_matrix:
    """The one class loop of every assembly: ``local(cls)`` is a class's
    element matrices, (n_elem, a, b), or one (a, b) matrix shared by all its
    elements; they are taken in the recorded order of ``pattern``
    (``quad.vv`` by default, or ``quad.pv``) and their duplicates summed by
    scipy's ``csr_sum_duplicates``, as ``sum_duplicates`` would, into a
    canonical CSR matrix."""
    order, indptr, indices, shape = quad.vv if pattern is None else pattern
    vals = []
    for cls in quad.classes:
        m = local(cls)
        vals.append(np.broadcast_to(m, (cls["tri"].shape[0], *m.shape[-2:])).ravel())
    data = np.concatenate(vals)[order]
    indptr, indices = indptr.copy(), indices.copy()
    csr_sum_duplicates(*shape, indptr, indices, data)
    nnz = indptr[-1]
    out = sp.csr_matrix((data[:nnz], indices[:nnz], indptr), shape=shape)
    out.has_canonical_format = True
    return out


@dataclass
class CavityProblem:
    mesh: CavityMesh
    re: float
    nu: float
    lid_values: np.ndarray        # lid u_x at every fine node (0 off-lid)
    quad: _Quadrature = field(repr=False)
    stiffness_full: sp.csr_matrix = field(repr=False)   # scalar grad-grad
    div_x_full: sp.csr_matrix = field(repr=False)       # negative divergence
    div_y_full: sp.csr_matrix = field(repr=False)
    div_x_red: sp.csr_matrix = field(repr=False)        # their interior columns
    div_y_red: sp.csr_matrix = field(repr=False)
    grad_x_red: sp.csr_matrix = field(repr=False)       # their transposes
    grad_y_red: sp.csr_matrix = field(repr=False)

    @property
    def n_unknowns(self) -> int:
        return self.mesh.n_unknowns


def build_problem(level: int, re: float, bc_kind: str = "standard") -> CavityProblem:
    """Assemble the constant operators for a cavity at the given Reynolds
    number; nu = 2/Re for the unit lid speed on the width-2 box."""
    if not (0 < re < math.inf):
        raise ValueError("Reynolds number must be positive and finite")
    if bc_kind not in ("standard", "regularized"):
        raise ValueError("bc_kind must be 'standard' or 'regularized'")
    mesh = build_mesh(level)
    quad = _Quadrature(mesh)

    lid = np.zeros(mesh.n_nodes)
    on_lid = mesh.boundary_kind == LID
    if bc_kind == "standard":
        lid[on_lid] = 1.0
    else:
        lid[on_lid] = 1.0 - mesh.nodes[on_lid, 0] ** 4

    psi = quad.psi
    stiffness = _assemble(quad, lambda c: (np.einsum("q,qa,qb->ab", c["wdet"], c["gx"], c["gx"])
                                           + np.einsum("q,qa,qb->ab", c["wdet"], c["gy"], c["gy"])))
    div_x = _assemble(quad, lambda c: -np.einsum("q,qp,qb->pb", c["wdet"], psi, c["gx"]), quad.pv)
    div_y = _assemble(quad, lambda c: -np.einsum("q,qp,qb->pb", c["wdet"], psi, c["gy"]), quad.pv)
    intr = mesh.interior
    div_x_red = sp.csr_matrix(div_x[:, intr])
    div_y_red = sp.csr_matrix(div_y[:, intr])
    return CavityProblem(
        mesh=mesh,
        re=re,
        nu=2.0 / re,
        lid_values=lid,
        quad=quad,
        stiffness_full=stiffness,
        div_x_full=div_x,
        div_y_full=div_y,
        div_x_red=div_x_red,
        div_y_red=div_y_red,
        grad_x_red=div_x_red.T.tocsr(),
        grad_y_red=div_y_red.T.tocsr(),
    )


def split_state(prob: CavityProblem, x: np.ndarray):
    """Views of x's [u_x, u_y, p] blocks: the one statement of the layout.
    A state whose length is not n_unknowns is refused."""
    if len(x) != prob.n_unknowns:
        raise ValueError(f"state has {len(x)} entries; the cavity has {prob.n_unknowns} unknowns")
    nvi = prob.mesh.n_velocity
    return x[:nvi], x[nvi:2 * nvi], x[2 * nvi:]


def expand_state(prob: CavityProblem, x: np.ndarray):
    """Full-grid velocity fields (Dirichlet data injected) and pressure."""
    ux_i, uy_i, p = split_state(prob, x)
    ux = prob.lid_values.copy()
    uy = np.zeros(prob.mesh.n_nodes)
    ux[prob.mesh.interior] = ux_i
    uy[prob.mesh.interior] = uy_i
    return ux, uy, p


def _convection_full(prob: CavityProblem, ux_full, uy_full) -> sp.csr_matrix:
    """Scalar advection operator int phi_a (u . grad phi_b) on the full
    node grid (identical for both velocity components)."""
    phi = prob.quad.phi

    def local(cls):
        tri, gx, gy, wdet = cls["tri"], cls["gx"], cls["gy"], cls["wdet"]
        uxq = ux_full[tri] @ phi.T
        uyq = uy_full[tri] @ phi.T
        ce = np.einsum("eq,qa,qb->eab", uxq * wdet, phi, gx)
        ce += np.einsum("eq,qa,qb->eab", uyq * wdet, phi, gy)
        return ce

    return _assemble(prob.quad, local)


def _cross_blocks_full(prob: CavityProblem, ux_full, uy_full):
    """The four int phi_a phi_b (d u_i / d x_j) blocks of the Newton cross
    term, on the full node grid, keyed "xx", "xy", "yx" and "yy"."""
    phi = prob.quad.phi

    def block(u, g):
        return _assemble(prob.quad, lambda c: np.einsum(
            "eq,qa,qb->eab", (u[c["tri"]] @ c[g].T) * c["wdet"], phi, phi))

    return {"xx": block(ux_full, "gx"), "xy": block(ux_full, "gy"),
            "yx": block(uy_full, "gx"), "yy": block(uy_full, "gy")}


def residual(prob: CavityProblem, x: np.ndarray) -> np.ndarray:
    """F(x) = [momentum; continuity] with boundary data folded in and zero
    body force."""
    ux, uy, p = expand_state(prob, x)
    conv = _convection_full(prob, ux, uy)
    mom_x = prob.nu * (prob.stiffness_full @ ux) + conv @ ux + prob.div_x_full.T @ p
    mom_y = prob.nu * (prob.stiffness_full @ uy) + conv @ uy + prob.div_y_full.T @ p
    intr = prob.mesh.interior
    cont = prob.div_x_full @ ux + prob.div_y_full @ uy
    return np.concatenate([mom_x[intr], mom_y[intr], cont])


def _velocity_block(prob: CavityProblem, x: np.ndarray, with_cross: bool):
    ux, uy, _ = expand_state(prob, x)
    intr = prob.mesh.interior
    conv = _convection_full(prob, ux, uy)
    a_red = sp.csr_matrix((prob.nu * prob.stiffness_full + conv)[intr, :][:, intr])
    if not with_cross:
        return [[a_red, None], [None, a_red]]
    w = _cross_blocks_full(prob, ux, uy)
    wr = {k: sp.csr_matrix(m[intr, :][:, intr]) for k, m in w.items()}
    return [[a_red + wr["xx"], wr["xy"]], [wr["yx"], a_red + wr["yy"]]]


def _saddle(prob: CavityProblem, vel_blocks) -> sp.csr_matrix:
    """[[A, B^T], [B, 0]] stacked by scipy's compiled CSR hstack and vstack,
    a None velocity block standing for a zero one."""
    nvi, npd = prob.mesh.n_velocity, prob.mesh.n_pressure
    rows = [[*(sp.csr_matrix((nvi, nvi)) if b is None else b for b in blocks), grad]
            for blocks, grad in zip(vel_blocks, (prob.grad_x_red, prob.grad_y_red))]
    rows.append([prob.div_x_red, prob.div_y_red, sp.csr_matrix((npd, npd))])
    return sp.vstack([sp.hstack(row, format="csr") for row in rows], format="csr")


def oseen_operator(prob: CavityProblem, x: np.ndarray) -> sp.csr_matrix:
    """Picard iteration matrix (no Newton cross term); also used as the
    factorization sparsifier in the Newton phase."""
    return _saddle(prob, _velocity_block(prob, x, with_cross=False))


def newton_operator(prob: CavityProblem, x: np.ndarray) -> sp.csr_matrix:
    """Full Jacobian of the residual."""
    return _saddle(prob, _velocity_block(prob, x, with_cross=True))


def nonlinear_problem(prob: CavityProblem, x0: np.ndarray) -> NonlinearProblem:
    """The cavity as driver callbacks: Oseen (Picard) then Newton iteration
    matrices, always factorizing the Oseen operator."""
    return NonlinearProblem(
        residual=lambda x: residual(prob, x),
        operator=lambda x, nt: newton_operator(prob, x) if nt else oseen_operator(prob, x),
        sparsifier=lambda x, nt: oseen_operator(prob, x),
        x0=x0,
        null_basis=null_vector(prob),
    )


def null_vector(prob: CavityProblem) -> np.ndarray:
    """Unit vector spanning the constant-pressure null space."""
    q = np.zeros(prob.n_unknowns)
    split_state(prob, q)[2][:] = 1.0 / math.sqrt(prob.mesh.n_pressure)
    return q


def stokes_rhs(prob: CavityProblem) -> np.ndarray:
    """Right-hand side of the Stokes system: boundary lift of the lid."""
    ubx, uby, _ = expand_state(prob, np.zeros(prob.n_unknowns))
    intr = prob.mesh.interior
    mom_x = -(prob.nu * (prob.stiffness_full @ ubx))[intr]
    mom_y = -(prob.nu * (prob.stiffness_full @ uby))[intr]
    cont = -(prob.div_x_full @ ubx + prob.div_y_full @ uby)
    return np.concatenate([mom_x, mom_y, cont])


def stokes_operator(prob: CavityProblem) -> sp.csr_matrix:
    intr = prob.mesh.interior
    k = sp.csr_matrix(prob.nu * prob.stiffness_full[intr, :][:, intr])
    return _saddle(prob, [[k, None], [None, k]])


def stokes_initial_guess(prob: CavityProblem) -> np.ndarray:
    """One sparse direct solve of the Stokes system, with the last pressure
    unknown pinned to 0 to remove the constant-pressure null space; the
    pressure is then shifted to zero mean."""
    a = stokes_operator(prob).tocsc()[:-1, :-1]
    try:
        lu = splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise RuntimeError(f"Stokes initial guess: the pinned matrix is singular ({exc})") from exc
    x = np.append(lu.solve(stokes_rhs(prob)[:-1]), 0.0)
    p = split_state(prob, x)[2]
    p -= p.mean()
    return x


def pressure_to_nodes(prob: CavityProblem, p: np.ndarray) -> np.ndarray:
    """Linear interpolation of the pressure onto the fine node grid: the
    vertex values at the vertices, the mean of an edge's two vertex values
    at its midpoint."""
    mesh = prob.mesh
    pv = p[mesh.p1_conn]
    out = np.empty(mesh.n_nodes)
    out[mesh.triangles[:, :3]] = pv
    i, j = np.array(_EDGES).T
    out[mesh.triangles[:, 3:]] = 0.5 * (pv[:, i] + pv[:, j])
    return out


def centerline_profile(prob: CavityProblem, x: np.ndarray):
    """(y, u_x) along the vertical centerline x = 0."""
    ux, _, _ = expand_state(prob, x)
    on_line = prob.mesh.nodes[:, 0] == 0.0  # exact: a power-of-two grid on [-1, 1]
    return prob.mesh.nodes[on_line, 1], ux[on_line]


def write_solution_csv(prob: CavityProblem, x: np.ndarray, path) -> None:
    ux, uy, p = expand_state(prob, x)
    pn = pressure_to_nodes(prob, p)
    write_csv(path, ("x", "y", "u", "v", "p"), zip(*prob.mesh.nodes.T, ux, uy, pn))
