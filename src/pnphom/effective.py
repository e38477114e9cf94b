"""Cell problems and effective coefficients for the two-stage limit model.

The fine problem oscillates on two nested scales: a sample-dependent shift
at scale eps and a periodic pattern at scale eps^2.  The limit model is
built stagewise.  The fast periodic stage solves corrector problems on the
template cell (species correctors on the fluid part, dielectric correctors
on the full cell).  The sample stage treats the resulting tensor field on
the torus of shifts as an ordinary periodic coefficient, discretized with
bilinear elements on a K x K grid, and condenses it once more.  The output
is a set of constant tensors (species diffusion, drift coupling, effective
dielectric), the porosity, and the averaged surface factor.

The drift tensor needs no cell problem of its own: the species corrector is
orthogonal to every periodic P1 function on the fluid subcell, and the
full-cell dielectric corrector restricted to the fluid is one, because the
fluid subcell is a submesh of the template.  So the drift tensor equals the
species tensor for any dielectric coefficient, discretely as well.
"""

import json
import logging
import math
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .fem import (
    _bordered_solver,
    assemble_interface_load,
    assemble_stiffness,
    phase_integrals,
    tri_geometry,
)
from .geometry import FLUID, _periodic_rep

log = logging.getLogger("pnphom.effective")


class CellSolveError(RuntimeError):
    """A cell problem failed its residual gate."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class OmegaGridError(ValueError):
    """The sample-stage grid cannot resolve the coefficient modes."""


RESIDUAL_GATE = 1e-10


# ---------------------------------------------------------------------------
# periodic condensation on the template cell


def _projector(rep):
    """Boolean prolongation matrix P with u_global = P @ u_condensed."""
    masters, cond = np.unique(rep, return_inverse=True)
    nv = rep.shape[0]
    return sp.csr_matrix((np.ones(nv), (np.arange(nv), cond)),
                         shape=(nv, masters.shape[0]))


class _PeriodicOperator:
    """A on the periodically identified mesh, factored once.

    The constant nullspace is removed with a bordered (Lagrange) system so
    the sparse LU factorization stays deterministic and exact.  rep is the
    periodic representative map, weights the mean-zero weight vector.
    """

    def __init__(self, A_csr, weights, rep):
        self.rep = rep
        self.weights = weights
        self.P = _projector(rep)
        self.Ac = (self.P.T @ A_csr @ self.P).tocsr()
        wc = self.P.T @ weights
        self._solve = _bordered_solver(self.Ac, wc)

    def solve(self, b):
        """Solve A u = -b with weighted mean zero.

        Returns the expanded solution on all vertices and the relative
        residual of the condensed equation.
        """
        bc = self.P.T @ b
        uc = self._solve(-bc)
        resid = np.linalg.norm(self.Ac.dot(uc) + bc)
        scale = max(np.linalg.norm(bc), 1.0)
        return self.P.dot(uc), resid / scale


def _check_residual(kind, residual):
    if residual > RESIDUAL_GATE:
        raise CellSolveError("%s cell solve residual %.3e exceeds %.0e"
                             % (kind, residual, RESIDUAL_GATE), residual)


def _scatter(contrib, triangles, nv):
    b = np.zeros(nv)
    np.add.at(b, np.asarray(triangles).ravel(), contrib.ravel())
    return b


class CellProblemSolution:
    """Correctors of one cell problem with their audit quantities.

    Attributes
    ----------
    kind : str, one of 'species-y', 'dielectric-y'
    vertices, triangles : the (sub)mesh the correctors live on
    correctors : list of two vertex arrays, one per unit direction
    residuals : list of two relative residuals
    operator : the factored periodic cell operator the correctors solve;
        its rep is the periodic representative map on the local vertex
        set, its weights the mean-zero weight vector (lumped measure of
        the region)
    """

    def __init__(self, kind, vertices, triangles, correctors, residuals,
                 operator):
        self.kind = kind
        self.vertices = vertices
        self.triangles = triangles
        self.correctors = correctors
        self.residuals = residuals
        self.operator = operator

    def periodicity_defect(self):
        rep = self.operator.rep
        return max(float(np.abs(u - u[rep]).max()) for u in self.correctors)

    def mean_defect(self):
        weights = self.operator.weights
        return max(abs(float(weights.dot(u))) for u in self.correctors)


def _solve_cell(kind, vertices, triangles, pair_arrays, csum=None):
    """Unit-direction correctors of div(a (e_k + grad u)) = 0 on a cell.

    csum is the per-triangle integral of a (the area when None, a = 1);
    the mean-zero weights are the lumped area of the (sub)mesh.  The load
    of direction k is b_i = sum_T (int_T a) d(phi_i)/dy_k.  Returns the
    solution, which keeps the factored operator, and the energy tensor of
    the fluxes e_k + grad u_k.
    """
    nv = vertices.shape[0]
    A = assemble_stiffness(vertices, triangles, csum)
    areas, grads = tri_geometry(vertices, triangles)
    if csum is None:
        csum = areas
    weights = _scatter(np.repeat((areas / 3.0)[:, None], 3, axis=1),
                       triangles, nv)
    operator = _PeriodicOperator(A, weights, _periodic_rep(nv, pair_arrays))
    correctors, residuals, fluxes = [], [], []
    for k in range(2):
        u, resid = operator.solve(
            _scatter(grads[:, :, k] * csum[:, None], triangles, nv))
        _check_residual(kind, resid)
        flux = np.einsum("tid,ti->td", grads, u[triangles])
        flux[:, k] += 1.0
        correctors.append(u)
        residuals.append(resid)
        fluxes.append(flux)
    sol = CellProblemSolution(kind + "-y", vertices, triangles, correctors,
                              residuals, operator)
    return sol, _energy_tensor(csum, fluxes, fluxes)


def _fluid_subcell(template):
    """Fluid-restricted vertex set, triangles, and periodic pairs."""
    vertex_ids, local_tris, g2l = template.fluid_submesh()
    if local_tris.shape[0] == 0:
        raise CellSolveError("cell has no fluid region")
    pair_arrays = []
    for pairs in template.periodic_pairs().values():
        local = g2l[pairs]
        if (local < 0).any():
            raise CellSolveError("periodic boundary touches the solid phase")
        pair_arrays.append(local)
    return template.vertices[vertex_ids], local_tris, pair_arrays


def _require_connected(triangles, nv):
    tris = np.asarray(triangles)
    i = np.concatenate([tris[:, 0], tris[:, 1], tris[:, 2]])
    j = np.concatenate([tris[:, 1], tris[:, 2], tris[:, 0]])
    adj = sp.coo_matrix((np.ones(i.shape[0]), (i, j)), shape=(nv, nv))
    n_comp, _ = connected_components(adj, directed=False)
    if n_comp != 1:
        raise CellSolveError("fluid region is disconnected (%d components)"
                             % n_comp)


def _energy_tensor(areas_or_csum, left, right):
    """T[j][k] = sum_T (int_T a) * L_j . R_k for per-triangle fields."""
    T = np.empty((2, 2))
    for j in range(2):
        for k in range(2):
            T[j, k] = float(np.sum(areas_or_csum
                                   * np.sum(left[j] * right[k], axis=1)))
    return T


def solve_species_cell(template):
    """Solve the fluid-phase corrector problems and form the species tensor.

    For each unit direction e_k the corrector solves the periodic Neumann
    problem div(chi_fluid (e_k + grad u)) = 0 on the cell, with natural
    (no-flux) behavior on the inclusion boundary and weighted mean zero
    over the fluid part.  The tensor entry [j][k] is the fluid integral of
    (e_j + grad u_j).(e_k + grad u_k).

    Returns
    -------
    (CellProblemSolution, (2, 2) array)
    """
    verts, tris, pair_arrays = _fluid_subcell(template)
    _require_connected(tris, verts.shape[0])
    return _solve_cell("species", verts, tris, pair_arrays)


# ---------------------------------------------------------------------------
# dielectric stage 1: full-cell problems per frozen sample


def solve_dielectric_single(template, rho_f, rho_s, omega):
    """Fast-stage dielectric cell problem for one frozen sample.

    Solves the full-cell (both phases) periodic corrector problems with
    coefficient rho_f on the fluid part and rho_s on the solid part, both
    evaluated at the given omega, and returns the corrector solution and
    the frozen-sample tensor.
    """
    # rho_f on phase 0 (fluid), rho_s on phase 1 (solid), as in the fine
    # problem but at the frozen sample
    csum = phase_integrals(
        template.vertices, template.triangles, template.tri_phase,
        [partial(rho.evaluate, omega) for rho in (rho_f, rho_s)])
    return _solve_cell("dielectric", template.vertices, template.triangles,
                       list(template.periodic_pairs().values()), csum)


# ---------------------------------------------------------------------------
# dielectric stage 2: bilinear periodic solver on the sample torus


_GAUSS_1D = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


def _q1_reference():
    """2x2 Gauss points and basis gradients for the unit reference square.

    Basis order: (0,0), (1,0), (1,1), (0,1).
    """
    pts = [(a, b) for a in _GAUSS_1D for b in _GAUSS_1D]
    G = np.empty((4, 4, 2))
    for g, (xi, eta) in enumerate(pts):
        G[g] = [[-(1.0 - eta), -(1.0 - xi)],
                [1.0 - eta, -xi],
                [eta, xi],
                [-eta, 1.0 - xi]]
    return G


_Q1_GRADS = _q1_reference()


def omega_grid_centers(K):
    """Element-center sample points of the K x K torus grid, shape (K, K, 2)."""
    c = (np.arange(K) + 0.5) / K
    return np.stack(np.meshgrid(c, c, indexing="ij"), axis=-1)


def q1_periodic_solve(tensor_grid):
    """Periodic corrector problems on the sample torus with Q1 elements.

    Parameters
    ----------
    tensor_grid : (K, K, 2, 2) array
        Symmetric positive tensor per grid element (element centers).

    Returns
    -------
    correctors : (2, K*K) nodal values, mean zero
    effective : (2, 2) array
    residuals : list of two relative residuals
    """
    theta = np.asarray(tensor_grid, dtype=float)
    K = theta.shape[0]
    if theta.shape != (K, K, 2, 2):
        raise ValueError("tensor grid must have shape (K, K, 2, 2)")
    h = 1.0 / K
    K2 = K * K
    flat = theta.reshape(K2, 2, 2)

    idx = np.arange(K2).reshape(K, K)
    ip = np.roll(idx, -1, axis=0)
    jp = np.roll(idx, -1, axis=1)
    ipjp = np.roll(ip, -1, axis=1)
    conn = np.stack([idx, ip, ipjp, jp], axis=-1).reshape(K2, 4)

    G = _Q1_GRADS
    local = 0.25 * np.einsum("gad,nde,gbe->nab", G, flat, G)
    rows = np.repeat(conn, 4, axis=1).ravel()
    cols = np.tile(conn, (1, 4)).ravel()
    A = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(K2, K2)).tocsr()

    operator = _PeriodicOperator(A, np.full(K2, h * h), np.arange(K2))
    SG = G.sum(axis=0)

    correctors = np.zeros((2, K2))
    residuals = []
    fluxes = []
    for k in range(2):
        be = 0.25 * h * np.einsum("ad,nd->na", SG, flat[:, :, k])
        b = np.zeros(K2)
        np.add.at(b, conn.ravel(), be.ravel())
        u, resid = operator.solve(b)
        _check_residual("sample-stage", resid)
        correctors[k] = u
        residuals.append(resid)
        dW = np.einsum("na,gad->ngd", u[conn], G) / h
        dW[:, :, k] += 1.0
        fluxes.append(dW)

    effective = np.empty((2, 2))
    cell_w = 0.25 * h * h
    for j in range(2):
        for k in range(2):
            effective[j, k] = cell_w * float(
                np.einsum("ngd,nde,nge->", fluxes[j], flat, fluxes[k]))
    return correctors, effective, residuals


def corrector_norm(correctors, K):
    """Root mean square of the nodal corrector values over the torus."""
    c = np.asarray(correctors, dtype=float)
    return float(np.sqrt(np.sum(c * c) / (K * K)))


def omega_stage_species(constant_tensor=None, injected_samples=None, K=32):
    """Sample-stage corrector for the species coefficient.

    The species diffusion tensor carries no sample dependence (the fluid
    indicator is a purely periodic object), so the sample-stage cell
    problem has a constant coefficient and the corrector vanishes; the
    returned norm documents that.  Passing injected_samples (a (K, K, 2, 2)
    grid with genuine sample dependence, e.g. the frozen-sample dielectric
    tensors) exercises the same solver on a problem whose corrector must
    not vanish, guarding the vanishing test against vacuity.

    Returns
    -------
    (norm, correctors (2, K*K))
    """
    if injected_samples is not None:
        grid = np.asarray(injected_samples, dtype=float)
        K = grid.shape[0]
    else:
        tensor = (np.eye(2) if constant_tensor is None
                  else np.asarray(constant_tensor, dtype=float))
        grid = np.broadcast_to(tensor, (K, K, 2, 2)).copy()
    correctors, _, _ = q1_periodic_solve(grid)
    return corrector_norm(correctors, K), correctors


# ---------------------------------------------------------------------------
# orchestration of the dielectric stages


def _max_w_frequency(*fields):
    freq = 0
    for field in fields:
        for (k1, k2), _ in field.w_modes:
            freq = max(freq, abs(k1), abs(k2))
    return freq


def _y_constant_dielectric(template, rho_f, rho_s):
    """True when the phase-split coefficient cannot vary inside the cell."""
    has_solid = bool((template.tri_phase != FLUID).any())
    if rho_f.y_modes:
        return False
    if not has_solid:
        return True
    if rho_s.y_modes:
        return False
    return (rho_f.base_value == rho_s.base_value
            and rho_f.w_modes == rho_s.w_modes)


class DielectricResult:
    """Both dielectric stages with provenance.

    mode is 'constant-y' (no fast variation, stage 1 exact), 'frozen-omega'
    (no sample variation, one stage-1 solve), or 'general' (sample
    variation).  stage1_solves counts the distinct stage-1 cell problems:
    one per distinct pair of rho_f and rho_s w-mode sums over the grid
    element centers, compared exactly.
    """

    def __init__(self, mode, K, theta_star, theta_eff, stage1_residual_max,
                 stage2_residuals, stage1_solves):
        self.mode = mode
        self.K = K
        self.theta_star = theta_star
        self.theta_eff = theta_eff
        self.stage1_residual_max = stage1_residual_max
        self.stage2_residuals = stage2_residuals
        self.stage1_solves = stage1_solves


def solve_dielectric_cells(rho_f, rho_s, template, K=32):
    """Run both dielectric stages on a K x K sample grid.

    Stage 1 solves the fast-scale cell problem at each grid element center,
    once per distinct frozen coefficient: centers whose w-mode sums are
    bitwise equal have bitwise-equal cell problems and share one solve.  A
    coefficient with no fast variation needs no cell problem at all.
    Stage 2 condenses the resulting tensor field over the torus of shifts.
    """
    K = int(K)
    freq = _max_w_frequency(rho_f, rho_s)
    required = 4 * freq
    if freq and K < required:
        raise OmegaGridError(
            "sample grid K=%d cannot resolve modes up to frequency %d; "
            "need K >= %d" % (K, freq, required))
    if K < 2:
        raise OmegaGridError("sample grid needs K >= 2")

    centers = omega_grid_centers(K)
    theta_star = np.empty((K, K, 2, 2))
    stage1_resid = 0.0

    if _y_constant_dielectric(template, rho_f, rho_s):
        mode = "constant-y"
        values = rho_f.y_average(centers.reshape(-1, 2)).reshape(K, K)
        theta_star[:] = values[:, :, None, None] * np.eye(2)
        solves = 0
    else:
        mode = "general" if rho_f.w_modes or rho_s.w_modes else "frozen-omega"
        # the coefficient depends on the sample only through the w-mode
        # sums, so centers with equal sums share one cell problem
        tensors = {}
        for i in range(K):
            for j in range(K):
                w = centers[i, j]
                key = (float(rho_f.w_value(w)), float(rho_s.w_value(w)))
                if key not in tensors:
                    sol, tensors[key] = solve_dielectric_single(
                        template, rho_f, rho_s, w)
                    stage1_resid = max(stage1_resid, max(sol.residuals))
                theta_star[i, j] = tensors[key]
        solves = len(tensors)
        log.info("dielectric stage 1: %d distinct cell problems for %d "
                 "samples on a %dx%d grid", solves, K * K, K, K)

    _, theta_eff, stage2_resid = q1_periodic_solve(theta_star)
    return DielectricResult(mode, K, theta_star, theta_eff, stage1_resid,
                            stage2_resid, solves)


# ---------------------------------------------------------------------------
# surface factor and the assembled coefficient set


def surface_factor(template, eta_field):
    """Average over samples of the interface integral of eta.

    The sample average of the additive trigonometric sample modes vanishes
    identically, so the factor reduces to the interface quadrature of the
    sample-averaged field; this is exact, no grid is involved.
    """
    return float(assemble_interface_load(
        template.vertices, template.interface_edges,
        eta_field.omega_average).sum())


class EffectiveCoefficients:
    """Constant coefficients of the limit model, with provenance."""

    def __init__(self, theta, A_hom, B_hom, theta_eff, s_bar,
                 provenance=None):
        self.theta = float(theta)
        self.A_hom = np.asarray(A_hom, dtype=float)
        self.B_hom = np.asarray(B_hom, dtype=float)
        self.theta_eff = np.asarray(theta_eff, dtype=float)
        self.s_bar = float(s_bar)
        self.provenance = dict(provenance or {})

    def to_json_dict(self):
        return {
            "theta": self.theta,
            "A_hom": self.A_hom.tolist(),
            "B_hom": self.B_hom.tolist(),
            "theta_eff": self.theta_eff.tolist(),
            "s_bar": self.s_bar,
            "provenance": self.provenance,
        }

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            data = json.load(fh)
        return cls(data["theta"], data["A_hom"], data["B_hom"],
                   data["theta_eff"], data["s_bar"],
                   data.get("provenance"))


def compute_effective(template, fields, K=32):
    """Solve every cell problem and assemble the limit-model coefficients.

    Parameters
    ----------
    template : TemplateCell
    fields : MicroCoefficients (rho_f, rho_s, eta, gamma)
    K : sample-stage grid resolution

    Returns
    -------
    EffectiveCoefficients
    """
    species_sol, A_hom = solve_species_cell(template)
    diel = solve_dielectric_cells(fields.rho_f, fields.rho_s, template, K=K)
    s_bar = surface_factor(template, fields.eta)
    spec = template.spec
    provenance = {
        "template_edge_length": spec.target_edge_length,
        "inclusion_radius": spec.inclusion_radius,
        "n_interface_segments": spec.n_interface_segments,
        "n_vertices": int(template.n_vertices),
        "K": int(diel.K),
        "dielectric_mode": diel.mode,
        "stage1_solves": int(diel.stage1_solves),
        "residual_max": max(max(species_sol.residuals),
                            diel.stage1_residual_max,
                            max(diel.stage2_residuals)),
        "interface_length": template.interface_length,
    }
    # the drift tensor is the species tensor (see the module docstring)
    return EffectiveCoefficients(template.porosity, A_hom, A_hom.copy(),
                                 diel.theta_eff, s_bar, provenance)
