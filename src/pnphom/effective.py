"""Cell problems and effective coefficients for the two-stage limit model.

The fine problem oscillates on two nested scales: a sample-dependent shift
at scale eps and a periodic pattern at scale eps^2.  The limit model is
built stagewise.  The fast periodic stage solves corrector problems on the
template cell (species correctors on the fluid part, dielectric correctors
on the full cell).  The sample stage treats the resulting tensor field on
the torus of shifts as an ordinary periodic coefficient, constant on each
square of a K x K grid, and condenses it once more with the same P1 cell
solver on that grid's union-jack triangulation.  The output
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
from functools import partial

import numpy as np
from scipy.sparse.csgraph import connected_components

from .fem import (
    MeshPattern,
    _bordered_solver,
    assemble_interface_load,
    element_slots,
    element_stiffness,
    phase_integrals,
    tri_geometry,
)
from .geometry import FLUID, UnitCellSpec, _build_square_cell, _periodic_rep

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


def _check_residual(kind, residual):
    if residual > RESIDUAL_GATE:
        raise CellSolveError("%s cell solve residual %.3e exceeds %.0e"
                             % (kind, residual, RESIDUAL_GATE), residual)


class CellProblemSolution:
    """Correctors of one cell problem with their audit quantities.

    Attributes
    ----------
    vertices, triangles : the (sub)mesh the correctors live on
    correctors : list of two vertex arrays, one per unit direction
    residuals : list of two relative residuals
    rep : the periodic representative map on the local vertex set
    weights : the mean-zero weight vector (lumped measure of the region)
    """

    def __init__(self, vertices, triangles, correctors, residuals, rep,
                 weights):
        self.vertices = vertices
        self.triangles = triangles
        self.correctors = correctors
        self.residuals = residuals
        self.rep = rep
        self.weights = weights

    def periodicity_defect(self):
        return max(float(np.abs(u - u[self.rep]).max())
                   for u in self.correctors)

    def mean_defect(self):
        return max(abs(float(self.weights.dot(u))) for u in self.correctors)


def _solve_cell(kind, vertices, triangles, pair_arrays, coefficient=None):
    """Unit-direction correctors of div(a (e_k + grad u)) = 0 on a cell.

    coefficient is the per-triangle integral of a scalar a, shape (nt,)
    (the area when None, a = 1), or the value of a symmetric tensor a on
    each triangle, shape (nt, 2, 2); the mean-zero weights are the lumped
    area of the (sub)mesh.  The load of direction k is
    b_i = sum_T |T| (a e_k) . grad(phi_i).  The cell is a torus: its
    periodic pairs fold each vertex onto its representative, the stiffness
    is assembled on the folded triangles, loads and weights are summed
    onto the folded vertices, and the constants are removed by one
    bordered LU.  Returns the solution and the energy tensor of the fluxes
    e_k + grad u_k.
    """
    nv = vertices.shape[0]
    areas, grads = tri_geometry(vertices, triangles)
    if coefficient is None:
        coefficient = areas
    tri_scale, tensor = areas, coefficient
    if coefficient.ndim == 1:
        # a scalar a: its integral carries the area, its tensor is the unit
        tri_scale = coefficient
        tensor = np.broadcast_to(np.eye(2), (len(areas), 2, 2))
    rep = _periodic_rep(nv, pair_arrays)
    fold = np.unique(rep, return_inverse=True)[1]
    n_torus = int(fold.max()) + 1
    keys, slots = element_slots(fold[triangles], n_torus)
    A = MeshPattern(keys, n_torus).assembled(np.bincount(
        slots, element_stiffness(areas, grads, coefficient).ravel()))
    vertex_ids = np.asarray(triangles).ravel()
    weights = np.bincount(vertex_ids, np.repeat(areas / 3.0, 3),
                          minlength=nv)
    solve = _bordered_solver(A, np.bincount(fold, weights))
    correctors, residuals, fluxes = [], [], []
    for k in range(2):
        load = (np.einsum("tid,td->ti", grads, tensor[:, :, k])
                * tri_scale[:, None])
        b = np.bincount(fold, np.bincount(vertex_ids, load.ravel(),
                                          minlength=nv))
        uc = solve(-b)
        resid = np.linalg.norm(A @ uc + b) / max(np.linalg.norm(b), 1.0)
        _check_residual(kind, resid)
        u = uc[fold]
        flux = np.einsum("tid,ti->td", grads, u[triangles])
        flux[:, k] += 1.0
        correctors.append(u)
        residuals.append(resid)
        fluxes.append(flux)
    sol = CellProblemSolution(vertices, triangles, correctors, residuals,
                              rep, weights)
    return sol, _energy_tensor(tri_scale, fluxes, [
        np.einsum("tde,te->td", tensor, flux) for flux in fluxes])


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
    # the vertex graph is the P1 pattern of the triangles
    keys, _ = element_slots(triangles, nv)
    n_comp, _ = connected_components(
        MeshPattern(keys, nv).matrix(np.ones(keys.shape[0])), directed=False)
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
# dielectric stage 2: the same P1 cell problem on the sample torus


def omega_grid_centers(K):
    """Element-center sample points of the K x K torus grid, shape (K, K, 2)."""
    c = (np.arange(K) + 0.5) / K
    return np.stack(np.meshgrid(c, c, indexing="ij"), axis=-1)


def check_sample_grid(K):
    """Refuse a K that the sample torus's grid cannot have."""
    if K < 4 or K % 2:
        raise OmegaGridError(
            "sample grid K=%d must be even and >= 4: the sample torus's "
            "union-jack grid needs an even side" % K)


def solve_sample_cell(tensor_grid):
    """Periodic corrector problems on the sample torus.

    tensor_grid is a (K, K, 2, 2) array of symmetric positive tensors, one
    per square of the K x K grid (sampled at its center).  The torus is
    the unit square's union-jack grid with K squares per side; each of its
    triangles takes the tensor of the square that holds it, and the
    problem is solved by the same P1 cell solver as stage 1.

    Returns
    -------
    (CellProblemSolution, (2, 2) effective tensor)
    """
    theta = np.asarray(tensor_grid, dtype=float)
    K = theta.shape[0]
    if theta.shape != (K, K, 2, 2):
        raise ValueError("tensor grid must have shape (K, K, 2, 2)")
    check_sample_grid(K)
    # the union-jack grid of macro.macro_mesh, built without the template
    # checks, which a uniform grid passes by construction
    grid = _build_square_cell(UnitCellSpec(0.0, target_edge_length=1.0 / K))
    # each triangle lies inside one square, found by flooring its centroid
    i, j = (grid.vertices[grid.triangles].mean(axis=1) * K).astype(int).T
    return _solve_cell("sample-stage", grid.vertices, grid.triangles,
                       list(grid.periodic_pairs().values()), theta[i, j])


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
        tensor = np.eye(2) if constant_tensor is None else constant_tensor
        grid = np.broadcast_to(tensor, (K, K, 2, 2))
    sol, _ = solve_sample_cell(grid)
    # the values at the K^2 distinct nodes of the torus
    correctors = np.stack(sol.correctors)[:, np.unique(sol.rep)]
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
    check_sample_grid(K)

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

    stage2, theta_eff = solve_sample_cell(theta_star)
    return DielectricResult(mode, K, theta_star, theta_eff, stage1_resid,
                            stage2.residuals, solves)


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
