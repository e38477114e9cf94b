import json
import math
import os
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pnphom import effective
from pnphom.effective import (
    CellSolveError,
    EffectiveCoefficients,
    OmegaGridError,
    compute_effective,
    corrector_norm,
    omega_grid_centers,
    omega_stage_species,
    solve_dielectric_cells,
    solve_dielectric_single,
    solve_sample_cell,
    solve_species_cell,
    surface_factor,
    _require_connected,
    _solve_cell,
)
from pnphom.fem import (
    assemble_interface_load,
    element_stiffness,
    phase_integrals,
    tri_geometry,
    tri_gradient,
)
from pnphom.geometry import (
    UnitCellSpec,
    _periodic_rep,
    _side_vertices,
    build_template_cell,
    tile_domain,
)
from pnphom.micro import MicroCoefficients
from pnphom.randomfield import (
    CoefficientField,
    GammaFunction,
    eval_field_eps,
    sample_omega,
)


@pytest.fixture(scope="module")
def template():
    return build_template_cell(UnitCellSpec())


@pytest.fixture(scope="module")
def template_r0():
    return build_template_cell(UnitCellSpec(inclusion_radius=0.0,
                                            target_edge_length=1.0 / 32))


@pytest.fixture(scope="module")
def coarse_template():
    return build_template_cell(UnitCellSpec(n_interface_segments=32,
                                            target_edge_length=1.0 / 16))


def joint_means(field, n=96):
    """Arithmetic and harmonic means of field(w, y) over both tori."""
    g = (np.arange(n) + 0.5) / n
    a, b = np.meshgrid(g, g, indexing="ij")
    pts = np.stack([a.ravel(), b.ravel()], axis=-1)
    vals = field.evaluate(pts[:, None, :], pts[None, :, :])
    return float(vals.mean()), float(1.0 / np.mean(1.0 / vals))


# ---------------------------------------------------------------------------
# species stage


def test_species_r0_identity(template_r0):
    sol, A = solve_species_cell(template_r0)
    assert np.abs(A - np.eye(2)).max() <= 1e-12
    assert max(np.abs(u).max() for u in sol.correctors) <= 1e-12


def test_species_default_cell(template):
    sol, A = solve_species_cell(template)
    theta = template.porosity
    assert abs(A[0, 1]) <= 1e-8 and abs(A[1, 0]) <= 1e-8
    assert abs(A[0, 0] - A[1, 1]) <= 1e-8
    assert np.abs(A - A.T).max() <= 1e-10
    eigs = np.linalg.eigvalsh(A)
    assert eigs.min() > 0.0
    assert eigs.max() <= theta + 1e-12
    assert sol.periodicity_defect() <= 1e-12
    assert sol.mean_defect() <= 1e-12
    assert max(sol.residuals) <= 1e-10
    # the default perforation is a disk of radius 0.25; regression window
    assert 0.66 < A[0, 0] < 0.69


def test_species_galerkin_identity(template):
    # orthogonality of the corrector gives a second route to the tensor:
    # A[j][k] = theta * delta_jk + int e_j . grad(chi_k)
    sol, A = solve_species_cell(template)
    areas, _ = tri_geometry(sol.vertices, sol.triangles)
    theta = float(areas.sum())
    for j in range(2):
        for k in range(2):
            gk = tri_gradient(sol.vertices, sol.triangles, sol.correctors[k])
            alt = theta * (j == k) + float(np.sum(areas * gk[:, j]))
            assert A[j, k] == pytest.approx(alt, abs=1e-12)


def test_disconnected_region_rejected():
    tris = np.array([[0, 1, 2], [3, 4, 5]])
    with pytest.raises(CellSolveError):
        _require_connected(tris, 6)


# ---------------------------------------------------------------------------
# dielectric stages


def test_dielectric_constant(template):
    c0 = 3.0
    field = CoefficientField("rho", c0)
    res = solve_dielectric_cells(field, field, template, K=16)
    assert res.mode == "constant-y"
    assert np.abs(res.theta_eff - c0 * np.eye(2)).max() <= 1e-10
    assert np.abs(res.theta_star - c0 * np.eye(2)).max() <= 1e-10


def test_dielectric_layered_in_y(template):
    # coefficient 2 + cos(2 pi y1): closed-form 1D means
    field = CoefficientField("rho", 2.0, y_modes=(((1, 0), 1.0),),
                             floor=0.5)
    res = solve_dielectric_cells(field, field, template, K=4)
    assert res.mode == "frozen-omega"
    harm = math.sqrt(3.0)
    arith = 2.0
    t = res.theta_star[0, 0]
    assert abs(t[0, 0] - harm) / harm <= 0.01
    assert abs(t[1, 1] - arith) / arith <= 0.01
    assert abs(t[0, 1]) <= 1e-10
    # no sample variation: stage 2 must return the same tensor
    assert np.abs(res.theta_eff - t).max() <= 1e-10


def test_dielectric_layered_in_omega(template):
    field = CoefficientField("rho", 2.0, w_modes=(((1, 0), 1.0),),
                             floor=0.5)
    res = solve_dielectric_cells(field, field, template, K=32)
    assert res.mode == "constant-y"
    harm = math.sqrt(3.0)
    assert abs(res.theta_eff[0, 0] - harm) / harm <= 0.01
    assert abs(res.theta_eff[1, 1] - 2.0) / 2.0 <= 0.01
    assert abs(res.theta_eff[0, 1]) <= 1e-10


def test_dielectric_general_bounds(coarse_template):
    field = CoefficientField("rho", 2.0, y_modes=(((1, 0), 0.4),),
                             w_modes=(((0, 1), 0.3),), floor=0.5)
    res = solve_dielectric_cells(field, field, coarse_template, K=4)
    assert res.mode == "general"
    assert res.stage1_solves == 4
    arith, harm = joint_means(field)
    eigs = np.linalg.eigvalsh(res.theta_eff)
    assert np.abs(res.theta_eff - res.theta_eff.T).max() <= 1e-10
    assert eigs.min() >= harm - 1e-6
    assert eigs.max() <= arith + 1e-6


def test_dielectric_grid_refusal(template):
    field = CoefficientField("rho", 2.0, w_modes=(((3, 0), 0.5),),
                             floor=0.5)
    with pytest.raises(OmegaGridError, match="need K >= 12"):
        solve_dielectric_cells(field, field, template, K=8)
    # a grid meeting the bound is accepted
    res = solve_dielectric_cells(field, field, template, K=12)
    assert res.K == 12


def test_omega_grid_centers():
    c = omega_grid_centers(4)
    assert c.shape == (4, 4, 2)
    assert c[0, 0, 0] == pytest.approx(0.125)
    assert c[3, 1, 0] == pytest.approx(0.875)
    assert c[3, 1, 1] == pytest.approx(0.375)


# ---------------------------------------------------------------------------
# sample-stage solver


def test_sample_cell_constant_tensor():
    tensor = np.array([[2.0, 0.3], [0.3, 1.5]])
    grid = np.broadcast_to(tensor, (8, 8, 2, 2))
    sol, eff = solve_sample_cell(grid)
    assert np.abs(sol.correctors).max() <= 1e-12
    assert np.abs(eff - tensor).max() <= 1e-12


def test_sample_cell_layered_discrete_exact():
    # for a coefficient varying in one grid direction only, the discrete
    # effective tensor equals the harmonic/arithmetic means of the sampled
    # values exactly (the scheme collapses to 1D finite elements)
    rng = np.random.default_rng(3)
    K = 16
    v = 1.0 + rng.random(K)
    grid = np.zeros((K, K, 2, 2))
    grid[:, :, 0, 0] = v[:, None]
    grid[:, :, 1, 1] = v[:, None]
    sol, eff = solve_sample_cell(grid)
    harm = K / np.sum(1.0 / v)
    assert abs(eff[0, 0] - harm) <= 1e-12
    assert abs(eff[1, 1] - v.mean()) <= 1e-12
    assert abs(eff[0, 1]) <= 1e-12
    assert max(sol.residuals) <= 1e-10


def test_sample_cell_shape_validation():
    with pytest.raises(ValueError):
        solve_sample_cell(np.ones((4, 5, 2, 2)))


@pytest.mark.parametrize("K", [2, 5, 9])
def test_sample_grid_must_be_even(template, K):
    # the union-jack grid has an even side of at least 4, so an odd K would
    # be solved on K + 1 squares per side
    with pytest.raises(OmegaGridError, match="sample grid K=%d" % K):
        solve_sample_cell(np.broadcast_to(np.eye(2), (K, K, 2, 2)))
    const = CoefficientField("rho", 2.0)
    with pytest.raises(OmegaGridError, match="sample grid K=%d" % K):
        solve_dielectric_cells(const, const, template, K=K)


def test_sample_cell_corrector_mean_zero():
    field = CoefficientField("rho", 2.0, w_modes=(((1, 1), 0.7),),
                             floor=0.5)
    c = omega_grid_centers(16)
    vals = field.y_average(c.reshape(-1, 2)).reshape(16, 16)
    grid = vals[:, :, None, None] * np.eye(2)
    sol, eff = solve_sample_cell(grid)
    # weighted by the lumped area, the solver's mean-zero condition
    assert sol.mean_defect() <= 1e-12
    assert sol.periodicity_defect() == 0.0
    assert np.abs(sol.correctors).max() > 1e-3


# ---------------------------------------------------------------------------
# sample-stage species corrector


@pytest.mark.parametrize("K", [16, 32, 64])
def test_omega_species_vanishes(K):
    norm, W = omega_stage_species(constant_tensor=0.7 * np.eye(2), K=K)
    assert norm <= 1e-10


def test_omega_species_injected_nonzero(template):
    field = CoefficientField("rho", 2.0, w_modes=(((1, 0), 1.0),),
                             floor=0.5)
    res = solve_dielectric_cells(field, field, template, K=32)
    norm, W = omega_stage_species(injected_samples=res.theta_star)
    assert norm >= 1e-3
    assert corrector_norm(W, 32) == pytest.approx(norm)


# ---------------------------------------------------------------------------
# surface factor


def test_surface_factor_constant(template):
    eta = CoefficientField("eta", 1.5)
    s = surface_factor(template, eta)
    assert s == pytest.approx(1.5 * template.interface_length, rel=1e-12)


def test_surface_factor_drops_sample_modes(template):
    eta_w = CoefficientField("eta", 1.0, y_modes=(((1, 0), 0.2),),
                             w_modes=(((1, 1), 0.3),), floor=0.1)
    eta_y = CoefficientField("eta", 1.0, y_modes=(((1, 0), 0.2),),
                             floor=0.1)
    assert surface_factor(template, eta_w) == pytest.approx(
        surface_factor(template, eta_y), rel=1e-14)


def test_surface_factor_no_interface(template_r0):
    eta = CoefficientField("eta", 1.0)
    assert surface_factor(template_r0, eta) == 0.0


# ---------------------------------------------------------------------------
# assembled coefficients


def default_fields():
    return MicroCoefficients(
        rho_f=CoefficientField("rho_f", 2.0, w_modes=(((1, 0), 0.6),),
                               floor=0.5),
        rho_s=CoefficientField("rho_s", 2.0, w_modes=(((1, 0), 0.6),),
                               floor=0.5),
        eta=CoefficientField("eta", 1.0),
        gamma=GammaFunction("linear", alpha=1.0))


def general_fields():
    # fast and sample variation in both phases: general dielectric mode
    return MicroCoefficients(
        rho_f=CoefficientField("rho_f", 2.0, y_modes=(((1, 0), 0.3),),
                               w_modes=(((1, 0), 0.6),), floor=0.5),
        rho_s=CoefficientField("rho_s", 2.0, y_modes=(((0, 1), 0.3),),
                               w_modes=(((1, 1), 0.4),), floor=0.5),
        eta=CoefficientField("eta", 1.0),
        gamma=GammaFunction("linear", alpha=1.0))


def test_compute_effective_default(template):
    eff = compute_effective(template, default_fields(), K=32)
    assert eff.theta == pytest.approx(template.porosity)
    assert np.array_equal(eff.B_hom, eff.A_hom)
    assert eff.provenance["dielectric_mode"] == "constant-y"
    assert eff.provenance["residual_max"] <= 1e-10
    harm = math.sqrt(4.0 - 0.36)
    assert abs(eff.theta_eff[0, 0] - harm) / harm <= 0.01
    assert abs(eff.theta_eff[1, 1] - 2.0) / 2.0 <= 0.01
    assert eff.s_bar == pytest.approx(template.interface_length)


def test_effective_json_roundtrip(template, tmp_path):
    eff = compute_effective(template, default_fields(), K=16)
    path = os.path.join(tmp_path, "eff.json")
    eff.write_json(path)
    back = EffectiveCoefficients.from_json(path)
    assert back.theta == eff.theta
    assert np.array_equal(back.A_hom, eff.A_hom)
    assert np.array_equal(back.theta_eff, eff.theta_eff)
    assert back.s_bar == eff.s_bar
    assert back.provenance["K"] == 16
    data = json.load(open(path))
    assert set(data) == {"theta", "A_hom", "B_hom", "theta_eff", "s_bar",
                         "provenance"}


def test_effective_json_deterministic(template, tmp_path):
    paths = []
    for tag in ("a", "b"):
        eff = compute_effective(template, default_fields(), K=16)
        path = os.path.join(tmp_path, "eff_%s.json" % tag)
        eff.write_json(path)
        paths.append(path)
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


def test_voigt_reuss_random_configs(coarse_template):
    rng = np.random.default_rng(12345)
    for trial in range(5):
        base = 1.5 + rng.random()
        amp_y = 0.3 * rng.random()
        amp_w = 0.3 * rng.random()
        ky = (int(rng.integers(0, 2)), int(rng.integers(1, 3)))
        kw = (int(rng.integers(1, 3)), int(rng.integers(0, 2)))
        field = CoefficientField("rho", base,
                                 y_modes=((ky, amp_y),),
                                 w_modes=((kw, amp_w),),
                                 floor=base - amp_y - amp_w)
        res = solve_dielectric_cells(field, field, coarse_template, K=8)
        arith, harm = joint_means(field)
        eigs = np.linalg.eigvalsh(res.theta_eff)
        assert np.abs(res.theta_eff - res.theta_eff.T).max() <= 1e-10
        assert eigs.min() >= harm - 1e-4
        assert eigs.max() <= arith + 1e-4
        star = res.theta_star.reshape(-1, 2, 2)
        assert np.abs(star - star.transpose(0, 2, 1)).max() <= 1e-10


def test_each_cell_matrix_factored_once(coarse_template, monkeypatch):
    calls = {"splu": 0, "single": 0, "cell": 0}
    splu = spla.splu
    single = effective.solve_dielectric_single
    cell = effective._solve_cell

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(spla, "splu", counting("splu", splu))
    monkeypatch.setattr(effective, "solve_dielectric_single",
                        counting("single", single))
    # every cell problem of both stages goes through the one cell solver
    monkeypatch.setattr(effective, "_solve_cell", counting("cell", cell))
    K = 4
    eff = compute_effective(coarse_template, general_fields(), K=K)
    assert eff.provenance["dielectric_mode"] == "general"
    # species, one per stage-1 sample, one for stage 2; no drift stage
    assert calls == {"splu": K * K + 2, "single": K * K, "cell": K * K + 2}
    assert np.array_equal(eff.B_hom, eff.A_hom)

    calls.update(splu=0, single=0, cell=0)
    eff = compute_effective(coarse_template, default_fields(), K=K)
    assert eff.provenance["dielectric_mode"] == "constant-y"
    assert calls == {"splu": 2, "single": 0, "cell": 2}


@pytest.mark.parametrize("K", [4, 8])
def test_stage1_solves_each_distinct_sample_once(coarse_template, monkeypatch,
                                                 K):
    # every w-mode is (1, 0), so centers with the same first coordinate
    # share their frozen coefficient and at most K cell problems are
    # distinct
    rho_f = CoefficientField("rho_f", 2.0, y_modes=(((1, 0), 0.3),),
                             w_modes=(((1, 0), 0.6),), floor=0.5)
    rho_s = CoefficientField("rho_s", 2.0, y_modes=(((0, 1), 0.3),),
                             w_modes=(((1, 0), 0.6),), floor=0.5)
    centers = omega_grid_centers(K).reshape(-1, 2)
    keys = {(float(rho_f.w_value(w)), float(rho_s.w_value(w)))
            for w in centers}
    single = effective.solve_dielectric_single
    # the reference solves at every center
    ref_star = np.stack([single(coarse_template, rho_f, rho_s, w)[1]
                         for w in centers]).reshape(K, K, 2, 2)
    _, ref_eff = solve_sample_cell(ref_star)

    calls = []

    def counting_single(*args, **kwargs):
        calls.append(args)
        return single(*args, **kwargs)

    monkeypatch.setattr(effective, "solve_dielectric_single", counting_single)
    res = solve_dielectric_cells(rho_f, rho_s, coarse_template, K=K)
    assert res.mode == "general"
    assert len(calls) == len(keys) <= K
    assert res.stage1_solves == len(keys)
    assert np.array_equal(res.theta_star, ref_star)
    assert np.array_equal(res.theta_eff, ref_eff)


def _drift_tensor(template, species_sol, wsol):
    """T[j][k] = sum_T |T| (e_j + grad chi_j).(e_k + grad w_k) on Y_f."""
    verts, tris = species_sol.vertices, species_sol.triangles
    fluid_ids = template.fluid_submesh()[0]
    areas, _ = tri_geometry(verts, tris)
    T = np.empty((2, 2))
    for j in range(2):
        flux_j = tri_gradient(verts, tris, species_sol.correctors[j])
        flux_j[:, j] += 1.0
        for k in range(2):
            w_k = wsol.correctors[k][fluid_ids]
            drive_k = tri_gradient(verts, tris, w_k)
            drive_k[:, k] += 1.0
            T[j, k] = float(np.sum(areas * np.sum(flux_j * drive_k, axis=1)))
    return T


def test_drift_identity_by_quadrature(template, coarse_template):
    # the species corrector is orthogonal to every periodic P1 function on
    # the fluid subcell, and the full-cell dielectric corrector restricted
    # to the fluid is one, so the drift tensor is A_hom for any dielectric
    # field
    field = CoefficientField("rho", 2.0, y_modes=(((1, 0), 0.8),),
                             floor=0.5)
    species, A = solve_species_cell(template)
    wsol, _ = solve_dielectric_single(template, field, field, np.zeros(2))
    assert np.abs(_drift_tensor(template, species, wsol) - A).max() <= 1e-13

    fields = general_fields()
    species, A = solve_species_cell(coarse_template)
    for omega in omega_grid_centers(4).reshape(-1, 2):
        wsol, _ = solve_dielectric_single(coarse_template, fields.rho_f,
                                          fields.rho_s, omega)
        assert np.abs(_drift_tensor(coarse_template, species, wsol)
                      - A).max() <= 1e-13


# ---------------------------------------------------------------------------
# the torus assembly against the projector algebra


def _sample_grid(K=8):
    # a w-dependent tensor with off-diagonal entries on the K x K grid
    field = CoefficientField("rho", 2.0, w_modes=(((1, 1), 0.7),),
                             floor=0.5)
    vals = field.y_average(omega_grid_centers(K).reshape(-1, 2))
    return (vals.reshape(K, K)[:, :, None, None] * np.eye(2)
            + 0.3 * np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("case", ["full cell", "fluid subcell",
                                  "sample grid"])
def test_torus_assembly_is_the_projected_matrix(template, monkeypatch, case):
    # the cell solver assembles on the folded triangles; that is the
    # matrix A of the unfolded cell condensed as P^T A P, P the 0/1
    # prolongation of the periodic fold, and its weights and loads are
    # P^T of the unfolded ones, bit for bit
    seen = {"loads": []}
    cell, bordered = effective._solve_cell, effective._bordered_solver

    def capturing_cell(kind, vertices, triangles, pair_arrays,
                       coefficient=None):
        seen["args"] = vertices, triangles, pair_arrays, coefficient
        return cell(kind, vertices, triangles, pair_arrays, coefficient)

    def capturing_bordered(A, border):
        seen["A"], seen["border"] = A, border
        solve = bordered(A, border)

        def recording(b):
            seen["loads"].append(b)
            return solve(b)
        return recording

    monkeypatch.setattr(effective, "_solve_cell", capturing_cell)
    monkeypatch.setattr(effective, "_bordered_solver", capturing_bordered)
    if case == "full cell":
        solve_dielectric_single(
            template, CoefficientField("rho_f", 2.0, y_modes=(((1, 0), 0.8),),
                                       floor=0.5),
            CoefficientField("rho_s", 0.5), np.array([0.3, 0.7]))
    elif case == "fluid subcell":
        solve_species_cell(template)
    else:
        solve_sample_cell(_sample_grid())

    vertices, triangles, pair_arrays, coefficient = seen["args"]
    nv = vertices.shape[0]
    areas, grads = tri_geometry(vertices, triangles)
    coef = areas if coefficient is None else coefficient
    local = element_stiffness(areas, grads, coef)
    A = sp.coo_matrix((local.ravel(), (np.repeat(triangles, 3, axis=1)
                                       .ravel(),
                                       np.tile(triangles, (1, 3)).ravel())),
                      shape=(nv, nv)).tocsr()
    rep = _periodic_rep(nv, pair_arrays)
    cond = np.unique(rep, return_inverse=True)[1]
    P = sp.csr_matrix((np.ones(nv), (np.arange(nv), cond)),
                      shape=(nv, cond.max() + 1))
    ref = (P.T @ A @ P).tocsr()
    ref.sort_indices()
    torus = seen["A"]
    assert np.array_equal(torus.indptr, ref.indptr)
    assert np.array_equal(torus.indices, ref.indices)
    assert (np.abs(torus.data - ref.data).max()
            <= 1e-14 * np.abs(ref.data).max())

    def scattered(values):
        b = np.zeros(nv)
        np.add.at(b, triangles.ravel(), values.ravel())
        return b

    weights = scattered(np.repeat((areas / 3.0)[:, None], 3, axis=1))
    assert np.array_equal(seen["border"], P.T @ weights)
    tensor, tri_scale = coef, areas
    if coef.ndim == 1:
        tensor = np.broadcast_to(np.eye(2), (len(areas), 2, 2))
        tri_scale = coef
    assert len(seen["loads"]) == 2
    for k, load in enumerate(seen["loads"]):
        b = scattered(np.einsum("tid,td->ti", grads, tensor[:, :, k])
                      * tri_scale[:, None])
        assert np.array_equal(-load, P.T @ b)


# ---------------------------------------------------------------------------
# the fine operator against the cell coefficients


def _fine_coefficients(mesh, fields, omega):
    """Periodic tensor and surface factor of the fine problem on a tiling.

    The fine coefficients at eps = 1/n are 1-periodic on the unit square,
    so the fine dielectric operator has a periodic tensor of its own: the
    cell problem on the whole tiled square with the fine per-triangle
    integrals.  The fine surface factor is eps times the sum of the
    surface weights.
    """
    eps = mesh.epsilon
    csum = phase_integrals(
        mesh.vertices, mesh.triangles, mesh.tri_phase,
        [partial(eval_field_eps, f, omega, eps=eps)
         for f in (fields.rho_f, fields.rho_s)])
    sides = _side_vertices(mesh.vertices, mesh.boundary_edges)
    pairs = [np.column_stack([sides["left"], sides["right"]]),
             np.column_stack([sides["bottom"], sides["top"]])]
    _, tensor = _solve_cell("dielectric", mesh.vertices, mesh.triangles,
                            pairs, csum)
    surface_w = assemble_interface_load(
        mesh.vertices, mesh.interface_edges,
        partial(eval_field_eps, fields.eta, omega, eps=eps))
    return tensor, eps * surface_w.sum()


def _per_phase_constant_fields():
    return MicroCoefficients(
        rho_f=CoefficientField("rho_f", 2.0),
        rho_s=CoefficientField("rho_s", 0.5),
        eta=CoefficientField("eta", 1.5),
        gamma=GammaFunction("linear", alpha=1.0))


# in constant-y mode the fine coefficient is a laminate in x1, which the
# P1 template mesh resolves to 1.1e-4 (measured); with per-phase constants
# the tiled cell problem is the cell problem, up to rounding
@pytest.mark.parametrize("make_fields,mode,bound", [
    (default_fields, "constant-y", 2e-4),
    (_per_phase_constant_fields, "frozen-omega", 1e-12),
], ids=["constant-y", "frozen-omega"])
def test_fine_operator_matches_cell_coefficients(template, make_fields, mode,
                                                 bound):
    fields = make_fields()
    eff = compute_effective(template, fields, K=32)
    assert eff.provenance["dielectric_mode"] == mode
    for n in (1, 2, 3):
        mesh = tile_domain(template, n)
        for seed in (0, 1):
            tensor, s_fine = _fine_coefficients(mesh, fields,
                                                sample_omega(seed).omega)
            gap = np.abs(tensor - eff.theta_eff).max()
            assert gap <= bound * np.abs(eff.theta_eff).max()
            assert s_fine == pytest.approx(eff.s_bar, rel=1e-12)
