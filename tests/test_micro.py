import math
import os
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pnphom import fem, micro, randomfield
from pnphom.effective import EffectiveCoefficients, compute_effective
from pnphom.fem import (
    ConvergenceFailure,
    MeshPattern,
    assemble_drift,
    assemble_interface_load,
    element_mass,
    element_slots,
    element_stiffness,
    mesh_pattern,
    phase_integrals,
    tri_geometry,
)
from pnphom.geometry import UnitCellSpec, build_template_cell, tile_domain
from pnphom.macro import MacroProblem, equilibrium_residual, macro_mesh
from pnphom.micro import (
    ConservationLedger,
    FineDomain,
    MicroCoefficients,
    MicroProblem,
    MicroRunError,
    MicroState,
    PnpParams,
    write_snapshot,
)
from pnphom.randomfield import (
    CoefficientField,
    GammaFunction,
    eval_field_eps,
    sample_omega,
)


@pytest.fixture(scope="module")
def coarse_template():
    return build_template_cell(
        UnitCellSpec(n_interface_segments=32, target_edge_length=1.0 / 16))


@pytest.fixture(scope="module")
def coarse_mesh(coarse_template):
    return tile_domain(coarse_template, 2)


@pytest.fixture(scope="module")
def square_mesh():
    spec = UnitCellSpec(inclusion_radius=0.0, target_edge_length=1.0 / 16)
    return tile_domain(build_template_cell(spec), 2)


def constant_fields(gamma=None):
    return MicroCoefficients(
        rho_f=CoefficientField("rho_f", 1.0),
        rho_s=CoefficientField("rho_s", 1.0),
        eta=CoefficientField("eta", 1.0),
        gamma=gamma or GammaFunction("linear", alpha=1.0))


def wiggly_fields(gamma=None):
    return MicroCoefficients(
        rho_f=CoefficientField("rho_f", 2.0,
                               y_modes=(((1, 0), 0.3), ((0, 1), 0.3)),
                               w_modes=(((1, 0), 0.2),), floor=0.5),
        rho_s=CoefficientField("rho_s", 4.0, y_modes=(((1, 1), 0.5),),
                               w_modes=(((0, 1), 0.3),), floor=0.5),
        eta=CoefficientField("eta", 1.0, y_modes=(((1, 0), 0.2),),
                             w_modes=(((1, 1), 0.1),), floor=0.1),
        gamma=gamma or GammaFunction("linear", alpha=1.0))


def bump(pts):
    return 1.0 + 0.5 * np.exp(-20.0 * ((pts[:, 0] - 0.4) ** 2
                                       + (pts[:, 1] - 0.5) ** 2))


def direct_assembly(vertices, triangles, coefficient=None):
    """Stiffness (of a = 1, or of per-triangle integrals) and mass
    assembled on the triangles themselves, the reference of the tiled
    operators."""
    areas, grads = tri_geometry(vertices, triangles)
    keys, slots = element_slots(triangles, len(vertices))
    pattern = MeshPattern(keys, len(vertices))
    return [pattern.assembled(np.bincount(slots, local.ravel())) for local in (
        element_stiffness(areas, grads,
                          areas if coefficient is None else coefficient),
        element_mass(areas))]


def midpoint_integral(vertices, triangles, values):
    """Integral of the P1 interpolant by the 3-midpoint rule (exact)."""
    tri = np.asarray(triangles)
    p = vertices[tri]
    areas = 0.5 * np.abs(
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    return float((areas * values[tri].mean(axis=1)).sum())


# ---------------------------------------------------------------------------
# parameters


def test_params_validation():
    with pytest.raises(ValueError):
        PnpParams(D_plus=0.0)
    with pytest.raises(ValueError):
        PnpParams(dt=0.5, t_final=0.2)
    with pytest.raises(ValueError):
        PnpParams(gummel_max=0)
    with pytest.raises(ValueError):
        PnpParams(z_minus=-1.0)
    assert PnpParams(dt=0.05, t_final=0.2).n_steps() == 4
    assert PnpParams(dt=0.05, t_final=0.0).n_steps() == 0
    with pytest.raises(ValueError):
        PnpParams(dt=0.03, t_final=0.2).n_steps()


@pytest.mark.parametrize("n_outputs", [0, -2])
def test_nonpositive_n_outputs_rejected(n_outputs):
    # a run would clamp it to one interval while the config records it
    with pytest.raises(ValueError, match="n_outputs"):
        PnpParams(n_outputs=n_outputs)


# ---------------------------------------------------------------------------
# initial condition and Poisson


def test_initial_equilibrium_zero_potential(coarse_mesh):
    prob = MicroProblem(coarse_mesh, PnpParams(), constant_fields(),
                        sample_omega(0).omega)
    state = prob.initial_condition((1.0, 1.0))
    assert np.abs(state.potential).max() <= 1e-12
    assert prob.pi_eps(state) == pytest.approx(0.0, abs=1e-12)


def test_initial_zero_concentrations(coarse_mesh):
    prob = MicroProblem(coarse_mesh, PnpParams(), wiggly_fields(),
                        sample_omega(1).omega)
    state = prob.initial_condition((0.0, 0.0))
    assert np.abs(state.potential).max() <= 1e-12


def test_initial_gaussian_mass_oracle(coarse_mesh):
    prob = MicroProblem(coarse_mesh, PnpParams(), wiggly_fields(),
                        sample_omega(2).omega)
    state = prob.initial_condition((bump, 0.0))
    oracle = midpoint_integral(prob.domain.fluid_vertices,
                               coarse_mesh.fluid_submesh()[1],
                               state.conc_plus)
    assert prob.mass(state.conc_plus) == pytest.approx(oracle, rel=1e-12)
    assert prob.mass(state.conc_minus) == 0.0


def test_initial_negative_rejected(coarse_mesh):
    prob = MicroProblem(coarse_mesh, PnpParams(), constant_fields(),
                        sample_omega(0).omega)
    with pytest.raises(ValueError):
        prob.initial_condition((lambda pts: pts[:, 0] - 0.5, 1.0))


@pytest.mark.parametrize("gamma", [
    GammaFunction("linear", alpha=1.0),
    GammaFunction("saturated", alpha=1.0, lipschitz=2.0,
                  saturation_scale=0.5),
])
def test_poisson_charge_identity(coarse_mesh, gamma):
    # discrete weak form tested with the constant test function: the scaled
    # surface integral of eta gamma(potential) equals the net ionic charge
    prob = MicroProblem(coarse_mesh, PnpParams(), wiggly_fields(gamma),
                        sample_omega(3).omega)
    state = prob.initial_condition((bump, 0.9))
    charge = prob.params.F_const * (
        prob.params.z_plus * prob.mass(state.conc_plus)
        - prob.params.z_minus * prob.mass(state.conc_minus))
    surface = -prob.pi_eps(state)
    assert abs(charge - surface) <= 1e-9 * max(1.0, abs(charge))


def test_pure_neumann_potential_is_the_minimum_norm_solution(square_mesh):
    # no inclusion, so no surface term: the Poisson matrix has the constants
    # as its kernel; with a non-neutral charge the system is inconsistent,
    # and the potential is its least-squares solution of least norm
    prob = MicroProblem(square_mesh, PnpParams(), wiggly_fields(),
                        sample_omega(4).omega)
    assert not prob.has_surface
    state = prob.initial_condition((bump, 0.9))
    b = prob.charge_rhs(state)
    assert abs(b.sum()) > 0.1 * np.abs(b).sum()
    oracle = np.linalg.lstsq(prob.A_theta.toarray(), b, rcond=None)[0]
    err = np.linalg.norm(state.potential - oracle) / np.linalg.norm(oracle)
    assert err <= 1e-10
    assert abs(state.potential.mean()) <= 1e-13 * np.abs(oracle).max()


def test_poisson_manufactured_convergence():
    # unperforated mesh, constant dielectric: potential cos(pi x)cos(pi y)
    # with matching right-hand side; L2 error contracts at second order
    errors = []
    for k in (8, 16, 32):
        spec = UnitCellSpec(inclusion_radius=0.0,
                            target_edge_length=1.0 / k)
        mesh = tile_domain(build_template_cell(spec), 1)
        prob = MicroProblem(mesh, PnpParams(), constant_fields(),
                            sample_omega(0).omega)
        pts = mesh.vertices
        exact = np.cos(math.pi * pts[:, 0]) * np.cos(math.pi * pts[:, 1])
        f = 2.0 * math.pi ** 2 * exact
        shift = 1.0 + 2.0 * math.pi ** 2
        state = prob.initial_condition((lambda q, f=f, s=shift:
                                        s + 2.0 * math.pi ** 2
                                        * np.cos(math.pi * q[:, 0])
                                        * np.cos(math.pi * q[:, 1]),
                                        lambda q, s=shift:
                                        np.full(len(q), s)))
        M = direct_assembly(mesh.vertices, mesh.triangles)[1]
        pot = state.potential - state.potential.mean()
        ref = exact - exact.mean()
        err = pot - ref
        errors.append(math.sqrt(err.dot(M @ err)))
    assert errors[0] / errors[1] > 3.0
    assert errors[1] / errors[2] > 3.0
    assert errors[2] < 2e-3


# ---------------------------------------------------------------------------
# time stepping


def test_equilibrium_state_is_stationary(coarse_mesh):
    prob = MicroProblem(coarse_mesh, PnpParams(), constant_fields(),
                        sample_omega(0).omega)
    state = prob.initial_condition((1.0, 1.0))
    iters = prob.step_nernst_planck(state)
    assert iters == 1
    assert np.abs(state.conc_plus - 1.0).max() <= 1e-12
    assert np.abs(state.conc_minus - 1.0).max() <= 1e-12
    assert state.t == pytest.approx(prob.params.dt)


def test_zero_drift_matches_diffusion_oracle(coarse_mesh):
    # with c = 0 the scheme is backward Euler heat flow on the fluid mesh;
    # replay the same linear algebra directly as an oracle
    params = PnpParams(c=0.0, dt=0.02, t_final=0.08, D_plus=1.0,
                       D_minus=0.5)
    prob = MicroProblem(coarse_mesh, params, wiggly_fields(),
                        sample_omega(4).omega)
    snaps, ledger = prob.run((bump, bump))
    B_plus = (sp.diags(prob.mass_vec) / params.dt
              + params.D_plus * prob.domain.A_fluid)
    B_minus = (sp.diags(prob.mass_vec) / params.dt
               + params.D_minus * prob.domain.A_fluid)
    lu_p = spla.splu(B_plus.tocsc())
    lu_m = spla.splu(B_minus.tocsc())
    u_p = snaps[0].conc_plus.copy()
    u_m = snaps[0].conc_minus.copy()
    for _ in range(params.n_steps()):
        u_p = lu_p.solve(prob.mass_vec * u_p / params.dt)
        u_m = lu_m.solve(prob.mass_vec * u_m / params.dt)
    assert np.abs(snaps[-1].conc_plus - u_p).max() <= 1e-10
    assert np.abs(snaps[-1].conc_minus - u_m).max() <= 1e-10
    assert ledger.max_mass_drift() <= 1e-10


def test_single_step_mass_change(coarse_mesh):
    prob = MicroProblem(coarse_mesh, PnpParams(), wiggly_fields(),
                        sample_omega(5).omega)
    state = prob.initial_condition((bump, 0.9))
    m0 = prob.mass(state.conc_plus), prob.mass(state.conc_minus)
    prob.step_nernst_planck(state)
    m1 = prob.mass(state.conc_plus), prob.mass(state.conc_minus)
    assert abs(m1[0] - m0[0]) / m0[0] <= 1e-10
    assert abs(m1[1] - m0[1]) / m0[1] <= 1e-10


def test_step_matches_backward_euler_oracle(coarse_mesh):
    # the Gummel fixed point is the backward Euler step with the drift at
    # the final potential: (W/dt + D A + s D c z K(phi)) u = W u_old / dt
    params = PnpParams(D_minus=0.5, c=2.0)
    prob = MicroProblem(coarse_mesh, params, wiggly_fields(),
                        sample_omega(5).omega)
    state = prob.initial_condition((bump, 0.9))
    u_old = {+1: state.conc_plus.copy(), -1: state.conc_minus.copy()}
    prob.step_nernst_planck(state)
    pattern, _ = mesh_pattern(prob.domain.fluid_vertices,
                              coarse_mesh.fluid_submesh()[1], None)
    K = pattern.matrix(assemble_drift(pattern,
                                      state.potential[prob.fluid_ids]))
    W = sp.diags(prob.mass_vec) / params.dt
    for s, D, z, u in ((+1, params.D_plus, params.z_plus, state.conc_plus),
                       (-1, params.D_minus, params.z_minus,
                        state.conc_minus)):
        B = W + D * prob.domain.A_fluid + (s * D * params.c * z) * K
        ref = spla.spsolve(sp.csc_matrix(B), W @ u_old[s])
        assert np.abs(u - ref).max() <= 1e-8 * np.abs(ref).max()


def test_one_back_substitution_per_species_per_iterate(coarse_mesh):
    params = PnpParams(D_minus=0.5, t_final=0.06)
    prob = MicroProblem(coarse_mesh, params, wiggly_fields(),
                        sample_omega(5).omega)
    calls = {+1: 0, -1: 0}
    groups = prob._species.groups
    for k, (solve, group) in enumerate(groups):
        def counting(rhs, group=group, solve=solve):
            for s in group:
                calls[s] += 1
            return solve(rhs)
        groups[k] = (counting, group)
    snaps, ledger = prob.run((bump, 0.9))
    iters = sum(row["gummel_iters"] for row in ledger.rows)
    assert iters >= params.n_steps()
    assert calls == {+1: iters, -1: iters}


def test_one_two_column_back_substitution_when_diffusivities_agree(
        coarse_mesh):
    # D_plus == D_minus: one LU, one solve per Gummel iterate with the two
    # species as its columns, bitwise equal to two one-column solves
    params = PnpParams(t_final=0.06)
    prob = MicroProblem(coarse_mesh, params, wiggly_fields(),
                        sample_omega(5).omega)
    groups = prob._species.groups
    [(solve, group)] = groups
    assert group == (+1, -1)
    shapes = []

    def recording(rhs):
        shapes.append(rhs.shape)
        out = solve(rhs)
        for k in range(rhs.shape[1]):
            assert np.array_equal(out[:, k], solve(rhs[:, k].copy()))
        return out

    groups[0] = (recording, group)
    snaps, ledger = prob.run((bump, 0.9))
    iters = sum(row["gummel_iters"] for row in ledger.rows)
    assert iters >= params.n_steps()
    assert shapes == [(len(prob.fluid_ids), 2)] * iters


def test_fine_domain_is_shared_and_checked(coarse_mesh):
    # a shared domain gives the runs a plain mesh gives, bit for bit; a
    # domain built for another D_minus is refused
    params = PnpParams(t_final=0.04)
    omega = sample_omega(5).omega
    domain = FineDomain(coarse_mesh, params)
    shared = [MicroProblem(domain, params, wiggly_fields(), omega).run(
        (bump, 0.9))[0][-1] for _ in range(2)]
    own = MicroProblem(coarse_mesh, params, wiggly_fields(), omega).run(
        (bump, 0.9))[0][-1]
    for snap in shared:
        for name in ("conc_plus", "conc_minus", "potential"):
            assert np.array_equal(getattr(snap, name), getattr(own, name))
    with pytest.raises(ValueError, match="D_minus"):
        MicroProblem(domain, PnpParams(D_minus=0.5, t_final=0.04),
                     wiggly_fields(), omega)


def limit_general_fields():
    # the benchmark's general-mode fields: y- and w-modes in both phases
    return MicroCoefficients(
        rho_f=CoefficientField("rho_f", 2.0, y_modes=(((1, 0), 0.3),),
                               w_modes=(((1, 0), 0.6),), floor=0.5),
        rho_s=CoefficientField("rho_s", 2.0, y_modes=(((0, 1), 0.3),),
                               w_modes=(((1, 0), 0.6),), floor=0.5),
        eta=CoefficientField("eta", 1.0),
        gamma=GammaFunction("linear", alpha=1.0))


def _same_operator(tiled, direct):
    assert np.array_equal(tiled.indptr, direct.indptr)
    assert np.array_equal(tiled.indices, direct.indices)
    gap = np.abs(tiled.data - direct.data).max()
    assert gap <= 1e-12 * np.abs(direct.data).max()


@pytest.mark.parametrize("make_fields", [wiggly_fields, limit_general_fields],
                         ids=["wiggly", "limit-general"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_tiled_operators_match_fine_assembly(coarse_template, n,
                                             make_fields):
    # every fine operator is the template's, tiled: the same pattern as
    # the assembly on the fine triangles with the fine coefficient
    # field(T(x/eps) omega, x/eps^2), and the same values up to rounding
    mesh = tile_domain(coarse_template, n)
    fields = make_fields()
    omega = sample_omega(3).omega
    prob = MicroProblem(mesh, PnpParams(), fields, omega)
    domain = prob.domain
    ids, tris, _ = mesh.fluid_submesh()
    assert np.array_equal(domain.fluid_ids, ids)
    verts = mesh.vertices[ids]
    A_fluid, M_charge = direct_assembly(verts, tris)
    _same_operator(domain.A_fluid, A_fluid)
    _same_operator(domain.M_charge, M_charge)
    pattern, _ = mesh_pattern(verts, tris, None)
    tiled = domain.species.pattern
    for name in ("indices", "indptr", "transpose_slots", "diagonal_slots"):
        assert np.array_equal(getattr(tiled, name), getattr(pattern, name))
    _same_operator(tiled.drift, pattern.drift)
    eps = mesh.epsilon
    _same_operator(prob.A_theta, direct_assembly(
        mesh.vertices, mesh.triangles, phase_integrals(
            mesh.vertices, mesh.triangles, mesh.tri_phase,
            [partial(eval_field_eps, f, omega, eps=eps)
             for f in (fields.rho_f, fields.rho_s)]))[0])
    surface_w = assemble_interface_load(
        mesh.vertices, mesh.interface_edges,
        partial(eval_field_eps, fields.eta, omega, eps=eps))
    assert np.array_equal(prob.surface_w != 0.0, surface_w != 0.0)
    assert (np.abs(prob.surface_w - surface_w).max()
            <= 1e-12 * np.abs(surface_w).max())


def test_fine_set_up_assembles_no_fine_triangle(coarse_template,
                                               monkeypatch):
    # the fine set-up evaluates and assembles on the template only: the
    # element kernels, the slot map and the field evaluation are called,
    # and none of them gets an array of fine-mesh size
    mesh = tile_domain(coarse_template, 3)
    limit = 3 * coarse_template.n_triangles
    calls, fine_calls = set(), []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.add(name)
            if any(isinstance(a, np.ndarray) and a.ndim and
                   a.shape[0] > limit for a in args):
                fine_calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    watched = {fem: ("tri_geometry", "element_stiffness", "element_mass",
                     "element_slots", "phase_integrals"),
               randomfield: ("eval_field_eps", "eval_field_cell")}
    for home, names in watched.items():
        for name in names:
            # a missing name fails here rather than leaving it unwatched
            fn = getattr(home, name)
            for module in (fem, randomfield, micro):
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, recording(name, fn))
    # the template's cell operators are built in this set-up, not taken
    # from an earlier test's
    monkeypatch.setattr(coarse_template, "_cell_operators", None)
    domain = FineDomain(mesh, PnpParams())
    MicroProblem(domain, PnpParams(), wiggly_fields(), sample_omega(1).omega)
    assert fine_calls == []
    # the set-up goes through the watched entry points; only the
    # reference evaluation on fine points is never called
    assert calls == {name for names in watched.values()
                     for name in names} - {"eval_field_eps"}


def test_run_builds_no_matrix_per_iterate(coarse_mesh, monkeypatch):
    # the drift matrix of every Gummel iterate is one CSR matrix of the
    # problem, its data refilled in place
    prob = MicroProblem(coarse_mesh, PnpParams(D_minus=0.5, t_final=0.04,
                                               upwind=True),
                        wiggly_fields(), sample_omega(5).omega)
    built = []
    matrix = MeshPattern.matrix

    def recording(pattern, data):
        built.append(data.shape)
        return matrix(pattern, data)

    monkeypatch.setattr(MeshPattern, "matrix", recording)
    snaps, ledger = prob.run((bump, 0.9))
    assert sum(row["gummel_iters"] for row in ledger.rows) > 0
    assert built == []


def test_upwind_flag_preserves_mass(coarse_mesh):
    params = PnpParams(dt=0.02, t_final=0.04, upwind=True)
    prob = MicroProblem(coarse_mesh, params, wiggly_fields(),
                        sample_omega(5).omega)
    snaps, ledger = prob.run((bump, 0.9))
    assert ledger.max_mass_drift() <= 1e-12
    assert ledger.charge_identity_residuals(params).max() <= 1e-10


# ---------------------------------------------------------------------------
# full runs and the ledger


@pytest.mark.parametrize("D_minus,expected", [(1.0, 2), (0.5, 3)])
def test_species_lu_shared_when_diffusivities_agree(coarse_mesh, monkeypatch,
                                                    D_minus, expected):
    # linear gamma: one direct Poisson LU, plus one species LU per
    # distinct diffusion coefficient, for the fine and the limit stepper
    calls = {"splu": 0}
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls["splu"] += 1
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    params = PnpParams(D_plus=1.0, D_minus=D_minus)
    MicroProblem(coarse_mesh, params, wiggly_fields(), sample_omega(2).omega)
    assert calls["splu"] == expected
    calls["splu"] = 0
    eye = np.eye(2)
    MacroProblem(macro_mesh(8), EffectiveCoefficients(0.8, eye, eye, eye, 1.0),
                 params, GammaFunction("linear", alpha=1.0))
    assert calls["splu"] == expected


def test_every_lu_orders_by_minimum_degree(coarse_mesh, square_mesh,
                                          monkeypatch):
    # every matrix factored is symmetric: each splu call asks for minimum
    # degree on A + A^T, in the fine, limit and cell-problem set-ups
    specs = []
    splu = spla.splu

    def recording_splu(*args, **kwargs):
        specs.append(kwargs.get("permc_spec"))
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    omega = sample_omega(2).omega
    saturated = GammaFunction("saturated", alpha=1.0, lipschitz=2.0,
                              saturation_scale=0.5)
    MicroProblem(coarse_mesh, PnpParams(), wiggly_fields(), omega)
    assert len(specs) == 2  # direct Poisson LU, one species LU
    MicroProblem(coarse_mesh, PnpParams(), wiggly_fields(saturated), omega)
    assert len(specs) == 4  # Newton preconditioner, one species LU
    MicroProblem(square_mesh, PnpParams(), wiggly_fields(), omega)
    assert len(specs) == 6  # bordered pure-Neumann Poisson LU, one species LU
    eye = np.eye(2)
    MacroProblem(macro_mesh(8), EffectiveCoefficients(0.8, eye, eye, eye, 1.0),
                 PnpParams(), GammaFunction("linear", alpha=1.0))
    assert len(specs) == 8
    spec = UnitCellSpec(n_interface_segments=32, target_edge_length=1.0 / 8)
    eff = compute_effective(build_template_cell(spec), wiggly_fields(), K=4)
    assert eff.provenance["dielectric_mode"] == "general"
    assert len(specs) > 8
    assert set(specs) == {"MMD_AT_PLUS_A"}


def test_run_zero_horizon(coarse_mesh):
    params = PnpParams(dt=0.02, t_final=0.0)
    snaps, ledger = MicroProblem(coarse_mesh, params, constant_fields(),
                                 sample_omega(0).omega).run((1.0, 1.0))
    assert len(snaps) == 1
    assert len(ledger.rows) == 1
    assert snaps[0].t == 0.0


def test_run_equilibrium_constants(coarse_mesh):
    snaps, ledger = MicroProblem(coarse_mesh, PnpParams(), constant_fields(),
                                 sample_omega(0).omega).run((1.0, 1.0))
    masses = ledger.column("mass_plus")
    assert np.abs(masses - masses[0]).max() <= 1e-10 * masses[0]
    assert ledger.max_pi_drift() <= 1e-9
    assert len(ledger.rows) == PnpParams().n_steps() + 1


def test_run_single_species_surface_functional(coarse_mesh):
    # with the negative species absent, the surface functional pins the
    # negated charge of the positive species at every time
    params = PnpParams(dt=0.02, t_final=0.1)
    prob = MicroProblem(coarse_mesh, params, wiggly_fields(),
                        sample_omega(7).omega)
    snaps, ledger = prob.run((bump, 0.0))
    m0 = ledger.rows[0]["mass_plus"]
    target = -params.F_const * params.z_plus * m0
    pi = ledger.column("pi_eps")
    assert np.abs(pi - target).max() <= 1e-9 * (1.0 + abs(target))


def test_run_conservation_suite(coarse_mesh):
    params = PnpParams(dt=0.02, t_final=0.2)
    for seed in (0, 1):
        prob = MicroProblem(coarse_mesh, params, wiggly_fields(),
                            sample_omega(seed).omega)
        snaps, ledger = prob.run((bump, 0.9))
        assert ledger.max_mass_drift() <= 1e-8
        assert ledger.max_pi_drift() <= 1e-7
        assert ledger.charge_identity_residuals(params).max() <= 1e-8
        assert ledger.column("min_conc").min() >= -1e-8
        assert not ledger.flags
        assert len(ledger.rows) == params.n_steps() + 1
        assert len(snaps) == params.n_outputs + 1
        assert all(r["gummel_iters"] >= 1 for r in ledger.rows[1:])


def test_run_gummel_failure_carries_ledger(coarse_mesh):
    params = PnpParams(dt=0.02, t_final=0.2, gummel_max=1)
    prob = MicroProblem(coarse_mesh, params, wiggly_fields(),
                        sample_omega(7).omega)
    with pytest.raises(MicroRunError) as err:
        prob.run((bump, 0.9))
    assert len(err.value.ledger.rows) >= 1
    assert len(err.value.snapshots) >= 1


def test_run_nonfinite_iterate_fails(coarse_mesh):
    # a drift this strong makes the lagged iterates overflow; the step fails
    # at that iterate rather than taking a NaN change as converged
    params = PnpParams(c=16.0, F_const=10.0)
    prob = MicroProblem(coarse_mesh, params, wiggly_fields(),
                        sample_omega(7).omega)
    with pytest.raises(MicroRunError,
                       match=r"Gummel iterate \d+ is not finite"):
        prob.run((bump, 0.9))


def test_run_determinism(coarse_mesh, tmp_path):
    params = PnpParams(dt=0.02, t_final=0.06)
    paths = []
    for tag in ("a", "b"):
        prob = MicroProblem(coarse_mesh, params, wiggly_fields(),
                            sample_omega(9).omega)
        snaps, ledger = prob.run((bump, 0.9))
        path = os.path.join(tmp_path, "ledger_%s.csv" % tag)
        ledger.to_csv(path)
        paths.append(path)
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


def test_run_r0_neutral_exact(square_mesh):
    snaps, ledger = MicroProblem(square_mesh, PnpParams(), constant_fields(),
                                 sample_omega(0).omega).run((1.0, 1.0))
    final = snaps[-1]
    assert np.abs(final.conc_plus - 1.0).max() == 0.0
    assert np.abs(final.potential).max() == 0.0
    assert ledger.column("pi_eps").max() == 0.0


def test_ledger_flags_and_csv(tmp_path):
    ledger = ConservationLedger()
    ledger.add(0.0, 1.0, 1.0, -0.5, 0.1, 0)
    ledger.add(0.1, 1.0, 1.0, -0.5, -1e-3, 3)
    assert len(ledger.flags) == 1
    path = os.path.join(tmp_path, "ledger.csv")
    ledger.to_csv(path)
    lines = open(path).read().strip().split("\n")
    assert lines[0] == "t,mass_plus,mass_minus,pi_eps,min_conc,gummel_iters"
    assert len(lines) == 3
    assert lines[2].endswith(",3")


def test_ledger_charge_residuals_identity_and_pinned():
    # F = 2, z+ = 1, z- = 2: pi_eps = -F (z+ M+ - z- M-) holds at every
    # row while the masses drift, so the identity residual vanishes and the
    # pinned residual is the drift of the charge from the first row
    params = PnpParams(F_const=2.0, z_plus=1.0, z_minus=2.0)
    ledger = ConservationLedger()
    for t, m_plus, m_minus in ((0.0, 1.0, 0.25), (0.1, 1.5, 0.25),
                               (0.2, 1.25, 0.5)):
        ledger.add(t, m_plus, m_minus, -2.0 * (m_plus - 2.0 * m_minus),
                   0.1, 1)
    assert ledger.charge_identity_residuals(params).tolist() == [0.0] * 3
    assert equilibrium_residual(ledger, params) == 0.0
    assert ledger.pinned_charge_residuals(params).tolist() == [0.0, 1.0, 0.5]
    # with conserved masses the two agree: both are the offset of pi_eps
    ledger = ConservationLedger()
    for t, offset in ((0.0, 0.0), (0.1, 0.25), (0.2, -0.125)):
        ledger.add(t, 1.0, 0.25, -1.0 + offset, 0.1, 1)
    expected = [0.0, 0.25, 0.125]
    assert ledger.charge_identity_residuals(params).tolist() == expected
    assert ledger.pinned_charge_residuals(params).tolist() == expected


def test_snapshot_csv(coarse_mesh, tmp_path):
    params = PnpParams(dt=0.02, t_final=0.02)
    prob = MicroProblem(coarse_mesh, params, wiggly_fields(),
                        sample_omega(0).omega)
    snaps, ledger = prob.run((bump, 0.9))
    path = os.path.join(tmp_path, "snap.csv")
    write_snapshot(path, coarse_mesh, prob.fluid_ids, snaps[-1])
    lines = open(path).read().strip().split("\n")
    assert lines[0] == "vertex_id,x,y,conc_plus,conc_minus,potential"
    assert len(lines) == len(prob.fluid_ids) + 1
    row = lines[1].split(",")
    vid = int(row[0])
    assert np.allclose([float(row[1]), float(row[2])],
                       coarse_mesh.vertices[vid])
