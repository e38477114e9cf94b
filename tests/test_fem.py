"""Tests for the quadrature rules, P1 assembly, and the iterative solvers."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from pnphom.fem import (
    AssemblyError,
    ConvergenceFailure,
    MeshPattern,
    _splu,
    assemble_drift,
    assemble_interface_load,
    assemble_mass,
    assemble_stiffness,
    cg_solve,
    edge_quadrature_points,
    newton_solve,
    phase_integrals,
    tri_geometry,
    tri_gradient,
)
from pnphom.geometry import UnitCellSpec, build_template_cell, tile_domain


def reference_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    return verts, tris


@pytest.fixture(scope="module")
def fluid_template():
    cell = build_template_cell(
        UnitCellSpec(n_interface_segments=32, target_edge_length=1.0 / 8))
    ids, tris, _ = _fluid_region(cell)
    return cell, ids, tris


def _row_sums(A):
    return np.asarray(A.sum(axis=1)).ravel()


def _fluid_region(cell):
    from pnphom.geometry import FLUID

    mask = cell.tri_phase == FLUID
    tris = cell.triangles[mask]
    ids = np.unique(tris)
    g2l = -np.ones(len(cell.vertices), dtype=np.int64)
    g2l[ids] = np.arange(len(ids))
    return ids, g2l[tris], g2l


# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_weight_sums(fluid_template):
    # the triangle rule's weights sum to the area, the edge rules' to the
    # length
    cell, _, _ = fluid_template
    areas, _ = tri_geometry(cell.vertices, cell.triangles)
    csum = phase_integrals(cell.vertices, cell.triangles, cell.tri_phase,
                           [_uniform(1.0), _uniform(1.0)])
    assert np.array_equal(csum, 3.0 * ((2.0 * areas) * (1.0 / 6.0)))
    verts = np.array([[0.0, 0.0], [1.0, 0.0]])
    for k in (2, 4, 8):
        _, wts = edge_quadrature_points(verts, [[0, 1]], k)
        assert wts.sum() == pytest.approx(1.0, abs=1e-15)


def _ref_integral(a, b):
    # exact integral of x^a y^b over the reference triangle
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def _monomial(a, b):
    return lambda p: p[:, 0] ** a * p[:, 1] ** b


def test_triangle_rule_polynomial_exactness():
    verts, tris = reference_triangle()
    for a in range(3):
        for b in range(3 - a):
            approx = phase_integrals(verts, tris, [0], [_monomial(a, b)])[0]
            assert approx == pytest.approx(_ref_integral(a, b), abs=1e-15)
    # on a mapped triangle: int x_a x_b = |T|/12 (sum_i x_ai x_bi
    # + sum_i x_ai sum_i x_bi)
    verts = np.array([[0.2, 0.1], [1.3, 0.4], [0.5, 1.7]])
    area = tri_geometry(verts, tris)[0][0]
    for a, b in ((1, 1), (2, 0), (0, 2)):
        xa = verts[:, 0] if a else verts[:, 1]
        xb = verts[:, 1] if b else verts[:, 0]
        exact = area / 12.0 * (xa.dot(xb) + xa.sum() * xb.sum())
        approx = phase_integrals(verts, tris, [0], [_monomial(a, b)])[0]
        assert approx == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("k,degree", [(2, 3), (4, 7), (8, 15)])
def test_edge_rule_polynomial_exactness(k, degree):
    pts, wts = edge_quadrature_points(np.array([[0.0, 0.0], [1.0, 0.0]]),
                                      [[0, 1]], k)
    t = pts[0, :, 0]
    for a in range(degree + 1):
        approx = float((wts[0] * t ** a).sum())
        assert approx == pytest.approx(1.0 / (a + 1), rel=1e-14)


def test_mapped_quadrature_measures():
    verts, tris = reference_triangle()
    assert phase_integrals(verts, tris, [0], [_uniform(1.0)])[0] == (
        pytest.approx(0.5, abs=1e-15))
    areas, grads = tri_geometry(verts, tris)
    assert areas[0] == pytest.approx(0.5, abs=1e-16)
    # hat gradients of the reference triangle
    assert np.allclose(grads[0], [[-1, -1], [1, 0], [0, 1]])


# ---------------------------------------------------------------------------
# stiffness


def test_stiffness_reference_triangle():
    verts, tris = reference_triangle()
    A = assemble_stiffness(verts, tris)
    expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    assert np.allclose(A.toarray(), expected, atol=1e-15)
    assert np.allclose(_row_sums(A), 0.0, atol=1e-15)


def test_stiffness_kernel_contains_constants(fluid_template):
    cell, ids, tris = fluid_template
    A = assemble_stiffness(cell.vertices[ids], tris)
    ones = np.ones(len(ids))
    assert np.abs(A @ ones).max() <= 1e-12


def test_stiffness_energy_of_linear_field():
    # u = x1 on the unit square: u^T A u = int |grad u|^2 = 1
    cell = build_template_cell(
        UnitCellSpec(inclusion_radius=0.0, target_edge_length=1.0 / 8))
    A = assemble_stiffness(cell.vertices, cell.triangles)
    u = cell.vertices[:, 0].copy()
    assert u.dot(A @ u) == pytest.approx(1.0, abs=1e-10)


def test_stiffness_tensor_coefficient():
    cell = build_template_cell(
        UnitCellSpec(inclusion_radius=0.0, target_edge_length=1.0 / 8))
    tensor = np.array([[2.0, 0.0], [0.0, 1.0]])
    A = assemble_stiffness(cell.vertices, cell.triangles, coefficient=tensor)
    u = cell.vertices[:, 0].copy()
    v = cell.vertices[:, 1].copy()
    assert u.dot(A @ u) == pytest.approx(2.0, abs=1e-10)
    assert v.dot(A @ v) == pytest.approx(1.0, abs=1e-10)


def test_stiffness_varying_coefficient_exact():
    # a(x) = 1 + x1, u = x1: energy = int_0^1 (1 + x1) dx1 = 1.5
    cell = build_template_cell(
        UnitCellSpec(inclusion_radius=0.0, target_edge_length=1.0 / 8))

    def coef(p):
        return 1.0 + p[:, 0]

    csum = phase_integrals(cell.vertices, cell.triangles, cell.tri_phase,
                           [coef])
    A = assemble_stiffness(cell.vertices, cell.triangles, coefficient=csum)
    u = cell.vertices[:, 0].copy()
    assert u.dot(A @ u) == pytest.approx(1.5, abs=1e-12)
    assert np.abs(A @ np.ones(len(cell.vertices))).max() <= 1e-12


def test_phase_integrals_split_by_phase(fluid_template):
    cell, _, _ = fluid_template
    areas, _ = tri_geometry(cell.vertices, cell.triangles)
    csum = phase_integrals(cell.vertices, cell.triangles, cell.tri_phase,
                           [_uniform(2.0), _uniform(0.5)])
    assert np.allclose(csum, np.where(cell.tri_phase == 0, 2.0, 0.5) * areas,
                       rtol=1e-15, atol=0.0)
    with pytest.raises(AssemblyError):
        phase_integrals(cell.vertices, cell.triangles, cell.tri_phase,
                        [_uniform(2.0)])
    with pytest.raises(AssemblyError):
        assemble_stiffness(cell.vertices, cell.triangles, csum[:-1])


def test_stiffness_rejects_nonsymmetric_tensor():
    cell = build_template_cell(
        UnitCellSpec(inclusion_radius=0.0, target_edge_length=1.0 / 8))
    with pytest.raises(AssemblyError):
        assemble_stiffness(cell.vertices, cell.triangles,
                           coefficient=np.array([[1.0, 0.5], [0.0, 1.0]]))
    A = assemble_stiffness(cell.vertices, cell.triangles,
                           coefficient=np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert abs(A - A.T).max() <= 1e-15


def test_stiffness_degenerate_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    tris = np.array([[0, 1, 2]])
    with pytest.raises(AssemblyError):
        assemble_stiffness(verts, tris)


def test_stiffness_empty_region():
    verts, _ = reference_triangle()
    with pytest.raises(AssemblyError):
        assemble_stiffness(verts, np.zeros((0, 3), dtype=np.int64))


# ---------------------------------------------------------------------------
# mass


def test_mass_total_is_area(fluid_template):
    cell, ids, tris = fluid_template
    M = assemble_mass(cell.vertices[ids], tris)
    assert M.sum() == pytest.approx(cell.fluid_area, abs=1e-12)
    # the lumped weights of the stepper: positive row sums
    assert _row_sums(M).min() > 0.0


# ---------------------------------------------------------------------------
# interface load


def _uniform(value):
    return lambda p: np.full(len(p), value)


def test_interface_load_total_length(fluid_template):
    cell, _, _ = fluid_template
    b = assemble_interface_load(cell.vertices, cell.interface_edges,
                                _uniform(1.0))
    assert b.sum() == pytest.approx(cell.interface_length, abs=1e-12)
    b5 = assemble_interface_load(cell.vertices, cell.interface_edges,
                                 _uniform(5.0))
    assert b5.sum() == pytest.approx(5.0 * cell.interface_length, abs=1e-12)


def test_interface_load_linear_density_exact(fluid_template):
    cell, _, _ = fluid_template

    def density(p):
        return p[:, 0]

    b = assemble_interface_load(cell.vertices, cell.interface_edges, density)
    # by symmetry the centroid of the polygon boundary is the center
    assert b.sum() == pytest.approx(0.5 * cell.interface_length, abs=1e-12)


def test_interface_load_zero_length_edge():
    verts = np.array([[0.0, 0.0], [0.0, 0.0]])
    edges = np.array([[0, 1]])
    with pytest.raises(AssemblyError):
        assemble_interface_load(verts, edges, _uniform(1.0))


def test_edge_quadrature_points(fluid_template):
    cell, _, _ = fluid_template
    pts, wts = edge_quadrature_points(cell.vertices, cell.interface_edges, 2)
    assert wts.sum() == pytest.approx(cell.interface_length, abs=1e-12)
    # all quadrature points lie near the inscribed circle
    r = np.linalg.norm(pts.reshape(-1, 2) - 0.5, axis=1)
    assert np.all(r <= 0.25 + 1e-12)
    assert np.all(r >= 0.25 * math.cos(math.pi / 32) - 1e-12)


# ---------------------------------------------------------------------------
# drift on the fixed mesh pattern


@pytest.fixture(scope="module", params=["tiled", "right-angle"])
def drift_mesh(request):
    # a tiled perforated fluid mesh, and a right-angle square mesh whose
    # stiffness has structural zeros the drift pattern must still hold; a
    # smooth potential, whose drift entries have the size of those of a
    # standard normal velocity per triangle
    if request.param == "tiled":
        mesh = tile_domain(build_template_cell(UnitCellSpec(
            n_interface_segments=32, target_edge_length=1.0 / 8)), 2)
        ids, tris, _ = mesh.fluid_submesh()
        verts = mesh.vertices[ids]
    else:
        cell = build_template_cell(
            UnitCellSpec(inclusion_radius=0.0, target_edge_length=1.0 / 8))
        verts, tris = cell.vertices, cell.triangles
    x, y = verts.T
    potential = np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) + 0.5 * x
    return verts, tris, potential


def _dense_drift(verts, tris, velocity):
    # K_ij = int hat_j (v . grad hat_i) dx from the element formula, summed
    # as COO triplets
    areas, grads = tri_geometry(verts, tris)
    gi_v = np.einsum("tid,td->ti", grads, velocity) * (areas / 3.0)[:, None]
    local = np.repeat(gi_v[:, :, None], 3, axis=2)
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    n = len(verts)
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).toarray()


def _dense_upwind(K):
    # graph Laplacian with off-diagonal entries -max(0, K_ij, K_ji)
    A = sp.coo_matrix(K)
    mask = A.row != A.col
    off = sp.coo_matrix((A.data[mask], (A.row[mask], A.col[mask])),
                        shape=A.shape).tocsr()
    d = off.maximum(off.T)
    d.data = np.maximum(d.data, 0.0)
    d.eliminate_zeros()
    return (sp.diags(np.asarray(d.sum(axis=1)).ravel()) - d).toarray()


def test_drift_fill_matches_element_formula(drift_mesh):
    verts, tris, potential = drift_mesh
    pattern = MeshPattern(verts, tris, None)
    K = assemble_drift(pattern, potential)
    dense = _dense_drift(verts, tris, tri_gradient(verts, tris, potential))
    assert K.nnz == pattern.nnz
    assert np.abs(K.toarray() - dense).max() <= 1e-15
    # zero column sums, to the rounding of the summation
    col_sums = np.asarray(K.sum(axis=0)).ravel()
    col_abs = np.asarray(abs(K).sum(axis=0)).ravel()
    assert np.all(np.abs(col_sums) <= 1e-14 * col_abs)
    with pytest.raises(AssemblyError):
        assemble_drift(pattern, potential[1:])


def _drift_rounding_scale(verts, tris, potential):
    # the element formula with every factor in absolute value, component by
    # component: the size of the terms each entry sums, in the fill and in
    # the reference alike.  |T| @ |phi| is smaller where the gradients of a
    # triangle are orthogonal, as on right angles, so T's entry cancels
    areas, grads = tri_geometry(verts, tris)
    speed = np.einsum("tkd,tk->td", np.abs(grads), np.abs(potential)[tris])
    terms = np.einsum("tid,td->ti", np.abs(grads), speed) * (areas / 3.0)[
        :, None]
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    n = len(verts)
    return sp.coo_matrix((np.repeat(terms, 3, axis=1).ravel(), (rows, cols)),
                         shape=(n, n)).toarray()


def test_drift_fill_rounding_at_any_scale(drift_mesh):
    # a standard normal potential: each entry of the fill is within the
    # rounding of its own terms, whatever the size of the entries
    verts, tris, _ = drift_mesh
    potential = np.random.default_rng(7).standard_normal(len(verts))
    pattern = MeshPattern(verts, tris, None)
    K = assemble_drift(pattern, potential)
    dense = _dense_drift(verts, tris, tri_gradient(verts, tris, potential))
    slots = (pattern.rows, pattern.indices)
    gap = np.abs(K.data - dense[slots])
    scale = _drift_rounding_scale(verts, tris, potential)[slots]
    assert np.all(gap <= 4.0 * np.finfo(float).eps * scale)


def test_drift_map_orientation(drift_mesh):
    # the drift velocity is B grad(phi); B is not symmetric, so the
    # transposed map fills a different matrix
    verts, tris, potential = drift_mesh
    B = np.array([[1.0, 0.7], [-0.3, 2.0]])
    velocity = tri_gradient(verts, tris, potential) @ B.T
    dense = _dense_drift(verts, tris, velocity)
    scale = np.abs(dense).max()
    K = assemble_drift(MeshPattern(verts, tris, B), potential).toarray()
    assert np.abs(K - dense).max() <= 1e-14 * scale
    K_T = assemble_drift(MeshPattern(verts, tris, B.T), potential).toarray()
    assert np.abs(K_T - dense).max() >= 0.1 * scale


def test_upwind_laplacian_on_pattern(drift_mesh):
    verts, tris, potential = drift_mesh
    pattern = MeshPattern(verts, tris, None)
    K = assemble_drift(pattern, potential)
    L = pattern.matrix(pattern.upwind_laplacian(K.data)).toarray()
    assert np.abs(L - _dense_upwind(K)).max() <= 1e-15
    assert np.abs(L.sum(axis=0)).max() <= 1e-15
    assert np.abs(L.sum(axis=1)).max() <= 1e-15
    # K + L has nonpositive off-diagonal couplings
    KL = K.toarray() + L
    assert (KL - np.diag(np.diag(KL))).max() <= 1e-15


# ---------------------------------------------------------------------------
# solvers


def test_cg_identity():
    A = sp.identity(5, format="csr")
    b = np.arange(5.0)
    res = cg_solve(A, b, tol=1e-14)
    assert res.iterations <= 1
    assert np.allclose(res.x, b, atol=1e-14)


def test_cg_tridiagonal_vs_dense():
    n = 100
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    A = sp.diags([off, main, off], [-1, 0, 1], format="csr")
    b = np.ones(n)
    x_ref = np.linalg.solve(A.toarray(), b)
    res = cg_solve(A, b, tol=1e-12)
    assert np.linalg.norm(res.x - x_ref) <= 1e-8


def test_cg_singular_incompatible():
    # Neumann-type singular matrix with incompatible rhs
    A = sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    b = np.array([1.0, 1.0])  # not mean-zero
    with pytest.raises(ConvergenceFailure) as err:
        cg_solve(A, b, tol=1e-12, max_iter=50)
    assert err.value.residual > 0.0
    assert not math.isnan(err.value.residual)
    # the failure carries its final iterate for diagnostics
    assert err.value.x.shape == (2,)
    assert 0 < err.value.iterations <= 50


def test_exact_preconditioner_takes_one_iteration(fluid_template):
    # the bench counters read SolveResult.iterations: one per CG step
    cell, ids, tris = fluid_template
    verts = cell.vertices[ids]
    B = assemble_mass(verts, tris) / 0.02 + assemble_stiffness(verts, tris)
    b = np.sin(np.arange(B.shape[0]) * 0.1)
    res = cg_solve(B, b, tol=1e-11, precond=_splu(B).solve)
    assert res.iterations == 1
    assert res.residual <= 1e-11
    assert np.linalg.norm(b - B @ res.x) / np.linalg.norm(b) == res.residual


def test_cg_determinism(fluid_template):
    cell, ids, tris = fluid_template
    verts = cell.vertices[ids]
    A = assemble_mass(verts, tris) + assemble_stiffness(verts, tris)
    b = np.sin(np.arange(A.shape[0]) * 0.1)
    r1 = cg_solve(A, b, tol=1e-11)
    r2 = cg_solve(A, b, tol=1e-11)
    assert np.array_equal(r1.x, r2.x)
    assert r1.iterations == r2.iterations > 1


def test_newton_saturated_system():
    # F(x) = A x + 0.3 tanh(x) - b, solved to 1e-10
    rng = np.random.default_rng(2)
    n = 20
    Ad = np.eye(n) * 2.0 + 0.1 * rng.normal(size=(n, n))
    Ad = 0.5 * (Ad + Ad.T)
    A = sp.csr_matrix(Ad)
    b = rng.normal(size=n)

    def residual(x):
        return A.dot(x) + 0.3 * np.tanh(x) - b

    def solve_lin(x, f):
        J = Ad + np.diag(0.3 / np.cosh(x) ** 2)
        return np.linalg.solve(J, f)

    res = newton_solve(residual, solve_lin, np.zeros(n))
    assert np.linalg.norm(residual(res.x)) <= 1e-9
    assert res.iterations <= 10


def test_newton_failure_reported():
    def residual(x):
        return np.array([x[0] ** 2 + 1.0])  # no real root

    def solve_lin(x, f):
        return f / max(2.0 * x[0], 0.1)

    with pytest.raises(ConvergenceFailure):
        newton_solve(residual, solve_lin, np.array([1.0]), max_iter=10)


def test_newton_nan_residual_is_a_failure():
    # NaN fails every comparison, so it must not pass the tolerance test
    with pytest.raises(ConvergenceFailure) as err:
        newton_solve(lambda x: np.array([np.nan]), lambda x, f: f,
                     np.array([1.0]))
    assert math.isnan(err.value.residual)
    assert err.value.iterations == 0
