"""Tests for the unit-cell mesher and periodic tiling."""

import copy
import io
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from pnphom.geometry import (
    FLUID,
    SOLID,
    DomainError,
    MeshConstructionError,
    PerforatedMesh,
    UnitCellSpec,
    _validate_template,
    build_template_cell,
    dump_mesh,
    tile_domain,
)


@pytest.fixture(scope="module")
def default_cell():
    return build_template_cell(UnitCellSpec())


@pytest.fixture(scope="module")
def coarse_cell():
    spec = UnitCellSpec(n_interface_segments=32, target_edge_length=1.0 / 8)
    return build_template_cell(spec)


def test_polygon_area_formula():
    spec = UnitCellSpec(inclusion_radius=0.25, n_interface_segments=64)
    expected = 0.5 * 64 * 0.25 ** 2 * math.sin(2.0 * math.pi / 64)
    assert spec.polygon_area() == pytest.approx(expected, abs=1e-15)
    # close to the disc it approximates
    assert abs(spec.polygon_area() - math.pi * 0.0625) < 1e-3


def test_polygon_perimeter_formula():
    spec = UnitCellSpec(inclusion_radius=0.25, n_interface_segments=64)
    expected = 2 * 64 * 0.25 * math.sin(math.pi / 64)
    assert spec.polygon_perimeter() == pytest.approx(expected, abs=1e-15)
    assert abs(spec.polygon_perimeter() - 2.0 * math.pi * 0.25) < 2e-3


def _solid_area(cell):
    return float(cell.triangle_areas()[cell.tri_phase != FLUID].sum())


def test_template_areas_exact(default_cell):
    cell = default_cell
    spec = cell.spec
    assert _solid_area(cell) == pytest.approx(spec.polygon_area(), abs=1e-12)
    assert cell.fluid_area + _solid_area(cell) == pytest.approx(1.0,
                                                                abs=1e-12)
    assert cell.porosity == pytest.approx(1.0 - spec.polygon_area(), abs=1e-12)


def test_template_interface_length_exact(default_cell):
    cell = default_cell
    assert cell.interface_length == pytest.approx(
        cell.spec.polygon_perimeter(), abs=1e-12
    )


def test_template_min_angle(default_cell):
    p = default_cell.vertices
    t = default_cell.triangles
    v0, v1, v2 = p[t[:, 0]], p[t[:, 1]], p[t[:, 2]]
    min_angle = math.inf
    for a, b, c in ((v0, v1, v2), (v1, v2, v0), (v2, v0, v1)):
        u = b - a
        w = c - a
        cosang = np.sum(u * w, axis=1) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(w, axis=1)
        )
        ang = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
        min_angle = min(min_angle, ang.min())
    assert min_angle >= 15.0


def test_template_orientation(default_cell):
    p = default_cell.vertices
    t = default_cell.triangles
    d1 = p[t[:, 1]] - p[t[:, 0]]
    d2 = p[t[:, 2]] - p[t[:, 0]]
    cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    assert np.all(cross > 0.0)


def test_interface_edges_separate_phases(default_cell):
    cell = default_cell
    # each interface edge adjoins one fluid and one solid triangle
    edge_map = {}
    for ti, tri in enumerate(cell.triangles):
        for k in range(3):
            key = tuple(sorted((tri[k], tri[(k + 1) % 3])))
            edge_map.setdefault(key, []).append(ti)
    for e in cell.interface_edges:
        owners = edge_map[tuple(sorted(e))]
        phases = {cell.tri_phase[ti] for ti in owners}
        assert phases == {FLUID, SOLID}


@pytest.mark.parametrize("phase", [FLUID, SOLID])
def test_interface_edge_inside_one_phase_rejected(coarse_cell, phase):
    cell = copy.copy(coarse_cell)
    tri = cell.triangles[np.argmax(cell.tri_phase == phase)]
    cell.interface_edges = np.vstack([cell.interface_edges, tri[:2]])
    with pytest.raises(MeshConstructionError, match="interface edge"):
        _validate_template(cell)


def test_periodic_pairing(default_cell):
    cell = default_cell
    pairs = cell.periodic_pairs()
    n_side = len(cell.side_vertices["left"]) - 1
    assert len(pairs["x"]) == n_side + 1
    assert len(pairs["y"]) == n_side + 1
    p = cell.vertices
    for a, b in pairs["x"]:
        assert p[a, 0] == 0.0 and p[b, 0] == 1.0
        assert p[a, 1] == p[b, 1]
    for a, b in pairs["y"]:
        assert p[a, 1] == 0.0 and p[b, 1] == 1.0
        assert p[a, 0] == p[b, 0]


def test_square_cell_all_fluid():
    spec = UnitCellSpec(inclusion_radius=0.0, target_edge_length=1.0 / 8)
    cell = build_template_cell(spec)
    assert _solid_area(cell) == 0.0
    assert cell.fluid_area == pytest.approx(1.0, abs=1e-12)
    assert len(cell.interface_edges) == 0
    assert np.all(cell.tri_phase == FLUID)


def test_tiling_counts(coarse_cell):
    mesh = tile_domain(coarse_cell, 2)
    assert isinstance(mesh, PerforatedMesh)
    assert mesh.n == 2
    assert mesh.epsilon == 0.5
    assert len(mesh.triangles) == 4 * len(coarse_cell.triangles)
    assert len(mesh.interface_edges) == 4 * len(coarse_cell.interface_edges)
    # inclusions = number of cells
    lengths = np.linalg.norm(
        mesh.vertices[mesh.interface_edges[:, 1]]
        - mesh.vertices[mesh.interface_edges[:, 0]],
        axis=1,
    )
    assert lengths.sum() == pytest.approx(
        2 * coarse_cell.interface_length, rel=1e-12
    )


@pytest.mark.parametrize("n", [1, 2, 4])
def test_tiling_area_and_interface(coarse_cell, n):
    mesh = tile_domain(coarse_cell, n)
    p = mesh.vertices
    t = mesh.triangles
    d1 = p[t[:, 1]] - p[t[:, 0]]
    d2 = p[t[:, 2]] - p[t[:, 0]]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    assert np.all(areas > 0.0)
    assert math.fsum(areas) == pytest.approx(1.0, abs=1e-11)
    fluid_area = math.fsum(areas[mesh.tri_phase == FLUID])
    assert fluid_area == pytest.approx(coarse_cell.porosity, abs=1e-11)
    # interface length scales like 1/eps * template length ... n cells of
    # perimeter (template length / n) each
    ie = mesh.interface_edges
    L = np.sum(np.linalg.norm(p[ie[:, 1]] - p[ie[:, 0]], axis=1))
    assert L == pytest.approx(n * coarse_cell.interface_length, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("cell_name", ["coarse_cell", "default_cell"])
def test_tiling_is_stitched(request, cell_name, n):
    # one vertex per point, and only the square's border is left open
    mesh = tile_domain(request.getfixturevalue(cell_name), n)
    assert np.unique(mesh.vertices, axis=0).shape[0] == mesh.n_vertices
    t = mesh.triangles
    edges = np.sort(np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
    edges, uses = np.unique(edges, axis=0, return_counts=True)
    assert set(uses.tolist()) <= {1, 2}
    border = np.sort(mesh.boundary_edges, axis=1)
    assert np.unique(border, axis=0).shape[0] == border.shape[0]
    assert np.array_equal(edges[uses == 1], np.unique(border, axis=0))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tiling_map_gives_the_mesh(coarse_cell, n):
    # index[c, v] is the vertex of template vertex v in cell c = b n + a:
    # it reproduces the triangles and interface edges cell by cell, and
    # the vertex sits at ((a, b) + y) / n
    mesh = tile_domain(coarse_cell, n)
    index = mesh.index
    assert index.shape == (n * n, coarse_cell.n_vertices)
    assert np.array_equal(index[:, coarse_cell.triangles].reshape(-1, 3),
                          mesh.triangles)
    assert np.array_equal(
        index[:, coarse_cell.interface_edges].reshape(-1, 2),
        mesh.interface_edges)
    assert np.array_equal(np.unique(index), np.arange(mesh.n_vertices))
    cells = np.arange(n * n)
    offsets = np.column_stack([cells % n, cells // n])[:, None, :]
    expected = (offsets + coarse_cell.vertices[None]) / n
    assert np.abs(mesh.vertices[index] - expected).max() <= 1e-15


def test_tiling_boundary_classes(coarse_cell):
    mesh = tile_domain(coarse_cell, 2)
    p = mesh.vertices
    t = mesh.triangles[mesh.tri_phase == FLUID]
    fluid_edges = {tuple(sorted(e)) for e in
                   np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])}
    for e in mesh.boundary_edges:
        x0, x1 = p[e[0]], p[e[1]]
        on_bnd = (
            (x0[0] == x1[0] and x0[0] in (0.0, 1.0))
            or (x0[1] == x1[1] and x0[1] in (0.0, 1.0))
        )
        assert on_bnd
        # all exterior edges adjoin fluid, as the dump's fext records say
        assert tuple(sorted(e)) in fluid_edges


def test_fluid_submesh(coarse_cell):
    mesh = tile_domain(coarse_cell, 2)
    fluid_ids, fluid_tris, g2l = mesh.fluid_submesh()
    assert len(fluid_tris) == np.sum(mesh.tri_phase == FLUID)
    # submesh references every listed vertex
    assert set(np.unique(fluid_tris)) == set(range(len(fluid_ids)))
    # round trip local -> global
    assert np.all(g2l[fluid_ids] == np.arange(len(fluid_ids)))
    # the fluid phase is one connected region
    t = fluid_tris
    adjacency = sp.coo_matrix(
        (np.ones(3 * len(t)),
         (t.ravel(), np.roll(t, 1, axis=1).ravel())),
        shape=(len(fluid_ids), len(fluid_ids)))
    ncomp, _ = connected_components(adjacency, directed=False)
    assert ncomp == 1


def test_dump_load_round_trip(coarse_cell, tmp_path):
    # the records read back give the mesh arrays exactly
    mesh = tile_domain(coarse_cell, 2)
    path = tmp_path / "mesh.txt"
    dump_mesh(mesh, path)
    records = {"v": [], "t": [], "ei": [], "eb": []}
    with open(path) as fh:
        for line in fh:
            tok = line.split()
            records[tok[0]].append(tok[1:])
    assert set(records) == {"v", "t", "ei", "eb"}
    v = np.array([[float(x) for x in r] for r in records["v"]])
    assert np.array_equal(v, mesh.vertices)
    t = records["t"]
    assert np.array_equal(np.array([[int(x) for x in r[:3]] for r in t]),
                          mesh.triangles)
    phase = {"fluid": FLUID, "solid": SOLID}
    assert np.array_equal([phase[r[3]] for r in t], mesh.tri_phase)
    assert np.array_equal(np.array(records["ei"], dtype=np.int64),
                          mesh.interface_edges)
    eb = records["eb"]
    assert np.array_equal(np.array([r[:2] for r in eb], dtype=np.int64),
                          mesh.boundary_edges)
    # the inclusion lies inside the cell, so every exterior edge is fluid
    assert {r[2] for r in eb} == {"fext"}


def test_dump_format(coarse_cell, tmp_path):
    mesh = tile_domain(coarse_cell, 1)
    path = tmp_path / "mesh.txt"
    dump_mesh(mesh, path)
    kinds = {"v": 0, "t": 0, "ei": 0, "eb": 0}
    with open(path) as fh:
        for line in fh:
            tok = line.split()
            assert tok[0] in kinds
            kinds[tok[0]] += 1
            if tok[0] == "v":
                float(tok[1]), float(tok[2])
            elif tok[0] == "t":
                assert tok[4] in ("fluid", "solid")
            elif tok[0] == "eb":
                assert tok[3] in ("fext", "sext")
    assert kinds["v"] == len(mesh.vertices)
    assert kinds["t"] == len(mesh.triangles)
    assert kinds["ei"] == len(mesh.interface_edges)
    assert kinds["eb"] == len(mesh.boundary_edges)


def test_invalid_specs():
    with pytest.raises(DomainError):
        UnitCellSpec(inclusion_radius=0.55).validate()
    with pytest.raises(DomainError):
        UnitCellSpec(inclusion_radius=-0.1).validate()
    with pytest.raises(DomainError):
        UnitCellSpec(inclusion_radius=0.49, target_edge_length=1.0 / 32).validate()
    with pytest.raises(DomainError):
        UnitCellSpec(n_interface_segments=10).validate()
    with pytest.raises(DomainError):
        UnitCellSpec(n_interface_segments=33).validate()
    with pytest.raises(DomainError):
        UnitCellSpec(target_edge_length=0.3).validate()


def test_tile_domain_bad_n(coarse_cell):
    with pytest.raises(DomainError):
        tile_domain(coarse_cell, 0)
    with pytest.raises(DomainError):
        tile_domain(coarse_cell, -3)


@pytest.mark.parametrize("radius", [0.1, 0.2, 0.3, 0.4])
def test_radius_sweep_builds(radius):
    spec = UnitCellSpec(
        inclusion_radius=radius,
        n_interface_segments=32,
        target_edge_length=1.0 / 16,
    )
    cell = build_template_cell(spec)
    assert _solid_area(cell) == pytest.approx(spec.polygon_area(), abs=1e-12)
    assert cell.fluid_area + _solid_area(cell) == pytest.approx(1.0,
                                                                abs=1e-12)


def test_d4_symmetry_of_template(default_cell):
    """The vertex set maps to itself under the symmetries of the square."""
    from scipy.spatial import cKDTree

    p = default_cell.vertices
    tree = cKDTree(p)
    images = {
        "diagonal": p[:, ::-1],
        "xflip": np.column_stack([1.0 - p[:, 0], p[:, 1]]),
        "yflip": np.column_stack([p[:, 0], 1.0 - p[:, 1]]),
        "rot90": np.column_stack([1.0 - p[:, 1], p[:, 0]]),
    }
    for name, q in images.items():
        d, _ = tree.query(q)
        assert d.max() < 1e-12, "vertex set not symmetric under %s" % name
