"""Periodic unit-cell meshing and its scaled tiling over the unit square.

The unit cell Y = [0,1]^2 carries a polygonal solid inclusion (an inscribed
regular polygon of a disk) centered in the cell; the complement is the fluid
phase.  The cell is triangulated once.  Its side tables pair the vertices of
opposite sides, and one fold (:func:`_periodic_rep`) turns such pairs into a
vertex identification.  Applied to the cell itself, the identification makes
Y a torus for the cell problems.  Applied to n x n copies of the cell, with
each face glued to the opposite face of its neighbor, it gives the perforated
domain at scale eps = 1/n.  Shared coordinates come from the representative's
cell by a single owner formula, never from coordinate hashing, so the
stitching is exact.

The fluid annulus between the polygon and the square boundary is meshed with
four transfinite patches (one per square side); the solid disk with
concentric rings whose vertex counts halve toward the center, closed by a
fan.  Diagonals alternate in a union-jack pattern and ring counts stay
multiples of 8, which keeps the whole construction equivariant under the
symmetry group of the square; the discrete effective tensors inherit
isotropy from that.
"""

import logging
import math

import numpy as np

logger = logging.getLogger(__name__)

FLUID = 0
SOLID = 1

PHASE_NAMES = {FLUID: "fluid", SOLID: "solid"}

MIN_ANGLE_DEG = 15.0
_AREA_TOL = 1e-14


class MeshConstructionError(Exception):
    """Raised when mesh construction violates a geometric invariant."""


class DomainError(ValueError):
    """Raised when a cell parameter or the tiling count is out of range."""


class UnitCellSpec:
    """Parameters of the periodic unit cell.

    Parameters
    ----------
    inclusion_radius : float
        Radius r of the disk inscribed by the solid polygon, 0 <= r < 0.5.
        r = 0 means no inclusion (pure fluid cell).
    inclusion_center : pair of float
        Center of the inclusion, default (0.5, 0.5).
    n_interface_segments : int
        Number of edges of the polygonal interface; even, >= 16.
    target_edge_length : float
        Requested mesh size h of the template triangulation.
    """

    def __init__(self, inclusion_radius=0.25, inclusion_center=(0.5, 0.5),
                 n_interface_segments=64, target_edge_length=1.0 / 32.0):
        self.inclusion_radius = float(inclusion_radius)
        self.inclusion_center = (float(inclusion_center[0]), float(inclusion_center[1]))
        self.n_interface_segments = int(n_interface_segments)
        self.target_edge_length = float(target_edge_length)
        self.validate()

    def validate(self):
        r = self.inclusion_radius
        h = self.target_edge_length
        cx, cy = self.inclusion_center
        if not 0.0 <= r < 0.5:
            raise DomainError("inclusion_radius must lie in [0, 0.5), got %g" % r)
        if h <= 0 or h > 0.25:
            raise DomainError("target_edge_length must lie in (0, 0.25], got %g" % h)
        if r > 0:
            margin = min(cx, cy, 1.0 - cx, 1.0 - cy)
            if r + h >= margin:
                raise DomainError(
                    "inclusion not strictly interior: r + h = %g >= %g" % (r + h, margin))
            n = self.n_interface_segments
            if n < 16 or n % 2 != 0:
                raise DomainError(
                    "n_interface_segments must be even and >= 16, got %d" % n)

    def polygon_area(self):
        """Exact area of the inscribed regular polygon."""
        if self.inclusion_radius == 0.0:
            return 0.0
        n = self.n_interface_segments
        return 0.5 * n * self.inclusion_radius ** 2 * math.sin(2.0 * math.pi / n)

    def polygon_perimeter(self):
        """Exact perimeter of the inscribed regular polygon."""
        if self.inclusion_radius == 0.0:
            return 0.0
        n = self.n_interface_segments
        return 2.0 * n * self.inclusion_radius * math.sin(math.pi / n)


class _PhaseMesh:
    """Summary quantities shared by the template cell and the tiled mesh.

    Both carry ``vertices``, ``triangles``, ``tri_phase`` and
    ``interface_edges``.
    """

    _fluid_cache = None

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    def triangle_areas(self):
        v = self.vertices
        t = self.triangles
        d1 = v[t[:, 1]] - v[t[:, 0]]
        d2 = v[t[:, 2]] - v[t[:, 0]]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    @property
    def fluid_area(self):
        areas = self.triangle_areas()
        return float(np.sum(areas[self.tri_phase == FLUID]))

    @property
    def interface_length(self):
        if self.interface_edges.shape[0] == 0:
            return 0.0
        v = self.vertices
        e = self.interface_edges
        return float(np.sum(np.hypot(*(v[e[:, 1]] - v[e[:, 0]]).T)))

    def fluid_submesh(self):
        """Restrict to fluid triangles.

        Returns
        -------
        fluid_vertex_ids : int array, global ids of vertices used by fluid
            triangles (sorted ascending).
        fluid_triangles : (ntf, 3) int array in local (submesh) numbering.
        global_to_local : int array of length n_vertices, -1 off the fluid.
        """
        if self._fluid_cache is None:
            mask = self.tri_phase == FLUID
            tris = self.triangles[mask]
            ids = np.unique(tris)
            g2l = np.full(self.n_vertices, -1, dtype=np.int64)
            g2l[ids] = np.arange(ids.shape[0])
            self._fluid_cache = (ids, g2l[tris], g2l)
        return self._fluid_cache


class TemplateCell(_PhaseMesh):
    """Triangulated unit cell with phase markers and periodic pairing.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
    tri_phase : (nt,) int array of FLUID/SOLID markers
    interface_edges : (ne, 2) int array, edges on the polygon boundary
    boundary_edges : (nb, 2) int array, edges on the cell boundary; they
        all adjoin fluid, since the inclusion lies strictly inside the cell
    side_vertices : dict side -> int array of vertex ids ordered by the
        side coordinate; sides are 'left', 'right', 'bottom', 'top'.  The
        arrays define the periodic pairing left<->right and bottom<->top
        slot by slot.

    The template-level element data of the fine operators
    (``micro._CellOperators``) are kept here once the first tiling's
    ``FineDomain`` builds them.
    """

    _cell_operators = None

    def __init__(self, spec, vertices, triangles, tri_phase, interface_edges,
                 boundary_edges, side_vertices):
        self.spec = spec
        self.vertices = vertices
        self.triangles = triangles
        self.tri_phase = tri_phase
        self.interface_edges = interface_edges
        self.boundary_edges = boundary_edges
        self.side_vertices = side_vertices

    @property
    def porosity(self):
        return self.fluid_area

    def periodic_pairs(self):
        """Vertex index pairs (master, slave) keyed by pairing direction.

        ``pairs["x"]`` matches the left side to the right side and
        ``pairs["y"]`` matches the bottom side to the top side.
        """
        lr = np.column_stack([self.side_vertices["left"], self.side_vertices["right"]])
        bt = np.column_stack([self.side_vertices["bottom"], self.side_vertices["top"]])
        return {"x": lr, "y": bt}


class PerforatedMesh(_PhaseMesh):
    """The template cell tiled n x n over the unit square, eps = 1/n.

    Vertices shared by cell faces are identified through the template's
    periodic pairs and get their coordinates from one owner cell, so the
    tiling is exact: no tolerance-based stitching.

    ``index``, shape (n^2, nv_template), is the map of the tiling:
    index[c, v] is the vertex of template vertex v in cell c = b*n + a
    (column a, row b).  The triangles are index[:, template.triangles] and
    the interface edges index[:, template.interface_edges], cell by cell,
    so every fine operator is its template operator summed through this
    map.
    """

    def __init__(self, template, n, index, vertices, triangles, tri_phase,
                 interface_edges, boundary_edges):
        self.template = template
        self.n = int(n)
        self.epsilon = 1.0 / float(n)
        self.index = index
        self.vertices = vertices
        self.triangles = triangles
        self.tri_phase = tri_phase
        self.interface_edges = interface_edges
        self.boundary_edges = boundary_edges


def build_template_cell(spec):
    """Build the triangulated unit cell for a :class:`UnitCellSpec`.

    Returns a validated :class:`TemplateCell`.  Raises
    :class:`MeshConstructionError` when the construction produces degenerate
    or low-quality triangles.
    """
    if spec.inclusion_radius == 0.0:
        cell = _build_square_cell(spec)
    else:
        cell = _build_perforated_cell(spec)
    _validate_template(cell)
    logger.info("template cell: %d vertices, %d triangles, porosity %.6f",
                cell.n_vertices, cell.n_triangles, cell.porosity)
    return cell


def _grid_counts(spec):
    """Side subdivision count and angular loop count, tied together.

    The loop around the annulus uses m = n_interface_segments * sub points
    (each polygon segment subdivided into `sub` colinear mesh edges), and the
    square boundary uses m/4 intervals per side, so the transfinite patches
    are logically rectangular.  m is forced to a multiple of 8 to keep the
    union-jack pattern equivariant under quarter turns.
    """
    nseg = spec.n_interface_segments
    target_side = max(4, int(round(1.0 / spec.target_edge_length)))
    sub = max(1, int(round(4.0 * target_side / nseg)))
    while (nseg * sub) % 8 != 0:
        sub += 1
    m = nseg * sub
    return m // 4, sub, m


def _build_square_cell(spec):
    """Uniform union-jack grid for the r = 0 (no inclusion) case."""
    n = max(4, int(round(1.0 / spec.target_edge_length)))
    n += n % 2
    # vertex id (i, j) -> i*(n+1) + j, coordinates (i/n, j/n)
    i_idx = np.repeat(np.arange(n + 1), n + 1)
    j_idx = np.tile(np.arange(n + 1), n + 1)
    verts = np.column_stack([i_idx / float(n), j_idx / float(n)])

    def vid(i, j):
        return i * (n + 1) + j

    tris = []
    for j in range(n):
        for i in range(n):
            a = vid(i, j)
            b = vid(i + 1, j)
            c = vid(i + 1, j + 1)
            d = vid(i, j + 1)
            if (i + j) % 2 == 0:
                tris.append((a, b, c))
                tris.append((a, c, d))
            else:
                tris.append((b, c, d))
                tris.append((b, d, a))
    tris = np.array(tris, dtype=np.int64)
    phase = np.zeros(tris.shape[0], dtype=np.int64)

    bedges = []
    for j in range(n):
        bedges.append((vid(0, j), vid(0, j + 1)))
        bedges.append((vid(n, j), vid(n, j + 1)))
    for i in range(n):
        bedges.append((vid(i, 0), vid(i + 1, 0)))
        bedges.append((vid(i, n), vid(i + 1, n)))
    bedges = np.array(bedges, dtype=np.int64)

    iface = np.zeros((0, 2), dtype=np.int64)
    return TemplateCell(spec, verts, tris, phase, iface, bedges,
                        _side_vertices(verts, bedges))


def _side_vertices(vertices, boundary_edges):
    """Boundary vertices on each side of the square, sorted along it."""
    ids = np.unique(boundary_edges)
    x, y = vertices[ids].T
    sides = {}
    for name, on, along in (("left", x == 0.0, y), ("right", x == 1.0, y),
                            ("bottom", y == 0.0, x), ("top", y == 1.0, x)):
        sides[name] = ids[on][np.argsort(along[on])]
    return sides


def _polygon_loop(spec, m, sub):
    """Loop of m points along the polygonal interface, CCW from angle 0."""
    nseg = spec.n_interface_segments
    cx, cy = spec.inclusion_center
    r = spec.inclusion_radius
    ang = 2.0 * math.pi * np.arange(nseg) / nseg
    corners = np.column_stack([cx + r * np.cos(ang), cy + r * np.sin(ang)])
    pts = np.empty((m, 2))
    for q in range(nseg):
        p0 = corners[q]
        p1 = corners[(q + 1) % nseg]
        for s in range(sub):
            t = s / float(sub)
            pts[q * sub + s] = (1.0 - t) * p0 + t * p1
    return pts


def _boundary_loop(n_side, m):
    """Loop of m = 4*n_side points along the square boundary.

    Ordered CCW by angle seen from the cell center, starting at the middle of
    the right side so that loop index a corresponds to angle 2*pi*a/m.  All
    coordinates are of the exact form j/n_side.
    """
    pts = np.empty((m, 2))
    half = n_side // 2
    for a in range(m):
        # patch p covers loop indices [p*n_side - half, (p+1)*n_side - half)
        p = ((a + half) // n_side) % 4
        k = (a + half) % n_side  # offset from the patch's starting corner
        if p == 0:      # right side, from (1,0) to (1,1)
            j = k
            pts[a] = (1.0, j / float(n_side))
        elif p == 1:    # top side, from (1,1) to (0,1)
            j = n_side - k
            pts[a] = (j / float(n_side), 1.0)
        elif p == 2:    # left side, from (0,1) to (0,0)
            j = n_side - k
            pts[a] = (0.0, j / float(n_side))
        else:           # bottom side, from (0,0) to (1,0)
            j = k
            pts[a] = (j / float(n_side), 0.0)
    return pts


def _solid_rings(r, m, h):
    """Radii and vertex counts of the solid rings, outermost first."""
    rings = [(r, m)]
    cur_r, cur_m = r, m
    while True:
        spacing = 2.0 * math.pi * cur_r / cur_m
        step = min(h, 1.5 * spacing)
        nxt = cur_r - step
        if nxt <= 0.6 * step or (cur_m == 8 and cur_r <= 1.8 * h):
            break
        nm = cur_m
        if nm > 8 and 2.0 * math.pi * nxt / nm < 0.55 * h:
            nm //= 2
        rings.append((nxt, nm))
        cur_r, cur_m = nxt, nm
    return rings


def _quad_rows(tris, inner, outer, row_parity):
    """Union-jack triangulation between two loops of equal length.

    Quad corners in CCW order are (inner[a], outer[a], outer[b], inner[b]);
    the diagonal alternates with ``a`` so the pattern is symmetric under
    the dihedral symmetries of the loop.
    """
    m = len(inner)
    for a in range(m):
        b = (a + 1) % m
        va, vb = inner[a], outer[a]
        vc, vd = outer[b], inner[b]
        if (a + row_parity) % 2 == 0:
            tris.append((va, vb, vc))
            tris.append((va, vc, vd))
        else:
            tris.append((va, vb, vd))
            tris.append((vb, vc, vd))


def _triforce_row(tris, coarse, fine):
    """2:1 transition between a coarse inner loop and a fine outer loop."""
    mc = len(coarse)
    if len(fine) != 2 * mc:
        raise MeshConstructionError("triforce row needs a 2:1 count ratio")
    for j in range(mc):
        c0 = coarse[j]
        c1 = coarse[(j + 1) % mc]
        f0 = fine[2 * j]
        f1 = fine[2 * j + 1]
        f2 = fine[(2 * j + 2) % (2 * mc)]
        tris.append((c0, f0, f1))
        tris.append((c0, f1, c1))
        tris.append((c1, f1, f2))
    return tris


def _graded_fractions(span, w_in, w_out, h):
    """Radial row positions in [0, 1] for the polygon-to-boundary blend.

    The local radial step tracks min(1.25 h, 1.45 w(u)) where w(u) is the
    angular spacing interpolated between the polygon spacing ``w_in`` and
    the boundary spacing ``w_out``.  The same fractions are used on every
    spoke, which preserves the dihedral symmetry of the ring pattern.
    """
    u = np.linspace(0.0, 1.0, 4097)
    w = (1.0 - u) * w_in + u * w_out
    dens = 1.0 / np.minimum(1.25 * h, 1.45 * w)
    du = u[1] - u[0]
    cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * du)])
    n_f = max(4, int(math.ceil(cum[-1] * span)))
    targets = np.linspace(0.0, cum[-1], n_f + 1)
    fr = np.interp(targets, cum, u)
    fr[0] = 0.0
    fr[-1] = 1.0
    return fr


def _build_perforated_cell(spec):
    n_side, sub, m = _grid_counts(spec)
    r = spec.inclusion_radius
    h = spec.target_edge_length
    cx, cy = spec.inclusion_center

    poly = _polygon_loop(spec, m, sub)
    bnd = _boundary_loop(n_side, m)

    verts = [np.array([[cx, cy]])]
    next_id = 1
    center_id = 0

    rings = _solid_rings(r, m, h)  # outermost (the polygon) first
    ring_ids = []
    cxy = np.array([cx, cy])
    for radius, count in reversed(rings[1:]):
        ang = 2.0 * math.pi * np.arange(count) / count
        pts = cxy + radius * np.column_stack([np.cos(ang), np.sin(ang)])
        verts.append(pts)
        ring_ids.append(np.arange(next_id, next_id + count))
        next_id += count
    poly_ids = np.arange(next_id, next_id + m)
    verts.append(poly)
    next_id += m
    ring_ids.append(poly_ids)

    solid_tris = []
    if len(ring_ids) >= 1:
        inner0 = ring_ids[0]
        for j in range(len(inner0)):
            solid_tris.append((center_id, inner0[j], inner0[(j + 1) % len(inner0)]))
    for k in range(len(ring_ids) - 1):
        inner, outer = ring_ids[k], ring_ids[k + 1]
        if len(outer) == len(inner):
            _quad_rows(solid_tris, inner, outer, row_parity=k % 2)
        else:
            _triforce_row(solid_tris, inner, outer)

    # fluid rings: radial blend polygon -> square boundary, all m points.
    # Row thickness is graded so quads keep a bounded aspect ratio: near
    # the polygon the angular spacing is the polygon spacing, near the
    # square boundary it is the (coarser) boundary spacing.
    corner_dist = math.hypot(max(cx, 1 - cx), max(cy, 1 - cy))
    span = corner_dist - r
    w_in = spec.polygon_perimeter() / m
    w_out = 4.0 / m
    fractions = _graded_fractions(span, w_in, w_out, h)
    n_f = len(fractions) - 1
    fluid_ring_ids = [poly_ids]
    for i in range(1, n_f):
        t = fractions[i]
        pts = poly + t * (bnd - poly)
        verts.append(pts)
        fluid_ring_ids.append(np.arange(next_id, next_id + m))
        next_id += m
    bnd_ids = np.arange(next_id, next_id + m)
    verts.append(bnd)
    next_id += m
    fluid_ring_ids.append(bnd_ids)

    fluid_tris = []
    for i in range(n_f):
        _quad_rows(fluid_tris, fluid_ring_ids[i], fluid_ring_ids[i + 1], row_parity=i % 2)

    vertices = np.vstack(verts)
    solid_tris = np.array(solid_tris, dtype=np.int64)
    fluid_tris = np.array(fluid_tris, dtype=np.int64)
    triangles = np.vstack([solid_tris, fluid_tris])
    tri_phase = np.concatenate([
        np.full(solid_tris.shape[0], SOLID, dtype=np.int64),
        np.full(fluid_tris.shape[0], FLUID, dtype=np.int64),
    ])

    iface = np.column_stack([poly_ids, np.roll(poly_ids, -1)])

    bedges = np.column_stack([bnd_ids, np.roll(bnd_ids, -1)])

    return TemplateCell(spec, vertices, triangles, tri_phase, iface,
                        bedges, _side_vertices(vertices, bedges))


def _tri_min_angles(vertices, triangles):
    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    a = np.linalg.norm(p1 - p2, axis=1)
    b = np.linalg.norm(p0 - p2, axis=1)
    c = np.linalg.norm(p0 - p1, axis=1)
    angles = np.empty((triangles.shape[0], 3))
    for i, (u, v, w) in enumerate(((a, b, c), (b, a, c), (c, a, b))):
        cosang = (v ** 2 + w ** 2 - u ** 2) / (2.0 * v * w)
        angles[:, i] = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return angles.min(axis=1)


def _validate_template(cell):
    areas = cell.triangle_areas()
    if np.any(areas <= _AREA_TOL):
        bad = int(np.argmax(areas <= _AREA_TOL))
        raise MeshConstructionError(
            "degenerate triangle %d (area %.3e) in %s region"
            % (bad, areas[bad], PHASE_NAMES[int(cell.tri_phase[bad])]))
    total = math.fsum(areas.tolist())
    if abs(total - 1.0) > 1e-12:
        raise MeshConstructionError("cell areas sum to %.17g, expected 1" % total)
    min_angle = _tri_min_angles(cell.vertices, cell.triangles)
    worst = int(np.argmin(min_angle))
    if min_angle[worst] < MIN_ANGLE_DEG:
        raise MeshConstructionError(
            "triangle %d in %s region has min angle %.2f deg < %.1f"
            % (worst, PHASE_NAMES[int(cell.tri_phase[worst])],
               min_angle[worst], MIN_ANGLE_DEG))
    # every interface edge must separate one fluid and one solid triangle;
    # an edge is keyed by its sorted vertex pair
    t = cell.triangles
    tri_keys = np.sort(np.stack([t, np.roll(t, -1, axis=1)], axis=2),
                       axis=2) @ [cell.n_vertices, 1]
    keys = np.sort(cell.interface_edges, axis=1) @ [cell.n_vertices, 1]

    def uses(phase):
        k = np.sort(tri_keys[cell.tri_phase == phase], axis=None)
        return np.searchsorted(k, keys, "right") - np.searchsorted(k, keys)

    bad = (uses(FLUID) != 1) | (uses(SOLID) != 1)
    if bad.any():
        raise MeshConstructionError(
            "interface edge %s not shared by one fluid and one solid triangle"
            % (tuple(np.sort(cell.interface_edges[np.argmax(bad)]).tolist()),))
    for name_a, name_b in (("left", "right"), ("bottom", "top")):
        ids_a = cell.side_vertices[name_a]
        ids_b = cell.side_vertices[name_b]
        if ids_a.shape != ids_b.shape or np.unique(ids_a).shape != ids_a.shape:
            raise MeshConstructionError("periodic pairing %s<->%s is not a bijection"
                                        % (name_a, name_b))
        fixed = 0 if name_a == "left" else 1
        moving = 1 - fixed
        ca = cell.vertices[ids_a]
        cb = cell.vertices[ids_b]
        if (np.max(np.abs(ca[:, moving] - cb[:, moving])) > 1e-12
                or np.max(np.abs(ca[:, fixed])) > 1e-12
                or np.max(np.abs(cb[:, fixed] - 1.0)) > 1e-12):
            raise MeshConstructionError("periodic pairing %s<->%s mismatched coordinates"
                                        % (name_a, name_b))


def _periodic_rep(nv, pair_arrays):
    """Representative map for periodic identification.

    pair_arrays is an iterable of (m, 2) arrays whose rows are
    (master, slave) vertex ids.  Chains (a corner is slave of a slave)
    are resolved to fixpoint.
    """
    rep = np.arange(nv)
    for pairs in pair_arrays:
        rep[pairs[:, 1]] = pairs[:, 0]
    while True:
        folded = rep[rep]
        if np.array_equal(folded, rep):
            return rep
        rep = folded


def tile_domain(cell, n):
    """Tile the template cell n x n into the perforated unit square.

    The perforated domain is the union of the translates of the cell,
    glued along their faces by the identification of opposite sides that
    makes the cell a torus for the cell problems.  Copy v of cell
    c = b*n + a (column a, row b) starts as vertex c*nv + v.  The template's
    x pairs glue each cell's right side to the left side of cell c+1, its y
    pairs glue the top side to the bottom side of cell c+n; faces on the
    border of the square stay free.  :func:`_periodic_rep` folds the chains,
    so the four copies of a lattice corner become one vertex, and the
    representatives in ascending order are the global vertices.  Their
    coordinates (a + x, b + y)/n come from the representative's cell, so
    vertices shared between neighboring cells coincide bitwise.
    Triangles and edges keep the template order, cell by cell, and the
    mesh keeps the map of each cell's vertices (``PerforatedMesh.index``).

    Parameters
    ----------
    cell : TemplateCell
    n : int
        Number of cells per direction; eps = 1/n.
    """
    n = int(n)
    if n < 1:
        raise DomainError("n must be >= 1")
    nv = cell.n_vertices
    cells = np.arange(n * n)
    col, row = cells % n, cells // n
    pairs = cell.periodic_pairs()
    glue = []
    for (master, slave), step, inner in ((pairs["x"].T, 1, col < n - 1),
                                         (pairs["y"].T, n, row < n - 1)):
        c = cells[inner][:, None]
        glue.append(np.column_stack([((c + step) * nv + master).ravel(),
                                     (c * nv + slave).ravel()]))
    reps, index = np.unique(_periodic_rep(n * n * nv, glue), return_inverse=True)
    index = index.reshape(n * n, nv)
    owner, local = np.divmod(reps, nv)
    vertices = (np.column_stack([owner % n, owner // n])
                + cell.vertices[local]) * (1.0 / n)

    ex, ey = cell.vertices[cell.boundary_edges].transpose(2, 0, 1)
    border = ((col[:, None] == 0) & (ex == 0.0).all(axis=1)
              | (col[:, None] == n - 1) & (ex == 1.0).all(axis=1)
              | (row[:, None] == 0) & (ey == 0.0).all(axis=1)
              | (row[:, None] == n - 1) & (ey == 1.0).all(axis=1))
    mesh = PerforatedMesh(
        cell, n, index, vertices,
        index[:, cell.triangles].reshape(-1, 3),
        np.tile(cell.tri_phase, n * n),
        index[:, cell.interface_edges].reshape(-1, 2),
        index[:, cell.boundary_edges][border])
    _validate_tiling(mesh)
    logger.info("tiled mesh n=%d: %d vertices, %d triangles", n,
                mesh.n_vertices, mesh.n_triangles)
    return mesh


def _validate_tiling(mesh):
    areas = mesh.triangle_areas()
    if np.any(areas <= 0.0):
        raise MeshConstructionError("tiling produced a non-positive triangle area; "
                                    "vertex stitching mismatch")
    total = math.fsum(areas.tolist())
    if abs(total - 1.0) > 1e-11:
        raise MeshConstructionError("tiled areas sum to %.17g, expected 1" % total)
    expected_fluid = mesh.template.fluid_area
    if abs(mesh.fluid_area - expected_fluid) > 1e-11:
        raise MeshConstructionError("tiled fluid area %.17g != template porosity %.17g"
                                    % (mesh.fluid_area, expected_fluid))


def dump_mesh(obj, path):
    """Write a mesh (TemplateCell or PerforatedMesh) as plain text.

    One record per line: ``v x y``, ``t i j k phase``, ``ei i j``,
    ``eb i j fext`` (every boundary edge adjoins fluid); 0-based indices,
    floats with 17 significant digits.
    """
    lines = []
    for p in obj.vertices:
        lines.append("v %.17g %.17g" % (p[0], p[1]))
    for tri, ph in zip(obj.triangles, obj.tri_phase):
        lines.append("t %d %d %d %s" % (tri[0], tri[1], tri[2], PHASE_NAMES[int(ph)]))
    for e in obj.interface_edges:
        lines.append("ei %d %d" % (e[0], e[1]))
    for e in obj.boundary_edges:
        lines.append("eb %d %d fext" % (e[0], e[1]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
