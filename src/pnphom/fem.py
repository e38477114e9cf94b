"""Sparse P1 finite-element kernels shared by every solver in the package.

The edge-midpoint triangle rule, in the per-triangle integrals of a
phase-split density, and the Gauss-Legendre edge rules; the P1 element
stiffness matrices, from such integrals or from tensor values per
triangle, and element mass matrices, and interface-trace loads; the fixed
CSR pattern of a mesh, with the slot map through which one ``np.bincount``
sums element matrices into its data (the one way the package turns
element matrices into a sparse matrix), and with its drift operator, whose
product with a potential is the data of the drift matrix, built from the
triangles or as the tiling of the pattern of the mesh that a tiling
repeats, and the upwind Laplacian on it; the sparse LU and the
bordered LU of a problem whose kernel is the constants; CG through
``scipy.sparse.linalg`` with an iteration count; and a damped Newton
iteration for the nonlinear interface term.
"""

import functools
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class AssemblyError(RuntimeError):
    """Raised when a mesh entity is unusable for assembly."""


class ConvergenceFailure(RuntimeError):
    """Raised when an iterative solver exhausts its iteration budget.

    Attributes
    ----------
    residual : float
        Relative residual at the final iterate.
    iterations : int
    x : array
        The final (non-converged) iterate, for diagnostics.
    """

    def __init__(self, message, residual, iterations, x=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.x = x


class SolveResult:
    """Outcome of a converged iterative solve."""

    def __init__(self, x, iterations, residual):
        self.x = x
        self.iterations = iterations
        self.residual = residual

    def __repr__(self):
        return "SolveResult(iters=%d, residual=%.3e)" % (
            self.iterations, self.residual)


# ---------------------------------------------------------------------------
# geometry helpers


def tri_geometry(vertices, triangles):
    """Areas and P1 basis gradients of a triangle batch.

    Returns
    -------
    areas : (nt,) array of positive areas
    grads : (nt, 3, 2) array; grads[t, i] is the constant gradient of the
        hat function of local vertex i on triangle t.
    """
    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    d1 = p1 - p0
    d2 = p2 - p0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    areas = 0.5 * det
    if areas.size and areas.min() < 1e-14:
        bad = int(np.argmin(areas))
        raise AssemblyError(
            "degenerate triangle %d with signed area %.3e" % (bad, areas[bad]))
    inv = 1.0 / det
    grads = np.empty((triangles.shape[0], 3, 2))
    grads[:, 0, 0] = (p1[:, 1] - p2[:, 1]) * inv
    grads[:, 0, 1] = (p2[:, 0] - p1[:, 0]) * inv
    grads[:, 1, 0] = (p2[:, 1] - p0[:, 1]) * inv
    grads[:, 1, 1] = (p0[:, 0] - p2[:, 0]) * inv
    grads[:, 2, 0] = (p0[:, 1] - p1[:, 1]) * inv
    grads[:, 2, 1] = (p1[:, 0] - p0[:, 0]) * inv
    return areas, grads


# ---------------------------------------------------------------------------
# assembly


def phase_integrals(vertices, triangles, tri_phase, densities):
    """Per-triangle integrals of a phase-split density, shape (nt,).

    Triangle t integrates densities[tri_phase[t]], a callable(points (m,2))
    -> (m,) values, by the midpoint rule: the three edge midpoints with
    weight area/3 each, exact for quadratics.  These integrals are the
    coefficient of :func:`element_stiffness`.
    """
    triangles = np.asarray(triangles)
    tri_phase = np.asarray(tri_phase)
    if not np.isin(tri_phase, np.arange(len(densities))).all():
        raise AssemblyError("a triangle phase has no density")
    areas = tri_geometry(vertices, triangles)[0]
    # midpoints of the edges (0,1), (1,2), (2,0), formed in place
    pts = vertices[triangles]
    pts += np.roll(pts, -1, axis=1)
    pts *= 0.5
    # one weight per point, so each integral sums three weighted values
    wts = np.repeat(((2.0 * areas) * (1.0 / 6.0))[:, None], 3, axis=1)
    csum = np.empty(triangles.shape[0])
    for phase, density in enumerate(densities):
        mask = tri_phase == phase
        if not mask.any():
            continue
        vals = np.asarray(density(pts[mask].reshape(-1, 2)), dtype=float)
        csum[mask] = np.einsum("tq,tq->t", wts[mask], vals.reshape(-1, 3))
    return csum


def element_stiffness(areas, grads, coefficient):
    """P1 element stiffness matrices of -div(a grad u), shape (nt, 3, 3).

    areas, grads : the triangles' :func:`tri_geometry`
    coefficient : (nt,) array, (nt, 2, 2) array or (2, 2) array.  An (nt,)
        array holds the integral of a scalar a over each triangle, as
        :func:`phase_integrals` returns it (the areas for a = 1).  An
        (nt, 2, 2) array holds a symmetric tensor a per triangle, and a
        (2, 2) array a constant one.  A tensor that is not symmetric raises
        AssemblyError.

    Summed through the slot map of :func:`element_slots`, they give a
    symmetric positive semidefinite matrix with the constants in its
    kernel.
    """
    nt = areas.shape[0]
    coef = np.asarray(coefficient, dtype=float)
    if coef.ndim == 1:
        if coef.shape != (nt,):
            raise AssemblyError("coefficient has %d triangle integrals for "
                                "%d triangles" % (coef.shape[0], nt))
        # (int_T a) grad_i . grad_j
        return np.einsum("tid,tjd->tij", grads, grads) * coef[:, None, None]
    if coef.shape not in ((2, 2), (nt, 2, 2)):
        raise AssemblyError("tensor shape must be (2, 2) or (nt, 2, 2)")
    coef = np.broadcast_to(coef, (nt, 2, 2))
    skew = np.abs(coef - coef.transpose(0, 2, 1)).max()
    if skew > 1e-12:
        raise AssemblyError(
            "tensor coefficient is not symmetric: |a - a^T| = %.3e" % skew)
    # grad_i . a grad_j, the four (d, e) terms summed in the order of
    # einsum("tid,tde,tje->tij"), which numpy runs unoptimized
    terms = [grads[:, :, None, d] * coef[:, None, None, d, e]
             * grads[:, None, :, e] for d in range(2) for e in range(2)]
    return (terms[0] + terms[1] + terms[2] + terms[3]) * areas[:, None, None]


def element_mass(areas):
    """P1 element mass matrices, shape (nt, 3, 3); their entries sum to the
    total area exactly."""
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return base[None] * areas[:, None, None]


def tri_gradient(vertices, triangles, values):
    """Piecewise-constant gradient of a P1 field, shape (nt, 2)."""
    _, grads = tri_geometry(vertices, triangles)
    return np.einsum("tid,ti->td", grads, values[np.asarray(triangles)])


def element_slots(triangles, n):
    """The P1 pattern of a triangle set on n vertices.

    Returns the sorted keys row * n + col of every vertex pair sharing a
    triangle, and the slot among them of each of the 9 nt element entries
    (t, i, j), in that order.  The pattern comes from the triangles, not
    from an assembled matrix: a stiffness matrix on right-angle triangles
    has structural zeros that a drift matrix fills.
    """
    triangles = np.asarray(triangles)
    if triangles.shape[0] == 0:
        raise AssemblyError("empty region")
    rows = np.repeat(triangles, 3, axis=1).ravel().astype(np.int64)
    cols = np.tile(triangles, (1, 3)).ravel().astype(np.int64)
    keys, slots = np.unique(rows * n + cols, return_inverse=True)
    return keys, slots.ravel()


class MeshPattern:
    """Fixed CSR pattern of the P1 vertex graph of a triangle mesh, and the
    drift operator on it.

    keys : sorted keys row * n + col of the pattern's entries, as
        :func:`element_slots` gives them; they make the CSR
        ``indices``/``indptr``
    drift : None, or the drift operator, the sparse (nnz, n) matrix T whose
        product T @ phi is the data of the drift matrix on the pattern

    :func:`mesh_pattern` builds the pattern of a mesh from its triangles;
    :meth:`tiled` builds the pattern of a tiling from the pattern of the
    mesh that it repeats.
    """

    def __init__(self, keys, n, drift=None):
        self.n = n
        rows, cols = np.divmod(keys, n)
        self.nnz = keys.shape[0]
        self.indices = cols.astype(np.int32)
        self.indptr = np.searchsorted(rows, np.arange(n + 1)).astype(
            np.int32)
        self.drift = drift

    # the row of each slot, the slot of its transpose and the diagonal
    # slots are built on first use: only a tiling and the upwind stabilizer
    # read them
    @functools.cached_property
    def rows(self):
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    @functools.cached_property
    def transpose_slots(self):
        return np.searchsorted(self.rows * self.n + self.indices,
                               self.indices * np.int64(self.n) + self.rows)

    @functools.cached_property
    def diagonal_slots(self):
        return np.flatnonzero(self.rows == self.indices)

    def tiled(self, index):
        """The pattern of a tiling of this pattern's mesh, and its slot map.

        index : (m, n) int array; index[c, v] is the vertex of the tiling
            that vertex v of copy c becomes

        Returns (pattern, slots).  slots[c, k] is the slot of the tiling's
        pattern that slot k of copy c adds to, so data on this pattern
        tiles to ``np.bincount(slots.ravel(), np.tile(data, m))``: the
        matrix of the tiling when its element integrals are the same on
        every copy, as a P1 stiffness's are on similar copies.  The drift
        operator tiles along, its rows through slots and its columns
        through index.
        """
        index = np.asarray(index, dtype=np.int64)
        m, nv = index.shape[0], int(index.max()) + 1
        # the keys of every copy's entries, one unique over m nnz keys
        keys, slots = np.unique(index[:, self.rows] * nv
                                + index[:, self.indices], return_inverse=True)
        slots = slots.reshape(m, self.nnz).astype(np.int32)
        drift = None
        if self.drift is not None:
            # one COO triplet per entry of every copy; tocsr sums the
            # duplicates into a canonical CSR matrix
            t = self.drift
            rows = np.repeat(slots, np.diff(t.indptr), axis=1)
            cols = np.take(index.astype(np.int32), t.indices, axis=1)
            drift = sp.coo_matrix((np.tile(t.data, m),
                                   (rows.ravel(), cols.ravel())),
                                  shape=(keys.shape[0], nv)).tocsr()
        return MeshPattern(keys, nv, drift), slots

    def matrix(self, data):
        """CSR matrix with the given data on this pattern (no copy)."""
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=(self.n, self.n))

    def assembled(self, data):
        """Canonical CSR matrix with the given data on a copy of this
        pattern, entries summing to zero dropped, so the LU orderings never
        see them.

        Element matrices ``local`` (nt, 3, 3) on the pattern's triangles
        sum to its data as ``np.bincount(slots, local.ravel())``, with the
        slot map of :func:`element_slots`.
        """
        csr = sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()),
                            shape=(self.n, self.n))
        csr.eliminate_zeros()
        return csr

    def upwind_laplacian(self, data):
        """Artificial-diffusion stabilizer of a drift matrix on the pattern.

        Returns the data of the graph Laplacian with off-diagonal entries
        -max(0, K_ij, K_ji), so K + L has nonpositive off-diagonal transport
        couplings.  L is symmetric with zero row sums, so its column sums
        vanish too and adding it preserves conservation.
        """
        off = np.maximum(np.maximum(data, data[self.transpose_slots]), 0.0)
        off[self.diagonal_slots] = 0.0
        lap = -off
        lap[self.diagonal_slots] = np.bincount(self.rows, weights=off,
                                               minlength=self.n)
        return lap


def mesh_pattern(vertices, triangles, drift_map):
    """The MeshPattern of a triangle mesh, and the slot of each element
    entry (:func:`element_slots`).

    Its drift operator T is that of the velocity v = B grad(phi), with
    B = drift_map (a (2, 2) tensor, or None for the identity).
    """
    triangles = np.asarray(triangles)
    n = vertices.shape[0]
    keys, slots = element_slots(triangles, n)
    # K_local[t, i, j] = int_T hat_j (v . grad hat_i) = (area/3) g_i . v,
    # the same for every j, with v = sum_k phi_k B g_k.  So T = S C: row
    # (t, i) of C holds (area/3) g_i^T B g_k at column triangles[t, k],
    # and S sums row (t, i) onto the slots of (t, i, j) for each j
    areas, grads = tri_geometry(vertices, triangles)
    bgrads = grads if drift_map is None else grads @ np.asarray(
        drift_map, dtype=float).T
    local = (np.einsum("tid,tkd->tik", grads, bgrads)
             * (areas / 3.0)[:, None, None])
    nt = triangles.shape[0]
    triples = np.arange(0, 9 * nt + 1, 3, dtype=np.int32)
    C = sp.csr_matrix((local.ravel(), np.tile(triangles, (1, 3)).ravel()
                       .astype(np.int32), triples), shape=(3 * nt, n))
    S = sp.csr_matrix((np.ones(9 * nt), slots.astype(np.int32), triples),
                      shape=(3 * nt, keys.shape[0])).T.tocsr()
    drift = S @ C
    drift.sort_indices()
    return MeshPattern(keys, n, drift), slots


def assemble_drift(pattern, potential):
    """The data of the P1 drift matrix K_ij = int hat_j (v . grad hat_i) dx
    on ``pattern`` (a MeshPattern), of the velocity v = B grad(potential),
    B the pattern's drift map.

    One product with the pattern's drift operator; potential holds one
    value per vertex of the pattern, and ``pattern.matrix`` makes the
    matrix.  The local matrix has identical columns, so every column of K
    sums to zero up to rounding: adding K to a diffusion operator never
    changes the total mass of the transported species.
    """
    potential = np.asarray(potential, dtype=float)
    if potential.shape != (pattern.n,):
        raise AssemblyError("potential must have one value per vertex")
    return pattern.drift @ potential


def assemble_interface_load(vertices, edges, density):
    """Integrate a density against P1 traces on a set of edges.

    Returns the vector b with b_i = sum over edges of
    int_edge density * hat_i dS, by 4-point Gauss along each edge.  With
    density = 1 the entries sum to the total edge length.

    Parameters
    ----------
    density : callable(points (m,2)) -> (m,) values
    """
    edges = np.asarray(edges)
    if edges.shape[0] == 0:
        return np.zeros(vertices.shape[0])
    pts, wts = edge_quadrature_points(vertices, edges, 4)
    lengths = wts.sum(axis=1)
    if lengths.min() < 1e-15:
        bad = int(np.argmin(lengths))
        raise AssemblyError("zero-length edge %d" % bad)
    t, _ = _unit_gauss(4)
    w = np.asarray(density(pts.reshape(-1, 2)), dtype=float).reshape(
        wts.shape) * wts
    # the first endpoints' shares, then the second endpoints'
    return np.bincount(edges.T.ravel(), np.concatenate(
        [(w * (1.0 - t)).sum(axis=1), (w * t).sum(axis=1)]),
        minlength=vertices.shape[0])


def _unit_gauss(order):
    """Gauss-Legendre nodes and weights of the given order on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def edge_quadrature_points(vertices, edges, order):
    """Gauss-Legendre points and weights of the given order along a set of
    edges, exact for polynomials of degree 2 order - 1 on each edge.

    Returns
    -------
    pts : (ne, order, 2)
    wts : (ne, order), summing to the total length.
    """
    edges = np.asarray(edges)
    p0 = vertices[edges[:, 0]]
    p1 = vertices[edges[:, 1]]
    lengths = np.linalg.norm(p1 - p0, axis=1)
    t, w = _unit_gauss(order)
    pts = p0[:, None, :] * (1.0 - t)[None, :, None] + p1[:, None, :] * t[None, :, None]
    wts = lengths[:, None] * w[None, :]
    return pts, wts


# ---------------------------------------------------------------------------
# solvers


def _splu(matrix):
    """Sparse LU of a structurally symmetric matrix.

    Every matrix the package factors (species, Poisson and Newton operators,
    bordered cell matrices) is symmetric, so the columns are ordered by
    minimum degree on A + A^T rather than by SuperLU's default COLAMD, which
    targets A^T A; that halves the fill of the factors.
    """
    return spla.splu(sp.csc_matrix(matrix), permc_spec="MMD_AT_PLUS_A")


def _bordered_solver(A, border):
    """Solver of A u = b subject to border . u = 0, for a symmetric A whose
    kernel is the constants.

    One LU of the bordered (Lagrange-multiplier) matrix
    [[A, border], [border^T, 0]], which is nonsingular when border is not
    orthogonal to the constants; each solve is one back-substitution.  The
    multiplier lambda = sum(b) / sum(border) takes up the part of b outside
    the range of A: u solves A u = b - lambda border.
    """
    # from coordinates: sp.bmat's bookkeeping outweighs a small cell's LU
    n = A.shape[0]
    coo = A.tocoo()
    ids, last = np.arange(n), np.full(n, n)
    lu = _splu(sp.csc_matrix(
        (np.concatenate([coo.data, border, border]),
         (np.concatenate([coo.row, ids, last]),
          np.concatenate([coo.col, last, ids]))), shape=(n + 1, n + 1)))

    def solve(b):
        return lu.solve(np.concatenate([b, [0.0]]))[:-1]

    return solve


def cg_solve(A, b, tol=1e-11, max_iter=None, precond=None):
    """Conjugate gradients (scipy's ``cg``) for symmetric positive definite
    systems.

    ``precond`` is an optional symmetric positive preconditioner, a callable
    r -> z, applied through an operator that counts its calls, one per
    iteration.

    Returns a SolveResult whose residual is the true ||b - A x|| / ||b||;
    a solve that does not reach ``tol`` raises ConvergenceFailure.
    """
    n = A.shape[0]
    b = np.asarray(b, dtype=float)
    if max_iter is None:
        max_iter = max(1000, 10 * n)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return SolveResult(np.zeros(n), 0, 0.0)
    calls = 0

    def apply_precond(r):
        nonlocal calls
        calls += 1
        return r if precond is None else precond(r)

    M = spla.LinearOperator(A.shape, matvec=apply_precond, dtype=float)
    # a singular system can divide by zero; the residual below reports it
    with np.errstate(divide="ignore", invalid="ignore"):
        x, info = spla.cg(A, b, rtol=tol, atol=0.0, maxiter=max_iter, M=M)
        res = float(np.linalg.norm(b - A @ x)) / bnorm
    if not math.isfinite(res):
        res = math.inf
    # scipy's breakdown thresholds are absolute, so an early exit (info < 0)
    # is judged by its true residual
    if info != 0 and res > tol:
        raise ConvergenceFailure(
            "cg failed: residual %.3e after %d iterations" % (res, calls),
            res, calls, x)
    return SolveResult(x, calls, res)


_NEWTON_HALVINGS = 10  # step halvings per Newton iteration before giving up


def newton_solve(residual, solve_linearized, x0, tol=1e-10, max_iter=25):
    """Damped Newton iteration on a vector residual.

    Parameters
    ----------
    residual : callable(x) -> F(x)
    solve_linearized : callable(x, F) -> step s with J(x) s = F
    x0 : initial iterate
    tol : convergence on ||F(x)|| <= tol * max(1, ||F(x0)||)

    Returns
    -------
    SolveResult whose ``iterations`` counts Newton steps.  A residual that
    stays above the tolerance, or is not finite, raises ConvergenceFailure.
    """
    x = np.array(x0, dtype=float)
    f = residual(x)
    fnorm = np.linalg.norm(f)
    scale = max(1.0, fnorm)
    it = 0
    while fnorm > tol * scale and it < max_iter:
        s = solve_linearized(x, f)
        t = 1.0
        accepted = False
        for _ in range(_NEWTON_HALVINGS + 1):
            xn = x - t * s
            fn = residual(xn)
            fn_norm = np.linalg.norm(fn)
            if fn_norm < fnorm * (1.0 - 0.25 * t) or fn_norm < tol * scale:
                x, f, fnorm = xn, fn, fn_norm
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise ConvergenceFailure(
                "newton line search stalled at residual %.3e" % fnorm,
                fnorm / scale, it, x)
        it += 1
    # a NaN residual fails this test, so it is reported, not returned
    if not fnorm <= tol * scale:
        raise ConvergenceFailure(
            "newton failed: residual %.3e after %d iterations" % (fnorm, it),
            fnorm / scale, it, x)
    return SolveResult(x, it, fnorm / scale)
