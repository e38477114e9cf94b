"""Sparse P1 finite-element kernels shared by every solver in the package.

Provides reference quadrature rules, vectorized assembly of stiffness, mass,
and interface-trace load terms on triangle meshes, deterministic conjugate
gradient and BiCGStab solvers with optional Jacobi preconditioning and
constant deflation, and a damped Newton driver for the nonlinear interface
term.  Matrices are stored in compressed sparse row form via scipy.
"""

import logging
import math

import numpy as np
import scipy.sparse as sp

log = logging.getLogger(__name__)


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
    """Outcome of an iterative solve."""

    def __init__(self, x, iterations, residual, converged):
        self.x = x
        self.iterations = iterations
        self.residual = residual
        self.converged = converged

    def __repr__(self):
        return "SolveResult(iters=%d, residual=%.3e, converged=%s)" % (
            self.iterations, self.residual, self.converged)


# ---------------------------------------------------------------------------
# quadrature


class QuadratureRule:
    """Reference-element quadrature.

    kind 'triangle-3pt' (degree 2) and 'triangle-7pt' (degree 5) live on the
    unit reference triangle with measure 1/2; 'edge-gauss-k' for
    k in {2, 4, 8} lives on the unit interval with measure 1.
    """

    def __init__(self, kind, points, weights):
        self.kind = kind
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        ref = 0.5 if kind.startswith("triangle") else 1.0
        if abs(self.weights.sum() - ref) > 1e-15:
            raise AssemblyError(
                "quadrature %s weights sum to %.17g, expected %g"
                % (kind, self.weights.sum(), ref))

    def __len__(self):
        return len(self.weights)


def quadrature(kind):
    """Build a named quadrature rule.

    Parameters
    ----------
    kind : str
        One of 'triangle-3pt', 'triangle-7pt', 'edge-gauss-2',
        'edge-gauss-4', 'edge-gauss-8'.
    """
    if kind == "triangle-3pt":
        pts = [(0.5, 0.0), (0.5, 0.5), (0.0, 0.5)]
        wts = [1.0 / 6.0] * 3
        return QuadratureRule(kind, pts, wts)
    if kind == "triangle-7pt":
        s15 = math.sqrt(15.0)
        a1 = (6.0 - s15) / 21.0
        a2 = (6.0 + s15) / 21.0
        w1 = (155.0 - s15) / 2400.0
        w2 = (155.0 + s15) / 2400.0
        pts = [(1.0 / 3.0, 1.0 / 3.0),
               (a1, a1), (1.0 - 2.0 * a1, a1), (a1, 1.0 - 2.0 * a1),
               (a2, a2), (1.0 - 2.0 * a2, a2), (a2, 1.0 - 2.0 * a2)]
        wts = [9.0 / 80.0, w1, w1, w1, w2, w2, w2]
        return QuadratureRule(kind, pts, wts)
    if kind.startswith("edge-gauss-"):
        k = int(kind.rsplit("-", 1)[1])
        if k not in (2, 4, 8):
            raise AssemblyError("edge Gauss order must be 2, 4 or 8, got %d" % k)
        nodes, weights = np.polynomial.legendre.leggauss(k)
        pts = 0.5 * (nodes + 1.0)
        wts = 0.5 * weights
        return QuadratureRule(kind, pts.reshape(-1, 1), wts)
    raise AssemblyError("unknown quadrature kind %r" % kind)


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


def map_triangle_quadrature(vertices, triangles, rule):
    """Physical quadrature points and scaled weights for a triangle batch.

    Returns
    -------
    pts : (nt, nq, 2) points
    wts : (nt, nq) weights including the Jacobian (sum over q = area).
    """
    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    xi = rule.points[:, 0]
    eta = rule.points[:, 1]
    pts = (p0[:, None, :] * (1.0 - xi - eta)[None, :, None]
           + p1[:, None, :] * xi[None, :, None]
           + p2[:, None, :] * eta[None, :, None])
    d1 = p1 - p0
    d2 = p2 - p0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    wts = det[:, None] * rule.weights[None, :]
    return pts, wts


def _eval_coefficient(coefficient, pts):
    """Evaluate a scalar or 2x2-tensor coefficient at stacked points."""
    n = pts.shape[0]
    if coefficient is None:
        return np.ones(n), False
    if np.isscalar(coefficient):
        return np.full(n, float(coefficient)), False
    arr = np.asarray(coefficient) if not callable(coefficient) else None
    if arr is not None:
        if arr.shape == (2, 2):
            return np.broadcast_to(arr, (n, 2, 2)), True
        raise AssemblyError("constant coefficient must be scalar or 2x2")
    vals = np.asarray(coefficient(pts), dtype=float)
    if vals.shape == (n,):
        return vals, False
    if vals.shape == (n, 2, 2):
        return vals, True
    raise AssemblyError(
        "coefficient returned shape %r for %d points" % (vals.shape, n))


# ---------------------------------------------------------------------------
# sparse matrix wrapper


class SparseMatrix:
    """Square CSR matrix with optional symmetry certification."""

    def __init__(self, csr, symmetric=False):
        csr = csr.tocsr()
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.sort_indices()
        self.csr = csr
        self.shape = csr.shape
        self.symmetric = bool(symmetric)
        if self.symmetric:
            gap = abs(csr - csr.T)
            err = gap.max() if gap.nnz else 0.0
            if err > 1e-12:
                raise AssemblyError(
                    "matrix flagged symmetric but |A - A^T| = %.3e" % err)

    @classmethod
    def from_coo(cls, rows, cols, vals, n, symmetric=False):
        csr = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        return cls(csr, symmetric=symmetric)

    def matvec(self, x):
        return self.csr.dot(x)

    def diagonal(self):
        return self.csr.diagonal()

    def row_sums(self):
        return np.asarray(self.csr.sum(axis=1)).ravel()

    def add(self, other, symmetric=None):
        if symmetric is None:
            symmetric = self.symmetric and other.symmetric
        return SparseMatrix(self.csr + other.csr, symmetric=symmetric)

    def total(self):
        return float(self.csr.sum())

    def dump(self, path):
        """Write coordinate text records `i j value`."""
        coo = self.csr.tocoo()
        with open(path, "w") as fh:
            for i, j, v in zip(coo.row, coo.col, coo.data):
                fh.write("%d %d %.17g\n" % (i, j, v))

    def __repr__(self):
        return "SparseMatrix(%dx%d, nnz=%d%s)" % (
            self.shape[0], self.shape[1], self.csr.nnz,
            ", symmetric" if self.symmetric else "")


# ---------------------------------------------------------------------------
# assembly


def assemble_stiffness(vertices, triangles, coefficient=None, rule=None, nv=None):
    """Assemble the P1 stiffness matrix of -div(a grad u) on a triangle set.

    Parameters
    ----------
    vertices : (nv, 2) array
    triangles : (nt, 3) int array
    coefficient : None, scalar, (2,2) array, or callable(points)->values
        Scalar (nq,) or tensor (nq, 2, 2) values at quadrature points.
    rule : QuadratureRule, default triangle-3pt
    nv : matrix dimension override (defaults to len(vertices))

    Returns
    -------
    SparseMatrix, symmetric positive semidefinite with constants in the
    kernel before any boundary handling.
    """
    triangles = np.asarray(triangles)
    if triangles.shape[0] == 0:
        raise AssemblyError("empty region")
    if rule is None:
        rule = quadrature("triangle-3pt")
    if nv is None:
        nv = vertices.shape[0]
    areas, grads = tri_geometry(vertices, triangles)
    nt = triangles.shape[0]
    nq = len(rule)

    if coefficient is None or np.isscalar(coefficient):
        c = 1.0 if coefficient is None else float(coefficient)
        # grad_i . grad_j * area * c
        local = np.einsum("tid,tjd->tij", grads, grads) * (c * areas)[:, None, None]
    else:
        pts, wts = map_triangle_quadrature(vertices, triangles, rule)
        vals, is_tensor = _eval_coefficient(coefficient, pts.reshape(-1, 2))
        if is_tensor:
            tens = vals.reshape(nt, nq, 2, 2)
            weighted = np.einsum("tq,tqde->tde", wts, tens)
            local = np.einsum("tid,tde,tje->tij", grads, weighted, grads)
        else:
            scal = vals.reshape(nt, nq)
            csum = np.einsum("tq,tq->t", wts, scal)
            local = np.einsum("tid,tjd->tij", grads, grads) * csum[:, None, None]

    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
    return SparseMatrix.from_coo(rows, cols, local.ravel(), nv, symmetric=True)


def assemble_mass(vertices, triangles, lumped=False, coefficient=None,
                  rule=None, nv=None):
    """Assemble the P1 mass matrix, optionally row-lumped or weighted.

    The entries of the unweighted matrix sum to the region area exactly.
    """
    triangles = np.asarray(triangles)
    if triangles.shape[0] == 0:
        raise AssemblyError("empty region")
    if rule is None:
        rule = quadrature("triangle-3pt")
    if nv is None:
        nv = vertices.shape[0]
    areas, _ = tri_geometry(vertices, triangles)
    nt = triangles.shape[0]
    nq = len(rule)

    if coefficient is None or np.isscalar(coefficient):
        c = 1.0 if coefficient is None else float(coefficient)
        base = (np.ones((3, 3)) + np.eye(3)) / 12.0
        local = base[None, :, :] * (c * areas)[:, None, None]
    else:
        pts, wts = map_triangle_quadrature(vertices, triangles, rule)
        vals, is_tensor = _eval_coefficient(coefficient, pts.reshape(-1, 2))
        if is_tensor:
            raise AssemblyError("mass coefficient must be scalar")
        scal = vals.reshape(nt, nq)
        xi = rule.points[:, 0]
        eta = rule.points[:, 1]
        bas = np.stack([1.0 - xi - eta, xi, eta], axis=1)  # (nq, 3)
        local = np.einsum("tq,qi,qj->tij", wts * scal, bas, bas)

    if lumped:
        local = np.zeros_like(local) + np.eye(3)[None, :, :] * local.sum(axis=2)[:, :, None]
    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
    return SparseMatrix.from_coo(rows, cols, local.ravel(), nv, symmetric=True)


def tri_gradient(vertices, triangles, values):
    """Piecewise-constant gradient of a P1 field, shape (nt, 2)."""
    _, grads = tri_geometry(vertices, triangles)
    return np.einsum("tid,ti->td", grads, values[np.asarray(triangles)])


def assemble_drift(vertices, triangles, cell_velocity, nv=None):
    """Assemble the P1 drift matrix K_ij = int hat_j (v . grad hat_i) dx.

    cell_velocity is a (nt, 2) array, constant per triangle (typically the
    gradient of a P1 potential).  The local matrix has identical columns,
    so every column of K sums to zero exactly: adding K to a diffusion
    operator never changes the total mass of the transported species.
    """
    triangles = np.asarray(triangles)
    if triangles.shape[0] == 0:
        raise AssemblyError("empty region")
    if nv is None:
        nv = vertices.shape[0]
    areas, grads = tri_geometry(vertices, triangles)
    v = np.asarray(cell_velocity, dtype=float)
    if v.shape != (triangles.shape[0], 2):
        raise AssemblyError("cell_velocity must be (nt, 2)")
    # int_T hat_j dx = area/3 for each j, so K_local[i, j] = (area/3) g_i.v
    gi_v = np.einsum("tid,td->ti", grads, v) * (areas / 3.0)[:, None]
    local = np.repeat(gi_v[:, :, None], 3, axis=2)  # columns identical
    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
    return SparseMatrix.from_coo(rows, cols, local.ravel(), nv, symmetric=False)


def upwind_stabilization(K):
    """Symmetric artificial-diffusion stabilizer for a drift matrix.

    Returns the graph Laplacian D with off-diagonal entries
    -max(0, K_ij, K_ji), so K + D has nonpositive off-diagonal transport
    couplings.  Row and column sums of D vanish, preserving conservation.
    """
    A = K.csr.tocoo()
    mask = A.row != A.col
    rows, cols, vals = A.row[mask], A.col[mask], A.data[mask]
    n = K.csr.shape[0]
    off = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    d = off.maximum(off.T)
    d.data = np.maximum(d.data, 0.0)
    d.eliminate_zeros()
    lap = sp.diags(np.asarray(d.sum(axis=1)).ravel()) - d
    return SparseMatrix(lap.tocsr(), symmetric=True)


def assemble_interface_load(vertices, edges, density=None, rule=None, nv=None):
    """Integrate a density against P1 traces on a set of edges.

    Returns the vector b with b_i = sum over edges of
    int_edge density * hat_i dS, using Gauss quadrature along each edge.
    With density = 1 the entries sum to the total edge length.

    Parameters
    ----------
    density : None, scalar, or callable(points (m,2)) -> (m,) values
    rule : QuadratureRule, default edge-gauss-2
    """
    edges = np.asarray(edges)
    if rule is None:
        rule = quadrature("edge-gauss-2")
    if nv is None:
        nv = vertices.shape[0]
    b = np.zeros(nv)
    if edges.shape[0] == 0:
        return b
    p0 = vertices[edges[:, 0]]
    p1 = vertices[edges[:, 1]]
    lengths = np.linalg.norm(p1 - p0, axis=1)
    if lengths.min() < 1e-15:
        bad = int(np.argmin(lengths))
        raise AssemblyError("zero-length edge %d" % bad)
    t = rule.points[:, 0]
    wts = rule.weights
    pts = p0[:, None, :] * (1.0 - t)[None, :, None] + p1[:, None, :] * t[None, :, None]
    if density is None or np.isscalar(density):
        dvals = np.full(pts.shape[:2], 1.0 if density is None else float(density))
    else:
        dvals = np.asarray(density(pts.reshape(-1, 2)), dtype=float).reshape(pts.shape[:2])
    w = dvals * wts[None, :] * lengths[:, None]
    contrib0 = (w * (1.0 - t)[None, :]).sum(axis=1)
    contrib1 = (w * t[None, :]).sum(axis=1)
    np.add.at(b, edges[:, 0], contrib0)
    np.add.at(b, edges[:, 1], contrib1)
    return b


def edge_quadrature_points(vertices, edges, rule=None):
    """Physical quadrature points and weights along a set of edges.

    Returns
    -------
    pts : (ne, nq, 2)
    wts : (ne, nq), summing to the total length.
    """
    edges = np.asarray(edges)
    if rule is None:
        rule = quadrature("edge-gauss-2")
    p0 = vertices[edges[:, 0]]
    p1 = vertices[edges[:, 1]]
    lengths = np.linalg.norm(p1 - p0, axis=1)
    t = rule.points[:, 0]
    pts = p0[:, None, :] * (1.0 - t)[None, :, None] + p1[:, None, :] * t[None, :, None]
    wts = lengths[:, None] * rule.weights[None, :]
    return pts, wts


# ---------------------------------------------------------------------------
# solvers


def _as_operator(A):
    if isinstance(A, SparseMatrix):
        return A.csr
    return A


def cg_solve(A, b, tol=1e-11, max_iter=None, jacobi=False, x0=None,
             deflate=False, raise_on_fail=True, precond=None):
    """Conjugate gradients for symmetric positive (semi)definite systems.

    Deterministic: fixed iteration order, plain numpy reductions.  With
    ``deflate=True`` the solve is performed in the mean-zero subspace,
    which handles the pure-Neumann kernel of constants; the right-hand
    side is projected and the returned solution has zero mean.  A custom
    symmetric positive preconditioner may be passed as ``precond``, a
    callable r -> z (overrides jacobi).

    Returns a SolveResult; raises ConvergenceFailure when the iteration
    budget is exhausted (unless raise_on_fail is False).
    """
    A = _as_operator(A)
    n = A.shape[0]
    b = np.asarray(b, dtype=float)
    if max_iter is None:
        max_iter = max(1000, 10 * n)
    if deflate:
        b = b - b.mean()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return SolveResult(np.zeros(n), 0, 0.0, True)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if deflate and x0 is not None:
        x = x - x.mean()
    r = b - A.dot(x)
    if deflate:
        r = r - r.mean()
    if precond is not None:
        minv = None
        apply_prec = precond
    elif jacobi:
        d = A.diagonal().copy()
        d[d == 0.0] = 1.0
        minv = 1.0 / d
        apply_prec = None
    else:
        minv = None
        apply_prec = None

    def _z(rv):
        if apply_prec is not None:
            zv = apply_prec(rv)
        elif minv is not None:
            zv = minv * rv
        else:
            return rv
        if deflate:
            zv = zv - zv.mean()
        return zv

    z = _z(r)
    p = z.copy()
    rz = float(r.dot(z))
    res = np.linalg.norm(r) / bnorm
    it = 0
    while res > tol and it < max_iter:
        Ap = A.dot(p)
        if deflate:
            Ap = Ap - Ap.mean()
        pAp = float(p.dot(Ap))
        if pAp <= 0.0:
            # breakdown: p in the kernel (singular system) or indefinite A
            if raise_on_fail:
                raise ConvergenceFailure(
                    "cg breakdown: curvature %.3e at residual %.3e" % (pAp, res),
                    res, it, x)
            return SolveResult(x, it, res, False)
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        if deflate:
            r = r - r.mean()
        z = _z(r)
        rz_new = float(r.dot(z))
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
        res = np.linalg.norm(r) / bnorm
        it += 1
    if deflate:
        x = x - x.mean()
    if res > tol:
        if raise_on_fail:
            raise ConvergenceFailure(
                "cg failed: residual %.3e after %d iterations" % (res, it),
                res, it, x)
        return SolveResult(x, it, res, False)
    return SolveResult(x, it, res, True)


def bicgstab_solve(A, b, tol=1e-11, max_iter=None, jacobi=False, x0=None,
                   raise_on_fail=True, precond=None):
    """BiCGStab for general square systems; deterministic like cg_solve.

    ``precond`` is a callable v -> z applied as a right preconditioner
    (overrides jacobi).
    """
    A = _as_operator(A)
    n = A.shape[0]
    b = np.asarray(b, dtype=float)
    if max_iter is None:
        max_iter = max(1000, 10 * n)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return SolveResult(np.zeros(n), 0, 0.0, True)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if precond is None and jacobi:
        d = A.diagonal().copy()
        d[d == 0.0] = 1.0
        minv = 1.0 / d
    else:
        minv = None

    def prec(v):
        if precond is not None:
            return precond(v)
        return minv * v if minv is not None else v

    r = b - A.dot(x)
    rhat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)
    res = np.linalg.norm(r) / bnorm
    it = 0
    while res > tol and it < max_iter:
        rho_new = float(rhat.dot(r))
        if rho_new == 0.0:
            break
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        phat = prec(p)
        v = A.dot(phat)
        denom = float(rhat.dot(v))
        if denom == 0.0:
            break
        alpha = rho / denom
        s = r - alpha * v
        if np.linalg.norm(s) / bnorm <= tol:
            x = x + alpha * phat
            r = s
            res = np.linalg.norm(r) / bnorm
            it += 1
            break
        shat = prec(s)
        t = A.dot(shat)
        tt = float(t.dot(t))
        if tt == 0.0:
            break
        omega = float(t.dot(s)) / tt
        x = x + alpha * phat + omega * shat
        r = s - omega * t
        res = np.linalg.norm(r) / bnorm
        it += 1
        if omega == 0.0:
            break
    if res > tol:
        if raise_on_fail:
            raise ConvergenceFailure(
                "bicgstab failed: residual %.3e after %d iterations" % (res, it),
                res, it, x)
        return SolveResult(x, it, res, False)
    return SolveResult(x, it, res, True)


def newton_solve(residual, solve_linearized, x0, tol=1e-10, max_iter=25,
                 max_halvings=10):
    """Damped Newton iteration on a vector residual.

    Parameters
    ----------
    residual : callable(x) -> F(x)
    solve_linearized : callable(x, F) -> step s with J(x) s = F
    x0 : initial iterate
    tol : convergence on ||F(x)|| <= tol * max(1, ||F(x0)||)
    max_halvings : step halvings per iteration before giving up

    Returns
    -------
    SolveResult whose ``iterations`` counts Newton steps.
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
        for _ in range(max_halvings + 1):
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
    if fnorm > tol * scale:
        raise ConvergenceFailure(
            "newton failed: residual %.3e after %d iterations" % (fnorm, it),
            fnorm / scale, it, x)
    return SolveResult(x, it, fnorm / scale, True)


# ---------------------------------------------------------------------------
# interpolation


class P1Interpolator:
    """Point evaluation of P1 fields via triangle search.

    Suitable for modest point counts; solvers with structured meshes use
    their own fast paths.
    """

    def __init__(self, vertices, triangles):
        from .geometry import _TriangleLocator

        self.vertices = vertices
        self.triangles = triangles
        self._locator = _TriangleLocator(vertices, triangles)

    def __call__(self, values, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty(points.shape[0])
        for i, x in enumerate(points):
            t = self._locator.find(x)
            if t < 0:
                raise AssemblyError("interpolation point %r outside mesh" % (x,))
            tri = self.triangles[t]
            p0, p1, p2 = self.vertices[tri[0]], self.vertices[tri[1]], self.vertices[tri[2]]
            det = (p1[0] - p0[0]) * (p2[1] - p0[1]) - (p2[0] - p0[0]) * (p1[1] - p0[1])
            l1 = ((x[0] - p0[0]) * (p2[1] - p0[1]) - (p2[0] - p0[0]) * (x[1] - p0[1])) / det
            l2 = ((p1[0] - p0[0]) * (x[1] - p0[1]) - (x[0] - p0[0]) * (p1[1] - p0[1])) / det
            lam = np.array([1.0 - l1 - l2, l1, l2])
            out[i] = float(values[tri].dot(lam))
        return out
