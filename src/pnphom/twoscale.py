"""Empirical verification of volume and surface oscillation limits.

Evaluates Monte Carlo / quadrature estimates of

    volume:   int_Omega int_Lambda |a(x, T(x/eps) w, x/eps^2)|^p dx dmu
    surface:  eps int_{Gamma_eps} int_Lambda |a^eps|^p dS dmu

for separable integrands a(x, w, y) = f(x) g(w) h(y) and compares them with
exact reference values.  The volume estimate uses a composite midpoint grid
fine enough to resolve the eps^2 oscillation (refused otherwise); the
surface estimate uses Gauss quadrature on the interface facets of a
perforated mesh.

On the eps-periodic interface the shift T(x/eps) w reduces to z + w where z
is the position inside the unit cell, so cross-cell averaging never mixes
the sample point; the surface limit therefore carries |Gamma| times the
cell-mean of the fast factor, and that is the reference computed here.  The
fast factor h(x/eps^2) restricted to the interface equidistributes over the
unit cell as eps shrinks.

The sample and fast factors g and h are :class:`randomfield.TrigFactor`
polynomials, the same kind that makes up the coefficient fields.  Both
estimators run one Monte Carlo loop over the fixed seed schedule and differ
only in their quadrature.
"""

import math

import numpy as np

from .fem import edge_quadrature_points
from .geometry import tile_domain
from .randomfield import TrigFactor, sample_omega


def _eps_to_n(eps):
    n = int(round(1.0 / eps))
    if n < 1 or abs(n * eps - 1.0) > 1e-12:
        raise ValueError("eps must be the reciprocal of an integer, got %r" % eps)
    return n


# ---------------------------------------------------------------------------
# separable factors


class CosProductFactor:
    """Slow factor sum amp * cos(pi q1 x1) cos(pi q2 x2) on the unit square.

    The (0,0) term is the constant.  The half-period cosine products form an
    orthogonal family on [0,1]^2, so means and squared means are closed form.
    """

    def __init__(self, terms):
        self.terms = [(float(a), (int(q[0]), int(q[1]))) for a, q in terms]

    @classmethod
    def from_modes(cls, const=1.0, modes=()):
        terms = [(const, (0, 0))] if const else []
        terms += [(a, q) for q, a in modes]
        return cls(terms)

    def value(self, pts):
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[:-1])
        for a, (q1, q2) in self.terms:
            out += (a * np.cos(math.pi * q1 * pts[..., 0])
                    * np.cos(math.pi * q2 * pts[..., 1]))
        return out

    def value_outer(self, u1, u2):
        out = np.zeros((len(u1), len(u2)))
        for a, (q1, q2) in self.terms:
            out += a * np.outer(np.cos(math.pi * q1 * np.asarray(u1)),
                                np.cos(math.pi * q2 * np.asarray(u2)))
        return out

    def integral(self):
        return sum(a for a, q in self.terms if q == (0, 0))

    def squared_integral(self):
        def w(q):
            return 1.0 if q == 0 else 0.5
        # terms with the same (q1,q2) pair combine; distinct pairs are orthogonal
        acc = {}
        for a, q in self.terms:
            acc[q] = acc.get(q, 0.0) + a
        return sum(a * a * w(q1) * w(q2) for (q1, q2), a in acc.items())

    def min_bound(self):
        lo = 0.0
        for a, (q1, q2) in self.terms:
            if q1 == 0 and q2 == 0:
                lo += a
            else:
                lo -= abs(a)
        return lo


def _abs_power_integral(factor, p):
    """Mean of |factor|^p over the unit square, closed form when available."""
    if p == 1 and factor.min_bound() >= 0.0:
        return factor.integral()
    if p == 2:
        return factor.squared_integral()
    # numeric fallback on a fine midpoint grid (the |.| kink forbids a
    # spectral argument); cached per (factor, p)
    cache = getattr(factor, "_abs_cache", None)
    if cache is None:
        cache = factor._abs_cache = {}
    if p not in cache:
        N = 4096
        u = (np.arange(N) + 0.5) / N
        vals = np.abs(factor.value_outer(u, u)) ** p
        cache[p] = float(vals.mean())
    return cache[p]


# ---------------------------------------------------------------------------
# integrand


class TestIntegrand:
    """Separable admissible integrand a(x, w, y) = f(x) g(w) h(y), power p.

    Parameters
    ----------
    f : CosProductFactor (slow variable x in Omega)
    g : TrigFactor (sample variable w on the torus)
    h : TrigFactor (fast periodic variable y)
    p : exponent >= 1; closed-form references exist for p = 1 with
        nonnegative factors and for p = 2; other powers use a cached fine
        quadrature per factor.
    name : label used in reports.
    """

    __test__ = False  # not a pytest case despite the class name

    def __init__(self, f=None, g=None, h=None, p=1, name="integrand"):
        self.f = f if f is not None else CosProductFactor.from_modes()
        self.g = g if g is not None else TrigFactor(const=1.0)
        self.h = h if h is not None else TrigFactor(const=1.0)
        self.p = float(p)
        if self.p < 1:
            raise ValueError("exponent p must be >= 1, got %g" % self.p)
        self.name = name
        if not isinstance(self.g, TrigFactor) or not isinstance(self.h, TrigFactor):
            raise ValueError("g and h must be trigonometric polynomials")

    def omega_independent(self):
        return self.g.is_constant()

    def _means(self):
        """The means of |f|^p, |g|^p and |h|^p over their unit squares."""
        return [_abs_power_integral(c, self.p) for c in (self.f, self.g, self.h)]

    def volume_reference(self):
        """Exact triple integral int |f|^p dx int |g|^p dmu int |h|^p dy."""
        f, g, h = self._means()
        return f * g * h

    def surface_reference(self, interface_length):
        """Limit of the eps-scaled interface integral.

        Equals int |f|^p dx times the ensemble mean int |g|^p dmu times
        |Gamma| times the cell mean int |h|^p dy; the fast factor
        equidistributes over the cell along the interface family.
        """
        f, g, h = self._means()
        return f * g * interface_length * h

    def __repr__(self):
        return "TestIntegrand(%r, p=%g)" % (self.name, self.p)


def bundled_suite():
    """The default separable integrand suite: constant, x-only, y-only, triple.

    The fast factor uses the difference cos(2 pi y1) - cos(2 pi y2), whose
    interface integral vanishes for the reflection-symmetric inclusion at
    every eps, so surface references are exact for the suite.
    """
    f_x = CosProductFactor.from_modes(const=1.0, modes=[((1, 1), -0.5)])
    h_y = TrigFactor.from_modes(
        const=1.0, cos_modes=[((1, 0), 0.5), ((0, 1), -0.5)])
    g_w = TrigFactor.from_modes(const=1.0, sin_modes=[((1, 1), 0.1)])
    return [
        TestIntegrand(name="constant"),
        TestIntegrand(f=f_x, name="x_only"),
        TestIntegrand(h=h_y, name="y_only"),
        TestIntegrand(f=f_x, g=g_w, h=h_y, name="triple"),
    ]


# ---------------------------------------------------------------------------
# estimators


class OscillationEstimate:
    """One Monte Carlo estimate of an oscillation integral."""

    def __init__(self, value, stderr, M, eps):
        self.value = value
        self.stderr = stderr
        self.M = M
        self.eps = eps

    def __repr__(self):
        return "OscillationEstimate(eps=%g, value=%.8g +- %.2g, M=%d)" % (
            self.eps, self.value, self.stderr, self.M)


def _monte_carlo(a, eps, M, base_seed, values, integrate):
    """Mean and standard error of integrate(|a|^p) over the sample schedule.

    values(w) gives a at the quadrature points for sample w as a fresh
    array.  Samples are drawn with seeds base_seed, base_seed + 1, ...;
    a sample-independent integrand takes one sample and a zero standard
    error.
    """
    M_eff = 1 if a.omega_independent() else M
    vals = np.empty(M_eff)
    p = a.p
    for i in range(M_eff):
        prod = values(sample_omega(base_seed + i).omega)
        if p == 1.0:
            np.abs(prod, out=prod)
        elif p == 2.0:
            np.square(prod, out=prod)
        else:
            prod = np.abs(prod) ** p
        vals[i] = integrate(prod)
    value = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(M_eff)) if M_eff > 1 else 0.0
    return OscillationEstimate(value, stderr, M_eff, eps)


def volume_oscillation(a, eps, M=64, base_seed=0):
    """Estimate the volume oscillation integral of a at scale eps.

    Uses a composite midpoint grid with N = 8 n^2 points per axis, so the
    grid spacing is eps^2 / 8, and Monte Carlo over the sample space with a
    fixed seed schedule.  For sample-independent integrands a single sample
    is evaluated and the standard error is zero.
    """
    n = _eps_to_n(eps)
    N = 8 * n * n
    x1 = (np.arange(N) + 0.5) / N
    # slow and fast factors are sample independent: precompute their product
    F = a.f.value_outer(x1, x1)
    y1 = np.mod(n * n * x1, 1.0)
    H = a.h.value_outer(y1, y1)
    FH = F * H

    def values(w):
        # g(w + u): each phase of g shifted by 2 pi k.w
        G = TrigFactor(a.g.const, [
            (amp, k, 2.0 * math.pi * (k[0] * w[0] + k[1] * w[1]) + ph)
            for amp, k, ph in a.g.terms]).value_outer(n * x1, n * x1)
        return FH * G

    return _monte_carlo(a, eps, M, base_seed, values, np.mean)


def surface_oscillation(a, mesh, eps, M=64, base_seed=0):
    """Estimate the eps-scaled interface oscillation integral.

    8-point Gauss quadrature along every interface facet of the perforated
    mesh, Monte Carlo over the sample space with the same fixed seed
    schedule as the volume estimator.
    """
    n = _eps_to_n(eps)
    if mesh.n != n:
        raise ValueError("mesh was tiled at eps=1/%d, asked for eps=1/%d"
                         % (mesh.n, n))
    if mesh.interface_edges.shape[0] == 0:
        raise ValueError("mesh has an empty interface")
    pts, wts = edge_quadrature_points(mesh.vertices, mesh.interface_edges, 8)
    P = pts.reshape(-1, 2)
    w_q = wts.ravel()
    FH = a.f.value(P) * a.h.value(np.mod(n * n * P, 1.0))
    shift_arg = n * P  # T(x/eps) w = w + x/eps, cosines absorb the mod
    return _monte_carlo(a, eps, M, base_seed,
                        lambda w: FH * a.g.value(w[None, :] + shift_arg),
                        lambda prod: eps * float(w_q.dot(prod)))


# ---------------------------------------------------------------------------
# convergence tables


class OscillationReport:
    """Convergence table of one integrand against its reference value.

    Rows are ordered by decreasing eps.  ``growth_flags`` marks rows whose
    relative error exceeds twice the previous row's.
    """

    def __init__(self, kind, name, reference, rows, growth_flags):
        self.kind = kind
        self.name = name
        self.reference = reference
        self.rows = rows
        self.growth_flags = growth_flags

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("eps,M,value,reference,rel_error,mc_stderr\n")
            for r in self.rows:
                fh.write("%.17g,%d,%.17g,%.17g,%.17g,%.17g\n" % (
                    r["eps"], r["M"], r["value"], r["reference"],
                    r["rel_error"], r["mc_stderr"]))

    def format_table(self):
        lines = ["%s oscillation: %s (reference %.10g)"
                 % (self.kind, self.name, self.reference),
                 "%-10s %-6s %-22s %-12s %-12s" % (
                     "eps", "M", "value", "rel_error", "mc_stderr")]
        for r, flag in zip(self.rows, self.growth_flags):
            lines.append("%-10.6g %-6d %-22.12g %-12.4g %-12.4g%s" % (
                r["eps"], r["M"], r["value"], r["rel_error"], r["mc_stderr"],
                "  [error grew >2x]" if flag else ""))
        return "\n".join(lines)


def convergence_table(kind, a, eps_list, M=64, cell=None, base_seed=0):
    """Empirical convergence table for one integrand.

    Parameters
    ----------
    kind : 'volume' or 'surface'
    a : TestIntegrand
    eps_list : strictly decreasing reciprocals of integers
    cell : TemplateCell, required for the surface kind (each eps is tiled)
    """
    eps_list = list(eps_list)
    ns = [_eps_to_n(e) for e in eps_list]
    if sorted(ns) != ns or len(set(ns)) != len(ns):
        raise ValueError("eps list must be strictly decreasing")
    if kind == "surface":
        if cell is None:
            raise ValueError("surface tables need a template cell")
        reference = a.surface_reference(cell.interface_length)
    elif kind == "volume":
        reference = a.volume_reference()
    else:
        raise ValueError("kind must be 'volume' or 'surface'")

    rows = []
    floor = 1e-12
    for eps, n in zip(eps_list, ns):
        if kind == "volume":
            est = volume_oscillation(a, eps, M=M, base_seed=base_seed)
        else:
            mesh = tile_domain(cell, n)
            est = surface_oscillation(a, mesh, eps, M=M, base_seed=base_seed)
        denom = max(abs(reference), floor)
        rows.append({
            "eps": eps,
            "M": est.M,
            "value": est.value,
            "reference": reference,
            "rel_error": abs(est.value - reference) / denom,
            "mc_stderr": est.stderr,
        })
    flags = [False]
    for prev, cur in zip(rows, rows[1:]):
        grew = cur["rel_error"] > 2.0 * max(prev["rel_error"], floor)
        flags.append(bool(grew))
    return OscillationReport(kind, a.name, reference, rows, flags)


def count_error_inversions(rel_errors, floor=1e-12):
    """Number of adjacent increases in a supposedly decreasing error list.

    Increases within the floor are ignored (machine-level jitter around an
    exact value is not a convergence failure).
    """
    inv = 0
    for prev, cur in zip(rel_errors, rel_errors[1:]):
        if cur > prev and cur > floor:
            inv += 1
    return inv
