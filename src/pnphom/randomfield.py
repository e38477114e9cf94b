"""Probability space, torus shift dynamics, and random coefficient fields.

The probability space is the 2-torus [0,1)^2 with Lebesgue measure.  The
dynamical system is the coordinate shift T(y) w = (w + y) mod 1, which is
measure preserving and ergodic.  Coefficient fields are finite trigonometric
polynomials (:class:`TrigFactor`) in a fast periodic variable y and in the
sample point w, with a certified positive lower bound, so exact means and
torus integrals are available in closed form.
"""

import math

import numpy as np


def sample_omega(seed):
    """Draw one sample of the probability space from a seeded stream.

    Parameters
    ----------
    seed : int
        64-bit seed; the same seed always yields the same sample.

    Returns
    -------
    TorusShift
    """
    rng = np.random.default_rng(int(seed))
    omega = rng.random(2)
    return TorusShift(omega, rng_seed=int(seed))


def shift(omega, y):
    """Apply the torus shift: componentwise (omega + y) mod 1.

    Both arguments may be arrays with trailing dimension 2; standard
    broadcasting applies.
    """
    return np.mod(np.asarray(omega, dtype=float) + np.asarray(y, dtype=float), 1.0)


class TorusShift:
    """One sample point of the torus probability space.

    Attributes
    ----------
    omega : (2,) float array in [0,1)^2
    rng_seed : int or None
        Seed that produced the sample, for provenance.
    """

    dimension = 2

    def __init__(self, omega, rng_seed=None):
        omega = np.asarray(omega, dtype=float)
        if omega.shape != (2,):
            raise ValueError("omega must be a point in the 2-torus")
        self.omega = np.mod(omega, 1.0)
        self.rng_seed = rng_seed

    def __repr__(self):
        return "TorusShift(omega=(%.6f, %.6f), seed=%r)" % (
            self.omega[0], self.omega[1], self.rng_seed)


class TrigFactor:
    """Trigonometric polynomial c0 + sum amp * cos(2 pi k.u + phase) on the torus.

    Terms are (amplitude, (k1, k2), phase) with integer frequencies; sin
    modes are cos modes with phase -pi/2.  Closed under products.
    """

    def __init__(self, const=0.0, terms=()):
        self.const = float(const)
        self.terms = [(float(a), (int(k[0]), int(k[1])), float(ph))
                      for a, k, ph in terms]

    @classmethod
    def from_modes(cls, const=1.0, cos_modes=(), sin_modes=()):
        terms = [(a, k, 0.0) for k, a in cos_modes]
        terms += [(a, k, -0.5 * math.pi) for k, a in sin_modes]
        return cls(const, terms)

    def value(self, pts):
        """Values at pts (last dim 2): the constant, then the terms in order."""
        pts = np.asarray(pts, dtype=float)
        out = np.full(pts.shape[:-1], self.const)
        for a, (k1, k2), ph in self.terms:
            out = out + a * np.cos(
                2.0 * math.pi * (k1 * pts[..., 0] + k2 * pts[..., 1]) + ph)
        return out[()]  # a scalar for one point

    def value_outer(self, u1, u2):
        """Evaluate on the tensor grid u1 x u2 via per-axis factorization."""
        out = np.full((len(u1), len(u2)), self.const)
        for a, (k1, k2), ph in self.terms:
            A = 2.0 * math.pi * k1 * np.asarray(u1)
            B = 2.0 * math.pi * k2 * np.asarray(u2) + ph
            out += a * (np.outer(np.cos(A), np.cos(B))
                        - np.outer(np.sin(A), np.sin(B)))
        return out

    def integral(self):
        """Exact mean over the torus."""
        total = self.const
        for a, k, ph in self.terms:
            if k == (0, 0):
                total += a * math.cos(ph)
        return total

    def squared_integral(self):
        """Exact mean of the square over the torus, by the self-product."""
        return (self * self).integral()

    def min_bound(self):
        lo = self.const
        for a, k, ph in self.terms:
            lo -= abs(a)
        return lo

    def is_constant(self):
        return all(k == (0, 0) for _, k, _ in self.terms)

    def __mul__(self, other):
        # product-to-sum: cos X cos Y = (cos(X+Y) + cos(X-Y)) / 2
        terms = [(a * other.const, k, ph) for a, k, ph in self.terms]
        terms += [(a * self.const, k, ph) for a, k, ph in other.terms]
        for a1, (p1, p2), f1 in self.terms:
            for a2, (q1, q2), f2 in other.terms:
                terms.append((0.5 * a1 * a2, (p1 + q1, p2 + q2), f1 + f2))
                terms.append((0.5 * a1 * a2, (p1 - q1, p2 - q2), f1 - f2))
        return TrigFactor(self.const * other.const, terms)


def _parse_modes(modes, what):
    out = []
    for entry in modes:
        try:
            (k1, k2), amp = entry
            k, amp = (int(k1), int(k2)), float(amp)
        except (TypeError, ValueError):
            raise ValueError("%s %r is not [[k1, k2], amplitude]"
                             % (what, entry))
        if k == (0, 0):
            raise ValueError(
                "%s frequency (0,0) is a constant; fold it into base_value" % what)
        out.append((k, amp))
    return out


class CoefficientField:
    """Random coefficient a(w, y) = base + trig poly in y + trig poly in w.

    Each mode is a pair ((k1, k2), amplitude) contributing
    amplitude * cos(2 pi (k1 u1 + k2 u2)) with u = y or u = w.  The field is
    1-periodic in both arguments and smooth, and its pointwise value is
    guaranteed to stay at or above ``floor`` because the amplitudes are
    validated against the base value.

    Parameters
    ----------
    name : str
        Identifier, conventionally one of 'rho_f', 'rho_s', 'eta'.
    base_value : float
        Constant term; also the exact mean in each argument.
    y_modes, w_modes : iterable of ((int, int), float)
        Cosine modes in the periodic variable and in the sample variable.
    floor : float
        Certified positive lower bound.  Must satisfy
        base_value - sum|amplitudes| >= floor > 0.
    """

    def __init__(self, name, base_value, y_modes=(), w_modes=(), floor=None):
        self.name = str(name)
        self.base_value = float(base_value)
        self.y_modes = _parse_modes(y_modes, "y-mode")
        self.w_modes = _parse_modes(w_modes, "w-mode")
        self._y_part = TrigFactor.from_modes(0.0, cos_modes=self.y_modes)
        self._w_part = TrigFactor.from_modes(0.0, cos_modes=self.w_modes)
        total_amp = sum(abs(a) for _, a in self.y_modes)
        total_amp += sum(abs(a) for _, a in self.w_modes)
        if floor is None:
            floor = self.base_value - total_amp
        self.floor = float(floor)
        if self.floor <= 0.0:
            raise ValueError(
                "field %r needs a positive floor, got %g" % (self.name, self.floor))
        if self.base_value - total_amp < self.floor - 1e-14:
            raise ValueError(
                "field %r: base - sum|amplitudes| = %g violates floor %g"
                % (self.name, self.base_value - total_amp, self.floor))

    # -- evaluation ----------------------------------------------------

    def evaluate(self, omega, y):
        """Evaluate a(omega, y) = (base + y-modes) + w-modes; both arguments
        broadcast with last dim 2.

        The value depends on omega only through :meth:`w_value`, so two
        samples with bitwise-equal w-mode sums give bitwise-equal values.
        """
        return self.omega_average(y) + self.w_value(omega)

    def w_value(self, omega):
        """Sum of the w-modes at omega (last dim 2), the sample part of a."""
        return self._w_part.value(omega)

    def omega_average(self, y):
        """Exact mean over the sample space: the w-modes integrate to zero."""
        return self.base_value + self._y_part.value(y)

    def y_average(self, omega):
        """Exact mean over the periodic cell: the y-modes integrate to zero."""
        return self.base_value + self.w_value(omega)

    def mean_value(self):
        """Exact mean over both arguments (the constant coefficient)."""
        return self.base_value

    # -- serialization ---------------------------------------------------

    @classmethod
    def from_json_dict(cls, data, name="field"):
        """Build a field from its JSON form.

        The expected shape is
        ``{"base": 2.0, "floor": 0.5, "y_modes": [[[1,0], 0.5]],
        "w_modes": [[[0,1], 0.3]]}``; mode lists may be absent.
        """
        if "base" not in data:
            raise ValueError("field definition for %r lacks 'base'" % name)
        return cls(
            name,
            data["base"],
            y_modes=data.get("y_modes", ()),
            w_modes=data.get("w_modes", ()),
            floor=data.get("floor"),
        )

    def __repr__(self):
        return "CoefficientField(%r, base=%g, %d y-modes, %d w-modes)" % (
            self.name, self.base_value, len(self.y_modes), len(self.w_modes))


class GammaFunction:
    """Interface nonlinearity with slope certified inside [alpha, lipschitz].

    kind 'linear' is gamma(r) = alpha * r.  kind 'saturated' is
    gamma(r) = alpha r + (L - alpha) s tanh(r / s), whose derivative
    alpha + (L - alpha) sech^2(r/s) decays from L at r = 0 to alpha at
    infinity.  Both vanish at r = 0, are strictly monotone, and are globally
    Lipschitz with constant L.
    """

    def __init__(self, kind="linear", alpha=1.0, lipschitz=None, saturation_scale=1.0):
        self.kind = str(kind)
        self.alpha = float(alpha)
        if lipschitz is None:
            lipschitz = alpha
        self.lipschitz = float(lipschitz)
        self.saturation_scale = float(saturation_scale)
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive, got %g" % self.alpha)
        if self.lipschitz < self.alpha:
            raise ValueError(
                "lipschitz bound %g below alpha %g" % (self.lipschitz, self.alpha))
        if self.kind == "linear":
            if self.lipschitz != self.alpha:
                raise ValueError("linear kind requires lipschitz == alpha")
        elif self.kind == "saturated":
            if self.saturation_scale <= 0.0:
                raise ValueError("saturation_scale must be positive")
        else:
            raise ValueError("unknown gamma kind %r" % self.kind)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "linear":
            val = self.alpha * r
        else:
            s = self.saturation_scale
            val = self.alpha * r + (self.lipschitz - self.alpha) * s * np.tanh(r / s)
        return val if val.ndim else float(val)

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "linear":
            val = np.full_like(r, self.alpha)
        else:
            s = self.saturation_scale
            val = self.alpha + (self.lipschitz - self.alpha) / np.cosh(r / s) ** 2
        return val if val.ndim else float(val)


def eval_field_eps(field, omega, x, eps):
    """Evaluate the two-scale oscillation field(T(x/eps) w, x/eps^2).

    Parameters
    ----------
    field : CoefficientField
    omega : (2,) array or TorusShift
    x : point or (n, 2) array of points
    eps : float, the scale parameter 1/n

    Returns
    -------
    float or (n,) array
    """
    if isinstance(omega, TorusShift):
        omega = omega.omega
    x = np.asarray(x, dtype=float)
    w_arg = shift(omega, x / eps)
    y_arg = np.mod(x / (eps * eps), 1.0)
    return field.evaluate(w_arg, y_arg)


def eval_field_cell(field, omega, y, n):
    """Evaluate the two-scale field of the eps = 1/n tiling at template
    point y of any cell: field(T(y) w, n y mod 1).

    At x = (a + y)/n in cell (a, b), x/eps = a + y and x/eps^2 = n (a + y),
    so :func:`eval_field_eps` takes this value in every cell, up to
    rounding: the fine coefficient is the same on every copy of the
    template.

    Parameters
    ----------
    field : CoefficientField
    omega : (2,) array
    y : (m, 2) array of template points
    n : int, the number of cells per direction
    """
    y = np.asarray(y, dtype=float)
    return field.evaluate(shift(omega, y), np.mod(n * y, 1.0))
