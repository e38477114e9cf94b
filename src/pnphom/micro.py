"""Fine-scale transient ion transport on a perforated mesh for one sample,
and the one transport stepper shared with the limit model.

Couples the two Nernst-Planck equations on the fluid submesh with the
Poisson equation on the whole domain.  The dielectric coefficient takes
fluid or solid values per phase, evaluated at the shifted sample point and
the fast periodic coordinate; the interface carries the nonlinear charge
relation kappa(u) = -eta * gamma(u) through a scaled surface term.

Discretization: P1 elements, lumped mass in the time derivative, backward
Euler in increment form, Gummel (Picard) iteration inside each step.  Each
iterate takes one back-substitution per species with the LU of
W/dt + D A, the drift acting on the previous iterate, then one Poisson
solve; the fixed point is the backward Euler step.  Mass and the scaled
surface charge functional are conserved to solver precision at every
iterate because every transport operator has zero column sums up to
rounding; the conservation ledger records both at every step together with
the discrete weak-form charge identity.

The stepper (``_Transport``) takes its operators from the caller: lumped
mass weights, species stiffness, drift velocity map, Poisson operator,
surface weights and the charge right-hand side.  ``MicroProblem`` assembles
them on the perforated mesh; ``macro.MacroProblem`` assembles the limit
model's on the unperforated one.

All boundary conditions are natural (insulated system): no exterior flux
for the species, no exterior displacement flux for the potential.
"""

import logging
import math
from functools import partial

import numpy as np
import scipy.sparse as sp

from .fem import (
    ConvergenceFailure,
    MeshPattern,
    _bordered_solver,
    _splu,
    assemble_drift,
    assemble_interface_load,
    assemble_mass,
    assemble_stiffness,
    cg_solve,
    newton_solve,
    phase_integrals,
)
from .randomfield import eval_field_eps

log = logging.getLogger(__name__)


class PnpParams:
    """Physical and numerical parameters of one fine-scale run.

    Parameters
    ----------
    D_plus, D_minus : diffusion coefficients, positive
    z_plus, z_minus : valences, positive (signs carried by the equations)
    c : drift constant multiplying z concentration grad(potential)
    F_const : charge scaling in the Poisson right-hand side
    dt, t_final : time step and horizon; dt must divide t_final
    gummel_max, gummel_tol : outer coupling iteration control
    linear_tol : relative tolerance of the CG solves of the Newton
        Poisson path
    n_outputs : number of uniform snapshot intervals (plus t = 0)
    upwind : add algebraic artificial diffusion to the drift term
    """

    def __init__(self, D_plus=1.0, D_minus=1.0, z_plus=1.0, z_minus=1.0,
                 c=1.0, F_const=1.0, dt=0.02, t_final=0.2, gummel_max=20,
                 gummel_tol=1e-9, linear_tol=1e-11, n_outputs=10,
                 upwind=False):
        self.D_plus = float(D_plus)
        self.D_minus = float(D_minus)
        self.z_plus = float(z_plus)
        self.z_minus = float(z_minus)
        self.c = float(c)
        self.F_const = float(F_const)
        self.dt = float(dt)
        self.t_final = float(t_final)
        self.gummel_max = int(gummel_max)
        self.gummel_tol = float(gummel_tol)
        self.linear_tol = float(linear_tol)
        self.n_outputs = int(n_outputs)
        self.upwind = bool(upwind)
        self.validate()

    def validate(self):
        for name in ("D_plus", "D_minus", "z_plus", "z_minus", "dt"):
            if getattr(self, name) <= 0.0:
                raise ValueError("%s must be positive" % name)
        if self.c < 0.0 or self.F_const <= 0.0:
            raise ValueError("c must be >= 0 and F_const > 0")
        if self.t_final < 0.0:
            raise ValueError("t_final must be nonnegative")
        if self.t_final > 0.0 and self.dt > self.t_final + 1e-14:
            raise ValueError("dt exceeds t_final")
        if self.gummel_max < 1 or self.gummel_tol <= 0 or self.linear_tol <= 0:
            raise ValueError("iteration controls must be positive")
        if self.n_outputs < 1:
            raise ValueError("n_outputs must be >= 1, got %d" % self.n_outputs)

    def n_steps(self):
        if self.t_final == 0.0:
            return 0
        n = int(round(self.t_final / self.dt))
        if abs(n * self.dt - self.t_final) > 1e-8 * max(1.0, self.t_final):
            raise ValueError("dt=%g does not divide t_final=%g"
                             % (self.dt, self.t_final))
        return n


class MicroCoefficients:
    """Coefficient bundle for one fine-scale problem.

    rho_f, rho_s : dielectric fields on fluid and solid phases
    eta : interface charge density field
    gamma : monotone interface charge relation
    """

    def __init__(self, rho_f, rho_s, eta, gamma):
        self.rho_f = rho_f
        self.rho_s = rho_s
        self.eta = eta
        self.gamma = gamma


class MicroState:
    """Solution snapshot: time, species concentrations, potential, sample."""

    def __init__(self, t, conc_plus, conc_minus, potential, omega):
        self.t = t
        self.conc_plus = conc_plus
        self.conc_minus = conc_minus
        self.potential = potential
        self.omega = omega

    def copy(self):
        return MicroState(self.t, self.conc_plus.copy(),
                          self.conc_minus.copy(), self.potential.copy(),
                          self.omega)

    def check_finite(self):
        for name in ("conc_plus", "conc_minus", "potential"):
            arr = getattr(self, name)
            if not np.all(np.isfinite(arr)):
                raise FloatingPointError("%s contains non-finite values" % name)


class ConservationLedger:
    """Per-step record of masses, the surface charge functional, and extrema.

    Columns: t, mass_plus, mass_minus, pi_eps, min_conc, gummel_iters.
    pi_eps stores the scaled interface integral of kappa = -eta gamma(u),
    the negated right side of the discrete charge identity.  Concentration
    undershoots below -1e-8 are collected in ``flags``.
    """

    COLUMNS = ("t", "mass_plus", "mass_minus", "pi_eps", "min_conc",
               "gummel_iters")

    def __init__(self):
        self.rows = []
        self.flags = []

    def add(self, t, mass_plus, mass_minus, pi_eps, min_conc, gummel_iters):
        self.rows.append({"t": t, "mass_plus": mass_plus,
                          "mass_minus": mass_minus, "pi_eps": pi_eps,
                          "min_conc": min_conc,
                          "gummel_iters": int(gummel_iters)})
        if min_conc < -1e-8:
            self.flags.append((t, min_conc))
            log.warning("concentration undershoot %.3e at t=%.6g",
                        min_conc, t)

    def column(self, name):
        return np.array([row[name] for row in self.rows], dtype=float)

    def max_mass_drift(self):
        drift = 0.0
        for name in ("mass_plus", "mass_minus"):
            m = self.column(name)
            drift = max(drift, np.abs(m - m[0]).max() / max(abs(m[0]), 1.0))
        return drift

    def max_pi_drift(self):
        p = self.column("pi_eps")
        return np.abs(p - p[0]).max() / (1.0 + abs(p[0]))

    def charge_identity_residuals(self, params):
        """|pi_eps + F (z+ M+ - z- M-)| per row (zero when the discrete
        weak Poisson identity with test function one holds exactly).

        Each row's surface functional is checked against the same row's
        masses, so mass drift does not show here; see
        pinned_charge_residuals.
        """
        q = (params.F_const * (params.z_plus * self.column("mass_plus")
                               - params.z_minus * self.column("mass_minus")))
        return np.abs(self.column("pi_eps") + q)

    def pinned_charge_residuals(self, params):
        """|pi_eps - pi_0| per row, pi_0 = -F (z+ M+ - z- M-) at the first
        row: the drift of the surface functional from the value the initial
        charge pins.

        Unlike charge_identity_residuals, every row is checked against the
        first row's masses, so the residual holds the charge identity's
        residual and the drift of the total charge together; the two agree
        when the masses are conserved exactly.
        """
        first = self.rows[0]
        pinned = -params.F_const * (params.z_plus * first["mass_plus"]
                                    - params.z_minus * first["mass_minus"])
        return np.abs(self.column("pi_eps") - pinned)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(self.COLUMNS) + "\n")
            for row in self.rows:
                fh.write("%.17g,%.17g,%.17g,%.17g,%.17g,%d\n" % (
                    row["t"], row["mass_plus"], row["mass_minus"],
                    row["pi_eps"], row["min_conc"], row["gummel_iters"]))


class MicroRunError(RuntimeError):
    """A step failed; carries the partial ledger and snapshots."""

    def __init__(self, message, ledger, snapshots):
        super().__init__(message)
        self.ledger = ledger
        self.snapshots = snapshots


class _Transport:
    """Nernst-Planck transport coupled to a Poisson equation with a surface
    term, stepped by backward Euler with Gummel coupling.

    This is the one stepper of the fine and the limit solver.  A subclass
    sets ``omega`` (the sample its states carry, or None), assembles its
    operators, passes them to ``_setup`` and defines ``charge_rhs(state)``,
    the right-hand side of the Poisson equation.
    The factorizations, the Poisson branches (direct LU, a bordered LU that
    fixes the mean of a problem without surface term, Newton for a
    nonlinear surface term),
    the Gummel loop, the snapshot grid and the ledger are shared.
    """

    def _setup(self, params, gamma, vertices, triangles, ids, weights,
               A_species, drift_map, A_poisson, surface):
        """Store the operators and build the factorizations of the run.

        vertices, triangles : mesh of the species; ids maps its vertices
            to the potential's numbering
        weights : lumped mass weights of the time derivative and the masses
        A_species : species stiffness, scaled per species by D
        drift_map : (2, 2) tensor applied to grad(potential) to give the
            drift velocity, or None for the identity
        A_poisson : Poisson operator on the potential's vertices
        surface : (scale, vec); the Poisson equation carries the surface
            term w * gamma(potential) with weights w = scale * vec
        """
        params.validate()
        self.params = params
        self.gamma = gamma
        self._species_mesh = (vertices, triangles, ids)
        self.weights = weights
        self._A_species = A_species
        self._drift_map = drift_map
        self._A_poisson = A_poisson
        self._surface = surface
        scale, vec = surface
        self.has_surface = scale > 0.0 and bool(np.any(vec))

        A = A_poisson
        self._poisson_direct = None
        self._poisson_prec = None
        if not self.has_surface:
            # pure Neumann problem: the potential with algebraic mean zero
            self._poisson_direct = _bordered_solver(A, np.ones(A.shape[0]))
        elif gamma.kind == "linear":
            self._poisson_direct = _splu(
                A + sp.diags(scale * gamma.alpha * vec)).solve
        else:
            slope = gamma.derivative(0.0)
            self._poisson_prec = _splu(A + sp.diags(scale * slope * vec)).solve
        # the drift is filled into the fixed pattern of the species mesh; the
        # species matrices diag(weights)/dt + D A_species get one LU per
        # distinct D
        self._pattern = MeshPattern(vertices, triangles)
        dtm = sp.diags(weights).tocsr() / params.dt
        self._species_lu = {}
        lus = {}
        for s, D in ((+1, params.D_plus), (-1, params.D_minus)):
            if D not in lus:
                lus[D] = _splu(dtm + D * A_species).solve
            self._species_lu[s] = lus[D]

    # -- quantities -------------------------------------------------------

    def mass(self, conc):
        return float(self.weights.dot(conc))

    def pi_eps(self, state):
        """Surface functional -int w gamma(potential), the negated right
        side of the discrete charge identity."""
        scale, vec = self._surface
        return -scale * float(vec.dot(self.gamma(state.potential)))

    def min_concentration(self, state):
        return float(min(state.conc_plus.min(), state.conc_minus.min()))

    def ledger_row(self, ledger, state, iters):
        ledger.add(state.t, self.mass(state.conc_plus),
                   self.mass(state.conc_minus), self.pi_eps(state),
                   self.min_concentration(state), iters)

    # -- solves -----------------------------------------------------------

    def initial_condition(self, spec):
        """Build the t = 0 state from (value_plus, value_minus).

        Each entry is a scalar or a callable(points (m,2)) -> values at the
        species vertices.  Negative initial data is rejected.  The potential
        is solved once so the state starts consistent.
        """
        vertices = self._species_mesh[0]
        n = vertices.shape[0]
        vals = []
        for entry in spec:
            if np.isscalar(entry):
                v = np.full(n, float(entry))
            else:
                v = np.asarray(entry(vertices), dtype=float)
                if v.shape != (n,):
                    raise ValueError("initial data shape mismatch")
            if v.min() < -1e-12:
                raise ValueError("negative initial concentration %.3e"
                                 % v.min())
            vals.append(np.maximum(v, 0.0))
        state = MicroState(0.0, vals[0], vals[1],
                           np.zeros(self._A_poisson.shape[0]), self.omega)
        self.solve_poisson(state)
        return state

    def solve_poisson(self, state):
        """Update state.potential from the current concentrations."""
        b = self.charge_rhs(state)
        if self._poisson_direct is not None:
            state.potential = self._poisson_direct(b)
        else:
            A = self._A_poisson
            tol = self.params.linear_tol
            gamma = self.gamma
            scale, vec = self._surface
            w = scale * vec

            def residual(u):
                return A @ u + w * gamma(u) - b

            def solve_linearized(u, F):
                J = A + sp.diags(w * gamma.derivative(u))
                return cg_solve(J, F, tol=tol, precond=self._poisson_prec,
                                max_iter=5000).x

            state.potential = newton_solve(residual, solve_linearized,
                                           state.potential, tol=1e-12,
                                           max_iter=25).x
        return state

    def step_nernst_planck(self, state):
        """Advance one backward Euler step with Gummel coupling.

        Each iterate updates the species by one back-substitution per
        species with the drift acting on the previous iterate,
        (W/dt + D A) (u_k+1 - u_old) = -D A u_old - K(phi_k) u_k, and then
        solves the Poisson equation; the fixed point is the backward Euler
        step.  Returns the number of Gummel iterations used.  Raises
        ConvergenceFailure when an iterate is not finite or the coupling
        does not settle within gummel_max iterations.
        """
        p = self.params
        pattern = self._pattern
        ids = self._species_mesh[2]
        u_old = {+1: state.conc_plus, -1: state.conc_minus}
        diffusion = {+1: -p.D_plus * (self._A_species @ u_old[+1]),
                     -1: -p.D_minus * (self._A_species @ u_old[-1])}
        u_new = dict(u_old)
        change = math.inf
        for it in range(1, p.gummel_max + 1):
            velocity = pattern.gradient(state.potential[ids])
            if self._drift_map is not None:
                velocity = velocity.dot(self._drift_map.T)
            # one drift fill for both species: they differ by a factor
            K = assemble_drift(pattern, velocity).data
            changes = []
            for s in (+1, -1):
                D = p.D_plus if s > 0 else p.D_minus
                z = p.z_plus if s > 0 else p.z_minus
                kd = (s * D * p.c * z) * K
                if p.upwind:
                    kd = kd + pattern.upwind_laplacian(kd)
                u = u_old[s] + self._species_lu[s](
                    diffusion[s] - pattern.matrix(kd) @ u_new[s])
                scale = max(float(np.abs(u).max()), 1.0)
                changes.append(float(np.abs(u - u_new[s]).max()) / scale)
                u_new[s] = u
            # np.max, unlike max, propagates a NaN
            change = float(np.max(changes))
            if not math.isfinite(change):
                raise ConvergenceFailure(
                    "Gummel iterate %d is not finite" % it, change, it, None)
            state.conc_plus = u_new[+1]
            state.conc_minus = u_new[-1]
            self.solve_poisson(state)
            if change <= p.gummel_tol:
                state.t += p.dt
                state.check_finite()
                return it
        raise ConvergenceFailure(
            "Gummel coupling stalled: change %.3e after %d iterations"
            % (change, p.gummel_max), change, p.gummel_max, None)

    def run(self, initial_spec):
        """Run to t_final from the initial_condition of initial_spec;
        returns (snapshots, ledger).

        Snapshots are taken at step indices closest to a uniform grid of
        n_outputs intervals, always including t = 0 and t_final.  A step
        failure raises MicroRunError carrying the partial ledger.
        """
        p = self.params
        state = self.initial_condition(initial_spec)
        n_steps = p.n_steps()
        n_out = min(p.n_outputs, n_steps) if n_steps else 0
        out_idx = sorted(set(int(round(k * n_steps / n_out))
                             for k in range(n_out + 1))) if n_steps else [0]
        ledger = ConservationLedger()
        snapshots = [state.copy()]
        self.ledger_row(ledger, state, 0)
        for step in range(1, n_steps + 1):
            try:
                iters = self.step_nernst_planck(state)
            except ConvergenceFailure as exc:
                raise MicroRunError(
                    "step %d failed: %s" % (step, exc), ledger, snapshots)
            self.ledger_row(ledger, state, iters)
            if step in out_idx:
                snapshots.append(state.copy())
        return snapshots, ledger


class MicroProblem(_Transport):
    """Assembled fine-scale problem for one (mesh, params, fields, omega).

    Matrices that do not change over the run (dielectric stiffness, surface
    weights, fluid diffusion and mass) are built once; the drift matrix is
    refilled on the fixed mesh pattern at every Gummel iterate from the
    current potential.
    """

    def __init__(self, mesh, params, fields, omega):
        self.mesh = mesh
        self.fields = fields
        self.omega = np.asarray(omega, dtype=float)
        self.eps = mesh.epsilon

        self.fluid_ids, self.fluid_tris, _ = mesh.fluid_submesh()
        self.fluid_vertices = mesh.vertices[self.fluid_ids]
        self.nv_global = mesh.vertices.shape[0]

        # the fields at (T(x/eps) omega, x/eps^2); rho_f on phase 0 (fluid),
        # rho_s on phase 1 (solid)
        omega, eps = self.omega, self.eps
        self.A_theta = assemble_stiffness(
            mesh.vertices, mesh.triangles, phase_integrals(
                mesh.vertices, mesh.triangles, mesh.tri_phase,
                [partial(eval_field_eps, f, omega, eps=eps)
                 for f in (fields.rho_f, fields.rho_s)]))
        self.surface_w = assemble_interface_load(
            mesh.vertices, mesh.interface_edges,
            partial(eval_field_eps, fields.eta, omega, eps=eps))

        self.A_fluid = assemble_stiffness(self.fluid_vertices, self.fluid_tris)
        self.M_charge = assemble_mass(self.fluid_vertices, self.fluid_tris)
        self.mass_vec = np.asarray(self.M_charge.sum(axis=1)).ravel()
        self._setup(params, fields.gamma, self.fluid_vertices,
                    self.fluid_tris, self.fluid_ids, self.mass_vec,
                    self.A_fluid, None, self.A_theta,
                    (self.eps, self.surface_w))

    # bound in the class body so that profilers walking vars(MicroProblem),
    # such as bench/tracer.py, time them under this class
    run = _Transport.run
    solve_poisson = _Transport.solve_poisson

    def charge_rhs(self, state):
        p = self.params
        q_f = p.F_const * (p.z_plus * (self.M_charge @ state.conc_plus)
                           - p.z_minus * (self.M_charge @ state.conc_minus))
        b = np.zeros(self.nv_global)
        b[self.fluid_ids] = q_f
        return b


def write_snapshot(path, mesh, fluid_ids, state):
    """Dump one snapshot as CSV: vertex_id,x,y,conc_plus,conc_minus,potential.

    Rows cover the fluid vertices in global numbering (species live only
    there); the potential column is its trace on the same vertices.
    """
    xy = mesh.vertices[fluid_ids]
    with open(path, "w") as fh:
        fh.write("vertex_id,x,y,conc_plus,conc_minus,potential\n")
        for i, vid in enumerate(fluid_ids):
            fh.write("%d,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (
                vid, xy[i, 0], xy[i, 1], state.conc_plus[i],
                state.conc_minus[i], state.potential[vid]))
