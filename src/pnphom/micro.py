"""Fine-scale transient ion transport on a perforated mesh for one sample,
and the one transport stepper shared with the limit model.

Couples the two Nernst-Planck equations on the fluid submesh with the
Poisson equation on the whole domain.  The dielectric coefficient takes
fluid or solid values per phase, evaluated at the shifted sample point and
the fast periodic coordinate; the interface carries the nonlinear charge
relation kappa(u) = -eta * gamma(u) through a scaled surface term.

Discretization: P1 elements, lumped mass in the time derivative, backward
Euler in increment form, Gummel (Picard) alternation between the species
transport solves and the Poisson solve inside each step.  Mass and the
scaled surface charge functional are conserved to solver precision because
every transport operator has exactly zero column sums; the conservation
ledger records both at every step together with the discrete weak-form
charge identity.

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

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import (
    ConvergenceFailure,
    SparseMatrix,
    assemble_drift,
    assemble_interface_load,
    assemble_mass,
    assemble_stiffness,
    cg_solve,
    newton_solve,
    quadrature,
    bicgstab_solve,
    tri_gradient,
    upwind_stabilization,
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
    linear_tol : relative tolerance of the inner linear solves
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
        weak Poisson identity with test function one holds exactly)."""
        q = (params.F_const * (params.z_plus * self.column("mass_plus")
                               - params.z_minus * self.column("mass_minus")))
        return np.abs(self.column("pi_eps") + q)

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


class _LuPrecond:
    """Sparse LU of a fixed operator, used as solver or preconditioner."""

    def __init__(self, matrix):
        self.lu = spla.splu(matrix.tocsc())

    def __call__(self, r):
        return self.lu.solve(r)


class _Transport:
    """Nernst-Planck transport coupled to a Poisson equation with a surface
    term, stepped by backward Euler with Gummel coupling.

    This is the one stepper of the fine and the limit solver.  A subclass
    sets ``omega`` (the sample its states carry, or None), assembles its
    operators, passes them to ``_setup`` and defines ``charge_rhs(state)``,
    the right-hand side of the Poisson equation.
    The factorizations, the Poisson branches (direct LU, deflated CG for a
    problem without surface term, Newton for a nonlinear surface term),
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

        A = A_poisson.csr
        self._poisson_direct = None
        self._poisson_prec = None
        if not self.has_surface:
            # pure Neumann problem: regularize the preconditioner only
            reg = np.full(A.shape[0], 1e-8 * max(A.diagonal().max(), 1.0))
            self._poisson_prec = _LuPrecond(A + sp.diags(reg))
        elif gamma.kind == "linear":
            self._poisson_direct = _LuPrecond(
                A + sp.diags(scale * gamma.alpha * vec))
        else:
            slope = gamma.derivative(0.0)
            self._poisson_prec = _LuPrecond(A + sp.diags(scale * slope * vec))
        dtm = sp.diags(weights).tocsr() / params.dt
        self._np_base = {
            +1: dtm + params.D_plus * A_species.csr,
            -1: dtm + params.D_minus * A_species.csr,
        }
        self._np_prec = {s: _LuPrecond(B) for s, B in self._np_base.items()}

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
        A = self._A_poisson
        tol = self.params.linear_tol
        if self._poisson_direct is not None:
            state.potential = self._poisson_direct(b)
        elif not self.has_surface:
            # pure Neumann: fix the additive gauge
            state.potential = cg_solve(A, b, tol=tol, deflate=True,
                                       precond=self._poisson_prec,
                                       max_iter=5000).x
        else:
            gamma = self.gamma
            scale, vec = self._surface
            w = scale * vec

            def residual(u):
                return A.matvec(u) + w * gamma(u) - b

            def solve_linearized(u, F):
                J = A.csr + sp.diags(w * gamma.derivative(u))
                return cg_solve(J, F, tol=tol, precond=self._poisson_prec,
                                max_iter=5000).x

            state.potential = newton_solve(residual, solve_linearized,
                                           state.potential, tol=1e-12,
                                           max_iter=25).x
        return state

    def _drift_matrix(self, sign, velocity):
        """Signed, scaled drift operator for one species (zero column sums)."""
        p = self.params
        D = p.D_plus if sign > 0 else p.D_minus
        z = p.z_plus if sign > 0 else p.z_minus
        vertices, triangles, _ = self._species_mesh
        K = assemble_drift(vertices, triangles, velocity,
                           nv=vertices.shape[0])
        Ks = (sign * D * p.c * z) * K.csr
        if p.upwind:
            Ks = Ks + upwind_stabilization(SparseMatrix(Ks)).csr
        return Ks

    def step_nernst_planck(self, state):
        """Advance one backward Euler step with Gummel coupling.

        Returns the number of Gummel iterations used.  Raises
        ConvergenceFailure when the coupling does not settle within
        gummel_max iterations.
        """
        p = self.params
        vertices, triangles, ids = self._species_mesh
        u_old = {+1: state.conc_plus, -1: state.conc_minus}
        u_new = {s: u_old[s].copy() for s in (+1, -1)}
        delta_prev = {s: None for s in (+1, -1)}
        change = math.inf
        for it in range(1, p.gummel_max + 1):
            velocity = tri_gradient(vertices, triangles, state.potential[ids])
            if self._drift_map is not None:
                velocity = velocity.dot(self._drift_map.T)
            prev = {s: u_new[s].copy() for s in (+1, -1)}
            for s in (+1, -1):
                D = p.D_plus if s > 0 else p.D_minus
                Kd = self._drift_matrix(s, velocity)
                B = self._np_base[s] + Kd
                rhs = -(D * self._A_species.matvec(u_old[s])
                        + Kd.dot(u_old[s]))
                res = bicgstab_solve(B, rhs, tol=p.linear_tol,
                                     precond=self._np_prec[s],
                                     x0=delta_prev[s], max_iter=2000)
                delta_prev[s] = res.x
                u_new[s] = u_old[s] + res.x
            state.conc_plus = u_new[+1]
            state.conc_minus = u_new[-1]
            self.solve_poisson(state)
            change = 0.0
            for s in (+1, -1):
                scale = max(float(np.abs(u_new[s]).max()), 1.0)
                change = max(change,
                             float(np.abs(u_new[s] - prev[s]).max()) / scale)
            if change <= p.gummel_tol:
                state.t += p.dt
                state.check_finite()
                return it
        raise ConvergenceFailure(
            "Gummel coupling stalled: change %.3e after %d iterations"
            % (change, p.gummel_max), change, p.gummel_max, None)

    def run(self, initial_spec):
        """Run to t_final; returns (snapshots, ledger).

        Snapshots are taken at step indices closest to a uniform grid of
        n_outputs intervals, always including t = 0 and t_final.  A step
        failure raises MicroRunError carrying the partial ledger.
        """
        p = self.params
        state = (initial_spec if isinstance(initial_spec, MicroState)
                 else self.initial_condition(initial_spec))
        n_steps = p.n_steps()
        n_out = max(1, min(p.n_outputs, n_steps)) if n_steps else 0
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
    reassembled at every Gummel iterate from the current potential.
    """

    def __init__(self, mesh, params, fields, omega):
        self.mesh = mesh
        self.fields = fields
        self.omega = np.asarray(omega, dtype=float)
        self.eps = mesh.epsilon

        self.fluid_ids, self.fluid_tris, self._g2l = mesh.fluid_submesh()
        self.fluid_vertices = mesh.vertices[self.fluid_ids]
        nv = mesh.vertices.shape[0]
        self.nv_global = nv
        self.nv_fluid = self.fluid_ids.shape[0]

        fluid_mask = mesh.tri_phase == 0
        tris_f = mesh.triangles[fluid_mask]
        tris_s = mesh.triangles[~fluid_mask]

        def field_on(field):
            def coeff(pts):
                return eval_field_eps(field, self.omega, pts, self.eps)
            return coeff

        A = assemble_stiffness(mesh.vertices, tris_f,
                               coefficient=field_on(fields.rho_f), nv=nv)
        if tris_s.shape[0] > 0:
            A = A.add(assemble_stiffness(mesh.vertices, tris_s,
                                         coefficient=field_on(fields.rho_s),
                                         nv=nv))
        self.A_theta = A

        self.surface_w = assemble_interface_load(
            mesh.vertices, mesh.interface_edges,
            density=field_on(fields.eta), rule=quadrature("edge-gauss-4"),
            nv=nv)

        self.A_fluid = assemble_stiffness(self.fluid_vertices, self.fluid_tris)
        self.M_charge = assemble_mass(self.fluid_vertices, self.fluid_tris)
        self.mass_vec = self.M_charge.row_sums()
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
        q_f = p.F_const * (p.z_plus * self.M_charge.matvec(state.conc_plus)
                           - p.z_minus * self.M_charge.matvec(state.conc_minus))
        b = np.zeros(self.nv_global)
        b[self.fluid_ids] = q_f
        return b

    def cfl_time_step(self, state):
        """Lumped-mass / stiffness-diagonal ratio damped by the drift size.

        Below this step the backward Euler transport matrix is strongly
        diagonally dominant and undershoots stay near rounding level.
        """
        ratio = self.mass_vec / self.A_fluid.diagonal()
        gradU = tri_gradient(self.fluid_vertices, self.fluid_tris,
                             state.potential[self.fluid_ids])
        gmax = float(np.linalg.norm(gradU, axis=1).max()) if len(gradU) else 0.0
        z = max(self.params.z_plus, self.params.z_minus)
        return float(ratio.min()) / (1.0 + self.params.c * z * gmax)


def run(mesh, params, fields, omega, initial_spec):
    """One-call fine-scale run; see MicroProblem.run."""
    problem = MicroProblem(mesh, params, fields, omega)
    return problem.run(initial_spec)


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
