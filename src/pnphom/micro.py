"""Fine-scale transient ion transport on a perforated mesh for one sample,
and the one transport stepper shared with the limit model.

Couples the two Nernst-Planck equations on the fluid submesh with the
Poisson equation on the whole domain.  The dielectric coefficient takes
fluid or solid values per phase, evaluated at the shifted sample point and
the fast periodic coordinate; the interface carries the nonlinear charge
relation kappa(u) = -eta * gamma(u) through a scaled surface term.

Discretization: P1 elements, lumped mass in the time derivative, backward
Euler in increment form, Gummel (Picard) iteration inside each step.  Each
iterate fills the drift of the previous iterate's potential by one sparse
product into the run's one drift matrix, takes one back-substitution per
LU of W/dt + D A with the species that share it as its columns (one
two-column solve when D_plus == D_minus), then one Poisson solve; the
fixed point is the backward Euler step.  Mass and the scaled surface
charge functional are conserved to solver precision at every iterate
because every transport operator has zero column sums up to rounding; the
conservation ledger records both at every step together with the discrete
weak-form charge identity.

The stepper (``_Transport``) takes its operators from the caller: the
species operators (``_SpeciesOperators``: lumped mass weights, species
stiffness, the drift pattern of a velocity map and the species LUs), the
Poisson operator, the surface weights and the charge right-hand side.  A
``FineDomain`` holds the fine problem's sample-independent part (the tiled
mesh, its fluid vertices, fluid stiffness and mass, species operators),
built once per eps; ``MicroProblem`` adds the sample's dielectric
stiffness, surface weights and Poisson LU.  Every fine operator is the
template's, tiled: the fine mesh is n^2 copies of the template cell and
the fine coefficients are the same on every copy, so each operator is its
template operator summed over the cells through the tiling's vertex map
(``_CellOperators``), with the fields evaluated on the template only and
nothing assembled on the fine triangles.  ``macro.MacroProblem``
assembles the limit model's operators on the unperforated mesh.

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
    cg_solve,
    element_mass,
    element_slots,
    element_stiffness,
    mesh_pattern,
    newton_solve,
    phase_integrals,
    tri_geometry,
)
from .geometry import FLUID
from .randomfield import eval_field_cell

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


class _SpeciesOperators:
    """The species side of a transport problem, for one dt, D_plus and
    D_minus: the species vertices, lumped mass weights, stiffness, the
    drift pattern and its operator, and the LUs of diag(weights)/dt + D A.

    ``groups`` pairs each LU with the species that share it, one LU per
    distinct diffusion coefficient, so one back-substitution takes every
    species of a group as its columns.  Built once and only read by the
    runs that share it.

    vertices : vertices of the species; ids maps them to the potential's
        numbering
    weights : lumped mass weights of the time derivative and the masses
    A : species stiffness, scaled per species by D
    pattern : MeshPattern of the species mesh, whose drift operator gives
        the drift of the velocity map applied to grad(potential)
    """

    def __init__(self, params, vertices, ids, weights, A, pattern):
        self.built_for = (params.dt, params.D_plus, params.D_minus)
        self.vertices = vertices
        self.ids = ids
        self.weights = weights
        self.A = A
        self.pattern = pattern
        dtm = sp.diags(weights).tocsr() / params.dt
        by_D = {}
        for s, D in ((+1, params.D_plus), (-1, params.D_minus)):
            by_D.setdefault(D, []).append(s)
        self.groups = [(_splu(dtm + D * A).solve, tuple(group))
                       for D, group in by_D.items()]


class _Transport:
    """Nernst-Planck transport coupled to a Poisson equation with a surface
    term, stepped by backward Euler with Gummel coupling.

    This is the one stepper of the fine and the limit solver.  A subclass
    sets ``omega`` (the sample its states carry, or None), passes its
    species operators (``_SpeciesOperators``), Poisson operator and surface
    weights to ``_setup`` and defines ``charge_rhs(state)``, the right-hand
    side of the Poisson equation.  The Poisson factorization and branches
    (direct LU, a bordered LU that fixes the mean of a problem without
    surface term, Newton for a nonlinear surface term), the Gummel loop with
    its drift fill and grouped species back-substitutions, the snapshot
    grid and the ledger are shared.
    """

    def _setup(self, params, gamma, species, A_poisson, surface):
        """Store the operators and build the Poisson factorization of the
        run.

        species : _SpeciesOperators built for params' dt, D_plus and D_minus
        A_poisson : Poisson operator on the potential's vertices
        surface : (scale, vec); the Poisson equation carries the surface
            term w * gamma(potential) with weights w = scale * vec
        """
        params.validate()
        built = (params.dt, params.D_plus, params.D_minus)
        if species.built_for != built:
            raise ValueError(
                "species operators built for (dt, D_plus, D_minus) = %r, "
                "not %r" % (species.built_for, built))
        self.params = params
        self.gamma = gamma
        self._species = species
        self._A_poisson = A_poisson
        self._surface = surface
        # the drift matrix of every Gummel iterate, its data refilled in place
        self._drift = species.pattern.matrix(np.zeros(species.pattern.nnz))
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

    # -- quantities -------------------------------------------------------

    def mass(self, conc):
        return float(self._species.weights.dot(conc))

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
        vertices = self._species.vertices
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

        Each iterate fills the drift of the previous iterate's potential,
        K(phi_k), updates the species by
        (W/dt + D A) (u_k+1 - u_old) = -D A u_old - K(phi_k) u_k, with one
        back-substitution per species LU whose columns are the species
        sharing it, and then solves the Poisson equation; the fixed point is
        the backward Euler step.  Returns the number of Gummel iterations
        used.  Raises ConvergenceFailure when an iterate is not finite or
        the coupling does not settle within gummel_max iterations.
        """
        p = self.params
        species = self._species
        pattern = species.pattern
        drift = self._drift
        D = {+1: p.D_plus, -1: p.D_minus}
        z = {+1: p.z_plus, -1: p.z_minus}
        u_old = {+1: state.conc_plus, -1: state.conc_minus}
        diffusion = {s: -D[s] * (species.A @ u_old[s]) for s in (+1, -1)}
        u_new = dict(u_old)

        def transport_rhs(s, K):
            np.multiply(s * D[s] * p.c * z[s], K, out=drift.data)
            if p.upwind:
                drift.data += pattern.upwind_laplacian(drift.data)
            return diffusion[s] - drift @ u_new[s]

        change = math.inf
        for it in range(1, p.gummel_max + 1):
            # one drift fill for both species: they differ by a factor
            K = assemble_drift(pattern, state.potential[species.ids])
            changes = []
            for solve, group in species.groups:
                steps = solve(np.column_stack([transport_rhs(s, K)
                                               for s in group]))
                for s, step in zip(group, steps.T):
                    u = u_old[s] + step
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
        failure raises MicroRunError carrying the partial ledger; a failed
        t = 0 Poisson solve is step 0, with an empty ledger and no
        snapshots.
        """
        p = self.params
        ledger = ConservationLedger()
        try:
            state = self.initial_condition(initial_spec)
        except ConvergenceFailure as exc:
            raise MicroRunError("step 0 failed: %s" % exc, ledger, [])
        n_steps = p.n_steps()
        n_out = min(p.n_outputs, n_steps) if n_steps else 0
        out_idx = sorted(set(int(round(k * n_steps / n_out))
                             for k in range(n_out + 1))) if n_steps else [0]
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


class _CellOperators:
    """The template-level part of the fine operators, shared by every tiling
    of one template.

    In cell (a, b) of the eps = 1/n tiling, x = (a + y)/n for template
    point y.  A P1 stiffness and the drift operator do not change under
    that similarity, the mass scales by eps^2 and an interface load by eps,
    and the fine coefficient at y is field(T(y) omega, n y mod 1) in every
    cell (``randomfield.eval_field_cell``).  So each fine operator is its
    template operator summed over the cells through the tiling's map
    (``PerforatedMesh.index``), and the element data below are all it needs.

    full, full_slots : the template's P1 pattern and the slot of each
        element entry (t, i, j) in it
    geometry : the areas and basis gradients of the template triangles
    fluid_ids : template vertices of the fluid submesh, ascending
    fluid : the fluid submesh's pattern, with the drift operator
    stiffness, mass : fluid stiffness and mass data on ``fluid``
    """

    def __init__(self, template):
        nv = template.n_vertices
        keys, self.full_slots = element_slots(template.triangles, nv)
        self.full = MeshPattern(keys, nv)
        self.geometry = areas, grads = tri_geometry(template.vertices,
                                                    template.triangles)
        self.fluid_ids, tris, _ = template.fluid_submesh()
        self.fluid, slots = mesh_pattern(template.vertices[self.fluid_ids],
                                         tris, None)
        fluid = template.tri_phase == FLUID
        self.stiffness = np.bincount(slots, element_stiffness(
            areas[fluid], grads[fluid], areas[fluid]).ravel())
        self.mass = np.bincount(slots, element_mass(areas[fluid]).ravel())

    @classmethod
    def of(cls, template):
        """The cell operators of a template, built on first use and kept on
        it; two threads that race build them twice, to equal arrays."""
        if template._cell_operators is None:
            template._cell_operators = cls(template)
        return template._cell_operators


def _tile(slots, data):
    """Data on a template pattern, summed over the cells through slots."""
    return np.bincount(slots.ravel(), np.tile(data, slots.shape[0]))


class FineDomain:
    """The part of a fine problem that does not depend on the sample.

    The tiled mesh, its fluid vertices, the fluid stiffness ``A_fluid``,
    the charge mass ``M_charge`` and its lumped weights ``mass_vec``, the
    species operators (drift pattern and operator, species LUs) for the
    given params' dt, D_plus and D_minus, and the full pattern that the
    samples' dielectric stiffness fills.  Built once per eps and only read
    by the runs that share it.

    Every operator is the template's, tiled (``_CellOperators``): each
    pattern is one unique over the tiled template keys, each matrix one
    bincount of the tiled template data, and no fine triangle is
    assembled.
    """

    def __init__(self, mesh, params):
        self.mesh = mesh
        self.cell = _CellOperators.of(mesh.template)
        tiled = mesh.index[:, self.cell.fluid_ids]
        # the fluid vertices, numbered as mesh.fluid_submesh() numbers them
        self.fluid_ids, local = np.unique(tiled, return_inverse=True)
        self.fluid_vertices = mesh.vertices[self.fluid_ids]
        fluid, slots = self.cell.fluid.tiled(local.reshape(tiled.shape))
        self.A_fluid = fluid.assembled(_tile(slots, self.cell.stiffness))
        self.M_charge = fluid.assembled(_tile(slots, self.cell.mass)
                                        / mesh.n ** 2)
        self.mass_vec = np.asarray(self.M_charge.sum(axis=1)).ravel()
        self.full, self.full_slots = self.cell.full.tiled(mesh.index)
        self.species = _SpeciesOperators(
            params, self.fluid_vertices, self.fluid_ids, self.mass_vec,
            self.A_fluid, fluid)


class MicroProblem(_Transport):
    """Assembled fine-scale problem for one (mesh, params, fields, omega).

    ``mesh`` is a FineDomain, shared by the runs of one eps, or a tiled mesh,
    which gets a FineDomain of its own; the problem keeps it as ``domain``.
    A domain built for another dt, D_plus or D_minus raises ValueError.
    Only the dielectric stiffness, the surface weights and the Poisson
    factorization depend on omega and are built here, from the fields on
    the template; the drift matrix is refilled on the domain's pattern at
    every Gummel iterate from the current potential.
    """

    def __init__(self, mesh, params, fields, omega):
        domain = mesh if isinstance(mesh, FineDomain) else FineDomain(
            mesh, params)
        self.domain = domain
        self.fields = fields
        self.omega = np.asarray(omega, dtype=float)
        self.eps = domain.mesh.epsilon
        cell = domain.cell
        template, n = domain.mesh.template, domain.mesh.n

        # the fields at (T(y) omega, n y mod 1) on the template, the same in
        # every cell; rho_f on phase 0 (fluid), rho_s on phase 1 (solid)
        csum = phase_integrals(
            template.vertices, template.triangles, template.tri_phase,
            [partial(eval_field_cell, f, self.omega, n=n)
             for f in (fields.rho_f, fields.rho_s)])
        local = element_stiffness(*cell.geometry, csum)
        self.A_theta = domain.full.assembled(_tile(
            domain.full_slots, np.bincount(cell.full_slots, local.ravel())))
        load = assemble_interface_load(
            template.vertices, template.interface_edges,
            partial(eval_field_cell, fields.eta, self.omega, n=n))
        self.surface_w = self.eps * np.bincount(domain.mesh.index.ravel(),
                                                np.tile(load, n * n))
        self._setup(params, fields.gamma, domain.species, self.A_theta,
                    (self.eps, self.surface_w))

    # bound in the class body so that profilers walking vars(MicroProblem),
    # such as bench/tracer.py, time them under this class
    run = _Transport.run
    solve_poisson = _Transport.solve_poisson

    @property
    def fluid_ids(self):
        return self.domain.fluid_ids

    @property
    def mass_vec(self):
        return self.domain.mass_vec

    def charge_rhs(self, state):
        p = self.params
        M = self.domain.M_charge
        q_f = p.F_const * (p.z_plus * (M @ state.conc_plus)
                           - p.z_minus * (M @ state.conc_minus))
        b = np.zeros(self.domain.mesh.n_vertices)
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
