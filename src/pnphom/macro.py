"""Limit-model solver on the unperforated domain.

The fine-scale system homogenizes to constant-coefficient drift-diffusion
on the full unit square: the time derivative and the charge density carry
the porosity factor, species diffuse with the cell tensor, the drift is
coupled through the drift tensor, and the interface nonlinearity collapses
to a volume zeroth-order term weighted by the averaged surface factor.
``MacroProblem`` only assembles these operators (porosity, ``A_hom``,
``B_hom``, ``theta_eff``, ``s_bar``) and runs the fine solver's transport
stepper (``micro._Transport``) on them, so conservation identities hold to
solver precision and trajectories are directly comparable.
"""

import numpy as np

from .fem import assemble_mass, assemble_stiffness
from .geometry import UnitCellSpec, build_template_cell
from .micro import _Transport


def macro_mesh(resolution=96):
    """Uniform unperforated triangulation of the unit square."""
    spec = UnitCellSpec(inclusion_radius=0.0,
                        target_edge_length=1.0 / resolution)
    return build_template_cell(spec)


class MacroProblem(_Transport):
    """Assembled limit model for one coefficient set.

    Parameters
    ----------
    mesh : object with vertices (nv, 2) and triangles (nt, 3)
    eff : EffectiveCoefficients
    params : PnpParams (same time grid as the fine runs it is compared to)
    gamma : GammaFunction
    """

    def __init__(self, mesh, eff, params, gamma):
        self.mesh = mesh
        self.eff = eff
        self.omega = None
        v = mesh.vertices
        t = mesh.triangles
        self.M_charge = assemble_mass(v, t)
        mass_vec = self.M_charge.row_sums()
        self._setup(params, gamma, v, t, np.arange(v.shape[0]),
                    eff.theta * mass_vec,
                    assemble_stiffness(v, t, coefficient=eff.A_hom),
                    np.asarray(eff.B_hom),
                    assemble_stiffness(v, t, coefficient=eff.theta_eff),
                    (eff.s_bar, mass_vec))

    # bound in the class body so that profilers walking vars(MacroProblem),
    # such as bench/tracer.py, time it under this class
    run = _Transport.run

    def charge_rhs(self, state):
        p = self.params
        q = (p.z_plus * state.conc_plus - p.z_minus * state.conc_minus)
        return self.eff.theta * p.F_const * self.M_charge.matvec(q)


def solve_macro(eff, params, mesh, initial_spec, gamma):
    """One-call limit-model run; see MacroProblem.run."""
    problem = MacroProblem(mesh, eff, params, gamma)
    return problem.run(initial_spec)


def equilibrium_residual(ledger, params):
    """Largest deviation of the surface functional from the value pinned
    by the initial charge; zero when the global equilibrium identity holds."""
    return float(ledger.charge_identity_residuals(params).max())
