"""Limit-model solver on the unperforated domain.

The fine-scale system homogenizes to constant-coefficient drift-diffusion
on the full unit square: the time derivative and the charge density carry
the porosity factor, species diffuse with the cell tensor, the drift is
coupled through the drift tensor (equal to the cell tensor, see
``effective``), and the interface nonlinearity collapses to a volume
zeroth-order term weighted by the averaged surface factor.
``MacroProblem`` only assembles these operators (porosity, ``A_hom``,
``B_hom``, ``theta_eff``, ``s_bar``) and runs the fine solver's transport
stepper (``micro._Transport``) on them, so conservation identities hold to
solver precision and trajectories are directly comparable.
"""

import numpy as np

from .fem import element_mass, element_stiffness, mesh_pattern, tri_geometry
from .geometry import UnitCellSpec, build_template_cell
from .micro import _SpeciesOperators, _Transport


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
        # every operator sums its element matrices on the drift's pattern
        pattern, slots = mesh_pattern(v, mesh.triangles,
                                      np.asarray(eff.B_hom))
        areas, grads = tri_geometry(v, mesh.triangles)

        def assembled(local):
            return pattern.assembled(np.bincount(slots, local.ravel()))

        self.M_charge = assembled(element_mass(areas))
        mass_vec = np.asarray(self.M_charge.sum(axis=1)).ravel()
        species = _SpeciesOperators(
            params, v, np.arange(v.shape[0]), eff.theta * mass_vec,
            assembled(element_stiffness(areas, grads, eff.A_hom)), pattern)
        self._setup(params, gamma, species,
                    assembled(element_stiffness(areas, grads, eff.theta_eff)),
                    (eff.s_bar, mass_vec))

    # bound in the class body so that profilers walking vars(MacroProblem),
    # such as bench/tracer.py, time it under this class
    run = _Transport.run

    def charge_rhs(self, state):
        p = self.params
        q = (p.z_plus * state.conc_plus - p.z_minus * state.conc_minus)
        return self.eff.theta * p.F_const * (self.M_charge @ q)


def equilibrium_residual(ledger, params):
    """Largest charge identity residual of a ledger,
    max |pi_eps + F (z+ M+ - z- M-)| over its rows; zero when the discrete
    weak Poisson identity with test function one holds at every row."""
    return float(ledger.charge_identity_residuals(params).max())
