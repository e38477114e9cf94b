"""Tests for the limit-model solver.

The sharpest oracle is a uniform charged state: with constant coefficients
and a linear interface term the potential is the exact constant
theta * F * (z+ a - z- b) / (s_bar * alpha) and the whole trajectory is
stationary, so every functional is known in closed form.
"""

import numpy as np
import pytest

from pnphom.effective import EffectiveCoefficients, compute_effective
from pnphom.geometry import UnitCellSpec, build_template_cell, tile_domain
from pnphom.macro import (
    MacroProblem,
    equilibrium_residual,
    macro_mesh,
    solve_macro,
)
from pnphom.micro import MicroCoefficients, MicroProblem, PnpParams
from pnphom.randomfield import CoefficientField, GammaFunction

I2 = np.eye(2)


def unit_eff(theta=1.0, a=1.0, t=1.0, s_bar=1.0):
    return EffectiveCoefficients(theta, a * I2, a * I2, t * I2, s_bar)


def params(dt=0.05, t_final=0.25, **kw):
    return PnpParams(dt=dt, t_final=t_final, **kw)


@pytest.fixture(scope="module")
def mesh24():
    return macro_mesh(24)


def test_macro_mesh_shape():
    mesh = macro_mesh(16)
    assert mesh.n_vertices == 17 * 17
    assert mesh.n_triangles == 2 * 16 * 16
    assert mesh.fluid_area == pytest.approx(1.0, abs=1e-14)
    assert mesh.interface_length == 0.0


def test_stationary_charged_state(mesh24):
    prob = MacroProblem(mesh24, unit_eff(), params(),
                        GammaFunction("linear", alpha=1.0))
    snaps, ledger = prob.run((1.2, 0.7))
    assert np.abs(snaps[0].potential - 0.5).max() <= 1e-10
    final = snaps[-1]
    assert np.abs(final.conc_plus - 1.2).max() <= 1e-12
    assert np.abs(final.conc_minus - 0.7).max() <= 1e-12
    assert np.abs(final.potential - 0.5).max() <= 1e-10
    pi = ledger.column("pi_eps")
    assert np.abs(pi + 0.5).max() <= 1e-10
    assert equilibrium_residual(ledger, prob.params) <= 1e-10
    assert all(r["gummel_iters"] == 1 for r in ledger.rows[1:])


def test_neutral_uniform_inert(mesh24):
    prob = MacroProblem(mesh24, unit_eff(), params(),
                        GammaFunction("linear", alpha=1.0))
    snaps, ledger = prob.run((1.0, 1.0))
    assert np.abs(snaps[-1].potential).max() <= 1e-13
    assert np.abs(snaps[-1].conc_plus - 1.0).max() <= 1e-13
    assert np.abs(snaps[-1].conc_minus - 1.0).max() <= 1e-13
    assert np.abs(ledger.column("pi_eps")).max() <= 1e-13


def cosine_plus(pts):
    return 1.0 + 0.5 * np.cos(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])


def test_conservation_moving(mesh24):
    eff = EffectiveCoefficients(0.8, 0.67 * I2, 0.67 * I2, 1.9 * I2, 1.57)
    prob = MacroProblem(mesh24, eff, params(dt=0.02, t_final=0.2),
                        GammaFunction("linear", alpha=1.0))
    snaps, ledger = prob.run((cosine_plus, 0.9))
    assert ledger.max_mass_drift() <= 1e-12
    resid = ledger.charge_identity_residuals(prob.params)
    assert resid.max() <= 1e-11
    assert equilibrium_residual(ledger, prob.params) == resid.max()
    # the drift coupling must actually move the solution
    assert np.abs(snaps[-1].conc_plus - snaps[0].conc_plus).max() > 1e-3
    assert np.abs(snaps[-1].potential).max() > 1e-3
    assert ledger.flags == []


def test_theta_weighting_of_masses(mesh24):
    theta = 0.8
    eff = unit_eff(theta=theta)
    prob = MacroProblem(mesh24, eff, params(t_final=0.05),
                        GammaFunction("linear", alpha=1.0))
    snaps, ledger = prob.run((cosine_plus, 0.9))
    assert ledger.rows[0]["mass_plus"] == pytest.approx(theta * 1.0,
                                                        abs=1e-12)
    assert ledger.rows[0]["mass_minus"] == pytest.approx(theta * 0.9,
                                                         abs=1e-12)


def test_saturated_gamma_identity(mesh24):
    gamma = GammaFunction("saturated", alpha=1.0, lipschitz=3.0,
                          saturation_scale=0.5)
    prob = MacroProblem(mesh24, unit_eff(), params(dt=0.02, t_final=0.1),
                        gamma)
    snaps, ledger = prob.run((cosine_plus, 0.9))
    assert ledger.max_mass_drift() <= 1e-12
    assert equilibrium_residual(ledger, prob.params) <= 1e-9
    assert np.abs(snaps[-1].potential).max() > 1e-3


def test_s_bar_zero_neumann_potential(mesh24):
    eff = unit_eff(s_bar=0.0)
    prob = MacroProblem(mesh24, eff, params(t_final=0.1),
                        GammaFunction("linear", alpha=1.0))
    snaps, ledger = prob.run((cosine_plus, 1.0))
    for snap in snaps:
        # deflated CG pins the algebraic mean of the Neumann solution
        assert abs(np.mean(snap.potential)) <= 1e-8
    assert np.abs(snaps[0].potential).max() > 1e-3
    assert ledger.max_mass_drift() <= 1e-12
    assert np.abs(ledger.column("pi_eps")).max() == 0.0


def test_snapshot_grid_matches_micro():
    p = params(dt=0.05, t_final=0.2, n_outputs=3)
    mesh = macro_mesh(12)
    prob = MacroProblem(mesh, unit_eff(), p,
                        GammaFunction("linear", alpha=1.0))
    macro_snaps, _ = prob.run((1.0, 1.0))

    template = build_template_cell(
        UnitCellSpec(inclusion_radius=0.0, target_edge_length=1.0 / 8))
    tiled = tile_domain(template, 2)
    const = CoefficientField.constant(1.0)
    fields = MicroCoefficients(const, const, const,
                               GammaFunction("linear", alpha=1.0))
    micro = MicroProblem(tiled, p, fields, np.array([0.3, 0.7]))
    micro_snaps, _ = micro.run((1.0, 1.0))

    assert len(macro_snaps) == len(micro_snaps)
    np.testing.assert_allclose([s.t for s in macro_snaps],
                               [s.t for s in micro_snaps],
                               rtol=0.0, atol=1e-14)


def test_macro_matches_micro_on_same_mesh():
    # with unit porosity and tensors, no surface term and the fine solver's
    # constant unit fields, both solvers configure one stepper identically
    p = params(dt=0.05, t_final=0.2, n_outputs=3)
    template = build_template_cell(
        UnitCellSpec(inclusion_radius=0.0, target_edge_length=1.0 / 8))
    tiled = tile_domain(template, 2)
    const = CoefficientField.constant(1.0)
    gamma = GammaFunction("linear", alpha=1.0)
    initial = (lambda pts: 1.0 + 0.5 * np.cos(2.0 * np.pi * pts[:, 0]), 0.9)
    micro = MicroProblem(tiled, p, MicroCoefficients(const, const, const,
                                                     gamma),
                         np.array([0.3, 0.7]))
    micro_snaps, micro_ledger = micro.run(initial)
    macro = MacroProblem(tiled, EffectiveCoefficients(1.0, I2, I2, I2, 0.0),
                         p, gamma)
    macro_snaps, macro_ledger = macro.run(initial)

    assert len(macro_snaps) == len(micro_snaps)
    for ma, mi in zip(macro_snaps, micro_snaps):
        assert ma.t == mi.t
        for name in ("conc_plus", "conc_minus", "potential"):
            assert np.abs(getattr(ma, name) - getattr(mi, name)).max() <= 1e-12
    np.testing.assert_array_equal(macro_ledger.column("gummel_iters"),
                                  micro_ledger.column("gummel_iters"))
    assert macro_ledger.column("gummel_iters")[1:].min() > 1


def test_zero_horizon(mesh24):
    prob = MacroProblem(mesh24, unit_eff(), params(t_final=0.0),
                        GammaFunction("linear", alpha=1.0))
    snaps, ledger = prob.run((1.0, 1.0))
    assert len(snaps) == 1
    assert len(ledger.rows) == 1


def test_negative_initial_rejected(mesh24):
    prob = MacroProblem(mesh24, unit_eff(), params(),
                        GammaFunction("linear", alpha=1.0))
    with pytest.raises(ValueError):
        prob.initial_condition((-0.5, 1.0))


def test_pipeline_with_computed_coefficients():
    spec = UnitCellSpec(inclusion_radius=0.25, n_interface_segments=32,
                        target_edge_length=1.0 / 16)
    template = build_template_cell(spec)
    const2 = CoefficientField.constant(2.0)
    const1 = CoefficientField.constant(1.0)
    gamma = GammaFunction("linear", alpha=1.0)
    fields = MicroCoefficients(const2, const2, const1, gamma)
    eff = compute_effective(template, fields, K=8)
    mesh = macro_mesh(24)
    snaps, ledger = solve_macro(eff, params(dt=0.02, t_final=0.06),
                                mesh, (cosine_plus, 0.9), gamma)
    assert ledger.max_mass_drift() <= 1e-12
    assert equilibrium_residual(ledger, params()) <= 1e-11
    assert len(snaps) >= 2
    assert np.isfinite(snaps[-1].potential).all()
