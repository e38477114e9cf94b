import math
import os

import numpy as np
import pytest

from pnphom.fem import edge_quadrature_points
from pnphom.geometry import UnitCellSpec, build_template_cell, tile_domain
from pnphom.twoscale import (
    CosProductFactor,
    OscillationReport,
    TestIntegrand,
    TrigFactor,
    _abs_power_integral,
    bundled_suite,
    convergence_table,
    count_error_inversions,
    surface_oscillation,
    volume_oscillation,
)


@pytest.fixture(scope="module")
def cell():
    spec = UnitCellSpec(n_interface_segments=64, target_edge_length=1.0 / 8)
    return build_template_cell(spec)


def rel_errors(report):
    return [r["rel_error"] for r in report.rows]


def brute_mean(factor, power=1, N=2048):
    u = (np.arange(N) + 0.5) / N
    return float((np.abs(factor.value_outer(u, u)) ** power).mean())


# ---------------------------------------------------------------------------
# factor algebra


def test_trig_factor_integrals():
    g = TrigFactor.from_modes(1.25, cos_modes=[((1, 0), 0.5), ((2, 1), -0.3)],
                              sin_modes=[((0, 1), 0.2)])
    assert abs(g.integral() - 1.25) < 1e-14
    assert abs(g.integral() - brute_mean(g)) < 1e-12
    assert abs(g.squared_integral() - brute_mean(g, 2)) < 1e-11


def test_cos_product_factor_integrals():
    f = CosProductFactor.from_modes(1.0, [((1, 1), -0.5), ((2, 0), 0.25)])
    assert abs(f.integral() - 1.0) < 1e-14
    # orthogonality of the half-period cosine family on [0,1]^2
    expected_sq = 1.0 + 0.25 * 0.25 + 0.0625 * 0.5
    assert abs(f.squared_integral() - expected_sq) < 1e-14
    assert abs(f.squared_integral() - brute_mean(f, 2)) < 1e-10


def test_factor_product_matches_pointwise():
    a = TrigFactor.from_modes(1.0, cos_modes=[((1, 0), 0.4)],
                              sin_modes=[((1, 1), 0.3)])
    b = TrigFactor.from_modes(0.5, cos_modes=[((1, 0), 0.2)],
                              sin_modes=[((1, 1), 0.15)])
    prod = a * b
    rng = np.random.default_rng(3)
    pts = rng.random((200, 2))
    assert np.allclose(prod.value(pts), a.value(pts) * b.value(pts),
                       atol=1e-12)
    if prod.min_bound() >= 0:
        assert abs(prod.integral() - brute_mean(prod)) < 1e-6


def test_min_bound_is_lower_bound():
    rng = np.random.default_rng(11)
    pts = rng.random((5000, 2))
    for fac in (TrigFactor.from_modes(1.0, cos_modes=[((1, 2), 0.7)]),
                CosProductFactor.from_modes(1.0, [((3, 1), 0.6)])):
        assert fac.value(pts).min() >= fac.min_bound() - 1e-12


def test_abs_power_integral_paths():
    g = TrigFactor.from_modes(2.0, cos_modes=[((1, 0), 0.5)])
    assert abs(_abs_power_integral(g, 1) - 2.0) < 1e-14
    assert abs(_abs_power_integral(g, 2) - g.squared_integral()) < 1e-13
    # fractional power falls back to quadrature
    val = _abs_power_integral(g, 1.5)
    assert abs(val - brute_mean(g, 1.5)) < 1e-6
    # cached
    assert _abs_power_integral(g, 1.5) == val


def test_integrand_validation():
    with pytest.raises(ValueError):
        TestIntegrand(p=0.5)
    with pytest.raises(ValueError):
        TestIntegrand(g=CosProductFactor.from_modes(1.0))
    a = TestIntegrand()
    assert a.omega_independent()


# ---------------------------------------------------------------------------
# volume estimator


def test_volume_constant_is_exact():
    a = TestIntegrand(name="one")
    for eps in (0.5, 0.25, 0.125):
        est = volume_oscillation(a, eps)
        assert est.value == pytest.approx(1.0, abs=1e-14)
        assert est.stderr == 0.0
        assert est.M == 1


def test_volume_linear_slow_factor():
    # the midpoint grid integrates the half-period cosine exactly
    a = TestIntegrand(f=CosProductFactor.from_modes(1.0, [((1, 0), -0.5)]),
                      name="cos_x1")
    for eps in (0.5, 0.25, 0.125):
        est = volume_oscillation(a, eps)
        assert abs(est.value - 1.0) < 1e-13


def test_volume_fast_factor():
    h = TrigFactor.from_modes(1.0, cos_modes=[((1, 0), 0.5)])
    a = TestIntegrand(h=h, name="h1")
    est = volume_oscillation(a, 0.25)
    assert abs(est.value - 1.0) < 1e-3


def test_volume_p2_variant(cell):
    suite = bundled_suite()
    triple = suite[3]
    a2 = TestIntegrand(f=triple.f, g=triple.g, h=triple.h, p=2,
                       name="triple_sq")
    ref = a2.volume_reference()
    assert ref == pytest.approx(
        triple.f.squared_integral() * triple.g.squared_integral()
        * triple.h.squared_integral())
    est = volume_oscillation(a2, 0.125)
    assert abs(est.value - ref) / ref < 1e-3


def test_volume_bad_eps():
    with pytest.raises(ValueError):
        volume_oscillation(TestIntegrand(), 0.3)


def test_volume_determinism_and_seed_dependence():
    a = bundled_suite()[3]
    e1 = volume_oscillation(a, 0.25, M=8, base_seed=5)
    e2 = volume_oscillation(a, 0.25, M=8, base_seed=5)
    e3 = volume_oscillation(a, 0.25, M=8, base_seed=6)
    assert e1.value == e2.value and e1.stderr == e2.stderr
    assert e1.value != e3.value


def test_volume_product_rule():
    u = TestIntegrand(f=CosProductFactor.from_modes(1.0, [((1, 0), 0.3)]),
                      g=TrigFactor.from_modes(1.0, cos_modes=[((1, 0), 0.2)]),
                      h=TrigFactor.from_modes(1.0, cos_modes=[((0, 1), 0.3)]))
    v = TestIntegrand(f=CosProductFactor.from_modes(1.0, [((0, 2), 0.4)]),
                      g=TrigFactor.from_modes(1.0, sin_modes=[((0, 1), 0.15)]),
                      h=TrigFactor.from_modes(1.0, cos_modes=[((1, 1), 0.2)]))
    # (1 + 0.3 cos pi x1)(1 + 0.4 cos 2 pi x2), multiplied out
    f_uv = CosProductFactor.from_modes(
        1.0, [((1, 0), 0.3), ((0, 2), 0.4), ((1, 2), 0.12)])
    w = TestIntegrand(f=f_uv, g=u.g * v.g, h=u.h * v.h, name="uv")
    ref = w.volume_reference()
    est8 = volume_oscillation(w, 0.125)
    est4 = volume_oscillation(w, 0.25)
    assert abs(est8.value - ref) <= 4.0 * est8.stderr + 1e-10
    assert abs(est8.value - ref) < abs(est4.value - ref) + 2e-4


# ---------------------------------------------------------------------------
# surface estimator


def test_surface_constant_is_interface_length(cell):
    for n in (2, 4):
        mesh = tile_domain(cell, n)
        est = surface_oscillation(TestIntegrand(), mesh, 1.0 / n)
        assert abs(est.value - cell.interface_length) < 1e-12
        assert est.M == 1 and est.stderr == 0.0


def test_surface_quenched_sample_factor(cell):
    # f(x) g(w): the shift never leaves the cell on the interface, so the
    # estimate fluctuates with the sample mean of g along the shifted
    # interface; the ensemble reference is int f times mean g times |Gamma|
    suite = bundled_suite()
    a = TestIntegrand(f=suite[3].f, g=suite[3].g, name="fg")
    mesh = tile_domain(cell, 8)
    est = surface_oscillation(a, mesh, 1.0 / 8)
    ref = a.surface_reference(cell.interface_length)
    assert est.M == 64 and est.stderr > 0.0
    assert abs(est.value - ref) <= 4.0 * est.stderr


def test_surface_generic_fast_factor_equidistributes(cell):
    # for a fast factor without the reflection symmetry the scaled interface
    # integrals converge to |Gamma| times the cell mean of h, not to the
    # integral of h over the reference interface
    h = TrigFactor.from_modes(1.0, cos_modes=[((1, 0), 0.3)])
    a = TestIntegrand(h=h, name="generic_h")
    ref = a.surface_reference(cell.interface_length)
    assert ref == pytest.approx(cell.interface_length)
    pts, wts = edge_quadrature_points(cell.vertices, cell.interface_edges, 8)
    naive = float(wts.ravel().dot(h.value(pts.reshape(-1, 2))))
    assert abs(naive - ref) / ref > 0.1
    errs = {}
    for n in (4, 16):
        mesh = tile_domain(cell, n)
        est = surface_oscillation(a, mesh, 1.0 / n)
        errs[n] = abs(est.value - ref) / ref
        assert abs(est.value - naive) / naive > 0.15
    assert errs[16] < errs[4]
    assert errs[16] < 0.05


def test_surface_mesh_mismatch(cell):
    mesh = tile_domain(cell, 4)
    with pytest.raises(ValueError):
        surface_oscillation(TestIntegrand(), mesh, 1.0 / 8)


def test_surface_empty_interface():
    solid_free = UnitCellSpec(inclusion_radius=0.0)
    mesh = tile_domain(build_template_cell(solid_free), 2)
    with pytest.raises(ValueError):
        surface_oscillation(TestIntegrand(), mesh, 0.5)


# ---------------------------------------------------------------------------
# convergence tables


def test_bundled_suite_composition():
    suite = bundled_suite()
    assert [a.name for a in suite] == ["constant", "x_only", "y_only",
                                       "triple"]
    assert suite[0].omega_independent()
    assert not suite[3].omega_independent()
    for a in suite:
        assert a.f.min_bound() > 0 and a.g.min_bound() > 0
        assert a.h.min_bound() >= 0


def test_volume_table_bundled_suite():
    eps_list = [1.0 / 2, 1.0 / 4, 1.0 / 8]
    for a in bundled_suite():
        rep = convergence_table("volume", a, eps_list, M=64, base_seed=0)
        print(rep.format_table())
        assert [r["eps"] for r in rep.rows] == eps_list
        assert not any(rep.growth_flags)
        errs = rel_errors(rep)
        assert count_error_inversions(errs) <= 1
        assert errs[-1] < 5e-3
        for r in rep.rows:
            expected_M = 1 if a.omega_independent() else 64
            assert r["M"] == expected_M


def test_surface_table_bundled_suite(cell):
    eps_list = [1.0 / 2, 1.0 / 4, 1.0 / 8]
    for a in bundled_suite():
        rep = convergence_table("surface", a, eps_list, M=64, cell=cell,
                                base_seed=0)
        print(rep.format_table())
        assert not any(rep.growth_flags)
        errs = rel_errors(rep)
        assert count_error_inversions(errs) <= 1
        assert errs[-1] < 5e-3


def test_table_validation(cell):
    a = TestIntegrand()
    with pytest.raises(ValueError):
        convergence_table("volume", a, [0.25, 0.5])
    with pytest.raises(ValueError):
        convergence_table("volume", a, [0.25, 0.25])
    with pytest.raises(ValueError):
        convergence_table("surface", a, [0.5, 0.25])
    with pytest.raises(ValueError):
        convergence_table("edge", a, [0.5, 0.25])


def test_table_csv_round_trip(tmp_path):
    a = bundled_suite()[3]
    rep = convergence_table("volume", a, [0.5, 0.25], M=4, base_seed=0)
    path = os.path.join(tmp_path, "table.csv")
    rep.write_csv(path)
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "eps,M,value,reference,rel_error,mc_stderr"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    assert int(first[1]) == 4
    assert float(first[2]) == rep.rows[0]["value"]
    # byte-identical on rerun
    rep2 = convergence_table("volume", a, [0.5, 0.25], M=4, base_seed=0)
    path2 = os.path.join(tmp_path, "table2.csv")
    rep2.write_csv(path2)
    assert open(path).read() == open(path2).read()


def test_growth_flags_and_inversions():
    rows = [{"eps": 1.0 / 2 ** k, "M": 1, "value": 1.0, "reference": 1.0,
             "rel_error": e, "mc_stderr": 0.0}
            for k, e in enumerate([1e-2, 4e-3, 9e-3, 2e-3])]
    flags = [False]
    for prev, cur in zip(rows, rows[1:]):
        flags.append(cur["rel_error"] > 2.0 * max(prev["rel_error"], 1e-12))
    rep = OscillationReport("volume", "synthetic", 1.0, rows, flags)
    assert rep.growth_flags == [False, False, True, False]
    assert count_error_inversions(rel_errors(rep)) == 1
    # machine-level jitter around an exact value is not an inversion
    assert count_error_inversions([1e-16, 3e-16, 2e-15]) == 0
