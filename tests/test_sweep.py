"""Tests for the fine-vs-limit error sweep."""

import copy
import csv
import io
import json
import pickle
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from pnphom import sweep
from pnphom.config import load_config
from pnphom.geometry import UnitCellSpec, build_template_cell, tile_domain
from pnphom.macro import MacroProblem, macro_mesh
from pnphom.micro import (
    ConservationLedger,
    MicroProblem,
    MicroState,
    PnpParams,
)
from pnphom.randomfield import GammaFunction
from pnphom.sweep import (
    COLUMNS,
    MacroReference,
    SweepReport,
    _micro_run_row,
    _trapezoid_weights,
    compare_trajectories,
    emit_plotdata,
    run_sweep,
    write_summary,
)
from test_macro import unit_eff


def small_config(**extra):
    overrides = {
        "geometry": {"n_interface_segments": 32,
                     "target_edge_length": 1.0 / 16},
        "eps_list": [2],
        "n_omega_samples": 2,
        "macro_resolution": 32,
        "K": 8,
        "pnp": {"t_final": 0.06, "dt": 0.02, "n_outputs": 3},
    }
    overrides.update(extra)
    return load_config(overrides=overrides)


def test_trapezoid_weights_match_reference():
    t = np.array([0.0, 0.1, 0.25, 0.3, 0.55])
    f = np.sin(t) + 2.0
    w = _trapezoid_weights(t)
    assert w.dot(f) == pytest.approx(np.trapezoid(f, t), abs=1e-15)
    assert _trapezoid_weights([0.0]).tolist() == [1.0]


def make_reference(mesh, field_fn, params):
    pts = mesh.vertices
    vals = field_fn(pts)
    snaps = [MicroState(0.0, vals, vals, vals, None)]
    ledger = ConservationLedger()
    ledger.add(0.0, 0.0, 0.0, 0.0, 0.0, 1)
    return MacroReference(mesh, snaps, ledger, params)


def test_reference_reproduces_linear_fields():
    mesh = macro_mesh(8)
    params = PnpParams(dt=0.05, t_final=0.05)

    def linear(pts):
        return 0.3 + 1.7 * pts[:, 0] - 0.4 * pts[:, 1]

    ref = make_reference(mesh, linear, params)
    rng = np.random.default_rng(5)
    probe = rng.uniform(0.05, 0.95, size=(40, 2))
    got = ref.interpolation_matrix(probe) @ ref.snapshots[0].conc_plus
    assert np.abs(got - linear(probe)).max() <= 1e-13


def test_reference_rejects_outside_points():
    mesh = macro_mesh(8)
    params = PnpParams(dt=0.05, t_final=0.05)
    ref = make_reference(mesh, lambda p: np.ones(p.shape[0]), params)
    with pytest.raises(RuntimeError):
        ref.interpolation_matrix(np.array([[1.5, 0.5]]))


def test_reference_is_the_solved_p1_function():
    # random vertex values are no global linear field: only the solved
    # mesh's own triangles give the mean of their vertices at a centroid
    mesh = macro_mesh(8)
    params = PnpParams(dt=0.05, t_final=0.05)
    rng = np.random.default_rng(11)
    vals = rng.uniform(0.5, 1.5, size=mesh.vertices.shape[0])
    ref = make_reference(mesh, lambda p: vals, params)
    tris = mesh.triangles
    field = ref.snapshots[0].conc_plus
    got = ref.interpolation_matrix(mesh.vertices[tris].mean(axis=1)) @ field
    assert np.abs(got - vals[tris].mean(axis=1)).max() <= 1e-14
    got = ref.interpolation_matrix(mesh.vertices) @ field
    assert np.abs(got - vals).max() <= 1e-14

    # points on the sides x = 1 and y = 1 take the edge's linear values
    grid = np.empty((9, 9))
    ij = np.rint(mesh.vertices * 8).astype(int)
    grid[ij[:, 0], ij[:, 1]] = vals
    s = np.concatenate([rng.uniform(0.0, 1.0, size=20), [0.0, 1.0]])
    j = np.minimum(np.floor(s * 8).astype(int), 7)
    t = s * 8 - j
    for side, values in ((0, grid[8]), (1, grid[:, 8])):
        pts = np.empty((s.size, 2))
        pts[:, side] = 1.0
        pts[:, 1 - side] = s
        edge = (1.0 - t) * values[j] + t * values[j + 1]
        got = ref.interpolation_matrix(pts) @ field
        assert np.abs(got - edge).max() <= 1e-14


def test_reference_rejects_other_mesh_layouts():
    mesh = macro_mesh(8)
    params = PnpParams(dt=0.05, t_final=0.05)
    shuffled = copy.copy(mesh)
    shuffled.triangles = mesh.triangles[
        np.random.default_rng(2).permutation(mesh.triangles.shape[0])]
    perforated = build_template_cell(
        UnitCellSpec(n_interface_segments=32, target_edge_length=1.0 / 8))
    for other in (shuffled, perforated):
        with pytest.raises(ValueError):
            make_reference(other, lambda p: np.ones(p.shape[0]), params)


def test_reference_pickles():
    mesh = macro_mesh(8)
    params = PnpParams(dt=0.05, t_final=0.05)
    rng = np.random.default_rng(3)
    vals = rng.uniform(0.5, 1.5, size=mesh.vertices.shape[0])
    ref = make_reference(mesh, lambda p: vals, params)
    copied = pickle.loads(pickle.dumps(ref))
    probe = rng.uniform(0.0, 1.0, size=(50, 2))
    for name in ("conc_plus", "conc_minus", "potential"):
        assert np.array_equal(
            copied.interpolation_matrix(probe)
            @ getattr(copied.snapshots[0], name),
            ref.interpolation_matrix(probe) @ getattr(ref.snapshots[0], name))
    assert copied.times == ref.times
    assert copied.equilibrium_residual == ref.equilibrium_residual


def run_pair(cfg):
    """One micro run and the matching reference, sharing cfg.pnp."""
    from pnphom.geometry import build_template_cell, tile_domain
    from pnphom.micro import MicroProblem
    from pnphom.randomfield import sample_omega

    mesh = macro_mesh(cfg.macro_resolution)
    prob = MacroProblem(mesh, unit_eff(), cfg.pnp,
                        GammaFunction("linear", alpha=1.0))
    snaps, ledger = prob.run((1.0, 1.0))
    ref = MacroReference(mesh, snaps, ledger, cfg.pnp)

    template = build_template_cell(cfg.geometry)
    tiled = tile_domain(template, 2)
    omega = sample_omega(cfg.seed).omega
    micro = MicroProblem(tiled, cfg.pnp, cfg.fields, omega)
    return micro, ref


def test_compare_identical_constant_trajectories():
    cfg = small_config(geometry={"inclusion_radius": 0.0,
                                 "target_edge_length": 1.0 / 8},
                       fields={"rho_f": {"base": 1.0},
                               "rho_s": {"base": 1.0},
                               "eta": {"base": 1.0}})
    micro, ref = run_pair(cfg)
    snaps, _ = micro.run((1.0, 1.0))
    interp = ref.interpolation_matrix(micro.domain.fluid_vertices)
    final, spacetime = compare_trajectories(micro, snaps, ref, interp)
    for name in ("conc_plus", "conc_minus"):
        assert final[name] <= 1e-12
        assert spacetime[name] <= 1e-12


def test_compare_rejects_mismatched_grids():
    cfg = small_config()
    micro, ref = run_pair(cfg)
    snaps, _ = micro.run(cfg.initial)
    interp = ref.interpolation_matrix(micro.domain.fluid_vertices)
    with pytest.raises(ValueError):
        compare_trajectories(micro, snaps[:-1], ref, interp)


def test_micro_run_row_failure_status():
    cfg = small_config()
    from pnphom.geometry import build_template_cell

    template = build_template_cell(cfg.geometry)
    mesh = macro_mesh(cfg.macro_resolution)
    prob = MacroProblem(mesh, unit_eff(), cfg.pnp,
                        GammaFunction("linear", alpha=1.0))
    snaps, ledger = prob.run((1.0, 1.0))
    bad_ref = MacroReference(mesh, snaps[:-1], ledger, cfg.pnp)
    row = _micro_run_row(sweep._SweepDomains(template, cfg.pnp, bad_ref,
                                             [2]), cfg, bad_ref, 2, 0)
    assert row["status"] == "failed:ValueError"
    assert np.isnan(row["err_conc_plus"])
    assert row["wall_time"] > 0.0


def test_diverging_fine_run_is_a_failed_row(monkeypatch):
    # the limit run keeps the config's physics; the first fine run gets a
    # drift strong enough for its Gummel iterates to overflow
    cfg = small_config()
    strong = PnpParams(**dict(vars(cfg.pnp), c=16.0, F_const=10.0))
    built = []

    def problem(mesh, params, fields, omega):
        built.append(omega)
        return MicroProblem(mesh, strong if len(built) == 1 else params,
                            fields, omega)

    monkeypatch.setattr(sweep, "MicroProblem", problem)
    report, _ = run_sweep(cfg)
    rows = report.data_rows()
    assert [r["status"] for r in rows] == ["failed:MicroRunError", "ok"]
    assert np.isnan(rows[0]["err_conc_plus"])
    assert np.isfinite(rows[1]["err_conc_plus"])
    assert report.aggregate_rows()[0]["status"] == "mean[1/2]"


def test_fine_domain_built_once_per_eps(monkeypatch):
    # D_plus == D_minus: one species LU per eps, shared by its runs, and
    # one Poisson LU per run; one limit-field interpolation matrix per eps
    cfg = small_config(eps_list=[2, 3])
    sizes = []
    splu = spla.splu
    interpolated = []
    interpolation_matrix = MacroReference.interpolation_matrix

    def recording_splu(A, *args, **kwargs):
        sizes.append(A.shape[0])
        return splu(A, *args, **kwargs)

    def recording_interpolation(reference, points):
        interpolated.append(len(points))
        return interpolation_matrix(reference, points)

    monkeypatch.setattr(spla, "splu", recording_splu)
    monkeypatch.setattr(MacroReference, "interpolation_matrix",
                        recording_interpolation)
    report, _ = run_sweep(cfg)
    assert all(r["status"] == "ok" for r in report.data_rows())
    assert len(interpolated) == len(cfg.eps_list)
    template = build_template_cell(cfg.geometry)
    for n in cfg.eps_list:
        mesh = tile_domain(template, n)
        n_fluid = len(mesh.fluid_submesh()[0])
        assert sizes.count(n_fluid) == 1
        assert interpolated.count(n_fluid) == 1
        assert sizes.count(mesh.n_vertices) == cfg.n_omega_samples


def test_sweep_domains_one_build_per_eps_under_threads(monkeypatch):
    # more threads than cores, switching often: each eps is built once,
    # every run of an eps gets the same domain, and none is kept after
    # its last run
    builds = []

    class FakeDomain:
        def __init__(self, mesh, params):
            time.sleep(0.01)  # a build releases the interpreter lock
            builds.append(mesh)
            self.fluid_vertices = mesh

    class FakeReference:
        def interpolation_matrix(self, points):
            return points

    monkeypatch.setattr(sweep, "tile_domain", lambda template, n: n)
    monkeypatch.setattr(sweep, "FineDomain", FakeDomain)
    ns = [n for n in (2, 3, 4) for _ in range(40)]
    domains = sweep._SweepDomains(None, None, FakeReference(), ns)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(domains.take, n) for n in ns]
            taken = [f.result(timeout=30) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(builds) == [2, 3, 4]
    for n in (2, 3, 4):
        assert len({id(d) for (d, _), m in zip(taken, ns) if m == n}) == 1
    assert all(interp == n for (_, interp), n in zip(taken, ns))
    assert domains._built == {}


@pytest.fixture(scope="module")
def sweep_result():
    cfg = load_config(overrides={
        "geometry": {"n_interface_segments": 32,
                     "target_edge_length": 1.0 / 16},
        "eps_list": [2, 3],
        "n_omega_samples": 2,
        "macro_resolution": 32,
        "K": 8,
        "pnp": {"t_final": 0.06, "dt": 0.02, "n_outputs": 3},
    })
    report, timings = run_sweep(cfg)
    return cfg, report, timings


def test_report_structure(sweep_result):
    cfg, report, timings = sweep_result
    assert len(report.rows) == 2 * (2 + 1)
    assert len(report.data_rows()) == 4
    aggs = report.aggregate_rows()
    assert [a["eps"] for a in aggs] == [0.5, pytest.approx(1.0 / 3)]
    for agg in aggs:
        runs = [r for r in report.data_rows() if r["eps"] == agg["eps"]]
        assert agg["status"] == "mean[2/2]"
        for name in ("err_conc_plus", "st_err_potential",
                     "mass_drift_max"):
            assert agg[name] == pytest.approx(
                np.mean([r[name] for r in runs]), rel=1e-15)
    assert set(timings) == {"eps_1_2", "eps_1_3"}
    assert all(len(v) == 2 for v in timings.values())
    assert report.macro_equilibrium_residual <= 1e-12
    for row in report.data_rows():
        assert row["status"] == "ok"
        assert 0.0 < row["err_conc_plus"] < 0.5
        assert row["mass_drift_max"] <= 1e-10
        assert row["equilibrium_residual"] <= 1e-10
    # wall-clock seconds go to the timings, never to the report
    assert "wall_time" not in COLUMNS
    assert all(t > 0.0 for runs in timings.values() for t in runs)


def test_report_csv_format(sweep_result, tmp_path):
    _, report, _ = sweep_result
    path = tmp_path / "report.csv"
    report.write_csv(str(path))
    rows = list(csv.DictReader(open(path)))
    assert list(rows[0]) == list(COLUMNS)
    assert len(rows) == len(report.rows)
    assert rows[0]["omega_index"] == "0"
    assert rows[2]["omega_index"] == "-1"
    # enough digits for exact float round trip
    val = float(rows[0]["err_conc_plus"])
    assert val == report.rows[0]["err_conc_plus"]


def test_plotdata_files(sweep_result, tmp_path):
    _, report, _ = sweep_result
    paths = emit_plotdata(report, str(tmp_path))
    assert len(paths) == 3
    for path in paths:
        lines = open(path).read().strip().split("\n")
        assert lines[0] == "eps\tmean_err\tstderr"
        assert len(lines) == 1 + 2
        eps_col = [float(l.split("\t")[0]) for l in lines[1:]]
        assert eps_col == sorted(eps_col, reverse=True)
        for line in lines[1:]:
            _, mean, stderr = (float(x) for x in line.split("\t"))
            assert mean > 0.0 and stderr >= 0.0


def test_plotdata_empty_report(tmp_path):
    paths = emit_plotdata(SweepReport([]), str(tmp_path))
    for path in paths:
        assert open(path).read() == "eps\tmean_err\tstderr\n"


def test_summary_json(sweep_result, tmp_path):
    cfg, report, _ = sweep_result
    path = tmp_path / "summary.json"
    write_summary(report, cfg, str(path))
    doc = json.loads(path.read_text())
    assert set(doc) == {"macro_equilibrium_residual", "aggregates",
                        "n_omega_samples", "eps_list", "seed"}
    assert doc["eps_list"] == [2, 3]
    assert len(doc["aggregates"]) == 2
    assert doc["aggregates"][0]["n_samples"] == 2


def test_determinism_and_threads(tmp_path):
    cfg = small_config()

    def render(report):
        buf = io.StringIO()
        for row in report.rows:
            buf.write(repr(sorted(row.items())))
        return buf.getvalue()

    r1, _ = run_sweep(cfg)
    r2, _ = run_sweep(cfg)
    r3, _ = run_sweep(cfg, threads=2)
    assert render(r1) == render(r2) == render(r3)
