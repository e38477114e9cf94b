"""Scale sweep: fine runs against the limit model, error tables, plot data.

For each scale parameter eps = 1/n in the configured list and each sample
of the shift, the fine solver runs on the tiled perforated mesh and its
trajectory is compared with the one limit-model trajectory (computed once
per config) restricted to the fluid vertices.  Relative L2 errors are
reported at the final time and in the space-time norm over snapshots,
together with the conservation diagnostics of each run.
"""

import json
import logging
import math
import os
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp

from .effective import compute_effective
from .geometry import build_template_cell, tile_domain
from .macro import MacroProblem, equilibrium_residual, macro_mesh
from .micro import FineDomain, MicroProblem, MicroRunError
from .randomfield import sample_omega

log = logging.getLogger("pnphom.sweep")

ERROR_FIELDS = ("conc_plus", "conc_minus", "potential")

COLUMNS = ("eps", "omega_index", "status",
           "err_conc_plus", "err_conc_minus", "err_potential",
           "st_err_conc_plus", "st_err_conc_minus", "st_err_potential",
           "mass_drift_max", "pi_drift_max", "equilibrium_residual")


class SweepReport:
    """Rows of per-run results plus per-eps aggregates (omega_index = -1)."""

    def __init__(self, rows=None, macro_equilibrium_residual=None):
        self.rows = list(rows or [])
        self.macro_equilibrium_residual = macro_equilibrium_residual

    def data_rows(self):
        return [r for r in self.rows if r["omega_index"] >= 0]

    def aggregate_rows(self):
        return [r for r in self.rows if r["omega_index"] < 0]

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(COLUMNS) + "\n")
            for row in self.rows:
                cells = []
                for name in COLUMNS:
                    val = row[name]
                    if name == "status":
                        cells.append(str(val))
                    elif name == "omega_index":
                        cells.append("%d" % val)
                    else:
                        cells.append("%.17g" % val)
                fh.write(",".join(cells) + "\n")

    def format_table(self):
        lines = ["%8s %6s %12s %12s %12s" % ("eps", "M", "err_conc+",
                                             "err_conc-", "err_pot")]
        for row in self.aggregate_rows():
            lines.append("%8.5f %6d %12.5e %12.5e %12.5e" % (
                row["eps"], row["n_samples"], row["err_conc_plus"],
                row["err_conc_minus"], row["err_potential"]))
        return "\n".join(lines)


def _trapezoid_weights(times):
    t = np.asarray(times, dtype=float)
    if t.shape[0] == 1:
        return np.ones(1)
    w = np.empty_like(t)
    w[0] = 0.5 * (t[1] - t[0])
    w[-1] = 0.5 * (t[-1] - t[-2])
    w[1:-1] = 0.5 * (t[2:] - t[:-2])
    return w


def _grid_resolution(mesh):
    """Side count n of a mesh with ``macro_mesh``'s layout, or ValueError.

    The layout: vertices on the grid (i/n, j/n), and triangles 2(j n + i)
    and 2(j n + i) + 1 splitting cell [i/n, (i+1)/n] x [j/n, (j+1)/n] along
    one of its diagonals.
    """
    tris = np.asarray(mesh.triangles)
    n = int(round(math.sqrt(tris.shape[0] / 2.0)))
    if n < 1 or tris.shape[0] != 2 * n * n:
        raise ValueError("limit mesh is not a macro grid: %d triangles"
                         % tris.shape[0])
    grid = np.asarray(mesh.vertices, dtype=float) * n
    corners = np.rint(grid)
    cells = np.arange(n * n).repeat(2)
    offsets = corners[tris] - np.column_stack([cells % n, cells // n])[:, None]
    # corner codes di + 2 dj in the cell, so opposite corners sum to 3; the
    # two triangles split the cell along a diagonal when the corners they
    # leave out (6 minus the sum of their codes) are opposite
    codes = np.sort(offsets[..., 0] + 2 * offsets[..., 1], axis=1)
    missing = 6 - codes.sum(axis=1)
    if (np.abs(grid - corners).max() > 1e-9
            or not np.isin(offsets, (0.0, 1.0)).all()
            or (np.diff(codes, axis=1) == 0).any()
            or (missing[0::2] + missing[1::2] != 3).any()):
        raise ValueError("limit mesh triangles are not the macro grid's")
    return n


class MacroReference:
    """The limit-model trajectory, evaluated as the P1 function the limit
    solver computed on its uniform grid (``macro_mesh``)."""

    DOMAIN_TOL = 1e-12

    def __init__(self, mesh, snapshots, ledger, params):
        self.mesh = mesh
        self.snapshots = snapshots
        self.ledger = ledger
        self.times = [s.t for s in snapshots]
        self._n = _grid_resolution(mesh)
        self._triangles = np.asarray(mesh.triangles)
        verts = np.asarray(mesh.vertices, dtype=float)
        self._origin = verts[self._triangles[:, 0]]
        edges = verts[self._triangles[:, 1:]] - self._origin[:, None, :]
        self._inverse = np.linalg.inv(edges.transpose(0, 2, 1))
        self.equilibrium_residual = equilibrium_residual(ledger, params)

    def interpolation_matrix(self, points):
        """Sparse (n_points, n_vertices) matrix of P1 barycentric weights.

        A point is located in its grid cell floor(x n), clipped to the
        grid, then in whichever of the cell's two triangles holds it.
        Points outside the closed unit square raise RuntimeError.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        if ((pts < -self.DOMAIN_TOL) | (pts > 1.0 + self.DOMAIN_TOL)).any():
            raise RuntimeError("limit-model interpolation left the domain")
        n = self._n
        ij = np.clip(np.floor(pts * n).astype(np.int64), 0, n - 1)
        first = 2 * (ij[:, 1] * n + ij[:, 0])
        cand = np.column_stack([first, first + 1])
        local = np.einsum("pcab,pcb->pca", self._inverse[cand],
                          pts[:, None, :] - self._origin[cand])
        lam = np.concatenate([1.0 - local.sum(axis=2, keepdims=True), local],
                             axis=2)
        pick = lam.min(axis=2).argmax(axis=1)
        rows = np.arange(pts.shape[0])
        return sp.csr_matrix(
            (lam[rows, pick].ravel(), self._triangles[cand[rows, pick]].ravel(),
             3 * np.arange(pts.shape[0] + 1)),
            shape=(pts.shape[0], self.mesh.vertices.shape[0]))


def compare_trajectories(problem, snapshots, reference, interp):
    """Relative L2 errors of a fine trajectory against the reference.

    Returns (final_errors, spacetime_errors), dicts keyed by field name.
    The fine and reference snapshot grids must agree (same stepper
    parameters); errors are integrated over the fluid vertices with the
    lumped fluid measure and normalized by the reference norm there.
    interp is ``reference.interpolation_matrix(problem.fluid_vertices)``,
    which every run of one eps shares.
    """
    if len(snapshots) != len(reference.snapshots):
        raise ValueError("snapshot grids differ: %d vs %d"
                         % (len(snapshots), len(reference.snapshots)))
    w = problem.mass_vec
    tw = _trapezoid_weights(reference.times)
    final, spacetime = {}, {}
    for name in ERROR_FIELDS:
        nums, dens = [], []
        for k, snap in enumerate(snapshots):
            mic = getattr(snap, name)
            if name == "potential":
                mic = mic[problem.fluid_ids]
            mac = interp @ getattr(reference.snapshots[k], name)
            nums.append(float(np.sum(w * (mic - mac) ** 2)))
            dens.append(float(np.sum(w * mac * mac)))
        final[name] = math.sqrt(nums[-1]) / max(math.sqrt(dens[-1]), 1e-300)
        spacetime[name] = (math.sqrt(float(np.dot(tw, nums)))
                           / max(math.sqrt(float(np.dot(tw, dens))), 1e-300))
    return final, spacetime


class _SweepDomains:
    """The FineDomain of each eps of a sweep and the reference's
    interpolation matrix on its fluid vertices, built by the first run of
    that eps and dropped when its last run has taken them, so that one
    eps's operators are released before the next eps's are built.

    ns holds the n of every run.  A build takes the lock of its eps, so the
    runs of a thread pool wait for one build and then share it.
    """

    def __init__(self, template, params, reference, ns):
        self._template = template
        self._params = params
        self._reference = reference
        self._pending = Counter(ns)
        self._built = {}
        self._locks = {n: threading.Lock() for n in self._pending}

    def take(self, n):
        """(FineDomain, interpolation matrix) of eps = 1/n."""
        with self._locks[n]:
            built = self._built.pop(n, None)
            if built is None:
                domain = FineDomain(tile_domain(self._template, n),
                                    self._params)
                built = (domain, self._reference.interpolation_matrix(
                    domain.fluid_vertices))
            self._pending[n] -= 1
            if self._pending[n] > 0:
                self._built[n] = built
        return built


def _micro_run_row(domains, config, reference, n, omega_index):
    """One fine run on the FineDomain that domains (a _SweepDomains) holds
    for eps = 1/n, compared with reference through the interpolation matrix
    held with it; returns a report row dict.

    The row's equilibrium_residual is the ledger's largest pinned charge
    residual (``ConservationLedger.pinned_charge_residuals``).  Its
    wall_time, the run's wall-clock seconds, is no report column: run_sweep
    moves it to the timings.
    """
    params = config.pnp
    t0 = time.perf_counter()
    row = {"eps": 1.0 / n, "omega_index": omega_index, "status": "ok"}
    for name in COLUMNS[3:]:
        row.setdefault(name, float("nan"))
    try:
        omega = sample_omega(config.seed + omega_index).omega
        domain, interp = domains.take(n)
        problem = MicroProblem(domain, params, config.fields, omega)
        snapshots, ledger = problem.run(config.initial)
        final, spacetime = compare_trajectories(problem, snapshots,
                                                reference, interp)
        for name in ERROR_FIELDS:
            row["err_" + name] = final[name]
            row["st_err_" + name] = spacetime[name]
        row["mass_drift_max"] = ledger.max_mass_drift()
        row["pi_drift_max"] = ledger.max_pi_drift()
        row["equilibrium_residual"] = float(
            ledger.pinned_charge_residuals(params).max())
    except (MicroRunError, RuntimeError, ValueError) as exc:
        log.error("run eps=1/%d omega=%d failed: %s", n, omega_index, exc)
        row["status"] = "failed:%s" % type(exc).__name__
    row["wall_time"] = time.perf_counter() - t0
    return row


def run_sweep(config, threads=1):
    """Run the full (eps, omega) grid and aggregate; see SweepReport.

    Returns (report, timings).  The report holds no wall-clock value, so
    reruns are byte-identical; timings maps 'eps_1_<n>' to the wall-clock
    seconds of each run at that eps, in omega order.  The first run of an
    eps to start builds the FineDomain that all of that eps's runs share,
    and its seconds include the build.
    """
    template = build_template_cell(config.geometry)
    eff = compute_effective(template, config.fields, K=config.K)
    mesh = macro_mesh(config.macro_resolution)
    macro_problem = MacroProblem(mesh, eff, config.pnp, config.fields.gamma)
    macro_snaps, macro_ledger = macro_problem.run(config.initial)
    reference = MacroReference(mesh, macro_snaps, macro_ledger, config.pnp)
    log.info("limit model solved: equilibrium residual %.3e",
             reference.equilibrium_residual)

    jobs = [(n, i) for n in config.eps_list
            for i in range(config.n_omega_samples)]
    domains = _SweepDomains(template, config.pnp, reference,
                            [n for n, _ in jobs])
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(
                lambda job: _micro_run_row(domains, config, reference,
                                           job[0], job[1]), jobs))
    else:
        rows = [_micro_run_row(domains, config, reference, n, i)
                for n, i in jobs]
    rows.sort(key=lambda r: (-r["eps"], r["omega_index"]))

    timings = {}
    report_rows = []
    for n in config.eps_list:
        eps = 1.0 / n
        group = [r for r in rows if r["eps"] == eps]
        report_rows.extend(group)
        ok = [r for r in group if r["status"] == "ok"]
        agg = {"eps": eps, "omega_index": -1,
               "status": "mean[%d/%d]" % (len(ok), len(group)),
               "n_samples": len(ok)}
        for name in COLUMNS[3:]:
            vals = [r[name] for r in ok]
            agg[name] = float(np.mean(vals)) if vals else float("nan")
        report_rows.append(agg)
        timings["eps_1_%d" % n] = [round(r.pop("wall_time"), 6)
                                   for r in group]
    report = SweepReport(report_rows, reference.equilibrium_residual)
    return report, timings


def emit_plotdata(report, out_dir):
    """Write one tab-separated table per error field: eps, mean, stderr.

    The standard error is the sample standard deviation of the per-run
    final-time errors divided by sqrt(M).  Returns the written paths.
    """
    paths = []
    for name in ERROR_FIELDS:
        path = os.path.join(out_dir, "plot_err_%s.tsv" % name)
        with open(path, "w") as fh:
            fh.write("eps\tmean_err\tstderr\n")
            for agg in report.aggregate_rows():
                eps = agg["eps"]
                runs = [r for r in report.data_rows()
                        if r["eps"] == eps and r["status"] == "ok"]
                vals = np.array([r["err_" + name] for r in runs])
                if vals.size == 0:
                    continue
                stderr = (vals.std(ddof=1) / math.sqrt(vals.size)
                          if vals.size > 1 else 0.0)
                fh.write("%.17g\t%.17g\t%.17g\n"
                         % (eps, vals.mean(), stderr))
        paths.append(path)
    return paths


def write_summary(report, config, path):
    """JSON sidecar with the macro residual and per-eps aggregates.

    Real wall-clock timings are kept out of this file on purpose; they go
    to a separate sidecar so everything else is byte-stable across reruns.
    """
    aggs = []
    for row in report.aggregate_rows():
        entry = {k: row[k] for k in ("eps", "n_samples", "err_conc_plus",
                                     "err_conc_minus", "err_potential",
                                     "st_err_conc_plus", "st_err_conc_minus",
                                     "st_err_potential")}
        aggs.append(entry)
    doc = {
        "macro_equilibrium_residual": report.macro_equilibrium_residual,
        "aggregates": aggs,
        "n_omega_samples": config.n_omega_samples,
        "eps_list": config.eps_list,
        "seed": config.seed,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
