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
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.interpolate import LinearNDInterpolator

from .effective import compute_effective
from .geometry import build_template_cell, tile_domain
from .macro import MacroProblem, macro_mesh
from .micro import MicroProblem, MicroRunError
from .randomfield import sample_omega

log = logging.getLogger("pnphom.sweep")

ERROR_FIELDS = ("conc_plus", "conc_minus", "potential")

COLUMNS = ("eps", "omega_index", "status",
           "err_conc_plus", "err_conc_minus", "err_potential",
           "st_err_conc_plus", "st_err_conc_minus", "st_err_potential",
           "mass_drift_max", "pi_drift_max", "equilibrium_residual",
           "wall_time")


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


class MacroReference:
    """The limit-model trajectory with vectorized point evaluation."""

    def __init__(self, mesh, snapshots, ledger, params):
        self.snapshots = snapshots
        self.ledger = ledger
        self.times = [s.t for s in snapshots]
        self._interp = {}
        for name in ERROR_FIELDS:
            self._interp[name] = [
                LinearNDInterpolator(mesh.vertices, getattr(s, name))
                for s in snapshots]
        self.equilibrium_residual = float(
            ledger.charge_identity_residuals(params).max())

    def evaluate(self, name, snapshot_index, points):
        vals = self._interp[name][snapshot_index](points)
        if np.isnan(vals).any():
            raise RuntimeError("limit-model interpolation left the domain")
        return vals


def compare_trajectories(problem, snapshots, reference):
    """Relative L2 errors of a fine trajectory against the reference.

    Returns (final_errors, spacetime_errors), dicts keyed by field name.
    The fine and reference snapshot grids must agree (same stepper
    parameters); errors are integrated over the fluid vertices with the
    lumped fluid measure and normalized by the reference norm there.
    """
    if len(snapshots) != len(reference.snapshots):
        raise ValueError("snapshot grids differ: %d vs %d"
                         % (len(snapshots), len(reference.snapshots)))
    pts = problem.fluid_vertices
    w = problem.mass_vec
    tw = _trapezoid_weights(reference.times)
    final, spacetime = {}, {}
    for name in ERROR_FIELDS:
        nums, dens = [], []
        for k, snap in enumerate(snapshots):
            mic = getattr(snap, name)
            if name == "potential":
                mic = mic[problem.fluid_ids]
            mac = reference.evaluate(name, k, pts)
            nums.append(float(np.sum(w * (mic - mac) ** 2)))
            dens.append(float(np.sum(w * mac * mac)))
        final[name] = math.sqrt(nums[-1]) / max(math.sqrt(dens[-1]), 1e-300)
        spacetime[name] = (math.sqrt(float(np.dot(tw, nums)))
                           / max(math.sqrt(float(np.dot(tw, dens))), 1e-300))
    return final, spacetime


def _micro_run_row(template, config, reference, n, omega_index):
    """One fine run; returns a report row dict."""
    params = config.pnp
    t0 = time.perf_counter()
    row = {"eps": 1.0 / n, "omega_index": omega_index, "status": "ok"}
    for name in COLUMNS[3:]:
        row.setdefault(name, float("nan"))
    try:
        omega = sample_omega(config.seed + omega_index).omega
        mesh = tile_domain(template, n)
        problem = MicroProblem(mesh, params, config.fields, omega)
        snapshots, ledger = problem.run(config.initial)
        final, spacetime = compare_trajectories(problem, snapshots,
                                                reference)
        for name in ERROR_FIELDS:
            row["err_" + name] = final[name]
            row["st_err_" + name] = spacetime[name]
        row["mass_drift_max"] = ledger.max_mass_drift()
        row["pi_drift_max"] = ledger.max_pi_drift()
        m0p = ledger.rows[0]["mass_plus"]
        m0m = ledger.rows[0]["mass_minus"]
        pinned = -params.F_const * (params.z_plus * m0p
                                    - params.z_minus * m0m)
        row["equilibrium_residual"] = float(
            np.abs(ledger.column("pi_eps") - pinned).max())
    except (MicroRunError, RuntimeError, ValueError) as exc:
        log.error("run eps=1/%d omega=%d failed: %s", n, omega_index, exc)
        row["status"] = "failed:%s" % type(exc).__name__
    row["wall_time"] = time.perf_counter() - t0
    return row


def run_sweep(config, threads=1, deterministic=True):
    """Run the full (eps, omega) grid and aggregate; see SweepReport.

    With deterministic=True the wall_time column is zeroed (reruns must be
    byte-identical); real timings are returned separately in the second
    element of the tuple.
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
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(
                lambda job: _micro_run_row(template, config, reference,
                                           job[0], job[1]), jobs))
    else:
        rows = [_micro_run_row(template, config, reference, n, i)
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
        timings["eps_1_%d" % n] = [round(r["wall_time"], 6) for r in group]
    if deterministic:
        for row in report_rows:
            row["wall_time"] = 0.0
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
