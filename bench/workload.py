"""One benchmark workload, run in the current process.

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1

``bench/run.py`` starts this file in a fresh process with fixed thread
counts.  A pass is one complete use of the library, from config load to
the last output file.  After one untimed smoke-size pass, passes repeat
with the same inputs until the next one would end after ``--seconds``, and
at least MIN_PASSES times.  With ``--trace 1`` untraced and traced passes
alternate, starting untraced, and the per-layer metrics are medians over
the traced passes.  The last line of standard output is the result JSON.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")
PHYSICS = os.path.join(ROOT, "configs", "default.json")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import pnphom  # noqa: E402
from pnphom import config, geometry, micro, randomfield, sweep  # noqa: E402

from tracer import Tracer, summarize  # noqa: E402

MIN_PASSES = {0: 3, 1: 2}
DRIFT_BOUND = 1e-7        # mass and surface-functional drift, criteria 03/08
EQUILIBRIUM_BOUND = 1e-7  # fine and limit equilibrium residuals, criterion 08

SHORT_RUN = {"t_final": 0.1, "n_outputs": 5}
GENERAL_FIELDS = {
    "rho_f": {"base": 2.0, "y_modes": [[[1, 0], 0.3]],
              "w_modes": [[[1, 0], 0.6]], "floor": 0.5},
    "rho_s": {"base": 2.0, "y_modes": [[[0, 1], 0.3]],
              "w_modes": [[[1, 0], 0.6]], "floor": 0.5},
}
# Overrides merged over configs/default.json; the seed is added per run.
WORKLOADS = {
    "sweep-fine": {"eps_list": [3], "n_omega_samples": 2,
                   "macro_resolution": 48, "pnp": SHORT_RUN},
    "limit-general": {"eps_list": [2], "n_omega_samples": 1, "K": 4,
                      "macro_resolution": 48, "pnp": SHORT_RUN,
                      "fields": GENERAL_FIELDS},
    "micro-nonlinear": {"eps_list": [3], "n_omega_samples": 2,
                        "gamma": {"kind": "saturated", "alpha": 1.0,
                                  "lipschitz": 3.0, "saturation_scale": 0.5},
                        "pnp": dict(SHORT_RUN, D_minus=0.5)},
}
# Seconds-long sizes for the benchmark's own tests.
SMOKE = {"eps_list": [2], "n_omega_samples": 1, "K": 4,
         "macro_resolution": 16, "pnp": {"t_final": 0.04, "n_outputs": 2}}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("fine_runs_per_s", "1/s"),
              ("peak_rss_mb", "MB"))

# per-layer metric -> span whose inclusive time (_s) or call count it is
SPAN_TIMES = {
    "geometry.template_s": "geometry.build_template_cell",
    "geometry.tile_s": "geometry.tile_domain",
    "randomfield.field_eval_s": "randomfield.eval_field_eps",
    "fem.drift_assembly_s": "fem.assemble_drift",
    "fem.tri_gradient_s": "fem.tri_gradient",
    "fem.bicgstab_s": "fem.bicgstab_solve",
    "fem.stiffness_assembly_s": "fem.assemble_stiffness",
    "fem.cg_s": "fem.cg_solve",
    "fem.newton_s": "fem.newton_solve",
    "micro.setup_s": "micro.MicroProblem.__init__",
    "micro.run_s": "micro.MicroProblem.run",
    "micro.poisson_s": "micro.MicroProblem.solve_poisson",
    "macro.setup_s": "macro.MacroProblem.__init__",
    "macro.run_s": "macro.MacroProblem.run",
    "effective.total_s": "effective.compute_effective",
    "effective.dielectric_cell_s": "effective.solve_dielectric_single",
    "effective.drift_cell_s": "effective.solve_drift_cell",
    "sweep.ref_build_s": "sweep.MacroReference.__init__",
    "sweep.ref_eval_s": "sweep.MacroReference.evaluate",
    "sweep.compare_s": "sweep.compare_trajectories",
}
SPAN_CALLS = {
    "fem.drift_assembly_calls": "fem.assemble_drift",
    "effective.dielectric_cell_solves": "effective.solve_dielectric_single",
}
# counters the tracer takes from results and from splu attribution
COUNTERS = (("fem.bicgstab_iters", "count"), ("fem.cg_iters", "count"),
            ("fem.newton_iters", "count"), ("micro.gummel_iters", "count"),
            ("micro.lu_count", "count"), ("micro.lu_s", "s"),
            ("macro.gummel_iters", "count"), ("macro.lu_count", "count"),
            ("effective.lu_count", "count"), ("effective.lu_s", "s"))
LAYERS = ("config", "geometry", "randomfield", "fem", "micro", "macro",
          "effective", "sweep", "bench")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def per_layer_units():
    units = {name: "s" for name in SPAN_TIMES}
    units.update({name: "count" for name in SPAN_CALLS})
    units.update(dict(COUNTERS))
    units.update({layer + ".self_share": "ratio" for layer in LAYERS})
    units.update({"fine_run.p50_s": "s",
                  "trace.wall_s": "s", "trace.overhead_s": "s",
                  "trace.coverage": "ratio", "trace.spans": "count"})
    return units


def merged(base, override):
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merged(out[key], value)
        else:
            out[key] = value
    return out


def load(workload, seed, smoke):
    overrides = WORKLOADS[workload]
    if smoke:
        overrides = merged(overrides, SMOKE)
    return config.load_config(PHYSICS, dict(overrides, seed=seed))


class PassResult:
    """Timings, operation counts, check failures and output bytes."""

    def __init__(self):
        self.wall = self.setup = None
        self.fine = []          # wall time of each fine run
        self.completed = 0      # fine runs that passed every check
        self.attempted = 0
        self.failures = []      # one message per failed operation
        self.output = b""       # the pass's output files, for comparison
        self.rss_mb = None      # process peak RSS at the end of the pass

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)
        return ok


def _finite(value):
    return isinstance(value, float) and math.isfinite(value)


def sweep_pass(workload, seed, smoke, tracer, out_dir):
    """run_sweep at the library defaults, then write its report files."""
    res = PassResult()
    t0 = time.perf_counter()
    cfg = load(workload, seed, smoke)
    res.attempted = 2 + len(cfg.eps_list) * cfg.n_omega_samples
    try:
        report, timings = sweep.run_sweep(cfg)
    except Exception:  # the pass fails as a whole; later checks need a report
        res.failures.extend(["run_sweep raised:\n" + traceback.format_exc()]
                            * res.attempted)
        return res
    t_sweep = time.perf_counter()
    path = os.path.join(out_dir, "sweep_report.csv")
    report.write_csv(path)
    sweep.write_summary(report, cfg, os.path.join(out_dir,
                                                  "sweep_summary.json"))
    res.wall = time.perf_counter() - t0
    res.fine = [t for group in timings.values() for t in group]
    res.setup = (t_sweep - t0) - sum(res.fine)
    with open(path, "rb") as fh:
        res.output = fh.read()

    res.check(report.macro_equilibrium_residual <= EQUILIBRIUM_BOUND,
              "limit equilibrium residual %r" % report.macro_equilibrium_residual)
    for row in report.data_rows():
        tag = "eps=%.6g omega=%d" % (row["eps"], row["omega_index"])
        errs = [row[p + f] for p in ("err_", "st_err_")
                for f in sweep.ERROR_FIELDS]
        ok = (res.check(row["status"] == "ok",
                        "%s status %s" % (tag, row["status"]))
              and res.check(row["mass_drift_max"] <= DRIFT_BOUND
                            and row["pi_drift_max"] <= DRIFT_BOUND,
                            "%s drift mass %r pi %r" % (
                                tag, row["mass_drift_max"],
                                row["pi_drift_max"]))
              and res.check(row["equilibrium_residual"] <= EQUILIBRIUM_BOUND,
                            "%s equilibrium residual %r"
                            % (tag, row["equilibrium_residual"]))
              and res.check(all(_finite(e) for e in errs),
                            "%s non-finite errors %r" % (tag, errs)))
        res.completed += ok
    return res


def micro_pass(workload, seed, smoke, tracer, out_dir):
    """The `pnphom micro` path: tile once, one fine run per sample."""
    res = PassResult()
    t0 = time.perf_counter()
    cfg = load(workload, seed, smoke)
    params = cfg.pnp
    n = cfg.eps_list[0]
    template = geometry.build_template_cell(cfg.geometry)
    mesh = geometry.tile_domain(template, n)
    res.setup = time.perf_counter() - t0
    res.attempted = cfg.n_omega_samples
    for i in range(cfg.n_omega_samples):
        tag = "eps=1/%d omega=%d" % (n, i)
        ts = time.perf_counter()
        try:
            if tracer is None:
                problem, snapshots, ledger = _micro_run(cfg, mesh, i)
            else:
                with tracer.span("bench.fine_run", "bench",
                                 "eps=1/%d,omega=%d" % (n, i)):
                    problem, snapshots, ledger = _micro_run(cfg, mesh, i)
        except Exception:  # counted as a failed run; the pass goes on
            res.check(False, "%s raised:\n%s" % (tag, traceback.format_exc()))
            continue
        res.fine.append(time.perf_counter() - ts)
        pinned = -params.F_const * (params.z_plus * ledger.rows[0]["mass_plus"]
                                    - params.z_minus
                                    * ledger.rows[0]["mass_minus"])
        equilibrium = float(np.abs(ledger.column("pi_eps") - pinned).max())
        ok = (res.check(ledger.max_mass_drift() <= DRIFT_BOUND
                        and ledger.max_pi_drift() <= DRIFT_BOUND,
                        "%s drift mass %r pi %r" % (
                            tag, ledger.max_mass_drift(),
                            ledger.max_pi_drift()))
              and res.check(equilibrium <= EQUILIBRIUM_BOUND,
                            "%s equilibrium residual %r" % (tag, equilibrium)))
        res.completed += ok
        ledger_path = os.path.join(out_dir, "micro_ledger_%d.csv" % i)
        final_path = os.path.join(out_dir, "micro_final_%d.csv" % i)
        ledger.to_csv(ledger_path)
        micro.write_snapshot(final_path, mesh, problem.fluid_ids,
                             snapshots[-1])
        for path in (ledger_path, final_path):
            with open(path, "rb") as fh:
                res.output += fh.read()
    res.wall = time.perf_counter() - t0
    return res


def _micro_run(cfg, mesh, i):
    omega = randomfield.sample_omega(cfg.seed + i).omega
    problem = micro.MicroProblem(mesh, cfg.pnp, cfg.fields, omega)
    snapshots, ledger = problem.run(cfg.initial)
    return problem, snapshots, ledger


PASSES = {"sweep-fine": sweep_pass, "limit-general": sweep_pass,
          "micro-nonlinear": micro_pass}


def run(workload, seed, seconds, trace, smoke):
    """Repeat passes for about `seconds`; returns (untimed warm-up pass,
    passes, traced flags, tracer)."""
    out_dir = os.path.join(OUT_DIR, workload)
    os.makedirs(out_dir, exist_ok=True)
    # A smoke-size pass first pays the process's one-time costs (lazy
    # imports, first calls into scipy), so that every timed pass does the
    # same work.
    start = time.perf_counter()
    warmup = PASSES[workload](workload, seed, True, None, out_dir)
    tracer = Tracer() if trace else None
    passes, traced = [], []
    while not warmup.failures:
        gc.collect()  # no pass pays for the previous pass's garbage
        with_trace = bool(trace) and len(passes) % 2 == 1
        if with_trace:
            tracer.install(pnphom)
            tracer.begin_pass()
        try:
            res = PASSES[workload](workload, seed, smoke,
                                  tracer if with_trace else None, out_dir)
        finally:
            if with_trace:
                tracer.end_pass()
                tracer.uninstall()
        res.rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes.append(res)
        traced.append(with_trace)
        print("pass %d%s wall %s setup %s rss_mb %.1f fine %s" % (
            len(passes) - 1, " traced" if with_trace else "",
            _fmt(res.wall), _fmt(res.setup), res.rss_mb,
            " ".join(map(_fmt, res.fine))))
        if res.wall is None or res.failures:
            break
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall for p in passes)
        if len(passes) >= MIN_PASSES[trace] and elapsed + typical > seconds:
            break
    return warmup, passes, traced, tracer


def _fmt(value):
    return "-" if value is None else "%.4f" % value


def environment():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def end_to_end_metrics(passes):
    """Pass wall time is a mean: on a host whose speed drifts for tens of
    seconds at a time, the mean over a run moves less between runs than
    the median of a few passes does."""
    return {
        "wall_s": statistics.mean(p.wall for p in passes),
        "setup_s": statistics.median(p.setup for p in passes),
        "fine_runs_per_s": (sum(p.completed for p in passes)
                            / sum(t for p in passes for t in p.fine)),
        # after the first pass, so it does not depend on the pass count
        "peak_rss_mb": passes[0].rss_mb,
    }


def per_layer_metrics(passes, traced, tracer):
    """Medians over traced passes; counts that differ between traced
    passes are returned with their spread."""
    summaries = [summarize(record) for record in tracer.passes]
    rows = []
    for s, record in zip(summaries, tracer.passes):
        row = {m: s["inclusive"].get(span, 0.0)
               for m, span in SPAN_TIMES.items()}
        row.update({m: s["calls"].get(span, 0)
                    for m, span in SPAN_CALLS.items()})
        row.update({m: record.counters.get(m, 0) for m, _ in COUNTERS})
        row.update({layer + ".self_share":
                    s["self_time"].get(layer, 0.0) / s["wall"]
                    for layer in LAYERS})
        row["trace.wall_s"] = s["wall"]
        row["trace.coverage"] = s["covered"] / s["wall"]
        row["trace.spans"] = s["n_spans"]
        rows.append(row)
    metrics = {m: statistics.median(r[m] for r in rows) for m in rows[0]}
    untraced = [p for p, t in zip(passes, traced) if not t]
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - statistics.median(p.wall
                                                       for p in untraced))
    metrics["fine_run.p50_s"] = statistics.median(
        t for p in untraced for t in p.fine)
    units = per_layer_units()
    spread = {m: (min(r[m] for r in rows), max(r[m] for r in rows))
              for m in metrics if units[m] == "count"
              and len({r[m] for r in rows}) > 1}
    return metrics, spread


def write_spans(tracer, workload, seed):
    doc = []
    for record in tracer.passes:
        doc.append([[s[0], round(s[2] - record.start, 6),
                     round(s[3] - record.start, 6), s[4], s[5]]
                    for s in record.spans])
    path = os.path.join(OUT_DIR, "spans-%s-seed%d.json" % (workload, seed))
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                   "passes": doc}, fh)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long sizes, for the benchmark's tests")
    args = parser.parse_args(argv)

    print("env %s" % json.dumps(environment(), sort_keys=True))
    print("workload %s seed %d trace %d%s" % (args.workload, args.seed,
                                            args.trace,
                                            " smoke" if args.smoke else ""))
    warmup, passes, traced, tracer = run(args.workload, args.seed,
                                         args.seconds, args.trace, args.smoke)
    failures = [f for p in [warmup] + passes for f in p.failures]
    # every pass has the same inputs, so its output files must not differ
    for k, p in enumerate(passes[1:], 1):
        if p.wall is not None and p.output != passes[0].output:
            failures.append("pass %d (%s) output differs from pass 0"
                            % (k, "traced" if traced[k] else "untraced"))
    attempted = sum(p.attempted for p in [warmup] + passes)
    for message in failures:
        print("FAILED %s" % message)
    print("passes %d (%d traced), failed %d of %d operations, "
          "failed_ratio %.6g" % (len(passes), sum(traced), len(failures),
                                 attempted, len(failures) / attempted))

    correct = not failures
    metrics = {}
    if correct and not args.trace:
        units = dict(END_TO_END)
        values = end_to_end_metrics(passes)
        metrics = {m: {"value": values[m], "unit": units[m]} for m in units}
    elif correct:
        units = per_layer_units()
        values, spread = per_layer_metrics(passes, traced, tracer)
        metrics = {m: {"value": values[m], "unit": units[m]}
                   for m in sorted(values)}
        for m, (lo, hi) in sorted(spread.items()):
            print("count spread %s: %s..%s over traced passes" % (m, lo, hi))
        print("spans written to %s" % os.path.relpath(
            write_spans(tracer, args.workload, args.seed), ROOT))
    for m, entry in metrics.items():
        print("%-34s %14.6g %s" % (m, entry["value"], entry["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
