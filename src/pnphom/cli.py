"""Command-line harness.

Subcommands
-----------
mesh       build the template cell (optionally tiled) and write stats
twoscale   convergence tables for the oscillating-integral estimators
micro      fine-scale runs over the configured (eps, omega) grid
effective  cell problems and effective coefficients -> effective.json
macro      one limit-model run
sweep      full fine-vs-limit error sweep with plot data

All subcommands share --config/--out/--seed; sweep also takes --threads.
Outputs are plain CSV/TSV/JSON files in the --out directory, and repeated
runs are byte-identical, except for sweep_timings.json, which holds the
wall-clock seconds of each sweep run.
"""

import argparse
import json
import logging
import os
import sys

import numpy as np

from .config import ConfigError, load_config, write_config
from .effective import OmegaGridError, compute_effective
from .geometry import build_template_cell, dump_mesh, tile_domain
from .macro import MacroProblem, equilibrium_residual, macro_mesh
from .micro import FineDomain, MicroProblem, MicroRunError, write_snapshot
from .randomfield import sample_omega
from .sweep import emit_plotdata, run_sweep, write_summary
from .twoscale import bundled_suite, convergence_table

log = logging.getLogger("pnphom.cli")


def _add_common(sub):
    sub.add_argument("--config", default=None,
                     help="JSON config file (defaults are built in)")
    sub.add_argument("--out", default="out",
                     help="output directory, created if missing")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the config seed")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pnphom",
        description="Homogenization harness for the perforated-domain "
                    "ion-transport model.")
    parser.add_argument("--log-level", default="INFO", type=str.upper,
                        choices=("DEBUG", "INFO", "WARNING", "ERROR",
                                 "CRITICAL"),
                        help="logging level, case-insensitive")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("mesh", help="build meshes and report stats")
    _add_common(p)
    p.add_argument("--tile", type=int, default=None, metavar="N",
                   help="also build the N x N tiled mesh (eps = 1/N)")
    p.add_argument("--dump", action="store_true",
                   help="write the mesh itself as a text dump")

    p = subs.add_parser("twoscale",
                        help="volume and surface convergence tables")
    _add_common(p)

    p = subs.add_parser("micro", help="fine-scale conservation runs")
    _add_common(p)

    p = subs.add_parser("effective", help="compute effective coefficients")
    _add_common(p)

    p = subs.add_parser("macro", help="run the limit model once")
    _add_common(p)

    p = subs.add_parser("sweep", help="fine-vs-limit error sweep")
    _add_common(p)
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for independent runs, >= 1; "
                        "fastest when OMP_NUM_THREADS, "
                        "OPENBLAS_NUM_THREADS and MKL_NUM_THREADS are "
                        "set to 1")
    return parser


def _prepare(args):
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = load_config(args.config, overrides or None)
    os.makedirs(args.out, exist_ok=True)
    write_config(os.path.join(args.out, "config_used.json"), cfg.data)
    return cfg


def _eps_tag(n):
    return "eps_1_%d" % n


def cmd_mesh(args):
    cfg = _prepare(args)
    template = build_template_cell(cfg.geometry)
    meshes = [("template", template)]
    if args.tile is not None:
        if args.tile < 1:
            raise ConfigError("--tile must be a positive integer")
        meshes.append(("tiled_n%d" % args.tile,
                       tile_domain(template, args.tile)))
    stats_path = os.path.join(args.out, "mesh_stats.csv")
    with open(stats_path, "w") as fh:
        fh.write("mesh,n_vertices,n_triangles,fluid_area,"
                 "interface_length\n")
        for name, mesh in meshes:
            fh.write("%s,%d,%d,%.17g,%.17g\n" % (
                name, mesh.n_vertices, mesh.n_triangles,
                mesh.fluid_area, mesh.interface_length))
            log.info("%s: %d vertices, %d triangles, fluid area %.6f",
                     name, mesh.n_vertices, mesh.n_triangles,
                     mesh.fluid_area)
    if args.dump:
        for name, mesh in meshes:
            dump_mesh(mesh, os.path.join(args.out, "mesh_%s.txt" % name))
    return 0


def cmd_twoscale(args):
    cfg = _prepare(args)
    template = build_template_cell(cfg.geometry)
    eps_list = [1.0 / n for n in cfg.twoscale_eps]
    M = cfg.twoscale_M
    for kind in ("volume", "surface"):
        for integrand in bundled_suite():
            report = convergence_table(
                kind, integrand, eps_list, M=M, cell=template,
                base_seed=cfg.seed)
            path = os.path.join(args.out, "%s_%s.csv"
                                % (kind, integrand.name))
            report.write_csv(path)
            print(report.format_table())
            print()
    return 0


def cmd_micro(args):
    cfg = _prepare(args)
    template = build_template_cell(cfg.geometry)
    failures = 0
    for n in cfg.eps_list:
        # each fine problem is dropped before the next is built, so only one
        # is held at a time
        mesh = domain = problem = None
        mesh = tile_domain(template, n)
        domain = FineDomain(mesh, cfg.pnp)
        for i in range(cfg.n_omega_samples):
            omega = sample_omega(cfg.seed + i).omega
            problem = None
            problem = MicroProblem(domain, cfg.pnp, cfg.fields, omega)
            tag = "%s_omega_%d" % (_eps_tag(n), i)
            try:
                snapshots, ledger = problem.run(cfg.initial)
            except MicroRunError as exc:
                log.error("%s failed: %s", tag, exc)
                exc.ledger.to_csv(os.path.join(
                    args.out, "micro_ledger_%s.csv" % tag))
                failures += 1
                continue
            ledger.to_csv(os.path.join(args.out,
                                       "micro_ledger_%s.csv" % tag))
            write_snapshot(os.path.join(args.out, "micro_final_%s.csv"
                                        % tag),
                           mesh, problem.fluid_ids, snapshots[-1])
            resid = equilibrium_residual(ledger, cfg.pnp)
            print("%s: mass drift %.3e, pi drift %.3e, identity %.3e, "
                  "min conc %.3e"
                  % (tag, ledger.max_mass_drift(), ledger.max_pi_drift(),
                     resid, ledger.column("min_conc").min()))
    return 1 if failures else 0


def cmd_effective(args):
    cfg = _prepare(args)
    template = build_template_cell(cfg.geometry)
    eff = compute_effective(template, cfg.fields, K=cfg.K)
    path = os.path.join(args.out, "effective.json")
    eff.write_json(path)
    print("theta        %.12g" % eff.theta)
    print("A_hom        %s" % np.array2string(np.asarray(eff.A_hom),
                                              precision=12))
    print("B_hom        %s" % np.array2string(np.asarray(eff.B_hom),
                                              precision=12))
    print("theta_eff    %s" % np.array2string(np.asarray(eff.theta_eff),
                                              precision=12))
    print("s_bar        %.12g" % eff.s_bar)
    print("written to   %s" % path)
    return 0


def cmd_macro(args):
    cfg = _prepare(args)
    template = build_template_cell(cfg.geometry)
    eff = compute_effective(template, cfg.fields, K=cfg.K)
    eff.write_json(os.path.join(args.out, "effective.json"))
    mesh = macro_mesh(cfg.macro_resolution)
    problem = MacroProblem(mesh, eff, cfg.pnp, cfg.fields.gamma)
    ledger_path = os.path.join(args.out, "macro_ledger.csv")
    try:
        snapshots, ledger = problem.run(cfg.initial)
    except MicroRunError as exc:
        log.error("limit model failed: %s", exc)
        exc.ledger.to_csv(ledger_path)
        return 1
    ledger.to_csv(ledger_path)
    all_ids = np.arange(mesh.n_vertices)
    write_snapshot(os.path.join(args.out, "macro_final.csv"),
                   mesh, all_ids, snapshots[-1])
    resid = equilibrium_residual(ledger, cfg.pnp)
    print("limit model: %d steps, mass drift %.3e, equilibrium residual "
          "%.3e" % (len(ledger.rows) - 1, ledger.max_mass_drift(), resid))
    return 0


def cmd_sweep(args):
    if args.threads < 1:
        raise ConfigError("--threads must be >= 1, got %d" % args.threads)
    cfg = _prepare(args)
    try:
        report, timings = run_sweep(cfg, threads=args.threads)
    except MicroRunError as exc:
        # fine-run failures are reported per row; this one is the limit model
        log.error("limit model failed: %s", exc)
        exc.ledger.to_csv(os.path.join(args.out, "macro_ledger.csv"))
        return 1
    report.write_csv(os.path.join(args.out, "sweep_report.csv"))
    emit_plotdata(report, args.out)
    write_summary(report, cfg,
                  os.path.join(args.out, "sweep_summary.json"))
    with open(os.path.join(args.out, "sweep_timings.json"), "w") as fh:
        json.dump(timings, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(report.format_table())
    print("macro equilibrium residual %.3e"
          % report.macro_equilibrium_residual)
    bad = [r for r in report.data_rows() if r["status"] != "ok"]
    if bad:
        print("%d runs failed" % len(bad))
        return 1
    return 0


HANDLERS = {
    "mesh": cmd_mesh,
    "twoscale": cmd_twoscale,
    "micro": cmd_micro,
    "effective": cmd_effective,
    "macro": cmd_macro,
    "sweep": cmd_sweep,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level),
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return HANDLERS[args.command](args)
    except (ConfigError, OmegaGridError) as exc:
        parser.exit(2, "config error: %s\n" % exc)


if __name__ == "__main__":
    sys.exit(main())
