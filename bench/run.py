"""Benchmark of the pnphom workbench.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout.  Each workload runs in a fresh
process (``bench/workload.py``) whose BLAS and OpenMP pools are pinned to
one thread, so numbers are single-threaded and ``peak_rss_mb`` belongs to
that workload alone.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones from a traced run.  ``all`` runs every
workload untraced and then traced and prints the tracing overhead.  The
last line of standard output is one JSON object: correct, attempted,
failed and metrics.  The exit code is 0 only when every check passed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep-fine", "limit-general", "micro-nonlinear")
CHILD_TIMEOUT_S = 175
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def run_child(workload, seed, seconds, trace, smoke):
    """Run one workload in a fresh process; returns (exit code, result)."""
    cmd = [sys.executable, os.path.join(ROOT, "bench", "workload.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, **CHILD_ENV)
    env.pop("PYTHONPATH", None)  # the child imports pnphom from ROOT/src
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        sys.stdout.write(exc.stdout or "")
        print("%s: no result within %d s" % (workload, CHILD_TIMEOUT_S),
              file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    body = lines[:-1] if result is not None else lines
    if body:
        print("\n".join(body))
    return proc.returncode, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long sizes, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "pnphom", "sweep.py")):
        print("no pnphom sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2

    if args.workload != "all":
        code, result = run_child(args.workload, args.seed, args.seconds,
                                 args.trace, args.smoke)
        if result is None:
            return code or 1
        print(json.dumps(result))
        return code

    # every workload, untraced then traced, each in its own process
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        walls = {}
        for trace in (0, 1):
            rc, result = run_child(workload, args.seed, args.seconds, trace,
                                   args.smoke)
            code = code or rc
            if result is None:
                combined["correct"] = False
                code = code or 1
                continue
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, entry in result["metrics"].items():
                combined["metrics"]["%s/%s" % (workload, name)] = entry
            wall = result["metrics"].get("trace.wall_s" if trace
                                         else "wall_s")
            if wall is not None:
                walls[trace] = wall["value"]
        if len(walls) == 2:
            print("%s tracing overhead: traced wall_s %.4f s - untraced "
                  "wall_s %.4f s = %.4f s" % (workload, walls[1], walls[0],
                                              walls[1] - walls[0]))
    print(json.dumps(combined))
    return code


if __name__ == "__main__":
    sys.exit(main())
