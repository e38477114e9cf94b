"""Tests of the benchmark itself, on the seconds-long smoke sizes.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer as tracer_mod  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(*args):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py")]
                          + list(args), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)


def last_json(stdout):
    return json.loads(stdout.splitlines()[-1])


def test_self_time_subtracts_children():
    t = tracer_mod.Tracer()
    t.begin_pass()
    outer = t.open("micro.MicroProblem.run", "micro", "eps=1/2,omega=0")
    inner = t.open("fem.assemble_drift", "fem")
    t.close(inner)
    t.close(outer)
    t.end_pass()
    record = t.passes[0]
    record.spans[outer][2:4] = [10.0, 14.0]
    record.spans[inner][2:4] = [11.0, 12.5]
    record.start, record.end = 10.0, 15.0
    s = tracer_mod.summarize(record)
    assert s["self_time"] == {"micro": 2.5, "fem": 1.5}
    assert s["covered"] == 4.0 and s["wall"] == 5.0
    assert record.spans[inner][5] == "eps=1/2,omega=0"  # inherited run id


def test_install_patches_callers_view_and_restores():
    import scipy.sparse.linalg as spla
    import pnphom
    from pnphom import fem, micro, sweep

    originals = (fem.assemble_drift, micro.MicroProblem.run, spla.splu,
                 sweep._micro_run_row)
    t = tracer_mod.Tracer()
    t.install(pnphom)
    try:
        assert micro.assemble_drift is fem.assemble_drift
        assert micro.assemble_drift.__wrapped__ is originals[0]
        assert micro.MicroProblem.run.__wrapped__ is originals[1]
        assert spla.splu.__wrapped__ is originals[2]
        assert sweep._micro_run_row.__wrapped__ is originals[3]
    finally:
        t.uninstall()
    assert (fem.assemble_drift, micro.MicroProblem.run, spla.splu,
            sweep._micro_run_row) == originals
    assert micro.assemble_drift is originals[0]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_runs_report_every_metric(workload):
    expected = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}
    results = {}
    for trace in (0, 1):
        proc = run_bench("--workload", workload, "--seed", "3", "--seconds",
                         "1", "--trace", str(trace), "--smoke")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = last_json(proc.stdout)
        assert sorted(result) == ["attempted", "correct", "failed",
                                  "metrics"]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {m: e["unit"] for m, e in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in expected[trace]}
        results[trace] = result["metrics"]
    for m in SPEC["end_to_end"]:
        assert results[0][m["name"]]["value"] > 0
    layer = {m: e["value"] for m, e in results[1].items()}
    assert layer["trace.coverage"] >= 0.9
    assert layer["micro.lu_count"] >= 2
    assert layer["fem.drift_assembly_calls"] > 0
    if workload == "micro-nonlinear":
        assert layer["fem.newton_iters"] > 0 and layer["fem.cg_iters"] > 0
        assert layer["macro.run_s"] == 0 and layer["sweep.ref_build_s"] == 0
    else:
        assert layer["macro.gummel_iters"] > 0 and layer["sweep.compare_s"] > 0
    if workload == "limit-general":
        assert layer["effective.dielectric_cell_solves"] > 0


def test_failed_check_fails_the_run(monkeypatch, capsys):
    import workload as wl

    monkeypatch.setattr(wl, "DRIFT_BOUND", -1.0)
    code = wl.main(["--workload", "micro-nonlinear", "--seed", "0",
                    "--seconds", "0", "--trace", "0", "--smoke"])
    result = last_json(capsys.readouterr().out)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] and result["metrics"] == {}


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = SPEC["command"]
    proc = subprocess.run(command + ["--workload", "sweep-fine", "--seed",
                                     "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
