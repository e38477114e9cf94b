"""Smoke tests for the command-line harness."""

import gc
import json
import os
import weakref

import pytest

from pnphom import cli, micro
from pnphom.fem import ConvergenceFailure

SMALL = {
    "geometry": {"n_interface_segments": 32, "target_edge_length": 1.0 / 16},
    "eps_list": [2],
    "n_omega_samples": 1,
    "macro_resolution": 24,
    "K": 8,
    "pnp": {"t_final": 0.04, "dt": 0.02, "n_outputs": 2},
    "twoscale": {"M": 4, "eps_list": [2, 4]},
}


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def run_cli(argv):
    return cli.main(argv)


def test_console_entry_point():
    from importlib.metadata import entry_points
    scripts = entry_points(group="console_scripts")
    matches = [e for e in scripts if e.name == "pnphom"]
    assert matches and matches[0].value == "pnphom.cli:main"


def test_distribution_metadata_matches_pyproject():
    # src/pnphom-0.1.0.dist-info is a hand-kept copy of [project]; it must
    # change together with pyproject.toml.
    tomllib = pytest.importorskip("tomllib")
    from importlib.metadata import distribution
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    dist = distribution(project["name"])
    assert dist.metadata["Name"] == project["name"]
    assert dist.version == project["version"]
    scripts = {e.name: e.value for e in dist.entry_points
               if e.group == "console_scripts"}
    assert scripts == project["scripts"]


def test_mesh_command(small_cfg, tmp_path):
    out = str(tmp_path / "mesh")
    rc = run_cli(["mesh", "--config", small_cfg, "--out", out,
                  "--tile", "2", "--dump"])
    assert rc == 0
    names = set(os.listdir(out))
    assert {"mesh_stats.csv", "mesh_template.txt", "mesh_tiled_n2.txt",
            "config_used.json"} <= names
    lines = open(os.path.join(out, "mesh_stats.csv")).read().splitlines()
    assert lines[0] == "mesh,n_vertices,n_triangles,fluid_area,interface_length"
    assert len(lines) == 3
    assert lines[1].startswith("template,")
    assert lines[2].startswith("tiled_n2,")


def test_mesh_rejects_bad_tile(small_cfg, tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli(["mesh", "--config", small_cfg,
                 "--out", str(tmp_path / "x"), "--tile", "0"])
    assert err.value.code == 2


def test_twoscale_command(small_cfg, tmp_path, capsys):
    out = str(tmp_path / "ts")
    rc = run_cli(["twoscale", "--config", small_cfg, "--out", out])
    assert rc == 0
    names = set(os.listdir(out))
    for kind in ("volume", "surface"):
        for integrand in ("constant", "x_only", "y_only", "triple"):
            assert "%s_%s.csv" % (kind, integrand) in names
    text = capsys.readouterr().out
    assert "volume oscillation: triple" in text
    assert "surface oscillation: constant" in text


def test_micro_command(small_cfg, tmp_path, capsys):
    out = str(tmp_path / "micro")
    rc = run_cli(["micro", "--config", small_cfg, "--out", out])
    assert rc == 0
    names = set(os.listdir(out))
    assert "micro_ledger_eps_1_2_omega_0.csv" in names
    assert "micro_final_eps_1_2_omega_0.csv" in names
    text = capsys.readouterr().out
    assert "mass drift" in text
    header = open(os.path.join(
        out, "micro_ledger_eps_1_2_omega_0.csv")).readline().strip()
    assert header == "t,mass_plus,mass_minus,pi_eps,min_conc,gummel_iters"


def test_micro_holds_one_fine_problem(tmp_path, monkeypatch):
    # a new FineDomain is built once every earlier domain and problem is
    # gone, and a new MicroProblem once every earlier problem is
    built = {"domain": [], "problem": []}

    def tracked(cls, key, earlier):
        class Tracked(cls):
            def __init__(self, *args, **kwargs):
                gc.collect()
                alive = [k for k in earlier for ref in built[k]
                         if ref() is not None]
                assert not alive, "%s built while %s alive" % (key, alive)
                super().__init__(*args, **kwargs)
                built[key].append(weakref.ref(self))
        return Tracked

    monkeypatch.setattr(cli, "FineDomain", tracked(
        cli.FineDomain, "domain", ("domain", "problem")))
    monkeypatch.setattr(cli, "MicroProblem", tracked(
        cli.MicroProblem, "problem", ("problem",)))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(SMALL, eps_list=[2, 3],
                                    n_omega_samples=2)))
    assert run_cli(["micro", "--config", str(path),
                    "--out", str(tmp_path / "micro")]) == 0
    assert [len(refs) for refs in built.values()] == [2, 4]


def test_effective_command(small_cfg, tmp_path, capsys):
    out = str(tmp_path / "eff")
    rc = run_cli(["effective", "--config", small_cfg, "--out", out])
    assert rc == 0
    doc = json.load(open(os.path.join(out, "effective.json")))
    assert set(doc) >= {"theta", "A_hom", "B_hom", "theta_eff", "s_bar"}
    assert "A_hom" in capsys.readouterr().out


def test_macro_command(small_cfg, tmp_path, capsys):
    out = str(tmp_path / "macro")
    rc = run_cli(["macro", "--config", small_cfg, "--out", out])
    assert rc == 0
    names = set(os.listdir(out))
    assert {"macro_ledger.csv", "macro_final.csv",
            "effective.json"} <= names
    assert "equilibrium residual" in capsys.readouterr().out


def test_macro_command_reports_stall(tmp_path):
    # one Gummel iteration cannot settle the coupling: the limit run fails
    # at step 1, which must be logged with its partial ledger, not raised
    cfg = dict(SMALL, pnp=dict(SMALL["pnp"], gummel_max=1))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "macro")
    rc = run_cli(["macro", "--config", str(path), "--out", out])
    assert rc == 1
    lines = open(os.path.join(out, "macro_ledger.csv")).read().splitlines()
    assert lines[0] == "t,mass_plus,mass_minus,pi_eps,min_conc,gummel_iters"
    assert len(lines) == 2  # the t = 0 row only
    assert "macro_final.csv" not in os.listdir(out)


SATURATED = dict(SMALL, gamma={"kind": "saturated", "alpha": 1.0,
                               "lipschitz": 3.0, "saturation_scale": 0.5})


def failing_first_newton(monkeypatch):
    # the first Newton solve, the first run's t = 0 Poisson solve, raises
    # as one that does not converge would
    calls = []
    newton_solve = micro.newton_solve

    def newton(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise ConvergenceFailure("newton failed: forced", 1.0, 25)
        return newton_solve(*args, **kwargs)

    monkeypatch.setattr(micro, "newton_solve", newton)
    return calls


def test_micro_reports_initial_poisson_failure(tmp_path, monkeypatch):
    # a failed t = 0 Poisson solve is step 0 of its run: logged with the
    # empty ledger, and the next sample still runs
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(SATURATED, n_omega_samples=2)))
    out = str(tmp_path / "micro")
    failing_first_newton(monkeypatch)
    rc = run_cli(["micro", "--config", str(path), "--out", out])
    assert rc == 1
    names = set(os.listdir(out))
    first = os.path.join(out, "micro_ledger_eps_1_2_omega_0.csv")
    assert open(first).read().splitlines() == [
        "t,mass_plus,mass_minus,pi_eps,min_conc,gummel_iters"]
    assert "micro_final_eps_1_2_omega_0.csv" not in names
    assert {"micro_ledger_eps_1_2_omega_1.csv",
            "micro_final_eps_1_2_omega_1.csv"} <= names


def test_macro_reports_initial_poisson_failure(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SATURATED))
    out = str(tmp_path / "macro")
    calls = failing_first_newton(monkeypatch)
    rc = run_cli(["macro", "--config", str(path), "--out", out])
    assert rc == 1
    assert len(calls) == 1
    lines = open(os.path.join(out, "macro_ledger.csv")).read().splitlines()
    assert lines == ["t,mass_plus,mass_minus,pi_eps,min_conc,gummel_iters"]
    assert "macro_final.csv" not in os.listdir(out)


def test_sweep_command_reports_limit_stall(tmp_path):
    # the same stall inside a sweep: the limit model runs before any fine
    # run, so the sweep stops there with the partial limit ledger
    cfg = dict(SMALL, pnp=dict(SMALL["pnp"], gummel_max=1))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "sweep")
    rc = run_cli(["sweep", "--config", str(path), "--out", out])
    assert rc == 1
    lines = open(os.path.join(out, "macro_ledger.csv")).read().splitlines()
    assert lines[0] == "t,mass_plus,mass_minus,pi_eps,min_conc,gummel_iters"
    assert len(lines) == 2  # the t = 0 row only
    assert "sweep_report.csv" not in os.listdir(out)


def test_sweep_command(small_cfg, tmp_path, capsys):
    out = str(tmp_path / "sweep")
    rc = run_cli(["sweep", "--config", small_cfg, "--out", out,
                  "--threads", "2"])
    assert rc == 0
    names = set(os.listdir(out))
    assert {"sweep_report.csv", "sweep_summary.json", "sweep_timings.json",
            "plot_err_conc_plus.tsv", "plot_err_conc_minus.tsv",
            "plot_err_potential.tsv", "config_used.json"} <= names
    assert "macro equilibrium residual" in capsys.readouterr().out


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_sweep_nonpositive_threads_exits_2(small_cfg, tmp_path, capsys,
                                           threads):
    with pytest.raises(SystemExit) as err:
        run_cli(["sweep", "--config", small_cfg,
                 "--out", str(tmp_path / "o"), "--threads", threads])
    assert err.value.code == 2
    assert ("config error: --threads must be >= 1, got %s" % threads
            in capsys.readouterr().err)


def test_seed_override(small_cfg, tmp_path):
    out = str(tmp_path / "m")
    rc = run_cli(["mesh", "--config", small_cfg, "--out", out,
                  "--seed", "42"])
    assert rc == 0
    doc = json.load(open(os.path.join(out, "config_used.json")))
    assert doc["seed"] == 42


def test_bad_config_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"eps_list": []}))
    with pytest.raises(SystemExit) as err:
        run_cli(["mesh", "--config", str(path),
                 "--out", str(tmp_path / "o")])
    assert err.value.code == 2


@pytest.mark.parametrize("name", ["missing.json", "."],
                         ids=["missing", "directory"])
def test_unreadable_config_exits_2(tmp_path, capsys, name):
    with pytest.raises(SystemExit) as err:
        run_cli(["mesh", "--config", str(tmp_path / name),
                 "--out", str(tmp_path / "o")])
    assert err.value.code == 2
    assert "config error: cannot read" in capsys.readouterr().err


def test_unresolvable_sample_grid_exits_2(tmp_path, capsys):
    # the default fields carry a w-mode of frequency 1, which needs K >= 4
    path = tmp_path / "k2.json"
    path.write_text(json.dumps(dict(SMALL, K=2)))
    with pytest.raises(SystemExit) as err:
        run_cli(["effective", "--config", str(path),
                 "--out", str(tmp_path / "o")])
    assert err.value.code == 2
    assert "config error: sample grid K=2" in capsys.readouterr().err


def test_non_integer_key_exits_2(tmp_path, capsys):
    path = tmp_path / "k.json"
    path.write_text(json.dumps(dict(SMALL, K=32.7)))
    with pytest.raises(SystemExit) as err:
        run_cli(["effective", "--config", str(path),
                 "--out", str(tmp_path / "o")])
    assert err.value.code == 2
    assert "config error: K must be an integer" in capsys.readouterr().err


def test_negative_seed_exits_2(small_cfg, tmp_path, capsys):
    # the sample seeds seed + i must be valid numpy seeds
    with pytest.raises(SystemExit) as err:
        run_cli(["micro", "--config", small_cfg,
                 "--out", str(tmp_path / "o"), "--seed", "-1"])
    assert err.value.code == 2
    assert "config error: seed must be >= 0" in capsys.readouterr().err


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        run_cli([])
    assert err.value.code == 2


def test_unknown_log_level_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["--log-level", "FOO", "mesh"])
    assert err.value.code == 2
    assert "--log-level: invalid choice: 'FOO'" in capsys.readouterr().err
    # level names are case-insensitive
    args = cli.build_parser().parse_args(["--log-level", "debug", "mesh"])
    assert args.log_level == "DEBUG"


@pytest.mark.parametrize("flag", [["--threads", "2"]], ids=["threads"])
def test_sweep_only_flags_rejected_elsewhere(small_cfg, tmp_path, flag):
    # only sweep reads --threads
    with pytest.raises(SystemExit) as err:
        run_cli(["micro", "--config", small_cfg,
                 "--out", str(tmp_path / "o")] + flag)
    assert err.value.code == 2


@pytest.mark.parametrize("M", [0, -1])
def test_twoscale_nonpositive_M_exits_2(tmp_path, capsys, M):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(dict(SMALL, twoscale={"M": M,
                                                     "eps_list": [2]})))
    with pytest.raises(SystemExit) as err:
        run_cli(["twoscale", "--config", str(path),
                 "--out", str(tmp_path / "o")])
    assert err.value.code == 2
    assert "config error: twoscale.M must be >= 1" in capsys.readouterr().err
