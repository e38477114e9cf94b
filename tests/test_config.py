"""Tests for the experiment configuration loader."""

import json

import numpy as np
import pytest

from pnphom.config import (
    ConfigError,
    DEFAULTS,
    load_config,
    make_initial_function,
    write_config,
)
from pnphom.macro import macro_mesh


def test_defaults_load():
    cfg = load_config()
    assert cfg.geometry.inclusion_radius == 0.25
    assert cfg.eps_list == [2, 3, 4, 5]
    assert cfg.n_omega_samples == 8
    assert cfg.seed == 0
    assert cfg.K == 32
    assert cfg.macro_resolution == 96
    assert cfg.twoscale_M == 64
    assert cfg.twoscale_eps == [2, 4, 8, 16]
    assert cfg.pnp.dt == 0.02
    assert cfg.fields.gamma(2.0) == pytest.approx(2.0)


def test_defaults_not_mutated():
    before = json.dumps(DEFAULTS, sort_keys=True)
    cfg = load_config(overrides={"seed": 99, "pnp": {"dt": 0.01}})
    assert cfg.seed == 99
    assert json.dumps(DEFAULTS, sort_keys=True) == before


def test_file_merge(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"pnp": {"dt": 0.05, "t_final": 0.1},
                                "seed": 3}))
    cfg = load_config(str(path))
    assert cfg.pnp.dt == 0.05
    assert cfg.pnp.t_final == 0.1
    assert cfg.seed == 3
    assert cfg.pnp.D_plus == 1.0
    assert cfg.geometry.inclusion_radius == 0.25


def test_overrides_after_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3}))
    cfg = load_config(str(path), overrides={"seed": 11})
    assert cfg.seed == 11


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_rejected(tmp_path, text):
    # Python's json module reads these non-standard constants as floats
    path = tmp_path / "cfg.json"
    path.write_text('{"pnp": {"dt": %s}}' % text)
    with pytest.raises(ConfigError, match="pnp.dt must be finite"):
        load_config(str(path))


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


@pytest.mark.parametrize("bad", [
    {"eps_list": []},
    {"eps_list": [4, 2]},
    {"eps_list": [2, 2]},
    {"eps_list": [0]},
    {"eps_list": [1.5]},
    {"n_omega_samples": 0},
    {"geometry": {"inclusion_radius": 0.7}},
    {"geometry": {"target_edge_length": 0.3}},
    {"pnp": {"dt": -0.01}},
    {"pnp": {"t_final": -1.0}},
    {"gamma": {"kind": "nosuch"}},
    {"fields": {"rho_f": {"base": -2.0}}},
    {"initial": {"plus": {"kind": "unknown"}}},
    {"initial": {"plus": {"kind": "constant", "value": -1.0}}},
    {"initial": {"plus": {"kind": "cosine", "base": 0.2,
                          "amplitude": 0.5}}},
    {"twoscale": {"eps_list": [8, 4]}},
    {"seed": -1},
    {"pnp": {"n_outputs": 0}},
    # integer keys refuse what int() would truncate, and booleans
    {"K": 32.7},
    {"K": True},
    {"n_omega_samples": 2.9},
    {"seed": 1.5},
    {"macro_resolution": 48.5},
    {"twoscale": {"M": 4.5}},
    {"pnp": {"n_outputs": 5.5}},
    {"pnp": {"gummel_max": 20.9}},
    {"geometry": {"n_interface_segments": 32.5}},
    {"eps_list": [True, 2]},
    # the sample torus's union-jack grid has an even side of at least 4
    {"K": 2},
    {"K": 33},
    # malformed values are refused at load time, not when a run uses them
    {"geometry": {"inclusion_center": [0.5]}},
    {"fields": {"rho_f": {"base": 2.0, "y_modes": [[[1], 0.5]]}}},
    {"initial": {"plus": {"kind": "cosine", "modes": [1]}}},
    {"initial": {"plus": {"kind": "cosine", "modes": ["a", 1]}}},
    {"initial": {"plus": {"kind": "gaussian", "center": [0.5]}}},
    {"initial": {"minus": {"kind": "constant", "value": "x"}}},
    {"eps_list": 3},
    # non-finite values, and numbers spelled as strings or booleans
    {"pnp": {"dt": float("nan")}},
    {"pnp": {"dt": "0.02"}},
    {"pnp": {"upwind": "yes"}},
    {"pnp": {"D_plus": True}},
    {"geometry": {"target_edge_length": float("nan")}},
    {"fields": {"eta": {"base": float("inf")}}},
    {"initial": {"minus": {"kind": "constant", "value": float("nan")}}},
    {"eps_list": [2, float("inf")]},
])
def test_validation_rejects(bad):
    with pytest.raises(ConfigError):
        load_config(overrides=bad)


@pytest.mark.parametrize("resolution", [9, 97])
def test_odd_macro_resolution_rejected(resolution):
    # the limit mesh would get resolution + 1 cells per side, unrecorded
    assert (macro_mesh(resolution).n_vertices
            == macro_mesh(resolution + 1).n_vertices)
    with pytest.raises(ConfigError, match="even"):
        load_config(overrides={"macro_resolution": resolution})


def test_initial_constant_scalar():
    val = make_initial_function({"kind": "constant", "value": 0.7}, "x")
    assert val == 0.7


def test_initial_cosine_values():
    f = make_initial_function({"kind": "cosine", "base": 1.0,
                               "amplitude": 0.5, "modes": [1, 1]}, "x")
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
    got = f(pts)
    assert got == pytest.approx([1.5, 1.5, 1.0])


def test_initial_gaussian_values():
    f = make_initial_function({"kind": "gaussian", "base": 1.0,
                               "amplitude": 2.0, "width": 10.0,
                               "center": [0.5, 0.5]}, "x")
    pts = np.array([[0.5, 0.5], [0.0, 0.0]])
    got = f(pts)
    assert got[0] == pytest.approx(3.0)
    assert got[1] == pytest.approx(1.0 + 2.0 * np.exp(-5.0))
    f2 = make_initial_function({"kind": "gaussian", "base": 0.5,
                                "amplitude": -0.2}, "x")
    assert f2(pts).min() > 0.0
    with pytest.raises(ConfigError):
        make_initial_function({"kind": "gaussian", "base": 0.1,
                               "amplitude": -0.5}, "x")


def test_saturated_gamma_config():
    cfg = load_config(overrides={"gamma": {"kind": "saturated",
                                           "alpha": 1.0, "lipschitz": 3.0,
                                           "saturation_scale": 0.5}})
    g = cfg.fields.gamma
    assert g(1.0) == pytest.approx(1.0 + 2.0 * 0.5 * np.tanh(2.0))


def test_atomic_field_replacement():
    cfg = load_config(overrides={"fields": {"rho_f": {"base": 1.0}}})
    assert not cfg.fields.rho_f.y_modes and not cfg.fields.rho_f.w_modes
    assert cfg.fields.rho_s.w_modes


def test_fields_carry_omega_modes():
    cfg = load_config()
    assert cfg.fields.rho_f.w_modes
    assert not cfg.fields.eta.y_modes and not cfg.fields.eta.w_modes


def test_write_config_roundtrip(tmp_path):
    path = tmp_path / "out.json"
    write_config(str(path))
    cfg = load_config(str(path))
    assert cfg.eps_list == [2, 3, 4, 5]
    text1 = path.read_text()
    write_config(str(path))
    assert path.read_text() == text1


def test_shipped_configs_load():
    import os
    here = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name in ("default.json", "conservation.json", "trivial_r0.json"):
        cfg = load_config(os.path.join(here, name))
        assert cfg.pnp.dt > 0
    cfg = load_config(os.path.join(here, "trivial_r0.json"))
    assert cfg.geometry.inclusion_radius == 0.0
    assert not cfg.fields.rho_f.y_modes and not cfg.fields.rho_f.w_modes
