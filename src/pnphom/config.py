"""Experiment configuration: one JSON document drives every subcommand.

The schema, with defaults in parentheses:

  geometry: inclusion_radius (0.25), inclusion_center ([0.5, 0.5]),
      n_interface_segments (64), target_edge_length (1/32)
  fields: rho_f, rho_s, eta -- each {base, y_modes, w_modes, floor};
      mode entries are [[k1, k2], amplitude]
  gamma: kind ('linear'), alpha (1.0), lipschitz, saturation_scale
  pnp: D_plus, D_minus, z_plus, z_minus, c, F_const, dt, t_final,
      gummel_max, gummel_tol, linear_tol, n_outputs, upwind
  initial: plus/minus -- {kind: constant|cosine|gaussian, ...}
  eps_list: reciprocals of the scale parameter, increasing integers ([2,3,4,5])
  n_omega_samples: ensemble size M for sweeps (8)
  seed: base seed (0)
  K: sample-stage grid resolution, even and >= 4 (32)
  macro_resolution: unperforated macro mesh resolution, even (96)
  twoscale: M (64, at least 1), eps_list ([2,4,8,16]) for the oscillation
      tables
"""

import copy
import json
import math
import numbers

import numpy as np

from .effective import check_sample_grid
from .geometry import UnitCellSpec
from .micro import MicroCoefficients, PnpParams
from .randomfield import CoefficientField, GammaFunction


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "geometry": {
        "inclusion_radius": 0.25,
        "inclusion_center": [0.5, 0.5],
        "n_interface_segments": 64,
        "target_edge_length": 1.0 / 32.0,
    },
    "fields": {
        "rho_f": {"base": 2.0, "w_modes": [[[1, 0], 0.6]], "floor": 0.5},
        "rho_s": {"base": 2.0, "w_modes": [[[1, 0], 0.6]], "floor": 0.5},
        "eta": {"base": 1.0},
    },
    "gamma": {"kind": "linear", "alpha": 1.0},
    "pnp": {
        "D_plus": 1.0, "D_minus": 1.0, "z_plus": 1.0, "z_minus": 1.0,
        "c": 1.0, "F_const": 1.0, "dt": 0.02, "t_final": 0.2,
        "gummel_max": 20, "gummel_tol": 1e-9, "linear_tol": 1e-11,
        "n_outputs": 10, "upwind": False,
    },
    "initial": {
        "plus": {"kind": "cosine", "base": 1.0, "amplitude": 0.5,
                 "modes": [1, 1]},
        "minus": {"kind": "constant", "value": 0.9},
    },
    "eps_list": [2, 3, 4, 5],
    "n_omega_samples": 8,
    "seed": 0,
    "K": 32,
    "macro_resolution": 96,
    "twoscale": {"M": 64, "eps_list": [2, 4, 8, 16]},
}


# Subtrees replaced wholesale instead of key-merged: each describes one
# value (a coefficient field, the nonlinearity, an initial profile), and
# inheriting leftover keys from the defaults would silently change its
# meaning (e.g. a constant field picking up the default oscillation modes).
ATOMIC_PATHS = frozenset([
    "config.fields.rho_f", "config.fields.rho_s", "config.fields.eta",
    "config.gamma", "config.initial.plus", "config.initial.minus",
])


def _merge(base, override, path="config"):
    if not isinstance(override, dict):
        raise ConfigError("%s must be an object, got %r" % (path, override))
    out = copy.deepcopy(base)
    for key, val in override.items():
        sub = "%s.%s" % (path, key)
        if key in out and isinstance(out[key], dict) \
                and sub not in ATOMIC_PATHS:
            out[key] = _merge(out[key], val, sub)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _check_int(value, path):
    """value as an int: a boolean, or a number that int() would truncate,
    is refused."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if isinstance(value, bool) or n is None or n != value:
        raise ConfigError("%s must be an integer, got %r" % (path, value))
    return n


def _is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_finite(value, path):
    """Refuse NaN and the infinities anywhere in value, a config document
    or a part of it: JSON text spells them NaN and Infinity."""
    if isinstance(value, dict):
        for key, val in value.items():
            _check_finite(val, "%s.%s" % (path, key) if path else key)
    elif isinstance(value, (list, tuple)):
        for val in value:
            _check_finite(val, "%s entry" % path)
    elif _is_real(value) and not math.isfinite(value):
        raise ConfigError("%s must be finite, got %r" % (path, value))


def _check_pair(value, path):
    """value, refused unless it is a pair of numbers."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(_is_real(v) for v in value)):
        raise ConfigError("%s must be a pair of numbers, got %r"
                          % (path, value))
    return value


def _check_eps_list(values, path):
    if not isinstance(values, list):
        raise ConfigError("%s must be a list, got %r" % (path, values))
    if not values:
        raise ConfigError("%s must not be empty" % path)
    ns = []
    for v in values:
        n = _check_int(v, "%s entry" % path)
        if n < 1:
            raise ConfigError("%s entries must be positive integers "
                              "(reciprocals of eps), got %r" % (path, v))
        ns.append(n)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError("%s must be strictly increasing (decreasing eps), "
                          "got %r" % (path, values))
    return ns


def make_initial_function(spec, path):
    """Build a scalar or callable(points) from an initial-data entry."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("%s must be an object with a 'kind'" % path)
    kind = spec["kind"]
    if kind == "constant":
        value = float(spec.get("value", 1.0))
        if value < 0.0:
            raise ConfigError("%s: negative constant %g" % (path, value))
        return value
    if kind == "cosine":
        base = float(spec.get("base", 1.0))
        amp = float(spec.get("amplitude", 0.5))
        kx, ky = _check_pair(spec.get("modes", [1, 1]), path + ".modes")
        if base - abs(amp) < 0.0:
            raise ConfigError("%s: cosine dips below zero" % path)

        def cosine(pts):
            return base + amp * (np.cos(math.pi * kx * pts[:, 0])
                                 * np.cos(math.pi * ky * pts[:, 1]))
        return cosine
    if kind == "gaussian":
        base = float(spec.get("base", 1.0))
        amp = float(spec.get("amplitude", 0.5))
        width = float(spec.get("width", 20.0))
        cx, cy = _check_pair(spec.get("center", [0.5, 0.5]),
                             path + ".center")
        if base < 0.0 or base + min(amp, 0.0) < 0.0:
            raise ConfigError("%s: gaussian dips below zero" % path)

        def gaussian(pts):
            r2 = (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2
            return base + amp * np.exp(-width * r2)
        return gaussian
    raise ConfigError("%s: unknown initial kind %r" % (path, kind))


class ExperimentConfig:
    """Validated configuration with typed accessors."""

    def __init__(self, data):
        self.data = data
        _check_finite(data, "")
        self.eps_list = _check_eps_list(data["eps_list"], "eps_list")
        self.n_omega_samples = _check_int(data["n_omega_samples"],
                                          "n_omega_samples")
        if self.n_omega_samples < 1:
            raise ConfigError("n_omega_samples must be >= 1")
        self.seed = _check_int(data["seed"], "seed")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0, got %d" % self.seed)
        self.K = _check_int(data["K"], "K")
        self.macro_resolution = _check_int(data["macro_resolution"],
                                           "macro_resolution")
        if self.macro_resolution < 4 or self.macro_resolution % 2:
            raise ConfigError(
                "macro_resolution must be even and >= 4, got %d: the limit "
                "mesh's union-jack grid needs an even side"
                % self.macro_resolution)
        ts = data["twoscale"]
        self.twoscale_M = _check_int(ts["M"], "twoscale.M")
        if self.twoscale_M < 1:
            raise ConfigError("twoscale.M must be >= 1")
        self.twoscale_eps = _check_eps_list(ts["eps_list"],
                                            "twoscale.eps_list")
        for section, key in (("pnp", "gummel_max"), ("pnp", "n_outputs"),
                             ("geometry", "n_interface_segments")):
            _check_int(data[section][key], "%s.%s" % (section, key))
        # PnpParams would read a string "0.02" or "yes" through float/bool
        for key, value in data["pnp"].items():
            if key == "upwind" and not isinstance(value, bool):
                raise ConfigError("pnp.upwind must be true or false, got %r"
                                  % (value,))
            if key != "upwind" and not _is_real(value):
                raise ConfigError("pnp.%s must be a number, got %r"
                                  % (key, value))
        # build eagerly so invalid sections fail at load time
        try:
            check_sample_grid(self.K)
            _check_pair(data["geometry"]["inclusion_center"],
                        "geometry.inclusion_center")
            self.geometry = UnitCellSpec(**data["geometry"])
            self.fields = MicroCoefficients(
                rho_f=CoefficientField.from_json_dict(
                    data["fields"]["rho_f"], "rho_f"),
                rho_s=CoefficientField.from_json_dict(
                    data["fields"]["rho_s"], "rho_s"),
                eta=CoefficientField.from_json_dict(
                    data["fields"]["eta"], "eta"),
                gamma=GammaFunction(**data["gamma"]))
            self.pnp = PnpParams(**data["pnp"])
            self.initial = (
                make_initial_function(data["initial"]["plus"],
                                      "initial.plus"),
                make_initial_function(data["initial"]["minus"],
                                      "initial.minus"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc))


def load_config(path=None, overrides=None):
    """Load a config JSON file merged over the defaults.

    overrides, when given, is a shallow dict applied last (used by the CLI
    for --seed).
    """
    data = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("%s is not valid JSON: %s" % (path, exc))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("cannot read %s: %s" % (path, exc))
        data = _merge(data, user)
    if overrides:
        data = _merge(data, overrides)
    return ExperimentConfig(data)


def write_config(path, data=None):
    """Write a config document (defaults when data is None)."""
    with open(path, "w") as fh:
        json.dump(data if data is not None else DEFAULTS, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
