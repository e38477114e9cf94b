"""Tests for the probability space, shift dynamics, and coefficient fields."""

import math

import numpy as np
import pytest

from pnphom.randomfield import (
    CoefficientField,
    GammaFunction,
    TorusShift,
    eval_field_eps,
    sample_omega,
    shift,
)


def test_sample_determinism():
    a = sample_omega(1234)
    b = sample_omega(1234)
    c = sample_omega(1235)
    assert np.array_equal(a.omega, b.omega)
    assert not np.array_equal(a.omega, c.omega)
    assert np.all((a.omega >= 0.0) & (a.omega < 1.0))


def test_sample_uniform_moments():
    M = 100000
    samples = np.array([sample_omega(s).omega for s in range(M)])
    sigma = (1.0 / math.sqrt(12.0)) / math.sqrt(M)
    for k in range(2):
        assert abs(samples[:, k].mean() - 0.5) <= 3.0 * sigma


def test_measure_invariance_under_shift():
    # MC mean of g(T(y) w) matches the exact torus integral of g
    g = CoefficientField("g", 1.0, w_modes=[[[1, 0], 0.4], [[2, 1], 0.3]])
    y = np.array([0.37, 0.81])
    M = 100000
    vals = np.empty(M)
    for s in range(M):
        w = shift(sample_omega(s).omega, y)
        vals[s] = g.evaluate(w, np.zeros(2))
    exact = g.mean_value()
    stderr = vals.std(ddof=1) / math.sqrt(M)
    assert abs(vals.mean() - exact) <= 3.0 * stderr


def test_shift_examples():
    out = shift(np.array([0.9, 0.8]), np.array([0.3, 0.4]))
    assert np.allclose(out, [0.2, 0.2], atol=1e-12)
    w = np.array([0.11, 0.77])
    assert np.array_equal(shift(w, np.zeros(2)), w)


def test_shift_group_law():
    rng = np.random.default_rng(5)
    for _ in range(50):
        w = rng.random(2)
        y1 = rng.normal(size=2) * 3
        y2 = rng.normal(size=2) * 3
        lhs = shift(shift(w, y1), y2)
        rhs = shift(w, y1 + y2)
        # compare as points on the torus
        d = np.abs(lhs - rhs)
        d = np.minimum(d, 1.0 - d)
        assert np.all(d < 1e-10)


def test_torus_shift_class():
    ts = TorusShift([1.25, -0.25], rng_seed=9)
    assert np.allclose(ts.omega, [0.25, 0.75])
    assert np.allclose(shift(ts.omega, [0.5, 0.5]), [0.75, 0.25])
    with pytest.raises(ValueError):
        TorusShift([0.1, 0.2, 0.3])


def test_field_constant():
    f = CoefficientField("field", 2.5)
    assert f.evaluate(np.zeros(2), np.zeros(2)) == 2.5
    assert not f.y_modes and not f.w_modes
    assert eval_field_eps(f, np.array([0.3, 0.9]), np.array([0.2, 0.7]), 0.25) == 2.5


def test_field_trig_example():
    # single y-mode cos(2 pi y1), eps = 1, w = 0, x = (0.25, 0):
    # value = base + a cos(2 pi 0.25) = base
    a = 0.3
    f = CoefficientField("f", 2.0, y_modes=[[[1, 0], a]])
    val = eval_field_eps(f, np.zeros(2), np.array([0.25, 0.0]), 1.0)
    assert val == pytest.approx(2.0, abs=1e-14)
    # direct evaluation at a non-degenerate angle
    val = f.evaluate(np.zeros(2), np.array([0.125, 0.0]))
    assert val == pytest.approx(2.0 + a * math.cos(math.pi / 4), abs=1e-14)


def test_field_eps_periodicity():
    f = CoefficientField("f", 2.0, y_modes=[[[2, 1], 0.4]])
    eps = 0.25
    x = np.array([0.3117, 0.4242])
    v1 = eval_field_eps(f, np.array([0.6, 0.1]), x, eps)
    v2 = eval_field_eps(f, np.array([0.6, 0.1]), x + np.array([eps * eps, 0.0]), eps)
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_field_floor_positivity():
    f = CoefficientField(
        "f", 2.0,
        y_modes=[[[1, 0], 0.5], [[0, 2], 0.3]],
        w_modes=[[[1, 1], 0.4]],
        floor=0.5,
    )
    grid = np.linspace(0.0, 1.0, 256, endpoint=False)
    yy = np.column_stack([np.repeat(grid, 256), np.tile(grid, 256)])
    rng = np.random.default_rng(11)
    for _ in range(4):
        w = rng.random(2)
        vals = f.evaluate(w, yy)
        assert vals.min() >= f.floor - 1e-12


def test_field_validation():
    with pytest.raises(ValueError):
        CoefficientField("f", 1.0, y_modes=[[[1, 0], 0.8]], floor=0.5)
    with pytest.raises(ValueError):
        CoefficientField("f", 0.2, y_modes=[[[1, 0], 0.5]])
    with pytest.raises(ValueError):
        CoefficientField("f", 1.0, y_modes=[[[0, 0], 0.1]])


def test_field_averages():
    f = CoefficientField(
        "f", 3.0, y_modes=[[[1, 0], 0.5]], w_modes=[[[0, 1], 0.25]])
    y = np.array([0.2, 0.9])
    w = np.array([0.4, 0.125])
    assert f.omega_average(y) == pytest.approx(
        3.0 + 0.5 * math.cos(2 * math.pi * 0.2), abs=1e-14)
    assert f.y_average(w) == pytest.approx(
        3.0 + 0.25 * math.cos(2 * math.pi * 0.125), abs=1e-14)
    assert f.mean_value() == 3.0
    # MC check of the omega average
    vals = [f.evaluate(sample_omega(s).omega, y) for s in range(20000)]
    stderr = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - f.omega_average(y)) <= 3.0 * stderr


def test_field_arithmetic_order_is_pinned():
    # every value is (base + y-mode sum) + w-mode sum, each mode sum taken
    # in the listed order, so the stage-1 memo keys (w_value) and the fine
    # coefficients do not move by rounding
    y_modes = [((1, 0), 0.3), ((2, -1), -0.2)]
    w_modes = [((0, 1), 0.25), ((1, 3), 0.15)]
    f = CoefficientField("f", 2.0, y_modes=y_modes, w_modes=w_modes)
    rng = np.random.default_rng(17)
    y = rng.random((300, 2)) * 3.0 - 1.0
    w = rng.random((300, 2))

    def mode_sum(modes, u):
        (k, a), (l, b) = modes
        return (a * np.cos(2.0 * math.pi * (k[0] * u[..., 0] + k[1] * u[..., 1]))
                + b * np.cos(2.0 * math.pi * (l[0] * u[..., 0] + l[1] * u[..., 1])))

    sum_y, sum_w = mode_sum(y_modes, y), mode_sum(w_modes, w)
    assert np.array_equal(f.evaluate(w, y), (2.0 + sum_y) + sum_w)
    assert np.array_equal(f.w_value(w), sum_w)
    assert np.array_equal(f.omega_average(y), 2.0 + sum_y)
    assert np.array_equal(f.y_average(w), 2.0 + sum_w)
    # one sample point against many cell points, as the cell problems use it
    assert np.array_equal(f.evaluate(w[7], y), (2.0 + sum_y) + sum_w[7])
    assert f.w_value(w[7]) == sum_w[7]


def test_ergodic_average_along_irrational_direction():
    # time average of a zero-mean observable along an irrational orbit
    g = CoefficientField("g", 1.0, w_modes=[[[1, 0], 0.5], [[1, 1], 0.25]])
    v = np.array([1.0 / math.sqrt(2.0), 1.0 / math.sqrt(3.0)])
    w0 = sample_omega(3).omega
    for K in (256, 1024, 4096):
        ks = np.arange(K)[:, None] * v[None, :]
        pts = shift(w0, ks)
        vals = g.evaluate(pts, np.zeros(2)) - g.mean_value()
        assert abs(vals.mean()) <= 10.0 / math.sqrt(K)


def test_field_from_json_dict():
    data = {"base": 2.0, "floor": 0.5,
            "y_modes": [[[1, 0], 0.5]], "w_modes": [[[0, 1], 0.3]]}
    f = CoefficientField.from_json_dict(data, name="eta")
    assert f.base_value == 2.0
    assert f.floor == 0.5
    assert f.y_modes == [((1, 0), 0.5)]
    assert f.w_modes == [((0, 1), 0.3)]


def test_gamma_linear():
    g = GammaFunction()
    assert g(0.0) == 0.0
    assert g(2.5) == 2.5
    assert g.derivative(-3.0) == 1.0
    r = np.linspace(-10, 10, 101)
    assert np.allclose(g(r), r)


def test_gamma_saturated_slope_bounds():
    g = GammaFunction(kind="saturated", alpha=0.5, lipschitz=2.0, saturation_scale=1.5)
    assert g(0.0) == 0.0
    r = np.linspace(-10.0, 10.0, 2001)
    fd = (g(r[1:]) - g(r[:-1])) / (r[1] - r[0])
    assert fd.min() >= 0.5 - 1e-6
    assert fd.max() <= 2.0 + 1e-6
    d = g.derivative(r)
    assert d.min() >= 0.5 - 1e-12
    assert d.max() <= 2.0 + 1e-12
    # odd function increasing through zero
    assert g(1.0) > 0 > g(-1.0)


def test_gamma_validation():
    with pytest.raises(ValueError):
        GammaFunction(alpha=0.0)
    with pytest.raises(ValueError):
        GammaFunction(kind="saturated", alpha=2.0, lipschitz=1.0)
    with pytest.raises(ValueError):
        GammaFunction(kind="linear", alpha=1.0, lipschitz=2.0)
    with pytest.raises(ValueError):
        GammaFunction(kind="cubic")
    # the config's gamma section is passed as keywords
    g = GammaFunction(**{"kind": "saturated", "alpha": 1.0,
                         "lipschitz": 3.0, "saturation_scale": 0.5})
    assert g.lipschitz == 3.0
