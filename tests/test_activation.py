import numpy as np
import pytest

from relu_lyapunov import (
    DEFAULT_CLAMP,
    ClampConfig,
    relu,
    relu_left_derivative,
    smooth_relu,
    smooth_relu_derivative,
    smooth_relu_derivative_bound,
    smoothstep,
    smoothstep_slope,
)


def test_clamp_validation():
    ClampConfig(0.25, 2.0)
    with pytest.raises(ValueError):
        ClampConfig(0.0, 1.0)
    with pytest.raises(ValueError):
        ClampConfig(1.0, 0.5)
    with pytest.raises(ValueError):
        ClampConfig(-1.0, 1.0)


def test_default_window():
    assert DEFAULT_CLAMP.lo == 0.5
    assert DEFAULT_CLAMP.hi == 1.0


def test_smoothstep_clamps_and_interpolates():
    assert smoothstep(-3.0) == 0.0
    assert smoothstep(0.0) == 0.0
    assert smoothstep(0.5) == 0.5
    assert smoothstep(1.0) == 1.0
    assert smoothstep(4.0) == 1.0
    assert smoothstep_slope(0.5) == 1.5
    assert smoothstep_slope(-1.0) == 0.0
    assert smoothstep_slope(2.0) == 0.0


def test_reference_point_is_exact():
    # dyadic inputs make these equalities exact in binary floating point
    assert smooth_relu(DEFAULT_CLAMP, 1.0, 0.75) == 0.375
    assert smooth_relu_derivative(DEFAULT_CLAMP, 1.0, 0.75) == 2.75
    assert smooth_relu_derivative_bound(DEFAULT_CLAMP) == 4.0


def test_regions_at_unit_sharpness():
    cfg = DEFAULT_CLAMP
    xs = np.linspace(-2.0, 3.0, 1001)
    ys = smooth_relu(cfg, 1.0, xs)
    assert np.all(ys[xs <= cfg.lo] == 0.0)
    ramp = (xs > cfg.lo) & (xs < cfg.hi)
    assert np.all((ys[ramp] > 0.0) & (ys[ramp] < xs[ramp]))
    agree = xs >= cfg.hi
    np.testing.assert_array_equal(ys[agree], xs[agree])


def test_monotone_in_x():
    cfg = DEFAULT_CLAMP
    for r in (1.0, 4.0, 64.0):
        xs = np.linspace(-1.0, 2.0, 10001)
        ys = smooth_relu(cfg, r, xs)
        assert np.all(np.diff(ys) >= -1e-15)


def test_left_derivative_gate():
    xs = np.array([-1.0, -1e-300, 0.0, 1e-300, 2.5])
    np.testing.assert_array_equal(relu_left_derivative(xs), [0.0, 0.0, 0.0, 1.0, 1.0])
    np.testing.assert_array_equal(relu(xs), [0.0, 0.0, 0.0, 1e-300, 2.5])


def test_sharpness_must_be_at_least_one():
    with pytest.raises(ValueError):
        smooth_relu(DEFAULT_CLAMP, 0.5, 1.0)
    with pytest.raises(ValueError):
        smooth_relu_derivative(DEFAULT_CLAMP, 0.0, 1.0)
