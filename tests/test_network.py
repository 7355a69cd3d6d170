import numpy as np
import pytest

from relu_lyapunov import (
    DEFAULT_CLAMP,
    Architecture,
    deviation_bound,
    forward_exact,
    forward_smooth,
    smooth_relu_derivative_bound,
)
from relu_lyapunov.arch import layer_views
from relu_lyapunov.network import layer_sharpness


def manual_forward(arch, theta, x):
    h = np.asarray(x, dtype=np.float64)
    for k, (w, b) in enumerate(layer_views(arch, theta), start=1):
        z = w @ h + b
        h = np.maximum(z, 0.0) if k < arch.depth else z
    return h


def test_forward_exact_matches_manual_loop():
    rng = np.random.default_rng(0)
    for widths in [(1, 1), (1, 2, 1), (2, 3, 2), (1, 3, 7, 1), (3, 4, 2, 5)]:
        arch = Architecture(widths)
        for _ in range(20):
            theta = rng.normal(size=arch.param_count)
            x = rng.normal(size=arch.widths[0])
            trace = forward_exact(arch, theta, x)
            np.testing.assert_allclose(trace.output, manual_forward(arch, theta, x), rtol=1e-14)


def test_trace_shapes_and_pattern():
    arch = Architecture((1, 3, 7, 1))
    theta = np.random.default_rng(1).normal(size=arch.param_count)
    trace = forward_exact(arch, theta, [0.3])
    assert len(trace.preactivations) == 3
    assert len(trace.activations) == 2
    assert [p.shape for p in trace.preactivations] == [(3,), (7,), (1,)]
    assert trace.pattern is not None and len(trace.pattern) == 2
    for pre, pat in zip(trace.preactivations[:-1], trace.pattern):
        np.testing.assert_array_equal(pat, pre > 0.0)


def test_pattern_is_strict_at_zero():
    # a neuron sitting exactly on its kink is counted inactive
    arch = Architecture((1, 1, 1))
    theta = np.zeros(arch.param_count)
    theta[arch.weight_index(1, 1, 1) - 1] = 1.0
    trace = forward_exact(arch, theta, [0.0])
    assert trace.pattern[0][0] == np.False_
    assert forward_exact(arch, theta, [1e-12]).pattern[0][0] == np.True_


def test_smooth_trace_has_no_pattern():
    arch = Architecture((1, 2, 1))
    theta = np.ones(arch.param_count)
    trace = forward_smooth(arch, theta, [0.5], 4.0)
    assert trace.pattern is None
    assert trace.output.shape == (1,)


def test_depth_one_smooth_equals_exact():
    """Affine networks have nothing to smooth."""
    rng = np.random.default_rng(2)
    arch = Architecture((3, 2))
    for _ in range(10):
        theta = rng.normal(size=arch.param_count)
        x = rng.normal(size=3)
        np.testing.assert_array_equal(
            forward_smooth(arch, theta, x, 7.0).output,
            forward_exact(arch, theta, x).output,
        )
        assert deviation_bound(arch, theta, 7.0) == 0.0


def test_layer_sharpness_values():
    assert layer_sharpness(16.0, 1) == 16.0
    assert abs(layer_sharpness(16.0, 2) - 4.0) < 1e-12
    assert abs(layer_sharpness(16.0, 4) - 2.0) < 1e-12
    r = 123.456
    assert abs(layer_sharpness(r, 3) ** 3 - r) < 1e-9


def test_deviation_bound_formula():
    arch = Architecture((1, 2, 1))
    theta = np.arange(1.0, 8.0) * 0.1
    cfg = DEFAULT_CLAMP
    slope = smooth_relu_derivative_bound(cfg)
    norm1 = np.abs(theta).sum()
    expected = cfg.hi * (norm1 + slope * norm1**2) / layer_sharpness(9.0, 1)
    assert abs(deviation_bound(arch, theta, 9.0, cfg) - expected) < 1e-14


def test_deviation_bound_dominates_observed_gap():
    rng = np.random.default_rng(3)
    for widths in [(1, 2, 1), (2, 3, 2), (1, 3, 7, 1)]:
        arch = Architecture(widths)
        for _ in range(10):
            theta = rng.normal(0.0, 0.7, arch.param_count)
            r = float(2.0 ** rng.uniform(0.0, 10.0))
            bound = deviation_bound(arch, theta, r)
            for _ in range(20):
                x = rng.uniform(-2.0, 2.0, arch.widths[0])
                gap = np.abs(
                    forward_exact(arch, theta, x).output
                    - forward_smooth(arch, theta, x, r).output
                ).max()
                assert gap <= bound + 1e-12


def test_smooth_converges_to_exact():
    rng = np.random.default_rng(4)
    arch = Architecture((1, 3, 1))
    theta = rng.normal(size=arch.param_count)
    x = rng.uniform(0.0, 1.0, 1)
    exact = forward_exact(arch, theta, x).output
    gaps = [
        np.abs(forward_smooth(arch, theta, x, float(2.0**e)).output - exact).max()
        for e in range(0, 24, 4)
    ]
    assert gaps[-1] <= 1e-6
    assert gaps[-1] <= gaps[0] + 1e-15


def test_deviation_roughly_halves_with_doubled_sharpness():
    """Take the sup of |exact - smooth| over a grid whose layer-1
    preactivations sweep the clamp window; that sup decays like 1/r, so
    doubling the sharpness should halve it up to smooth higher-order terms."""
    arch = Architecture((1, 2, 1))
    theta = np.zeros(arch.param_count)
    theta[arch.weight_index(1, 1, 1) - 1] = 1.0
    theta[arch.weight_index(1, 2, 1) - 1] = -0.5
    theta[arch.bias_index(1, 2) - 1] = 2.0
    theta[arch.weight_index(2, 1, 1) - 1] = 1.0
    theta[arch.weight_index(2, 1, 2) - 1] = 0.75
    theta[arch.bias_index(2, 1) - 1] = -0.3
    for r in (16.0, 64.0, 256.0):
        xs = np.linspace(0.0, 4.0, 4001)
        sup_r = max(
            np.abs(
                forward_exact(arch, theta, [x]).output
                - forward_smooth(arch, theta, [x], r).output
            ).max()
            for x in xs
        )
        sup_2r = max(
            np.abs(
                forward_exact(arch, theta, [x]).output
                - forward_smooth(arch, theta, [x], 2.0 * r).output
            ).max()
            for x in xs
        )
        assert 0.35 <= sup_2r / sup_r <= 0.65, (r, sup_r, sup_2r)


def test_hidden_unit_permutation_invariance():
    rng = np.random.default_rng(5)
    arch = Architecture((2, 4, 3))
    theta = rng.normal(size=arch.param_count)
    perm = rng.permutation(4)
    permuted = theta.copy()
    (w1, b1), (w2, _) = layer_views(arch, permuted)
    w1[...], b1[...], w2[...] = w1[perm], b1[perm], w2[:, perm]
    for _ in range(20):
        x = rng.normal(size=2)
        np.testing.assert_allclose(
            forward_exact(arch, theta, x).output,
            forward_exact(arch, permuted, x).output,
            rtol=1e-13, atol=1e-13,
        )


def test_input_shape_errors():
    arch = Architecture((2, 3, 1))
    theta = np.zeros(arch.param_count)
    with pytest.raises(ValueError):
        forward_exact(arch, theta, [1.0])
    with pytest.raises(ValueError):
        forward_exact(arch, theta, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        forward_smooth(arch, theta, [1.0, 2.0], 0.5)
