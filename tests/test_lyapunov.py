import numpy as np
import pytest

from relu_lyapunov import (
    Architecture,
    LyapunovContext,
    lyapunov_value,
    norm_bound,
)
from relu_lyapunov.arch import layer_views


def manual_value(arch, theta, f0):
    layers = layer_views(arch, theta)
    total = sum(float(np.sum(w * w)) + k * float(b @ b) for k, (w, b) in enumerate(layers, start=1))
    return total - 2.0 * arch.depth * float(np.dot(f0, layers[-1][1]))


def test_value_matches_manual_sum():
    rng = np.random.default_rng(0)
    for widths in [(1, 1), (1, 2, 1), (2, 3, 2), (1, 3, 7, 1)]:
        arch = Architecture(widths)
        f0 = rng.normal(size=arch.widths[-1])
        ctx = LyapunovContext(arch, f0)
        for _ in range(10):
            theta = rng.normal(size=arch.param_count)
            assert abs(lyapunov_value(ctx, theta) - manual_value(arch, theta, f0)) < 1e-12


def test_zero_parameters_zero_value():
    arch = Architecture((1, 3, 7, 1))
    ctx = LyapunovContext(arch, np.array([2.0]))
    assert lyapunov_value(ctx, np.zeros(arch.param_count)) == 0.0


def test_output_bias_at_target_value():
    # only the output bias set, equal to the target: L|xi|^2 - 2L|xi|^2
    arch = Architecture((1, 7, 1))
    xi = 1.5
    theta = np.zeros(arch.param_count)
    theta[arch.bias_index(2, 1) - 1] = xi
    ctx = LyapunovContext(arch, np.array([xi]))
    assert abs(lyapunov_value(ctx, theta) - (-2.0 * xi * xi)) < 1e-15


def test_norm_bound_dominates():
    rng = np.random.default_rng(3)
    arch = Architecture((1, 2, 1))
    ctx = LyapunovContext(arch, np.array([1.0]))
    for _ in range(200):
        theta = rng.normal(size=arch.param_count)
        assert float(np.linalg.norm(theta)) <= norm_bound(ctx, theta) + 1e-12


def test_context_validates_f0():
    arch = Architecture((1, 2, 1))
    with pytest.raises(ValueError):
        LyapunovContext(arch, np.zeros(2))
