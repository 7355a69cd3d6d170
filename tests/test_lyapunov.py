import numpy as np
import pytest

from relu_lyapunov import (
    Architecture,
    LyapunovContext,
    lyapunov_gradient,
    lyapunov_value,
    norm_bound,
    sandwich_bounds,
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


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    arch = Architecture((2, 3, 2))
    ctx = LyapunovContext(arch, rng.normal(size=2))
    h = 1e-8
    for _ in range(50):
        theta = rng.normal(size=arch.param_count)
        g = lyapunov_gradient(ctx, theta)
        for i in rng.integers(0, arch.param_count, 4):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            fd = (lyapunov_value(ctx, tp) - lyapunov_value(ctx, tm)) / (tp[i] - tm[i])
            assert abs(fd - g[i]) <= 1e-6 * max(1.0, abs(g[i]))


def test_sandwich():
    """0.5 ||theta||^2 - 2 L^2 ||f0||^2 <= V <= 2 L ||theta||^2 + L ||f0||^2."""
    rng = np.random.default_rng(2)
    for widths in [(1, 1), (1, 2, 1), (1, 3, 7, 1)]:
        arch = Architecture(widths)
        f0 = rng.normal(size=arch.widths[-1])
        ctx = LyapunovContext(arch, f0)
        depth = arch.depth
        f0sq = float(f0 @ f0)
        for _ in range(500):
            theta = rng.normal(0.0, 2.0, arch.param_count)
            v = lyapunov_value(ctx, theta)
            lo, hi = sandwich_bounds(ctx, theta)
            nsq = float(theta @ theta)
            assert abs(lo - (0.5 * nsq - 2.0 * depth**2 * f0sq)) < 1e-12 * (1 + abs(lo))
            assert abs(hi - (2.0 * depth * nsq + depth * f0sq)) < 1e-12 * (1 + abs(hi))
            assert lo - 1e-10 <= v <= hi + 1e-10


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
