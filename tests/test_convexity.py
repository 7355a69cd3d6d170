import numpy as np
import pytest

from relu_lyapunov import (
    Architecture,
    DiscreteMeasure,
    TargetSpec,
    forward_exact,
    last_layer_midpoint_check,
    midpoint_gap,
    nonconvexity_witness,
    risk_exact,
)


def random_measure(rng, dim, count=5, mass=1.0):
    w = rng.uniform(0.1, 1.0, count)
    w *= mass / w.sum()
    return DiscreteMeasure(rng.uniform(0.0, 1.0, (count, dim)), w, 0.0, 1.0)


def test_witness_realizes_constant_target():
    rng = np.random.default_rng(0)
    for widths in [(1, 7, 1), (1, 3, 7, 1), (2, 2, 2), (3, 4, 2)]:
        arch = Architecture(widths)
        xi = rng.normal(size=arch.widths[-1])
        measure = random_measure(rng, arch.widths[0])
        theta, vartheta = nonconvexity_witness(arch, xi, measure)
        target = TargetSpec.constant(xi)
        assert risk_exact(arch, theta, measure, target) == 0.0
        assert risk_exact(arch, vartheta, measure, target) == 0.0
        for x in measure.points:
            np.testing.assert_array_equal(forward_exact(arch, theta, x).output, xi)
            np.testing.assert_array_equal(forward_exact(arch, vartheta, x).output, xi)


def test_witness_support_structure():
    # one vector holds a unit bias one layer below the output, the other a
    # unit weight in the output layer; both carry the target in the output
    # biases and nothing else
    arch = Architecture((1, 3, 7, 1))
    xi = np.array([0.8])
    measure = DiscreteMeasure.uniform_grid(0.0, 1.0, 3)
    theta, vartheta = nonconvexity_witness(arch, xi, measure)
    depth = arch.depth
    i_bias = arch.bias_index(depth - 1, 1) - 1
    i_weight = arch.weight_index(depth, 1, 1) - 1
    i_out = arch.bias_index(depth, 1) - 1
    expect_theta = np.zeros(arch.param_count)
    expect_theta[i_bias] = 1.0
    expect_theta[i_out] = 0.8
    expect_var = np.zeros(arch.param_count)
    expect_var[i_weight] = 1.0
    expect_var[i_out] = 0.8
    np.testing.assert_array_equal(theta, expect_theta)
    np.testing.assert_array_equal(vartheta, expect_var)


def test_midpoint_shifts_output_by_quarter():
    arch = Architecture((1, 7, 1))
    xi = np.array([-0.3])
    measure = DiscreteMeasure.uniform_grid(0.0, 1.0, 11)
    theta, vartheta = nonconvexity_witness(arch, xi, measure)
    mid = 0.5 * (theta + vartheta)
    for x in measure.points:
        out = forward_exact(arch, mid, x).output
        np.testing.assert_allclose(out, xi + np.array([0.25]), rtol=0, atol=1e-16)


def test_unit_mass_gap_value():
    arch = Architecture((1, 7, 1))
    # dyadic weights make the value exact; generic grids land within 1e-12
    dyadic = DiscreteMeasure(np.linspace(0.0, 1.0, 4)[:, None], np.full(4, 0.25), 0.0, 1.0)
    theta, vartheta = nonconvexity_witness(arch, np.array([1.0]), dyadic)
    assert midpoint_gap(arch, theta, vartheta, dyadic, TargetSpec.constant(1.0)) == 0.0625
    grid = DiscreteMeasure.uniform_grid(0.0, 1.0, 101)
    gap = midpoint_gap(arch, theta, vartheta, grid, TargetSpec.constant(1.0))
    assert abs(gap - 0.0625) < 1e-12


def test_witness_requires_depth_and_mass():
    with pytest.raises(ValueError):
        nonconvexity_witness(Architecture((1, 1)), 1.0, DiscreteMeasure.uniform_grid(0.0, 1.0, 3))
    empty = DiscreteMeasure(np.zeros((1, 1)), np.zeros(1), 0.0, 1.0)
    with pytest.raises(ValueError):
        nonconvexity_witness(Architecture((1, 2, 1)), 1.0, empty)
    with pytest.raises(ValueError):
        nonconvexity_witness(Architecture((1, 2, 1)), np.zeros(2), DiscreteMeasure.uniform_grid(0.0, 1.0, 3))


def test_affine_risk_is_convex():
    # depth 1 keeps the squared loss convex, so every midpoint gap is <= 0
    rng = np.random.default_rng(2)
    arch = Architecture((2, 3))
    measure = random_measure(rng, 2, count=4)
    target = TargetSpec.constant(rng.normal(size=3))
    for _ in range(200):
        a = rng.normal(size=arch.param_count)
        b = rng.normal(size=arch.param_count)
        assert midpoint_gap(arch, a, b, measure, target) <= 1e-12


def test_last_layer_restriction_is_convex():
    rng = np.random.default_rng(3)
    for widths in [(1, 7, 1), (1, 3, 7, 1), (2, 4, 3)]:
        arch = Architecture(widths)
        head = arch.offsets[arch.depth - 1]
        block = arch.param_count - head
        measure = random_measure(rng, arch.widths[0], count=6)
        target = TargetSpec.constant(rng.normal(size=arch.widths[-1]))
        for _ in range(100):
            hidden = rng.normal(size=head)
            v = rng.normal(size=block)
            w = rng.normal(size=block)
            lhs, rhs = last_layer_midpoint_check(arch, hidden, v, w, measure, target)
            assert lhs <= rhs + 1e-12 * (1.0 + abs(rhs))


def test_last_layer_check_validates_shapes():
    arch = Architecture((1, 2, 1))
    measure = DiscreteMeasure.uniform_grid(0.0, 1.0, 3)
    target = TargetSpec.constant(0.0)
    with pytest.raises(ValueError):
        last_layer_midpoint_check(arch, np.zeros(3), np.zeros(3), np.zeros(3), measure, target)
    with pytest.raises(ValueError):
        last_layer_midpoint_check(arch, np.zeros(4), np.zeros(2), np.zeros(3), measure, target)
