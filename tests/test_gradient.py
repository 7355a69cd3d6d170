import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relu_lyapunov import (
    Architecture,
    DiscreteMeasure,
    PathCountError,
    TargetSpec,
    generalized_gradient,
    gradient_growth_bound,
    gradient_pathsum_oracle,
    minibatch_gradient,
    risk_exact,
    smooth_gradient,
    risk_smooth,
)
from relu_lyapunov.activation import DEFAULT_CLAMP
from relu_lyapunov.arch import layer_views
from relu_lyapunov.gradient import _backward, _left_gate, _smooth_gate
from relu_lyapunov.network import _augmented_blocks, _augmented_order, _forward, _relu_unit, _smooth_unit, _Workspace


def random_instance(rng, widths, max_points=5):
    arch = Architecture(widths)
    theta = rng.normal(0.0, 0.8, arch.param_count)
    m = int(rng.integers(1, max_points + 1))
    pts = rng.uniform(-1.0, 1.0, (m, arch.widths[0]))
    weights = rng.uniform(0.0, 1.0, m)
    measure = DiscreteMeasure(pts, weights, -1.0, 1.0)
    target = TargetSpec.constant(rng.normal(size=arch.widths[-1]))
    return arch, theta, measure, target


def test_linear_network_gradient_closed_form():
    # N(x) = w x + b: d/dw = 2 sum lam_i (w x_i + b - xi) x_i, d/db likewise
    arch = Architecture((1, 1))
    w, b, xi = 1.5, -0.25, 0.5
    pts = np.array([[0.0], [0.5], [1.0]])
    lam = np.array([0.2, 0.3, 0.5])
    measure = DiscreteMeasure(pts, lam, 0.0, 1.0)
    target = TargetSpec.constant(xi)
    g = generalized_gradient(arch, np.array([w, b]), measure, target)
    resid = w * pts[:, 0] + b - xi
    expected_w = 2.0 * np.sum(lam * resid * pts[:, 0])
    expected_b = 2.0 * np.sum(lam * resid)
    np.testing.assert_allclose(g, [expected_w, expected_b], rtol=1e-14)


def test_dead_neuron_blocks_gradient():
    # hidden preactivation < 0 on all of the support: layer-1 weight and bias
    # get zero gradient, the output bias still sees the residual
    arch = Architecture((1, 1, 1))
    theta = np.zeros(arch.param_count)
    theta[arch.weight_index(1, 1, 1) - 1] = 1.0
    theta[arch.bias_index(1, 1) - 1] = -5.0
    theta[arch.weight_index(2, 1, 1) - 1] = 1.0
    measure = DiscreteMeasure.uniform_grid(0.0, 1.0, 5)
    target = TargetSpec.constant(1.0)
    g = generalized_gradient(arch, theta, measure, target)
    assert g[arch.weight_index(1, 1, 1) - 1] == 0.0
    assert g[arch.bias_index(1, 1) - 1] == 0.0
    assert abs(g[arch.bias_index(2, 1) - 1] - (-2.0)) < 1e-15


def test_kink_uses_left_derivative():
    """A unit whose preactivation is exactly zero must not transmit gradient;
    the smoothed gradients it is the limit of all vanish there too."""
    arch = Architecture((1, 1, 1))
    theta = np.zeros(arch.param_count)
    theta[arch.weight_index(1, 1, 1) - 1] = 1.0
    theta[arch.weight_index(2, 1, 1) - 1] = 3.0
    measure = DiscreteMeasure(np.array([[0.0]]), np.array([1.0]), 0.0, 1.0)
    target = TargetSpec.constant(1.0)
    g = generalized_gradient(arch, theta, measure, target)
    assert g[arch.weight_index(1, 1, 1) - 1] == 0.0
    smooth = smooth_gradient(arch, theta, measure, target, 2.0**16)
    assert abs(smooth[arch.weight_index(1, 1, 1) - 1]) == 0.0


def test_minibatch_is_uniform_empirical_measure():
    rng = np.random.default_rng(1)
    arch = Architecture((2, 3, 1))
    theta = rng.normal(size=arch.param_count)
    batch = rng.uniform(0.0, 1.0, (6, 2))
    xi = 0.25
    g_batch = minibatch_gradient(arch, theta, batch, xi)
    measure = DiscreteMeasure(batch, np.full(6, 1.0 / 6.0), 0.0, 1.0)
    g_measure = generalized_gradient(arch, theta, measure, TargetSpec.constant(xi))
    np.testing.assert_allclose(g_batch, g_measure, rtol=1e-13, atol=1e-16)


def test_smooth_gradient_finite_differences():
    rng = np.random.default_rng(2)
    h = 1e-6
    for _ in range(20):
        arch, theta, measure, target = random_instance(rng, (1, 2, 1))
        r = float(2.0 ** rng.uniform(1.0, 6.0))
        g = smooth_gradient(arch, theta, measure, target, r)
        for i in range(arch.param_count):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            fd = (
                risk_smooth(arch, tp, measure, target, r)
                - risk_smooth(arch, tm, measure, target, r)
            ) / (tp[i] - tm[i])
            assert abs(fd - g[i]) <= 1e-5 * max(1.0, abs(g[i]))


def test_pathsum_cap():
    arch = Architecture((1, 101, 101, 1))
    theta = np.zeros(arch.param_count)
    measure = DiscreteMeasure.uniform_grid(0.0, 1.0, 2)
    target = TargetSpec.constant(0.0)
    with pytest.raises(PathCountError):
        gradient_pathsum_oracle(arch, theta, measure, target)


def test_growth_bound_reference_value():
    # two-layer width-1 chain at theta = 0, unit mass, risk 1:
    # 4 L mass prod(l+1) (||theta||^2+1)^(L-1) = 4*2*8 = 64
    arch = Architecture((1, 1, 1))
    bound = gradient_growth_bound(arch, np.zeros(arch.param_count), mass=1.0, risk_value=1.0)
    assert bound == 64.0


def test_growth_bound_dominates_gradient():
    rng = np.random.default_rng(3)
    for widths in [(1, 2, 1), (2, 3, 2), (1, 3, 7, 1)]:
        arch = Architecture(widths)
        for _ in range(200):
            theta = rng.normal(0.0, 1.0, arch.param_count)
            m = int(rng.integers(1, 6))
            pts = rng.uniform(-2.0, 2.0, (m, arch.widths[0]))
            measure = DiscreteMeasure(pts, rng.uniform(0.0, 2.0, m), -2.0, 2.0)
            target = TargetSpec.constant(rng.normal(size=arch.widths[-1]))
            g = generalized_gradient(arch, theta, measure, target)
            risk = risk_exact(arch, theta, measure, target)
            bound = gradient_growth_bound(
                arch, theta, measure.mass, risk, input_scale=measure.input_scale
            )
            assert float(g @ g) <= bound * (1.0 + 1e-12)


def test_growth_bound_input_scale_default():
    arch = Architecture((1, 1, 1))
    theta = np.ones(arch.param_count)
    b1 = gradient_growth_bound(arch, theta, 1.0, 1.0)
    b2 = gradient_growth_bound(arch, theta, 1.0, 1.0, input_scale=3.0)
    assert abs(b2 - 9.0 * b1) < 1e-9 * b2


def _stacked_instance(widths, trials, m, seed):
    rng = np.random.default_rng(seed)
    arch = Architecture(widths)
    thetas = rng.normal(0.0, 0.8, (trials, arch.param_count))
    points = rng.uniform(-1.0, 1.0, (trials, m, widths[0]))
    weights = rng.uniform(0.0, 1.0, m)
    xi = rng.normal(size=widths[-1])
    return arch, thetas, points, weights, xi


@st.composite
def stacked_instances(draw):
    """Random trial-stacked problem: depth 1-4, widths 1-3, 1-4 trials, 1-5 points."""
    depth = draw(st.integers(1, 4))
    widths = tuple(draw(st.lists(st.integers(1, 3), min_size=depth + 1, max_size=depth + 1)))
    trials, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    return _stacked_instance(widths, trials, m, draw(st.integers(0, 2**32 - 1)))


def _stack_layers(arch, thetas):
    layers = []
    for k in range(1, arch.depth + 1):
        fan_in, fan_out = arch.layer_sizes(k)
        weights = thetas[:, arch.weight_slice(k)].reshape(len(thetas), fan_out, fan_in)
        layers.append((weights, thetas[:, arch.bias_slice(k)]))
    return layers


def _sweep(layers, points, weights, xi, unit, gate):
    # the kernel is feature-major: (..., width, samples)
    points = points.swapaxes(-1, -2)
    pres, acts = _forward(layers, points, unit)
    delta = 2.0 * (pres[-1] - xi[:, None]) * weights
    return pres, acts, _backward(layers, points, pres, acts, delta, gate)


def _assert_close(a, b):
    # stacked and single matmuls may sum in different orders: a few ulps
    np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-13 * max(1.0, float(np.abs(b).max())))


@settings(max_examples=80, deadline=None)
@given(stacked_instances(), st.one_of(st.none(), st.floats(1.0, 1e3)))
def test_stacked_kernel_matches_single_networks(instance, sharpness):
    """_forward/_backward on a trial-stacked block equal one call per trial,
    for the exact unit (sharpness None) and the smooth one.  Without a
    workspace both take the plain loop; the workspace sweep is pinned against
    the path-sum oracle below and against this loop by the ensemble tests in
    test_optimize."""
    arch, thetas, points, weights, xi = instance
    if sharpness is None:
        unit, gate = _relu_unit, _left_gate
    else:
        unit, gate = _smooth_unit(sharpness, DEFAULT_CLAMP), _smooth_gate(sharpness, DEFAULT_CLAMP)
    pres, acts, grads = _sweep(_stack_layers(arch, thetas), points, weights, xi, unit, gate)
    for t, theta in enumerate(thetas):
        pres_t, acts_t, grads_t = _sweep(layer_views(arch, theta), points[t], weights, xi, unit, gate)
        for stacked, single in zip(pres + acts, pres_t + acts_t):
            _assert_close(stacked[t], single)
        for (gw, gb), (gw_t, gb_t) in zip(grads, grads_t):
            _assert_close(gw[t], gw_t)
            _assert_close(gb[t], gb_t)


@settings(max_examples=60, deadline=None)
@given(stacked_instances())
def test_stacked_kernel_matches_pathsum_oracle(instance):
    """The exact gate on a stacked block gives each trial's path-sum gradient."""
    arch, thetas, points, weights, xi = instance
    _, _, grads = _sweep(_stack_layers(arch, thetas), points, weights, xi, _relu_unit, _left_gate)
    for t, theta in enumerate(thetas):
        fast = np.concatenate([part for gw, gb in grads for part in (gw[t].ravel(), gb[t])])
        measure = DiscreteMeasure(points[t], weights, -1.0, 1.0)
        slow = gradient_pathsum_oracle(arch, theta, measure, TargetSpec.constant(xi))
        assert np.abs(fast - slow).max() <= 1e-12 * max(1.0, float(np.linalg.norm(slow)))


@settings(max_examples=60, deadline=None)
@given(stacked_instances())
@example(_stacked_instance((1, 3, 1), 3, 4, 0))  # 1 -> h -> 1
@example(_stacked_instance((2, 3, 2, 1), 3, 4, 1))  # factored, with back
@example(_stacked_instance((2, 3, 2), 3, 4, 2))  # general
def test_workspace_sweep_matches_pathsum_oracle(instance):
    """`_forward`/`_backward` on a `_Workspace`, the training kernel, give each
    trial's path-sum gradient in ``ws.grad``, on every route of the sweep."""
    arch, thetas, points, weights, xi = instance
    order = _augmented_order(arch.widths)
    ws = _Workspace(_augmented_blocks(arch.widths, np.take(thetas, order, axis=1)), points.shape[1])
    ws.points[...] = points.swapaxes(-1, -2)
    pres, acts = _forward(ws.layers, ws.points, _relu_unit, ws)
    delta = np.subtract(pres[-1], xi[:, None], out=pres[-1])
    delta *= 2.0 * weights
    _backward(ws.layers, ws.points, pres, acts, delta, _left_gate, ws)
    fast = np.empty_like(thetas)
    fast[:, order] = ws.grad
    for t, theta in enumerate(thetas):
        measure = DiscreteMeasure(points[t], weights, -1.0, 1.0)
        slow = gradient_pathsum_oracle(arch, theta, measure, TargetSpec.constant(xi))
        assert np.abs(fast[t] - slow).max() <= 1e-12 * max(1.0, float(np.linalg.norm(slow)))
