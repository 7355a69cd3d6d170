import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from relu_lyapunov import (
    Architecture,
    DiscreteMeasure,
    PathCountError,
    TargetSpec,
    generalized_gradient,
    gradient_growth_bound,
    gradient_pathsum_oracle,
    minibatch_gradient,
    smooth_gradient,
)
from relu_lyapunov.activation import DEFAULT_CLAMP
from relu_lyapunov.arch import layer_views
from relu_lyapunov.gradient import _backward, _left_gate, _smooth_gate
from relu_lyapunov.network import _augmented_order, _forward, _relu_unit, _smooth_unit, _Workspace


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


def test_growth_bound_input_scale_default():
    arch = Architecture((1, 1, 1))
    theta = np.ones(arch.param_count)
    b1 = gradient_growth_bound(arch, theta, 1.0, 1.0)
    b2 = gradient_growth_bound(arch, theta, 1.0, 1.0, input_scale=3.0)
    assert abs(b2 - 9.0 * b1) < 1e-9 * b2


def test_growth_bound_on_overflowing_net():
    # 200 hidden layers at ||theta||^2 + 1 = 1 + 9 d: the growth factor
    # overflows a float, so the bound is inf, and 0 at zero risk (it raised OverflowError)
    arch = Architecture((1,) + (4,) * 200 + (1,))
    theta = np.full(arch.param_count, 3.0)
    assert gradient_growth_bound(arch, theta, 1.0, 0.5) == math.inf
    assert gradient_growth_bound(arch, theta, 1.0, 0.0) == 0.0


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
    for the exact unit (sharpness None) and the smooth one.  Both are the
    allocating layer-by-layer loops; a workspace's bound step is pinned
    against the path-sum oracle below and against these loops by the ensemble
    tests in test_optimize."""
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
    """The step a `_Workspace` builds, the training kernel (its forward pass,
    residual and reverse sweep over its own parameters), gives each trial's
    path-sum gradient in ``ws.grad``, on every route of the sweep."""
    _workspace_step_matches_oracle(*instance)


def _workspace_step_matches_oracle(arch, thetas, points, weights, xi) -> _Workspace:
    """A workspace over ``thetas`` after one step at ``points``, its gradient checked against the path-sum oracle."""
    order = _augmented_order(arch.widths)
    ws = _Workspace(arch.widths, len(thetas), points.shape[1])
    ws.theta[...] = thetas[:, order]
    ws.points[...] = points.swapaxes(-1, -2)
    ws.step(xi[:, None], ws.out, 2.0 * weights)
    fast = np.empty_like(thetas)
    fast[:, order] = ws.grad
    for t, theta in enumerate(thetas):
        measure = DiscreteMeasure(points[t], weights, -1.0, 1.0)
        slow = gradient_pathsum_oracle(arch, theta, measure, TargetSpec.constant(xi))
        assert np.abs(fast[t] - slow).max() <= 1e-12 * max(1.0, float(np.linalg.norm(slow)))
    return ws


SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308])


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 40), elements=st.floats(allow_subnormal=True) | SPECIAL_FLOATS))
def test_gate_of_relu_output_is_gate_of_preactivation(z):
    """max(z, 0) > 0 is z > 0 for every float64, -0.0, subnormals, infinities
    and NaN included, and the ReLU taken in place equals it taken into another
    buffer bit for bit: so a workspace can take each hidden ReLU in place in
    the next layer's input rows and read the step's gates from there."""
    h = z.copy()
    np.maximum(h, 0.0, out=h)
    assert np.array_equal(np.greater(h, 0.0), np.greater(z, 0.0))
    assert np.maximum(z, 0.0).tobytes() == h.tobytes()


@pytest.mark.parametrize("widths", [(1, 7, 1), (1, 3, 7, 1), (2, 3, 2)])
def test_workspace_gates_at_exact_zero_preactivations(widths):
    """On the narrow, factored and plain routes, with dyadic parameters and
    points (0.0 and -0.0 among them) whose preactivations are exactly 0 at some
    samples of every hidden layer, the gates a workspace's step reads from its
    h rows equal z > 0 of the allocating `_forward` bit for bit, and the
    gradient is the path-sum oracle's.  Terms w x = -0.0 and b = -0.0 occur, but
    the products sum from +0.0, so a zero preactivation comes out +0.0; the
    property above covers -0.0 itself."""
    arch, trials, m = Architecture(widths), 3, 16
    rng = np.random.default_rng(23)
    dyadic = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
    thetas = rng.choice(dyadic, (trials, arch.param_count))
    points = rng.choice(dyadic, (trials, m, widths[0]))
    weights, xi = np.full(m, 1.0 / m), np.full(widths[-1], 0.25)
    pres, _ = _forward(_stack_layers(arch, thetas), points.swapaxes(-1, -2), _relu_unit)
    assert all((z == 0.0).any() and (z > 0.0).any() for z in pres[:-1])
    ws = _workspace_step_matches_oracle(arch, thetas, points, weights, xi)
    for gate, z in zip(ws.gates, pres[:-1]):
        assert np.array_equal(gate, z > 0.0)


@pytest.mark.parametrize("trials", [1, 3])
def test_narrow_step_writes_delta_into_the_ones_row(trials):
    """On 1 -> h -> 1, at one trial (``np.dot``) and at three (``np.matmul``),
    the step writes delta = resid * scale straight into the ones row of
    ``scaled`` and delta * x into its x row, and its gradient is the two-row
    product replayed here, multiply(delta, [x; 1]), then G @ S^T, then times
    w (and delta @ [h; 1]^T on top), bit for bit.  The step leaves the float
    gate G in the h rows, so [h; 1] is copied from a forward pass before it."""
    arch, m = Architecture((1, 7, 1)), 25
    rng = np.random.default_rng(31)
    thetas = rng.normal(0.0, 0.5, (trials, arch.param_count))
    ws = _Workspace(arch.widths, trials, m)
    ws.theta[...] = thetas[:, _augmented_order(arch.widths)]
    assert ws.narrow and ws.matmul is (np.dot if trials == 1 else np.matmul)
    ws.points[...] = rng.random((trials, 1, m))
    ws.forward()
    top = ws.inputs[1].copy(order="K")  # the top layer's input [h; 1]
    resid, scale = np.empty(ws.out.shape), np.array(2.0 / m)
    ws.step(np.array(0.75), resid, scale)
    delta = resid * scale
    assert ws.scaled[:, 1:].tobytes() == delta.tobytes()
    assert ws.scaled[:, :1].tobytes() == (delta * ws.points).tobytes()
    gate = (top[:, :-1] > 0.0).astype(np.float64)
    both = gate @ np.multiply(delta, ws.inputs[0]).swapaxes(-1, -2)
    both *= ws.blocks[1][:, 0, :-1, None]
    assert ws.grads[0].tobytes() == both.tobytes()
    assert ws.grads[1].tobytes() == (delta @ top.swapaxes(-1, -2)).tobytes()
    assert ws.hidden[0].tobytes() == gate.tobytes()


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("widths", [(1, 3, 7, 1), (1, 5, 5, 5, 1)])
def test_factored_step_writes_deltas_over_the_h_rows(widths, trials):
    """On the factored route, below one hidden layer (1,3,7,1) and below
    three (1,5,5,5,1: two plain layers under the factored pair), at one
    trial (``np.dot``) and at three (``np.matmul``), every gradient block is
    the allocating replay here bit for bit: the top product, D = G * delta,
    w * (D @ [a; 1]^T) as a broadcast product, delta_{L-2} through
    W_{L-1}^T * w and each plain layer's delta through W_k^T, each times its
    gate.  After the step the h rows of hidden layer k hold delta_k (D for
    layer L-1), and ``ws.gates`` hold z > 0 of the allocating `_forward`."""
    arch, m = Architecture(widths), 25
    rng = np.random.default_rng(37)
    thetas = rng.normal(0.0, 0.6, (trials, arch.param_count))
    points = rng.random((trials, 1, m))
    ws = _Workspace(arch.widths, trials, m)
    ws.theta[...] = thetas[:, _augmented_order(arch.widths)]
    assert ws.factored and not ws.narrow and ws.matmul is (np.dot if trials == 1 else np.matmul)
    ws.points[...] = points
    ws.forward()
    inputs = [a.copy(order="K") for a in ws.inputs]  # [x; 1] and each [h; 1], before the step writes over h
    resid, scale = np.empty(ws.out.shape), np.array(2.0 / m)
    ws.step(np.array(0.75), resid, scale)
    delta = resid * scale
    depth, blocks = arch.depth, ws.blocks
    grads = [None] * depth
    grads[-1] = delta @ inputs[-1].swapaxes(-1, -2)
    w = blocks[-1][:, 0, :-1]
    d = (inputs[-1][:, :-1] > 0.0).astype(np.float64) * delta
    grads[-2] = (d @ inputs[-2].swapaxes(-1, -2)) * w[:, :, None]
    deltas = [None] * (depth - 2) + [d]
    back = blocks[-2][:, :, :-1].swapaxes(-1, -2) * w[:, None, :]
    delta = (back @ d) * (inputs[-2][:, :-1] > 0.0)
    for k in range(depth - 2, 0, -1):
        deltas[k - 1] = delta
        grads[k - 1] = delta @ inputs[k - 1].swapaxes(-1, -2)
        if k > 1:
            delta = (blocks[k - 1][:, :, :-1].swapaxes(-1, -2) @ delta) * (inputs[k - 1][:, :-1] > 0.0)
    assert [g.tobytes() for g in ws.grads] == [g.tobytes() for g in grads]
    assert [h.tobytes() for h in ws.hidden] == [d.tobytes() for d in deltas]
    pres, _ = _forward(_stack_layers(arch, thetas), points, _relu_unit)
    assert all(np.array_equal(gate, z > 0.0) for gate, z in zip(ws.gates, pres[:-1]))
