"""Gradients of the risk functionals.

The exact ReLU network is only piecewise smooth, so `generalized_gradient`
computes the limit of the smoothed gradients: a reverse sweep whose hidden
gates are the left derivative of ReLU (0 exactly at a kink).  For smoothed
networks `smooth_gradient` is the honest gradient of `risk_smooth`.  Both, and
every training loop, run the one reverse sweep `_backward`; only the gate
differs.  Like `_forward`, it works on feature-major ``(..., width, samples)``
arrays.  With the workspace of a training run it writes into buffers
allocated once and, for scalar output, factors the output weights out of the
last hidden layer's gradients (see `_backward`); the public gradient functions
take the plain layer-by-layer loop.

`gradient_pathsum_oracle` is an independent reference implementation that
expands the same quantity as a literal sum over neuron paths.  It is
deliberately slow and structurally unrelated to the reverse sweep; tests pit
the two against each other.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .activation import DEFAULT_CLAMP, ClampConfig, smooth_relu_derivative
from .arch import Architecture, check_params
from .network import _check_inputs, _relu_unit, _residual, _smooth_unit, _Workspace, forward_exact, layer_sharpness
from .risk import DiscreteMeasure, TargetSpec, _batch, _constant_row

PATH_CAP = 10_000


class PathCountError(RuntimeError):
    """Raised when the path-sum oracle would enumerate too many paths."""


def _left_gate(k: int, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Strict left derivative of ReLU: only positive preactivations pass."""
    return z > 0.0 if out is None else np.greater(z, 0.0, out=out)


def _smooth_gate(sharpness: float, cfg: ClampConfig):
    """Derivative of `_smooth_unit(sharpness, cfg)` after hidden layer k."""
    return lambda k, z: smooth_relu_derivative(cfg, layer_sharpness(sharpness, k), z)


def _backward(
    layers, points, pres, acts, delta, gate, ws: _Workspace | None = None
) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """Reverse sweep from output sensitivities ``delta``: [(dW_k, db_k)] for k = 1..L.

    Shapes and the optional leading trial axis follow `_forward`, whose
    outputs ``pres``/``acts`` this consumes: ``delta`` is (..., l_L, M), and
    bias gradients sum its contiguous sample axis.  ``gate(k, z)`` is the
    derivative of the unit after hidden layer k.  Through a fan-out-1 layer
    the delta is back-propagated as the broadcast product ``W_k^T * delta``.

    With the workspace ``ws`` that `_forward` ran on, the sweep is a fixed
    sequence of ``out=`` calls on the views ``ws`` binds and returns nothing:
    layer k's gradient is the one product ``delta_k @ [h; 1]^T`` written into
    ``ws.grads[k-1]``, a view of the block ``ws.grad``, its bias column a
    product with the ones row rather than a sum; ``gate`` takes an ``out``
    argument, as `_left_gate` does, and each layer's delta overwrites its
    preactivation in ``ws.pres`` once the gate is taken.  With scalar output
    (l_L = 1, L >= 2) the sweep never forms delta_{L-1} = w^T * delta * G,
    with ``w = W_L[..., 0, :]``, ``G`` the gate after layer L-1 and ``a`` the
    input of layer L-1: ``w`` is factored out of layer L-1's gradients,
    ``w[..., :, None] * (D @ [a; 1]^T)`` with ``D = G * delta``, and the loop
    continues from ``delta_{L-2} = ((W_{L-1}^T * w[..., None, :]) @ D) * gate(L-2)``,
    the product in brackets written into ``ws.back``.
    For a 1 -> h -> 1 network (L = 2, one input) delta goes on the two-row
    side instead: ``w[..., :, None] * (G @ (delta * [x; 1])^T)``.  This skips
    the broadcasts over the (trials, l_{L-1}, M) delta.  Without a workspace
    (the public gradient functions and the tests' reference loops) the sweep
    is the plain layer-by-layer loop.
    """
    if ws is None:
        grads = []
        for k in range(len(layers), 0, -1):
            inputs = acts[k - 2] if k > 1 else points
            grads.append((delta @ inputs.swapaxes(-1, -2), delta.sum(axis=-1)))
            if k > 1:
                back = layers[k - 1][0].swapaxes(-1, -2)
                delta = back * delta if back.shape[-1] == 1 else back @ delta
                delta *= gate(k - 1, pres[k - 2])
        return grads[::-1]

    top = len(ws.blocks)
    if ws.factored:
        np.matmul(delta, ws.inputs_t[top - 1], out=ws.grads[top - 1])
        # the gate as floats, over the spent preactivation: it multiplies the
        # broadcast delta ~1.5x faster than as bools
        g = ws.pres[top - 2]
        np.copyto(g, gate(top - 1, g, ws.gates[top - 2]))
        if ws.narrow:
            np.multiply(delta, ws.inputs[0], out=ws.scaled)
            both = np.matmul(g, ws.scaled_t, out=ws.grads[0])
        else:
            np.multiply(g, delta, out=g)
            both = np.matmul(g, ws.inputs_t[top - 2], out=ws.grads[top - 2])
            if top > 2:
                below = gate(top - 2, ws.pres[top - 3], ws.gates[top - 3])
                np.multiply(ws.weights_t[top - 2], ws.w_row, out=ws.back)
                delta = np.matmul(ws.back, g, out=ws.pres[top - 3])
                delta *= below
        both *= ws.w_col
        top -= 2
    for k in range(top, 0, -1):
        np.matmul(delta, ws.inputs_t[k - 1], out=ws.grads[k - 1])
        if k > 1:
            below = gate(k - 1, ws.pres[k - 2], ws.gates[k - 2])
            back = ws.weights_t[k - 1]
            delta = (np.multiply if back.shape[-1] == 1 else np.matmul)(back, delta, out=ws.pres[k - 2])
            delta *= below


def _grad_core(
    arch: Architecture,
    theta,
    points: np.ndarray,
    point_weights: np.ndarray,
    fvals,
    unit=_relu_unit,
    gate=_left_gate,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted risk gradient (flat) at float (M, l_0) points, in one checked forward and one reverse pass.

    Also returns that pass's (l_L, M) output N and residual N - f.  ``fvals``
    are the target values or a function of the points, as `_check_inputs` takes them.
    """
    layers, pres, acts, resid = _residual(arch, theta, points, fvals, unit)
    grads = _backward(layers, points.T, pres, acts, 2.0 * resid * point_weights, gate)
    return np.concatenate([part for gw, gb in grads for part in (gw.ravel(), gb)]), pres[-1], resid


def generalized_gradient(
    arch: Architecture, theta, measure: DiscreteMeasure, target: TargetSpec
) -> np.ndarray:
    """Limit of the smoothed risk gradients for a finite measure."""
    return _grad_core(arch, theta, measure.points, measure.weights, target.values)[0]


def minibatch_gradient(arch: Architecture, theta, batch: np.ndarray, xi) -> np.ndarray:
    """Generalized gradient of the minibatch objective (mean squared error)."""
    batch = _batch(batch)
    weights = np.full(batch.shape[0], 1.0 / batch.shape[0])
    return _grad_core(arch, theta, batch, weights, _constant_row(xi))[0]


def smooth_gradient(
    arch: Architecture,
    theta,
    measure: DiscreteMeasure,
    target: TargetSpec,
    sharpness: float,
    cfg: ClampConfig = DEFAULT_CLAMP,
) -> np.ndarray:
    """Gradient of risk_smooth; hidden gates are the smooth unit's derivative."""
    sharpness = float(sharpness)
    unit, gate = _smooth_unit(sharpness, cfg), _smooth_gate(sharpness, cfg)
    return _grad_core(arch, theta, measure.points, measure.weights, target.values, unit, gate)[0]


def gradient_pathsum_oracle(
    arch: Architecture, theta, measure: DiscreteMeasure, target: TargetSpec
) -> np.ndarray:
    """Generalized gradient as a literal sum over neuron paths.

    Entry for weight (k, i, j): over every path i = v_k, v_{k+1}, ..., v_L,
    accumulate 2 (output - target)_{v_L} times the product of downstream
    weights times the strict activation indicators along the path, times the
    incoming activation at j (the input coordinate when k = 1).  Bias entries
    drop the incoming factor.  Terms are combined with math.fsum.
    """
    theta, points, fvals = _check_inputs(arch, theta, measure.points, target.values)
    depth = arch.depth
    widths = arch.widths
    if math.prod(widths[1:]) > PATH_CAP:
        raise PathCountError(
            f"{math.prod(widths[1:])} paths exceed the oracle cap of {PATH_CAP}"
        )
    terms: dict[int, list[float]] = {idx: [] for idx in range(arch.param_count)}
    weight_mats = [None] + [
        theta[arch.weight_slice(k)].reshape(widths[k], widths[k - 1]) for k in range(1, depth + 1)
    ]
    for x, w, f in zip(points, measure.weights, fvals):
        trace = forward_exact(arch, theta, x)
        resid2 = 2.0 * (trace.output - f)
        for k in range(1, depth + 1):
            for i in range(1, widths[k] + 1):
                path_terms: list[float] = []
                tail_layers = [range(1, widths[q] + 1) for q in range(k + 1, depth + 1)]
                for tail in itertools.product(*tail_layers):
                    path = (i,) + tail
                    factor = float(resid2[path[-1] - 1])
                    for q in range(k + 1, depth + 1):
                        v_q = path[q - k]
                        v_prev = path[q - k - 1]
                        factor *= weight_mats[q][v_q - 1, v_prev - 1]
                        if trace.preactivations[q - 2][v_prev - 1] <= 0.0:
                            factor = 0.0
                            break
                    path_terms.append(factor)
                gsum = math.fsum(path_terms)
                for j in range(1, widths[k - 1] + 1):
                    incoming = trace.activations[k - 2][j - 1] if k > 1 else x[j - 1]
                    terms[arch.weight_index(k, i, j) - 1].append(w * gsum * float(incoming))
                terms[arch.bias_index(k, i) - 1].append(w * gsum)
    grad = np.empty(arch.param_count)
    for idx in range(arch.param_count):
        grad[idx] = math.fsum(terms[idx])
    return grad


def gradient_growth_bound(
    arch: Architecture, theta, mass: float, risk_value: float, input_scale: float = 1.0
) -> float:
    """Upper bound for ||generalized gradient||^2 in terms of the risk.

    4 L mass scale^2 prod_p (l_p + 1) (||theta||^2 + 1)^(L-1) risk.
    """
    theta = check_params(arch, theta)
    depth = arch.depth
    prod = math.prod(w + 1 for w in arch.widths)
    norm_sq = float(theta @ theta)
    return 4.0 * depth * float(mass) * float(input_scale) ** 2 * prod * (norm_sq + 1.0) ** (depth - 1) * float(risk_value)
