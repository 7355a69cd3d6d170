"""Gradients of the risk functionals.

The exact ReLU network is only piecewise smooth, so `generalized_gradient`
computes the limit of the smoothed gradients: a reverse sweep whose hidden
gates are the left derivative of ReLU (0 exactly at a kink).  For smoothed
networks `smooth_gradient` is the honest gradient of `risk_smooth`.  Both run
the allocating reverse sweep `_backward`; only the gate differs.  Like
`_forward`, it works on feature-major ``(..., width, samples)`` arrays.  The
training loops run the same sweep as the step `_build_step` builds once per
workspace: straight-line ``out=`` calls into buffers allocated once
that, for scalar output, factor the output weights out of the last hidden
layer's gradients.

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
from .network import _ZERO, _check_inputs, _relu_unit, _residual, _smooth_unit, _Workspace, forward_exact, layer_sharpness
from .risk import DiscreteMeasure, TargetSpec, _batch, _constant_target

PATH_CAP = 10_000


class PathCountError(RuntimeError):
    """Raised when the path-sum oracle would enumerate too many paths."""


def _left_gate(k: int, z: np.ndarray) -> np.ndarray:
    """Strict left derivative of ReLU: only positive preactivations pass."""
    return z > 0.0


def _smooth_gate(sharpness: float, cfg: ClampConfig):
    """Derivative of `_smooth_unit(sharpness, cfg)` after hidden layer k."""
    return lambda k, z: smooth_relu_derivative(cfg, layer_sharpness(sharpness, k), z)


def _backward(layers, points, pres, acts, delta, gate) -> list[tuple[np.ndarray, np.ndarray]]:
    """Reverse sweep from output sensitivities ``delta``: [(dW_k, db_k)] for k = 1..L.

    Shapes and the optional leading trial axis follow `_forward`, whose
    outputs ``pres``/``acts`` this consumes: ``delta`` is (..., l_L, M), and
    bias gradients sum its contiguous sample axis.  ``gate(k, z)`` is the
    derivative of the unit after hidden layer k.  Through a fan-out-1 layer
    the delta is back-propagated as the broadcast product ``W_k^T * delta``.
    Training runs the same sweep as the step of `_build_step`.
    """
    grads = []
    for k in range(len(layers), 0, -1):
        inputs = acts[k - 2] if k > 1 else points
        grads.append((delta @ inputs.swapaxes(-1, -2), delta.sum(axis=-1)))
        if k > 1:
            back = layers[k - 1][0].swapaxes(-1, -2)
            delta = back * delta if back.shape[-1] == 1 else back @ delta
            delta *= gate(k - 1, pres[k - 2])
    return grads[::-1]


def _build_step(ws: _Workspace):
    """The training step over ``ws.views``, built once with the workspace: ``step(fvals, resid, scale)``.

    The views are the buffers and parameter blocks as the products take them
    (their 2-D ``[0]`` where ``ws.matmul`` is ``np.dot``, see `_Workspace`), and
    every product is a ``ws.matmul``.  It runs ``ws.forward()``, writes the residual N - ``fvals`` into ``resid``
    (``ws.out`` or a buffer of its shape) and delta = ``resid * scale`` into
    ``ws.out`` (but see ``narrow`` below), and sweeps back with the exact gate in ``out=`` calls that
    leave the gradient in ``ws.grad``: layer k's is the one product
    ``delta_k @ [h; 1]^T`` (its bias column a product with the ones row), its
    gate is h_k > 0 read from ``ws.hidden`` (the ReLU output, as no preactivation is kept) into ``ws.gates``, and
    delta_{k-1} is written over h_{k-1} once both have read it.  With scalar output (l_L = 1, L >= 2) the output
    weights ``w = W_L[..., 0, :]`` are factored out of layer L-1's gradients, ``w[..., :, None] * (D @ [a; 1]^T)``
    (over (l, c, trials) views on stacked blocks: numpy's own order loops over c-long rows) with ``D = G * delta``,
    G the float gate after layer L-1, both written over h_{L-1}, and ``a`` its input, and
    the plain sweep goes on from ``delta_{L-2} = ((W_{L-1}^T * w[..., None, :]) @ D) * gate(L-2)``,
    the bracket written into ``ws.back``; for 1 -> h -> 1 (``ws.narrow``)
    delta goes on the two-row side, ``w[..., :, None] * (G @ (delta * [x; 1])^T)``,
    written straight into the ones row of ``ws.scaled`` (delta * 1.0 is delta),
    from which the x row's one-row product and the top gradient read it.
    This skips the broadcasts over the (trials, l_{L-1}, M) delta.  The gates'
    zero is `network._ZERO`, and callers pass a scalar ``fvals`` or ``scale``
    as a 0-d array taken once: numpy converts a float operand at every call.
    """
    matmul, multiply, greater, subtract, copyto, zero = ws.matmul, np.multiply, np.greater, np.subtract, np.copyto, _ZERO
    v = ws.views  # the buffers as the products take them, by name
    blocks, grads, inputs_t, out, stacked = v["blocks"], v["grads"], v["inputs_t"], v["out"], ws.out
    hidden = list(zip(v["hidden"], v["gates"]))  # each hidden layer's h rows and gate
    forward, depth, plain, first_t, first_grad = ws.forward, len(blocks), [], inputs_t[0], grads[0]
    # the plain layers k = L or L-2 .. 2: gradient, then delta_{k-1} through W_k^T (a broadcast at fan-out 1)
    for k in range(depth - 2 if ws.factored else depth, 1, -1):
        w_t = blocks[k - 1][..., :-1].swapaxes(-1, -2)
        plain.append((grads[k - 1], inputs_t[k - 1], multiply if w_t.shape[-1] == 1 else matmul, w_t, *hidden[k - 2]))

    def sweep(delta):
        for grad, x_t, back, w_t, h, gate in plain:
            matmul(delta, x_t, out=grad)
            below = greater(h, zero, out=gate)
            delta = back(w_t, delta, out=h)
            delta *= below
        matmul(delta, first_t, out=first_grad)

    if not ws.factored:

        def step(fvals, resid, scale):
            subtract(forward(), fvals, out=resid)
            multiply(resid, scale, out=stacked)
            sweep(out)

        return step
    # the gate G is taken as floats over h: times the broadcast delta, ~1.5x faster than bools
    (g, g_gate), top_t, top_grad, g_grad, w = hidden[-1], inputs_t[-1], grads[-1], grads[-2], blocks[-1][..., 0, :-1]
    # delta goes into `stacked` and the top gradient reads it from `top`; D's product is left * right into prod
    if ws.narrow:  # into the ones row of delta * [x; 1], and delta * x from it into the x row
        stacked, top = ws.scaled[..., 1:, :], v["scaled"][..., 1:, :]
        left, right, prod, rows = top, v["inputs"][0][..., :1, :], v["scaled"][..., :1, :], v["scaled_t"]
    else:
        top, left, right, prod, rows = out, g, out, g, inputs_t[-2]
    both, w_col = (g_grad.transpose(1, 2, 0), w.T[:, None]) if g_grad.ndim == 3 else (g_grad, w[:, None])
    w_row, deep = w[..., None, :], depth > 2
    if deep:
        (a, a_gate), w_t, back = hidden[-2], blocks[-2][..., :-1].swapaxes(-1, -2), v["back"]

    def step(fvals, resid, scale):
        subtract(forward(), fvals, out=resid)
        multiply(resid, scale, out=stacked)
        matmul(top, top_t, out=top_grad)
        copyto(g, greater(g, zero, out=g_gate))
        multiply(left, right, out=prod)
        matmul(g, rows, out=g_grad)
        multiply(both, w_col, out=both, order="C")
        if deep:  # delta_{L-2} over a, then the plain layers below
            below = greater(a, zero, out=a_gate)
            multiply(w_t, w_row, out=back)
            delta = matmul(back, g, out=a)
            delta *= below
            sweep(delta)

    return step


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
    return _grad_core(arch, theta, batch, weights, _constant_target(arch, xi, "xi")[0][None])[0]


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


def _growth_factor(arch: Architecture, base: float, mass: float, input_scale: float) -> float:
    """L scale^2 prod_p (l_p + 1) base^(L-1) mass, in Python floats: inf where it overflows.

    The constant of the gradient growth lemma: at base = ||theta||^2 + 1 it
    bounds ||G(theta)||^2 by 4 times itself times the risk.  The descent thresholds in `lyapunov` take it
    at base = (||f0|| + sqrt(V + L ||f0||^2))^2 + 1, the norm bound `lyapunov._norm_sq_bound` plus 1.
    """
    depth = arch.depth
    try:
        return depth * float(input_scale) ** 2 * math.prod(w + 1 for w in arch.widths) * float(base) ** (depth - 1) * float(mass)
    except OverflowError:
        return math.inf


def gradient_growth_bound(
    arch: Architecture, theta, mass: float, risk_value: float, input_scale: float = 1.0
) -> float:
    """Upper bound for ||generalized gradient||^2 in terms of the risk.

    4 L mass scale^2 prod_p (l_p + 1) (||theta||^2 + 1)^(L-1) risk: 4 times
    `_growth_factor` at base ||theta||^2 + 1, times the risk; inf where the
    factor overflows, except at zero risk, where the bound is 0.
    """
    theta = check_params(arch, theta)
    risk_value = float(risk_value)
    return 4.0 * _growth_factor(arch, float(theta @ theta) + 1.0, mass, input_scale) * risk_value if risk_value else 0.0
