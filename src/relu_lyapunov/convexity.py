"""Convexity structure of the exact risk.

Freezing everything before the output layer leaves a least-squares problem in
the last layer's weights and biases, so that restriction is always convex.
The full risk is not: for depth at least 2 and a measure with positive mass
there is an explicit parameter pair realizing the same (constant) network
whose midpoint changes the output, which violates the midpoint inequality by
mass/16.
"""

from __future__ import annotations

import numpy as np

from .arch import Architecture, check_params
from .risk import DiscreteMeasure, TargetSpec, _constant_target, risk_exact


def nonconvexity_witness(
    arch: Architecture, xi, measure: DiscreteMeasure
) -> tuple[np.ndarray, np.ndarray]:
    """Two parameter vectors whose midpoint the exact risk treats unfairly.

    Both realize the constant network equal to ``xi`` (one routes a unit
    hidden bias into zero output weights, the other a unit output weight fed
    by a dead hidden neuron), yet their average shifts the first output by
    1/4.  Needs depth >= 2 and positive mass.
    """
    depth = arch.depth
    if depth < 2:
        raise ValueError("depth-1 networks have convex risk; no witness exists")
    if measure.mass <= 0.0:
        raise ValueError("witness needs a measure with positive mass")
    xi = _constant_target(arch, xi, "xi")[0]

    theta = np.zeros(arch.param_count)
    vartheta = np.zeros(arch.param_count)
    theta[arch.bias_index(depth - 1, 1) - 1] = 1.0
    vartheta[arch.weight_index(depth, 1, 1) - 1] = 1.0
    for i in range(1, arch.widths[-1] + 1):
        theta[arch.bias_index(depth, i) - 1] = xi[i - 1]
        vartheta[arch.bias_index(depth, i) - 1] = xi[i - 1]
    return theta, vartheta


def midpoint_gap(
    arch: Architecture, theta, vartheta, measure: DiscreteMeasure, target: TargetSpec
) -> float:
    """risk((theta+vartheta)/2) - (risk(theta) + risk(vartheta)) / 2.

    Positive values witness nonconvexity; convexity forces <= 0.
    """
    theta = check_params(arch, theta)
    vartheta = check_params(arch, vartheta)
    mid = 0.5 * (theta + vartheta)
    return risk_exact(arch, mid, measure, target) - 0.5 * (
        risk_exact(arch, theta, measure, target) + risk_exact(arch, vartheta, measure, target)
    )


def last_layer_midpoint_check(
    arch: Architecture,
    hidden_params: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    measure: DiscreteMeasure,
    target: TargetSpec,
) -> tuple[float, float]:
    """Midpoint inequality for the risk as a function of the last layer only.

    ``hidden_params`` freezes layers 1..L-1; ``v`` and ``w`` are two settings
    of the final layer's block (weights row-major, then biases).  Returns
    (risk at midpoint, averaged risk); convexity of the restriction means
    lhs <= rhs.
    """
    depth = arch.depth
    head = arch.offsets[depth - 1]
    block = arch.param_count - head
    hidden_params = np.asarray(hidden_params, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if hidden_params.shape != (head,):
        raise ValueError(f"hidden_params must have shape ({head},)")
    if v.shape != (block,) or w.shape != (block,):
        raise ValueError(f"last-layer blocks must have shape ({block},)")

    def full(tail):
        return np.concatenate([hidden_params, tail])

    lhs = risk_exact(arch, full(0.5 * (v + w)), measure, target)
    rhs = 0.5 * (
        risk_exact(arch, full(v), measure, target) + risk_exact(arch, full(w), measure, target)
    )
    return lhs, rhs
