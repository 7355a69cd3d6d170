"""The Lyapunov function driving the descent analysis.

V(theta) weights each layer's squared bias norm by its depth index, adds all
squared weight norms, and subtracts 2 L <f(0), b_L>.  Along gradient descent
and admissibly stepped SGD this quantity never increases, and its decrease
controls the risk; the helpers here expose the identities tests lean on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .arch import Architecture, check_params
from .gradient import _grad_core
from .network import _augmented_order
from .risk import DiscreteMeasure, TargetSpec


@dataclass
class LyapunovContext:
    """Architecture plus the target's value at the origin."""

    arch: Architecture
    f0: np.ndarray
    _coeff: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.f0 = _check_f0(self.arch, self.f0)
        self._coeff = _flat_coeff(self.arch.widths)


def _check_f0(arch: Architecture, f0) -> np.ndarray:
    """The target's value at the origin as an (l_L,) float array; another width or a non-finite entry is a ValueError."""
    f0 = np.atleast_1d(np.asarray(f0, dtype=np.float64))
    if f0.shape != (arch.widths[-1],):
        raise ValueError(f"f0 has shape {f0.shape}, expected ({arch.widths[-1]},)")
    if not np.isfinite(f0).all():
        raise ValueError(f"the target value f0 must be finite, got {f0}")
    return f0


@functools.lru_cache(maxsize=64)
def _flat_coeff(widths: tuple[int, ...]) -> np.ndarray:
    """V's quadratic-form coefficients in the flat order: 1 on every weight entry, k on layer-k bias entries.

    Built once per ``widths`` and shared, so the array is read-only.
    """
    arch = Architecture(widths)
    coeff = np.ones(arch.param_count)
    for k in range(1, arch.depth + 1):
        coeff[arch.bias_slice(k)] = float(k)
    coeff.flags.writeable = False
    return coeff


@functools.lru_cache(maxsize=64)
def _augmented_coeff(widths: tuple[int, ...]) -> np.ndarray:
    """`_flat_coeff` in `network._augmented_order`, cached and read-only likewise."""
    coeff = _flat_coeff(widths)[_augmented_order(widths)]
    coeff.flags.writeable = False
    return coeff


def lyapunov_value(ctx: LyapunovContext, theta) -> float:
    theta = check_params(ctx.arch, theta)
    depth = ctx.arch.depth
    quad = float(np.dot(ctx._coeff * theta, theta))
    cross = float(np.dot(ctx.f0, theta[ctx.arch.bias_slice(depth)]))
    return quad - 2.0 * depth * cross


def lyapunov_gradient(ctx: LyapunovContext, theta) -> np.ndarray:
    theta = check_params(ctx.arch, theta)
    depth = ctx.arch.depth
    grad = 2.0 * ctx._coeff * theta
    grad[ctx.arch.bias_slice(depth)] -= 2.0 * depth * ctx.f0
    return grad


def sandwich_bounds(ctx: LyapunovContext, theta) -> tuple[float, float]:
    """(lower, upper) with lower <= V(theta) <= upper:

    0.5 ||theta||^2 - 2 L^2 ||f0||^2  and  2 L ||theta||^2 + L ||f0||^2.
    """
    theta = check_params(ctx.arch, theta)
    depth = ctx.arch.depth
    norm_sq = float(theta @ theta)
    f0_sq = float(ctx.f0 @ ctx.f0)
    return 0.5 * norm_sq - 2.0 * depth**2 * f0_sq, 2.0 * depth * norm_sq + depth * f0_sq


def norm_bound(ctx: LyapunovContext, theta) -> float:
    """||theta|| <= sqrt(2 V(theta) + 4 L^2 ||f0||^2), from the lower sandwich."""
    depth = ctx.arch.depth
    value = lyapunov_value(ctx, theta)
    f0_sq = float(ctx.f0 @ ctx.f0)
    return float(np.sqrt(2.0 * value + 4.0 * depth**2 * f0_sq))


def pairing(
    ctx: LyapunovContext, theta, measure: DiscreteMeasure, target: TargetSpec
) -> tuple[float, float]:
    """(<grad V, generalized gradient>, 4 L int <N - f, N - f(0)> dmu).

    The two sides agree for every theta; with a constant target the right
    side is 4 L times the exact risk.  Both come from one forward pass.
    """
    grad, out, resid = _grad_core(ctx.arch, theta, measure.points, measure.weights, target.values)
    lhs = float(np.dot(lyapunov_gradient(ctx, theta), grad))
    inner = np.sum(resid * (out - ctx.f0[:, None]), axis=0)
    rhs = 4.0 * ctx.arch.depth * float(np.sum(measure.weights * inner))
    return lhs, rhs
