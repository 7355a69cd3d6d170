"""The Lyapunov function driving the descent analysis, and the bounds that follow from it.

V(theta) weights each layer's squared bias norm by its depth index, adds all
squared weight norms, and subtracts 2 L <f(0), b_L>.  Along gradient descent
and admissibly stepped SGD this quantity never increases, and its decrease
controls the risk; the helpers here expose the identities tests lean on.

Completing the square in b_L gives V(theta) + L ||f0||^2 = ||theta - theta*||_C^2,
with theta* 0 but b_L = f0 and C = `_flat_coeff` in [1, L]; the exact sandwich
(`sandwich_bounds`) and the bound (||f0|| + sqrt(V + L ||f0||^2))^2 on ||theta||^2
(`_norm_sq_bound`) follow.  The thresholds (`gd_threshold`, `sgd_threshold`) give the
steps at which V is guaranteed to decrease towards a constant target, the gd one from
the growth factor of the gradient growth lemma (`gradient._growth_factor`) at that
bound plus 1, and `descent_certificate` checks a finished trajectory against that.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .arch import Architecture, check_params
from .gradient import _grad_core, _growth_factor
from .network import _augmented_order
from .risk import DiscreteMeasure, TargetSpec, _check_box, _constant_target


@dataclass
class LyapunovContext:
    """Architecture plus the target's value at the origin."""

    arch: Architecture
    f0: np.ndarray
    _coeff: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.f0 = _constant_target(self.arch, self.f0, "f0")[0]
        self._coeff = _flat_coeff(self.arch.widths)


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
    """(lower, upper) = (||theta - theta*||^2, L ||theta - theta*||^2) - L ||f0||^2 around V(theta), as 1 <= C <= L.

    Both are V at theta*; the lower one where theta - theta* lies off b_2..b_L, the upper one where it lies on b_L.
    """
    theta, depth = check_params(ctx.arch, theta), ctx.arch.depth
    diff = theta.copy()
    diff[ctx.arch.bias_slice(depth)] -= ctx.f0
    dist_sq, f0_term = float(diff @ diff), depth * float(ctx.f0 @ ctx.f0)
    return dist_sq - f0_term, depth * dist_sq - f0_term


def _norm_sq_bound(ctx: LyapunovContext, v: float) -> float:
    """(||f0|| + sqrt(v + L ||f0||^2))^2 >= ||theta||^2 where V(theta) = v, as ||theta|| <= ||theta*|| + ||theta - theta*||."""
    f0_sq = float(ctx.f0 @ ctx.f0)
    # a radicand rounded below 0 counts as 0; max keeps a NaN first argument, so a NaN v gives NaN
    root = math.sqrt(f0_sq) + math.sqrt(max(v + ctx.arch.depth * f0_sq, 0.0))
    return root * root


def norm_bound(ctx: LyapunovContext, theta) -> float:
    """||theta|| <= ||f0|| + sqrt(V(theta) + L ||f0||^2): the root of `_norm_sq_bound` at V(theta)."""
    return float(np.sqrt(_norm_sq_bound(ctx, lyapunov_value(ctx, theta))))


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


def gd_threshold(arch: Architecture, theta0, f0, mass: float, input_scale: float = 1.0) -> float:
    """Largest constant step with guaranteed Lyapunov descent for gd_run towards a constant target f0.

    1 / `gradient._growth_factor` at base `_norm_sq_bound`(V(theta0)) + 1, that is
    1 / (L scale^2 prod_p(l_p+1) ((||f0|| + sqrt(V(theta0) + L ||f0||^2))^2 + 1)^(L-1) mass);
    infinite when the measure has no mass, 0.0 when the bound is below the smallest
    float (at L >= 2, also where V(theta0) overflows).  ``input_scale`` is the box
    scale max(|a|, |b|, 1); a NaN mass or box scale, or a non-finite theta0, is a
    ValueError naming it.  Towards other targets it guarantees nothing (V can rise below it).
    """
    mass, input_scale = float(mass), float(input_scale)
    if not mass >= 0.0:
        raise ValueError(f"mass must be nonnegative, got {mass}")
    if not input_scale >= 1.0:
        raise ValueError(f"input_scale must be at least 1, got {input_scale}")
    if not np.isfinite(theta0 := check_params(arch, theta0)).all():
        raise ValueError("theta0 must be finite, got a NaN or inf entry")
    if mass == 0.0:
        return math.inf
    ctx = LyapunovContext(arch, f0)
    with np.errstate(over="ignore", invalid="ignore"):  # V is NaN only as inf - inf: a term, and so the bound, overflows
        v = lyapunov_value(ctx, theta0)
        return 1.0 / _growth_factor(arch, _norm_sq_bound(ctx, math.inf if math.isnan(v) else v) + 1.0, mass, input_scale)


def sgd_threshold(arch: Architecture, theta0_norm: float, xi, a: float, b: float) -> float:
    """Step-size bound under which SGD towards a constant target descends:

    (||theta0|| + 1)^(-2L) / (4 L d max(scale, ||xi||))^(2L), with d the
    parameter count and scale = max(|a|, |b|, 1); 0.0 when the bound is below
    the smallest float.  A negative or NaN norm, a box that `risk._check_box`
    rejects or a target that is not finite of width l_L is a ValueError.
    """
    norm = float(theta0_norm)
    if not norm >= 0.0:
        raise ValueError(f"theta0_norm must be nonnegative, got {norm}")
    a, b = _check_box(a, b)
    depth = arch.depth
    big = max(abs(a), abs(b), 1.0, math.sqrt(_constant_target(arch, xi, "xi")[1]))
    try:
        return (norm + 1.0) ** (-2 * depth) / (4.0 * depth * arch.param_count * big) ** (2 * depth)
    except OverflowError:
        return 0.0


@dataclass
class DescentReport:
    """What descent_certificate found on one trajectory."""

    increase_count: int
    max_increase: float
    stepwise_ok: bool
    stepwise_margin: float
    delta: float
    sup_param_norm: float
    norm_bound: float
    norm_ok: bool

    @property
    def passed(self) -> bool:
        return self.increase_count == 0 and self.stepwise_ok and self.norm_ok

    def summary(self) -> str:
        stepwise = ("VOID: delta >= 1 certifies nothing" if self.delta >= 1.0
                    else "ok" if self.stepwise_ok else "VIOLATED")
        return (
            f"increases={self.increase_count} (max {self.max_increase:.3g}), "
            f"stepwise={stepwise} "
            f"(margin {self.stepwise_margin:.3g}, delta {self.delta:.3g}), "
            f"norms={'ok' if self.norm_ok else 'VIOLATED'} "
            f"(sup {self.sup_param_norm:.6g} vs bound {self.norm_bound:.6g})"
        )


def descent_certificate(trajectory, ctx: LyapunovContext) -> DescentReport:
    """Check a fully logged `optimize.Trajectory` against the descent guarantee.

    Verifies (a) V never increases by more than the rounding slack
    1e-13 (1 + |V_n| + |V_{n+1}|), (b) each step satisfies, up to the same slack,
    V_{n+1} - V_n <= -4 gamma_n L (1 - delta) risk_n with delta = sup gamma
    times `gradient._growth_factor` at base `_norm_sq_bound`(V_0) + 1, as in
    `gd_threshold` (0 at a zero step, inf where the factor overflows), and
    (c) every logged parameter norm stays below sqrt(`_norm_sq_bound`(V_0)), ||f0|| + sqrt(V_0 + L ||f0||^2).
    (b) needs delta < 1: otherwise its bound is nonnegative and
    ``stepwise_ok`` is false.  Requires every step to be logged.
    """
    steps = trajectory.steps
    if len(steps) < 2:
        raise ValueError("certificate needs at least two logged steps")
    if not np.all(np.diff(steps) == 1):
        raise ValueError("certificate needs every step logged (log_stride=1)")

    depth = ctx.arch.depth
    v = trajectory.v
    diffs = v[1:] - v[:-1]
    slack = 1e-13 * (1.0 + np.abs(v[:-1]) + np.abs(v[1:]))
    increase_count = int(np.sum(diffs > slack))
    max_increase = float(max(diffs.max(), 0.0)) if len(diffs) else 0.0

    applied_gamma = trajectory.gamma[:-1]
    bound_sq = _norm_sq_bound(ctx, float(v[0]))
    gamma_max = float(applied_gamma.max())
    # a zero step has delta 0 even where the growth factor overflows to inf
    delta = gamma_max * _growth_factor(ctx.arch, bound_sq + 1.0, trajectory.mass, trajectory.input_scale) if gamma_max else 0.0
    rhs = -4.0 * applied_gamma * depth * (1.0 - delta) * trajectory.risk[:-1]
    # at delta >= 1 the bound is >= 0 and lets V rise: it certifies nothing
    stepwise_ok = bool(delta < 1.0 and np.all(diffs <= rhs + slack))
    stepwise_margin = float(np.min(rhs - diffs))

    norm_bound_value = math.sqrt(bound_sq)
    sup_norm = float(trajectory.param_norm.max())
    norm_ok = sup_norm <= norm_bound_value * (1.0 + 1e-12) + 1e-12

    return DescentReport(increase_count, max_increase, stepwise_ok, stepwise_margin, delta, sup_norm, norm_bound_value, norm_ok)
