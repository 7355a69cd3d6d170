"""Training loops and the descent guarantees around them.

Three dynamics are one recursion, theta_{n+1} = theta_n - gamma_n G(theta_n,
X_n), and run through one step loop with one logging format: full-measure
gradient descent (`gd_run`) and its explicit Euler gradient flow
(`gf_euler_run`) use the whole measure at every step; minibatch SGD with a
constant target (`sgd_run`) draws a fresh keyed batch.  `sgd_ensemble`
evolves many SGD trials jointly with stacked arrays; it exists because
experiment-scale runs (hundreds of trials, 1e5 steps) would otherwise spend
their time in Python per-step overhead.  Trials never interact: each has its
own initial parameters and its own row of the per-step sample block.  All
four loops run the same forward pass and reverse sweep.  The ensemble keeps
one (trials, d) parameter array in augmented order (each layer's [W_k b_k]
row-major), allocates one `_Workspace` per call and passes it to the kernel,
which then writes every intermediate and the (trials, d) gradient block into
it; a step is one subtraction into a second state buffer and one finiteness
check of it before the commit.

A step-size ``schedule`` is a finite float >= 0 or a function of the step.
Step-size thresholds (`gd_threshold`, `sgd_threshold`) reproduce the regime in
which the Lyapunov function is guaranteed to decrease; `descent_certificate`
checks a finished trajectory against that guarantee.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .arch import Architecture, check_params
from .gradient import _backward, _grad_core, _left_gate
from .lyapunov import LyapunovContext, lyapunov_value
from .network import _augmented_blocks, _augmented_order, _forward, _relu_unit, _Workspace
from .risk import DiscreteMeasure, TargetSpec, UniformSampler, _check_box, empirical_risk


class DivergenceError(RuntimeError):
    """Training blew up; carries the last finite step and its parameters.

    ``step`` is the step whose parameters ``theta`` holds: the flat vector for
    gd/gf/sgd, and for `sgd_ensemble` the full (trials, d) block at the step
    whose update left a trial non-finite.
    """

    def __init__(self, step: int, theta: np.ndarray | None, message: str):
        super().__init__(message)
        self.step = step
        self.theta = theta


def _rate_fn(schedule: float | Callable[[int], float]) -> Callable[[int], float]:
    """A step size (finite float >= 0) or a function of the step, as a checked rate function."""
    if not callable(schedule):
        value = float(schedule)
        if not (value >= 0.0 and math.isfinite(value)):
            raise ValueError(f"step size must be finite and >= 0, got {value}")
        return lambda n: value

    def rate(n: int) -> float:
        value = float(schedule(n))
        if not (value >= 0.0 and math.isfinite(value)):
            raise ValueError(f"schedule produced invalid step size {value} at step {n}")
        return value

    return rate


@dataclass
class Trajectory:
    """Per-step scalars of one run plus a few parameter snapshots.

    Scalar rows are indexed by ``steps``; each row holds quantities evaluated
    at the pre-update parameters of that step.  ``risk`` is the objective the
    step actually descends (full risk for gd/gf, the step's minibatch risk for
    sgd).  ``mc_steps``/``mc_risk`` hold independent Monte Carlo population
    estimates (sgd only); ``time``/``descent_integral`` are gf-only.
    """

    steps: np.ndarray
    v: np.ndarray
    risk: np.ndarray
    grad_norm: np.ndarray
    param_norm: np.ndarray
    gamma: np.ndarray
    snapshots: dict[int, np.ndarray]
    input_scale: float = 1.0
    mass: float = 1.0
    time: np.ndarray | None = None
    descent_integral: np.ndarray | None = None
    mc_steps: np.ndarray | None = None
    mc_risk: np.ndarray | None = None

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("step,v,risk,grad_norm,param_norm,gamma\n")
            for i in range(len(self.steps)):
                fh.write(
                    f"{int(self.steps[i])},{self.v[i]:.17g},{self.risk[i]:.17g},"
                    f"{self.grad_norm[i]:.17g},{self.param_norm[i]:.17g},{self.gamma[i]:.17g}\n"
                )


def geometric_checkpoints(steps: int, count: int = 10) -> tuple[int, ...]:
    """0, the final step, and up to ``count`` geometrically spaced steps."""
    marks = {0, steps}
    if steps > 0:
        for i in range(1, count + 1):
            marks.add(min(steps, round(steps ** (i / count))))
    return tuple(sorted(marks))


def decade_steps(last: int) -> tuple[int, ...]:
    """The 1-2-5 log grid up to ``last``, always including ``last`` itself."""
    out: list[int] = []
    base = 1
    while base <= last:
        for mult in (1, 2, 5):
            if mult * base <= last:
                out.append(mult * base)
        base *= 10
    if last >= 1 and (not out or out[-1] != last):
        out.append(last)
    return tuple(out)


@dataclass(frozen=True)
class SgdConfig:
    """Knobs of one SGD run.

    ``batch_size`` is an int or a function of the step.  ``seed`` is the
    master seed: the step-n batch comes from stream (seed, 1, n) and the fixed
    Monte Carlo evaluation sample from (seed, 0), so identical configs give
    bit-identical runs.  ``eval_steps=None`` selects the 1-2-5 log grid.
    """

    batch_size: int | Callable[[int], int] = 100
    steps: int = 1000
    seed: int = 0
    log_stride: int = 1
    eval_samples: int = 10_000
    eval_steps: tuple[int, ...] | None = None
    snapshot_steps: tuple[int, ...] | None = None

    def batch_at(self, n: int) -> int:
        size = self.batch_size(n) if callable(self.batch_size) else self.batch_size
        if not (size >= 1 and float(size).is_integer()):
            raise ValueError(f"batch size must be a positive integer, got {size} at step {n}")
        return int(size)


def _entropy(seed) -> tuple[int, ...]:
    return (int(seed),) if np.isscalar(seed) else tuple(int(s) for s in seed)


def _norm(x: np.ndarray) -> float:
    return float(np.sqrt(x @ x))


def _require_finite(theta: np.ndarray) -> np.ndarray:
    if not np.isfinite(theta).all():
        raise ValueError("initial parameters must be finite")
    return theta


def _flat(theta: np.ndarray, order: np.ndarray) -> np.ndarray:
    """A (trials, d) array in augmented order back in the flat layout, as a new array."""
    out = np.empty(theta.shape)
    out[:, order] = theta
    return out


def _eval_grid(cfg: SgdConfig) -> tuple[int, ...]:
    """The Monte Carlo evaluation steps of ``cfg``: those in 0..steps, sorted, once each.

    Negative ``steps`` raise, and a nonempty grid needs samples.
    """
    if cfg.steps < 0:
        raise ValueError(f"steps must be nonnegative, got {cfg.steps}")
    if cfg.eval_steps is None:
        grid = decade_steps(cfg.steps)
    else:
        grid = tuple(sorted({int(n) for n in cfg.eval_steps if 0 <= n <= cfg.steps}))
    if grid and cfg.eval_samples < 1:
        raise ValueError(f"eval_samples must be >= 1 when eval steps are set, got {cfg.eval_samples}")
    return grid


def _step_loop(
    arch, theta0, ctx, batch, schedule, steps, log_stride, snapshot_steps, input_scale, mass,
    dt=None, evaluate=None, eval_steps=(),
) -> Trajectory:
    """theta_{n+1} = theta_n - gamma_n G(theta_n, X_n), the loop of gd/gf/sgd_run.

    ``batch(n)`` gives the step-n (points, weights, targets) of the objective
    that step descends.  With ``dt`` the trajectory carries the time and the
    running integral 4L sum risk dt; with ``evaluate`` (theta -> risk) the
    Monte Carlo estimates at ``eval_steps``.
    """
    theta = _require_finite(check_params(arch, theta0)).copy()
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if log_stride < 1:
        raise ValueError(f"log_stride must be positive, got {log_stride}")
    rate = _rate_fn(schedule)
    snaps = set(geometric_checkpoints(steps) if snapshot_steps is None else snapshot_steps)

    rows: list[tuple] = []
    mc_rows: list[tuple[int, float]] = []
    snapshots: dict[int, np.ndarray] = {}
    integral = 0.0
    for n in range(steps + 1):
        points, weights, fvals = batch(n)
        grad, risk = _grad_core(arch, theta, points, weights, fvals)
        if not math.isfinite(risk):
            if n == 0:
                raise ValueError("risk is not finite at the initial parameters")
            raise DivergenceError(n - 1, prev_theta, f"risk became non-finite at step {n}")
        gamma = rate(n)
        if n % log_stride == 0 or n == steps:
            rows.append((n, lyapunov_value(ctx, theta), risk, _norm(grad), _norm(theta), gamma, integral))
        if n in eval_steps:
            mc_rows.append((n, evaluate(theta)))
        if n in snaps:
            snapshots[n] = theta.copy()
        if n == steps:
            break
        if dt is not None:
            integral += 4.0 * arch.depth * risk * dt
        prev_theta = theta
        theta = theta - gamma * grad

    cols = [np.asarray(col) for col in zip(*rows)]
    steps_arr = cols[0].astype(np.int64)
    return Trajectory(
        steps_arr, *cols[1:6], snapshots, input_scale, mass,
        time=None if dt is None else steps_arr * dt,
        descent_integral=None if dt is None else cols[6],
        mc_steps=None if evaluate is None else np.asarray([r[0] for r in mc_rows], dtype=np.int64),
        mc_risk=None if evaluate is None else np.asarray([r[1] for r in mc_rows]),
    )


def _measure_loop(arch, theta0, measure, target, schedule, steps, log_stride, snapshot_steps, dt=None) -> Trajectory:
    """`_step_loop` over the whole measure at every step (gd and gf)."""
    fixed = (measure.points, measure.weights, np.ascontiguousarray(target.values(measure.points)))
    return _step_loop(
        arch, theta0, LyapunovContext(arch, target.f0), lambda n: fixed, schedule, steps, log_stride,
        snapshot_steps, measure.input_scale, measure.mass, dt=dt,
    )


def gd_run(
    arch: Architecture,
    theta0,
    measure: DiscreteMeasure,
    target: TargetSpec,
    schedule,
    steps: int,
    log_stride: int = 1,
    snapshot_steps: tuple[int, ...] | None = None,
) -> Trajectory:
    """Full-measure gradient descent for ``steps`` steps."""
    return _measure_loop(arch, theta0, measure, target, schedule, steps, log_stride, snapshot_steps)


def gf_euler_run(
    arch: Architecture,
    theta0,
    measure: DiscreteMeasure,
    target: TargetSpec,
    dt: float,
    steps: int,
    log_stride: int = 1,
    snapshot_steps: tuple[int, ...] | None = None,
) -> Trajectory:
    """Explicit Euler gradient flow; logs the running integral 4L sum risk dt.

    Warns when dt exceeds the descent threshold, since the discretization is
    then no better behaved than plain gradient descent with a large step.
    """
    dt = float(dt)
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    theta0 = _require_finite(check_params(arch, theta0))
    threshold = gd_threshold(arch, theta0, target.f0, measure.mass, measure.input_scale)
    if dt > threshold:
        warnings.warn(
            f"Euler step dt={dt:g} exceeds the descent threshold {threshold:g}; "
            "the flow approximation may lose monotonicity",
            stacklevel=2,
        )
    return _measure_loop(arch, theta0, measure, target, dt, steps, log_stride, snapshot_steps, dt=dt)


def sgd_run(
    arch: Architecture,
    theta0,
    schedule,
    sampler: UniformSampler,
    xi,
    cfg: SgdConfig,
) -> Trajectory:
    """Minibatch SGD towards a constant target, fresh i.i.d. batches per step.

    The logged risk at step n is that step's minibatch objective, evaluated at
    the pre-update parameters; the final row draws one extra batch so the last
    parameters get a row too.
    """
    if sampler.dim != arch.widths[0]:
        raise ValueError(f"sampler dim {sampler.dim} != input width {arch.widths[0]}")
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    entropy = _entropy(cfg.seed)
    eval_grid = _eval_grid(cfg)
    eval_points = sampler.with_seed(entropy + (0,)).sample(cfg.eval_samples) if eval_grid else None

    def batch(n: int):
        m = cfg.batch_at(n)
        return sampler.with_seed(entropy + (1, n)).sample(m), np.full(m, 1.0 / m), np.broadcast_to(xi, (m, xi.shape[0]))

    return _step_loop(
        arch, theta0, LyapunovContext(arch, xi), batch, schedule, cfg.steps, cfg.log_stride, cfg.snapshot_steps,
        max(abs(sampler.a), abs(sampler.b), 1.0), 1.0,
        evaluate=lambda theta: empirical_risk(arch, theta, eval_points, xi), eval_steps=set(eval_grid),
    )


@dataclass
class EnsembleResult:
    """Per-trial Monte Carlo risk estimates at the evaluation steps."""

    eval_steps: np.ndarray  # (C,)
    risk: np.ndarray  # (trials, C)
    theta_final: np.ndarray  # (trials, param_count)

    @property
    def mean_risk(self) -> np.ndarray:
        return np.mean(self.risk, axis=0)

    @property
    def std_error(self) -> np.ndarray:
        return np.std(self.risk, axis=0, ddof=1) / np.sqrt(self.risk.shape[0])


def gaussian_init(arch: Architecture, seed, scale: float, trials: int) -> np.ndarray:
    """Per-trial N(0, scale^2) initial parameters from streams (seed, 2, t)."""
    entropy = _entropy(seed)
    out = np.empty((trials, arch.param_count))
    for t in range(trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy + (2, t))))
        out[t] = rng.normal(0.0, scale, arch.param_count)
    return out


def sgd_ensemble(
    arch: Architecture,
    theta0s: np.ndarray,
    schedule,
    a: float,
    b: float,
    xi,
    cfg: SgdConfig,
) -> EnsembleResult:
    """Evolve many independent SGD trials jointly for cfg.steps steps.

    ``theta0s`` has one row per trial.  Each trial t reads row t of the step-n
    sample block drawn from stream (seed, 1, n) and row t of the evaluation
    block from (seed, 0).  A step that would leave a trial non-finite raises
    `DivergenceError` at once, naming the diverged trials, with a copy of the
    (trials, d) parameters of that step as ``theta``.

    The state is held in augmented order and converted from and to the flat
    layout once per call and at each evaluation step.  One `_Workspace` per
    call (per batch size) holds the draw, every layer's [h; 1], the
    preactivations (which then hold the deltas), the gates and the gradient
    block, so a step allocates no (trials, width, samples) array.  Bias terms
    enter as products with the ones rows, so outputs agree with a
    plain-allocation loop of the same recursion to ~1e-16 of each array's
    largest value, not bit for bit.
    """
    theta0s = np.asarray(theta0s, dtype=np.float64)
    if theta0s.ndim != 2 or theta0s.shape[0] < 1 or theta0s.shape[1] != arch.param_count:
        raise ValueError(f"theta0s must have shape (trials >= 1, {arch.param_count})")
    _require_finite(theta0s)
    a, b = _check_box(a, b)
    rate = _rate_fn(schedule)
    eval_grid = _eval_grid(cfg)
    trials = theta0s.shape[0]
    span = b - a
    entropy = _entropy(cfg.seed)
    # one (trials, d) state in augmented order, updated in place through the
    # [W_k b_k] blocks the workspace multiplies and the (W_k, b_k) views of them
    order = _augmented_order(arch.widths)
    theta = np.take(theta0s, order, axis=1)
    blocks = _augmented_blocks(arch.widths, theta)
    layers = [(block[..., :-1], block[..., -1]) for block in blocks]
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))

    if eval_grid:
        # the raw draw is never named, so numpy scales the temporary in place
        # and only one (trials, samples, l_0) block is alive
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy + (0,))))
        eval_points = (a + span * rng.random((trials, cfg.eval_samples, arch.widths[0]))).swapaxes(-1, -2)

    risk = np.empty((trials, len(eval_grid)))
    eval_pos = {n: c for c, n in enumerate(eval_grid)}
    ws = None
    new = np.empty_like(theta)
    for n in range(cfg.steps + 1):
        if n in eval_pos:
            # 125-sample chunks keep the (trials, width, chunk) transients
            # cache-sized; 1,000-sample chunks ran ~1.6x slower per checkpoint
            total = np.zeros(trials)
            flat = _flat(theta, order)
            # the flat layout's W_k, contiguous per trial, multiply ~3 % faster
            # per deep checkpoint than the strided W_k views of [W_k b_k]
            flat_layers = [
                (flat[:, arch.weight_slice(k)].reshape(trials, fan_out, fan_in), flat[:, arch.bias_slice(k)])
                for k, (fan_in, fan_out) in enumerate(zip(arch.widths[:-1], arch.widths[1:]), start=1)
            ]
            for s0 in range(0, cfg.eval_samples, 125):
                pres, _ = _forward(flat_layers, eval_points[..., s0 : s0 + 125], _relu_unit)
                resid = pres[-1] - xi[:, None]
                total += np.sum(np.sum(resid * resid, axis=1), axis=1)
            risk[:, eval_pos[n]] = total / cfg.eval_samples
        if n == cfg.steps:
            break
        m = cfg.batch_at(n)
        if ws is None or ws.draw.shape[1] != m:
            ws = _Workspace(blocks, m)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy + (1, n))))
        # a + span * u, in that order, into the x rows of the first layer's [x; 1]
        np.multiply(rng.random(out=ws.draw), span, out=ws.draw)
        x = np.add(a, ws.draw, out=ws.inputs[0][..., :-1, :].swapaxes(-1, -2)).swapaxes(-1, -2)
        pres, acts = _forward(layers, x, _relu_unit, ws)
        # gamma and the 2/m of the minibatch objective fold into delta
        delta = np.subtract(pres[-1], xi[:, None], out=pres[-1])
        delta *= 2.0 * rate(n) / m
        _backward(layers, x, pres, acts, delta, _left_gate, ws)
        np.subtract(theta, ws.grad, out=new)
        if not np.isfinite(new).all():
            bad = np.flatnonzero(~np.isfinite(new).all(axis=1))
            raise DivergenceError(
                n, _flat(theta, order), f"ensemble trials {bad.tolist()} diverged in the update at step {n}; "
                f"theta holds the step-{n} parameters of every trial"
            )
        theta[...] = new

    return EnsembleResult(eval_steps=np.asarray(eval_grid, dtype=np.int64), risk=risk, theta_final=_flat(theta, order))


def gd_threshold(arch: Architecture, theta0, f0, mass: float, input_scale: float = 1.0) -> float:
    """Largest constant step with guaranteed Lyapunov descent for gd_run.

    1 / (L scale^2 prod_p(l_p+1) (2 V(theta0) + 4 L^2 ||f0||^2 + 1)^(L-1) mass);
    infinite when the measure has no mass, 0.0 when the bound is below the
    smallest float.
    """
    mass = float(mass)
    if mass < 0.0:
        raise ValueError("mass must be nonnegative")
    if mass == 0.0:
        return math.inf
    f0 = np.atleast_1d(np.asarray(f0, dtype=np.float64))
    ctx = LyapunovContext(arch, f0)
    v0 = lyapunov_value(ctx, theta0)
    depth = arch.depth
    prod = math.prod(w + 1 for w in arch.widths)
    base = 2.0 * v0 + 4.0 * depth**2 * float(f0 @ f0) + 1.0
    try:
        return 1.0 / (depth * float(input_scale) ** 2 * prod * base ** (depth - 1) * mass)
    except OverflowError:
        return 0.0


def sgd_threshold(arch: Architecture, theta0_norm: float, xi, a: float, b: float) -> float:
    """Step-size bound under which SGD towards a constant target descends:

    (||theta0|| + 1)^(-2L) / (4 L d max(scale, ||xi||))^(2L), with d the
    parameter count and scale = max(|a|, |b|, 1); 0.0 when the bound is below
    the smallest float.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    depth = arch.depth
    scale = max(abs(float(a)), abs(float(b)), 1.0)
    big = max(scale, float(np.sqrt(xi @ xi)))
    try:
        return (float(theta0_norm) + 1.0) ** (-2 * depth) / (4.0 * depth * arch.param_count * big) ** (2 * depth)
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
        return (
            f"increases={self.increase_count} (max {self.max_increase:.3g}), "
            f"stepwise={'ok' if self.stepwise_ok else 'VIOLATED'} "
            f"(margin {self.stepwise_margin:.3g}, delta {self.delta:.3g}), "
            f"norms={'ok' if self.norm_ok else 'VIOLATED'} "
            f"(sup {self.sup_param_norm:.6g} vs bound {self.norm_bound:.6g})"
        )


def descent_certificate(trajectory: Trajectory, ctx: LyapunovContext) -> DescentReport:
    """Check a fully logged trajectory against the descent guarantee.

    Verifies (a) V never increases by more than the rounding slack
    1e-13 (1 + |V_n| + |V_{n+1}|), (b) each step satisfies, up to the same slack,
    V_{n+1} - V_n <= -4 gamma_n L (1 - delta) risk_n with
    delta = sup gamma * L * scale^2 * prod(l_p+1) * (2 V_0 + 4 L^2 ||f0||^2 + 1)^(L-1) * mass,
    and (c) every logged parameter norm stays below
    sqrt(2 V_0 + 4 L^2 ||f0||^2).  Requires every step to be logged.
    """
    steps = trajectory.steps
    if len(steps) < 2:
        raise ValueError("certificate needs at least two logged steps")
    if not np.all(np.diff(steps) == 1):
        raise ValueError("certificate needs every step logged (log_stride=1)")

    depth = ctx.arch.depth
    f0_sq = float(ctx.f0 @ ctx.f0)
    v = trajectory.v
    diffs = v[1:] - v[:-1]
    slack = 1e-13 * (1.0 + np.abs(v[:-1]) + np.abs(v[1:]))
    increase_count = int(np.sum(diffs > slack))
    max_increase = float(max(diffs.max(), 0.0)) if len(diffs) else 0.0

    applied_gamma = trajectory.gamma[:-1]
    base = 2.0 * v[0] + 4.0 * depth**2 * f0_sq + 1.0
    prod = math.prod(w + 1 for w in ctx.arch.widths)
    gamma_max = float(applied_gamma.max())
    # a zero step has delta 0 even where the growth factor overflows to inf
    delta = 0.0 if gamma_max == 0.0 else (
        gamma_max
        * depth
        * trajectory.input_scale**2
        * prod
        * base ** (depth - 1)
        * trajectory.mass
    )
    rhs = -4.0 * applied_gamma * depth * (1.0 - delta) * trajectory.risk[:-1]
    stepwise_ok = bool(np.all(diffs <= rhs + slack))
    stepwise_margin = float(np.min(rhs - diffs))

    norm_bound_value = math.sqrt(max(2.0 * v[0] + 4.0 * depth**2 * f0_sq, 0.0))
    sup_norm = float(trajectory.param_norm.max())
    norm_ok = sup_norm <= norm_bound_value * (1.0 + 1e-12) + 1e-12

    return DescentReport(
        increase_count=increase_count,
        max_increase=max_increase,
        stepwise_ok=stepwise_ok,
        stepwise_margin=stepwise_margin,
        delta=delta,
        sup_param_norm=sup_norm,
        norm_bound=norm_bound_value,
        norm_ok=norm_ok,
    )
