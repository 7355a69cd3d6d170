"""Training loops and the descent guarantees around them.

Every run is the recursion theta_{n+1} = theta_n - gamma_n G(theta_n, X_n) on
a (trials, d) block of independent trials, through one step loop, `_train`:
`sgd_ensemble` with many trials; `sgd_run` (fresh keyed minibatches towards a
constant target), `gd_run` (the whole measure at every step) and its explicit
Euler gradient flow `gf_euler_run` with one, logged into a `Trajectory` by an
observer that takes V and the norms a block of rows at a time.  The state is
one array in augmented order (each layer's [W_k b_k] row-major), and one
`_Workspace` per call holds every intermediate of the kernel and the gradient
block, so a step allocates no array of samples; the Monte Carlo checkpoints of
the SGD runs take the same kernel on workspaces of their own.

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
from .gradient import _backward, _left_gate
from .lyapunov import LyapunovContext, lyapunov_value
from .network import _augmented_blocks, _augmented_order, _forward, _relu_unit, _Workspace
from .risk import DiscreteMeasure, TargetSpec, UniformSampler, _check_box, _entropy, _KeyedStreams, _whole


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
        rows = zip(map(int, self.steps), self.v, self.risk, self.grad_norm, self.param_norm, self.gamma)
        _write_csv(path, "step,v,risk,grad_norm,param_norm,gamma", rows)


def _write_csv(path, header: str, rows) -> None:
    """The package's one CSV writer: ``header``, then each row with integers as such and other values as %.17g."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(int(v)) if isinstance(v, (int, np.integer)) else f"{float(v):.17g}" for v in row) + "\n")


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

    ``batch_size`` is an int or a function of the step.  ``steps``,
    ``log_stride``, ``eval_samples`` and the entries of ``eval_steps`` and
    ``snapshot_steps`` are integers (integral floats are converted; bools,
    fractions and non-numbers raise ValueError).  ``seed``, the master
    seed, is a nonnegative int or a tuple of them: step n's batch comes from
    stream (seed, 1, n) and the fixed Monte Carlo sample from (seed, 0), so
    equal configs run bit-identically.  ``eval_steps=None`` selects the 1-2-5 log grid.
    """

    batch_size: int | Callable[[int], int] = 100
    steps: int = 1000
    seed: int = 0
    log_stride: int = 1
    eval_samples: int = 10_000
    eval_steps: tuple[int, ...] | None = None
    snapshot_steps: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        _entropy(self.seed)
        for name in ("steps", "log_stride", "eval_samples"):
            object.__setattr__(self, name, _whole(name, getattr(self, name)))
        for name in ("eval_steps", "snapshot_steps"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(_whole(f"{name} entry", n) for n in getattr(self, name)))

    def batch_at(self, n: int) -> int:
        size = _whole("batch size", self.batch_size(n) if callable(self.batch_size) else self.batch_size)
        if size < 1:
            raise ValueError(f"batch size must be a positive integer, got {size} at step {n}")
        return size


def _require_finite(theta: np.ndarray) -> np.ndarray:
    if not np.isfinite(theta).all():
        raise ValueError("initial parameters must be finite")
    return theta


def _flat(theta: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Parameters in augmented order, (d,) or (trials, d), back in the flat layout, as a new array."""
    out = np.empty(theta.shape)
    out[..., order] = theta
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
        grid = tuple(sorted({n for n in cfg.eval_steps if 0 <= n <= cfg.steps}))
    if grid and cfg.eval_samples < 1:
        raise ValueError(f"eval_samples must be >= 1 when eval steps are set, got {cfg.eval_samples}")
    return grid


def _train(arch, theta0s, rate, steps, batch, fvals, observe=None, evaluate=None, eval_grid=()):
    """theta_{n+1} = theta_n - gamma_n G(theta_n, X_n) on a (trials, d) block: the one step loop.

    ``batch(n, blocks, ws)`` gives the `_Workspace` over ``blocks`` holding
    step n's points in its first [x; 1] and their weights (float or (m,)),
    which fold into delta with the targets ``fvals``: the gradient block is
    unscaled and the update multiplies it by gamma_n.  ``observe(n, theta,
    grad, risk, gamma)`` sees every step n = 0..steps and owns the divergence
    check; without it a step that leaves a trial non-finite raises.  Returns
    the ``evaluate(blocks)`` risks at ``eval_grid`` and the flat parameters.
    """
    order = _augmented_order(arch.widths)
    theta = np.take(theta0s, order, axis=1)
    blocks = _augmented_blocks(arch.widths, theta)
    risk = np.empty((theta.shape[0], len(eval_grid)))
    eval_pos = {n: c for c, n in enumerate(eval_grid)}
    ws, new = None, np.empty_like(theta)
    # a diverging trial overflows before the check below sees it: report it once, as DivergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(steps + 1):
            if n in eval_pos:
                risk[:, eval_pos[n]] = evaluate(blocks)
            if n == steps and observe is None:
                break
            ws, weights = batch(n, blocks, ws)
            pres, acts = _forward(ws.layers, ws.points, _relu_unit, ws)
            delta = np.subtract(pres[-1], fvals, out=pres[-1])
            if observe is not None:
                loss = np.add.reduce(weights * np.add.reduce(delta * delta, axis=-2), axis=-1)
            delta *= 2.0 * weights
            _backward(ws.layers, ws.points, pres, acts, delta, _left_gate, ws)
            gamma = rate(n)
            if observe is not None:
                observe(n, theta, ws.grad, loss, gamma)
                if n == steps:
                    break
            np.subtract(theta, np.multiply(ws.grad, gamma, out=ws.grad), out=new)
            if observe is None and not np.isfinite(new).all():
                bad = np.flatnonzero(~np.isfinite(new).all(axis=1))
                raise DivergenceError(
                    n, _flat(theta, order), f"ensemble trials {bad.tolist()} diverged in the update at step {n}; "
                    f"theta holds the step-{n} parameters of every trial"
                )
            theta[...] = new
    return risk, _flat(theta, order)


class _Recorder:
    """`_train`'s observer for one trial: the rows and flat snapshots of its `Trajectory`.

    Rows come at every ``log_stride``-th step and the last; their parameter and
    gradient rows are copied into a block of up to 256, whose V (summed in the
    augmented order) and norms are taken when it fills and at the last step.
    With ``dt`` rows carry the running integral 4L sum risk dt.  A non-finite
    risk at step n raises `DivergenceError` with step n - 1 and its
    parameters, or at step 0 a ValueError.
    """

    def __init__(self, arch, f0, steps, log_stride, snapshot_steps, dt=None):
        if steps < 0:
            raise ValueError(f"steps must be nonnegative, got {steps}")
        if log_stride < 1:
            raise ValueError(f"log_stride must be positive, got {log_stride}")
        ctx = LyapunovContext(arch, f0)
        self.order = _augmented_order(arch.widths)
        self.coeff, self.f0, self.depth, d = ctx._coeff[self.order], ctx.f0[:, None], arch.depth, len(self.order)
        self.top_bias = np.argsort(self.order)[arch.bias_slice(arch.depth)]
        self.steps, self.stride, self.dt = steps, log_stride, dt
        self.snaps = set(geometric_checkpoints(steps) if snapshot_steps is None else snapshot_steps)
        rows = -(-steps // log_stride) + 1  # steps 0, stride, 2 stride, ... and the last
        # V, parameter and gradient norm of every row; (parameters, gradient) rows not yet in them
        self.cols, self.block = np.empty((3, rows)), np.empty((min(rows, 256), 2, d))
        self.rows, self.fill, self.snapshots, self.last, self.integral = [], 0, {}, np.empty(d), 0.0

    def __call__(self, n, theta, grad, risk, gamma) -> None:
        risk, theta = float(risk[0]), theta[0]
        if not math.isfinite(risk):
            if n == 0:
                raise ValueError("risk is not finite at the initial parameters")
            raise DivergenceError(n - 1, _flat(self.last, self.order), f"risk became non-finite at step {n}")
        if n % self.stride == 0 or n == self.steps:
            row = self.block[self.fill]
            row[0], row[1] = theta, grad[0]
            self.rows.append((n, risk, gamma, self.integral))
            self.fill += 1
            if self.fill == len(self.block) or n == self.steps:
                self.flush()
        if n in self.snaps:
            self.snapshots[n] = _flat(theta, self.order)
        np.copyto(self.last, theta)
        if self.dt is not None:
            self.integral += 4.0 * self.depth * risk * self.dt

    def flush(self) -> None:
        """V and the norms of the block's rows, as stacked vector products, which numpy sums as `np.dot`."""
        end = len(self.rows)
        block, cols = self.block[: self.fill, :, None], self.cols[:, end - self.fill : end]
        theta = block[:, 0]
        np.sqrt((block @ block.swapaxes(-1, -2))[..., 0, 0].T, out=cols[1:])
        v = ((theta * self.coeff) @ theta.swapaxes(-1, -2))[:, 0, 0]
        np.subtract(v, 2.0 * self.depth * (theta[..., self.top_bias] @ self.f0)[:, 0, 0], out=cols[0])
        self.fill = 0

    def trajectory(self, input_scale, mass, mc_steps=None, mc_risk=None) -> Trajectory:
        steps, risk, gamma, integral = np.array(self.rows).T
        steps = steps.astype(np.int64)
        gf = self.dt is not None
        return Trajectory(steps, self.cols[0], risk, self.cols[2], self.cols[1], gamma, self.snapshots, input_scale,
                          mass, steps * self.dt if gf else None, integral if gf else None, mc_steps, mc_risk)


def _measure_run(arch, theta0, measure, target, schedule, steps, log_stride, snapshot_steps, dt=None) -> Trajectory:
    """gd, and with ``dt`` gf: a one-trial `_train` over the whole measure, its [x; 1] written once."""
    theta0 = _require_finite(check_params(arch, theta0))
    if measure.dim != arch.widths[0]:
        raise ValueError(f"measure dim {measure.dim} != input width {arch.widths[0]}")
    if dt is not None:
        threshold = gd_threshold(arch, theta0, target.f0, measure.mass, measure.input_scale)
        if dt > threshold:
            warnings.warn(f"Euler step dt={dt:g} exceeds the descent threshold {threshold:g}; "
                          "the flow approximation may lose monotonicity", stacklevel=3)
    rate = _rate_fn(schedule)
    record = _Recorder(arch, target.f0, steps, log_stride, snapshot_steps, dt)

    def batch(n, blocks, ws):
        if ws is None:
            ws = _Workspace(blocks, len(measure.points))
            ws.points[0] = measure.points.T
        return ws, measure.weights

    _train(arch, theta0[None], rate, steps, batch, np.ascontiguousarray(target.values(measure.points).T), record)
    return record.trajectory(measure.input_scale, measure.mass)


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
    return _measure_run(arch, theta0, measure, target, schedule, steps, log_stride, snapshot_steps)


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
    return _measure_run(arch, theta0, measure, target, dt, steps, log_stride, snapshot_steps, dt=dt)


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


def _eval_chunk(trials: int) -> int:
    """Samples per Monte Carlo chunk: max(2,500, 100 trials) trial x sample elements.

    On the workspace kernel, at 100 trials 100-sample chunks ran faster than 50,
    200 or 400, and at one trial 2,500 samples faster than one 10^4-sample pass.
    """
    return max(2_500 // trials, 100)


def _sgd_train(arch, theta0s, schedule, a, b, xi, cfg: SgdConfig, observe=None):
    """`_train` on keyed batches, with the Monte Carlo risks at the evaluation steps.

    Trial t reads row t of the step-n block from numpy's `SeedSequence` stream
    (seed, 1, n), each point weighing 1/m, and of the eval block from (seed, 0).
    The eval block runs through `_forward` on a `_Workspace` at the
    `_eval_chunk` size, built at the first checkpoint over the blocks the steps
    update in place, and one more for a ragged last chunk.
    """
    a, b = _check_box(a, b)
    rate = _rate_fn(schedule)
    eval_grid = _eval_grid(cfg)
    trials, span, entropy = theta0s.shape[0], b - a, _entropy(cfg.seed)
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    if xi.shape != (arch.widths[-1],):
        raise ValueError(f"xi has shape {xi.shape}, expected ({arch.widths[-1]},) for output width {arch.widths[-1]}")
    streams = _KeyedStreams(entropy + (1,), cfg.steps + 1)

    def batch(n, blocks, ws):
        m = cfg.batch_at(n)
        if ws is None or ws.draw.shape[1] != m:
            ws = _Workspace(blocks, m)
        # a + span * u, in that order, into the x rows of the first layer's [x; 1]
        np.multiply(streams(n).random(out=ws.draw), span, out=ws.draw)
        np.add(a, ws.draw, out=ws.draw_target)
        return ws, 1.0 / m

    if eval_grid:
        # the raw draw is never named, so numpy scales the temporary in place
        # and only one (trials, samples, l_0) block is alive
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy + (0,))))
        points = (a + span * rng.random((trials, cfg.eval_samples, arch.widths[0]))).swapaxes(-1, -2)
    chunk, target, spaces = _eval_chunk(trials), xi[:, None], {}

    def evaluate(blocks):
        """Each chunk of the sample copied into the first [x; 1] of a workspace at its size, built at the first call."""
        total = np.zeros(trials)
        for s0 in range(0, cfg.eval_samples, chunk):
            part = points[..., s0 : s0 + chunk]
            if part.shape[-1] not in spaces:
                spaces[part.shape[-1]] = _Workspace(blocks, part.shape[-1])
            ws = spaces[part.shape[-1]]
            np.copyto(ws.points, part)
            pres, _ = _forward(ws.layers, ws.points, _relu_unit, ws)
            resid = np.subtract(pres[-1], target, out=pres[-1])
            total += np.sum(np.sum(np.multiply(resid, resid, out=resid), axis=1), axis=1)
        return total / cfg.eval_samples

    risk, theta = _train(arch, theta0s, rate, cfg.steps, batch, target, observe, evaluate, eval_grid)
    return EnsembleResult(eval_steps=np.asarray(eval_grid, dtype=np.int64), risk=risk, theta_final=theta)


def sgd_run(
    arch: Architecture,
    theta0,
    schedule,
    sampler: UniformSampler,
    xi,
    cfg: SgdConfig,
) -> Trajectory:
    """Minibatch SGD towards a constant target: a one-trial `sgd_ensemble`, logged.

    Row n holds step n's minibatch risk at its pre-update parameters; one extra
    batch gives the last parameters a row.  Streams are keyed by ``cfg.seed``.
    """
    if sampler.dim != arch.widths[0]:
        raise ValueError(f"sampler dim {sampler.dim} != input width {arch.widths[0]}")
    theta0 = _require_finite(check_params(arch, theta0))
    record = _Recorder(arch, xi, cfg.steps, cfg.log_stride, cfg.snapshot_steps)
    res = _sgd_train(arch, theta0[None], schedule, sampler.a, sampler.b, xi, cfg, record)
    return record.trajectory(max(abs(sampler.a), abs(sampler.b), 1.0), 1.0, res.eval_steps, res.risk[0])


def gaussian_init(arch: Architecture, seed, scale: float, trials: int) -> np.ndarray:
    """Per-trial N(0, scale^2) initial parameters from streams (seed, 2, t).

    ``scale`` must be finite and >= 0 (-0.0 is 0.0), ``trials`` a nonnegative integer (ValueError).
    """
    entropy, scale, trials = _entropy(seed), float(scale), _whole("trials", trials)
    if not (math.isfinite(scale) and scale >= 0.0):
        raise ValueError(f"scale must be finite and nonnegative, got {scale}")
    scale = abs(scale)
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    streams = _KeyedStreams(entropy + (2,), trials)
    out = np.empty((trials, arch.param_count))
    for t in range(trials):
        out[t] = streams(t).normal(0.0, scale, arch.param_count)
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

    ``theta0s`` has one row per trial; the streams are those of `_sgd_train`.
    A step that would leave a trial non-finite raises `DivergenceError`,
    naming the diverged trials, with a copy of the (trials, d) parameters of
    that step.  Outputs agree with a plain-allocation loop to ~1e-16 of each
    array's largest value (bias terms are products with ones rows).  The Monte
    Carlo risks take the same kernel, and against the allocating `_forward`
    they move by ~1e-16 of the larger of the array's largest value and the mean
    squared output: a risk far below the squared output carries the output's
    rounding (measured: at most 4.2e-16 of the array's largest value on 30
    configurations, 2.9e-15 on 1,3,7,1 at one trial and risk 0.002).
    """
    theta0s = np.asarray(theta0s, dtype=np.float64)
    if theta0s.ndim != 2 or theta0s.shape[0] < 1 or theta0s.shape[1] != arch.param_count:
        raise ValueError(f"theta0s must have shape (trials >= 1, {arch.param_count})")
    return _sgd_train(arch, _require_finite(theta0s), schedule, a, b, xi, cfg)


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
        stepwise = ("VOID: delta >= 1 certifies nothing" if self.delta >= 1.0
                    else "ok" if self.stepwise_ok else "VIOLATED")
        return (
            f"increases={self.increase_count} (max {self.max_increase:.3g}), "
            f"stepwise={stepwise} "
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
    sqrt(2 V_0 + 4 L^2 ||f0||^2).  (b) needs delta < 1: otherwise its bound
    is nonnegative and ``stepwise_ok`` is false.  Requires every step to be
    logged.
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
    # at delta >= 1 the bound is >= 0 and lets V rise: it certifies nothing
    stepwise_ok = bool(delta < 1.0 and np.all(diffs <= rhs + slack))
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
