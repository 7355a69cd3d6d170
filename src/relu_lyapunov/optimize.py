"""Training loops and the descent guarantees around them.

Every run is the recursion theta_{n+1} = theta_n - gamma_n G(theta_n, X_n) on
a (trials, d) block of independent trials, through one step loop, `_train`:
`sgd_ensemble` with many trials; `sgd_run` (fresh keyed minibatches towards a
constant target), `gd_run` (the whole measure at every step) and its explicit
Euler gradient flow `gf_euler_run` with one, logged into a `Trajectory` by an
observer that takes the risks, V and the norms a block of steps at a time.
The state is one array in augmented order (each layer's [W_k b_k] row-major),
and one `_Workspace` per batch size holds every intermediate of the kernel and
the gradient block, so a step allocates no array of samples; the Monte Carlo
checkpoints of the SGD runs take the same kernel on forward-only workspaces of
their own.  Workspaces and the observer's blocks are leased from the
process's spares, one per key within a byte bound (`_Lease`), so a call builds
and page-faults none that an earlier call of the same shapes gave back.  An
ensemble call with enough work runs its upper trial rows in a second Python
process (`_Helper`), at the same time as the lower rows here, with the same
outputs bit for bit (see `sgd_ensemble`); the two exchange pickles over one
socket pair, not the helper's stdio.

A step-size ``schedule`` is a finite float >= 0 or a function of the step.
Step-size thresholds (`gd_threshold`, `sgd_threshold`) reproduce the regime in
which the Lyapunov function is guaranteed to decrease towards a constant
target; `descent_certificate` checks a finished trajectory against that guarantee.
"""

from __future__ import annotations

import atexit
import math
import os
import signal
import subprocess
import sys
import threading
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .arch import Architecture, check_params
from .gradient import _backward, _left_gate
from .lyapunov import LyapunovContext, _augmented_coeff, _check_f0, lyapunov_value
from .network import _aligned, _augmented_blocks, _augmented_order, _check_inputs, _forward, _relu_unit, _Workspace
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


# Buffer sets kept between calls, one per key, within a byte bound: a benchmark process ends holding 7
# sets and 4.1 MB (1,7,1 at 100 trials) or 5.3 MB (1,3,7,1), or 6 sets and 1.0 MB (one trial).  A set
# over the bound (a gd run over 10^5 points, ~22 MB on 1,3,7,1) is freed when its call ends.
_SPARE_BYTES = 8 << 20
_spare: dict[tuple, tuple[object, int]] = {}  # key: (buffers, bytes) given back, the least recently returned first
_spare_lock = threading.Lock()


def _nbytes(buffers) -> int:
    """The bytes of a `_Workspace`, an array or a tuple of them."""
    return sum(map(_nbytes, buffers)) if isinstance(buffers, tuple) else buffers.nbytes


class _Lease:
    """The buffers one public call takes from the process's spares, all given back when the call ends.

    Workspaces and observer blocks outlive the call that built them, so the next
    call of the same shapes builds, allocates and page-faults none of them.
    That gains only where one process repeats calls of the same shapes
    (benchmark segments and checkpoint calls, a sweep of one-trial runs); a
    single call builds what it would without spares.  They are the process's
    rather than a caller's because those calls are independent ones.  A lease is
    exclusive: `take` pops the spare of its key (or builds one) and the lease's
    exit stores it back, so calls running at once, or two buffers of one call,
    never share memory.  A call holds at most one set per key, as the spares do;
    they drop the least recently returned while over `_SPARE_BYTES`.  A call
    writes every element of a leased buffer before reading it, save a
    workspace's ones rows, so outputs do not depend on the lease.
    """

    def __init__(self):
        self.held: list[tuple[tuple, object, int]] = []

    def __enter__(self) -> _Lease:
        return self

    def __exit__(self, kind, error, trace) -> None:
        held, self.held = self.held, []
        self._give(held)

    def take(self, key: tuple, build: Callable[[], object]):
        """The spare of ``key``, or else ``build()``."""
        with _spare_lock:
            buffers, nbytes = _spare.pop(key, (None, 0))
        if buffers is None:
            buffers = build()
            nbytes = _nbytes(buffers)
        self.held.append((key, buffers, nbytes))
        return buffers

    def workspace(self, blocks, m: int) -> _Workspace:
        """A step `_Workspace` at batch size ``m`` bound to ``blocks``."""
        ws = self.take((tuple(a.shape for a in blocks), m), lambda: _Workspace(blocks, m))
        ws.bind(blocks)
        return ws

    def give(self, buffers) -> None:
        """Give back ``buffers`` before the call ends."""
        i = next(i for i, held in enumerate(self.held) if held[1] is buffers)
        self._give([self.held.pop(i)])

    @staticmethod
    def _give(held) -> None:
        with _spare_lock:
            for key, buffers, nbytes in held:
                _spare.pop(key, None)  # stored last, so the dict's order is the order of return
                if nbytes <= _SPARE_BYTES:
                    _spare[key] = buffers, nbytes
            while sum(nbytes for _, nbytes in _spare.values()) > _SPARE_BYTES:
                del _spare[next(iter(_spare))]


def _train(arch, theta0s, rate, steps, batch, fvals, observe=None, evaluate=None, eval_grid=()):
    """theta_{n+1} = theta_n - gamma_n G(theta_n, X_n) on a (trials, d) block: the one step loop.

    ``batch(n, blocks, ws)`` gives the `_Workspace` over ``blocks`` holding step
    n's points in its first [x; 1] and their weights (float or (m,), a new
    object per batch size).  The residual N - f against ``fvals`` times 2
    weights is delta, so the gradient comes unscaled.  ``observe(n, theta, grad,
    resid, weights, gamma)`` sees every step n = 0..steps, the residual in a
    buffer of its own, and owns the divergence check, so theta is updated in
    place; without it the residual is taken in place (a buffer slowed the step
    3-5 %) and a step leaving a trial non-finite raises.  Returns the
    ``evaluate(theta)`` risks at ``eval_grid``, taken from the (trials, d)
    state in augmented order, and the flat parameters.
    """
    order = _augmented_order(arch.widths)
    theta = np.take(theta0s, order, axis=1)
    blocks = _augmented_blocks(arch.widths, theta)
    risk = np.empty((theta.shape[0], len(eval_grid)))
    eval_pos = {n: c for c, n in enumerate(eval_grid)}
    ws, weights, new = None, None, np.empty_like(theta) if observe is None else theta
    # a diverging trial overflows before the check below sees it: report it once, as DivergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(steps + 1):
            if n in eval_pos:
                risk[:, eval_pos[n]] = evaluate(theta)
            if n == steps and observe is None:
                break
            ws, held = batch(n, blocks, ws)
            if held is not weights:  # a new batch size, so a new workspace
                weights, scale = held, 2.0 * held
                resid = ws.pres[-1] if observe is None else np.empty(ws.pres[-1].shape)
            pres, acts = _forward(ws.layers, ws.points, _relu_unit, ws)
            np.subtract(pres[-1], fvals, out=resid)
            delta = np.multiply(resid, scale, out=pres[-1])
            _backward(ws.layers, ws.points, pres, acts, delta, _left_gate, ws)
            gamma = rate(n)
            if observe is not None:
                observe(n, theta, ws.grad, resid, weights, gamma)
                if n == steps:
                    break
            np.subtract(theta, np.multiply(ws.grad, gamma, out=ws.grad), out=new)
            if observe is None and not np.isfinite(new).all():
                bad = np.flatnonzero(~np.isfinite(new).all(axis=1))
                raise DivergenceError(
                    n, _flat(theta, order), f"ensemble trials {bad.tolist()} diverged in the update at step {n}; "
                    f"theta holds the step-{n} parameters of every trial"
                )
            if new is not theta:
                theta[...] = new
    return risk, _flat(theta, order)


def _square_sum(resid: np.ndarray) -> np.ndarray:
    """The (rows, width, m) residual squared in place and summed over its width, (rows, m).

    A one-row sum over the width is skipped: it is a copy, which read ~5 % slower on
    a 100-trial checkpoint and, as a (steps, m) block above glibc's mmap threshold
    (205 KB at m = 100), was mapped and page-faulted afresh at every observer flush.
    """
    sq = np.multiply(resid, resid, out=resid)
    return sq[:, 0] if sq.shape[1] == 1 else np.add.reduce(sq, axis=1)


class _Recorder:
    """`_train`'s observer for one trial: the rows and flat snapshots of its `Trajectory`.

    Each step's parameter, gradient and residual rows are copied into a block
    of up to 256 steps and ~2 MB, flushed when it fills, at the last step and
    before a step with new weights, which takes a new block, leased (see
    `_Lease`) like the one it gives back.  A flush takes the block's risks, then at
    its rows (every ``log_stride``-th step and the last) V, summed in the
    augmented order, the norms and, with ``dt``, the integral 4L sum risk dt,
    and its snapshots.  A non-finite risk at step n raises `DivergenceError`
    with step n - 1 and its parameters (kept at the last flush when n starts a
    block), or at step 0 a ValueError.  Used as a context around the run, it
    flushes the steps held when another exception (a rate or batch callable's)
    ends the run early, so that a divergence among them is what is raised.
    Its blocks are taken from and given back to the call's ``lease``.
    """

    def __init__(self, lease, arch, f0, steps, log_stride, snapshot_steps, dt=None):
        steps, stride = _whole("steps", steps), _whole("log_stride", log_stride)
        if steps < 0:
            raise ValueError(f"steps must be nonnegative, got {steps}")
        if stride < 1:
            raise ValueError(f"log_stride must be positive, got {stride}")
        snaps = geometric_checkpoints(steps) if snapshot_steps is None else snapshot_steps
        snaps = {_whole("snapshot_steps entry", n) for n in snaps}
        self.order, self.coeff = _augmented_order(arch.widths), _augmented_coeff(arch.widths)
        self.f0, self.depth, d = _check_f0(arch, f0)[:, None], arch.depth, len(self.order)
        fan_in = arch.widths[-2]  # the top bias ends each row of [W_L b_L], the last block
        self.top_bias = np.arange(d - arch.widths[-1] * (fan_in + 1) + fan_in, d, fan_in + 1)
        self.steps, self.stride, self.dt = steps, stride, dt
        self.snaps = sorted((n for n in snaps if 0 <= n <= steps), reverse=True)  # popped from the end
        # each row's V, risk, gradient and parameter norm, gamma and integral; the steps a block holds
        self.cols, self.rows = np.empty((6, -(-steps // stride) + 1)), min(steps + 1, 256)
        self.start, self.fill, self.weights, self.integral, self.snapshots, self.prev = 0, 0, None, 0.0, {}, None
        self.lease = lease

    def __enter__(self) -> _Recorder:
        return self

    def __exit__(self, kind, error, trace) -> None:
        if isinstance(error, Exception) and not isinstance(error, DivergenceError) and self.fill:
            with np.errstate(over="ignore", invalid="ignore"):  # as inside `_train`
                self.flush()

    def __call__(self, n, theta, grad, resid, weights, gamma) -> None:
        if weights is not self.weights:
            if self.fill:
                self.flush()
            if self.weights is not None:
                self.lease.give(self.buffers)
            rows, d = self.rows, len(self.order)
            fit = max(1, min(rows, (1 << 21) // (8 * (resid.size + 2 * d))))  # a new block of steps, in ~2 MB
            shape = (fit,) + resid.shape[1:]
            self.buffers = self.lease.take(
                ("record", rows, d, shape), lambda: (_aligned((rows, 2, d)), _aligned((rows,)), _aligned(shape))
            )
            self.block, self.gammas, self.resids = self.buffers
            self.weights = weights
        i = self.fill
        self.block[i, 0], self.block[i, 1], self.resids[i], self.gammas[i] = grad, theta, resid, gamma
        self.fill = i + 1
        if self.fill == len(self.resids) or n == self.steps:
            self.flush()

    def flush(self) -> None:
        """The block's risks, summed as numpy sums one step's; V and the norms of its logged rows, as `np.dot`."""
        start, fill = self.start, self.fill
        self.fill = 0  # taken even if this flush raises, so a context exit does not flush it again
        sq = _square_sum(self.resids[:fill])
        risk = np.add.reduce(np.multiply(self.weights, sq, out=sq), axis=-1)
        if not math.isfinite(risk.max()):  # max propagates NaN
            j = int(np.argmin(np.isfinite(risk)))
            if start + j == 0:
                raise ValueError("risk is not finite at the initial parameters")
            theta = _flat(self.block[j - 1, 1] if j else self.prev, self.order)
            raise DivergenceError(start + j - 1, theta, f"risk became non-finite at step {start + j}")
        end, stride = start + fill, self.stride
        stop = self.cols.shape[1] if end > self.steps else -(-end // stride)
        rows = slice(-start % stride, fill, stride)  # the block's steps on the stride grid, and the last step
        if end > self.steps and self.steps % stride:
            rows = np.append(np.arange(fill)[rows], fill - 1)
        block, cols = self.block[rows, :, None], self.cols[:, -(-start // stride) : stop]
        theta = block[:, 1]
        np.sqrt((block @ block.swapaxes(-1, -2))[..., 0, 0].T, out=cols[2:4])
        v = ((theta * self.coeff) @ theta.swapaxes(-1, -2))[:, 0, 0]
        np.subtract(v, 2.0 * self.depth * (theta[..., self.top_bias] @ self.f0)[:, 0, 0], out=cols[0])
        cols[1], cols[4] = risk[rows], self.gammas[rows]
        if self.dt is not None:
            # the integral before each step, summed in step order
            before = np.add.accumulate(np.concatenate(([self.integral], 4.0 * self.depth * risk * self.dt)))
            cols[5], self.integral = before[rows], before[-1]
        while self.snaps and self.snaps[-1] < end:
            n = self.snaps.pop()
            self.snapshots[n] = _flat(self.block[n - start, 1], self.order)
        if end <= self.steps:
            self.prev = self.block[fill - 1, 1].copy()
        self.start = end

    def trajectory(self, input_scale, mass, mc_steps=None, mc_risk=None) -> Trajectory:
        steps = np.minimum(np.arange(0, self.steps + self.stride, self.stride, dtype=np.int64), self.steps)
        gf = (None, None) if self.dt is None else (steps * self.dt, self.cols[5])  # time, descent_integral
        return Trajectory(steps, *self.cols[:5], self.snapshots, input_scale, mass, *gf, mc_steps, mc_risk)


def _measure_run(arch, theta0, measure, target, schedule, steps, log_stride, snapshot_steps, dt=None) -> Trajectory:
    """gd, and with ``dt`` gf: a one-trial `_train` over the whole measure, its [x; 1] written once per lease."""
    theta0, points, fvals = _check_inputs(arch, theta0, measure.points, target.values)
    theta0 = _require_finite(theta0)
    if dt is not None:
        threshold = gd_threshold(arch, theta0, target.f0, measure.mass, measure.input_scale)
        if dt > threshold:
            warnings.warn(f"Euler step dt={dt:g} exceeds the descent threshold {threshold:g}; "
                          "the flow approximation may lose monotonicity", stacklevel=3)
    rate = _rate_fn(schedule)

    def batch(n, blocks, ws):
        if ws is None:
            ws = lease.workspace(blocks, len(points))
            ws.points[0] = points.T
        return ws, measure.weights

    with _Lease() as lease, _Recorder(lease, arch, target.f0, steps, log_stride, snapshot_steps, dt) as record:
        _train(arch, theta0[None], rate, record.steps, batch, np.ascontiguousarray(fvals.T), record)
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

    Warns when dt exceeds `gd_threshold`, above which the discretization is no
    better behaved than gradient descent with a large step; below it, V is
    guaranteed to descend only towards a constant target.
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


def _eval_block(trials: int, samples: int) -> tuple[int, int]:
    """Trial rows per Monte Carlo block and samples per part: the one eval-block rule.

    The budget is trials x max(2,500 // trials, 100) trial x sample elements.
    A block takes as many whole rows of the sample as fit in it; when one row
    does not fit, one trial at a time, in parts of the budget's size.  At one
    trial 2,500-sample parts ran 1.9x faster than one 10^4-sample row, whose
    buffers, above glibc's mmap threshold, page-faulted afresh at every call
    when workspaces were built per call (they are leased now, see `_Lease`).
    """
    budget = trials * max(2_500 // trials, 100)
    return max(1, budget // samples), min(samples, budget)


def _sgd_train(lease, arch, theta0s, schedule, a, b, xi, cfg: SgdConfig, observe=None, first=0, trials=None):
    """`_train` on keyed batches, with the Monte Carlo risks at the evaluation steps.

    Trial t reads row t of the step-n block from numpy's `SeedSequence` stream
    (seed, 1, n), each point weighing 1/m, and of the eval block from (seed, 0).
    ``theta0s`` may be rows ``first``.. of a call of ``trials`` rows (by default
    all of it): the streams are then advanced past the draws of the rows before
    them, and the eval blocks are those of the whole call, so with ``first`` on
    a block boundary each row sees the draws, blocks and sums it sees in the
    whole call.  A draw is a + (b - a) u, written at l_0 = 1 straight into
    the workspace's points and at l_0 > 1 through its staging buffer; a factor
    1.0 or a term +-0.0 is skipped, so on the presets' box [0, 1] a draw is one
    pass.  Workspaces are taken from the call's ``lease``: an int batch size
    is resolved once, and at a change of a callable's batch size the step
    `_Workspace` goes back and one of the new size is taken.  A
    checkpoint rewinds the (seed, 0) generator and draws the sample again,
    block by block of `_eval_block` in trial order, each straight into the
    first [x; 1] of a forward-only workspace bound to a (rows, d) copy of the
    block's parameters, leased together: one for the full block and one for a
    ragged last block or part, once per call.  Stream order makes the points those of one (trials, samples, l_0)
    draw, bit for bit, without holding it.  At 100 trials a block is one
    10^4-sample row, so a layer is one product rather than 100 per-trial
    products per chunk, and a checkpoint call runs ~0.75-0.8x as long.  A full
    preset run redraws the sample (~4.5 ms) at each of its 16 checkpoints and
    measured no faster: its gain is the ~8 MB sample it no longer holds.
    """
    a, b = _check_box(a, b)
    rate = _rate_fn(schedule)
    eval_grid = _eval_grid(cfg)
    rows_here, span, entropy = theta0s.shape[0], b - a, _entropy(cfg.seed)
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    if xi.shape != (arch.widths[-1],):
        raise ValueError(f"xi has shape {xi.shape}, expected ({arch.widths[-1]},) for output width {arch.widths[-1]}")
    if not np.isfinite(xi).all():
        raise ValueError(f"the target xi must be finite, got {xi}")
    streams, weight, skip = _KeyedStreams(entropy + (1,), cfg.steps + 1), None, 0
    staged, varying = arch.widths[0] > 1, callable(cfg.batch_size)

    def draw(rng, ws):
        """a + span * u, in that order, into the x rows of ws's first [x; 1].

        Skipping a factor span = 1.0 and a term a = +-0.0 is exact: u * 1.0 == u,
        and +-0.0 + x == x for every x >= +0.
        """
        u = rng.random(out=ws.draw if staged else ws.draw_target)
        if span != 1.0:
            np.multiply(u, span, out=u)
        if staged or a != 0.0:
            np.add(a, u, out=ws.draw_target)

    def batch(n, blocks, ws):
        nonlocal weight, skip
        if ws is None or varying:  # an int batch size is resolved once per call
            m = cfg.batch_at(n)
            if ws is None or ws.points.shape[-1] != m:
                if ws is not None:
                    lease.give(ws)
                ws, weight, skip = lease.workspace(blocks, m), 1.0 / m, first * m * arch.widths[0]
        rng = streams(n)
        if skip:
            rng.bit_generator.advance(skip)
        draw(rng, ws)
        return ws, weight

    def evaluate(theta):
        """Each block's risks, summed per trial over the residual's width and then its samples."""
        rng.bit_generator.state = start
        total = np.zeros(rows_here)
        for part, params, ws in plan:
            draw(rng, ws)
            np.copyto(params, theta[part])
            pres, _ = _forward(ws.layers, ws.points, _relu_unit, ws)
            total[part] += np.add.reduce(_square_sum(np.subtract(pres[-1], target, out=pres[-1])), axis=-1)
        return total / cfg.eval_samples

    def eval_workspace(count, m):
        """A (count, d) array for a block's parameters and a forward-only workspace bound to it once."""
        params = _aligned((count, theta0s.shape[1]))
        return params, _Workspace(_augmented_blocks(arch.widths, params), m, backward=False)

    target, plan = xi[:, None], []
    if eval_grid:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy + (0,))))
        rng.bit_generator.advance(first * cfg.eval_samples * arch.widths[0])
        start, eval_ws = rng.bit_generator.state, {}
        rows, width = _eval_block(trials or rows_here, cfg.eval_samples)
        for t0 in range(0, rows_here, rows):
            for s0 in range(0, cfg.eval_samples, width):
                shape = (min(rows, rows_here - t0), min(width, cfg.eval_samples - s0))
                if shape not in eval_ws:  # the full block, and a ragged last block or part
                    eval_ws[shape] = lease.take(("eval", arch.widths) + shape, lambda: eval_workspace(*shape))
                plan.append((slice(t0, t0 + shape[0]),) + eval_ws[shape])
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
    with _Lease() as lease, _Recorder(lease, arch, xi, cfg.steps, cfg.log_stride, cfg.snapshot_steps) as record:
        res = _sgd_train(lease, arch, theta0[None], schedule, sampler.a, sampler.b, xi, cfg, record)
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


# An ensemble call splits only when its work, trials x (steps x batch + checkpoints x eval samples),
# is at least _SPLIT_WORK: below it the ~0.1-0.15 ms of pickling and socket traffic outweighs half the call.
# Its steps count only where trials x batch is at least _SPLIT_WORK / _SPLIT_STEPS (2,000): both processes
# pay a step's fixed Python cost, and narrower steps split ran no faster (1,7,1 at 50 steps, CHANGES.md).
# A call of _COLD_WORK or more also sends its rows to a helper that is still starting, whose ~0.1 s of
# imports it then waits out; a smaller call runs in-process and leaves the helper to later calls.
_SPLIT_WORK = 50_000
_SPLIT_STEPS = 25
_COLD_WORK = 20_000_000
_helper: _Helper | None = None
_helper_lock = threading.Lock()  # held by the one call using the helper, and while starting or dropping it
_helper_broken = False  # a helper exited before it was ready: this process does not split


class _Helper:
    """A second Python process that runs `_serve`: a `_sgd_train` per request, one at a time.

    It imports the package from this package's own directory and exchanges
    pickles with this side over one `multiprocessing.connection.Pipe` socket
    pair, ``conn`` here and a descriptor passed to the child; its stdin,
    stdout and stderr are the null device and no part of the exchange, so
    whatever its interpreter prints at start-up is lost, not read as a reply.
    It sends ``b"r"`` once its imports are done (``ready``); it exits when its
    end of the pair reaches EOF, and ignores SIGINT, so the caller ends it.
    ``served`` counts its replies.
    """

    def __init__(self):
        from multiprocessing.connection import Pipe  # 3-5 ms that a process which never splits does not pay

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.conn, child = Pipe()
        code = f"import sys; sys.path.insert(0, {root!r}); from {__name__} import _serve; _serve({child.fileno()})"
        null = subprocess.DEVNULL
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", code], stdin=null, stdout=null, stderr=null, pass_fds=(child.fileno(),)
            )
        except BaseException:
            self.conn.close()
            raise
        finally:
            child.close()
        self.is_ready, self.served = False, 0

    def ready(self, wait: bool = False) -> bool:
        """Whether the helper has signalled that its imports are done, waiting for it with ``wait``."""
        if not self.is_ready:
            if not (wait or self.conn.poll()):
                return False
            self.conn.recv_bytes()  # b"r"; EOFError if the helper exited first
            self.is_ready = True
        return True

    def receive(self):
        self.ready(wait=True)
        reply = self.conn.recv()
        self.served += 1
        return reply

    def close(self, kill: bool) -> None:
        """End the helper, killing it or closing this end of the pair so that it returns, and reap it."""
        if not self.conn.closed:
            if kill:
                self.proc.kill()
            self.conn.close()
            self.proc.wait()


def _serve(fd: int) -> None:
    """The helper's loop on socket ``fd``: `_sgd_train` on each request's rows, under the caller's `np.geterr`, until EOF.

    The reply is (risk, theta) or, if the rows raised (a warning counts), None:
    the caller then runs the whole call in-process, where it raises as it would alone.
    """
    from multiprocessing.connection import Connection

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    warnings.simplefilter("error")
    conn = Connection(fd)
    conn.send_bytes(b"r")
    while True:
        try:
            errstate, args = conn.recv()
        except EOFError:
            return
        try:
            with np.errstate(**errstate), _Lease() as lease:
                result = _sgd_train(lease, *args)
            reply = result.risk, result.theta_final
        except Exception:
            reply = None
        conn.send(reply)


def _cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _split_row(trials: int, schedule, cfg: SgdConfig) -> tuple[int, bool, float]:
    """The first trial row of the helper's half (0 runs the call in-process), whether its work reaches
    `_COLD_WORK`, and its rate.

    The row is the block boundary of `_eval_block` nearest the middle (any row
    without checkpoints).  Steps of fewer than `_SPLIT_WORK` / `_SPLIT_STEPS`
    trial x batch points count no work, so a few-trial call splits on its
    checkpoints alone.  Callables stay in-process: they would run in two
    processes.
    """
    if trials < 2 or callable(schedule) or callable(cfg.batch_size) or _helper_broken or os.name != "posix":
        return 0, False, 0.0
    try:
        grid, m, rate = _eval_grid(cfg), cfg.batch_at(0), float(schedule)
    except (TypeError, ValueError):
        return 0, False, 0.0  # raised in-process
    steps = cfg.steps if trials * m * _SPLIT_STEPS >= _SPLIT_WORK else 0
    work = trials * (steps * m + len(grid) * cfg.eval_samples)
    if work < _SPLIT_WORK or _cpus() < 2:
        return 0, False, 0.0
    rows = _eval_block(trials, cfg.eval_samples)[0] if grid else 1
    first = round(trials / 2 / rows) * rows
    return (first, work >= _COLD_WORK, rate) if 0 < first < trials else (0, False, 0.0)


def _take_helper(cold: bool) -> _Helper | None:
    """The helper, with `_helper_lock` held, if it is ready or ``cold``; None (lock free) to run in-process.

    Starts a helper when there is none, without waiting for it.
    """
    global _helper, _helper_broken
    if not _helper_lock.acquire(blocking=False):
        return None
    try:
        if _helper is None:
            _helper = _Helper()
        if cold or _helper.ready():
            return _helper
    except (OSError, EOFError):
        _helper_broken = _helper is None or not _helper.is_ready
        _drop_helper()
    _helper_lock.release()
    return None


def _drop_helper() -> None:
    """Kill the helper and forget it; the next call that splits starts another."""
    global _helper
    helper, _helper = _helper, None
    if helper is not None:
        helper.close(kill=True)


def _split(arch, theta0s, schedule, a, b, xi, cfg: SgdConfig) -> EnsembleResult | None:
    """The call with its upper rows on the helper and the rest here, at the same time; None to run it in-process.

    Either half raising, or a helper that dies or sends a bad reply, returns
    None, so the in-process run gives the call's result or error.  An interrupt
    kills the helper.
    """
    global _helper_broken
    trials = theta0s.shape[0]
    first, cold, rate = _split_row(trials, schedule, cfg)
    if not first:
        return None
    helper = _take_helper(cold)
    if helper is None:
        return None
    try:
        helper.conn.send((np.geterr(), (arch, theta0s[first:], rate, a, b, xi, cfg, None, first, trials)))
        try:
            with _Lease() as lease:
                low = _sgd_train(lease, arch, theta0s[:first], rate, a, b, xi, cfg, None, 0, trials)
        except Exception:  # run again in-process, which raises it as the call would alone
            low = None
        high = helper.receive()
        if low is None or high is None:
            return None
        risk, theta = high
        return EnsembleResult(low.eval_steps, np.concatenate((low.risk, risk)), np.concatenate((low.theta_final, theta)))
    except BaseException as error:
        _helper_broken = not helper.is_ready
        _drop_helper()
        if not isinstance(error, Exception):
            raise
        return None
    finally:
        _helper_lock.release()


@atexit.register
def _stop_helper() -> None:
    """At exit: close this end of the helper's pair and wait for it to return; kill it if still starting or in use."""
    global _helper
    helper, _helper = _helper, None
    if helper is not None:
        try:
            idle = helper.ready() and _helper_lock.acquire(blocking=False)
        except (OSError, EOFError):
            idle = False
        helper.close(kill=not idle)


def _forget_helper() -> None:
    """In a forked child: close its copy of the helper's socket, so the parent's exit still ends the helper."""
    global _helper, _helper_lock
    helper, _helper, _helper_lock = _helper, None, threading.Lock()
    if helper is not None:
        helper.conn.close()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


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
    configurations, 2.9e-15 on 1,3,7,1 at one trial and risk 0.002).  Each
    trial's risk is one pairwise sum over its sample row (over parts of 2,500
    samples at one trial); summed in 100-sample chunks of all trials instead,
    the risks move by up to 1.2e-15 of the array's largest value (measured
    on 80 configurations).  Every checkpoint redraws the fixed sample from its
    stream, a block of trial rows at a time, and holds no (trials, samples)
    array.

    Where two CPUs are allowed, a call with a number for its rate, an int batch
    size and work trials x (steps x batch + checkpoints x eval samples) of at
    least `_SPLIT_WORK`, its steps counted only at trials x batch >= 2,000,
    hands its upper trial rows to a helper process, which runs the same
    `_sgd_train` on them while this process runs the lower rows, and the
    results are joined: every output is bit-identical to the
    in-process call's.  The helper is started by the first such call, which
    runs in-process unless its work reaches `_COLD_WORK`, and serves later
    calls; it peaks at ~41 MB of resident memory, which this process's own
    figures do not count.  The two processes talk over one socket pair, and
    the helper's stdin, stdout and stderr are the null device, so whatever its
    interpreter prints at start-up (a `sitecustomize`, say) is no part of the
    exchange; only a helper that cannot be started or exits before it is
    ready turns splitting off for the rest of this process.  If either half raises, or the helper dies or
    replies badly, the whole call runs again in-process, so errors are those
    of the in-process call.  One call at a time uses the helper; a call that
    cannot take it, a forked child and a call with a callable rate or batch
    size run in-process.  The helper ends when this process exits.
    """
    theta0s = np.asarray(theta0s, dtype=np.float64)
    if theta0s.ndim != 2 or theta0s.shape[0] < 1 or theta0s.shape[1] != arch.param_count:
        raise ValueError(f"theta0s must have shape (trials >= 1, {arch.param_count})")
    theta0s = _require_finite(theta0s)
    result = _split(arch, theta0s, schedule, a, b, xi, cfg)
    if result is None:
        with _Lease() as lease:
            result = _sgd_train(lease, arch, theta0s, schedule, a, b, xi, cfg)
    return result


def gd_threshold(arch: Architecture, theta0, f0, mass: float, input_scale: float = 1.0) -> float:
    """Largest constant step with guaranteed Lyapunov descent for gd_run towards a constant target f0.

    1 / (L scale^2 prod_p(l_p+1) (2 V(theta0) + 4 L^2 ||f0||^2 + 1)^(L-1) mass);
    infinite when the measure has no mass, 0.0 when the bound is below the
    smallest float.  Towards other targets it guarantees nothing (V can rise below it).
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
