"""Forward evaluation of the network, exact and smoothed.

The exact realization applies ReLU after every hidden layer.  The smoothed
realization replaces ReLU after hidden layer k with the smooth unit at
per-layer sharpness ``sharpness**(1/k)`` (computed as ``exp(ln(sharpness)/k)``),
so deeper layers smooth more gently; this keeps the composed map converging
to the exact one with an explicit rate as sharpness grows.

An evaluation goes through the allocating `_forward`, where exact and smoothed
differ only in the unit, or in the training loops through the exact ``forward``
a `_Workspace` builds once over its own parameter block (through ``np.dot`` on
2-D views at one trial and a small batch).  Arrays are feature-major, ``(..., width, samples)``, so
the contiguous axis runs over samples rather than over a handful of neurons.
The public risks and gradients reach `_forward` through `_residual`, whose
`_check_inputs` is their one input check, and the single-input traces through `_trace`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .activation import (
    DEFAULT_CLAMP,
    ClampConfig,
    relu,
    smooth_relu,
    smooth_relu_derivative_bound,
)
from .arch import Architecture, check_params, layer_views


@dataclass
class ForwardTrace:
    """Everything one forward pass produces.

    ``preactivations[k-1]`` is the affine image entering layer k's unit
    (the network output for k = L); ``activations[k-1]`` the post-unit value
    for hidden k.  ``pattern`` holds the strict activation pattern
    (preactivation > 0) per hidden layer and is only set in exact mode.
    """

    x: np.ndarray
    preactivations: list[np.ndarray]
    activations: list[np.ndarray]
    pattern: list[np.ndarray] | None

    @property
    def output(self) -> np.ndarray:
        return self.preactivations[-1]


def layer_sharpness(sharpness: float, k: int) -> float:
    """Per-layer sharpness after hidden layer k: sharpness**(1/k)."""
    if k == 1:
        return float(sharpness)
    return math.exp(math.log(sharpness) / k)


def _relu_unit(k: int, z: np.ndarray) -> np.ndarray:
    return relu(z)


def _smooth_unit(sharpness: float, cfg: ClampConfig):
    """The smooth unit after hidden layer k, at sharpness layer_sharpness(sharpness, k)."""
    return lambda k, z: smooth_relu(cfg, layer_sharpness(sharpness, k), z)


def _aligned(shape, dtype=np.float64) -> np.ndarray:
    """An uninitialized array whose data starts on a 64-byte cache line.

    numpy aligns its buffers to 16 bytes only.  Leased across calls, a
    workspace buffer of 128 KiB or more is an mmap of its own that starts 16
    bytes into a page, so its vector loads straddle cache lines: the preset
    steps and checkpoints ran slower on such buffers than on buffers built
    per call, and faster on line-aligned ones (`BENCH_15.json`).
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + nbytes].view(dtype).reshape(shape)


def _arena(*shapes) -> tuple[np.ndarray, ...]:
    """Float `_aligned` arrays of ``shapes`` from one allocation: one address read (~2 us) for the set."""
    lines = [-(-math.prod(shape) // 8) for shape in shapes]  # whole 64-byte lines of 8 floats
    raw, start, out = _aligned((8 * sum(lines),)), 0, []
    for shape, n in zip(shapes, lines):
        out.append(raw[start : start + math.prod(shape)].reshape(shape))
        start += 8 * n
    return tuple(out)


# The ReLU's and the gates' zero, taken once: numpy converts a Python float operand at every call (~0.12 us each).
_ZERO = np.zeros(())
_ZERO.flags.writeable = False
# One trial at a batch of 2 to this many samples takes its products through np.dot on 2-D views, at 0.56-0.69x
# the cost of np.matmul on the stacked ones and with the same bits; np.dot is 1.1x slower at 1,024 samples and 1.8x
# at 10^4 (ROADMAP.md, Measurements), and at one sample W^T @ delta is a gemv whose last bit the two round apart.
_DOT_SAMPLES = 512
_KERNEL_BUFFERS = ("blocks", "inputs", "inputs_t", "hidden", "gates", "out", "grads", "scaled", "scaled_t", "back")


class _Workspace:
    """A trial-stacked parameter block, the buffers of its passes at batch size m, and the kernel built over them.

    It is built for ``(widths, trials, m, backward)`` and owns its parameters:
    ``theta``, a (trials, d) array in `_augmented_order` that a caller writes
    and updates in place, whose augmented (trials, l_k, l_{k-1} + 1) views
    ``blocks[k-1] = [W_k b_k]`` the kernel reads.  ``inputs[k-1]`` is
    layer k's input [h; 1] as (trials, l_{k-1} + 1, m), its ones row written
    here once, so layer k is the one product ``blocks[k-1] @ inputs[k-1]`` and
    its gradient [dW_k db_k] the one product ``delta_k @ inputs_t[k-1]``
    (``inputs_t`` the transposes), written into ``grads[k-1]``, a view of the
    (trials, d) gradient block ``grad`` laid out like the parameters.
    ``points`` are the x rows of the first [x; 1], which a caller fills,
    ``hidden[k-1]`` the h_k rows of layer k + 1's input, where layer k's
    product is written and its ReLU taken in place (no preactivation is kept),
    and ``out`` the (trials, l_L, m) output.  ``draw_target`` is the points as
    (trials, m, l_0).  With l_0 = 1 it is C-contiguous, so a batch is drawn
    straight into it; with l_0 > 1 ``draw`` is the (trials, m, l_0) buffer a
    batch is drawn into first, and an l_0 = 1 workspace has no ``draw``.

    The kernel is built once, here, as closures over the views: ``forward()``
    runs the L products and L - 1 ReLUs and returns ``out`` (a bias enters
    through the ones row rather than an add, which moves outputs at the
    rounding level), and ``step`` (`gradient._build_step`) adds the residual
    and the reverse sweep, which reads the gates from ``hidden`` into
    ``gates``, writes the output delta into ``out`` and each hidden one over
    h rows read for the last time, and keeps ``W_{L-1}^T * w`` in ``back``
    (``factored``, L >= 3); on the ``narrow`` route delta goes not into
    ``out`` but straight into the ones row of delta * [x; 1] in ``scaled``.
    Without ``backward`` it has ``forward`` alone and holds only its
    parameters, inputs and ``out``, none of the buffers only ``step`` writes:
    ``gates``, ``grad``, ``scaled`` and ``back``.  Every buffer starts on a cache line (`_aligned`);
    ``buffers`` lists them, and the kernel reads no other memory.

    The kernel reads the buffers through ``views``, by name, taken here: at
    one trial and 2 to `_DOT_SAMPLES` samples each buffer's 2-D ``[0]``, with
    every product an ``np.dot`` (``matmul``), else the buffers and
    ``np.matmul``.  The elementwise calls, the 3-D ``out`` that ``forward()``
    returns and every output bit are the same.
    """

    def __init__(self, widths: tuple[int, ...], trials: int, m: int, backward: bool = True):
        depth, d = len(widths) - 1, len(_augmented_order(widths))
        self.theta = _aligned((trials, d))
        self.blocks = _augmented_blocks(widths, self.theta)
        if widths[0] > 1:  # one input's points are C-contiguous as (trials, m, 1) and drawn into directly
            self.draw = _aligned((trials, m, widths[0]))
        # stored row-major as (width, trials, m) and viewed as (trials, width, m):
        # the hidden rows of [h; 1] are then one contiguous block, which the
        # unit writes ~1.6x faster than trials-many strided blocks
        self.inputs = [_aligned((w + 1, trials, m)).transpose(1, 0, 2) for w in widths[:-1]]
        for a in self.inputs:
            a.fill(1.0)
        self.points = self.inputs[0][..., :-1, :]
        self.draw_target = self.points.swapaxes(-1, -2)
        self.hidden = [a[..., :-1, :] for a in self.inputs[1:]]
        self.out = _aligned((widths[-1], trials, m)).transpose(1, 0, 2)
        self.factored = depth > 1 and widths[-1] == 1
        self.narrow = self.factored and depth == 2 and widths[0] == 1
        self.buffers = [self.theta] + ([self.draw] if widths[0] > 1 else []) + [*self.inputs, self.out]
        if backward:
            self.inputs_t = [a.swapaxes(-1, -2) for a in self.inputs]
            self.gates = [_aligned((w, trials, m), bool).transpose(1, 0, 2) for w in widths[1:-1]]
            self.grad = _aligned((trials, d))
            self.grads = _augmented_blocks(widths, self.grad)
            if self.narrow:
                self.scaled = _aligned((2, trials, m)).transpose(1, 0, 2)
                self.scaled_t = self.scaled.swapaxes(-1, -2)
            elif self.factored and depth > 2:
                self.back = _aligned((trials, widths[-3], widths[-2]))
            self.buffers += [*self.gates, self.grad] + [getattr(self, n) for n in ("scaled", "back") if hasattr(self, n)]
        self.matmul = matmul = np.dot if trials == 1 and 1 < m <= _DOT_SAMPLES else np.matmul
        view = (lambda a: a[0]) if matmul is np.dot else (lambda a: a)
        # by getattr: reading vars(self) would slow each later read of the workspace's attributes
        kernel = [(n, getattr(self, n)) for n in _KERNEL_BUFFERS if hasattr(self, n)]
        self.views = views = {n: [*map(view, a)] if isinstance(a, list) else view(a) for n, a in kernel}
        maximum, zero, out, top, x, y = np.maximum, _ZERO, self.out, views["blocks"][-1], views["inputs"][-1], views["out"]
        hidden = list(zip(views["blocks"], views["inputs"], views["hidden"]))  # the L - 1 hidden layers

        def forward() -> np.ndarray:
            for block, x_k, h in hidden:
                maximum(matmul(block, x_k, out=h), zero, out=h)
            matmul(top, x, out=y)
            return out

        self.forward = forward
        if backward:
            from .gradient import _build_step  # gradient imports this module

            self.step = _build_step(self)

    @property
    def nbytes(self) -> int:
        """The bytes of its ``buffers``."""
        return sum(a.nbytes for a in self.buffers)


@functools.lru_cache(maxsize=64)
def _augmented_order(widths: tuple[int, ...]) -> np.ndarray:
    """Flat positions of the augmented layout: ``theta[..., order]`` lists each [W_k b_k] row-major.

    Built once per ``widths`` and shared, so the array is read-only.
    """
    order = []
    start = 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        flat = np.arange(start, start + fan_out * (fan_in + 1))
        weights = flat[: fan_out * fan_in].reshape(fan_out, fan_in)
        order.append(np.concatenate((weights, flat[fan_out * fan_in :, None]), axis=1).ravel())
        start += fan_out * (fan_in + 1)
    order = np.concatenate(order)
    order.flags.writeable = False
    return order


def _augmented_blocks(widths, array: np.ndarray) -> list[np.ndarray]:
    """(trials, l_k, l_{k-1} + 1) views [W_k b_k] of a (trials, d) array in augmented order."""
    out = []
    start = 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        size = fan_out * (fan_in + 1)
        out.append(array[:, start : start + size].reshape(-1, fan_out, fan_in + 1))
        start += size
    return out


def _forward(layers, points: np.ndarray, unit) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Batched pass through per-layer ``(W_k, b_k)``: (preactivations, activations).

    Arrays are feature-major: ``points`` is (..., l_0, M), ``W_k``
    (..., l_k, l_{k-1}) and ``b_k`` (..., l_k), and layer k's outputs are
    (..., l_k, M).  A leading trial axis on the parameters evaluates a stack
    of networks, each on its own points.  ``unit(k, z)`` is the nonlinearity
    after hidden layer k: `_relu_unit` or a `_smooth_unit`.  Training runs a `_Workspace`'s ``forward``.
    """
    pres: list[np.ndarray] = []
    acts: list[np.ndarray] = []
    h = points
    for k, (w, b) in enumerate(layers, start=1):
        if w.shape[-1] == 1:
            # fan-in 1: [W_k b_k] @ [h; 1] runs several times faster than W_k * h + b_k
            z = np.concatenate((w, b[..., None]), axis=-1) @ np.concatenate((h, np.ones_like(h)), axis=-2)
        else:
            z = w @ h
            z += b[..., None]
        pres.append(z)
        if k < len(layers):
            h = unit(k, z)
            acts.append(h)
    return pres, acts


def _check_inputs(arch: Architecture, theta, points, fvals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """θ in the flat layout, points as (M, l_0) and target values as (M, l_L), as float arrays.

    The one input check of the public risks, gradients and the path-sum oracle:
    a wrong shape is a ValueError naming the width it misses, and a non-finite
    target value one naming the target.  ``fvals`` may be a function of the
    checked points (`TargetSpec.values`), so that a target function never sees
    points of the wrong width.  A constant target may give its values as one
    (1, l_L) row, which holds at every point.
    """
    theta = check_params(arch, theta)
    points = np.asarray(points, dtype=np.float64)
    l_in, l_out = arch.widths[0], arch.widths[-1]
    if points.ndim != 2 or points.shape[1] != l_in:
        raise ValueError(f"points have shape {points.shape}, expected (M, {l_in}) for input width {l_in}")
    fvals = np.asarray(fvals(points) if callable(fvals) else fvals, dtype=np.float64)
    if fvals.shape not in ((points.shape[0], l_out), (1, l_out)):
        raise ValueError(
            f"target values have shape {fvals.shape}, expected ({points.shape[0]}, {l_out}) or (1, {l_out}) "
            f"for output width {l_out}"
        )
    if not np.isfinite(fvals).all():
        raise ValueError("the target's values must be finite at every point")
    return theta, points, fvals


def _residual(arch: Architecture, theta, points, fvals, unit=_relu_unit):
    """The checked pass at (M, l_0) points against (M, l_L) or (1, l_L) target values: (layers, pres, acts, resid).

    ``layers`` are θ's `layer_views`, ``pres``/``acts`` `_forward`'s outputs
    and ``resid`` the (l_L, M) residual N - f, all feature-major.
    """
    theta, points, fvals = _check_inputs(arch, theta, points, fvals)
    layers = layer_views(arch, theta)
    pres, acts = _forward(layers, points.T, unit)
    return layers, pres, acts, pres[-1] - fvals.T


def _trace(arch: Architecture, theta, x, unit, pattern: bool) -> ForwardTrace:
    """The pass at one input x of shape (l_0,); with ``pattern``, the strict activation pattern too."""
    theta = check_params(arch, theta)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != arch.widths[0]:
        raise ValueError(f"input has shape {x.shape}, expected ({arch.widths[0]},) for input width {arch.widths[0]}")
    pres, acts = _forward(layer_views(arch, theta), x[:, None], unit)
    pres = [z[:, 0] for z in pres]
    return ForwardTrace(x, pres, [a[:, 0] for a in acts], [z > 0.0 for z in pres[:-1]] if pattern else None)


def forward_exact(arch: Architecture, theta: np.ndarray, x) -> ForwardTrace:
    """Exact ReLU forward pass at a single input."""
    return _trace(arch, theta, x, _relu_unit, pattern=True)


def forward_smooth(
    arch: Architecture,
    theta: np.ndarray,
    x,
    sharpness: float,
    cfg: ClampConfig = DEFAULT_CLAMP,
) -> ForwardTrace:
    """Smoothed forward pass at a single input; no activation pattern."""
    if not float(sharpness) >= 1.0:
        raise ValueError(f"sharpness must be >= 1, got {sharpness}")
    return _trace(arch, theta, x, _smooth_unit(float(sharpness), cfg), pattern=False)


def deviation_bound(
    arch: Architecture,
    theta: np.ndarray,
    sharpness: float,
    cfg: ClampConfig = DEFAULT_CLAMP,
) -> float:
    """Uniform bound on |exact - smoothed| network output, any input.

    Unrolling the per-layer error recursion gives
    ``sharpness**(-1/max(L-1,1)) * hi * sum_{j=1..L} S**(j-1) * norm1(theta)**j``
    for depth L >= 2 (zero for L = 1, where nothing is smoothed), with S the
    uniform slope bound of the smooth unit and norm1 the l^1 norm.
    """
    theta = check_params(arch, theta)
    depth = arch.depth
    if depth < 2:
        return 0.0
    slope = smooth_relu_derivative_bound(cfg)
    norm1 = float(np.abs(theta).sum())
    total = sum(slope ** (j - 1) * norm1**j for j in range(1, depth + 1))
    rate = layer_sharpness(float(sharpness), max(depth - 1, 1))
    return cfg.hi * total / rate
