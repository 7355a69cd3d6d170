"""Risk functionals over finite measures, minibatches, and Monte Carlo.

A DiscreteMeasure is a finite weighted point set on a box [a, b]^dim; the
exact risk is the weighted sum of squared output errors over its points.
Sampling-based quantities (minibatch risk, Monte Carlo population risk) use
UniformSampler streams, which are keyed so runs are reproducible and
splittable: a key's stream is numpy's ``Generator(PCG64(SeedSequence(key)))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .activation import DEFAULT_CLAMP, ClampConfig
from .arch import Architecture
from .network import _check_inputs, _relu_unit, _residual, _smooth_unit


def _entropy(seed) -> tuple[int, ...]:
    """The key words of a seed: a nonnegative Python or numpy int, or a tuple of them."""
    words = seed if isinstance(seed, tuple) else (seed,)
    for word in words:
        if isinstance(word, bool) or not isinstance(word, (int, np.integer)):
            raise TypeError(f"seed must be a nonnegative integer or a tuple of them, got {seed!r}")
        if word < 0:
            raise ValueError("expected non-negative integer")
    return tuple(map(int, words))


def _whole(name: str, value) -> int:
    """``value`` as an int: a Python or numpy int or an integral float; else a ValueError naming ``name``.
    Bools are rejected, or ``eval_steps=(True,)`` would evaluate step 1 and ``batch_size=True`` draw one point."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _uint32_words(value: int) -> list[int]:
    """``value``'s little-endian 32-bit words, as `SeedSequence` splits an int (0 is [0])."""
    return [value >> shift & 0xFFFFFFFF for shift in range(0, max(value.bit_length(), 1), 32)]


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """init mult^i mod 2^32, i = 0..count: `SeedSequence`'s hash call i xors entry i, multiplies by entry i + 1."""
    return np.multiply.accumulate(np.array([init] + [mult] * count, dtype=np.uint32), dtype=np.uint32)[:, None]


_HASH_B = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_PCG64_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def _pcg64_jump(skip: int) -> tuple[int, int]:
    """(A M, A + G) mod 2^128 for PCG64's multiplier M and its LCG jump-ahead by ``skip`` steps, state <- A state +
    G inc: a seeded state (seed + inc) M + inc, jumped, is (seed + inc) A M + inc (A + G).  (M, 1) at skip 0."""
    mult, plus, step_mult, step_plus = 1, 0, _PCG64_MULT, 1  # step_plus, and so plus, in units of inc
    while skip:
        if skip & 1:
            mult, plus = mult * step_mult & _MASK128, (plus * step_mult + step_plus) & _MASK128
        step_mult, step_plus = step_mult * step_mult & _MASK128, (step_mult + 1) * step_plus & _MASK128
        skip >>= 1
    return mult * _PCG64_MULT & _MASK128, mult + plus & _MASK128


def _pcg64_states(entropy: np.ndarray, jump: tuple[int, int]) -> list[tuple[int, int]]:
    """PCG64 (state, inc) after seeding from `SeedSequence` of each column of a (words, keys) uint32 block and
    jumping ahead by `_pcg64_jump`'s ``jump``."""
    consts = _hash_consts(0x43B0D7E5, 0x931E8875, 16 + 4 * max(len(entropy) - 4, 0))

    def hashmix(value, i, count):
        value = (value ^ consts[i : i + count]) * consts[i + 1 : i + count + 1]
        return value ^ value >> _SHIFT

    def mix(x, y):
        x = x * _MIX_L - y * _MIX_R
        return x ^ x >> _SHIFT

    pool = np.zeros((4, entropy.shape[1]), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:4]
    pool = hashmix(pool, 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 4 + 3 * src, 3))
    for j, word in enumerate(entropy[4:]):
        pool = mix(pool, hashmix(word, 16 + 4 * j, 4))
    out = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _HASH_B[:8]) * _HASH_B[1:]
    out ^= out >> _SHIFT
    # generate_state(4, uint64) gives (seed_hi, seed_lo, inc_hi, inc_lo), and
    # pcg64_set_seed steps from 0 with inc, adds the seed and steps again
    words = np.ascontiguousarray(out.T, dtype="<u4").view("<u8").tolist()
    seeds = [(s_hi << 64 | s_lo, (i_hi << 65 | i_lo << 1 | 1) & _MASK128) for s_hi, s_lo, i_hi, i_lo in words]
    mult, plus = jump
    return [((seed + inc) * mult + inc * plus & _MASK128, inc) for seed, inc in seeds]


class _KeyedStreams:
    """The streams ``prefix + (k,)``, k < stop, each numpy's ``Generator(PCG64(SeedSequence(prefix + (k,))))``
    advanced by ``skip`` draws (those of the trial rows before a split's upper half).

    With 16 keys or more left, one pass vectorized over k derives up to 256 keys' PCG64 states, each jumped
    ``skip`` steps ahead as it is derived (one `_pcg64_jump` per instance), set one per call on a reused
    `Generator` (valid until the next call); with fewer, numpy's set-up and `advance` are cheaper.
    """

    def __init__(self, prefix: tuple[int, ...], stop: int, skip: int = 0):
        self.prefix, self.stop, self.skip, self.jump = prefix, stop, skip, _pcg64_jump(skip)
        self.start, self.states, self.gen, self.record = 0, [], None, None

    def __call__(self, k: int) -> np.random.Generator:
        i = k - self.start
        if not 0 <= i < len(self.states):
            if self.stop - k < 16:
                rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.prefix + (k,))))
                if self.skip:
                    rng.bit_generator.advance(self.skip)
                return rng
            key = _uint32_words(k)  # the keys of a block differ in their lowest word only
            count = min(self.stop - k, 256, 2**32 - key[0])
            words = [w for p in self.prefix for w in _uint32_words(p)] + key
            block = np.repeat(np.array(words, dtype=np.uint32)[:, None], count, axis=1)
            block[-len(key)] += np.arange(count, dtype=np.uint32)
            self.start, self.states, i = k, _pcg64_states(block, self.jump), 0
        if self.gen is None:
            self.gen = np.random.Generator(np.random.PCG64(0))
            self.record = self.gen.bit_generator.state
        self.record["state"]["state"], self.record["state"]["inc"] = self.states[i]
        self.gen.bit_generator.state = self.record
        return self.gen


def _check_box(a, b) -> tuple[float, float]:
    """(a, b) as floats, for a box with finite a < b whose width b - a is finite too."""
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b and math.isfinite(b - a)):
        raise ValueError(f"need finite a < b with finite b - a, got a={a}, b={b}")
    return a, b


@dataclass
class DiscreteMeasure:
    """Finite measure sum_p weights[p] * delta_{points[p]} on [a, b]^dim."""

    points: np.ndarray
    weights: np.ndarray
    a: float
    b: float

    def __post_init__(self) -> None:
        self.points = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.a, self.b = _check_box(self.a, self.b)
        if self.weights.ndim != 1 or self.weights.shape[0] != self.points.shape[0]:
            raise ValueError("one weight per point required")
        if not (np.isfinite(self.points).all() and np.isfinite(self.weights).all()):
            raise ValueError("points and weights must be finite")
        if np.any(self.weights < 0.0):
            raise ValueError("weights must be nonnegative")
        if self.points.size and (self.points.min() < self.a or self.points.max() > self.b):
            raise ValueError(f"points must lie in [{self.a}, {self.b}]")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))

    @property
    def input_scale(self) -> float:
        """max(|a|, |b|, 1), the box scale entering the growth bounds."""
        return max(abs(self.a), abs(self.b), 1.0)

    @classmethod
    def uniform_grid(cls, a: float, b: float, count: int, dim: int = 1) -> "DiscreteMeasure":
        """Equispaced grid with uniform weights of total mass 1 (dim 1 only)."""
        if dim != 1:
            raise ValueError("uniform_grid supports dim=1")
        count = _whole("count", count)
        if count < 1:
            raise ValueError("count must be positive")
        points = np.linspace(a, b, count)[:, None]
        weights = np.full(count, 1.0 / count)
        return cls(points, weights, a, b)


@dataclass
class TargetSpec:
    """Target function: a constant vector, or a callable with its value at 0.

    ``fn`` takes one input point (dim,) and returns the target vector; the
    value at the origin has to be supplied explicitly because the Lyapunov
    function depends on it even when 0 is outside the sampled box.
    """

    f0: np.ndarray
    xi: np.ndarray | None = None
    fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        self.f0 = np.atleast_1d(np.asarray(self.f0, dtype=np.float64))
        if (self.xi is None) == (self.fn is None):
            raise ValueError("exactly one of xi and fn must be set")
        if self.xi is not None:
            self.xi = np.atleast_1d(np.asarray(self.xi, dtype=np.float64))
            if not np.isfinite(self.xi).all():
                raise ValueError(f"the constant target xi must be finite, got {self.xi}")

    @classmethod
    def constant(cls, xi) -> "TargetSpec":
        return cls(f0=xi, xi=xi)

    @classmethod
    def from_function(cls, fn, f0) -> "TargetSpec":
        return cls(f0=f0, fn=fn)

    @property
    def is_constant(self) -> bool:
        return self.xi is not None

    def values(self, points: np.ndarray) -> np.ndarray:
        """Target values at each row of points, shape (M, out_dim)."""
        points = np.atleast_2d(points)
        if self.xi is not None:
            return np.broadcast_to(self.xi, (points.shape[0], self.xi.shape[0]))
        return np.stack([np.atleast_1d(np.asarray(self.fn(p), dtype=np.float64)) for p in points])


@dataclass
class UniformSampler:
    """Uniform draws on [a, b)^dim, ``dim`` a positive integer, from numpy's ``Generator(PCG64(SeedSequence(seed)))``.

    ``seed`` is a nonnegative int or a tuple of them: equal seeds give equal sequences, so a key such as
    (master seed, purpose, index) makes every draw reproducible without keeping generator state around.
    """

    a: float
    b: float
    dim: int = 1
    seed: int | tuple[int, ...] = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.a, self.b = _check_box(self.a, self.b)
        self.dim = _whole("dim", self.dim)
        if self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        self._rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(_entropy(self.seed))))

    def sample(self, n: int) -> np.ndarray:
        n = _whole("sample size", n)
        if n < 0:
            raise ValueError("sample size must be nonnegative")
        return self.a + (self.b - self.a) * self._rng.random((n, self.dim))


def _batch(batch) -> np.ndarray:
    """A minibatch as an (M, l_0) float array with M >= 1; its width is checked with the other inputs."""
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if batch.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    return batch


def _constant_target(arch: Architecture, value, name: str) -> tuple[np.ndarray, float]:
    """A constant target ``value`` as an (l_L,) float array and its squared norm (inf above ~1e154, with no
    warning); another width or a non-finite entry is a ValueError naming ``name``.  It runs 100 times in a preset's
    set-up, so the entries are tested only where the square is not finite, a scalar becomes (1,) by indexing, and
    at width 1 the square is a float product, bit-identical to the one-element dot and ~0.5 us cheaper."""
    value = np.asarray(value, dtype=np.float64)
    if not value.ndim:
        value = value[None]
    width = arch.widths[-1]
    if value.shape != (width,):
        raise ValueError(f"{name} has shape {value.shape}, expected ({width},) for output width {width}")
    if width == 1:
        square = (x := float(value[0])) * x
    else:
        with np.errstate(over="ignore"):
            square = float(value @ value)
    if not math.isfinite(square) and not np.isfinite(value).all():
        raise ValueError(f"the target {name} must be finite, got {value}")
    return value, square


def _measure_risk(arch, theta, measure: DiscreteMeasure, target: TargetSpec, unit) -> float:
    """sum_p w_p ||N(x_p) - f(x_p)||^2 with the hidden unit ``unit``."""
    *_, resid = _residual(arch, theta, measure.points, target.values, unit)
    return float(np.sum(measure.weights * np.sum(resid * resid, axis=0)))


def risk_exact(arch: Architecture, theta, measure: DiscreteMeasure, target: TargetSpec) -> float:
    """sum_p w_p ||N(x_p) - f(x_p)||^2 with the exact ReLU network."""
    return _measure_risk(arch, theta, measure, target, _relu_unit)


def risk_smooth(
    arch: Architecture,
    theta,
    measure: DiscreteMeasure,
    target: TargetSpec,
    sharpness: float,
    cfg: ClampConfig = DEFAULT_CLAMP,
) -> float:
    """Exact-measure risk of the smoothed network."""
    return _measure_risk(arch, theta, measure, target, _smooth_unit(float(sharpness), cfg))


def empirical_risk(arch: Architecture, theta, batch: np.ndarray, xi) -> float:
    """Mean squared error against a constant target over one batch."""
    batch = _batch(batch)
    *_, resid = _residual(arch, theta, batch, _constant_target(arch, xi, "xi")[0][None])
    return float(np.mean(np.sum(resid * resid, axis=0)))


def population_risk_mc(
    arch: Architecture,
    theta,
    sampler: UniformSampler,
    xi,
    n_samples: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of the population risk and its standard error.

    Returns (mean, std / sqrt(n)) with the unbiased sample variance.
    """
    n_samples = _whole("n_samples", n_samples)
    if n_samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    row = _constant_target(arch, xi, "xi")[0][None]
    # checked before the draw too, so that a rejected call leaves the sampler's stream where it was
    _check_inputs(arch, theta, np.empty((0, sampler.dim)), row)
    *_, resid = _residual(arch, theta, sampler.sample(n_samples), row)
    sq = np.sum(resid * resid, axis=0)
    estimate = float(np.mean(sq))
    std_error = float(np.std(sq, ddof=1) / np.sqrt(n_samples))
    return estimate, std_error
