"""Risk functionals over finite measures, minibatches, and Monte Carlo.

A DiscreteMeasure is a finite weighted point set on a box [a, b]^dim; the
exact risk is the weighted sum of squared output errors over its points.
Sampling-based quantities (minibatch risk, Monte Carlo population risk) use
UniformSampler streams, which are keyed so runs are reproducible and
splittable: a key's stream is numpy's ``Generator(PCG64(SeedSequence(key)))``.
"""

from __future__ import annotations

import ctypes
import functools
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
            raise ValueError(f"seed must be a nonnegative integer or a tuple of them, got {seed!r}")
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


@functools.cache
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """init mult^i mod 2^32, i = 0..count: `SeedSequence`'s hash call i xors entry i, multiplies by entry i + 1."""
    return np.multiply.accumulate(np.array([init] + [mult] * count, dtype=np.uint32), dtype=np.uint32)[:, None]


_HASH_B = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_OTHERS = tuple(np.array([d for d in range(4) if d != src]) for src in range(4))  # the pool words each word mixes into
_PCG64_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1
_LOW32, _HALF, _ONE = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(1)


def _pcg64_jump(skip: int) -> np.ndarray:
    """The multipliers of seed and inc in PCG64's seeded state jumped ``skip`` steps ahead, as (hi, lo) uint64 limbs.

    Seeding steps from 0 with inc, adds the seed and steps again: (seed + inc) M + inc for the multiplier M.  The
    LCG's jump-ahead by ``skip`` steps is state <- A state + G inc, so the jumped state is seed (A M) + inc (A M + A
    + G) mod 2^128; (M, M + 1) at skip 0.  Returns [[A M], [A M + A + G]] as a (2, 2) block of limbs.
    """
    mult, plus, step_mult, step_plus = 1, 0, _PCG64_MULT, 1  # step_plus, and so plus, in units of inc
    while skip:
        if skip & 1:
            mult, plus = mult * step_mult & _MASK128, (plus * step_mult + step_plus) & _MASK128
        step_mult, step_plus = step_mult * step_mult & _MASK128, (step_mult + 1) * step_plus & _MASK128
        skip >>= 1
    seed_mult = mult * _PCG64_MULT & _MASK128
    limbs = [[m >> 64, m & 2**64 - 1] for m in (seed_mult, seed_mult + mult + plus & _MASK128)]
    return np.array(limbs, dtype=np.uint64)


def _mul128(x_hi, x_lo, m_hi, m_lo):
    """x m mod 2^128 of 128-bit ints given as uint64 (hi, lo) limbs, as limbs: the carry out of the low limbs'
    product is summed from their 32-bit halves' partial products, each of which fits in 64 bits."""
    a0, a1, b0, b1 = x_lo & _LOW32, x_lo >> _HALF, m_lo & _LOW32, m_lo >> _HALF
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _HALF) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> _HALF) + (p10 >> _HALF) + (mid >> _HALF) + x_hi * m_lo + x_lo * m_hi, x_lo * m_lo


def _pcg64_states(entropy: np.ndarray, jump: np.ndarray) -> np.ndarray:
    """PCG64 (state hi, state lo, inc hi, inc lo) words, a (keys, 4) uint64 block, after seeding from `SeedSequence`
    of each column of a (words, keys) uint32 block and jumping ahead by `_pcg64_jump`'s ``jump``."""
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
    for src, dst in enumerate(_OTHERS):
        pool[dst] = mix(pool[dst], hashmix(pool[src], 4 + 3 * src, 3))
    for j, word in enumerate(entropy[4:]):
        pool = mix(pool, hashmix(word, 16 + 4 * j, 4))
    out = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _HASH_B[:8]) * _HASH_B[1:]
    out ^= out >> _SHIFT
    # generate_state(4, uint64) gives the limbs (seed hi, seed lo, i hi, i lo); pcg64_set_seed takes
    # inc = 2 i + 1 mod 2^128, and the jumped state is seed jump[0] + inc jump[1], one product over both rows
    words = np.ascontiguousarray(out.T, dtype="<u4").view("<u8")
    block = np.empty((len(words), 2, 2), dtype=np.uint64)  # [key, (seed, inc) -> (state, inc), (hi, lo)]
    block[:, 0] = words[:, :2]
    np.left_shift(words[:, 3], _ONE, out=block[:, 1, 1])
    block[:, 1, 1] |= _ONE
    np.left_shift(words[:, 2], _ONE, out=block[:, 1, 0])
    block[:, 1, 0] |= words[:, 3] >> np.uint64(63)
    hi, lo = _mul128(block[..., 0], block[..., 1], jump[:, 0], jump[:, 1])
    np.add(lo[:, 0], lo[:, 1], out=block[:, 0, 1])
    np.add(hi[:, 0], hi[:, 1], out=block[:, 0, 0])
    block[:, 0, 0] += block[:, 0, 1] < lo[:, 0]
    return block.reshape(-1, 4)


def _struct_views(bit_generator: np.random.PCG64) -> tuple[np.ndarray, np.ndarray]:
    """uint64 views of a PCG64's four state words and of the word after the pointer to them in the struct that
    ``ctypes.state_address`` points to (has_uint32 and the buffered uinteger), both checked to lie in the object."""
    address, base = bit_generator.ctypes.state_address, id(bit_generator)
    flags = address + ctypes.sizeof(ctypes.c_void_p)
    end = base + type(bit_generator).__basicsize__
    words = ctypes.c_void_p.from_address(address).value if base <= address and flags + 8 <= end else None
    if words is None or not base <= words <= end - 32:
        raise LookupError("the PCG64 state struct is not where numpy keeps it")
    return (np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(words)),
            np.ctypeslib.as_array((ctypes.c_uint64 * 1).from_address(flags)))


@functools.cache
def _pcg64_order() -> np.ndarray | None:
    """Where each of (state hi, state lo, inc hi, inc lo) sits among a PCG64's struct words, probed once per process:
    a state set through numpy's setter is read back through `_struct_views`, and the block written back through
    them must give numpy's state again.  None on a layout the probe does not recognise."""
    known = [0x0123456789ABCDEF, 0x1032547698BADCFE, 0x2301674589EFCDAB, 0x32107654BA98FEDD]
    bit_generator = np.random.PCG64(0)
    state = bit_generator.state
    state["state"] = {"state": known[0] << 64 | known[1], "inc": known[2] << 64 | known[3]}
    state["has_uint32"], state["uinteger"] = 1, 0x89ABCDEF
    bit_generator.state = state
    try:
        words, flags = _struct_views(bit_generator)
    except (AttributeError, LookupError):
        return None
    seen = words.tolist()
    if sorted(seen) != known or flags[0] != 0x89ABCDEF << 32 | 1:
        return None
    order = np.array([known.index(word) for word in seen])
    state["has_uint32"], state["uinteger"] = 0, 0
    words[...], flags[0] = np.array(known[::-1], dtype=np.uint64)[order], 0
    state["state"] = {"state": known[3] << 64 | known[2], "inc": known[1] << 64 | known[0]}
    return order if bit_generator.state == state else None


# Below this many keys left, numpy's Generator(PCG64(SeedSequence(key))), ~13 us a key, is cheaper than a derived
# block: a block cost ~100 us on a new instance (~67 us to derive, ~15 us for its generator and views) and ~75 us on
# one whose generator exists, plus ~0.6 us a key, so numpy's path broke even at ~10 and ~7 keys left (2-vCPU Xeon
# host, best of 11; at 16 keys a block took 133 and 87 us against numpy's 192 and 182 us).
_BLOCK_MIN = 10
# Seeds each instance's reused generator, whose state the first raw write overwrites: ~5.4 against ~9.2 us for PCG64(0)
_SEED = np.random.SeedSequence(0)


class _KeyedStreams:
    """The streams ``prefix + (k,)``, k < stop, each numpy's ``Generator(PCG64(SeedSequence(prefix + (k,))))``
    advanced by ``skip`` draws (those of the trial rows before a split's upper half).

    With `_BLOCK_MIN` keys or more left, one pass vectorized over k derives up to 256 keys' PCG64 states, each
    jumped ``skip`` steps ahead as it is derived (one `_pcg64_jump` per instance), and each call writes its key's
    state words into one reused `Generator` (valid until the next call) and clears its buffered uint32, as numpy's
    state setter does; on a struct layout `_pcg64_order` does not recognise, the setter itself takes them.  With
    fewer keys left, numpy's set-up and `advance` are cheaper.
    """

    def __init__(self, prefix: tuple[int, ...], stop: int, skip: int = 0):
        self.prefix, self.stop, self.skip = prefix, stop, skip
        self.start, self.states, self.gen = 0, (), None

    def __call__(self, k: int) -> np.random.Generator:
        i = k - self.start
        if not 0 <= i < len(self.states):
            if self.stop - k < _BLOCK_MIN:
                rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.prefix + (k,))))
                if self.skip:
                    rng.bit_generator.advance(self.skip)
                return rng
            if self.gen is None:  # set up at the first block, so that a call drawing no batch pays none of it
                self.gen, self.jump = np.random.Generator(np.random.PCG64(_SEED)), _pcg64_jump(self.skip)
                self.order = _pcg64_order()
                if self.order is not None:
                    self.words, self.flags = _struct_views(self.gen.bit_generator)
                else:
                    self.record = self.gen.bit_generator.state
            key = _uint32_words(k)  # the keys of a block differ in their lowest word only
            count = min(self.stop - k, 256, 2**32 - key[0])
            words = [w for p in self.prefix for w in _uint32_words(p)] + key
            block = np.repeat(np.array(words, dtype=np.uint32)[:, None], count, axis=1)
            block[-len(key)] += np.arange(count, dtype=np.uint32)
            self.start, self.states, i = k, _pcg64_states(block, self.jump), 0
            if self.order is not None:
                self.states = self.states[:, self.order]
        if self.order is not None:
            self.words[...], self.flags[0] = self.states[i], 0
        else:
            s_hi, s_lo, i_hi, i_lo = self.states[i].tolist()
            self.record["state"] = {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}
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
