"""Network shapes and the flat parameter layout.

A fully connected network with widths ``(l_0, ..., l_L)`` keeps all of its
weights and biases in one flat vector of length ``sum_k l_k * (l_{k-1} + 1)``.
Layer ``k`` (1-based) occupies a contiguous block: first the ``l_k x l_{k-1}``
weight matrix in row-major order, then the ``l_k`` biases.

Two index conventions coexist here on purpose.  The arithmetic index maps
(:meth:`Architecture.weight_index`, :meth:`Architecture.bias_index`) are
1-based, matching the convention used in hand calculations and in the tests
that pin them down.  Everything that touches numpy (`layer_views`, the
slice helpers) is 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Architecture:
    """Widths ``(l_0, ..., l_L)`` of a fully connected network.

    ``depth`` is the number of affine maps L.  ``offsets[k]`` is the total
    number of parameters consumed by layers 1..k, so layer k+1's block starts
    at flat position ``offsets[k]`` (0-based); both are computed once.
    """

    widths: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.widths) < 2:
            raise ValueError("need at least input and output widths")
        if any(int(w) != w or w < 1 for w in self.widths):
            raise ValueError(f"widths must be positive integers, got {self.widths}")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))

    @cached_property
    def depth(self) -> int:
        return len(self.widths) - 1

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Cumulative parameter counts: offsets[k] = sum_{n<=k} l_n*(l_{n-1}+1)."""
        out = [0]
        for k in range(1, self.depth + 1):
            out.append(out[-1] + self.widths[k] * (self.widths[k - 1] + 1))
        return tuple(out)

    @cached_property
    def param_count(self) -> int:
        return self.offsets[self.depth]

    def layer_sizes(self, k: int) -> tuple[int, int]:
        """(fan_in, fan_out) of layer k, 1-based."""
        self._check_layer(k)
        return self.widths[k - 1], self.widths[k]

    def weight_index(self, k: int, i: int, j: int) -> int:
        """1-based flat position of the weight feeding neuron i of layer k
        from neuron j of layer k-1."""
        self._check_layer(k)
        fan_in, fan_out = self.widths[k - 1], self.widths[k]
        if not (1 <= i <= fan_out):
            raise IndexError(f"neuron index i={i} outside 1..{fan_out} in layer {k}")
        if not (1 <= j <= fan_in):
            raise IndexError(f"source index j={j} outside 1..{fan_in} in layer {k}")
        return (i - 1) * fan_in + j + self.offsets[k - 1]

    def bias_index(self, k: int, i: int) -> int:
        """1-based flat position of the bias of neuron i in layer k."""
        self._check_layer(k)
        fan_in, fan_out = self.widths[k - 1], self.widths[k]
        if not (1 <= i <= fan_out):
            raise IndexError(f"neuron index i={i} outside 1..{fan_out} in layer {k}")
        return fan_out * fan_in + i + self.offsets[k - 1]

    def weight_slice(self, k: int) -> slice:
        """0-based slice of layer k's weight block in the flat vector."""
        self._check_layer(k)
        start = self.offsets[k - 1]
        return slice(start, start + self.widths[k] * self.widths[k - 1])

    def bias_slice(self, k: int) -> slice:
        """0-based slice of layer k's bias block in the flat vector."""
        self._check_layer(k)
        start = self.offsets[k - 1] + self.widths[k] * self.widths[k - 1]
        return slice(start, start + self.widths[k])

    def to_string(self) -> str:
        return ",".join(str(w) for w in self.widths)

    @classmethod
    def from_string(cls, text: str) -> "Architecture":
        try:
            widths = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise ValueError(f"malformed width list {text!r}") from exc
        return cls(widths)

    def _check_layer(self, k: int) -> None:
        if not (1 <= k <= self.depth):
            raise IndexError(f"layer {k} outside 1..{self.depth}")


def check_params(arch: Architecture, theta: np.ndarray) -> np.ndarray:
    """Validate and return a float64 view/copy of a flat parameter vector."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 1 or theta.shape[0] != arch.param_count:
        raise ValueError(
            f"parameter vector has shape {theta.shape}, "
            f"expected ({arch.param_count},) for widths {arch.widths}"
        )
    return theta


def layer_views(arch: Architecture, theta: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weights (l_k, l_{k-1}), biases (l_k,)) views of every layer block, cheap enough for hot loops.

    They alias ``theta``: writing a view writes the vector, so callers that need a separate layer copy it.
    """
    theta = check_params(arch, theta)
    out = []
    for k in range(1, arch.depth + 1):
        fan_in, fan_out = arch.layer_sizes(k)
        out.append((theta[arch.weight_slice(k)].reshape(fan_out, fan_in), theta[arch.bias_slice(k)]))
    return out
